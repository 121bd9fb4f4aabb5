"""Byte offsets and notification ids for the training segments.

The layout is built over the engine's transfer units: contiguous layer
ranges that move as one transfer.  The engine passes one entry per unit -
under the pipelined schedule, one per layer or a single whole-model entry
as the compute and link model plans them (``runtime.plan_units``); under
the barrier baseline, a single whole-model entry.  Every rank registers the
same two segments:

  SEG_WORK   private working memory: [model units][gradient units].
             Remote writes never land here; it is the local source for
             all outgoing transfers, so payloads go on the wire without
             staging copies.
  SEG_RECV   receive slots, laid out as [slot][parity][unit] and
             double-buffered by iteration parity.  A rank with C
             reduction children has 1 + C slots: slot 0 holds the model
             update from the broadcast parent, slot 1 + c the gradient of
             child c.  Each slot has one writer, so the slot of an
             arriving write says what it carries.

Each transfer is one notify-write with one notification id.  Ids are
dense: with U units, (slot, unit, parity) carries
1 + (slot*U + unit)*2 + parity.  Id 0 is never assigned, every other id
below :meth:`notif_count` is, and :meth:`decode` maps an id back to its
(slot, unit, parity), so one poll over the whole id range sees every
receive.
"""

from __future__ import annotations

import itertools

from ..errors import ConfigError

SEG_WORK = 0
SEG_RECV = 1

_FLOAT_BYTES = 8


class SegmentLayout:
    def __init__(self, param_counts: list[int]):
        if not param_counts:
            raise ConfigError("layout needs at least one unit")
        if any(c < 1 for c in param_counts):
            raise ConfigError(f"unit parameter counts must be positive, got {param_counts}")
        self.param_counts = list(param_counts)
        self.num_units = len(param_counts)
        self.unit_bytes = [c * _FLOAT_BYTES for c in param_counts]
        bounds = list(itertools.accumulate(self.unit_bytes, initial=0))
        self.unit_offsets = bounds[:-1]
        self.total_bytes = bounds[-1]
        self.total_params = sum(param_counts)

    def decode(self, notification_id: int) -> tuple[int, int, int]:
        """(receive slot, unit, parity) of an assigned id."""
        slot, unit = divmod((notification_id - 1) >> 1, self.num_units)
        return slot, unit, (notification_id - 1) & 1

    # SEG_WORK ------------------------------------------------------------

    @property
    def work_size(self) -> int:
        return 2 * self.total_bytes

    def work_model_offset(self, unit: int) -> int:
        return self.unit_offsets[unit]

    def work_grad_offset(self, unit: int) -> int:
        return self.total_bytes + self.unit_offsets[unit]

    # SEG_RECV ------------------------------------------------------------

    def rx_size(self, slots: int) -> int:
        return slots * 2 * self.total_bytes

    def rx_offset(self, slot: int, unit: int, parity: int) -> int:
        return (slot * 2 + parity) * self.total_bytes + self.unit_offsets[unit]

    def notif_id(self, slot: int, unit: int, parity: int) -> int:
        return 1 + (slot * self.num_units + unit) * 2 + parity

    def notif_count(self, slots: int) -> int:
        return 1 + slots * self.num_units * 2
