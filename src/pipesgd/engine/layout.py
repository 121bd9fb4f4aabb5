"""Byte offsets and notification ids for the training segments.

The layout is built over the engine's transfer units: contiguous layer
ranges that move as one transfer.  The engine passes one entry per unit -
under the pipelined schedule, one per layer or a single whole-model entry
as the compute and link model plans them (``runtime.plan_units``); under
the barrier baseline, a single whole-model entry.  Every rank registers the
same three segments:

  SEG_WORK   private working memory: [model units][gradient units].
             Remote writes never land here; it is the local source for
             all outgoing transfers, so payloads go on the wire without
             staging copies.
  SEG_MODEL  receive slots for model updates from the broadcast parent,
             double-buffered by iteration parity: [parity 0][parity 1],
             each holding all units back to back.
  SEG_GRAD   receive slots for child gradient contributions, laid out as
             [child slot][parity][unit].  Only ranks with reduction
             children register a non-trivial instance.

Each transfer is one notify-write with one notification id.  Ids are
dense: with U units, the model update of (unit, parity) carries
1 + unit*2 + parity and the gradient of (child slot, unit, parity)
carries 1 + (slot*U + unit)*2 + parity.  Id 0 is never assigned, every
other id below the notification count is, and :meth:`decode` maps an id
of either segment back to its (slot, unit, parity).
"""

from __future__ import annotations

import itertools

from ..errors import ConfigError

SEG_WORK = 0
SEG_MODEL = 1
SEG_GRAD = 2

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
        """(child slot, unit, parity) of an assigned id; slot is 0 for model ids."""
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

    # SEG_MODEL -----------------------------------------------------------

    @property
    def model_rx_size(self) -> int:
        return 2 * self.total_bytes

    def model_slot_offset(self, unit: int, parity: int) -> int:
        return parity * self.total_bytes + self.unit_offsets[unit]

    def model_notif_id(self, unit: int, parity: int) -> int:
        return 1 + unit * 2 + parity

    @property
    def model_notif_count(self) -> int:
        return 1 + self.num_units * 2

    # SEG_GRAD ------------------------------------------------------------

    def grad_rx_size(self, num_children: int) -> int:
        return max(1, num_children) * 2 * self.total_bytes

    def grad_slot_offset(self, child_slot: int, unit: int, parity: int) -> int:
        return (child_slot * 2 + parity) * self.total_bytes + self.unit_offsets[unit]

    def grad_notif_id(self, child_slot: int, unit: int, parity: int) -> int:
        return 1 + (child_slot * self.num_units + unit) * 2 + parity

    def grad_notif_count(self, num_children: int) -> int:
        return 1 + max(1, num_children) * self.num_units * 2
