"""Byte offsets and notification ids for the training segments.

The layout is built over the engine's transfer units: contiguous layer
ranges that move as one transfer.  The engine passes one entry per unit -
under the pipelined schedule, one per layer or a single whole-model entry
as the compute and link model plans them (``runtime.plan_units``); under
the barrier baseline, a single whole-model entry.  Every rank registers the
same two segments, each an array of whole-model *slots* laid out as
[slot][unit]:

  SEG_WORK   private working memory, one slot: the gradient.  The backward
             pass writes each layer's gradient here, reduce-scatter data
             is folded into it, the rank updates its shards from it, and
             reduce-scatter writes go on the wire from it without staging
             copies.  Remote writes never land here.
  SEG_RECV   receive slots: ``1 + steps`` of them, ``steps`` the number of
             hypercube steps (:mod:`..topology`).  Slot 0 holds the rank's
             live model: all-gather writes land there, straight in the
             weights the next forward pass reads, the rank updates its own
             shards there in place, and its all-gather writes go out from
             there.  Slot ``1 + j`` receives the data of reduce-scatter
             step ``j``.  Every write lands at its range's own offset in
             the slot, so a range has one place in every slot.

A receive slot is a single buffer; ``runtime`` gives the argument that no
range of it is rewritten before it is read.

Each transfer is one notify-write with one notification id, named by
*channel*, the writer's side of the exchange: over ``P`` virtual ranks,
channel ``w`` is reduce-scatter data from virtual rank ``w`` and channel
``P + w`` all-gather data from it.  Ids are dense: with U units,
(channel, unit) carries ``1 + channel*U + unit``.  Id 0 is never assigned,
every other id below :meth:`notif_count` is, and :meth:`decode` maps an id
back to its (channel, unit), so one poll over the whole id range sees
every receive.  A rank expects a write on only some channels; one on any
other is a protocol violation.
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

    def size(self, slots: int) -> int:
        return slots * self.total_bytes

    def offset(self, slot: int, unit: int, element: int = 0) -> int:
        """Byte offset of one float of a unit in a slot."""
        return slot * self.total_bytes + self.unit_offsets[unit] + element * _FLOAT_BYTES

    def notif_id(self, channel: int, unit: int) -> int:
        return 1 + channel * self.num_units + unit

    def notif_count(self, channels: int) -> int:
        return 1 + channels * self.num_units

    def decode(self, notification_id: int) -> tuple[int, int]:
        """(channel, unit) of an assigned id."""
        return divmod(notification_id - 1, self.num_units)
