"""Byte offsets and notification ids for the training segments.

The layout is built over the engine's transfer units: contiguous layer
ranges that move as one transfer.  The engine passes one entry per unit -
under the pipelined schedule, one per layer or a single whole-model entry
as the compute and link model plans them (``runtime.plan_units``); under
the barrier baseline, a single whole-model entry.  Every rank registers the
same two segments, each an array of whole-model *slots* laid out as
[slot][unit]:

  SEG_WORK   private working memory, one slot: the gradient.  The backward
             pass writes each layer's gradient here, children's gradients
             are folded into it, the master updates from it, and gradient
             writes go on the wire from it without staging copies.  Remote
             writes never land here.
  SEG_RECV   receive slots.  A rank with C reduction children has 1 + C
             slots: slot 0 holds the rank's live model, slot 1 + c the
             gradient of child c.  Each slot has one writer, so the slot of
             an arriving write says what it carries.  The broadcast parent
             writes model units straight into slot 0, the master updates
             its own slot 0 in place, and model writes to children go out
             from it: a model unit is never copied on its way through a
             rank.

A receive slot is a single buffer.  The tree's causal order keeps it safe
to reuse: a child writes its gradient for iteration k+1 only after model
k landed in its slot 0, which its parent sent only after folding the
child's iteration-k gradient; a parent writes model k+1 only after the
child's iteration-k+1 gradient went up, which the child sent only after
its iteration-k writes completed and after its backward pass read the
weights of that unit for the last time.  So every slot is read, and its
notification reset, before the next write to it is issued, and slot 0 is
never overwritten while it is still the source of a pending write.

Each transfer is one notify-write with one notification id.  Ids are
dense: with U units, (slot, unit) carries 1 + slot*U + unit.  Id 0 is
never assigned, every other id below :meth:`notif_count` is, and
:meth:`decode` maps an id back to its (slot, unit), so one poll over the
whole id range sees every receive.
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

    def offset(self, slot: int, unit: int) -> int:
        return slot * self.total_bytes + self.unit_offsets[unit]

    def notif_id(self, slot: int, unit: int) -> int:
        return 1 + slot * self.num_units + unit

    def notif_count(self, slots: int) -> int:
        return 1 + slots * self.num_units

    def decode(self, notification_id: int) -> tuple[int, int]:
        """(receive slot, unit) of an assigned id."""
        return divmod(notification_id - 1, self.num_units)
