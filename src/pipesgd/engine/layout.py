"""Byte offsets and notification ids for the training segments.

Every rank registers the same three segments:

  SEG_WORK   private working memory: [model layers][gradient layers].
             Remote writes never land here; it is the local source for
             all outgoing transfers, so payloads go on the wire without
             staging copies.
  SEG_MODEL  receive slots for model updates from the broadcast parent,
             double-buffered by iteration parity: [parity 0][parity 1],
             each holding all layers back to back.
  SEG_GRAD   receive slots for child gradient contributions, laid out as
             [child slot][parity][layer].  Only ranks with reduction
             children register a non-trivial instance.

Transfers larger than chunk_bytes are split into chunks that each carry
their own notification.  A transfer of n chunks uses a block of ids: the
base id is carried by the final chunk, base+1+j by earlier chunk j.  The
receiver counts consumed ids per block, so completion detection tolerates
any inter-chunk delivery order.  Id 0 is never assigned.

The layout's "layers" are the engine's transfer units: contiguous layer
ranges that move as one transfer.  The engine builds the layout with one
entry per unit - one per layer under the pipelined schedule, a single
whole-model entry under the barrier baseline - so a rank's id space holds
only its own schedule's blocks.
"""

from __future__ import annotations

from ..errors import ConfigError

SEG_WORK = 0
SEG_MODEL = 1
SEG_GRAD = 2

_FLOAT_BYTES = 8


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class SegmentLayout:
    def __init__(self, param_counts: list[int], chunk_bytes: int):
        if not param_counts:
            raise ConfigError("layout needs at least one layer")
        if any(c < 1 for c in param_counts):
            raise ConfigError(f"layer parameter counts must be positive, got {param_counts}")
        if chunk_bytes < _FLOAT_BYTES or chunk_bytes % _FLOAT_BYTES != 0:
            raise ConfigError(f"chunk_bytes must be a positive multiple of 8, got {chunk_bytes}")
        self.param_counts = list(param_counts)
        self.num_layers = len(param_counts)
        self.chunk_bytes = chunk_bytes
        self.layer_bytes = [c * _FLOAT_BYTES for c in param_counts]
        self.layer_offsets = []
        off = 0
        for b in self.layer_bytes:
            self.layer_offsets.append(off)
            off += b
        self.total_params = sum(param_counts)
        self.total_bytes = off
        self.layer_chunks = [_ceil_div(b, chunk_bytes) for b in self.layer_bytes]
        self.max_chunks = max(self.layer_chunks)
        # Fixed-width id blocks: one per (transfer target, parity).
        self._layer_block = self.max_chunks + 1

    def chunk_count(self, nbytes: int) -> int:
        return _ceil_div(nbytes, self.chunk_bytes)

    # SEG_WORK ------------------------------------------------------------

    @property
    def work_size(self) -> int:
        return 2 * self.total_bytes

    def work_model_offset(self, layer: int) -> int:
        return self.layer_offsets[layer]

    def work_grad_offset(self, layer: int) -> int:
        return self.total_bytes + self.layer_offsets[layer]

    # SEG_MODEL -----------------------------------------------------------

    @property
    def model_rx_size(self) -> int:
        return 2 * self.total_bytes

    def model_slot_offset(self, layer: int, parity: int) -> int:
        return parity * self.total_bytes + self.layer_offsets[layer]

    def model_notif_base(self, layer: int, parity: int) -> int:
        return 1 + (layer * 2 + parity) * self._layer_block

    @property
    def model_notif_count(self) -> int:
        return 1 + self.num_layers * 2 * self._layer_block

    # SEG_GRAD ------------------------------------------------------------

    def grad_rx_size(self, num_children: int) -> int:
        return max(1, num_children) * 2 * self.total_bytes

    def grad_slot_offset(self, child_slot: int, layer: int, parity: int) -> int:
        return (child_slot * 2 + parity) * self.total_bytes + self.layer_offsets[layer]

    def grad_notif_base(self, child_slot: int, layer: int, parity: int) -> int:
        per_child = self.num_layers * 2 * self._layer_block
        return 1 + child_slot * per_child + (layer * 2 + parity) * self._layer_block

    def grad_notif_count(self, num_children: int) -> int:
        return 1 + max(1, num_children) * self.num_layers * 2 * self._layer_block

    # Chunk ids -----------------------------------------------------------

    def chunk_notification_id(self, base: int, chunk_index: int, n_chunks: int) -> int:
        """Id carried by one chunk of a transfer whose block starts at base.

        The final chunk carries the base id itself; earlier chunks carry
        distinct follow-on ids so the receiver can count arrivals without
        assuming delivery order.
        """
        if chunk_index == n_chunks - 1:
            return base
        return base + 1 + chunk_index
