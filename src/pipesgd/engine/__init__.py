"""Training engine: one turn-based rank runs both the pipelined schedule
and its barrier baseline, which differ only in transfer units and fences."""

from .checkpoint import load_model, load_model_bytes, save_model, serialize_model
from .config import TrainConfig
from .layout import SEG_RECV, SEG_WORK, SegmentLayout
from .runtime import Rank, RankResult
from .sgd import batch_indices, master_update, sequential_sgd, tree_reduce

__all__ = [
    "Rank",
    "RankResult",
    "SEG_RECV",
    "SEG_WORK",
    "SegmentLayout",
    "TrainConfig",
    "batch_indices",
    "load_model",
    "load_model_bytes",
    "master_update",
    "save_model",
    "sequential_sgd",
    "serialize_model",
    "tree_reduce",
]
