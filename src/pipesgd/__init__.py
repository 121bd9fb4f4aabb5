"""Pipelined data-parallel SGD over a one-sided notify-write transport.

Layer gradients are reduce-scattered over a hypercube while the backward
pass is still running, every rank updates the shards it owns and
all-gathers the rest, and no barriers run anywhere in the training loop.
Results are bit-identical to the bundled single-process reference
optimizer regardless of world size, transport, or message timing.

The top level carries what README's "Library use" example needs; every
other name lives in its submodule (``pipesgd.engine``, ``pipesgd.harness``,
``pipesgd.transport``, ...).
"""

from . import net
from .engine import TrainConfig, sequential_sgd
from .harness import run_inproc
from .net import make_synthetic_dataset

__version__ = "0.1.0"

__all__ = [
    "TrainConfig",
    "make_synthetic_dataset",
    "net",
    "run_inproc",
    "sequential_sgd",
]
