"""Pipelined data-parallel SGD over a one-sided notify-write transport.

Layer gradients flow up a binomial reduction tree while the backward pass
is still running, the master applies updates and broadcasts each layer
back down the same edges, and no barriers run anywhere in the training
loop.  Results are bit-identical to the bundled single-process reference
optimizer regardless of world size, transport, or message timing.
"""

from .buffers import Model, buffer_axpy, derived_seed, seeded_fill
from .engine import (
    Rank,
    RankResult,
    TrainConfig,
    load_model,
    master_update,
    save_model,
    sequential_sgd,
    tree_reduce,
)
from .errors import (
    ConfigError,
    FormatError,
    InputError,
    PipesgdError,
    ProtocolError,
    RangeError,
    RoutingError,
    ShapeError,
    TransportError,
    TreeError,
    UsageError,
    VerificationError,
)
from .harness import (
    BenchOptions,
    BenchReport,
    build_dataset,
    run_benchmark,
    run_inproc,
    run_tcp,
    verify_against_reference,
)
from .net import Dataset, DenseLayerSpec, forward, init_model, make_synthetic_dataset
from .timeline import RunMetrics, TimelineEvent, compute_overlap
from .topology import build_broadcast_tree, build_reduction_tree, tree_check
from .transport import (
    CONTROL_SEGMENT,
    InprocTransport,
    InprocWorld,
    LatencyModel,
    TcpTransport,
    TransportBase,
    WriteRequest,
    bind_listener,
)

__version__ = "0.1.0"

__all__ = [
    "BenchOptions",
    "BenchReport",
    "CONTROL_SEGMENT",
    "ConfigError",
    "Dataset",
    "DenseLayerSpec",
    "FormatError",
    "InprocTransport",
    "InprocWorld",
    "InputError",
    "LatencyModel",
    "Model",
    "PipesgdError",
    "ProtocolError",
    "RangeError",
    "Rank",
    "RankResult",
    "RoutingError",
    "RunMetrics",
    "ShapeError",
    "TcpTransport",
    "TimelineEvent",
    "TrainConfig",
    "TransportBase",
    "TransportError",
    "TreeError",
    "UsageError",
    "VerificationError",
    "WriteRequest",
    "buffer_axpy",
    "build_broadcast_tree",
    "build_dataset",
    "build_reduction_tree",
    "compute_overlap",
    "derived_seed",
    "forward",
    "init_model",
    "load_model",
    "make_synthetic_dataset",
    "master_update",
    "run_benchmark",
    "run_inproc",
    "run_tcp",
    "save_model",
    "seeded_fill",
    "sequential_sgd",
    "tree_check",
    "tree_reduce",
    "verify_against_reference",
]
