"""Training run configuration."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from ..errors import ConfigError
from ..net import DenseLayerSpec, specs_from_dims

PATTERNS = ("pipelined", "barrier")

# Notification values travel in a u32 wire field.  Engine values reach
# `iterations`; the tcp barrier's sequence number reaches 2*iterations + 2
# under the barrier pattern (one rendezvous, two fences per iteration, one
# teardown hold), which must stay below 2**32.
MAX_ITERATIONS = 2**31 - 2

_INT_FIELDS = (
    "world_size", "iterations", "batch_size", "seed", "compute_inflation_ns", "dataset_size"
)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class TrainConfig:
    """Everything a rank needs to run a training loop deterministically.

    The batch must divide evenly across ranks: every rank derives the same
    global sample indices from (seed, iteration) and takes its contiguous
    shard, so results are a pure function of this config and the dataset.
    """

    layer_dims: tuple[int, ...] = (64, 128, 128, 64, 10)
    world_size: int = 4
    iterations: int = 50
    batch_size: int = 64
    epsilon: float = 0.05
    seed: int = 42
    pattern: str = "pipelined"
    compute_inflation_ns: int = 0
    dataset_size: int = 256
    input_scale: float = 1.0
    finalize_timeout_s: float = 30.0

    def __post_init__(self):
        self.layer_dims = tuple(self.layer_dims)
        self.validate()

    def validate(self) -> None:
        if len(self.layer_dims) < 2:
            raise ConfigError("layer_dims needs at least an input and an output width")
        if not all(_is_int(d) and d >= 1 for d in self.layer_dims):
            raise ConfigError(f"layer widths must be positive integers, got {self.layer_dims}")
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.world_size < 1:
            raise ConfigError(f"world_size must be >= 1, got {self.world_size}")
        if not 1 <= self.iterations <= MAX_ITERATIONS:
            raise ConfigError(
                f"iterations must be in [1, {MAX_ITERATIONS}], got {self.iterations}"
            )
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.batch_size % self.world_size != 0:
            raise ConfigError(
                f"batch_size {self.batch_size} must divide evenly over "
                f"{self.world_size} ranks"
            )
        if not self.epsilon > 0.0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")
        if self.pattern not in PATTERNS:
            raise ConfigError(f"pattern must be one of {PATTERNS}, got {self.pattern!r}")
        if self.compute_inflation_ns < 0:
            raise ConfigError("compute_inflation_ns must be >= 0")
        if not math.isfinite(self.input_scale):
            raise ConfigError(f"input_scale must be finite, got {self.input_scale}")
        if self.dataset_size < 1:
            raise ConfigError(f"dataset_size must be >= 1, got {self.dataset_size}")
        if not self.finalize_timeout_s > 0.0:
            raise ConfigError("finalize_timeout_s must be > 0")
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in an unsigned 64-bit integer")

    def specs(self) -> list[DenseLayerSpec]:
        return specs_from_dims(self.layer_dims)

    def replace(self, **overrides) -> "TrainConfig":
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        values.update(overrides)
        return TrainConfig(**values)
