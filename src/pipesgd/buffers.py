"""Flat float64 parameter buffers and the fixed, portable PRNG.

Every tensor in this package is a one dimensional ``numpy.float64`` array.
Keeping a single dtype and a single generator (splitmix64 with a fixed
output-to-float mapping) is what makes distributed runs bit-reproducible:
two processes that fill a buffer from the same seed hold identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer on a single 64-bit value."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derived_seed(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, producing an independent stream seed."""
    state = seed & _MASK64
    for tag in tags:
        state = mix64(state ^ mix64(tag & _MASK64))
    return state


def splitmix64_stream(seed: int, count: int) -> np.ndarray:
    """First ``count`` outputs of splitmix64 started at ``seed``, as uint64.

    The n-th output (0-based) equals ``mix64(seed + (n + 1) * GAMMA)``, so
    the whole stream vectorizes over numpy's wrapping uint64 arithmetic.
    """
    if count < 0:
        raise ShapeError(f"stream length must be >= 0, got {count}")
    n = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + n * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
    return z ^ (z >> np.uint64(31))


def seeded_fill(seed: int, length: int, scale: float) -> np.ndarray:
    """Deterministic float64 buffer with values in [-scale, scale].

    Each splitmix64 output keeps its top 53 bits, is divided down to
    [0, 1), and is mapped through ``scale * (2u - 1)``.  The mapping uses
    only exact dyadic operations plus one multiply, so results are
    identical on every platform that implements IEEE 754.
    """
    if length <= 0:
        raise ShapeError(f"buffer length must be positive, got {length}")
    z = splitmix64_stream(seed, length)
    u = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return scale * (2.0 * u - 1.0)


def buffer_axpy(alpha: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """In-place ``y := y + alpha * x``; returns ``y``.  ``x`` is not touched."""
    if x.shape != y.shape:
        raise ShapeError(f"axpy length mismatch: {x.shape} vs {y.shape}")
    y += alpha * x
    return y


@dataclass
class Model:
    """Per-layer flat parameter buffers plus the iteration that produced them."""

    layers: list[np.ndarray]
    iteration: int = 0

    def copy(self) -> "Model":
        return Model([np.array(l, dtype=np.float64) for l in self.layers], self.iteration)
