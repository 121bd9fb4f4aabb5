"""Dense multilayer perceptron on flat float64 parameter buffers.

The backward pass walks layers from the output toward the input and hands
each finished per-layer gradient to an optional callback.  That emission
order is what lets the training engine start communicating a layer's
gradient while earlier layers are still being differentiated.

A one-row batch takes its weight gradients as exact outer products
(``np.einsum``): ``np.matmul`` with inner dimension 1 skips BLAS for a
slow generic loop, about 100 against 35 microseconds for a 256x256
layer on a 2-vCPU Intel Xeon host with NumPy 2.4.  Both sum one product
onto zero, so the bytes are equal, signed zeros included.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .buffers import Model, derived_seed, seeded_fill
from .errors import ConfigError, InputError, ShapeError

ACTIVATIONS = ("identity", "tanh")

# stream tags for the dataset generator; arbitrary fixed constants.
_TAG_INPUTS = 0x696E70757473
_TAG_TEACHER = 0x7465616368


@dataclass(frozen=True)
class DenseLayerSpec:
    """One dense layer: out = act(W @ x + b), W stored row-major then b."""

    in_dim: int
    out_dim: int
    activation: str = "tanh"

    def __post_init__(self) -> None:
        if self.in_dim < 1 or self.out_dim < 1:
            raise ConfigError(f"layer dims must be positive, got {self.in_dim}x{self.out_dim}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}; choose from {ACTIVATIONS}")

    @property
    def param_count(self) -> int:
        return self.in_dim * self.out_dim + self.out_dim


def specs_from_dims(dims: Sequence[int]) -> list[DenseLayerSpec]:
    """Layer specs for a dims chain like [64, 128, 10]: tanh hidden, identity output."""
    if len(dims) < 2:
        raise ConfigError(f"need at least input and output dims, got {list(dims)}")
    specs = []
    for i in range(len(dims) - 1):
        act = "identity" if i == len(dims) - 2 else "tanh"
        specs.append(DenseLayerSpec(dims[i], dims[i + 1], act))
    return specs


def split_params(spec: DenseLayerSpec, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Views of the weight matrix (out_dim, in_dim) and bias inside a flat buffer."""
    if len(flat) != spec.param_count:
        raise ShapeError(f"layer buffer has {len(flat)} values, spec needs {spec.param_count}")
    w = flat[: spec.in_dim * spec.out_dim].reshape(spec.out_dim, spec.in_dim)
    b = flat[spec.in_dim * spec.out_dim :]
    return w, b


def init_model(seed: int, specs: Sequence[DenseLayerSpec]) -> Model:
    """Deterministic model init: layer l is filled from seed XOR l.

    The fill scale is 1/sqrt(in_dim), small enough to keep tanh units out
    of saturation at the default widths.
    """
    layers = []
    for l, spec in enumerate(specs):
        scale = 1.0 / np.sqrt(spec.in_dim)
        layers.append(seeded_fill(seed ^ l, spec.param_count, scale))
    return Model(layers=layers, iteration=0)


class Dataset:
    """Fixed-size collection of samples stored as two dense matrices."""

    def __init__(self, inputs: np.ndarray, targets: np.ndarray):
        inputs = np.asarray(inputs, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ShapeError("dataset inputs and targets must be 2-D arrays")
        if inputs.shape[0] != targets.shape[0]:
            raise ShapeError(
                f"inputs hold {inputs.shape[0]} rows but targets hold {targets.shape[0]}"
            )
        if inputs.shape[0] == 0:
            raise InputError("dataset must contain at least one sample")
        self.inputs = inputs
        self.targets = targets

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def take(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row-gathered (inputs, targets) pair for a batch."""
        return self.inputs[indices], self.targets[indices]


def forward(
    specs: Sequence[DenseLayerSpec],
    weights: Sequence[np.ndarray],
    x: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network; returns (output, activation cache).

    ``x`` may be one sample (in_dim,) or a batch (B, in_dim); the output
    matches that arrangement.  The cache holds the layer inputs A_0..A_L
    and is consumed by :func:`backward`.
    """
    if len(specs) != len(weights):
        raise ShapeError(f"{len(specs)} layer specs but {len(weights)} weight buffers")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = np.atleast_2d(x)
    if a.shape[1] != specs[0].in_dim:
        raise ShapeError(f"input width {a.shape[1]} does not match in_dim {specs[0].in_dim}")
    cache = [a]
    for spec, flat in zip(specs, weights):
        w, b = split_params(spec, flat)
        z = a @ w.T + b
        a = np.tanh(z) if spec.activation == "tanh" else z
        cache.append(a)
    return (a[0] if single else a), cache


def loss_mse(output: np.ndarray, target: np.ndarray) -> float:
    """Half mean squared error over one output vector: (1/2n) sum (o-t)^2."""
    if output.shape != target.shape:
        raise ShapeError(f"loss shapes differ: {output.shape} vs {target.shape}")
    d = output - target
    return float(d @ d) / (2.0 * len(output))


def batch_loss(outputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean of loss_mse over the rows of a batch."""
    if outputs.shape != targets.shape:
        raise ShapeError(f"loss shapes differ: {outputs.shape} vs {targets.shape}")
    d = outputs - targets
    return float(np.sum(d * d)) / (2.0 * outputs.shape[1] * outputs.shape[0])


def backward(
    specs: Sequence[DenseLayerSpec],
    weights: Sequence[np.ndarray],
    batch_inputs: np.ndarray,
    batch_targets: np.ndarray,
    on_layer: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[list[np.ndarray], float]:
    """Gradients of the batch-mean loss, emitted output layer first.

    Returns (grads, loss) where grads[l] is the flat gradient for layer l.
    When ``on_layer`` is given it is invoked as ``on_layer(l, grads[l])``
    in strictly decreasing l, after that layer's gradient is final.  The
    callback may freely overwrite weight buffers of layers >= the emitted
    one; layers below it are still needed and must stay untouched.
    """
    x = np.atleast_2d(np.asarray(batch_inputs, dtype=np.float64))
    if x.shape[0] == 0:
        raise InputError("batch must contain at least one sample")
    _, cache = forward(specs, weights, x)
    return backward_from_cache(specs, weights, cache, batch_targets, on_layer)


def backward_from_cache(
    specs: Sequence[DenseLayerSpec],
    weights: Sequence[np.ndarray],
    cache: list[np.ndarray],
    batch_targets: np.ndarray,
    on_layer: Callable[[int, np.ndarray], None] | None = None,
    out: Sequence[np.ndarray] | None = None,
) -> tuple[list[np.ndarray], float]:
    """backward() given an activation cache from a prior forward().

    ``out`` holds one flat float64 buffer per layer; each layer's gradient
    is computed straight into its buffer, which is what ``on_layer``
    receives and what is returned.  Without it the buffers are allocated
    here.

    With one row in the batch the weight gradient is the outer product
    ``np.einsum("bo,bi->oi", d_z, a_in)``, byte-equal to the
    ``np.matmul(d_z.T, a_in)`` every other batch size uses, which at
    inner dimension 1 runs NumPy's non-BLAS loop at about three times the
    cost.  ``np.multiply(d_z.T, a_in)`` would not do: it keeps the -0.0
    products that matmul's sum onto zero turns into +0.0.  The network
    input's gradient is not computed.
    """
    t = np.atleast_2d(np.asarray(batch_targets, dtype=np.float64))
    if cache[0].shape[0] != t.shape[0]:
        raise ShapeError(f"batch has {cache[0].shape[0]} inputs but {t.shape[0]} targets")
    if t.shape[1] != specs[-1].out_dim:
        raise ShapeError(f"target width {t.shape[1]} does not match out_dim {specs[-1].out_dim}")
    if out is None:
        out = [np.empty(spec.param_count) for spec in specs]
    elif len(out) != len(specs):
        raise ShapeError(f"{len(specs)} layer specs but {len(out)} gradient buffers")

    loss = batch_loss(cache[-1], t)
    n_out = specs[-1].out_dim
    b = cache[0].shape[0]

    d_a = (cache[-1] - t) / (n_out * b)  # d(batch loss) / d A_L
    for l in range(len(specs) - 1, -1, -1):
        spec = specs[l]
        a_in, a_out = cache[l], cache[l + 1]
        d_z = d_a * (1.0 - a_out * a_out) if spec.activation == "tanh" else d_a
        w, _ = split_params(spec, weights[l])
        d_w, d_b = split_params(spec, out[l])
        if b == 1:
            np.einsum("bo,bi->oi", d_z, a_in, out=d_w)
        else:
            np.matmul(d_z.T, a_in, out=d_w)
        np.sum(d_z, axis=0, out=d_b)
        # propagate before emitting: the callback may overwrite this layer's
        # weights (e.g. a freshly broadcast model lands), and d_a needs the
        # values the forward pass used.  Nothing reads the input's gradient.
        if l > 0:
            d_a = d_z @ w
        if on_layer is not None:
            on_layer(l, out[l])
    return list(out), loss


def dataset_loss(
    specs: Sequence[DenseLayerSpec], weights: Sequence[np.ndarray], dataset: Dataset
) -> float:
    """Batch-mean loss over the whole dataset."""
    out, _ = forward(specs, weights, dataset.inputs)
    return batch_loss(out, dataset.targets)


def make_synthetic_dataset(
    seed: int, num_samples: int, specs: Sequence[DenseLayerSpec], input_scale: float = 1.0
) -> Dataset:
    """Deterministic regression dataset.

    Inputs are a seeded fill; targets are produced by a hidden teacher
    network of the same architecture (its weights come from a derived
    seed), so the learning problem is solvable and the loss curve is
    stable across seeds.  Identical on every rank and backend by
    construction.
    """
    if num_samples < 1:
        raise InputError(f"num_samples must be >= 1, got {num_samples}")
    in_dim = specs[0].in_dim
    flat = seeded_fill(derived_seed(seed, _TAG_INPUTS), num_samples * in_dim, input_scale)
    inputs = flat.reshape(num_samples, in_dim)
    teacher = init_model(derived_seed(seed, _TAG_TEACHER), specs)
    targets, _ = forward(specs, teacher.layers, inputs)
    return Dataset(inputs, targets)


def load_csv_dataset(path: str, in_dim: int, out_dim: int) -> Dataset:
    """Header-less CSV rows of x_1..x_n,t_1..t_m as a Dataset."""
    inputs, targets = [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read dataset: {exc}") from exc
    with fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != in_dim + out_dim:
                raise InputError(
                    f"{path}:{lineno}: expected {in_dim + out_dim} columns, found {len(row)}"
                )
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
            if not all(map(math.isfinite, values)):
                raise InputError(f"{path}:{lineno}: values must be finite, got {row}")
            inputs.append(values[:in_dim])
            targets.append(values[in_dim:])
    if not inputs:
        raise InputError(f"{path}: no data rows")
    return Dataset(np.array(inputs), np.array(targets))


def save_csv_dataset(dataset: Dataset, path: str) -> None:
    """Inverse of load_csv_dataset."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(len(dataset)):
            row = [repr(float(v)) for v in dataset.inputs[i]]
            row += [repr(float(v)) for v in dataset.targets[i]]
            writer.writerow(row)
