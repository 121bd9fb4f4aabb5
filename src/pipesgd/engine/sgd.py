"""Single-process reference optimizer and the shared update arithmetic.

The distributed engine must produce bit-identical parameters to
:func:`sequential_sgd`.  That works because both sides share the exact
same floating point expressions.  The reference sums the per-rank batch
gradients child by child in ascending rank order up the binomial tree
(:func:`tree_reduce`); the engine's reduce-scatter adds the same pairs of
subtree sums, each element on the rank that owns it (see
:mod:`..topology`), and a replicated unit is folded whole on every rank,
in the same order.  Every element is then updated by
:func:`apply_update` - in place on the shard's owner, or on every rank
for a replicated unit, in the engine, on copies through
:func:`master_update` in the reference.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .. import net
from ..buffers import Model, buffer_add, derived_seed, splitmix64_stream
from ..errors import ShapeError
from ..topology import Tree, build_reduction_tree
from .config import TrainConfig

# Stream tag for per-iteration batch index draws.
_TAG_BATCH = 0x6261746368


def apply_update(weights: np.ndarray, gradient: np.ndarray, epsilon: float) -> None:
    """w <- w - epsilon * g in place, with no temporary.

    The gradient is consumed: it holds epsilon * g afterwards.
    """
    if weights.shape != gradient.shape:
        raise ShapeError(
            f"weights shape {weights.shape} does not match gradient shape {gradient.shape}"
        )
    np.multiply(gradient, epsilon, out=gradient)
    np.subtract(weights, gradient, out=weights)


def master_update(weights: np.ndarray, gradient: np.ndarray, epsilon: float) -> np.ndarray:
    """New parameter vector w - epsilon * g; inputs are left untouched."""
    w = np.array(weights, dtype=np.float64)
    apply_update(w, np.array(gradient, dtype=np.float64), epsilon)
    return w


def batch_indices(seed: int, iteration: int, batch_size: int, dataset_size: int) -> np.ndarray:
    """Global sample indices for one iteration, identical on every rank.

    Drawn with replacement from a counter-based stream keyed on
    (seed, iteration), so any rank can compute any iteration's batch
    without shared state.
    """
    stream = splitmix64_stream(derived_seed(seed, _TAG_BATCH, iteration), batch_size)
    return (stream % np.uint64(dataset_size)).astype(np.int64)


def shard_bounds(batch_size: int, world_size: int, rank: int) -> tuple[int, int]:
    """Contiguous [lo, hi) slice of the batch owned by one rank."""
    shard = batch_size // world_size
    return rank * shard, (rank + 1) * shard


def tree_reduce(partials: Sequence[Sequence[np.ndarray]], tree: Tree) -> list[np.ndarray]:
    """Fold per-rank per-layer contributions up a reduction tree.

    partials[r][l] is rank r's layer-l vector.  Processing ranks from the
    highest down, each rank adds its children's accumulated sums in
    ascending child order, which pins the float summation order to the
    one the distributed engine uses.  Returns the root's totals; the
    input arrays are not modified.
    """
    if len(partials) != tree.world_size:
        raise ShapeError(f"{len(partials)} partials for a {tree.world_size}-rank tree")
    acc = [[np.array(v, dtype=np.float64, copy=True) for v in rank_vs] for rank_vs in partials]
    for r in range(tree.world_size - 1, -1, -1):
        for c in tree.children[r]:
            for l in range(len(acc[r])):
                buffer_add(acc[c][l], acc[r][l])
    return acc[0]


def sequential_sgd(
    config: TrainConfig,
    dataset: net.Dataset,
    on_iteration: Callable[[int, Model, float], None] | None = None,
) -> Model:
    """The reference run: one process plays all ranks of one configuration.

    Per iteration it computes every rank's shard gradient, folds them in
    reduction-tree order, and applies the master update to each layer.
    ``on_iteration(k, model, loss)`` sees the post-update model; the loss
    is rank 0's shard loss, matching what the distributed ranks report.
    """
    specs = config.specs()
    model = net.init_model(config.seed, specs)
    tree = build_reduction_tree(config.world_size)
    for k in range(config.iterations):
        idx = batch_indices(config.seed, k, config.batch_size, len(dataset))
        partials = []
        loss0 = 0.0
        for r in range(config.world_size):
            lo, hi = shard_bounds(config.batch_size, config.world_size, r)
            x, t = dataset.take(idx[lo:hi])
            grads, loss = net.backward(specs, model.layers, x, t)
            partials.append(grads)
            if r == 0:
                loss0 = loss
        reduced = tree_reduce(partials, tree)
        model = Model(
            layers=[
                master_update(model.layers[l], reduced[l], config.epsilon)
                for l in range(len(specs))
            ],
            iteration=k + 1,
        )
        if on_iteration is not None:
            on_iteration(k, model, loss0)
    return model
