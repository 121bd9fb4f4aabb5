"""The binomial tree that fixes the summation order, and the hypercube
that realizes it.

The tree: the parent of rank ``r`` is ``r`` with its lowest set bit
cleared (``r & (r - 1)``), and rank 0 is the root.  Folding each rank's
children's subtree sums in ascending order (``sgd.tree_reduce``) is the
reference order every distributed sum must reproduce bit for bit.

The hypercube: the engine does not move data along the tree.  It runs a
recursive-halving reduce-scatter over partner distances 1, 2, 4, ... and
a recursive-doubling all-gather back over ..., 4, 2, 1, among ``P``
*virtual ranks*, ``P`` the world size rounded up to a power of two.  At
step ``j`` virtual rank ``v`` pairs with ``v ^ 2**j``; both hold the sums
of two aligned blocks of ``2**j`` virtual ranks, the lower and the upper
half of the block of ``2**(j+1)`` that contains them.  A binomial subtree
is exactly such a block, and the tree adds the same two block sums when
it folds a subtree's last child, so with IEEE addition commutative every
element gets the reference expression.  A virtual rank ``v >= N`` has no
gradient; a block holding none but such ranks contributes nothing, and
its partner's sum passes through unchanged instead of being added to
zeros (``-0.0 + 0.0`` is ``+0.0``).

The owner rule: ``v >= N`` is played by the rank that already holds the
data it would receive.  At the first step ``j`` whose block of
``2**(j+1)`` around ``v`` starts below ``N``, ``v``'s own half is absent
and its partner ``v - 2**j`` holds the sum of the whole block on the
range both split, so the partner's player takes ``v`` on without a write
(:func:`build_hypercube`).  The shards of absent virtual ranks thus spread
over the present ranks of their block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import TreeError


@dataclass(frozen=True)
class Tree:
    """A rooted tree over ranks 0..world_size-1.

    ``children`` lists are sorted ascending; that ordering is load-bearing,
    it fixes the floating point reduction order and therefore makes
    distributed sums bit-reproducible.
    """

    world_size: int
    root: int
    parent: dict[int, int]
    children: dict[int, list[int]]


def build_reduction_tree(world_size: int) -> Tree:
    """Tree along which gradients are summed toward rank 0 and the model fans back out."""
    if world_size < 1:
        raise TreeError(f"world size must be >= 1, got {world_size}")
    parent: dict[int, int] = {}
    children: dict[int, list[int]] = {r: [] for r in range(world_size)}
    for r in range(1, world_size):
        p = r & (r - 1)  # clear lowest set bit
        parent[r] = p
        children[p].append(r)
    for p in children:
        children[p].sort()
    return Tree(world_size=world_size, root=0, parent=parent, children=children)


build_broadcast_tree = build_reduction_tree


def depth(tree: Tree) -> int:
    """Longest root-to-leaf path length in edges."""
    best = 0
    for r in range(tree.world_size):
        d = 0
        node = r
        while node != tree.root:
            node = tree.parent[node]
            d += 1
        best = max(best, d)
    return best


def tree_check(tree: Tree) -> None:
    """Validate structural invariants; raises TreeError naming the violation.

    Checks: single root 0 with no parent, every non-root has exactly one
    parent with a smaller id, exactly world_size - 1 edges, all ranks
    reachable from the root (connected and acyclic), children sorted
    ascending, and depth <= ceil(log2(world_size)).
    """
    s = tree.world_size
    if s < 1:
        raise TreeError("world size must be >= 1")
    if tree.root != 0:
        raise TreeError(f"root must be rank 0, got {tree.root}")
    if tree.root in tree.parent:
        raise TreeError("root must not have a parent")
    if len(tree.parent) != s - 1:
        raise TreeError(f"expected {s - 1} edges, found {len(tree.parent)}")
    for r, p in tree.parent.items():
        if not (0 <= r < s) or not (0 <= p < s):
            raise TreeError(f"edge {p}->{r} names a rank outside 0..{s - 1}")
        if p >= r:
            raise TreeError(f"parent id must be smaller than child id, got {p}->{r}")
    for p, kids in tree.children.items():
        if kids != sorted(kids):
            raise TreeError(f"children of {p} are not sorted ascending: {kids}")
        for c in kids:
            if tree.parent.get(c) != p:
                raise TreeError(f"child list of {p} names {c}, whose parent is {tree.parent.get(c)}")
    # reachability from the root.
    seen = {tree.root}
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        for c in tree.children.get(node, []):
            if c in seen:
                raise TreeError(f"rank {c} reached twice; tree contains a cycle")
            seen.add(c)
            frontier.append(c)
    if len(seen) != s:
        missing = sorted(set(range(s)) - seen)
        raise TreeError(f"ranks {missing} are not reachable from the root")
    if s > 1:
        limit = math.ceil(math.log2(s))
        d = depth(tree)
        if d > limit:
            raise TreeError(f"depth {d} exceeds ceil(log2({s})) = {limit}")


@dataclass(frozen=True)
class Hypercube:
    """Reduce-scatter and all-gather partners over ``world_size`` ranks.

    ``players[v]`` is the rank that plays virtual rank ``v``; ranks below
    the world size play themselves.
    """

    world_size: int
    steps: int
    players: tuple[int, ...]

    def exchanges(self, rank: int, step: int) -> list[tuple[int, int]]:
        """``(v, w)`` for every virtual rank ``v`` this rank plays that
        trades data at ``step`` with its partner ``w``, played elsewhere.

        Pairs where one block is absent trade nothing: the player of the
        present one keeps both halves.
        """
        bit = 1 << step
        out = []
        for v, player in enumerate(self.players):
            w = v ^ bit
            present = _block_start(v, step) < self.world_size
            if player == rank and present and _block_start(w, step) < self.world_size:
                out.append((v, w))
        return out


def _block_start(vrank: int, step: int) -> int:
    """First virtual rank of the aligned block of ``2**step`` holding ``vrank``."""
    return vrank >> step << step


def build_hypercube(world_size: int) -> Hypercube:
    if world_size < 1:
        raise TreeError(f"world size must be >= 1, got {world_size}")
    steps = (world_size - 1).bit_length()
    players = list(range(1 << steps))
    for v in range(world_size, 1 << steps):
        # the first step whose block of 2**(step+1) reaches a present rank
        step = next(j for j in range(steps) if _block_start(v, j + 1) < world_size)
        players[v] = players[v - (1 << step)]
    return Hypercube(world_size, steps, tuple(players))


def shard_range(size: int, vrank: int, steps: int) -> tuple[int, int]:
    """``[lo, hi)`` of a ``size``-element unit that virtual rank ``vrank``
    keeps after ``steps`` reduce-scatter steps: step ``j`` halves the range
    and keeps the lower half when bit ``j`` of ``vrank`` is 0.  Every rank
    computes every range the same way, so an empty one is skipped by its
    sender and its receiver alike."""
    lo, hi = 0, size
    for j in range(steps):
        mid = (lo + hi) // 2
        if vrank >> j & 1:
            lo = mid
        else:
            hi = mid
    return lo, hi
