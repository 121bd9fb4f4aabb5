"""Binomial rank trees for gradient reduction and model broadcast.

Both trees use the same construction: the parent of rank ``r`` is ``r``
with its lowest set bit cleared (``r & (r - 1)``), and rank 0 is the root.
Gradients flow from high ranks toward the root; the updated model flows
back along the same edges.  Because the two edge sets coincide, every link
carries traffic in both directions and a full-duplex network is kept busy
both ways.
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
