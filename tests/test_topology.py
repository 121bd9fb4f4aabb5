"""Binomial reduction/broadcast tree construction and validation, and the
hypercube that realizes the tree's order."""

import math

import pytest

from pipesgd.errors import TreeError
from pipesgd.topology import (
    Tree,
    build_broadcast_tree,
    build_hypercube,
    build_reduction_tree,
    depth,
    shard_range,
    tree_check,
)


def test_single_rank_tree():
    t = build_reduction_tree(1)
    assert t.parent == {}
    assert t.children == {0: []}
    assert depth(t) == 0
    tree_check(t)


def test_two_ranks():
    t = build_reduction_tree(2)
    assert t.parent == {1: 0}
    assert t.children == {0: [1], 1: []}
    assert depth(t) == 1


def test_eight_ranks_exact_shape():
    """Enumerated by hand: parent of r is r with its lowest set bit cleared."""
    t = build_reduction_tree(8)
    assert t.parent == {1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 6}
    assert t.children[0] == [1, 2, 4]
    assert t.children[4] == [5, 6]
    assert depth(t) == 3


def test_four_ranks_exact_shape():
    t = build_reduction_tree(4)
    assert t.parent == {1: 0, 2: 0, 3: 2}
    assert t.children == {0: [1, 2], 1: [], 2: [3], 3: []}
    assert depth(t) == 2


def test_broadcast_tree_shares_edges_with_reduction_tree():
    """Model updates travel the reduction edges in reverse, full duplex."""
    for s in (1, 2, 3, 5, 8, 16, 33):
        red = build_reduction_tree(s)
        bc = build_broadcast_tree(s)
        assert red.parent == bc.parent
        assert red.children == bc.children


@pytest.mark.parametrize("world_size", list(range(1, 65)))
def test_every_world_size_is_well_formed(world_size):
    t = build_reduction_tree(world_size)
    tree_check(t)
    assert t.world_size == world_size
    if world_size > 1:
        assert depth(t) <= math.ceil(math.log2(world_size))
    else:
        assert depth(t) == 0
    # every non-root rank has a parent with a smaller id
    for r in range(1, world_size):
        assert t.parent[r] < r
    # edge count of a connected tree
    assert sum(len(c) for c in t.children.values()) == world_size - 1


def test_children_are_ascending_everywhere():
    for s in (5, 12, 31, 64):
        t = build_reduction_tree(s)
        for r, kids in t.children.items():
            assert kids == sorted(kids)
            for c in kids:
                assert c > r


class TestTreeCheck:
    def test_rejects_wrong_root_parent(self):
        t = Tree(world_size=2, root=0, parent={0: 1, 1: 0}, children={0: [1], 1: [0]})
        with pytest.raises(TreeError):
            tree_check(t)

    def test_rejects_cycle(self):
        t = Tree(
            world_size=3,
            root=0,
            parent={1: 2, 2: 1},
            children={0: [], 1: [2], 2: [1]},
        )
        with pytest.raises(TreeError):
            tree_check(t)

    def test_rejects_unsorted_children(self):
        t = Tree(world_size=3, root=0, parent={1: 0, 2: 0}, children={0: [2, 1], 1: [], 2: []})
        with pytest.raises(TreeError):
            tree_check(t)

    def test_rejects_parent_child_disagreement(self):
        t = Tree(world_size=3, root=0, parent={1: 0, 2: 0}, children={0: [1], 1: [], 2: []})
        with pytest.raises(TreeError):
            tree_check(t)

    def test_rejects_too_deep_tree(self):
        # a 4-rank chain is connected and acyclic but deeper than log2(4)
        t = Tree(
            world_size=4,
            root=0,
            parent={1: 0, 2: 1, 3: 2},
            children={0: [1], 1: [2], 2: [3], 3: []},
        )
        with pytest.raises(TreeError):
            tree_check(t)


class TestHypercube:
    def test_powers_of_two_play_themselves(self):
        for world_size in (1, 2, 4, 8, 16):
            cube = build_hypercube(world_size)
            assert cube.players == tuple(range(world_size))
            assert cube.steps == int(math.log2(world_size))

    def test_absent_ranks_go_to_the_rank_holding_their_data(self):
        """Virtual rank v >= N joins the rank that holds its block's sum
        when v first meets a present block: over 6 ranks, 6 meets block
        {4, 5} at step 1 through partner 4, and 7 through partner 5."""
        assert build_hypercube(3).players == (0, 1, 2, 2)
        assert build_hypercube(5).players == (0, 1, 2, 3, 4, 4, 4, 4)
        assert build_hypercube(6).players == (0, 1, 2, 3, 4, 5, 4, 5)

    def test_exchanges_over_three_ranks(self):
        """Rank 2 plays virtual ranks 2 and 3: step 0 pairs them with each
        other and trades nothing; step 1 pairs them with 0 and 1."""
        cube = build_hypercube(3)
        assert [cube.exchanges(r, 0) for r in range(3)] == [[(0, 1)], [(1, 0)], []]
        assert [cube.exchanges(r, 1) for r in range(3)] == [[(0, 2)], [(1, 3)], [(2, 0), (3, 1)]]

    @pytest.mark.parametrize("world_size", range(1, 17))
    def test_exchanges_are_symmetric_between_distinct_ranks(self, world_size):
        cube = build_hypercube(world_size)
        for step in range(cube.steps):
            pairs = {(v, w) for r in range(world_size) for v, w in cube.exchanges(r, step)}
            assert pairs == {(w, v) for v, w in pairs}
            assert all(cube.players[v] != cube.players[w] for v, w in pairs)

    @pytest.mark.parametrize("size", [0, 1, 2, 7, 64, 101])
    @pytest.mark.parametrize("steps", [0, 1, 2, 3, 4])
    def test_shards_partition_the_unit(self, size, steps):
        """Each step halves every range; the final ranges tile [0, size)
        in bit-reversed virtual rank order, some of them empty when the
        unit is smaller than the virtual world."""
        shards = [shard_range(size, v, steps) for v in range(1 << steps)]
        covered = sorted(shards)
        assert covered[0][0] == 0 and covered[-1][1] == size
        assert all(a[1] == b[0] for a, b in zip(covered, covered[1:]))
        assert all(hi - lo in (size >> steps, -(-size >> steps)) for lo, hi in shards)

    def test_rejects_empty_world(self):
        with pytest.raises(TreeError):
            build_hypercube(0)
