"""Turn-level protocol behaviour, driven rank by rank from one thread.

The zero-latency in-process transport delivers writes inline in the
caller's thread, so these tests can interleave ranks deterministically:
publish a gradient here, poll there, and inspect the state in between.
"""

import numpy as np
import pytest

from pipesgd import net
from pipesgd.engine import SEG_GRAD, SEG_MODEL, Rank, TrainConfig, sequential_sgd
from pipesgd.errors import ProtocolError
from pipesgd.harness import run_inproc
from pipesgd.transport import InprocWorld, WriteRequest


@pytest.fixture
def make_ranks():
    worlds = []

    def build(world_size, **overrides):
        cfg = TrainConfig(
            layer_dims=(4, 3), world_size=world_size, iterations=1,
            batch_size=8, dataset_size=16, seed=7, finalize_timeout_s=5.0,
        ).replace(**overrides)
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(world_size)
        worlds.append(world)
        ranks = [Rank(cfg, ds, world.transport(r)) for r in range(world_size)]
        return cfg, ds, ranks

    yield build
    for w in worlds:
        w.close()


def grad(rank, value):
    """A constant layer-0 gradient of the right size for one rank."""
    return np.full(rank.specs[0].param_count, float(value))


class CountingTransport:
    """Delegating wrapper that counts traffic-generating calls."""

    def __init__(self, inner):
        self._inner = inner
        self.writes = 0
        self.polls = 0
        self.barriers = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def write_notify(self, request):
        self.writes += 1
        return self._inner.write_notify(request)

    def notify_poll(self, segment_id, first, count):
        self.polls += 1
        return self._inner.notify_poll(segment_id, first, count)

    def barrier(self):
        self.barriers += 1
        self._inner.barrier()


class TestSingleRank:
    def test_no_transport_traffic(self):
        """A one-rank world trains entirely locally: no writes, polls, barriers."""
        cfg = TrainConfig(
            layer_dims=(5, 6, 3), world_size=1, iterations=4,
            batch_size=8, dataset_size=16, seed=3,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(1)
        tr = CountingTransport(world.transport(0))
        result = Rank(cfg, ds, tr).run()
        world.close()
        assert tr.writes == 0
        assert tr.polls == 0
        assert tr.barriers == 0
        assert result.barrier_calls == 0
        reference = sequential_sgd(cfg, ds)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(result.model, reference.layers)
        )


class TestLeafTurn:
    def test_leaf_publishes_on_its_turn(self, make_ranks):
        """With no children to wait for, a leaf's turn pushes the gradient up."""
        _, _, (r0, r1) = make_ranks(2)
        r1.begin_iteration(0)
        g1 = grad(r1, 2.5)
        r1.run_turn(0, g1)
        # the bytes are already in rank 0's gradient segment, with the
        # notification pending: one-sided, nothing on rank 0 ran yet
        lay = r0.layout
        assert r0._grad_rx(0, 0, 0).tolist() == g1.tolist()
        nid = lay.grad_notif_id(0, 0, 0)
        assert r0.tr.notify_poll(SEG_GRAD, nid, 1) == [(nid, 1)]
        assert r1.state.gradient_forwarded[0]

    def test_fold_waits_for_local_gradient(self, make_ranks):
        """Child data buffered before this rank's own turn folds only after it."""
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0._comm_pass()
        assert r0.state.child_arrived[0] == {0}
        assert r0.fold_counts[0] == 0
        g0 = grad(r0, 10.0)
        r0.run_turn(0, g0)
        assert r0.fold_counts[0] == 1
        assert r0.grad_views[0].tolist() == [11.0] * g0.size


class TestFoldOrder:
    def test_late_first_child_preserves_ascending_fold(self, make_ranks):
        """Slot 1 arriving before slot 0 must not change the float fold order.

        The values are chosen so the two orders give different floats:
        (1e16 + 1.0) + -1e16 == 0.0 but (1e16 + -1e16) + 1.0 == 1.0.
        """
        _, _, ranks = make_ranks(4)
        r0, r1, r2, r3 = ranks
        for r in ranks:
            r.begin_iteration(0)
        r3.run_turn(0, grad(r3, 0.0))         # leaf under rank 2
        r2.run_turn(0, grad(r2, -1e16))       # folds rank 3, forwards -1e16
        r0.run_turn(0, grad(r0, 1e16))        # sees slot 1 ready, slot 0 missing
        assert r0.state.child_arrived[0] == {1}
        assert r0.fold_counts[0] == 0
        assert r0.grad_views[0].tolist() == [1e16] * r0.grad_views[0].size

        r1.run_turn(0, grad(r1, 1.0))         # slot 0 lands last
        r0.finalize_iteration()
        assert r0.fold_counts[0] == 2
        assert r0.grad_views[0].tolist() == [0.0] * r0.grad_views[0].size

        for r in (r1, r2, r3):
            r.finalize_iteration()
        for r in (r1, r2, r3):
            assert r.model_views[0].tobytes() == r0.model_views[0].tobytes()

    def test_fold_counts_match_tree_shape(self, make_ranks):
        _, _, ranks = make_ranks(4)
        for r in ranks:
            r.begin_iteration(0)
        for r in reversed(ranks):
            r.run_turn(0, grad(r, 1.0))
        for r in ranks:
            r.finalize_iteration()
        assert [r.fold_counts[0] for r in ranks] == [2, 0, 1, 0]


class TestProtocolViolations:
    def test_duplicate_transfer_raises(self, make_ranks):
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0.run_turn(0, grad(r0, 1.0))
        r1._send_gradient(0)  # replay the same transfer
        with pytest.raises(ProtocolError, match="duplicate gradient from child slot 0"):
            r0._comm_pass()

    def test_unexpected_value_raises(self, make_ranks):
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        lay = r0.layout
        r1.tr.write_notify(WriteRequest(
            local_segment=0, local_offset=0, rank=0, remote_segment=SEG_GRAD,
            remote_offset=lay.grad_slot_offset(0, 0, 0), size=8,
            notification_id=lay.grad_notif_id(0, 0, 0), notification_value=7,
        ))
        with pytest.raises(ProtocolError, match="notification value"):
            r0._comm_pass()

    def test_next_iteration_traffic_is_left_pending(self, make_ranks):
        """Value k+2 on opposite-parity ids is early data, not an error."""
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        lay = r0.layout
        nid = lay.grad_notif_id(0, 0, 1)  # parity-1 slot
        r1.tr.write_notify(WriteRequest(
            local_segment=0, local_offset=0, rank=0, remote_segment=SEG_GRAD,
            remote_offset=lay.grad_slot_offset(0, 0, 1), size=8,
            notification_id=nid, notification_value=2,
        ))
        assert r0._comm_pass() is False
        # still pending, untouched, for iteration 1 to consume
        assert r0.tr.notify_poll(SEG_GRAD, nid, 1) == [(nid, 2)]

    def test_model_before_own_contribution_raises(self, make_ranks):
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r0._send_model(0)  # master jumps the gun
        with pytest.raises(ProtocolError, match="before this rank's"):
            r1._comm_pass()


class TestCrossIteration:
    def test_fast_peer_running_ahead_is_safe(self, make_ranks):
        """Rank 1 finishes iteration 0 and publishes iteration 1 gradients
        while rank 0 is still on iteration 0; parity keeps them apart."""
        _, _, (r0, r1) = make_ranks(2, iterations=2)

        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0.begin_iteration(0)
        r0.run_turn(0, grad(r0, 2.0))    # folds, updates, broadcasts
        r0.finalize_iteration()
        r1.finalize_iteration()

        # rank 1 races ahead into iteration 1
        r1.begin_iteration(1)
        h1 = grad(r1, 5.0)
        r1.run_turn(0, h1)
        # rank 0, still parked on iteration 0, must not consume that
        assert r0._comm_pass() is False

        r0.begin_iteration(1)
        h0 = grad(r0, 7.0)
        r0.run_turn(0, h0)
        r0.finalize_iteration()
        r1.finalize_iteration()
        assert r0.fold_counts[0] == 2    # one fold per iteration
        assert r0.model_views[0].tobytes() == r1.model_views[0].tobytes()


class TestTraffic:
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_chunks_per_tree_edge(self, monkeypatch, pattern):
        """Each tree edge carries one write per transfer unit per direction
        per iteration: one unit per layer when pipelined, one whole-model
        unit under the barrier schedule."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=8,
            dataset_size=16, seed=9, pattern=pattern,
        )
        per_edge = len(cfg.specs()) if pattern == "pipelined" else 1

        counters = {}
        make_transport = InprocWorld.transport

        def counting_transport(world, rank):
            counters[rank] = CountingTransport(make_transport(world, rank))
            return counters[rank]

        monkeypatch.setattr(InprocWorld, "transport", counting_transport)
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        run_inproc(cfg, ds)
        # binomial tree over 4 ranks: 1 -> 0, 2 -> 0, 3 -> 2; a rank writes
        # its gradient to its parent and the model to each of its children
        edges_out = {0: 2, 1: 1, 2: 2, 3: 1}
        per_iter = {r: c.writes / cfg.iterations for r, c in counters.items()}
        assert per_iter == {r: n * per_edge for r, n in edges_out.items()}
