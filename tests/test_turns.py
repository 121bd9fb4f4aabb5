"""Turn-level protocol behaviour, driven rank by rank from one thread.

The zero-latency in-process transport delivers writes inline in the
caller's thread, so these tests can interleave ranks deterministically:
publish a gradient here, poll there, and inspect the state in between.
"""

import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.engine import SEG_RECV, Rank, TrainConfig, runtime, sequential_sgd
from pipesgd.engine.runtime import plan_units
from pipesgd.errors import ProtocolError, RangeError
from pipesgd.harness import run_inproc
from pipesgd.transport import InprocWorld, LatencyModel, WriteRequest


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
        # the bytes are already in rank 0's child-0 receive slot, with the
        # notification pending: one-sided, nothing on rank 0 ran yet
        lay = r0.layout
        assert r0._rx(1, 0).tolist() == g1.tolist()
        nid = lay.notif_id(1, 0)
        assert r0.tr.notify_poll(SEG_RECV, nid, 1) == [(nid, 1)]
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
            local_segment=0, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.offset(1, 0), size=8,
            notification_id=lay.notif_id(1, 0), notification_value=7,
        ))
        with pytest.raises(ProtocolError, match="notification value"):
            r0._comm_pass()

    def test_next_iteration_traffic_is_left_pending(self, make_ranks):
        """Value k+2 is early data for the next iteration, not an error,
        even on the very id this iteration also uses."""
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        lay = r0.layout
        nid = lay.notif_id(1, 0)
        r1.tr.write_notify(WriteRequest(
            local_segment=0, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.offset(1, 0), size=8,
            notification_id=nid, notification_value=2,
        ))
        assert r0._comm_pass() is False
        # still pending, untouched, for iteration 1 to consume
        assert r0.tr.notify_poll(SEG_RECV, nid, 1) == [(nid, 2)]

    def test_model_before_own_contribution_raises(self, make_ranks):
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r0._send_model(0)  # master jumps the gun
        with pytest.raises(ProtocolError, match="before this rank's"):
            r1._comm_pass()

    def test_model_write_to_the_master_raises(self, make_ranks):
        """The master has no broadcast parent, so anything in its slot 0
        is a protocol violation, seen at its next pass."""
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        lay = r1.layout
        r1.tr.write_notify(WriteRequest(
            local_segment=0, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.offset(0, 0), size=lay.unit_bytes[0],
            notification_id=lay.notif_id(0, 0), notification_value=1,
        ))
        with pytest.raises(ProtocolError, match="model unit 0 arrived before"):
            r0._comm_pass()

    def test_gradient_write_to_a_leaf_raises(self, make_ranks):
        """A leaf has only its model slot; a gradient aimed at it fails the
        range check instead of landing in unused memory."""
        _, _, (r0, r1) = make_ranks(2)
        assert r1.seg_recv.size == r1.layout.size(1)
        lay = r0.layout
        with pytest.raises(RangeError):
            r0.tr.write_notify(WriteRequest(
                local_segment=0, local_offset=0, rank=1, remote_segment=SEG_RECV,
                remote_offset=lay.offset(1, 0), size=lay.unit_bytes[0],
                notification_id=lay.notif_id(1, 0), notification_value=1,
            ))


class TestReceiveSegment:
    def test_slots_follow_the_tree(self, make_ranks):
        """One model slot per rank plus one slot per reduction child: over
        4 ranks, 3 on rank 0, 2 on rank 2, 1 on the leaves 1 and 3."""
        _, _, ranks = make_ranks(4)
        assert [r.seg_recv.size for r in ranks] == [
            r.layout.size(slots) for r, slots in zip(ranks, [3, 1, 2, 1])
        ]
        assert [r.parent_slot for r in ranks] == [None, 1, 2, 1]

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_one_buffer_per_slot_in_a_full_run(self, monkeypatch, pattern):
        """Over a whole 4-rank run, each rank's receive segment holds
        exactly 1 + children whole models and 1 + slots * units
        notification ids, whatever units the schedule planned."""
        seen = {}
        run = Rank.run

        def record(r):
            slots = 1 + len(r.children)
            model_bytes = sum(s.param_count for s in r.specs) * 8
            seen[r.rank] = (
                r.seg_recv.size == slots * model_bytes,
                r.seg_recv.notifications.count == 1 + slots * len(r.units),
            )
            return run(r)

        monkeypatch.setattr(Rank, "run", record)
        cfg = TrainConfig(
            layer_dims=(4, 6, 3), world_size=4, iterations=2, batch_size=8,
            dataset_size=16, seed=7, pattern=pattern, compute_inflation_ns=1_000_000,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        results = run_inproc(cfg, ds)
        assert seen == {r: (True, True) for r in range(4)}
        assert len(results[0].units) == (2 if pattern == "pipelined" else 1)

    def test_one_poll_per_pass(self):
        """An interior rank sees model and child traffic through one poll."""
        cfg = TrainConfig(
            layer_dims=(4, 3), world_size=4, iterations=1,
            batch_size=8, dataset_size=16, seed=7,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(4)
        try:
            tr = CountingTransport(world.transport(2))
            r2 = Rank(cfg, ds, tr)
            r2.begin_iteration(0)
            r2._comm_pass()
            assert tr.polls == 1
        finally:
            world.close()


class TestCrossIteration:
    def test_fast_peer_running_ahead_is_safe(self, make_ranks):
        """Rank 1 finishes iteration 0 and publishes iteration 1 gradients
        while rank 0 is still on iteration 0; the early writes land in
        slots rank 0 has already consumed and stay pending until it
        reaches iteration 1."""
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


def writes_per_rank_per_iteration(monkeypatch, cfg, latency=None):
    counters = {}
    make_transport = InprocWorld.transport

    def counting_transport(world, rank):
        counters[rank] = CountingTransport(make_transport(world, rank))
        return counters[rank]

    monkeypatch.setattr(InprocWorld, "transport", counting_transport)
    ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
    run_inproc(cfg, ds, latency=latency)
    return {r: c.writes / cfg.iterations for r, c in counters.items()}


# binomial tree over 4 ranks: 1 -> 0, 2 -> 0, 3 -> 2; a rank writes its
# gradient to its parent and the model to each of its children
EDGES_OUT = {0: 2, 1: 1, 2: 2, 3: 1}


class TestTraffic:
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_chunks_per_tree_edge(self, monkeypatch, pattern):
        """Each tree edge carries one write per transfer unit per direction
        per iteration: the planned units when pipelined (one whole-model
        unit here, with no compute to hide a write), one whole-model unit
        under the barrier schedule."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=8,
            dataset_size=16, seed=9, pattern=pattern,
        )
        plan = plan_units(len(cfg.specs()), cfg.compute_inflation_ns, LatencyModel())
        per_edge = len(plan) if pattern == "pipelined" else 1
        per_iter = writes_per_rank_per_iteration(monkeypatch, cfg)
        assert per_iter == {r: n * per_edge for r, n in EDGES_OUT.items()}

    def test_one_write_per_layer_when_compute_hides_it(self, monkeypatch):
        """With link latency and backward compute that outlasts one more
        write, the pipelined schedule keeps the paper's per-layer units."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=8,
            dataset_size=16, seed=9, compute_inflation_ns=1_000_000,
        )
        latency = LatencyModel(fixed_ns=100_000, per_byte_ns=1.0)
        per_iter = writes_per_rank_per_iteration(monkeypatch, cfg, latency)
        per_edge = len(cfg.specs())
        assert per_iter == {r: n * per_edge for r, n in EDGES_OUT.items()}


class TestProgressDuringCompute:
    def test_update_lands_inside_the_next_layers_compute(self):
        """The rank keeps communicating while a layer's backward compute
        runs.  The child's top-layer gradient arrives about 5 ms after the
        top layer's turn (more than the ranks' start skew), so the master
        folds it and applies the update inside the next layer's 20 ms span,
        not at that layer's turn."""
        cfg = TrainConfig(
            layer_dims=(4, 6, 5, 3), world_size=2, iterations=2, batch_size=8,
            dataset_size=16, seed=11, compute_inflation_ns=20_000_000,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        results = run_inproc(cfg, ds, latency=LatencyModel(fixed_ns=5_000_000), record=True)
        assert results[0].units == [(0, 1), (1, 2), (2, 3)]
        reference = sequential_sgd(cfg, ds)
        for r in results:
            for got, want in zip(r.model, reference.layers):
                assert got.tobytes() == want.tobytes()

        def span(kind, layer, k):
            (event,) = [
                e for e in results[0].events
                if (e.kind, e.layer, e.iteration) == (kind, layer, k)
            ]
            return event

        for k in range(cfg.iterations):
            compute = span("backward_layer", 1, k)
            for kind in ("reduce_local", "master_update"):
                nested = span(kind, 2, k)
                assert compute.t_start_ns < nested.t_start_ns < compute.t_end_ns, (kind, k)


class ScriptedRank:
    """One rank's training loop cut into single steps a test can interleave.

    ``step`` advances the loop by one action: start an iteration (forward
    and backward computed up front, which is safe because the backward
    reads each layer's weights before that layer's turn, and no update can
    land on a layer before its turn), one ``run_turn``, one finalize
    ``_comm_pass``, or ending a finished iteration.  ``poll`` is an extra
    ``_comm_pass`` at any point inside an iteration, even after it is done,
    which is where early next-iteration traffic shows up.
    """

    def __init__(self, rank, iterations):
        self.rank = rank
        self.iterations = iterations
        self.k = 0
        self.turns = None

    @property
    def finished(self):
        return self.k == self.iterations

    def poll(self):
        if self.turns is not None:
            self.rank._comm_pass()

    def step(self):
        r = self.rank
        if self.turns is None:
            r.begin_iteration(self.k)
            x, t = r._shard(self.k)
            _, cache = net.forward(r.specs, r.model_views, x)
            grads, loss = net.backward_from_cache(r.specs, r.model_views, cache, t)
            r.losses.append(loss)
            self.turns = [(l, grads[l]) for l in reversed(range(r.num_layers))]
        elif self.turns:
            r.run_turn(*self.turns.pop(0))
        elif r._iteration_done():
            r._wait_tickets()
            self.k += 1
            self.turns = None
        else:
            r._comm_pass()


MULTI_LAYER_PLANS = [[(0, 2), (2, 3)], [(0, 1), (1, 3)], [(0, 3)]]


class TestDeliveryOrders:
    @settings(max_examples=100, deadline=None)
    @given(
        world_size=st.integers(2, 4),
        plan=st.sampled_from(MULTI_LAYER_PLANS),
        speeds=st.lists(st.integers(1, 20), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_interleaving_matches_reference(self, world_size, plan, speeds, seed):
        """Ranks step or poll in a drawn order until all are finished.

        Each rank gets a drawn speed, so fast ranks run an iteration ahead:
        over three iterations their next-iteration units land while a slow
        peer still polls in the current one, on both parities.  None of it
        may raise or move a bit.
        """
        cfg = TrainConfig(
            layer_dims=(5, 7, 6, 3), world_size=world_size, iterations=3,
            batch_size=12, dataset_size=24, seed=11, finalize_timeout_s=5.0,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(world_size)
        try:
            with patch.object(runtime, "plan_units", lambda *_args: plan):
                ranks = [Rank(cfg, ds, world.transport(r)) for r in range(world_size)]
            scripted = [ScriptedRank(r, cfg.iterations) for r in ranks]
            rnd = random.Random(seed)
            while not all(s.finished for s in scripted):
                s = rnd.choices(scripted, speeds[:world_size])[0]
                if rnd.random() < 0.3:
                    s.poll()
                elif not s.finished:
                    s.step()
        finally:
            world.close()

        seen = []
        reference = sequential_sgd(cfg, ds, on_iteration=lambda k, m, loss: seen.append(loss))
        assert ranks[0].losses == seen
        for r in ranks:
            assert r.units == plan
            for got, want in zip(r.model_views, reference.layers):
                assert got.tobytes() == want.tobytes()
