"""Turn-level protocol behaviour, driven rank by rank from one thread.

The zero-latency in-process transport delivers writes inline in the
caller's thread, so these tests can interleave ranks deterministically:
publish a gradient here, poll there, and inspect the state in between.
"""

import hashlib
import random
import time
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.engine import (
    SEG_RECV, SEG_WORK, Rank, TrainConfig, master_update, runtime, sequential_sgd, tree_reduce,
)
from pipesgd.engine.runtime import Unit
from pipesgd.engine.sgd import apply_update
from pipesgd.errors import ProtocolError
from pipesgd.topology import build_reduction_tree, shard_range
from pipesgd.harness import run_inproc, start_model
from pipesgd.transport import InprocTransport, InprocWorld, LatencyModel, WriteRequest


@pytest.fixture
def make_ranks():
    worlds = []

    def build(world_size, latency=None, **overrides):
        cfg = TrainConfig(**{
            "layer_dims": (4, 3), "world_size": world_size, "iterations": 1,
            "batch_size": 8, "dataset_size": 16, "seed": 7, "finalize_timeout_s": 5.0,
            **overrides,
        })
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(world_size, latency)
        worlds.append(world)
        start = start_model(cfg)
        ranks = [Rank(cfg, ds, start, world.transport(r)) for r in range(world_size)]
        return cfg, ds, ranks

    yield build
    for w in worlds:
        w.close()


def grad(rank, value):
    """A constant layer-0 gradient of the right size for one rank."""
    return np.full(rank.specs[0].param_count, float(value))


# 1 ns of fixed link cost and none per byte: every unit is latency-bound,
# so it replicates, and a write is visible to the next poll
REPLICATE = LatencyModel(fixed_ns=1)


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
        result = Rank(cfg, ds, start_model(cfg), tr).run()
        world.close()
        assert tr.writes == 0
        assert tr.polls == 0
        assert tr.barriers == 0
        assert result.barrier_calls == 0
        reference = sequential_sgd(cfg, ds)
        assert all(
            a.tobytes() == b.tobytes() for a, b in zip(result.model, reference.layers)
        )


def settle(ranks):
    """Run communication passes round-robin until every rank's iteration
    is done, then end each one as the training loop does."""
    while not all(r._iteration_done() for r in ranks):
        for r in ranks:
            r._comm_pass()
    for r in ranks:
        r.finalize_iteration()


def received(rank, step, unit=0):
    """Float view of one unit in a rank's reduce-scatter slot for ``step``."""
    lay = rank.layout
    return rank.seg_recv.view_f64(lay.offset(1 + step, unit), lay.param_counts[unit])


class TestFirstTurn:
    def test_turn_writes_the_partners_half(self, make_ranks):
        """A rank's turn starts reduce-scatter step 0: the half its partner
        keeps goes straight into the partner's step-0 slot."""
        _, _, (r0, r1) = make_ranks(2)
        r1.begin_iteration(0)
        g1 = grad(r1, 2.5)
        r1.run_turn(0, g1)
        # the bytes are already in rank 0's step-0 receive slot, with the
        # notification pending: one-sided, nothing on rank 0 ran yet
        lo, hi = shard_range(g1.size, 0, 1)
        assert received(r0, 0)[lo:hi].tolist() == g1[lo:hi].tolist()
        nid = r0.layout.notif_id(1, 0)  # reduce-scatter channel of virtual rank 1
        assert r0.tr.notify_poll(SEG_RECV, nid, 1) == [(nid, 1)]
        # rank 1 started its first phase and waits for rank 0's half
        assert (r1.state.started[0], r1.state.ended[0]) == (1, 0)

    def test_fold_waits_for_local_gradient(self, make_ranks):
        """Partner data buffered before this rank's own turn folds only after it.

        The shard update consumes the folded gradient in place, so the sum
        shows through the updated weights of this rank's shard."""
        cfg, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0._comm_pass()
        assert r0.state.arrived[0] == {r0.layout.notif_id(1, 0)}
        assert r0.fold_counts[0] == 0
        w0 = r0.model_views[0].copy()
        g0 = grad(r0, 10.0)
        r0.run_turn(0, g0)
        assert r0.fold_counts[0] == 1
        lo, hi = shard_range(g0.size, 0, 1)
        want = master_update(w0[lo:hi], np.full(hi - lo, 11.0), cfg.epsilon)
        assert r0.model_views[0][lo:hi].tobytes() == want.tobytes()


class TestFoldOrder:
    def test_late_first_partner_preserves_fold_order(self, make_ranks):
        """Step-1 data arriving before step-0 data must not change the
        float fold order.

        The values are chosen so the two orders give different floats:
        (1e16 + 1.0) + -1e16 == 0.0 but (1e16 + -1e16) + 1.0 == 1.0.
        """
        _, _, ranks = make_ranks(4)
        r0, r1, r2, r3 = ranks
        for r in ranks:
            r.begin_iteration(0)
        r3.run_turn(0, grad(r3, 0.0))         # step-0 partner of rank 2
        r2.run_turn(0, grad(r2, -1e16))       # folds rank 3, sends -1e16 at step 1
        r0.run_turn(0, grad(r0, 1e16))        # step-1 data in, step-0 data missing
        assert r0.state.arrived[0] == {r0.layout.notif_id(2, 0)}
        assert r0.fold_counts[0] == 0
        assert r0.grad_views[0].tolist() == [1e16] * r0.grad_views[0].size

        r1.run_turn(0, grad(r1, 1.0))         # step 0 lands last
        settle(ranks)
        assert r0.fold_counts[0] == 2
        # rank 0's shard was folded in order; the update consumed it as eps * 0.0
        lo, hi = shard_range(r0.grad_views[0].size, 0, 2)
        assert r0.grad_views[0][lo:hi].tolist() == [0.0] * (hi - lo)
        for r in (r1, r2, r3):
            assert r.model_views[0].tobytes() == r0.model_views[0].tobytes()

    @pytest.mark.parametrize("world_size,folds", [
        (3, [2, 2, 2]), (4, [2, 2, 2, 2]), (5, [3, 3, 3, 3, 4]),
    ], ids=["3-ranks", "4-ranks", "5-ranks"])
    def test_fold_counts_match_hypercube_exchanges(self, make_ranks, world_size, folds):
        """One fold per exchange: two steps over 3 or 4 ranks; over 5,
        rank 4 plays virtual ranks 4..7 and folds once for each at step 2."""
        _, _, ranks = make_ranks(world_size, batch_size=2 * world_size)
        for r in ranks:
            r.begin_iteration(0)
        for r in reversed(ranks):
            r.run_turn(0, grad(r, 1.0))
        settle(ranks)
        assert [r.fold_counts[0] for r in ranks] == folds


class TestSignedZeros:
    @pytest.mark.parametrize("world_size", range(1, 17))
    def test_shards_hold_tree_reduce_sums(self, make_ranks, world_size):
        """After one collective, each rank's shards hold epsilon times
        tree_reduce's sum byte for byte, and every model the reference
        update.  A third of the elements are -0.0 on every rank, whose sum
        a +0.0 added for a virtual rank without a gradient would flip; a
        third mix values whose sum depends on the fold order; a third
        sum -0.0 and one +0.0 to +0.0."""
        ranks, scaled, model = self.collective(make_ranks, world_size, latency=None)
        for r in ranks:
            n = r.layout.param_counts[0]
            for v in r.vranks:
                lo, hi = shard_range(n, v, r.steps)
                assert r.grad_views[0][lo:hi].tobytes() == scaled[lo:hi].tobytes(), (r.rank, v)
            assert r.model_views[0].tobytes() == model

    @pytest.mark.parametrize("world_size", range(1, 17))
    def test_replicated_sum_on_every_rank(self, make_ranks, world_size):
        """The same gradients through the one-hop allreduce: every rank
        folds the whole sum into its own gradient, so each holds epsilon
        times tree_reduce's sum in full, and every model the reference
        update."""
        ranks, scaled, model = self.collective(make_ranks, world_size, latency=REPLICATE)
        for r in ranks:
            assert r.units == [Unit(0, 1, True)]
            assert r.grad_views[0].tobytes() == scaled.tobytes(), r.rank
            assert r.model_views[0].tobytes() == model

    @staticmethod
    def collective(make_ranks, world_size, latency):
        """One layer-0 collective over signed-zero gradients; returns the
        ranks, epsilon times the reference sum and the reference model."""
        cfg, _, ranks = make_ranks(
            world_size, latency, layer_dims=(8, 8), batch_size=world_size
        )
        n = ranks[0].specs[0].param_count
        third = n // 3
        rnd = np.random.default_rng(world_size)
        partials = []
        for r in range(world_size):
            g = np.full(n, -0.0)
            g[third:2 * third] = rnd.choice([1e16, -1e16, 1.0, -0.0, 0.0], third)
            if r == world_size - 1:
                g[2 * third:] = 0.0
            partials.append(g)
        want = tree_reduce([[g] for g in partials], build_reduction_tree(world_size))[0]
        assert np.signbit(want[:third]).all()
        w0 = ranks[0].model_views[0].copy()
        for r in ranks:
            r.begin_iteration(0)
        for r, g in zip(ranks, partials):
            r.run_turn(0, g)
        settle(ranks)
        return ranks, want * cfg.epsilon, master_update(w0, want, cfg.epsilon).tobytes()


def send_planned(rank, phase, unit=0):
    """Send the first write of one of ``rank``'s planned phases."""
    p = rank._phases[unit][phase]
    rank._send(unit, p.kind, p.sends[0])


def send_gathered(rank, dest, unit=0):
    """Send ``rank``'s planned all-gather write to ``dest``, in or out of
    turn."""
    phase = rank._phases[unit][-1]
    (write,) = [w for w in phase.sends if w.rank == dest]
    rank._send(unit, phase.kind, write)


class TestProtocolViolations:
    def test_duplicate_transfer_raises(self, make_ranks):
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0.run_turn(0, grad(r0, 1.0))
        send_planned(r1, 0)  # replay the same reduce-scatter write
        with pytest.raises(ProtocolError, match="reduce-scatter write from virtual rank 1 for unit 0: a duplicate"):
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
        """All-gather data can only exist after this rank's reduce-scatter
        data for it went out."""
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        send_planned(r0, -1)  # rank 0 jumps the gun with its all-gather write
        with pytest.raises(ProtocolError, match="all-gather write .* arrived before this rank's own data"):
            r1._comm_pass()

    def test_shard_before_own_contribution_raises(self, make_ranks):
        """Each shard's player writes it straight to every rank.  Rank 0
        sends its share of shard 1 at reduce-scatter step 0 and of shard 2
        at step 1, so once rank 0 has started step 0, shard 1 may come but
        shard 2 may not yet."""
        _, _, ranks = make_ranks(4)
        scripted = [ScriptedRank(r, 1) for r in ranks]
        for s in scripted:
            s.step()  # begin iteration 0
        scripted[0].step()  # rank 0's turn: reduce-scatter step 0 goes out
        assert (ranks[0].state.started[0], ranks[0].state.ended[0]) == (1, 0)
        send_gathered(ranks[1], dest=0)
        ranks[0]._comm_pass()
        assert ranks[0].state.arrived[0] == {ranks[0].layout.notif_id(4 + 1, 0)}
        send_gathered(ranks[2], dest=0)
        with pytest.raises(
            ProtocolError,
            match="all-gather write from virtual rank 2 for unit 0: arrived before this rank's own data",
        ):
            ranks[0]._comm_pass()

    def test_second_shard_write_raises(self, make_ranks):
        """A shard's player writes it to each rank once per iteration."""
        _, _, ranks = make_ranks(4)
        scripted = [ScriptedRank(r, 1) for r in ranks]
        while not all(s.finished for s in scripted):
            for s in scripted:
                if not s.finished:
                    s.step()
        send_gathered(ranks[3], dest=0)
        with pytest.raises(
            ProtocolError, match="all-gather write from virtual rank 3 for unit 0: a duplicate"
        ):
            ranks[0]._comm_pass()

    def test_all_gather_write_into_an_owned_range_raises(self, make_ranks):
        """Rank 0 gathers every range but its own shard; all-gather data
        naming its own virtual rank is a protocol violation, seen at its
        next pass."""
        _, _, (r0, r1) = make_ranks(2)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        lay = r1.layout
        lo, hi = shard_range(lay.param_counts[0], 0, 1)
        r1.tr.write_notify(WriteRequest(
            local_segment=SEG_RECV, local_offset=8 * lo, rank=0, remote_segment=SEG_RECV,
            remote_offset=8 * lo, size=8 * (hi - lo),
            notification_id=lay.notif_id(2 + 0, 0), notification_value=1,
        ))
        with pytest.raises(ProtocolError, match="all-gather write from virtual rank 0 for unit 0: a range this rank owns"):
            r0._comm_pass()

    def test_write_from_a_non_partner_raises(self, make_ranks):
        """Over 4 ranks, rank 0 trades with ranks 1 and 2 only; a write on
        rank 3's channel raises at rank 0's next pass."""
        _, _, ranks = make_ranks(4)
        r0, r3 = ranks[0], ranks[3]
        r0.begin_iteration(0)
        lay = r3.layout
        r3.tr.write_notify(WriteRequest(
            local_segment=SEG_WORK, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.offset(1, 0), size=8,
            notification_id=lay.notif_id(3, 0), notification_value=1,
        ))
        with pytest.raises(ProtocolError, match="reduce-scatter write from virtual rank 3 for unit 0: not from a partner"):
            r0._comm_pass()

    def test_duplicate_exchange_write_raises(self, make_ranks):
        """A rank writes its replicated unit gradient to each peer once
        per iteration."""
        _, _, (r0, r1) = make_ranks(2, REPLICATE)
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0.run_turn(0, grad(r0, 1.0))
        assert r0._iteration_done()
        send_planned(r1, 0)  # replay the exchange write
        with pytest.raises(
            ProtocolError, match=r"exchange write from rank 1 \(parity 0\) for unit 0: a duplicate"
        ):
            r0._comm_pass()

    def test_exchange_write_for_a_sharded_unit_raises(self, make_ranks):
        """At 1 us + 5 ns/B the 240-byte layer 0 stays sharded and the
        168-byte layer 1 replicates; exchange data for layer 0 raises."""
        _, _, (r0, r1) = make_ranks(
            2, LatencyModel(fixed_ns=1_000, per_byte_ns=5.0), layer_dims=(4, 6, 3),
            compute_inflation_ns=1_000_000,
        )
        assert r0.units == [Unit(0, 1, False), Unit(1, 2, True)]
        r0.begin_iteration(0)
        lay = r1.layout
        exchange = r1._exchange_channel  # parity 0, sender 0's channel
        r1.tr.write_notify(WriteRequest(
            local_segment=SEG_WORK, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.exchange_offset(0, 1, 1), size=8,
            notification_id=lay.notif_id(exchange + 1, 0), notification_value=1,
        ))
        with pytest.raises(
            ProtocolError, match=r"exchange write from rank 1 \(parity 0\) for unit 0: for a sharded unit"
        ):
            r0._comm_pass()

    def test_reduce_scatter_write_for_a_replicated_unit_raises(self, make_ranks):
        """A replicated unit has no reduce-scatter: data on its
        reduce-scatter channel raises, even from the hypercube partner."""
        _, _, (r0, r1) = make_ranks(2, REPLICATE)
        r0.begin_iteration(0)
        lay = r1.layout
        r1.tr.write_notify(WriteRequest(
            local_segment=SEG_WORK, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.offset(1, 0), size=8,
            notification_id=lay.notif_id(1, 0), notification_value=1,
        ))
        with pytest.raises(
            ProtocolError,
            match="reduce-scatter write from virtual rank 1 for unit 0: for a replicated unit",
        ):
            r0._comm_pass()

    def test_exchange_write_on_the_other_paritys_id_raises(self, make_ranks):
        """Iteration-0 exchange data belongs on the even ids; value 1 on
        an odd id raises."""
        _, _, (r0, r1) = make_ranks(2, REPLICATE)
        r0.begin_iteration(0)
        lay = r1.layout
        odd = r1._exchange_channel + 2  # parity 1, sender 0's channel
        r1.tr.write_notify(WriteRequest(
            local_segment=SEG_WORK, local_offset=0, rank=0, remote_segment=SEG_RECV,
            remote_offset=lay.exchange_offset(1, 1, 0), size=8,
            notification_id=lay.notif_id(odd + 1, 0), notification_value=1,
        ))
        with pytest.raises(
            ProtocolError,
            match=r"exchange write from rank 1 \(parity 1\) for unit 0: on the other iteration parity's id",
        ):
            r0._comm_pass()


class TestWatchdog:
    def test_a_stall_in_the_exchange_names_the_silent_ranks(self, make_ranks):
        """A replicated unit waits in its exchange phase on every peer
        that has not written its gradient."""
        _, _, (r0, r1, _r2) = make_ranks(3, REPLICATE, batch_size=3, finalize_timeout_s=0.2)
        for r in (r0, r1):
            r.begin_iteration(0)
            r.run_turn(0, grad(r, 1.0))
        with pytest.raises(
            ProtocolError, match=r"layers \[0, 1\) exchange \(ranks pending: \[2\]\)"
        ):
            r0.finalize_iteration()

    def test_a_stall_names_the_phase_and_the_silent_rank(self, make_ranks):
        """Rank 1 never runs: rank 0's finalize gives up and says which
        phase of which unit waits on which rank."""
        _, _, (r0, _r1) = make_ranks(2, finalize_timeout_s=0.2)
        r0.begin_iteration(0)
        r0.run_turn(0, grad(r0, 1.0))
        with pytest.raises(
            ProtocolError, match=r"layers \[0, 1\) reduce-scatter step 0 \(ranks pending: \[1\]\)"
        ):
            r0.finalize_iteration()


class TestPhaseShape:
    @pytest.mark.parametrize("world_size", [1, 3, 4])
    @pytest.mark.parametrize("latency", [None, REPLICATE], ids=["sharded", "replicated"])
    def test_the_last_phase_alone_updates(self, make_ranks, world_size, latency):
        """A sharded unit runs its reduce-scatter steps, then the
        all-gather, which opens with the update of the rank's shards; a
        replicated unit runs the exchange, then the update.  In both, the
        last phase is the only one that updates anything."""
        _, _, ranks = make_ranks(
            world_size, latency, layer_dims=(4, 6, 3), batch_size=2 * world_size,
            compute_inflation_ns=1_000_000,
        )
        for rank in ranks:
            assert [u.replicated for u in rank.units] == [latency is not None] * 2
            for k in (0, 1):
                rank.begin_iteration(k)
                for unit, u in enumerate(rank.units):
                    phases = rank._phases[unit]
                    assert [p.name for p in phases] == (
                        ["exchange", "update"] if u.replicated
                        else [f"reduce-scatter step {j}" for j in range(rank.steps)]
                        + ["all-gather"]
                    )
                    assert [bool(p.updates) for p in phases] == [False] * (len(phases) - 1) + [True]


class TestReceiveSegment:
    @pytest.mark.parametrize(
        "world_size,steps", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)],
        ids=["1-rank", "2-ranks", "3-ranks", "4-ranks", "5-ranks"],
    )
    def test_one_slot_per_hypercube_step(self, make_ranks, world_size, steps):
        """The live model plus one reduce-scatter slot per hypercube step,
        on every rank, whatever virtual ranks it plays."""
        _, _, ranks = make_ranks(world_size, batch_size=2 * world_size)
        assert [r.seg_recv.size for r in ranks] == [ranks[0].layout.size(1 + steps)] * world_size

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_one_buffer_per_slot_in_a_full_run(self, monkeypatch, pattern):
        """Over a whole 4-rank run, each rank's receive segment holds
        exactly 1 + 2 whole models (the live one, one per hypercube step)
        and 1 + 2 * 4 * units notification ids (one reduce-scatter and one
        all-gather channel per virtual rank), whatever units the schedule
        planned."""
        seen = {}
        run = Rank.run

        def record(r):
            model_bytes = sum(s.param_count for s in r.specs) * 8
            seen[r.rank] = (
                r.seg_recv.size == 3 * model_bytes,
                r.seg_recv.notifications.count == 1 + 2 * 4 * len(r.units),
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

    def test_exchange_ranges_only_for_replicated_units(self, make_ranks):
        """A replicated unit adds, after the live model and one slot per
        hypercube step, two exchange ranges of its own size per rank
        (iteration parity x sender) and 2N channels; a sharded unit adds
        neither."""
        _, _, ranks = make_ranks(
            4, LatencyModel(fixed_ns=1_000, per_byte_ns=5.0), layer_dims=(4, 6, 3),
            compute_inflation_ns=1_000_000,
        )
        lay = ranks[0].layout
        assert ranks[0].units == [Unit(0, 1, False), Unit(1, 2, True)]
        for r in ranks:
            assert r.seg_recv.size == lay.size(1 + 2) + 2 * 4 * lay.unit_bytes[1]
            assert r.seg_recv.notifications.count == 1 + (2 * 4 + 2 * 4) * 2

    def test_one_poll_per_pass(self):
        """A rank sees reduce-scatter and all-gather traffic through one poll."""
        cfg = TrainConfig(
            layer_dims=(4, 3), world_size=4, iterations=1,
            batch_size=8, dataset_size=16, seed=7,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(4)
        try:
            tr = CountingTransport(world.transport(2))
            r2 = Rank(cfg, ds, start_model(cfg), tr)
            r2.begin_iteration(0)
            r2._comm_pass()
            assert tr.polls == 1
        finally:
            world.close()


class TestCopyFree:
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_model_lives_in_receive_slot_zero(self, monkeypatch, pattern):
        """After a 4-rank run, every rank's weights are views of slot 0 of
        its receive segment - where its partners' all-gather writes land - and its
        gradients are views of its one-slot SEG_WORK, and the result still
        matches the reference bit for bit."""
        seen = {}
        run = Rank.run

        def check(r):
            result = run(r)
            slot0 = r.seg_recv.data[: r.layout.total_bytes]
            seen[r.rank] = (
                all(np.shares_memory(v, slot0) for v in r.model_views),
                all(np.shares_memory(g, r.seg_work.data) for g in r.grad_views),
                r.seg_work.size == r.layout.size(1),
            )
            return result

        monkeypatch.setattr(Rank, "run", check)
        cfg = TrainConfig(
            layer_dims=(4, 6, 3), world_size=4, iterations=2, batch_size=8,
            dataset_size=16, seed=7, pattern=pattern, compute_inflation_ns=1_000_000,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        results = run_inproc(cfg, ds)
        assert seen == {r: (True, True, True) for r in range(4)}
        reference = sequential_sgd(cfg, ds)
        for r in results:
            for got, want in zip(r.model, reference.layers):
                assert got.tobytes() == want.tobytes()

    def test_no_layer_sized_allocations(self, make_ranks):
        """The backward pass into SEG_WORK, a shard update and every
        communication pass of a 4-rank collective - folds, sends and
        all-gather arrivals - allocate nothing on the scale of a layer."""
        _, _, ranks = make_ranks(4, layer_dims=(256, 256, 2), batch_size=4)
        r0, r1, r2, r3 = ranks
        layer_bytes = 8 * r0.specs[0].param_count
        for r in ranks:
            r.begin_iteration(0)
        x, t = r0._shard(0)
        _, cache = net.forward(r0.specs, r0.model_views, x)

        def peak_bytes(step):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            step()
            return tracemalloc.get_traced_memory()[1] - base

        tracemalloc.start()
        try:
            backward = peak_bytes(lambda: net.backward_from_cache(
                r0.specs, r0.model_views, cache, t, out=r0.grad_views
            ))
            update = peak_bytes(lambda: [
                apply_update(w, g, r0.cfg.epsilon) for _, w, g in r0._phases[0][-1].updates
            ])
            r3.run_turn(0, grad(r3, 1.0))
            r2.run_turn(0, grad(r2, 1.0))
            r1.run_turn(0, grad(r1, 1.0))
            r0.run_turn(0, r0.grad_views[0])
            passes = []
            while not all(r._iteration_done() for r in ranks):
                passes.extend(peak_bytes(r._comm_pass) for r in ranks)
        finally:
            tracemalloc.stop()
        assert all(r.fold_counts[0] == 2 for r in ranks)
        assert max(backward, update, *passes) < layer_bytes // 16, (backward, update, passes)


class TestCrossIteration:
    def test_fast_peer_running_ahead_is_safe(self, make_ranks):
        """Rank 1 finishes iteration 0 and publishes iteration 1 gradients
        while rank 0 is still on iteration 0; the early writes land in
        ranges rank 0 has already folded and stay pending until it
        reaches iteration 1."""
        _, _, (r0, r1) = make_ranks(2, iterations=2)

        r1.begin_iteration(0)
        r1.run_turn(0, grad(r1, 1.0))
        r0.begin_iteration(0)
        r0.run_turn(0, grad(r0, 2.0))    # folds, updates its shard, gathers
        r1.finalize_iteration()
        r0.finalize_iteration()

        # rank 1 races ahead into iteration 1
        r1.begin_iteration(1)
        h1 = grad(r1, 5.0)
        r1.run_turn(0, h1)
        # rank 0, still parked on iteration 0, must not consume that
        assert r0._comm_pass() is False

        r0.begin_iteration(1)
        h0 = grad(r0, 7.0)
        r0.run_turn(0, h0)
        r1.finalize_iteration()
        r0.finalize_iteration()
        assert r0.fold_counts[0] == 2    # one fold per iteration
        assert r0.model_views[0].tobytes() == r1.model_views[0].tobytes()


    def test_fast_peer_exchange_lands_in_the_other_paritys_range(self, make_ranks):
        """Rank 1 finishes iteration 0 and sends its iteration-1 gradient
        before rank 0 has folded rank 1's iteration-0 one.  The early write
        lands in the odd exchange range and stays pending, so the even
        range still holds the iteration-0 data rank 0 folds next."""
        cfg, _, (r0, r1) = make_ranks(2, REPLICATE, iterations=2)
        lay = r0.layout
        r0.begin_iteration(0)
        r1.begin_iteration(0)
        r0.run_turn(0, grad(r0, 2.0))       # rank 1's data not in yet
        r1.run_turn(0, grad(r1, 1.0))       # folds rank 0's, updates: done
        r1.finalize_iteration()
        r1.begin_iteration(1)
        r1.run_turn(0, grad(r1, 5.0))       # iteration-1 data goes out

        def exchange(parity):
            return r0.seg_recv.view_f64(lay.exchange_offset(parity, 1, 0), lay.param_counts[0])

        odd = lay.notif_id(r0._exchange_channel + 2 + 1, 0)
        assert exchange(0).tolist() == grad(r1, 1.0).tolist()
        assert exchange(1).tolist() == grad(r1, 5.0).tolist()
        assert r0.tr.notify_poll(SEG_RECV, odd, 1) == [(odd, 2)]
        w0 = r0.model_views[0].copy()
        r0.finalize_iteration()
        want = master_update(w0, np.full(w0.size, 3.0), cfg.epsilon)
        assert r0.model_views[0].tobytes() == want.tobytes()
        assert r0.tr.notify_poll(SEG_RECV, odd, 1) == [(odd, 2)]

        r0.begin_iteration(1)
        r0.run_turn(0, grad(r0, 7.0))
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


# A rank sends one reduce-scatter write per hypercube step and virtual
# rank it plays whose partner is played elsewhere, then writes every shard
# it plays to each other rank.  Over 4 ranks that is 2 + 3 writes; over 3,
# rank 2 plays virtual ranks 2 and 3; over 6, ranks 4 and 5 play 4 and 6,
# and 5 and 7.
WRITES_PER_UNIT = {
    3: {0: 2 + 2, 1: 2 + 2, 2: 2 + 2 * 2},
    4: {r: 2 + 3 for r in range(4)},
    6: {**{r: 3 + 5 for r in range(4)}, 4: 3 + 2 * 5, 5: 3 + 2 * 5},
}

REQUEST_FIELDS = (
    "local_segment", "local_offset", "rank", "remote_segment", "remote_offset", "size",
    "notification_id", "notification_value",
)
# (layer dims, link model, compute_inflation_ns, dataset size): the
# tcp-latency workload's task, which plans one unit per layer with both
# collectives, and the default dims at zero latency, one sharded unit
TRAFFIC_CASES = {
    "tcp-latency": (
        (10, 64, 96, 96, 96, 96, 64, 10), LatencyModel(fixed_ns=200_000, per_byte_ns=20.0),
        3_000_000, 128,
    ),
    "default": (TrainConfig.layer_dims, None, 0, TrainConfig.dataset_size),
}
# (case, world size, pattern, requests over 2 iterations, SHA-256 of the
# repr of every (writer, *fields) tuple, sorted)
TRAFFIC_DIGESTS = [
    ("tcp-latency", 3, "pipelined", 164,
     "25bc39a96712fb398226d9434b4afd5ff3221d9dd2c0783dcdb1571460743c01"),
    ("tcp-latency", 3, "barrier", 28,
     "b34f4027c4ad38084a772225a94c4f4ff5f1900e00f29cf89ba0bcf3c76aa1a9"),
    ("tcp-latency", 4, "pipelined", 248,
     "6c1a2feaee716d64c83605a44e61981dc86eebc17c2ca4e1f5b21163b9a3eb83"),
    ("tcp-latency", 4, "barrier", 40,
     "926e34bd019bb49a03dd9598777491ca84498b8a3460ef9f88c3a67cae51622b"),
    ("default", 3, "pipelined", 28,
     "ab84df9a88d29280e40cdd2515f2201594fa1d7fef31949f2803d6d649dfaba9"),
    ("default", 3, "barrier", 28,
     "ab84df9a88d29280e40cdd2515f2201594fa1d7fef31949f2803d6d649dfaba9"),
    ("default", 4, "pipelined", 40,
     "9fc68859283d57011c70f90871aa46063b3e4cfac749f0e748d63b1532e04da5"),
    ("default", 4, "barrier", 40,
     "9fc68859283d57011c70f90871aa46063b3e4cfac749f0e748d63b1532e04da5"),
]


class TestTraffic:
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_writes_per_hypercube_exchange(self, monkeypatch, pattern):
        """Each hypercube exchange carries one reduce-scatter write per
        transfer unit per direction and iteration, and each shard one
        all-gather write to every other rank: the planned units when
        pipelined (one whole-model unit here, with no compute to hide a
        write), one whole-model unit under the barrier schedule."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=8,
            dataset_size=16, seed=9, pattern=pattern,
        )
        per_edge = len(runtime.plan(cfg, LatencyModel()))
        per_iter = writes_per_rank_per_iteration(monkeypatch, cfg)
        assert per_iter == {r: n * per_edge for r, n in WRITES_PER_UNIT[4].items()}

    def test_one_write_per_layer_when_compute_hides_it(self, monkeypatch):
        """With link latency and backward compute that outlasts one more
        write, the pipelined schedule keeps the paper's per-layer units.
        At 100 us + 1 ns/B both the 448-byte and the 288-byte unit are
        latency-bound, so each rank writes each of them once to each of
        its 3 peers."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=8,
            dataset_size=16, seed=9, compute_inflation_ns=1_000_000,
        )
        latency = LatencyModel(fixed_ns=100_000, per_byte_ns=1.0)
        per_iter = writes_per_rank_per_iteration(monkeypatch, cfg, latency)
        assert per_iter == {r: 3 * len(cfg.specs()) for r in range(4)}

    def test_a_unit_that_serializes_longer_than_the_fixed_cost_stays_sharded(
        self, monkeypatch
    ):
        """At 100 us + 300 ns/B the 448-byte unit takes 134 us on the wire
        and keeps the reduce-scatter and all-gather (2 + 3 writes); the
        288-byte one takes 86 us and replicates (3 writes)."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=4, iterations=3, batch_size=8,
            dataset_size=16, seed=9, compute_inflation_ns=1_000_000,
        )
        latency = LatencyModel(fixed_ns=100_000, per_byte_ns=300.0)
        per_iter = writes_per_rank_per_iteration(monkeypatch, cfg, latency)
        assert per_iter == {r: WRITES_PER_UNIT[4][r] + 3 for r in range(4)}


    @pytest.mark.parametrize("world_size", [3, 6])
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_writes_per_owned_shard(self, monkeypatch, world_size, pattern):
        """A rank that plays several virtual ranks writes each shard it
        owns to every other rank, once per whole-model unit and iteration
        (no compute hides a second unit here)."""
        cfg = TrainConfig(
            layer_dims=(6, 8, 4), world_size=world_size, iterations=3, batch_size=12,
            dataset_size=16, seed=9, pattern=pattern,
        )
        assert writes_per_rank_per_iteration(monkeypatch, cfg) == WRITES_PER_UNIT[world_size]

    @pytest.mark.parametrize("case,world_size,pattern,count,digest", TRAFFIC_DIGESTS)
    def test_every_request_is_pinned(self, monkeypatch, case, world_size, pattern, count, digest):
        """Every write request every rank sends, field by field: its
        ranges, sizes, ids and values hash to the digest taken when it was
        pinned.  Each request is recorded as a plain tuple of its eight
        fields, so the digest does not depend on the request's type."""
        dims, latency, inflation_ns, dataset_size = TRAFFIC_CASES[case]
        cfg = TrainConfig(
            layer_dims=dims, world_size=world_size, iterations=2, batch_size=48,
            dataset_size=dataset_size, compute_inflation_ns=inflation_ns, pattern=pattern,
        )
        sent = []
        write_notify = InprocTransport.write_notify

        def recording(transport, req):
            sent.append((transport.rank, *(getattr(req, f) for f in REQUEST_FIELDS)))
            return write_notify(transport, req)

        monkeypatch.setattr(InprocTransport, "write_notify", recording)
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        run_inproc(cfg, ds, latency=latency)
        assert len(sent) == count
        assert hashlib.sha256(repr(sorted(sent)).encode()).hexdigest() == digest


class TestProgressDuringCompute:
    def test_update_lands_inside_the_next_layers_compute(self):
        """The rank keeps communicating while a layer's backward compute
        runs.  The partner's top-layer gradient arrives about 10 ms after
        the top layer's turn (more than the ranks' start skew, which on a
        loaded 2-vCPU host exceeded 5 ms), so rank 0 folds it and updates
        the layer inside the next layer's 20 ms span, not at that layer's
        turn.  Every unit replicates, as the link charges no per-byte
        cost."""
        cfg = TrainConfig(
            layer_dims=(4, 6, 5, 3), world_size=2, iterations=2, batch_size=8,
            dataset_size=16, seed=11, compute_inflation_ns=20_000_000,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        results = run_inproc(cfg, ds, latency=LatencyModel(fixed_ns=10_000_000), record=True)
        assert results[0].units == [Unit(l, l + 1, True) for l in range(3)]
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


def slow_sends(monkeypatch, delay_s):
    """Make every ``Rank._send`` take ``delay_s`` longer."""
    send = Rank._send

    def slow(self, *args):
        time.sleep(delay_s)
        send(self, *args)

    monkeypatch.setattr(Rank, "_send", slow)


class TestDeviceClock:
    """Modeled backward compute runs on a device clock that starts with the
    backward pass and advances by ``compute_inflation_ns`` per emitted
    layer, so the host's turns fall inside the modeled layers."""

    def test_turns_hide_under_the_next_layers_compute(self, monkeypatch):
        """Every send takes 3 ms, so each of the 5 turns before the last
        emit costs at least that.  The backward pass still lasts the modeled
        compute, 6 layers x 10 ms, plus at most the one send that ends the
        last window and a slack; polling for a full window after each turn
        would add the 5 turns instead."""
        delay_s, inflation_ns = 0.003, 10_000_000
        cfg = TrainConfig(
            layer_dims=(4, 6, 5, 5, 5, 5, 3), world_size=2, iterations=3, batch_size=8,
            dataset_size=16, seed=11, compute_inflation_ns=inflation_ns,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        slow_sends(monkeypatch, delay_s)
        results = run_inproc(cfg, ds, latency=LatencyModel(fixed_ns=1_000_000), record=True)
        layers = len(cfg.specs())
        assert results[0].units == [Unit(l, l + 1, True) for l in range(layers)]
        budget_ns = layers * inflation_ns + delay_s * 1e9 + 5_000_000
        for r in results:
            for k in range(cfg.iterations):
                spans = [
                    e for e in r.events if e.kind == "backward_layer" and e.iteration == k
                ]
                assert len(spans) == layers
                backward_ns = max(e.t_end_ns for e in spans) - min(e.t_start_ns for e in spans)
                assert backward_ns < budget_ns, (r.rank, k, backward_ns)
        reference = sequential_sgd(cfg, ds)
        for r in results:
            for got, want in zip(r.model, reference.layers):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "inflation_ns, delay_s, polling_layers",
        [(0, 0.0, 0), (2_000_000, 0.01, 1)],
        ids=["zero-inflation", "host-behind"],
    )
    def test_no_pass_once_the_device_clock_has_passed(
        self, monkeypatch, inflation_ns, delay_s, polling_layers
    ):
        """Communication passes run outside the turns only while the device
        clock is ahead of the host.  At zero inflation it never is.  With
        2 ms layers and 10 ms sends, the host is behind from the first turn
        on, so only the top layer's compute may poll."""
        cfg = TrainConfig(
            layer_dims=(4, 6, 5, 5, 3), world_size=2, iterations=2, batch_size=8,
            dataset_size=16, seed=11, compute_inflation_ns=inflation_ns,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        slow_sends(monkeypatch, delay_s)
        comm_pass, inflate = Rank._comm_pass, Rank._inflate
        passes = {}  # rank -> passes run by each _inflate call, in call order

        def counting_pass(self):
            self.test_passes = getattr(self, "test_passes", 0) + 1
            return comm_pass(self)

        def counting_inflate(self):
            before = getattr(self, "test_passes", 0)
            inflate(self)
            passes.setdefault(self.rank, []).append(getattr(self, "test_passes", 0) - before)

        monkeypatch.setattr(Rank, "_comm_pass", counting_pass)
        monkeypatch.setattr(Rank, "_inflate", counting_inflate)
        results = run_inproc(cfg, ds, latency=LatencyModel(fixed_ns=100_000))
        layers = len(cfg.specs())
        if inflation_ns:
            assert results[0].units == [Unit(l, l + 1, True) for l in range(layers)]
        for rank in (0, 1):
            per_layer = passes[rank]
            assert len(per_layer) == cfg.iterations * layers
            for k in range(cfg.iterations):
                calls = per_layer[k * layers : (k + 1) * layers]
                assert calls[polling_layers:] == [0] * (layers - polling_layers), (rank, k, calls)


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
            self.k += 1
            self.turns = None
        else:
            r._comm_pass()


MULTI_LAYER_SPANS = [[(0, 2), (2, 3)], [(0, 1), (1, 3)], [(0, 3)]]
MULTI_LAYER_PLANS = [[Unit(a, b, False) for a, b in spans] for spans in MULTI_LAYER_SPANS]
# Over dims 5-7-6-3 (336, 384 and 168 bytes per layer), each plan with the
# shapes its latency gives: at 50 us every unit replicates; at 8 us +
# 20 ns/B those under 400 bytes do, (0, 1) and (2, 3) but not (1, 3),
# (0, 2) or the whole model.
PER_BYTE = LatencyModel(fixed_ns=8_000, per_byte_ns=20.0)
LATENCY_BOUND = [
    ([Unit(a, b, True) for a, b in spans], LatencyModel(fixed_ns=50_000))
    for spans in MULTI_LAYER_SPANS
] + [
    ([Unit(0, 2, False), Unit(2, 3, True)], PER_BYTE),
    ([Unit(0, 1, True), Unit(1, 3, False)], PER_BYTE),
    ([Unit(0, 3, False)], PER_BYTE),
]


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
        peer still polls in the current one.  None of it may raise or move
        a bit.
        """
        self.interleave(world_size, plan, speeds, seed, None)

    @settings(max_examples=100, deadline=None)
    @given(
        world_size=st.integers(2, 4),
        speeds=st.lists(st.integers(1, 20), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        case=st.sampled_from(LATENCY_BOUND),
    )
    def test_any_interleaving_matches_reference_under_latency(
        self, world_size, speeds, seed, case
    ):
        """The same schedules with latency-bound units, which run the
        one-hop allreduce: a fast rank's next-iteration gradient lands in
        the exchange range of the other parity."""
        plan, latency = case
        self.interleave(world_size, plan, speeds, seed, latency)

    @staticmethod
    def interleave(world_size, plan, speeds, seed, latency):
        cfg = TrainConfig(
            layer_dims=(5, 7, 6, 3), world_size=world_size, iterations=3,
            batch_size=12, dataset_size=24, seed=11, finalize_timeout_s=5.0,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(world_size, latency)
        try:
            start = start_model(cfg)
            with patch.object(runtime, "plan", lambda *_args: plan):
                ranks = [Rank(cfg, ds, start, world.transport(r)) for r in range(world_size)]
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
