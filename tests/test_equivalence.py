"""Distributed runs must reproduce the single-process optimizer bit for bit.

This is the core correctness property: for any world size, transport, and
pattern, every rank's final model equals the reference run exactly, not
approximately.  Latency injection must not change a single bit either.
"""

import numpy as np
import pytest

from pipesgd import net
from pipesgd.engine import TrainConfig, runtime, sequential_sgd
from pipesgd.harness import run_inproc, run_tcp, verify_against_reference
from pipesgd.transport import LatencyModel


def make_problem(world_size, **overrides):
    cfg = TrainConfig(
        layer_dims=(6, 9, 5), world_size=world_size, iterations=6,
        batch_size=24, dataset_size=48, seed=19, epsilon=0.08,
        finalize_timeout_s=10.0,
    ).replace(**overrides)
    ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
    return cfg, ds


def assert_bit_identical(results, reference):
    for result in results:
        assert len(result.model) == len(reference.layers)
        for l, (got, want) in enumerate(zip(result.model, reference.layers)):
            assert got.tobytes() == want.tobytes(), (
                f"rank {result.rank} layer {l} diverged"
            )


class TestInproc:
    @pytest.mark.parametrize("world_size", [1, 2, 3, 4, 6, 8])
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_matches_reference(self, world_size, pattern):
        cfg, ds = make_problem(world_size, pattern=pattern)
        results = run_inproc(cfg, ds)
        assert_bit_identical(results, sequential_sgd(cfg, ds))

    def test_latency_does_not_change_bits(self):
        cfg, ds = make_problem(4, iterations=3)
        jittered = run_inproc(cfg, ds, latency=LatencyModel(fixed_ns=500_000, per_byte_ns=5.0))
        assert_bit_identical(jittered, sequential_sgd(cfg, ds))

    def test_patterns_agree_with_each_other(self):
        cfg, ds = make_problem(4)
        a = run_inproc(cfg, ds)
        b = run_inproc(cfg.replace(pattern="barrier"), ds)
        for ra, rb in zip(a, b):
            for la, lb in zip(ra.model, rb.model):
                assert la.tobytes() == lb.tobytes()

    @pytest.mark.parametrize("dims", [(3, 2), (5, 1, 4), (4, 16, 16, 2)])
    def test_architectures(self, dims):
        cfg, ds = make_problem(4, layer_dims=dims, iterations=4)
        assert_bit_identical(run_inproc(cfg, ds), sequential_sgd(cfg, ds))

    def test_verify_helper_accepts_good_run(self):
        cfg, ds = make_problem(2, iterations=2)
        verify_against_reference(cfg, ds, run_inproc(cfg, ds))

    def test_losses_match_reference_shards(self):
        """Per-iteration rank-0 losses agree exactly with the reference."""
        cfg, ds = make_problem(4, iterations=4)
        results = run_inproc(cfg, ds)
        seen = []
        sequential_sgd(cfg, ds, on_iteration=lambda k, m, loss: seen.append(loss))
        assert results[0].losses == seen


class TestTcp:
    @pytest.mark.parametrize("world_size", [1, 2, 4])
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_matches_reference(self, world_size, pattern):
        cfg, ds = make_problem(world_size, pattern=pattern, iterations=4)
        results = run_tcp(cfg, ds)
        assert_bit_identical(results, sequential_sgd(cfg, ds))

    def test_non_power_of_two_world(self):
        cfg, ds = make_problem(3, iterations=3)
        assert_bit_identical(run_tcp(cfg, ds), sequential_sgd(cfg, ds))


class TestMixedUnits:
    """Units of several layers that are not the whole model: the planner
    never makes them from one inflation value, so the plan is forced."""

    @pytest.mark.parametrize("plan", [[(0, 2), (2, 3)], [(0, 1), (1, 3)], [(0, 1), (1, 2), (2, 3)]])
    @pytest.mark.parametrize("world_size", [2, 3, 4])
    @pytest.mark.parametrize("launcher", [run_inproc, run_tcp], ids=["inproc", "tcp"])
    def test_forced_plan_matches_reference(self, monkeypatch, launcher, world_size, plan):
        # forked tcp children inherit the patched planner
        monkeypatch.setattr(runtime, "plan_units", lambda *_args: plan)
        cfg, ds = make_problem(world_size, layer_dims=(6, 9, 7, 5), iterations=4)
        results = launcher(cfg, ds, record=True)
        assert_bit_identical(results, sequential_sgd(cfg, ds))
        labels = [first if stop - first == 1 else -1 for first, stop in plan]
        for result in results:
            assert result.units == plan
            folds = {e.layer for e in result.events if e.kind == "reduce_local"}
            assert folds <= set(labels)


class TestBarrierCounts:
    def test_pipelined_never_touches_the_barrier(self):
        cfg, ds = make_problem(4)
        for result in run_inproc(cfg, ds):
            assert result.barrier_calls == 0

    def test_barrier_pattern_fences_twice_per_iteration(self):
        cfg, ds = make_problem(4, pattern="barrier")
        for result in run_inproc(cfg, ds):
            assert result.barrier_calls == 2 * cfg.iterations


class TestFoldAccounting:
    def test_folds_per_layer_match_hypercube_exchanges(self):
        """Each rank folds once per reduce-scatter step, per layer and
        iteration: over 8 ranks, 3 steps each."""
        cfg, ds = make_problem(8, iterations=2)
        for result in run_inproc(cfg, ds):
            assert result.fold_counts == [3 * cfg.iterations] * len(cfg.specs())


class TestHypercube:
    """The reduce-scatter and all-gather give every element tree_reduce's
    expression at every world size, over ranks that play several virtual
    ranks and over shards that are empty (signed zeros: ``test_turns``)."""

    @pytest.mark.parametrize("world_size", range(1, 17))
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_every_world_size_matches_reference(self, monkeypatch, pattern, world_size):
        # per-layer units when pipelined: the 2-parameter top layer then
        # moves alone, and most of its shards are empty
        monkeypatch.setattr(runtime, "plan_units", lambda *_args: [(0, 1), (1, 2), (2, 3)])
        cfg = TrainConfig(
            layer_dims=(3, 4, 1, 1), world_size=world_size, iterations=3,
            batch_size=world_size, dataset_size=32, seed=23, pattern=pattern,
            finalize_timeout_s=10.0,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        assert_bit_identical(run_inproc(cfg, ds), sequential_sgd(cfg, ds))


class TestLearning:
    def test_loss_decreases_on_average(self):
        cfg, ds = make_problem(4, iterations=30, epsilon=0.05)
        results = run_inproc(cfg, ds)
        losses = results[0].losses
        first = float(np.mean(losses[:5]))
        last = float(np.mean(losses[-5:]))
        assert last < first
