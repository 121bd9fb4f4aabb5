"""The transfer-unit plan (``runtime.plan``): units and their shapes.

A unit boundary costs one more collective per iteration: the link's
fixed latency plus the engine's per-unit work.  It pays off only when
backward compute can hide that write, so the pipelined plan is one
fence-free whole-model unit without such compute and one unit per layer
with it; the barrier baseline always moves one whole-model unit.  A unit
whose serialization on one link is shorter than one write's fixed cost
replicates; every other unit is sharded.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.engine import Rank, TrainConfig, runtime
from pipesgd.engine.runtime import _UNIT_COST_NS, Unit, plan
from pipesgd.harness import start_model
from pipesgd.transport import InprocWorld, LatencyModel

ROOT = Path(__file__).resolve().parent.parent
ZERO = LatencyModel()


def per_layer(num_layers):
    return [(l, l + 1) for l in range(num_layers)]


def spans(units):
    return [(u.first, u.stop) for u in units]


def config(num_layers, hide_ns=0, pattern="pipelined"):
    """``num_layers`` layers of 3 x 3 weights and 3 biases: 96 bytes each."""
    return TrainConfig(
        layer_dims=(3,) * (num_layers + 1), world_size=2, batch_size=2, dataset_size=4,
        compute_inflation_ns=hide_ns, pattern=pattern,
    )


class TestPlanUnits:
    def test_no_latency_no_compute_is_one_unit(self):
        assert plan(config(4), ZERO) == [Unit(0, 4, False)]

    def test_compute_that_hides_a_write_gives_one_unit_per_layer(self):
        latency = LatencyModel(fixed_ns=200_000, per_byte_ns=20.0)
        hide = latency.fixed_ns + _UNIT_COST_NS
        assert spans(plan(config(5, hide), latency)) == per_layer(5)
        assert spans(plan(config(5, hide - 1), latency)) == [(0, 5)]

    def test_latency_above_the_compute_gives_one_unit(self):
        latency = LatencyModel(fixed_ns=5_000_000)
        assert spans(plan(config(4, 3_000_000), latency)) == [(0, 4)]

    def test_per_byte_cost_does_not_move_the_cut(self):
        """Every byte moves once whatever the cut, so only the fixed cost
        counts; with no fixed cost the unit is sharded."""
        assert plan(config(3), LatencyModel(per_byte_ns=1e6)) == [Unit(0, 3, False)]

    @pytest.mark.parametrize("hide_ns", [0, 10**9])
    def test_single_layer_is_one_unit(self, hide_ns):
        assert plan(config(1, hide_ns), ZERO) == [Unit(0, 1, False)]

    @given(
        num_layers=st.integers(1, 12),
        hide_ns=st.integers(0, 10**8),
        fixed_ns=st.integers(0, 10**8),
    )
    def test_units_tile_the_layers_in_ascending_order(self, num_layers, hide_ns, fixed_ns):
        units = plan(config(num_layers, hide_ns), LatencyModel(fixed_ns=fixed_ns))
        assert units[0].first == 0
        assert units[-1].stop == num_layers
        for before, after in zip(units, units[1:]):
            assert before.stop == after.first
        assert all(u.first < u.stop for u in units)
        assert spans(units) in (per_layer(num_layers), [(0, num_layers)])

    @pytest.mark.parametrize(
        "inflation_ns,latency",
        [(0, None), (1_000_000, LatencyModel(fixed_ns=100_000, per_byte_ns=5.0))],
    )
    def test_all_ranks_of_a_world_build_the_same_units(self, inflation_ns, latency):
        cfg = TrainConfig(
            layer_dims=(5, 7, 6, 3), world_size=4, iterations=1, batch_size=8,
            dataset_size=16, seed=3, compute_inflation_ns=inflation_ns,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        world = InprocWorld(cfg.world_size, latency)
        try:
            start = start_model(cfg)
            plans = [Rank(cfg, ds, start, world.transport(r)).units for r in range(cfg.world_size)]
        finally:
            world.close()
        assert all(p == plan(cfg, latency or ZERO) for p in plans)
        assert len(plans[0]) == (1 if inflation_ns == 0 else 3)

    def test_a_unit_replicates_below_the_fixed_cost(self):
        """A 96-byte layer at 10 ns/B serializes for 960 ns: it replicates
        under a larger fixed cost and stays sharded at an equal one."""
        assert plan(config(1), LatencyModel(fixed_ns=961, per_byte_ns=10.0)) == [Unit(0, 1, True)]
        assert plan(config(1), LatencyModel(fixed_ns=960, per_byte_ns=10.0)) == [Unit(0, 1, False)]

    @pytest.mark.parametrize(
        "latency,replicated",
        [(ZERO, False), (LatencyModel(fixed_ns=50_000), True)],
        ids=["sharded", "replicated"],
    )
    def test_barrier_baseline_is_one_whole_model_unit(self, latency, replicated):
        """Compute that would hide a write per layer does not split the
        barrier baseline's unit; its shape follows the same rule."""
        cfg = config(4, 10**9, pattern="barrier")
        assert plan(cfg, latency) == [Unit(0, 4, replicated)]


def benchmark_workloads():
    """The workloads BENCHMARK.json gates, as bench/workloads.py defines them."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    gated = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    return [WORKLOADS[w["name"]] for w in gated]


# The measured per-unit cost (0.34 ms on 2 vCPUs) could be several times
# off on other hardware; the plans must not depend on it within this span.
UNIT_COST_RANGE_NS = [1_000, 30_000, 100_000, _UNIT_COST_NS, 1_000_000, 2_500_000]

# Every gated workload's plan.  tcp-latency hides 0.2 ms writes under 3 ms
# of compute per layer, so it keeps one unit per layer, and its 5.6 KB
# layer 0 and 5.2 KB layer 6 replicate (113 and 104 us against 200 us).
# inproc-small and tcp-wide have no compute to hide a write, so they move
# one whole-model unit, sharded at zero latency.  Every barrier run moves
# one sharded whole-model unit.
BENCHMARK_PLANS = {
    ("tcp-latency", "pipelined"): [Unit(l, l + 1, l in (0, 6)) for l in range(7)],
    ("tcp-latency", "barrier"): [Unit(0, 7, False)],
    ("inproc-small", "pipelined"): [Unit(0, 4, False)],
    ("inproc-small", "barrier"): [Unit(0, 4, False)],
    ("tcp-wide", "pipelined"): [Unit(0, 4, False)],
    ("tcp-wide", "barrier"): [Unit(0, 4, False)],
}


class TestBenchmarkPlans:
    @pytest.mark.parametrize("unit_cost_ns", UNIT_COST_RANGE_NS)
    def test_decision_is_stable_across_the_unit_cost(self, monkeypatch, unit_cost_ns):
        monkeypatch.setattr(runtime, "_UNIT_COST_NS", unit_cost_ns)
        workloads = benchmark_workloads()
        assert sorted(w.name for w in workloads) == sorted({n for n, _ in BENCHMARK_PLANS})
        for w in workloads:
            for pattern in ("pipelined", "barrier"):
                cfg = w.config(seed=1).replace(pattern=pattern)
                assert plan(cfg, w.latency or ZERO) == BENCHMARK_PLANS[w.name, pattern], (
                    w.name, pattern,
                )

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_replicated_units_per_workload(self, pattern):
        """The ranks a workload launches run the pinned plan."""
        for w in benchmark_workloads():
            cfg = w.config(seed=1).replace(pattern=pattern)
            world = InprocWorld(cfg.world_size, w.latency)
            try:
                rank = Rank(cfg, w.dataset(cfg), start_model(cfg), world.transport(0))
            finally:
                world.close()
            assert rank.units == BENCHMARK_PLANS[w.name, pattern], w.name
