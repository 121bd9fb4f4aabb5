"""The pipelined schedule's transfer-unit plan (``plan_units``).

A unit boundary costs one more write per hypercube exchange: the link's
fixed latency plus the engine's per-unit work.  It pays off only when backward
compute can hide that write, so the plan is one fence-free whole-model
unit without such compute and one unit per layer with it.
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.engine import Rank, TrainConfig, runtime
from pipesgd.engine.runtime import _UNIT_COST_NS, plan_units
from pipesgd.transport import InprocWorld, LatencyModel

ROOT = Path(__file__).resolve().parent.parent
ZERO = LatencyModel()


def per_layer(num_layers):
    return [(l, l + 1) for l in range(num_layers)]


class TestPlanUnits:
    def test_no_latency_no_compute_is_one_unit(self):
        assert plan_units(4, 0, ZERO) == [(0, 4)]

    def test_compute_that_hides_a_write_gives_one_unit_per_layer(self):
        latency = LatencyModel(fixed_ns=200_000, per_byte_ns=20.0)
        hide = latency.fixed_ns + _UNIT_COST_NS
        assert plan_units(5, hide, latency) == per_layer(5)
        assert plan_units(5, hide - 1, latency) == [(0, 5)]

    def test_latency_above_the_compute_gives_one_unit(self):
        latency = LatencyModel(fixed_ns=5_000_000)
        assert plan_units(4, 3_000_000, latency) == [(0, 4)]

    def test_per_byte_cost_does_not_move_the_cut(self):
        """Every byte moves once whatever the cut, so only the fixed cost counts."""
        assert plan_units(3, 0, LatencyModel(per_byte_ns=1e6)) == [(0, 3)]

    @pytest.mark.parametrize("hide_ns", [0, 10**9])
    def test_single_layer_is_one_unit(self, hide_ns):
        assert plan_units(1, hide_ns, ZERO) == [(0, 1)]

    @given(
        num_layers=st.integers(1, 12),
        hide_ns=st.integers(0, 10**8),
        fixed_ns=st.integers(0, 10**8),
    )
    def test_units_tile_the_layers_in_ascending_order(self, num_layers, hide_ns, fixed_ns):
        units = plan_units(num_layers, hide_ns, LatencyModel(fixed_ns=fixed_ns))
        assert units[0][0] == 0
        assert units[-1][1] == num_layers
        for (_, stop), (first, _) in zip(units, units[1:]):
            assert stop == first
        assert all(first < stop for first, stop in units)

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
            plans = [Rank(cfg, ds, world.transport(r)).units for r in range(cfg.world_size)]
        finally:
            world.close()
        assert all(plan == plans[0] for plan in plans)
        assert len(plans[0]) == (1 if inflation_ns == 0 else 3)


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


class TestBenchmarkPlans:
    @pytest.mark.parametrize("unit_cost_ns", UNIT_COST_RANGE_NS)
    def test_decision_is_stable_across_the_unit_cost(self, monkeypatch, unit_cost_ns):
        """inproc-small and tcp-wide have no compute to hide a write, so they
        get one whole-model unit; tcp-latency hides 0.2 ms writes under
        3 ms of compute per layer, so it keeps one unit per layer."""
        monkeypatch.setattr(runtime, "_UNIT_COST_NS", unit_cost_ns)
        expected = {"inproc-small": "whole", "tcp-wide": "whole", "tcp-latency": "per-layer"}
        workloads = benchmark_workloads()
        assert sorted(w.name for w in workloads) == sorted(expected)
        for w in workloads:
            num_layers = len(w.layer_dims) - 1
            plan = plan_units(num_layers, w.compute_inflation_ns, w.latency or ZERO)
            want = [(0, num_layers)] if expected[w.name] == "whole" else per_layer(num_layers)
            assert plan == want, w.name

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_replicated_units_per_workload(self, pattern):
        """A unit replicates when one write's serialization is shorter than
        the link's fixed cost.  tcp-latency's 5.6 KB layer 0 and 5.2 KB
        layer 6 do (113 and 104 us against 200 us), its other layers and
        the barrier's whole-model unit do not; zero latency replicates
        nothing."""
        expected = {
            "tcp-latency": [True] + [False] * 5 + [True] if pattern == "pipelined" else [False],
            "inproc-small": [False],
            "tcp-wide": [False],
        }
        for w in benchmark_workloads():
            cfg = w.config(seed=1).replace(pattern=pattern)
            world = InprocWorld(cfg.world_size, w.latency)
            try:
                rank = Rank(cfg, w.dataset(cfg), world.transport(0))
            finally:
                world.close()
            assert rank.replicated == expected[w.name], w.name
