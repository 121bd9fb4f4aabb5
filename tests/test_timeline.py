"""Timeline events: CSV round-trips and the overlap arithmetic."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pipesgd import net
from pipesgd.engine import TrainConfig
from pipesgd.errors import FormatError
from pipesgd.harness import run_inproc
from pipesgd.timeline import (
    COMM_KINDS,
    COMPUTE_KINDS,
    CSV_HEADER,
    EVENT_KINDS,
    TimelineEvent,
    _merge_intervals,
    _overlap_with,
    compute_overlap,
    read_timeline_csv,
    write_timeline_csv,
)


def ev(rank, kind, t0, t1, iteration=0, layer=0):
    return TimelineEvent(rank, iteration, layer, kind, t0, t1)


class TestKinds:
    def test_comm_and_compute_are_disjoint(self):
        assert not (COMM_KINDS & COMPUTE_KINDS)
        assert COMM_KINDS <= EVENT_KINDS
        assert COMPUTE_KINDS <= EVENT_KINDS

    def test_bookkeeping_kinds_count_as_neither(self):
        neither = EVENT_KINDS - COMM_KINDS - COMPUTE_KINDS
        assert neither == {"finalize", "barrier"}


class TestCsv:
    def _events(self):
        return [
            ev(1, "forward", 100, 250),
            ev(0, "backward_layer", 10, 30, iteration=2, layer=1),
            ev(0, "send_trigger", 30, 90, layer=-1),
        ]

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "timeline.csv")
        events = self._events()
        write_timeline_csv(events, path)
        back = read_timeline_csv(path)
        assert sorted(back, key=lambda e: (e.rank, e.t_start_ns)) == sorted(
            events, key=lambda e: (e.rank, e.t_start_ns)
        )

    def test_rows_sorted_by_rank_then_time(self, tmp_path):
        path = str(tmp_path / "timeline.csv")
        write_timeline_csv(self._events(), path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        ranks = [int(line.split(",")[0]) for line in lines[1:]]
        assert ranks == sorted(ranks)

    def test_bad_header_rejected(self, tmp_path):
        path = str(tmp_path / "t.csv")
        path_obj = tmp_path / "t.csv"
        path_obj.write_text("rank,iteration,layer,kind,start,end\n")
        with pytest.raises(FormatError, match="header"):
            read_timeline_csv(path)

    def test_unknown_kind_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(",".join(CSV_HEADER) + "\n0,0,0,teleport,1,2\n")
        with pytest.raises(FormatError, match="teleport"):
            read_timeline_csv(str(p))

    def test_non_integer_field_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(",".join(CSV_HEADER) + "\n0,0,0,forward,abc,2\n")
        with pytest.raises(FormatError, match=":2"):
            read_timeline_csv(str(p))

    def test_reversed_span_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(",".join(CSV_HEADER) + "\n0,0,0,forward,10,5\n")
        with pytest.raises(FormatError, match="ends before"):
            read_timeline_csv(str(p))

    def test_wrong_column_count_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(",".join(CSV_HEADER) + "\n0,0,0,forward,10\n")
        with pytest.raises(FormatError, match="columns"):
            read_timeline_csv(str(p))


class TestIntervalHelpers:
    def test_merge_overlapping_and_touching(self):
        assert _merge_intervals([(5, 9), (0, 3), (3, 5)]) == [(0, 9)]
        assert _merge_intervals([(0, 2), (4, 6)]) == [(0, 2), (4, 6)]
        assert _merge_intervals([]) == []

    def test_overlap_with_spans(self):
        merged = [(0, 10), (20, 30)]
        assert _overlap_with(merged, 5, 25) == 10  # 5 from each block
        assert _overlap_with(merged, 10, 20) == 0
        assert _overlap_with(merged, -5, 50) == 20
        assert _overlap_with(merged, 22, 24) == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
                lambda p: (min(p), max(p))
            ),
            max_size=12,
        ),
        st.integers(0, 200),
        st.integers(0, 200),
    )
    def test_overlap_matches_brute_force(self, intervals, a, b):
        if a > b:
            a, b = b, a
        merged = _merge_intervals(intervals)
        covered = set()
        for lo, hi in intervals:
            covered.update(range(lo, hi))
        want = sum(1 for t in range(a, b) if t in covered)
        assert _overlap_with(merged, a, b) == want


class TestComputeOverlap:
    def test_fully_hidden_communication(self):
        events = [
            ev(0, "backward_layer", 0, 100),
            ev(0, "send_trigger", 10, 60),
        ]
        metrics = compute_overlap(events)
        assert metrics.per_rank_overlap[0] == 1.0
        assert metrics.overlap_ratio == 1.0

    def test_fully_exposed_communication(self):
        events = [
            ev(0, "backward_layer", 0, 50),
            ev(0, "send_trigger", 50, 100),
        ]
        assert compute_overlap(events).overlap_ratio == 0.0

    def test_partial_overlap_exact_fraction(self):
        events = [
            ev(0, "forward", 0, 30),
            ev(0, "send_trigger", 20, 60),  # 10 of 40 ns hidden
        ]
        assert compute_overlap(events).overlap_ratio == pytest.approx(0.25)

    def test_barrier_and_finalize_count_as_neither(self):
        events = [
            ev(0, "barrier", 0, 100),
            ev(0, "finalize", 100, 200),
            ev(0, "send_trigger", 50, 150),
        ]
        assert compute_overlap(events).overlap_ratio == 0.0

    def test_run_ratio_averages_only_communicating_ranks(self):
        events = [
            ev(0, "backward_layer", 0, 100),
            ev(0, "send_trigger", 0, 100),    # rank 0: 1.0
            ev(1, "backward_layer", 0, 100),
            ev(1, "send_trigger", 100, 200),  # rank 1: 0.0
            ev(2, "forward", 0, 100),         # rank 2: no comm at all
        ]
        metrics = compute_overlap(events)
        assert metrics.overlap_ratio == pytest.approx(0.5)
        assert set(metrics.per_rank_overlap) == {0, 1}

    def test_overlapping_compute_spans_not_double_counted(self):
        events = [
            ev(0, "forward", 0, 50),
            ev(0, "backward_layer", 25, 75),
            ev(0, "recv_notify", 0, 100),
        ]
        assert compute_overlap(events).overlap_ratio == pytest.approx(0.75)

    def test_wall_clock_spans_first_to_last_event(self):
        events = [ev(0, "forward", 100, 200), ev(0, "finalize", 500, 900)]
        assert compute_overlap(events).wall_clock_ns[0] == 800

    def test_iterations_per_second(self):
        events = [
            ev(0, "forward", 0, 500_000_000, iteration=0),
            ev(0, "forward", 500_000_000, 1_000_000_000, iteration=1),
        ]
        assert compute_overlap(events).iterations_per_second == pytest.approx(2.0)

    def test_empty_events(self):
        metrics = compute_overlap([])
        assert metrics.overlap_ratio == 0.0
        assert metrics.wall_clock_ns == {}

    def test_reversed_event_rejected(self):
        with pytest.raises(FormatError):
            compute_overlap([ev(0, "forward", 10, 5)])

    def test_metric_lines_format(self):
        metrics = compute_overlap(
            [ev(0, "forward", 0, 10), ev(0, "send_trigger", 0, 10)]
        )
        lines = metrics.lines()
        assert lines[0] == "overlap_ratio=1.0000"
        assert any(line.startswith("wall_clock_ns.rank0=") for line in lines)

    @given(st.integers(0, 50), st.integers(0, 50), st.integers(1, 50))
    def test_ratio_always_in_unit_interval(self, comm_start, gap, width):
        events = [
            ev(0, "backward_layer", 0, 40),
            ev(0, "send_trigger", comm_start, comm_start + gap + width),
        ]
        ratio = compute_overlap(events).overlap_ratio
        assert 0.0 <= ratio <= 1.0


class TestRealRunEvents:
    def test_stamps_rank_on_every_event(self):
        cfg = TrainConfig(
            layer_dims=(4, 6, 3), world_size=4, iterations=2,
            batch_size=8, dataset_size=16, seed=5,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), 1.0)
        results = run_inproc(cfg, ds, record=True)
        for result in results:
            assert result.events
            assert {e.rank for e in result.events} == {result.rank}
        assert all(r.events == [] for r in run_inproc(cfg, ds, record=False))

    def test_recorded_run_produces_consistent_timeline(self, tmp_path):
        """Events from an actual training run survive a CSV round-trip and
        yield finite metrics."""
        cfg = TrainConfig(
            layer_dims=(4, 6, 3), world_size=2, iterations=3,
            batch_size=8, dataset_size=16, seed=5,
        )
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), 1.0)
        results = run_inproc(cfg, ds, record=True)
        events = [e for r in results for e in r.events]
        assert events
        assert {e.kind for e in events} <= EVENT_KINDS
        assert all(e.t_end_ns >= e.t_start_ns for e in events)
        iterations = {e.iteration for e in events}
        assert iterations == set(range(cfg.iterations))

        path = str(tmp_path / "run.csv")
        write_timeline_csv(events, path)
        back = read_timeline_csv(path)
        assert len(back) == len(events)
        metrics = compute_overlap(back)
        assert set(metrics.wall_clock_ns) == {0, 1}
        assert 0.0 <= metrics.overlap_ratio <= 1.0
        assert metrics.iterations_per_second > 0
        assert np.isfinite(metrics.iterations_per_second)
