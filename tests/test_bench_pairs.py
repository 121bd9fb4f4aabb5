"""The paired-run summary of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "rate", "unit": "samples/s", "better": "higher", "bound": 0.25},
    {"name": "rss", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def run(rate=None, rss=None, correct=True, failed=0):
    metrics = {}
    if rate is not None:
        metrics["rate"] = {"value": rate, "unit": "samples/s"}
    if rss is not None:
        metrics["rss"] = {"value": rss, "unit": "MiB"}
    return {"correct": correct, "attempted": 4, "failed": failed, "metrics": metrics}


def rows_by_metric(base, head, specs=SPECS):
    return {r["metric"]: r for r in bench_pairs.summarize(base, head, specs)}


class TestSummarize:
    def test_medians_quartiles_and_wins(self):
        base = [run(rate=v, rss=50.0) for v in (100, 102, 98, 101, 99)]
        head = [run(rate=v, rss=49.0) for v in (120, 97, 121, 119, 122)]
        rows = rows_by_metric(base, head)
        rate = rows["rate"]
        assert rate["base"] == (99, 100, 101)
        assert rate["head"] == (119, 120, 121)
        assert rate["wins"] == 4 and rate["pairs"] == 5
        assert rate["change"] == pytest.approx(0.2)
        assert rate["base_iqr"] == pytest.approx(0.02)
        assert rate["verdict"] == "-"  # 4 of 5 pairs is short of 9 in 10
        # lower is better: every pair won, by more than the base IQR (0)
        assert rows["rss"]["wins"] == 5
        assert rows["rss"]["verdict"] == "gain"

    def test_gain_needs_nine_in_ten_and_more_than_the_base_iqr(self):
        base = [run(rate=100 + i) for i in range(10)]
        head = [run(rate=200 + i) for i in range(10)]
        head[3] = run(rate=50)  # one lost pair still allows a gain
        assert rows_by_metric(base, head)["rate"]["verdict"] == "gain"
        small = [run(rate=103 + i) for i in range(10)]  # median +3 < IQR 4.5
        assert rows_by_metric(base, small)["rate"]["wins"] == 10
        assert rows_by_metric(base, small)["rate"]["verdict"] == "-"

    def test_worse_than_the_bound(self):
        base = [run(rate=100, rss=50.0) for _ in range(4)]
        head = [run(rate=70, rss=56.0) for _ in range(4)]
        rows = rows_by_metric(base, head)
        assert rows["rate"]["verdict"] == "worse"
        assert rows["rss"]["verdict"] == "worse"
        inside = rows_by_metric(base, [run(rate=80, rss=54.0) for _ in range(4)])
        assert inside["rate"]["verdict"] == "-"
        assert inside["rss"]["verdict"] == "-"

    def test_unresolved_when_the_base_spread_exceeds_the_bound(self):
        base = [run(rate=v) for v in (40, 100, 160, 100, 160, 40)]
        head = [run(rate=50) for _ in range(6)]
        row = rows_by_metric(base, head)["rate"]
        assert row["base_iqr"] > 0.25
        assert row["verdict"] == "unresolved"

    def test_failed_runs_and_trials_are_left_out(self):
        base = [run(rate=100), None, run(rate=100, failed=1), run(rate=100, correct=False)]
        head = [run(rate=110), run(rate=110), run(rate=110), run(rate=110)]
        row = rows_by_metric(base, head)["rate"]
        assert (row["base_n"], row["head_n"], row["pairs"]) == (1, 4, 1)
        assert rows_by_metric([None], head[:1])["rate"]["verdict"] == "no data"

    def test_format_has_one_line_per_metric(self):
        base = [run(rate=100, rss=50.0)] * 3
        lines = bench_pairs.format_rows(bench_pairs.summarize(base, [None] * 3, SPECS))
        assert len(lines) == 1 + len(SPECS)
        assert all("no data" in line for line in lines[1:])
