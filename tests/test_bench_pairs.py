"""The paired-run summary and tree layout of ``tools/bench_pairs.py``, on synthetic runs."""

import importlib.util
import json
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
        # per-pair head/base: 1.2, 97/102, 121/98, 119/101, 122/99
        assert rate["pair_ratio"] == pytest.approx((119 / 101, 1.2, 122 / 99))
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

    def test_pair_ratios_follow_the_pairs_not_the_sides(self):
        """A host that drifts during the set spreads each side's runs, and
        the ratio within each pair stays tight."""
        base = [run(rate=v) for v in (60, 80, 100, 120, 140)]
        head = [run(rate=1.15 * v) for v in (60, 80, 100, 120, 140)]
        row = rows_by_metric(base, head)["rate"]
        assert row["base_iqr"] == pytest.approx(0.4)
        assert row["pair_ratio"] == pytest.approx((1.15, 1.15, 1.15))
        assert row["verdict"] == "unresolved"  # the ratios leave the rule alone

    def test_failed_runs_and_trials_are_left_out(self):
        base = [run(rate=100), None, run(rate=100, failed=1), run(rate=100, correct=False)]
        head = [run(rate=110), run(rate=110), run(rate=110), run(rate=110)]
        row = rows_by_metric(base, head)["rate"]
        assert (row["base_n"], row["head_n"], row["pairs"]) == (1, 4, 1)
        assert row["pair_ratio"] == pytest.approx((1.1, 1.1, 1.1))
        unpaired = rows_by_metric([run(rate=100), None], [None, run(rate=110)])["rate"]
        assert unpaired["pairs"] == 0 and unpaired["pair_ratio"] is None
        assert rows_by_metric([None], head[:1])["rate"]["verdict"] == "no data"

    def test_format_has_one_line_per_metric(self):
        base = [run(rate=100, rss=50.0)] * 3
        lines = bench_pairs.format_rows(bench_pairs.summarize(base, [None] * 3, SPECS))
        assert len(lines) == 1 + len(SPECS)
        assert all("no data" in line for line in lines[1:])

    def test_format_puts_the_pair_ratio_after_the_verdict(self):
        base = [run(rate=v, rss=50.0) for v in (100, 100, 100, 100)]
        head = [run(rate=v, rss=49.0) for v in (110, 120, 130, 140)]
        header, rate, rss = bench_pairs.format_rows(bench_pairs.summarize(base, head, SPECS))
        assert header.endswith("verdict    pair ratio median [q1, q3]")
        assert rate.endswith("4/4   gain       1.2500 [1.1750, 1.3250]")
        assert rss.endswith("4/4   gain       0.9800 [0.9800, 0.9800]")
        no_pairs = bench_pairs.summarize([run(rate=100), None], [None, run(rate=110)], SPECS[:1])
        assert bench_pairs.format_rows(no_pairs)[1].endswith("0/0   -          -")


def test_environment_names_the_host():
    env = bench_pairs.environment()
    assert set(env) == {"nproc", "affinity", "load_average_start", "python", "numpy"}
    assert env["nproc"] >= 1 and env["affinity"] and len(env["load_average_start"]) == 3
    assert env["python"].count(".") == 2 and env["numpy"]


def test_pairs_alternate_between_two_path_lengths(monkeypatch, tmp_path):
    """Both runs of a pair come from trees of one path length, and that
    length alternates from pair to pair; ``--out`` records each run's tree."""
    exported = []

    def export(revision, into):
        into.mkdir(parents=True)
        exported.append(into)
        return f"commit-{revision}"

    calls = []

    def run_bench(tree, workload, seconds, seed):
        calls.append(tree)
        return run(rate=100.0)

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "set.json"
    bench_pairs.main(["base-rev", "head-rev", "--workload", "tcp-wide", "--pairs", "4",
                      "--seconds", "1", "--workdir", str(tmp_path), "--out", str(out)])

    assert len(exported) == 4 and len({len(str(tree)) for tree in exported}) == 2
    pairs = [calls[i:i + 2] for i in range(0, len(calls), 2)]
    assert [[tree.name for tree in pair] for pair in pairs] == [
        ["base", "head"], ["head", "base"], ["base", "head"], ["head", "base"],
    ]
    lengths = [len(str(pair[0])) for pair in pairs]
    assert all(len(str(pair[1])) == length for pair, length in zip(pairs, lengths))
    assert lengths[0] == lengths[2] != lengths[1] == lengths[3]
    trees = json.loads(out.read_text())["workloads"]["tcp-wide"]["trees"]
    assert trees == {side: [str(tree) for tree in calls if tree.name == side]
                     for side in ("base", "head")}


def test_records_each_revisions_src_code_lines(monkeypatch, tmp_path, capsys):
    """Each revision's ``src/`` is counted once, by ``tools/src_loc.py``:
    the line shows both counts and their difference, and ``--out`` keeps
    both."""
    sources = {
        "base-rev": "import os\n\n\ndef f():\n    return os.sep\n",
        "head-rev": '"""Docstring."""\n\nimport os  # a comment\n',
    }

    def export(revision, into):
        (into / "src" / "pkg").mkdir(parents=True)
        (into / "src" / "pkg" / "mod.py").write_text(sources[revision])
        return f"commit-{revision}"

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args: run(rate=100.0))
    out = tmp_path / "set.json"
    bench_pairs.main(["base-rev", "head-rev", "--workload", "tcp-wide", "--pairs", "1",
                      "--seconds", "1", "--workdir", str(tmp_path), "--out", str(out)])

    assert "src code lines: base 3, head 1 (-2)\n" in capsys.readouterr().out
    assert json.loads(out.read_text())["src_code_lines"] == {"base": 3, "head": 1}
