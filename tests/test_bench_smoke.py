"""The benchmark script runs end to end against the current sources.

``bench/`` counts transport traffic by wrapping ``write_notify`` and
``notify_poll`` on the transport classes; this guards that contract and
the script's final JSON line against refactors of the program.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["correct"] is True, proc.stderr
    assert report["failed"] == 0
    return report


def test_traced_tcp_wide_run_is_correct_and_counts_traffic():
    report = run_bench("--workload", "tcp-wide", "--seconds", "0", "--trace", "1")
    for pattern in ("pipelined", "barrier"):
        assert report["metrics"][f"{pattern}.transport.rank0.bytes_per_iter"]["value"] > 0


def test_untraced_inproc_run_reports_every_end_to_end_metric():
    report = run_bench("--workload", "inproc-small", "--seconds", "0", "--trace", "0")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"] for m in declared} <= set(report["metrics"])
