"""Paired benchmark runs of two revisions, summarized against BENCHMARK.json.

Each revision is exported with ``git archive``, so uncommitted files and
build leftovers play no part, into two temporary directories whose paths
differ in length.  For every workload the script then runs
``bench/run.py --trace 0`` on both revisions, N pairs, the order flipping
every pair (base first, then head first).  Both runs of a pair use the
trees of one path length, short and long alternating from pair to pair:
tcp-wide's ``setup_s`` has moved by several milliseconds with where a
tree sits, and the alternation spreads that effect over both sides
evenly.  The script prints for each end-to-end metric of
``BENCHMARK.json``: each side's median and quartiles, the change of the
median, how many pairs the head revision won, a verdict, and next to it
the median and quartiles of the per-pair ratio head/base.  The ratios
inform but do not decide: a host that drifts during a set widens each
side's spread, while both runs of one pair share its state.  The
verdicts are:

  unresolved  the base runs' interquartile range, relative to their
              median, exceeds the metric's bound: the runs cannot tell a
              change of that size from noise
  worse       the head median is worse than the base median by more than
              the bound
  gain        the head won at least 9 in 10 pairs and its median moved
              by more than the base runs' interquartile range

Run from the repository root, for example::

    python3 tools/bench_pairs.py e668e6b HEAD --workload tcp-wide --pairs 10 --seconds 35

Before the runs it prints each revision's code lines under ``src/``,
counted by this checkout's ``tools/src_loc.py``.  ``--out`` writes every
run's JSON object and the tree it ran from, the summary rows, both commit
hashes, both code-line counts and the host's environment
(:func:`environment`) to one file; the committed ``BENCH_*.json`` files
are such sets.  ``BENCHMARK.json`` is only read.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# share of pairs the head must win before a gain is reported
WIN_SHARE = 0.9
# the directory that lengthens the path of each revision's second tree
LONGER = "a-longer-path-for-the-second-tree-of-each-revision"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) with inclusive quartiles; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(base_runs: list, head_runs: list, end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric.

    ``base_runs[i]`` and ``head_runs[i]`` form pair i; a run is the final
    JSON object of ``bench/run.py`` or None when the run itself failed.
    Only runs that were correct with no failed trial count, and a pair
    counts toward the wins only when both of its runs do.
    """

    def usable(run) -> bool:
        return run is not None and run.get("correct") is True and run.get("failed") == 0

    rows = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"

        def value(run):
            if usable(run) and name in run["metrics"]:
                return run["metrics"][name]["value"]
            return None

        base = [v for v in map(value, base_runs) if v is not None]
        head = [v for v in map(value, head_runs) if v is not None]
        row = {"metric": name, "unit": spec.get("unit", ""), "bound": spec["bound"],
               "base_n": len(base), "head_n": len(head), "verdict": "no data"}
        rows.append(row)
        if not base or not head:
            continue
        b1, bmed, b3 = quartiles(base)
        h1, hmed, h3 = quartiles(head)
        pairs = [(value(b), value(h)) for b, h in zip(base_runs, head_runs)]
        pairs = [(b, h) for b, h in pairs if b is not None and h is not None]
        wins = sum((h > b) if higher else (h < b) for b, h in pairs)
        ratios = [h / b for b, h in pairs if b]
        change = (hmed - bmed) / bmed if bmed else 0.0
        iqr = (b3 - b1) / bmed if bmed else 0.0
        gain = change if higher else -change
        if iqr > spec["bound"]:
            verdict = "unresolved"
        elif gain < -spec["bound"]:
            verdict = "worse"
        elif pairs and wins >= WIN_SHARE * len(pairs) and abs(hmed - bmed) > b3 - b1:
            verdict = "gain"
        else:
            verdict = "-"
        row.update(base=(b1, bmed, b3), head=(h1, hmed, h3), change=change, base_iqr=iqr,
                   wins=wins, pairs=len(pairs), verdict=verdict,
                   pair_ratio=quartiles(ratios) if ratios else None)
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    lines = [f"  {'metric':26} {'base median [q1, q3]':>32} {'head median [q1, q3]':>32}"
             f" {'change':>8} {'base IQR':>8} {'won':>6}  {'verdict':10}"
             f" pair ratio median [q1, q3]"]
    for r in rows:
        if "base" not in r:
            lines.append(f"  {r['metric']:26} base runs {r['base_n']}, head runs {r['head_n']}:"
                         f" {r['verdict']}")
            continue
        cells = [f"{m:.5g} [{q1:.5g}, {q3:.5g}]" for q1, m, q3 in (r["base"], r["head"])]
        ratio = "-" if r["pair_ratio"] is None else "{1:.4f} [{0:.4f}, {2:.4f}]".format(
            *r["pair_ratio"])
        lines.append(
            f"  {r['metric']:26} {cells[0]:>32} {cells[1]:>32} {r['change']:+8.1%}"
            f" {r['base_iqr']:8.1%} {r['wins']:>3}/{r['pairs']:<2}  {r['verdict']:10} {ratio}"
        )
    return lines


def environment() -> dict:
    """The host a set of runs starts on: its cores, the CPUs this process
    may run on, the 1, 5 and 15 minute load averages, and the Python and
    NumPy versions.  ``main`` adds the load averages at the end."""
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "load_average_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy,
    }


def export(revision: str, into: Path) -> str:
    """Extract ``revision`` into ``into``; returns its commit hash."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{revision}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def src_code_lines(tree: Path) -> int:
    """Code lines under ``tree``'s ``src/``, as this checkout's
    ``tools/src_loc.py`` counts them."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "src_loc.py"), str(tree / "src")],
        capture_output=True, text=True, check=True,
    )
    return int(proc.stdout.splitlines()[-1].split()[0])


def run_bench(tree: Path, workload: str, seconds: float, seed: int):
    """Final JSON object of one ``bench/run.py`` run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode != 0:
            raise ValueError(f"exit code {proc.returncode}")
        return json.loads(lines[-1])
    except (ValueError, IndexError) as exc:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        print(f"    run failed ({exc}): {tail[0]}", file=sys.stderr)
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="parent revision")
    parser.add_argument("head", help="revision measured against it")
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable); default: all in BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workdir", help="where the temporary trees go; default: system temp")
    parser.add_argument("--out", help="also write every run's JSON object and the summary here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    report = {"environment": environment(), "workloads": {}}
    print(f"environment: {json.dumps(report['environment'])}")
    with tempfile.TemporaryDirectory(prefix="bench-pairs-", dir=args.workdir) as tmp:
        # trees[side][i % 2] runs pair i: both sides' paths have one length
        trees = {side: [Path(tmp, side), Path(tmp, LONGER, side)] for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", args.head)):
            for tree in trees[side]:
                report[side] = export(rev, tree)
            print(f"{side}: {rev} = {report[side]}")
        lines = report["src_code_lines"] = {s: src_code_lines(trees[s][0]) for s in trees}
        print(f"src code lines: base {lines['base']}, head {lines['head']}"
              f" ({lines['head'] - lines['base']:+d})")
        for workload in workloads:
            runs = {"base": [], "head": []}
            ran_in = {"base": [], "head": []}
            for i in range(args.pairs):
                for side in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    tree = trees[side][i % 2]
                    run = run_bench(tree, workload, args.seconds, args.seed)
                    runs[side].append(run)
                    ran_in[side].append(str(tree))
                    shown = "failed" if run is None else " ".join(
                        f"{m['name']}={run['metrics'][m['name']]['value']:.4g}"
                        for m in bench["end_to_end"] if m["name"] in run["metrics"]
                    )
                    print(f"  {workload} pair {i + 1}/{args.pairs} {side}"
                          f" ({len(str(tree))}-char path): {shown}", flush=True)
            rows = summarize(runs["base"], runs["head"], bench["end_to_end"])
            failed = {s: sum(r is None or r["failed"] > 0 for r in runs[s]) for s in runs}
            print(f"{workload}: {args.pairs} pairs, --seconds {args.seconds:g}, seed {args.seed};"
                  f" runs with failures: base {failed['base']}, head {failed['head']}")
            print("\n".join(format_rows(rows)))
            report["workloads"][workload] = {"runs": runs, "trees": ran_in, "summary": rows}
    report["environment"]["load_average_end"] = list(os.getloadavg())
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
