"""pipesgd benchmark: both schedules' throughput on one workload.

Run from the repository root:

    python3 bench/run.py --workload tcp-latency --seed 42 --seconds 25 --trace 0

The workload's dataset and training config come from ``--seed``.  For
``--seconds`` the run alternates launcher calls (trials) of the
pipelined and the barrier schedule, the order flipping every round.
Every trial is checked against ``sequential_sgd``: each rank's final
model byte for byte, rank 0's loss trace, and the in-loop barrier count
(0 pipelined, 2 per iteration barrier).  A trial that raises or fails a
check counts as failed and is left out of the timings.

``--trace 0`` reports the end-to-end metrics, medians over trials:
``pipelined.samples_per_s`` and ``barrier.samples_per_s`` (global batch x
iterations / slowest rank's loop wall), ``setup_s`` (pipelined launcher
call wall minus that loop wall) and ``peak_rss_mb``.  Loop and set-up
times are scaled by 1 - the host's CPU steal share during the trial
(from /proc/stat), which on a shared virtual machine swings between 0
and a third for minutes at a time; the unscaled wall-clock medians and
the steal share are printed beside them.  ``--trace 1`` runs a
recorded trial (``record=True``, transport calls counted) after each
plain one, plus a timed ``sequential_sgd`` run per round, and reports the
per-layer metrics derived from the recorded timelines.  The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it record the environment,
the config, the dataset hash, ``error_rate`` and, when tracing, a
per-layer-index table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PATTERNS = ("pipelined", "barrier")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Trial:
    """Outcome of one launcher call."""

    error: str | None = None
    loop_ns: int = 0
    setup_ns: int = 0
    steal: float = 0.0
    barrier_calls: int = 0
    events: list = field(default_factory=list)

    def granted_s(self, ns: int) -> float:
        """Seconds of ``ns`` during which the host ran this machine's CPUs.

        On a shared virtual machine the hypervisor hands CPU time to other
        guests (steal); scaling by 1 - steal share keeps that out of the
        numbers, since no change to the program causes it.
        """
        return ns * 1e-9 * (1.0 - self.steal)


@dataclass
class Reference:
    model: list
    losses: list[float]
    iter_ms: list[float]


def environment() -> dict:
    """Machine and library facts that explain the numbers; nothing is set."""
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass  # NumPy before 1.25 has no dict form of its build config
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_1_5_15": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        **{var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
    }


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs; (0, 0) without /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def reference_run(config, dataset) -> Reference:
    from pipesgd.engine import sequential_sgd

    losses: list[float] = []
    stamps = [time.monotonic_ns()]

    def on_iteration(_k, _model, loss):
        losses.append(loss)
        stamps.append(time.monotonic_ns())

    model = sequential_sgd(config, dataset, on_iteration)
    iter_ms = [(b - a) / 1e6 for a, b in zip(stamps, stamps[1:])]
    return Reference(model.layers, losses, iter_ms)


def check(config, results, reference: Reference) -> str | None:
    """Why a trial's results differ from the reference run, or None."""
    expected_barriers = 0 if config.pattern == "pipelined" else 2 * config.iterations
    if len(results) != config.world_size:
        return f"{len(results)} rank results for {config.world_size} ranks"
    for r in results:
        if len(r.model) != len(reference.model):
            return f"rank {r.rank} holds {len(r.model)} layers"
        for layer, (got, want) in enumerate(zip(r.model, reference.model)):
            if got.tobytes() != want.tobytes():
                return f"rank {r.rank} layer {layer} differs from sequential_sgd"
        if r.barrier_calls != expected_barriers:
            return f"rank {r.rank} made {r.barrier_calls} in-loop barrier calls"
    if results[0].losses != reference.losses:
        return "rank 0 loss trace differs from sequential_sgd"
    return None


def run_trial(workload, config, dataset, reference, counters=None) -> Trial:
    record = counters is not None
    ticks0 = cpu_ticks()
    t0 = time.monotonic_ns()
    try:
        with counters.installed() if record else nullcontext():
            results = workload.launch(config, dataset, record)
    except Exception as exc:  # noqa: BLE001 - a failed trial is counted, not fatal
        return Trial(error=f"{type(exc).__name__}: {exc}")
    call_ns = time.monotonic_ns() - t0
    ticks1 = cpu_ticks()
    total = ticks1[1] - ticks0[1]
    problem = check(config, results, reference)
    if problem is not None:
        return Trial(error=problem)
    loop_ns = max(r.wall_ns for r in results)
    return Trial(
        loop_ns=loop_ns,
        setup_ns=call_ns - loop_ns,
        steal=(ticks1[0] - ticks0[0]) / total if total > 0 else 0.0,
        barrier_calls=max(r.barrier_calls for r in results),
        events=[e for r in results for e in r.events] if record else [],
    )


def peak_rss_mb(transport: str) -> float:
    """Peak RSS of the largest rank process, in MiB (ru_maxrss is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if transport == "tcp":
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def end_to_end(configs, plain: dict, rss_mb: float) -> dict:
    metrics = {}
    for pattern in PATTERNS:
        samples = configs[pattern].batch_size * configs[pattern].iterations
        good = [t for t in plain[pattern] if t.error is None]
        rates = [samples / t.granted_s(t.loop_ns) for t in good]
        metrics[f"{pattern}.samples_per_s"] = (
            statistics.median(rates) if rates else 0.0,
            "samples/s",
        )
        if good:
            raw = statistics.median(samples / (t.loop_ns * 1e-9) for t in good)
            steal = statistics.median(t.steal for t in good)
            print(f"{pattern}: wall-clock {raw:.6g} samples/s, host steal share {steal:.3f}")
    setups = [t.granted_s(t.setup_ns) for t in plain["pipelined"] if t.error is None]
    metrics["setup_s"] = (statistics.median(setups) if setups else 0.0, "s")
    metrics["peak_rss_mb"] = (rss_mb, "MiB")
    return metrics


def per_layer(workload, configs, plain, traced, counters, reference_ms) -> dict:
    from layers import TIMINGS, summarize, trial_samples
    from pipesgd.timeline import compute_overlap

    metrics = {}

    def add_timing(name: str, samples: list[float]) -> None:
        s = summarize(samples)
        metrics[f"{name}.p50"] = (s["p50"], "ms")
        metrics[f"{name}.tail"] = (s["tail"], "ms")
        metrics[f"{name}.tail_pct"] = (s["tail_pct"], "percentile")
        metrics[f"{name}.n"] = (s["n"], "count")

    add_timing("sgd.reference_ms_per_iter", reference_ms)
    for pattern in PATTERNS:
        cfg = configs[pattern]
        good = [t for t in traced[pattern] if t.error is None]
        iters = max(1, len(good) * cfg.iterations)
        pooled: dict[str, list[float]] = {name: [] for name in TIMINGS}
        table: dict[tuple[str, int], list[float]] = {}
        for t in good:
            samples, by_layer = trial_samples(t.events, pattern)
            for name, xs in samples.items():
                pooled[name].extend(xs)
            for key, xs in by_layer.items():
                table.setdefault(key, []).extend(xs)
        for name in TIMINGS:
            add_timing(f"{pattern}.{name}", pooled[name])

        def per_iter(kind: str) -> float:
            return sum(1 for t in good for e in t.events if e.kind == kind) / iters

        c = counters[pattern]
        p = f"{pattern}."
        metrics[p + "engine.fold_calls"] = (per_iter("reduce_local"), "count")
        metrics[p + "engine.update_calls"] = (per_iter("master_update"), "count")
        metrics[p + "engine.barrier_calls_per_iter"] = (
            max((t.barrier_calls for t in good), default=0) / cfg.iterations,
            "count",
        )
        metrics[p + "transport.rank0.messages_per_iter"] = (c.messages[0] / iters, "count")
        metrics[p + "transport.rank0.bytes_per_iter"] = (c.bytes[0] / iters, "B")
        metrics[p + "transport.rank0.poll_calls_per_iter"] = (c.polls[0] / iters, "count")
        metrics[p + "transport.rank0.poll_hit_ratio"] = (
            c.poll_hits[0] / c.polls[0] if c.polls[0] else 0.0,
            "ratio",
        )
        overlaps = [compute_overlap(t.events).overlap_ratio for t in good]
        metrics[p + "timeline.overlap_ratio"] = (
            statistics.median(overlaps) if overlaps else 0.0,
            "ratio",
        )
        plain_s = [t.granted_s(t.loop_ns) for t in plain[pattern] if t.error is None]
        traced_s = [t.granted_s(t.loop_ns) for t in good]
        metrics[p + "timeline.trace_overhead"] = (
            statistics.median(traced_s) / statistics.median(plain_s) - 1.0
            if plain_s and traced_s
            else 0.0,
            "ratio",
        )
        print_layer_table(pattern, table)
        if workload.transport == "inproc":
            print(
                f"{pattern} transport all ranks per iteration: "
                f"messages={sum(c.messages) / iters:.1f} bytes={sum(c.bytes) / iters:.0f} "
                f"polls={sum(c.polls) / iters:.1f} "
                f"hit_ratio={sum(c.poll_hits) / max(1, sum(c.polls)):.3f}"
            )
    return metrics


def print_layer_table(pattern: str, table: dict) -> None:
    """Median (and max for the critical path) per layer index, in ms."""
    columns = ("backward", "fold", "update", "flight", "critical")
    layers = sorted({layer for _, layer in table})
    print(f"{pattern} per-layer medians, ms (layer -1 = whole-model span)")
    print("  layer " + " ".join(f"{c:>9}" for c in columns) + "  crit_max")
    for layer in layers:
        cells = []
        for column in columns:
            xs = table.get((column, layer))
            cells.append(f"{statistics.median(xs):9.3f}" if xs else f"{'-':>9}")
        crit = table.get(("critical", layer))
        tail = f"{max(crit):9.3f}" if crit else f"{'-':>9}"
        print(f"  {layer:5d} " + " ".join(cells) + " " + tail)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pipesgd" / "__init__.py").is_file():
        print(f"error: pipesgd sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import TransportCounters
    from pipesgd.harness import dataset_sha256
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    print("env " + json.dumps(environment(), sort_keys=True))
    base = workload.config(args.seed)
    dataset = workload.dataset(base)
    configs = {p: base.replace(pattern=p) for p in PATTERNS}
    print(f"workload {workload.name}: transport={workload.transport} latency={workload.latency}")
    print("config " + json.dumps(asdict(base), sort_keys=True))
    print(f"dataset_sha256 {dataset_sha256(dataset)}")
    reference = reference_run(base, dataset)

    plain: dict[str, list[Trial]] = {p: [] for p in PATTERNS}
    traced: dict[str, list[Trial]] = {p: [] for p in PATTERNS}
    counters = {p: TransportCounters(base.world_size) for p in PATTERNS}
    # One verified warm-up call per schedule lets lazy set-up (BLAS
    # threads, allocator arenas, first fork) finish before timing.  Peak
    # RSS is read right after it, so it reflects one launcher call and not
    # how many calls fit in the run.
    warmup = [run_trial(workload, configs[p], dataset, reference) for p in PATTERNS]
    rss_mb = peak_rss_mb(workload.transport)
    reference_ms = list(reference.iter_ms)
    deadline = time.monotonic() + args.seconds
    rounds = 0
    while rounds == 0 or time.monotonic() < deadline:
        for pattern in PATTERNS if rounds % 2 == 0 else PATTERNS[::-1]:
            cfg = configs[pattern]
            plain[pattern].append(run_trial(workload, cfg, dataset, reference))
            if args.trace:
                traced[pattern].append(
                    run_trial(workload, cfg, dataset, reference, counters[pattern])
                )
        if args.trace:
            reference_ms.extend(reference_run(base, dataset).iter_ms)
        rounds += 1

    trials = warmup + [t for p in PATTERNS for t in plain[p] + traced[p]]
    failures = [t.error for t in trials if t.error is not None]
    for error in failures:
        print(f"failed trial: {error}", file=sys.stderr)
    print(
        "trials "
        + " ".join(f"{p}={len(plain[p])}+{len(traced[p])}traced" for p in PATTERNS)
    )
    print(f"error_rate {len(failures) / len(trials):.4f} ratio ({len(failures)}/{len(trials)})")

    if args.trace:
        metrics = per_layer(workload, configs, plain, traced, counters, reference_ms)
    else:
        metrics = end_to_end(configs, plain, rss_mb)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(trials),
                "failed": len(failures),
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
