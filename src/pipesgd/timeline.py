"""Per-rank timeline events, CSV serialization, and overlap metrics.

Communication time on a rank is the union of its send flights and receive
waits; compute time is forward/backward work plus local reductions and
model updates.  The overlap ratio measures how much of the communication
the engine managed to hide under compute.

The engine's kinds: ``send_trigger`` is a reduce-scatter write's flight,
``model_forward`` an all-gather write's, ``recv_notify`` one arrival,
``reduce_local`` one fold, and ``master_update`` a rank's update of its
shard of one layer.
"""

from __future__ import annotations

import bisect
import csv
from dataclasses import dataclass, field

from .errors import FormatError

EVENT_KINDS = frozenset(
    {
        "forward",
        "backward_layer",
        "reduce_local",
        "send_trigger",
        "recv_notify",
        "master_update",
        "model_forward",
        "finalize",
        "barrier",
    }
)

COMM_KINDS = frozenset({"send_trigger", "recv_notify", "model_forward"})
COMPUTE_KINDS = frozenset({"forward", "backward_layer", "reduce_local", "master_update"})

CSV_HEADER = ["rank", "iteration", "layer", "kind", "t_start_ns", "t_end_ns"]


@dataclass(frozen=True)
class TimelineEvent:
    """One timed span on one rank; layer is -1 for whole-iteration events."""

    rank: int
    iteration: int
    layer: int
    kind: str
    t_start_ns: int
    t_end_ns: int


def write_timeline_csv(events: list[TimelineEvent], path: str) -> None:
    rows = sorted(events, key=lambda e: (e.rank, e.t_start_ns, e.t_end_ns))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for e in rows:
            writer.writerow([e.rank, e.iteration, e.layer, e.kind, e.t_start_ns, e.t_end_ns])


def read_timeline_csv(path: str) -> list[TimelineEvent]:
    events = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise FormatError(f"{path}: expected header {CSV_HEADER}, found {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise FormatError(f"{path}:{lineno}: expected 6 columns, found {len(row)}")
            try:
                e = TimelineEvent(
                    int(row[0]), int(row[1]), int(row[2]), row[3], int(row[4]), int(row[5])
                )
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            if e.kind not in EVENT_KINDS:
                raise FormatError(f"{path}:{lineno}: unknown event kind {e.kind!r}")
            if e.t_end_ns < e.t_start_ns:
                raise FormatError(f"{path}:{lineno}: event ends before it starts")
            events.append(e)
    return events


@dataclass
class RunMetrics:
    """Summary statistics of one training run."""

    wall_clock_ns: dict[int, int] = field(default_factory=dict)
    per_rank_overlap: dict[int, float] = field(default_factory=dict)
    overlap_ratio: float = 0.0
    iterations_per_second: float = 0.0

    def lines(self) -> list[str]:
        out = [f"overlap_ratio={self.overlap_ratio:.4f}"]
        out.append(f"iterations_per_second={self.iterations_per_second:.3f}")
        for rank in sorted(self.wall_clock_ns):
            out.append(f"wall_clock_ns.rank{rank}={self.wall_clock_ns[rank]}")
        return out


def _merge_intervals(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    merged: list[tuple[int, int]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            prev_a, prev_b = merged[-1]
            merged[-1] = (prev_a, max(prev_b, b))
        else:
            merged.append((a, b))
    return merged


def _overlap_with(merged: list[tuple[int, int]], a: int, b: int) -> int:
    """Length of [a, b) covered by a merged, disjoint interval list."""
    starts = [m[0] for m in merged]
    i = max(0, bisect.bisect_right(starts, a) - 1)
    total = 0
    while i < len(merged) and merged[i][0] < b:
        lo = max(a, merged[i][0])
        hi = min(b, merged[i][1])
        if hi > lo:
            total += hi - lo
        i += 1
    return total


def compute_overlap(events: list[TimelineEvent]) -> RunMetrics:
    """Per-rank communication/compute overlap and wall-clock statistics.

    A rank's overlap ratio is sum(|comm span ∩ compute spans|) over
    sum(|comm span|).  The run-level ratio averages ranks that performed
    any communication.  Wall clock per rank spans its first event start to
    its last event end.
    """
    by_rank: dict[int, list[TimelineEvent]] = {}
    for e in events:
        if e.t_end_ns < e.t_start_ns:
            raise FormatError(f"event {e} ends before it starts")
        by_rank.setdefault(e.rank, []).append(e)

    metrics = RunMetrics()
    ratios = []
    for rank, evs in sorted(by_rank.items()):
        compute = _merge_intervals(
            [(e.t_start_ns, e.t_end_ns) for e in evs if e.kind in COMPUTE_KINDS]
        )
        comm_total = 0
        comm_hidden = 0
        for e in evs:
            if e.kind in COMM_KINDS:
                comm_total += e.t_end_ns - e.t_start_ns
                comm_hidden += _overlap_with(compute, e.t_start_ns, e.t_end_ns)
        metrics.wall_clock_ns[rank] = max(e.t_end_ns for e in evs) - min(e.t_start_ns for e in evs)
        if comm_total > 0:
            r = comm_hidden / comm_total
            metrics.per_rank_overlap[rank] = r
            ratios.append(r)
    if ratios:
        metrics.overlap_ratio = sum(ratios) / len(ratios)
    if events:
        span_ns = max(e.t_end_ns for e in events) - min(e.t_start_ns for e in events)
        iterations = max(e.iteration for e in events) + 1
        if span_ns > 0:
            metrics.iterations_per_second = iterations / (span_ns * 1e-9)
    return metrics
