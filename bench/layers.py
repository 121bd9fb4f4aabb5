"""Per-layer numbers, measured from outside the program.

``TransportCounters`` wraps the transports' public ``write_notify`` and
``notify_poll`` for the length of one traced launcher call.  The
timeline events of traced calls become span samples (``trial_samples``)
that ``summarize`` reduces to a median, a tail percentile and a count.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import defaultdict
from contextlib import contextmanager

from pipesgd.timeline import COMM_KINDS, TimelineEvent, compute_overlap
from pipesgd.transport import InprocTransport, TcpTransport, TransportBase

NS_PER_MS = 1e6
# Tail percentiles to choose from, highest first: the reported tail is
# the highest one that still has at least ten samples beyond it, or the
# median when even p75 has fewer.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# Per-layer timing metrics, without the schedule prefix.
TIMINGS = (
    "net.forward_ms",
    "net.backward_ms",
    "engine.fold_ms",
    "engine.update_ms",
    "engine.tail_ms",
    "engine.critical_path_ms",
    "transport.flight_ms",
    "transport.unhidden_comm_ms",
)


class TransportCounters:
    """Messages, payload bytes, polls and polls with a hit, per rank.

    Counts land in the process that makes the call: every rank of an
    inproc world, but only rank 0 of a tcp world (the other ranks are
    forked processes).  Each rank's transport is driven by one thread, so
    the per-rank slots have a single writer.
    """

    def __init__(self, world_size: int):
        self.messages = [0] * world_size
        self.bytes = [0] * world_size
        self.polls = [0] * world_size
        self.poll_hits = [0] * world_size

    def _count_write(self, original):
        @functools.wraps(original)
        def write_notify(transport, req):
            self.messages[transport.rank] += 1
            self.bytes[transport.rank] += req.size
            return original(transport, req)

        return write_notify

    def _count_poll(self, original):
        @functools.wraps(original)
        def notify_poll(transport, segment_id, first_id, count):
            hits = original(transport, segment_id, first_id, count)
            self.polls[transport.rank] += 1
            if hits:
                self.poll_hits[transport.rank] += 1
            return hits

        return notify_poll

    @contextmanager
    def installed(self):
        """Count every transport call made while the block runs."""
        targets = [
            (InprocTransport, "write_notify", self._count_write),
            (TcpTransport, "write_notify", self._count_write),
            (TransportBase, "notify_poll", self._count_poll),
            (TcpTransport, "notify_poll", self._count_poll),
        ]
        originals = [(cls, name, cls.__dict__[name]) for cls, name, _ in targets]
        for cls, name, wrap in targets:
            setattr(cls, name, wrap(cls.__dict__[name]))
        try:
            yield self
        finally:
            for cls, name, original in originals:
                setattr(cls, name, original)


def _ms(e: TimelineEvent) -> float:
    return (e.t_end_ns - e.t_start_ns) / NS_PER_MS


def trial_samples(events: list[TimelineEvent], pattern: str) -> tuple[dict, dict]:
    """Span samples of one traced launcher call.

    Returns ``(samples, by_layer)``: ``samples`` maps each name in
    ``TIMINGS`` to its sample list; ``by_layer`` maps (column, layer
    index) to samples for the per-layer-index table, with layer -1 for
    whole-model spans (the barrier schedule's fold and flights).
    """
    samples: dict[str, list[float]] = defaultdict(list)
    by_layer: dict[tuple[str, int], list[float]] = defaultdict(list)
    tail_kind = "finalize" if pattern == "pipelined" else "barrier"

    per_rank_iter: dict[tuple[int, int], list[TimelineEvent]] = defaultdict(list)
    grad_ready: dict[tuple[int, int], int] = {}
    installed: dict[tuple[int, int], int] = {}
    last_recv: dict[tuple[int, int, int], int] = {}
    ranks = set()
    for e in events:
        ranks.add(e.rank)
        per_rank_iter[(e.rank, e.iteration)].append(e)
        key = (e.iteration, e.layer)
        if e.kind == "backward_layer":
            grad_ready[key] = max(grad_ready.get(key, 0), e.t_end_ns)
            by_layer[("backward", e.layer)].append(_ms(e))
        elif e.kind in ("send_trigger", "model_forward"):
            samples["transport.flight_ms"].append(_ms(e))
            by_layer[("flight", e.layer)].append(_ms(e))
        elif e.kind == "master_update" and e.rank == 0:
            installed[key] = max(installed.get(key, 0), e.t_end_ns)
            by_layer[("update", e.layer)].append(_ms(e))
        elif e.kind == "reduce_local" and e.rank == 0:
            by_layer[("fold", e.layer)].append(_ms(e))
        elif e.kind == "recv_notify" and e.rank != 0:
            rkey = (e.rank, e.iteration, e.layer)
            last_recv[rkey] = max(last_recv.get(rkey, 0), e.t_end_ns)

    for (rank, k), evs in per_rank_iter.items():
        def total(*kinds: str) -> float:
            return sum(_ms(e) for e in evs if e.kind in kinds)

        samples["net.forward_ms"].append(total("forward"))
        samples["net.backward_ms"].append(total("backward_layer"))
        samples["engine.tail_ms"].append(total(tail_kind))
        comm_ms = total(*COMM_KINDS)
        hidden = compute_overlap(evs).per_rank_overlap.get(rank, 0.0)
        samples["transport.unhidden_comm_ms"].append(comm_ms * (1.0 - hidden))
        if rank == 0:
            samples["engine.fold_ms"].append(total("reduce_local"))
            samples["engine.update_ms"].append(total("master_update"))

    # Layer l is installed everywhere when rank 0 finished its update and
    # every other rank saw its model arrive.  On a non-master rank the
    # last recv_notify of (iteration, layer) is the model install; earlier
    # ones are child-gradient arrivals.  The barrier schedule records its
    # receive waits for the whole model under layer -1.
    for (k, layer), ready in grad_ready.items():
        done = installed.get((k, layer), 0)
        for rank in ranks - {0}:
            done = max(done, last_recv.get((rank, k, layer), last_recv.get((rank, k, -1), 0)))
        critical = (done - ready) / NS_PER_MS
        samples["engine.critical_path_ms"].append(critical)
        by_layer[("critical", layer)].append(critical)
    return samples, by_layer


def summarize(samples: list[float]) -> dict[str, float]:
    """Median, the highest ladder percentile with >= 10 samples beyond it, count."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 50.0, "n": 0}
    median = statistics.median(xs)
    pct, tail = 50.0, median
    for p in _TAIL_LADDER:
        i = math.ceil(p / 100.0 * n) - 1  # nearest-rank percentile
        if n - 1 - i >= 10:
            pct, tail = p, xs[i]
            break
    return {"p50": median, "tail": tail, "tail_pct": pct, "n": n}
