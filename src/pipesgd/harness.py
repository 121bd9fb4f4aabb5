"""Launch whole training worlds and benchmark the communication patterns.

Two launchers share every bit of engine code; LAUNCHERS names them by transport:

  run_inproc  one thread per rank over the in-process transport,
  run_tcp     one process per rank over the TCP mesh; every listener is
              bound before the fork, rank 0 runs in the calling process,
              and each forked child copies its final model into its slot
              of one shared mapping, sends the rest of its RankResult back
              over a queue, then holds its mesh open until the launcher
              releases it.

Each launcher builds the start weights once per launch (start_model) and
hands the same read-only arrays to every rank, as it does the dataset.

run_benchmark drives one or both patterns over one dataset, verifies
against the single-process reference optimizer on request, and reports
wall clock, overlap, and barrier statistics.
"""

from __future__ import annotations

import hashlib
import mmap
import multiprocessing
import multiprocessing.connection
import os
import queue
import socket
import time
import traceback
from dataclasses import dataclass

import numpy as np

from . import net
from .buffers import Model
from .engine.checkpoint import save_model
from .engine.config import TrainConfig
from .engine.runtime import Rank, RankResult
from .engine.sgd import sequential_sgd
from .errors import ConfigError, TransportError, VerificationError
from .timeline import RunMetrics, compute_overlap, write_timeline_csv
from .transport.base import LatencyModel
from .transport.inproc import InprocWorld
from .transport.tcp import TcpTransport, bind_listener

_RESULT_TIMEOUT_S = 120.0
# A child that dies drops its sockets and its sentinel in the same exit
# step, so when rank 0 fails because a child vanished, the exit is visible
# at once; a failure of rank 0's own waits this long for one.  It is also
# how often the result wait looks for children that died without a report.
_EXIT_WAIT_S = 0.1


def dataset_sha256(dataset: net.Dataset) -> str:
    h = hashlib.sha256()
    h.update(dataset.inputs.tobytes())
    h.update(dataset.targets.tobytes())
    return h.hexdigest()


def start_model(config: TrainConfig) -> list[np.ndarray]:
    """The start weights of every rank of one launch, one read-only array
    per layer: each rank copies them into its live model."""
    layers = net.init_model(config.seed, config.specs()).layers
    for layer in layers:
        layer.flags.writeable = False
    return layers


# -- in-process launcher -----------------------------------------------------


def run_inproc(
    config: TrainConfig,
    dataset: net.Dataset,
    latency: LatencyModel | None = None,
    record: bool = False,
) -> list[RankResult]:
    """All ranks as threads of this process; returns results by rank."""
    import threading

    start = start_model(config)
    world = InprocWorld(config.world_size, latency)
    results: list[RankResult | None] = [None] * config.world_size
    failures: list[tuple[int, BaseException]] = []

    def body(rank: int) -> None:
        try:
            transport = world.transport(rank)
            results[rank] = Rank(config, dataset, start, transport, record).run()
        except BaseException as exc:  # noqa: BLE001 - reported to the caller below
            failures.append((rank, exc))
            world.abort_barrier()

    threads = [
        threading.Thread(target=body, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(config.world_size)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    world.close()
    if failures:
        # the first rank to fail is the root cause; peers that fail after
        # it see only its side effects (a broken barrier, a silent link)
        rank, exc = failures[0]
        raise TransportError(f"rank {rank} failed: {exc}") from exc
    return results  # type: ignore[return-value]


# -- TCP launcher -------------------------------------------------------------


def _slot(mapping: mmap.mmap, rank: int, start: list[np.ndarray]) -> list[np.ndarray]:
    """Rank ``rank``'s final model in ``mapping``: one view per layer,
    sized like the start weights."""
    bounds = np.cumsum([0] + [layer.size for layer in start])
    flat = np.frombuffer(mapping, np.float64, bounds[-1], rank * bounds[-1] * 8)
    return [flat[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _tcp_child(
    rank: int,
    config: TrainConfig,
    dataset: net.Dataset,
    start: list[np.ndarray],
    latency: LatencyModel | None,
    record: bool,
    listeners: list[socket.socket],
    addresses: list[tuple[str, int]],
    models: mmap.mmap,
    result_queue,
    hold,
) -> None:
    hold_end, release_end = hold
    # only the launcher may keep the write end open, or EOF never comes
    release_end.close()
    transport = None
    try:
        for r, listener in enumerate(listeners):
            if r != rank:
                listener.close()
        transport = TcpTransport(rank, config.world_size, listeners[rank], addresses, latency)
        result = Rank(config, dataset, start, transport, record).run()
        for view, layer in zip(_slot(models, rank, start), result.model):
            view[:] = layer
        # the report follows the slot write down the queue's pipe, so the
        # launcher reads the model only after it is complete
        result.model = []
        result_queue.put((rank, result))
        # a peer that sees this mesh close fails, so hold it open until the
        # launcher closes its end: it has every report, it failed, or it died
        hold_end.poll(None)
    except BaseException:  # noqa: BLE001 - marshalled to the parent
        result_queue.put((rank, traceback.format_exc()))
        # flush the report into the pipe before closing the mesh below, so
        # it is queued before any peer can see this rank's connection drop
        result_queue.close()
        result_queue.join_thread()
    finally:
        if transport is not None:
            try:
                transport.close()
            except Exception:
                pass


def _drain(result_queue, timeout: float) -> list[tuple[int, RankResult | str]]:
    """Child reports in arrival order: all queued now, or the first to come
    within ``timeout``.  A failed child's report is its traceback string."""
    reports = []
    try:
        reports.append(result_queue.get(timeout=timeout))
        while True:
            reports.append(result_queue.get(timeout=0))
    except queue.Empty:
        return reports


def _child_failure(children, reports) -> TransportError | None:
    """The root cause among the children, if any.

    A child that exited nonzero without a report died silently (a kill, an
    ``os._exit``); every other failure is reported, and the peers that lose
    their connection to it report only after it, so the first traceback to
    arrive names the culprit.
    """
    reported = {rank for rank, _ in reports}
    for rank, child in enumerate(children, start=1):
        if rank not in reported and child.exitcode:  # None while running
            return TransportError(
                f"rank {rank} failed: exited with code {child.exitcode} without a report"
            )
    for rank, report in reports:
        if isinstance(report, str):
            return TransportError(f"rank {rank} failed:\n{report}")
    return None


def run_tcp(
    config: TrainConfig,
    dataset: net.Dataset,
    latency: LatencyModel | None = None,
    record: bool = False,
) -> list[RankResult]:
    """One process per rank over a localhost TCP mesh; rank 0 runs here.

    Every rank's listener is bound, the start weights are built and one
    shared anonymous mapping with a flat float64 slot per rank is made
    here before the fork, so each forked child inherits its listener, the
    full address list, the dataset, the start weights and the mapping
    without any serialization.  Each child copies its final model into
    its slot and sends the rest of its RankResult back over a queue; a
    child's returned ``model`` is a list of per-layer views into its
    slot, and the mapping is freed with the last of them.  Each child
    then blocks on a one-way pipe whose write end only this process
    keeps.  Closing that end releases them all once every report
    is in, or at once on a failure; a dead launcher releases them too.  A
    failure is raised as ``rank N failed: ...`` for the rank that caused
    it: a child's own traceback, or its exit code when it died without a
    report.
    """
    world = config.world_size
    ctx = multiprocessing.get_context("fork")
    result_queue = ctx.Queue()
    hold = ctx.Pipe(duplex=False)  # (read end, write end)
    listeners: list[socket.socket] = []
    children: list[multiprocessing.process.BaseProcess] = []
    transport = None
    try:
        for _ in range(world):
            listeners.append(bind_listener())
        addresses = [listener.getsockname()[:2] for listener in listeners]
        start = start_model(config)
        # rank 0's slot is never touched, so it costs no memory
        models = mmap.mmap(-1, world * sum(layer.nbytes for layer in start))
        shared = (config, dataset, start, latency, record, listeners, addresses, models,
                  result_queue, hold)
        for r in range(1, world):
            child = ctx.Process(target=_tcp_child, args=(r, *shared), daemon=True)
            child.start()
            children.append(child)
        for listener in listeners[1:]:
            listener.close()
        transport = TcpTransport(0, world, listeners[0], addresses, latency)
        try:
            results = [Rank(config, dataset, start, transport, record).run()]
        except Exception as exc:
            # rank 0 learns of a failed child only when its sockets close: a
            # reporting child flushed its report before closing them, and a
            # silently dead one closed its sentinel with them
            ready = multiprocessing.connection.wait(
                [child.sentinel for child in children], _EXIT_WAIT_S
            )
            for child in children:
                if child.sentinel in ready:
                    child.join(_EXIT_WAIT_S)  # it is exiting; collect its code
            failure = _child_failure(children, _drain(result_queue, 0))
            raise failure or TransportError(f"rank 0 failed: {exc}") from exc

        reports = []
        deadline = time.monotonic() + _RESULT_TIMEOUT_S
        while len(reports) < world - 1:
            if time.monotonic() > deadline:
                raise TransportError(f"no rank result within {_RESULT_TIMEOUT_S} s")
            reports += _drain(result_queue, _EXIT_WAIT_S)
            failure = _child_failure(children, reports)
            if failure is not None:
                raise failure
        for _, result in reports:
            result.model = _slot(models, result.rank, start)
        return sorted(results + [r for _, r in reports], key=lambda result: result.rank)
    finally:
        # every report is in, or the launch failed: closing the write end
        # releases every child from its hold
        hold[1].close()
        hold[0].close()
        for listener in listeners:
            listener.close()
        if transport is not None:
            transport.close()
        for child in children:
            child.join(timeout=10)
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=5)
        result_queue.close()


LAUNCHERS = {"inproc": run_inproc, "tcp": run_tcp}


# -- benchmark driver ----------------------------------------------------------


@dataclass
class BenchOptions:
    config: TrainConfig
    transport: str = "inproc"
    patterns: tuple[str, ...] = ("pipelined",)
    latency: LatencyModel | None = None
    dataset_csv: str | None = None
    timeline_path: str | None = None
    metrics_path: str | None = None
    checkpoint_path: str | None = None
    verify_oracle: bool = False
    quiet: bool = False


@dataclass
class BenchReport:
    pattern: str
    results: list[RankResult]
    metrics: RunMetrics
    dataset_sha: str

    @property
    def wall_ns(self) -> int:
        return max(r.wall_ns for r in self.results)

    @property
    def barrier_calls(self) -> int:
        return max(r.barrier_calls for r in self.results)


def build_dataset(config: TrainConfig, dataset_csv: str | None = None) -> net.Dataset:
    if dataset_csv is not None:
        specs = config.specs()
        return net.load_csv_dataset(dataset_csv, specs[0].in_dim, specs[-1].out_dim)
    return net.make_synthetic_dataset(
        config.seed, config.dataset_size, config.specs(), config.input_scale
    )


def _pattern_path(path: str, pattern: str, multiple: bool) -> str:
    if not multiple:
        return path
    stem, ext = os.path.splitext(path)
    return f"{stem}.{pattern}{ext}"


def verify_against_reference(reference: Model, results: list[RankResult]) -> None:
    """Every rank's final model must match the reference run's
    (:func:`.engine.sgd.sequential_sgd`) bit for bit."""
    for result in results:
        if len(result.model) != len(reference.layers):
            raise VerificationError(
                f"rank {result.rank} holds {len(result.model)} layers, "
                f"reference has {len(reference.layers)}"
            )
        for l, (got, want) in enumerate(zip(result.model, reference.layers)):
            if got.tobytes() != want.tobytes():
                raise VerificationError(
                    f"rank {result.rank} layer {l} diverges from the reference run"
                )


def run_benchmark(options: BenchOptions) -> dict[str, BenchReport]:
    """Run each requested pattern on one dataset and report statistics."""
    launch = LAUNCHERS.get(options.transport)
    if launch is None:
        raise ConfigError(
            f"unknown transport {options.transport!r}; choose {' or '.join(LAUNCHERS)}"
        )
    multiple = len(options.patterns) > 1
    # artifacts are written after training, so a bad path must fail first
    paths = [options.metrics_path] + [
        _pattern_path(path, pattern, multiple)
        for path in (options.timeline_path, options.checkpoint_path)
        if path
        for pattern in options.patterns
    ]
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"cannot write {path}: its directory does not exist")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: it is a directory")
    config = options.config
    dataset = build_dataset(config, options.dataset_csv)
    sha = dataset_sha256(dataset)
    out = print if not options.quiet else (lambda *_args, **_kw: None)

    # the reference run never reads the pattern, so one serves every pattern
    reference = sequential_sgd(config, dataset) if options.verify_oracle else None
    reports: dict[str, BenchReport] = {}
    metric_lines: list[str] = [f"dataset_sha256={sha}"]
    for pattern in options.patterns:
        cfg = config.replace(pattern=pattern)
        results = launch(cfg, dataset, options.latency, record=True)
        events = [e for r in results for e in r.events]
        metrics = compute_overlap(events)
        report = BenchReport(pattern, results, metrics, sha)
        reports[pattern] = report
        if reference is not None:
            verify_against_reference(reference, results)
            out(f"{pattern}: verified bit-identical to the reference optimizer")
        lines = [
            f"{pattern}.wall_clock_ns={report.wall_ns}",
            f"{pattern}.barrier_calls={report.barrier_calls}",
            f"{pattern}.final_loss={results[0].losses[-1]:.6e}",
            f"{pattern}.units={[(u.first, u.stop) for u in results[0].units]}",
            f"{pattern}.replicated={[u.replicated for u in results[0].units]}",
        ] + [f"{pattern}.{line}" for line in metrics.lines()]
        metric_lines.extend(lines)
        for line in lines:
            out(line)
        if options.timeline_path:
            path = _pattern_path(options.timeline_path, pattern, multiple)
            write_timeline_csv(events, path)
            out(f"{pattern}: timeline written to {path}")
        if options.checkpoint_path:
            path = _pattern_path(options.checkpoint_path, pattern, multiple)
            save_model(results[0].model, path)
            out(f"{pattern}: model checkpoint written to {path}")

    if "pipelined" in reports and "barrier" in reports:
        ratio = reports["pipelined"].wall_ns / reports["barrier"].wall_ns
        metric_lines.append(f"pipelined_over_barrier_wall={ratio:.4f}")
        out(f"pipelined_over_barrier_wall={ratio:.4f}")
    if options.metrics_path:
        with open(options.metrics_path, "w") as fh:
            fh.write("\n".join(metric_lines) + "\n")
        out(f"metrics written to {options.metrics_path}")
    return reports
