"""Launch whole training worlds and benchmark the communication patterns.

Two launchers share every bit of engine code:

  run_inproc  one thread per rank over the in-process transport,
  run_tcp     one process per rank (fork) over the TCP mesh; rank 0 runs
              in the calling process, children stream results back over a
              queue as checkpoint blobs.

run_benchmark drives one or both patterns over one dataset, verifies
against the single-process reference optimizer on request, and reports
wall clock, overlap, and barrier statistics.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import queue
import time
import traceback
from dataclasses import dataclass

from . import net
from .engine.checkpoint import load_model_bytes, save_model, serialize_model
from .engine.config import TrainConfig
from .engine.runtime import Rank, RankResult
from .engine.sgd import sequential_sgd
from .errors import ConfigError, TransportError, VerificationError
from .timeline import Recorder, RunMetrics, TimelineEvent, compute_overlap, write_timeline_csv
from .transport.base import LatencyModel
from .transport.inproc import InprocWorld
from .transport.tcp import TcpTransport, bind_listener

_RESULT_TIMEOUT_S = 120.0
# how long a failed rank 0 waits for a child's report of the root cause
_CULPRIT_WAIT_S = 1.0
# listeners are AF_INET sockets, so IPv6 loopback cannot be served
_LOOPBACK_HOSTS = ("127.0.0.1", "localhost")


def dataset_sha256(dataset: net.Dataset) -> str:
    h = hashlib.sha256()
    h.update(dataset.inputs.tobytes())
    h.update(dataset.targets.tobytes())
    return h.hexdigest()


# -- in-process launcher -----------------------------------------------------


def run_inproc(
    config: TrainConfig,
    dataset: net.Dataset,
    latency: LatencyModel | None = None,
    record: bool = False,
) -> list[RankResult]:
    """All ranks as threads of this process; returns results by rank."""
    import threading

    world = InprocWorld(config.world_size, latency)
    results: list[RankResult | None] = [None] * config.world_size
    failures: list[tuple[int, BaseException]] = []

    def body(rank: int) -> None:
        try:
            transport = world.transport(rank)
            recorder = Recorder(rank) if record else None
            results[rank] = Rank(config, dataset, transport, recorder).run()
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


def _result_payload(result: RankResult) -> dict:
    return {
        "rank": result.rank,
        "world_size": result.world_size,
        "iterations": result.iterations,
        "model": serialize_model(result.model),
        "losses": result.losses,
        "barrier_calls": result.barrier_calls,
        "fold_counts": result.fold_counts,
        "wall_ns": result.wall_ns,
        "events": [
            (e.rank, e.iteration, e.layer, e.kind, e.t_start_ns, e.t_end_ns)
            for e in result.events
        ],
    }


def _payload_result(payload: dict) -> RankResult:
    return RankResult(
        rank=payload["rank"],
        world_size=payload["world_size"],
        iterations=payload["iterations"],
        model=load_model_bytes(payload["model"]).layers,
        losses=payload["losses"],
        barrier_calls=payload["barrier_calls"],
        fold_counts=payload["fold_counts"],
        wall_ns=payload["wall_ns"],
        events=[TimelineEvent(*row) for row in payload["events"]],
    )


def _tcp_child(
    rank: int,
    config: TrainConfig,
    dataset: net.Dataset,
    latency: LatencyModel | None,
    record: bool,
    host: str,
    port_queue,
    address_pipe,
    result_queue,
) -> None:
    transport = None
    try:
        listener = bind_listener(host)
        port_queue.put((rank, listener.getsockname()[:2]))
        addresses = address_pipe.recv()
        transport = TcpTransport(rank, config.world_size, listener, addresses, latency)
        recorder = Recorder(rank) if record else None
        result = Rank(config, dataset, transport, recorder).run()
        result_queue.put((rank, _result_payload(result)))
        # hold the mesh open until every rank has finished and reported, so
        # nobody interprets our teardown as a peer failure
        transport.barrier()
    except BaseException:  # noqa: BLE001 - marshalled to the parent
        result_queue.put((rank, {"error": traceback.format_exc()}))
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


def _next_report(result_queue, timeout: float) -> tuple[int, dict] | None:
    """The next child report in arrival order, None on timeout; a report
    of a failed child is raised."""
    try:
        rank, payload = result_queue.get(timeout=max(0.0, timeout))
    except queue.Empty:
        return None
    if "error" in payload:
        raise TransportError(f"rank {rank} failed:\n{payload['error']}")
    return rank, payload


def run_tcp(
    config: TrainConfig,
    dataset: net.Dataset,
    latency: LatencyModel | None = None,
    record: bool = False,
    hosts: list[str] | None = None,
) -> list[RankResult]:
    """One process per rank over a localhost TCP mesh; rank 0 runs here.

    Children are forked, so they see the same dataset bytes without any
    serialization; results come back over a queue with models encoded in
    the checkpoint format.
    """
    world = config.world_size
    if hosts is None:
        hosts = ["127.0.0.1"] * world
    if len(hosts) != world:
        raise ConfigError(f"need {world} hosts, got {len(hosts)}")
    for h in hosts:
        if h not in _LOOPBACK_HOSTS:
            raise ConfigError(
                f"host {h!r} is not an IPv4 loopback host {_LOOPBACK_HOSTS}; "
                "ranks run as local processes only"
            )

    recorder = Recorder(0) if record else None
    if world == 1:
        transport = TcpTransport(0, 1, None, [], latency)
        try:
            return [Rank(config, dataset, transport, recorder).run()]
        finally:
            transport.close()

    ctx = multiprocessing.get_context("fork")
    port_queue = ctx.Queue()
    result_queue = ctx.Queue()
    pipes = [ctx.Pipe(duplex=False) for _ in range(world - 1)]
    children = [
        ctx.Process(
            target=_tcp_child,
            args=(
                r,
                config,
                dataset,
                latency,
                record,
                hosts[r],
                port_queue,
                pipes[r - 1][0],
                result_queue,
            ),
            daemon=True,
        )
        for r in range(1, world)
    ]
    for child in children:
        child.start()

    transport = None
    try:
        listener = bind_listener(hosts[0])
        addresses: list[tuple[str, int] | None] = [None] * world
        addresses[0] = listener.getsockname()[:2]
        for _ in range(world - 1):
            rank, addr = port_queue.get(timeout=_RESULT_TIMEOUT_S)
            addresses[rank] = addr
        for _, sender in pipes:
            sender.send(addresses)
        transport = TcpTransport(0, world, listener, addresses, latency)
        try:
            result0 = Rank(config, dataset, transport, recorder).run()
        except Exception:
            # rank 0 often fails only because a child crashed first; that
            # child's report is then already queued, and it is the root cause
            deadline = time.monotonic() + _CULPRIT_WAIT_S
            while _next_report(result_queue, deadline - time.monotonic()) is not None:
                pass  # a finished child's result; look on for an error
            raise

        payloads: dict[int, dict] = {}
        for _ in range(world - 1):
            report = _next_report(result_queue, _RESULT_TIMEOUT_S)
            if report is None:
                raise TransportError(f"no rank result within {_RESULT_TIMEOUT_S} s")
            rank, payload = report
            payloads[rank] = payload
        # everyone reported; release the children from their teardown hold
        transport.barrier()
        results = [result0] + [_payload_result(payloads[r]) for r in sorted(payloads)]
        return results
    finally:
        if transport is not None:
            transport.close()
        for child in children:
            child.join(timeout=10)
        for child in children:
            if child.is_alive():
                child.terminate()
                child.join(timeout=5)
        port_queue.close()
        result_queue.close()


# -- benchmark driver ----------------------------------------------------------


@dataclass
class BenchOptions:
    config: TrainConfig
    transport: str = "inproc"
    patterns: tuple[str, ...] = ("pipelined",)
    latency: LatencyModel | None = None
    hosts: list[str] | None = None
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
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return f"{path}.{pattern}"
    return f"{stem}.{pattern}.{ext}"


def run_pattern(
    config: TrainConfig,
    dataset: net.Dataset,
    transport: str,
    latency: LatencyModel | None = None,
    hosts: list[str] | None = None,
    record: bool = True,
) -> list[RankResult]:
    if transport == "inproc":
        return run_inproc(config, dataset, latency, record)
    if transport == "tcp":
        return run_tcp(config, dataset, latency, record, hosts)
    raise ConfigError(f"unknown transport {transport!r}; choose inproc or tcp")


def verify_against_reference(
    config: TrainConfig, dataset: net.Dataset, results: list[RankResult]
) -> None:
    """Every rank's final model must match the reference run bit for bit."""
    reference = sequential_sgd(config, dataset)
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
    config = options.config
    dataset = build_dataset(config, options.dataset_csv)
    sha = dataset_sha256(dataset)
    out = print if not options.quiet else (lambda *_args, **_kw: None)

    reports: dict[str, BenchReport] = {}
    metric_lines: list[str] = [f"dataset_sha256={sha}"]
    multiple = len(options.patterns) > 1
    for pattern in options.patterns:
        cfg = config.replace(pattern=pattern)
        results = run_pattern(cfg, dataset, options.transport, options.latency, options.hosts)
        events = [e for r in results for e in r.events]
        metrics = compute_overlap(events)
        report = BenchReport(pattern, results, metrics, sha)
        reports[pattern] = report
        if options.verify_oracle:
            verify_against_reference(cfg, dataset, results)
            out(f"{pattern}: verified bit-identical to the reference optimizer")
        lines = [
            f"{pattern}.wall_clock_ns={report.wall_ns}",
            f"{pattern}.barrier_calls={report.barrier_calls}",
            f"{pattern}.final_loss={results[0].losses[-1]:.6e}",
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
