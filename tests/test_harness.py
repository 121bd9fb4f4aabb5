"""Benchmark harness: dataset plumbing, artifact paths, verification, reports."""

import gc
import multiprocessing.queues
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref

import numpy as np
import pytest

from pipesgd import harness, net
from pipesgd.engine import Rank, TrainConfig, load_model, sequential_sgd, serialize_model
from pipesgd.engine.layout import SEG_RECV
from pipesgd.errors import ConfigError, ShapeError, TransportError, VerificationError
from pipesgd.harness import (
    BenchOptions,
    BenchReport,
    _pattern_path,
    build_dataset,
    dataset_sha256,
    run_benchmark,
    run_inproc,
    run_tcp,
    verify_against_reference,
)
from pipesgd.timeline import read_timeline_csv
from pipesgd.transport import InprocWorld, LatencyModel, TcpTransport, wire


def small_config(**overrides):
    return TrainConfig(
        layer_dims=(4, 6, 3), world_size=2, iterations=3,
        batch_size=8, dataset_size=16, seed=5, finalize_timeout_s=10.0,
    ).replace(**overrides)


class TestDataset:
    def test_synthetic_dataset_hash_is_stable(self):
        cfg = small_config()
        a = dataset_sha256(build_dataset(cfg))
        b = dataset_sha256(build_dataset(cfg))
        assert a == b
        assert len(a) == 64

    def test_csv_dataset_round_trips_through_build(self, tmp_path):
        cfg = small_config()
        ds = build_dataset(cfg)
        path = str(tmp_path / "data.csv")
        net.save_csv_dataset(ds, path)
        loaded = build_dataset(cfg, dataset_csv=path)
        assert dataset_sha256(loaded) == dataset_sha256(ds)

    def test_different_seeds_different_data(self):
        a = build_dataset(small_config(seed=1))
        b = build_dataset(small_config(seed=2))
        assert dataset_sha256(a) != dataset_sha256(b)


class TestPatternPath:
    def test_single_pattern_keeps_path(self):
        assert _pattern_path("out/timeline.csv", "pipelined", False) == "out/timeline.csv"

    def test_multiple_patterns_tag_before_extension(self):
        assert _pattern_path("t.csv", "barrier", True) == "t.barrier.csv"

    def test_extensionless_path_gets_suffix(self):
        assert _pattern_path("timeline", "pipelined", True) == "timeline.pipelined"

    def test_dot_in_directory_is_not_an_extension(self):
        assert _pattern_path("runs.v2/timeline", "pipelined", True) == "runs.v2/timeline.pipelined"
        assert _pattern_path("runs.v2/t.csv", "barrier", True) == "runs.v2/t.barrier.csv"


class TestVerification:
    def test_detects_corrupted_model(self):
        cfg = small_config()
        ds = build_dataset(cfg)
        results = run_inproc(cfg, ds)
        results[1].model[0][3] += 1e-9
        with pytest.raises(VerificationError, match="diverges"):
            verify_against_reference(sequential_sgd(cfg, ds), results)

    def test_detects_a_corrupted_child_model_over_tcp(self):
        """A forked rank's model comes back as views into the launch's
        shared mapping: verification reads that child's own bytes."""
        cfg = small_config(world_size=4)
        ds = build_dataset(cfg)
        reference = sequential_sgd(cfg, ds)
        results = run_tcp(cfg, ds)
        verify_against_reference(reference, results)
        results[2].model[1][3] += 1e-9
        with pytest.raises(VerificationError, match="rank 2 layer 1 diverges"):
            verify_against_reference(reference, results)

    def test_detects_missing_layer(self):
        cfg = small_config()
        ds = build_dataset(cfg)
        results = run_inproc(cfg, ds)
        results[0].model.pop()
        with pytest.raises(VerificationError, match="layers"):
            verify_against_reference(sequential_sgd(cfg, ds), results)


class TestStartModel:
    @staticmethod
    def count_init_model(monkeypatch):
        """Make ``net.init_model`` log its calls, and raise in any process
        but this one: a forked rank that builds its own start weights
        fails its launch."""
        launcher = os.getpid()
        calls = []
        init_model = net.init_model

        def counted(seed, specs):
            if os.getpid() != launcher:
                raise RuntimeError(f"init_model called in pid {os.getpid()}")
            calls.append(seed)
            return init_model(seed, specs)

        monkeypatch.setattr(net, "init_model", counted)
        return calls

    @pytest.mark.parametrize("launch", [run_inproc, run_tcp])
    def test_built_once_per_launch_by_the_launcher(self, monkeypatch, launch):
        cfg = small_config(world_size=4)
        ds = build_dataset(cfg)  # the teacher model is not a start model
        calls = self.count_init_model(monkeypatch)
        results = launch(cfg, ds)
        assert calls == [cfg.seed]
        verify_against_reference(sequential_sgd(cfg, ds), results)

    def test_ranks_get_read_only_start_arrays(self, monkeypatch):
        """Every rank of a launch gets the same arrays, and a write into
        them raises; the ranks train on their own copies."""
        cfg = small_config(world_size=4)
        ds = build_dataset(cfg)
        handed = []
        init = Rank.__init__

        def record(rank, config, dataset, start, *args, **kwargs):
            handed.append(start)
            init(rank, config, dataset, start, *args, **kwargs)

        monkeypatch.setattr(Rank, "__init__", record)
        run_inproc(cfg, ds)
        assert len(handed) == 4
        assert all(start is handed[0] for start in handed)
        for layer, want in zip(handed[0], net.init_model(cfg.seed, cfg.specs()).layers):
            assert layer.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                layer[0] = 1.0

    @pytest.mark.parametrize("shape", [None, (30, 1), (1, 30)], ids=["dims", "column", "row"])
    def test_start_weights_must_fit_the_config(self, shape):
        """Start weights of other dims are rejected, and so is a layer of
        the right size whose shape is not ``(param_count,)``: it is
        neither broadcast into the model nor flattened."""
        cfg = small_config(world_size=1)
        if shape is None:
            start = harness.start_model(small_config(layer_dims=(4, 5, 3)))
        else:
            start = harness.start_model(cfg)
            start[0] = start[0].reshape(shape)
        world = InprocWorld(1)
        try:
            with pytest.raises(ShapeError, match="start weights"):
                Rank(cfg, build_dataset(cfg), start, world.transport(0))
        finally:
            world.close()


class TestTcpResults:
    def test_child_reports_leave_the_model_out(self, monkeypatch, tmp_path):
        """Each forked rank's queue report stays small with a model over
        1 MB: the model comes back through the launch's shared mapping."""
        cfg = TrainConfig(
            layer_dims=(64, 256, 256, 256, 10), world_size=4, iterations=2,
            batch_size=4, dataset_size=16, seed=5,
        )
        sizes = tmp_path / "report-sizes"
        put = multiprocessing.queues.Queue.put

        def logged(queue, obj, *args, **kwargs):
            with open(sizes, "a") as fh:
                fh.write(f"{len(pickle.dumps(obj))}\n")
            return put(queue, obj, *args, **kwargs)

        monkeypatch.setattr(multiprocessing.queues.Queue, "put", logged)
        ds = build_dataset(cfg)
        results = run_tcp(cfg, ds)
        verify_against_reference(sequential_sgd(cfg, ds), results)
        assert sum(layer.nbytes for layer in results[0].model) > 2**20
        reported = [int(size) for size in sizes.read_text().split()]
        assert len(reported) == 3
        assert max(reported) <= 64 * 1024


def crash_at(monkeypatch, rank, iteration):
    train_iteration = Rank._train_iteration

    def crash(r, k):
        if r.rank == rank and k == iteration:
            raise RuntimeError("injected fault")
        train_iteration(r, k)

    monkeypatch.setattr(Rank, "_train_iteration", crash)


def die_at(monkeypatch, rank, iteration, how):
    """End one rank's process without a report: ``os._exit(1)`` or SIGKILL."""
    train_iteration = Rank._train_iteration

    def die(r, k):
        if r.rank == rank and k == iteration:
            if how == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        train_iteration(r, k)

    monkeypatch.setattr(Rank, "_train_iteration", die)


def crash_after_gradient(monkeypatch, rank, iteration):
    """Raise right after one rank's first reduce-scatter write, before any
    all-gather data comes back."""
    send = Rank._send

    def crash(r, unit, kind, write):
        send(r, unit, kind, write)
        if r.rank == rank and r.k == iteration and kind == "send_trigger":
            raise RuntimeError("injected fault")

    monkeypatch.setattr(Rank, "_send", crash)


def die_mid_gradient_frame(monkeypatch, rank, iteration):
    """End one tcp rank's process halfway through its first reduce-scatter
    frame: the header and the first 100 payload bytes reach its partner,
    then ``os._exit(1)``."""
    send = Rank._send

    def cut(r, unit, kind, write):
        if r.rank == rank and r.k == iteration and kind == "send_trigger":
            assert write.size > 100, "the cut must fall inside the payload"
            header = wire.pack_write_notify(
                SEG_RECV, write.remote_offset, write.size, write.notification_id, r.k + 1
            )
            # the link to the partner is idle: last iteration's writes completed
            r.tr._peers[write.rank].sendall(header + r.seg_work.read(write.local_offset, 100))
            os._exit(1)
        send(r, unit, kind, write)

    monkeypatch.setattr(Rank, "_send", cut)


crash_points = pytest.mark.parametrize("rank,iteration", [(0, 0), (0, 2), (3, 0), (3, 2)])


class TestInprocFailure:
    @crash_points
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_first_failing_rank_is_reported(self, monkeypatch, pattern, rank, iteration):
        """Peers of a crashed rank fail too (watchdog, broken barrier); the
        error names the rank that failed first and carries its exception."""
        crash_at(monkeypatch, rank, iteration)
        cfg = small_config(world_size=4, iterations=4, pattern=pattern, finalize_timeout_s=0.3)
        with pytest.raises(TransportError, match=f"^rank {rank} failed: injected fault$"):
            run_inproc(cfg, build_dataset(cfg))

    def test_pipelined_peers_stop_without_waiting_out_the_timeout(self, monkeypatch):
        """The aborted world fails the peers' idle polls, so a crash ends the
        run at once even with the default 30 s finalize timeout."""
        crash_at(monkeypatch, 3, 2)
        cfg = small_config(world_size=4, iterations=4).replace(
            finalize_timeout_s=TrainConfig.finalize_timeout_s
        )
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="^rank 3 failed: injected fault$"):
            run_inproc(cfg, build_dataset(cfg))
        assert time.monotonic() - t0 < 2.0

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_crash_between_gradient_and_model_is_named(self, monkeypatch, pattern):
        crash_after_gradient(monkeypatch, 3, 2)
        cfg = small_config(world_size=4, iterations=4, pattern=pattern)
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="^rank 3 failed: injected fault$"):
            run_inproc(cfg, build_dataset(cfg))
        assert time.monotonic() - t0 < 1.0


class TestTcpFailure:
    @crash_points
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_first_failing_rank_is_reported(self, monkeypatch, pattern, rank, iteration):
        """Rank 0 runs here and raises its own exception; a crashed child is
        seen by rank 0 only as a dropped connection, and the error still
        names that child and carries its traceback."""
        crash_at(monkeypatch, rank, iteration)  # inherited by forked children
        cfg = small_config(world_size=4, iterations=4, pattern=pattern)
        t0 = time.monotonic()
        if rank == 0:
            with pytest.raises(TransportError, match="^rank 0 failed: injected fault$"):
                run_tcp(cfg, build_dataset(cfg))
            assert time.monotonic() - t0 < 1.0
        else:
            with pytest.raises(TransportError, match=f"^rank {rank} failed:\n") as info:
                run_tcp(cfg, build_dataset(cfg))
            assert "RuntimeError: injected fault" in str(info.value)
            assert time.monotonic() - t0 < 5.0

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_crash_is_seen_during_modeled_compute(self, monkeypatch, pattern):
        """Rank 0 keeps polling while its modeled backward compute runs, so a
        peer that crashed is noticed within an idle poll, not after a
        0.5 s layer ends."""
        crash_at(monkeypatch, 3, 0)  # inherited by forked children
        cfg = small_config(
            world_size=4, iterations=4, pattern=pattern, compute_inflation_ns=500_000_000
        )
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="^rank 3 failed:\n"):
            run_tcp(cfg, build_dataset(cfg))
        assert time.monotonic() - t0 < 0.25

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_crash_between_gradient_and_model_is_named(self, monkeypatch, pattern):
        """Rank 3's gradient reached its partner, the gathered model never
        comes back: the partner's later failure is not blamed, rank 3 is."""
        crash_after_gradient(monkeypatch, 3, 2)  # inherited by forked children
        cfg = small_config(world_size=4, iterations=4, pattern=pattern)
        t0 = time.monotonic()
        with pytest.raises(TransportError, match="^rank 3 failed:\n") as info:
            run_tcp(cfg, build_dataset(cfg))
        assert "RuntimeError: injected fault" in str(info.value)
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_death_mid_frame_is_named(self, monkeypatch, pattern):
        """A rank that dies inside its gradient frame is named by its exit
        code, not blamed on the partner whose receive loop saw the cut."""
        die_mid_gradient_frame(monkeypatch, 3, 2)  # inherited by forked children
        cfg = small_config(world_size=4, iterations=4, pattern=pattern)
        t0 = time.monotonic()
        with pytest.raises(
            TransportError, match="^rank 3 failed: exited with code 1 without a report$"
        ):
            run_tcp(cfg, build_dataset(cfg))
        assert time.monotonic() - t0 < 1.0

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("how,code", [("exit", 1), ("kill", -signal.SIGKILL)])
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_silent_child_death_is_named(self, monkeypatch, pattern, how, code, rank):
        """A child that dies without a report is named by its exit code, not
        blamed on a peer that lost its connection to it."""
        die_at(monkeypatch, rank, 2, how)  # inherited by forked children
        cfg = small_config(world_size=4, iterations=4, pattern=pattern)
        t0 = time.monotonic()
        with pytest.raises(
            TransportError,
            match=f"^rank {rank} failed: exited with code {code} without a report$",
        ):
            run_tcp(cfg, build_dataset(cfg))
        assert time.monotonic() - t0 < 1.0


_KILL_AFTER_REPORTS = """
import os, signal
from pipesgd import harness
from pipesgd.engine import TrainConfig

child_failure = harness._child_failure

def kill_once_all_reported(children, reports):
    if len(reports) == len(children):
        print(" ".join(str(child.pid) for child in children), flush=True)
        os.kill(os.getpid(), signal.SIGKILL)
    return child_failure(children, reports)

harness._child_failure = kill_once_all_reported
cfg = TrainConfig(layer_dims=(4, 6, 3), world_size=4, iterations=2, batch_size=8,
                  dataset_size=16, seed=5)
harness.run_tcp(cfg, harness.build_dataset(cfg))
"""


def _running(pid):
    """True while ``pid`` runs; an exited process not yet reaped is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestTcpTeardown:
    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_only_the_rendezvous_is_a_fence_outside_the_loop(self, monkeypatch, pattern):
        """Finished children are held by the launcher, not by a teardown
        barrier: rank 0 fences once before the loop and never after it."""
        made = []

        class Recorded(TcpTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(harness, "TcpTransport", Recorded)
        cfg = small_config(world_size=4, iterations=2, pattern=pattern)
        run_tcp(cfg, build_dataset(cfg))
        in_loop = 0 if pattern == "pipelined" else 2 * cfg.iterations
        assert [tr.barrier_calls for tr in made] == [1 + in_loop]

    def test_children_exit_when_the_launcher_is_killed(self, tmp_path):
        """A launcher killed after every child reported leaves no child
        behind: its death closes the pipe that holds them."""
        stderr_path = tmp_path / "stderr"
        with open(stderr_path, "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _KILL_AFTER_REPORTS],
                stdout=subprocess.PIPE, stderr=stderr, text=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            )
        # wait for the launcher, not for stdout's EOF: children share it
        with proc:
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
            pids = [int(pid) for pid in proc.stdout.readline().split()]
        try:
            assert code == -signal.SIGKILL, stderr_path.read_text()
            assert len(pids) == 3
            deadline = time.monotonic() + 2.0
            while any(map(_running, pids)) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not [pid for pid in pids if _running(pid)], "children outlived the launcher"
        finally:
            for pid in filter(_running, pids):
                os.kill(pid, signal.SIGKILL)


class TestInprocTeardown:
    def test_transports_are_freed_without_a_gc_pass(self, monkeypatch):
        """A finished in-process world must not keep its transports in a
        reference cycle, which would keep every segment of the launch
        alive until the garbage collector runs."""
        made = []
        transport = InprocWorld.transport

        def track(world, rank):
            tr = transport(world, rank)
            made.append(weakref.ref(tr))
            return tr

        monkeypatch.setattr(InprocWorld, "transport", track)
        cfg = small_config(world_size=4)
        ds = build_dataset(cfg)
        gc.collect()
        gc.disable()
        try:
            run_inproc(cfg, ds)
            assert [ref() for ref in made] == [None] * 4
        finally:
            gc.enable()


class TestFlightSpans:
    def test_flight_covers_the_tcp_send_call(self, monkeypatch):
        """At zero latency a tcp write's flight ends when it is posted, but
        the call sends the whole frame: each recorded flight of rank 0 must
        last at least as long as its 1.2 MB write call did."""
        calls = []
        write_notify = TcpTransport.write_notify

        def timed(tr, req):
            t0 = time.monotonic_ns()
            end = write_notify(tr, req)
            if req.remote_segment == SEG_RECV:  # not a fence's control write
                calls.append(time.monotonic_ns() - t0)
            return end

        monkeypatch.setattr(TcpTransport, "write_notify", timed)
        # 300 750 parameters: each half-model write of 2 ranks is 1.2 MB
        cfg = small_config(layer_dims=(400, 750), iterations=2, batch_size=2, dataset_size=4)
        results = run_tcp(cfg, build_dataset(cfg), record=True)
        flights = [
            e.t_end_ns - e.t_start_ns
            for e in results[0].events
            if e.kind in ("send_trigger", "model_forward")
        ]
        assert len(flights) == len(calls) > 0
        assert all(flight >= call for flight, call in zip(flights, calls)), (flights, calls)

    @pytest.mark.parametrize("pattern", ["pipelined", "barrier"])
    def test_an_iteration_does_not_wait_for_its_own_flights(self, pattern):
        """Writes complete locally: a rank ends its iteration once its
        peer's data arrived, even while its own all-gather write is still
        in flight.  Three parameters over two ranks give rank 1 the larger
        shard, so at 2 ms per byte its all-gather write ends 16 ms after
        rank 0's, which rank 1 waits for."""
        cfg = small_config(layer_dims=(2, 1), iterations=1, pattern=pattern)
        ds = build_dataset(cfg)
        results = run_inproc(
            cfg, ds, latency=LatencyModel(per_byte_ns=2_000_000), record=True
        )
        events = results[1].events
        (finalize,) = [e for e in events if e.kind == "finalize"]
        (flight,) = [e for e in events if e.kind == "model_forward"]
        assert finalize.t_end_ns < flight.t_end_ns
        verify_against_reference(sequential_sgd(cfg, ds), results)


class TestRunBenchmark:
    def test_single_pattern_report(self, capsys):
        reports = run_benchmark(BenchOptions(config=small_config(), quiet=True))
        assert set(reports) == {"pipelined"}
        report = reports["pipelined"]
        assert isinstance(report, BenchReport)
        assert report.wall_ns > 0
        assert report.barrier_calls == 0
        assert len(report.results) == 2
        assert capsys.readouterr().out == ""

    def test_prints_summary_lines(self, capsys):
        run_benchmark(BenchOptions(config=small_config(), verify_oracle=True))
        out = capsys.readouterr().out
        assert "pipelined: verified bit-identical to the reference optimizer" in out
        assert "pipelined.wall_clock_ns=" in out
        assert "pipelined.barrier_calls=0" in out
        assert "pipelined.final_loss=" in out
        assert "pipelined.units=[(0, 2)]" in out  # no compute to hide a write
        assert "pipelined.overlap_ratio=" in out

    def test_prints_the_unit_plan_that_ran(self, capsys):
        """Backward compute that can hide a write gives one unit per layer;
        each unit's shape follows on the next line.  At 1 us + 5 ns/B the
        240-byte layer 0 stays sharded and the 168-byte layer 1
        replicates; the barrier's 408-byte unit stays sharded."""
        run_benchmark(BenchOptions(
            config=small_config(compute_inflation_ns=1_000_000),
            patterns=("pipelined", "barrier"),
            latency=LatencyModel(fixed_ns=1_000, per_byte_ns=5.0),
        ))
        lines = capsys.readouterr().out.splitlines()
        for pattern, units, replicated in [
            ("pipelined", "[(0, 1), (1, 2)]", "[False, True]"),
            ("barrier", "[(0, 2)]", "[False]"),
        ]:
            at = lines.index(f"{pattern}.units={units}")
            assert lines[at + 1] == f"{pattern}.replicated={replicated}"

    def test_one_reference_run_verifies_both_patterns(self, monkeypatch, capsys):
        calls = []

        def counted(config, dataset):
            calls.append(config.pattern)
            return sequential_sgd(config, dataset)

        monkeypatch.setattr(harness, "sequential_sgd", counted)
        run_benchmark(BenchOptions(
            config=small_config(), patterns=("pipelined", "barrier"), verify_oracle=True
        ))
        assert len(calls) == 1
        out = capsys.readouterr().out
        for pattern in ("pipelined", "barrier"):
            assert f"{pattern}: verified bit-identical to the reference optimizer" in out

    def test_both_patterns_emit_wall_ratio(self, capsys):
        reports = run_benchmark(
            BenchOptions(config=small_config(), patterns=("pipelined", "barrier"))
        )
        assert set(reports) == {"pipelined", "barrier"}
        assert reports["barrier"].barrier_calls == 2 * small_config().iterations
        assert "pipelined_over_barrier_wall=" in capsys.readouterr().out

    def test_artifacts_written(self, tmp_path):
        timeline = str(tmp_path / "timeline.csv")
        metrics = str(tmp_path / "metrics.txt")
        checkpoint = str(tmp_path / "model.bin")
        cfg = small_config()
        reports = run_benchmark(BenchOptions(
            config=cfg,
            patterns=("pipelined", "barrier"),
            timeline_path=timeline,
            metrics_path=metrics,
            checkpoint_path=checkpoint,
            quiet=True,
        ))
        for pattern in ("pipelined", "barrier"):
            events = read_timeline_csv(str(tmp_path / f"timeline.{pattern}.csv"))
            assert events
            model = load_model(str(tmp_path / f"model.{pattern}.bin"))
            assert serialize_model(model.layers) == serialize_model(
                reports[pattern].results[0].model
            )
        text = (tmp_path / "metrics.txt").read_text()
        assert text.startswith("dataset_sha256=")
        assert "pipelined.wall_clock_ns=" in text
        assert "barrier.wall_clock_ns=" in text
        assert "pipelined_over_barrier_wall=" in text

    def test_single_pattern_artifact_names_untagged(self, tmp_path):
        checkpoint = str(tmp_path / "model.bin")
        run_benchmark(BenchOptions(
            config=small_config(), checkpoint_path=checkpoint, quiet=True,
        ))
        assert (tmp_path / "model.bin").exists()

    def test_checkpoints_identical_across_patterns(self, tmp_path):
        """Both patterns train to the same bits, so their checkpoints match."""
        reports = run_benchmark(BenchOptions(
            config=small_config(), patterns=("pipelined", "barrier"), quiet=True,
        ))
        a = serialize_model(reports["pipelined"].results[0].model)
        b = serialize_model(reports["barrier"].results[0].model)
        assert a == b

    def test_per_pattern_artifact_name_is_checked(self, monkeypatch, tmp_path):
        """With both patterns the file written is ``t.barrier.csv``; that
        name, not the one given, must not be a directory."""
        monkeypatch.setitem(
            harness.LAUNCHERS, "inproc", lambda *a, **kw: pytest.fail("training started")
        )
        (tmp_path / "t.barrier.csv").mkdir()
        with pytest.raises(ConfigError, match=r"t\.barrier\.csv: it is a directory"):
            run_benchmark(BenchOptions(
                config=small_config(), patterns=("pipelined", "barrier"), quiet=True,
                timeline_path=str(tmp_path / "t.csv"),
            ))

    def test_unknown_transport_rejected(self):
        with pytest.raises(ConfigError, match="transport"):
            run_benchmark(BenchOptions(config=small_config(), transport="carrier-pigeon"))
        # checked before the dataset is read, so no work starts
        with pytest.raises(ConfigError, match="transport"):
            run_benchmark(BenchOptions(
                config=small_config(), transport="carrier-pigeon",
                dataset_csv="/nonexistent/data.csv",
            ))

    def test_tcp_transport_round_trip(self, tmp_path):
        metrics = str(tmp_path / "m.txt")
        reports = run_benchmark(BenchOptions(
            config=small_config(), transport="tcp", verify_oracle=True,
            metrics_path=metrics, quiet=True,
        ))
        assert reports["pipelined"].wall_ns > 0
        assert (tmp_path / "m.txt").read_text().startswith("dataset_sha256=")
