"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Criteria summary:
  1. exact oracle equivalence across world sizes, patterns, and backends
  2. analytic gradients match central finite differences
  3. notification happens-before under randomized write stress
  4. the pipelined engine runs barrier-free; the baseline fences 2 per step
  5. latency-injected scheduling analog: wall-clock win and overlap split
  6. binomial tree shapes, including pinned parent maps
  7. update-rule golden values
  8. training reduces the loss on the synthetic task
  9. wire header golden bytes
"""

import statistics
import struct
import sys
import time
import zlib

import numpy as np
import pytest

from pipesgd import net
from pipesgd.engine import TrainConfig, master_update, sequential_sgd
from pipesgd.harness import run_inproc, run_tcp
from pipesgd.timeline import compute_overlap
from pipesgd.topology import build_broadcast_tree, build_reduction_tree, tree_check
from pipesgd.transport import (
    HEADER_SIZE,
    InprocWorld,
    LatencyModel,
    TcpTransport,
    WriteRequest,
    bind_listener,
    pack_write_notify,
)


def _announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    """One pass/fail line per criterion, on the real stdout so it shows up
    in the terminal even while pytest captures test output."""
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num}] {name}: {status}"
    if detail:
        line += f"  ({detail})"
    stream = sys.__stdout__ if sys.__stdout__ is not None else sys.stdout
    stream.write(line + "\n")
    stream.flush()


# -- 1: exact oracle equivalence -------------------------------------------------


def test_criterion_1_oracle_equivalence():
    """Every (world size, pattern, backend) combination reproduces the
    single-process reference optimizer bit for bit, within the time budget."""
    t_begin = time.monotonic()
    failures = []
    for world_size in (1, 2, 3, 4, 8):
        batch = 60 if world_size == 3 else 64
        cfg = TrainConfig(world_size=world_size, batch_size=batch, iterations=50, seed=42)
        ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
        reference = sequential_sgd(cfg, ds)
        for pattern in ("pipelined", "barrier"):
            run_cfg = cfg.replace(pattern=pattern)
            for backend, runner in (("inproc", run_inproc), ("tcp", run_tcp)):
                results = runner(run_cfg, ds)
                for result in results:
                    same = all(
                        got.tobytes() == want.tobytes()
                        for got, want in zip(result.model, reference.layers)
                    ) and len(result.model) == len(reference.layers)
                    if not same:
                        failures.append((world_size, pattern, backend, result.rank))
    elapsed = time.monotonic() - t_begin
    ok = not failures and elapsed < 60.0
    _announce(1, "oracle equivalence", ok,
              f"5 world sizes x 2 patterns x 2 backends bit-identical, {elapsed:.1f}s")
    assert not failures, f"diverging runs: {failures}"
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


# -- 2: gradient correctness ------------------------------------------------------


def test_criterion_2_gradients_match_finite_differences():
    """20 random (model, batch) trials; 10 random coordinates per layer each,
    central differences with eps=1e-6, relative error below 1e-5."""
    eps = 1e-6
    architectures = [(5, 4, 3), (6, 8, 2), (4, 7, 7, 3), (3, 5, 1), (8, 3, 6)]
    worst = 0.0
    checked = 0
    for trial in range(20):
        rng = np.random.default_rng(5000 + trial)
        dims = architectures[trial % len(architectures)]
        specs = net.specs_from_dims(dims)
        model = net.init_model(900 + trial, specs)
        batch = int(rng.integers(1, 7))
        x = rng.normal(size=(batch, dims[0]))
        t = rng.normal(size=(batch, dims[-1]))
        analytic, _ = net.backward(specs, model.layers, x, t)
        for l, flat in enumerate(model.layers):
            coords = rng.choice(len(flat), size=min(10, len(flat)), replace=False)
            for i in coords:
                saved = flat[i]
                flat[i] = saved + eps
                out, _ = net.forward(specs, model.layers, x)
                hi = net.batch_loss(out, t)
                flat[i] = saved - eps
                out, _ = net.forward(specs, model.layers, x)
                lo = net.batch_loss(out, t)
                flat[i] = saved
                numeric = (hi - lo) / (2 * eps)
                rel = abs(analytic[l][i] - numeric) / max(abs(numeric), 1e-8)
                worst = max(worst, rel)
                checked += 1
    ok = worst < 1e-5
    _announce(2, "gradient finite-difference check", ok,
              f"{checked} coordinates, worst relative error {worst:.2e}")
    assert ok, f"worst relative error {worst:.2e} >= 1e-5"


# -- 3: notification happens-before -----------------------------------------------


_STRESS_TRIALS = 10_000
_MAX_PAYLOAD = 1 << 20


def _stress_sizes(rng):
    """Payload sizes, log-uniform over [1 B, 1 MiB], extremes pinned."""
    sizes = (2.0 ** rng.uniform(0.0, 20.0, size=_STRESS_TRIALS)).astype(np.int64)
    sizes[0] = 1
    sizes[1] = _MAX_PAYLOAD
    return np.clip(sizes, 1, _MAX_PAYLOAD)


def _run_write_stress(writer, receiver, seed):
    """Fire randomized notify-writes and validate payload integrity at the
    instant each notification becomes visible.  Returns corruption count."""
    rng = np.random.default_rng(seed)
    sizes = _stress_sizes(rng)
    pool = rng.integers(0, 256, size=_MAX_PAYLOAD + 4096, dtype=np.uint8).tobytes()
    pool_view = memoryview(pool)
    offsets = rng.integers(0, 4096, size=_STRESS_TRIALS)
    corrupt = 0
    src = writer.segment(0)
    dst = receiver.segment(0)
    for t in range(_STRESS_TRIALS):
        n = int(sizes[t])
        body = pool_view[int(offsets[t]):int(offsets[t]) + n]
        src.write(0, body)
        src.write(n, struct.pack("<I", zlib.crc32(body)))
        nid = (t % 8) + 1
        value = (t % 60_000) + 1
        writer.write_notify(WriteRequest(
            local_segment=0, local_offset=0, rank=receiver.rank,
            remote_segment=0, remote_offset=0, size=n + 4,
            notification_id=nid, notification_value=value,
        ))
        deadline = time.monotonic() + 30.0
        while True:
            hits = receiver.notify_poll(0, nid, 1)
            if hits:
                break
            if time.monotonic() > deadline:
                raise AssertionError(f"trial {t}: notification never became visible")
            time.sleep(0)
        assert hits == [(nid, value)], f"trial {t}: unexpected {hits}"
        payload = dst.read(0, n + 4)
        want_crc = struct.unpack("<I", payload[n:n + 4])[0]
        if zlib.crc32(payload[:n]) != want_crc:
            corrupt += 1
        receiver.notify_reset(0, nid)
    return corrupt


def test_criterion_3_notification_happens_before():
    seg_size = _MAX_PAYLOAD + 4 + 64
    corrupt = {}

    # in-process backend: the writer's thread lands each write, and the tiny
    # latency hides its notification until the flight ends; the order of
    # payload and notification is pinned by test_transport.py's
    # TestConcurrency::test_notification_fires_after_its_payload_landed
    world = InprocWorld(2, LatencyModel(fixed_ns=1, per_byte_ns=0.0))
    a, b = world.transport(0), world.transport(1)
    for tr in (a, b):
        tr.segment_create(0, seg_size, 16)
    try:
        corrupt["inproc"] = _run_write_stress(b, a, seed=101)
    finally:
        world.close()

    # tcp backend: delivery happens on the receiver's socket reader thread
    import threading

    listeners = [bind_listener(), bind_listener()]
    addresses = [l.getsockname()[:2] for l in listeners]
    transports = [None, None]

    def build(rank):
        transports[rank] = TcpTransport(rank, 2, listeners[rank], addresses)

    threads = [threading.Thread(target=build, args=(r,)) for r in (0, 1)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30)
    assert all(transports), "tcp mesh setup failed"
    for tr in transports:
        tr.segment_create(0, seg_size, 16)
    try:
        corrupt["tcp"] = _run_write_stress(transports[1], transports[0], seed=202)
    finally:
        for tr in transports:
            tr.close()

    ok = corrupt == {"inproc": 0, "tcp": 0}
    _announce(3, "notification happens-before stress", ok,
              f"{_STRESS_TRIALS} trials per backend, corrupt payloads {corrupt}")
    assert ok, f"corrupt payloads observed: {corrupt}"


# -- 4: barrier freedom ------------------------------------------------------------


def test_criterion_4_barrier_freedom():
    iterations = 20
    cfg = TrainConfig(world_size=4, iterations=iterations, seed=42)
    ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)
    pipelined = run_inproc(cfg, ds)
    baseline = run_inproc(cfg.replace(pattern="barrier"), ds)
    pipelined_calls = [r.barrier_calls for r in pipelined]
    baseline_calls = [r.barrier_calls for r in baseline]
    ok = all(c == 0 for c in pipelined_calls) and all(
        c == 2 * iterations for c in baseline_calls
    )
    _announce(4, "barrier freedom", ok,
              f"pipelined {pipelined_calls}, baseline {baseline_calls} (want 0 / {2 * iterations})")
    assert all(c == 0 for c in pipelined_calls), pipelined_calls
    assert all(c == 2 * iterations for c in baseline_calls), baseline_calls


# -- 5: overlap and wall-clock analog ----------------------------------------------


def test_criterion_5_latency_injected_speedup_and_overlap():
    """With injected link latency (200 us + 20 ns/byte) and inflated per-layer
    compute, the pipelined schedule must win on wall-clock (median of 5) and
    actually hide communication, while the barrier baseline hides none."""
    t_begin = time.monotonic()
    cfg = TrainConfig(
        layer_dims=(10, 64, 96, 96, 96, 96, 64, 10),
        world_size=4, iterations=20, batch_size=64, dataset_size=128,
        seed=42, compute_inflation_ns=3_000_000, finalize_timeout_s=10.0,
    )
    latency = LatencyModel(fixed_ns=200_000, per_byte_ns=20.0)
    ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, cfg.specs(), cfg.input_scale)

    walls = {"pipelined": [], "barrier": []}
    overlaps = {"pipelined": [], "barrier": []}
    for pattern in ("pipelined", "barrier"):
        run_cfg = cfg.replace(pattern=pattern)
        for _ in range(5):
            results = run_tcp(run_cfg, ds, latency=latency, record=True)
            walls[pattern].append(max(r.wall_ns for r in results))
            events = [e for r in results for e in r.events]
            overlaps[pattern].append(compute_overlap(events).overlap_ratio)

    wall_ratio = statistics.median(walls["pipelined"]) / statistics.median(walls["barrier"])
    overlap_pipelined = statistics.median(overlaps["pipelined"])
    overlap_barrier = statistics.median(overlaps["barrier"])
    elapsed = time.monotonic() - t_begin
    ok = (
        wall_ratio <= 0.8
        and overlap_pipelined >= 0.5
        and overlap_barrier <= 0.1
        and elapsed < 300.0
    )
    _announce(5, "latency-injected speedup and overlap", ok,
              f"wall ratio {wall_ratio:.3f} (<=0.8), overlap pipelined "
              f"{overlap_pipelined:.3f} (>=0.5) vs barrier {overlap_barrier:.3f} "
              f"(<=0.1), {elapsed:.0f}s")
    assert wall_ratio <= 0.8, f"pipelined/barrier wall ratio {wall_ratio:.3f}"
    assert overlap_pipelined >= 0.5, f"pipelined overlap {overlap_pipelined:.3f}"
    assert overlap_barrier <= 0.1, f"barrier overlap {overlap_barrier:.3f}"
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget is 300s"


# -- 6: tree properties -------------------------------------------------------------


def test_criterion_6_tree_properties():
    for world_size in range(1, 65):
        tree_check(build_reduction_tree(world_size))
        tree_check(build_broadcast_tree(world_size))

    want_4 = {1: 0, 2: 0, 3: 2}
    want_8 = {1: 0, 2: 0, 3: 2, 4: 0, 5: 4, 6: 4, 7: 6}
    got_4 = build_reduction_tree(4).parent
    got_8 = build_reduction_tree(8).parent
    same_edges = all(
        build_broadcast_tree(s).parent == build_reduction_tree(s).parent
        for s in (1, 2, 3, 4, 8, 64)
    )
    ok = got_4 == want_4 and got_8 == want_8 and same_edges
    _announce(6, "binomial tree shapes", ok,
              "1..64 well-formed, pinned parent maps for 4 and 8 ranks")
    assert got_4 == want_4, got_4
    assert got_8 == want_8, got_8
    assert same_edges


# -- 7: update rule golden ----------------------------------------------------------


def test_criterion_7_update_rule_golden():
    out = master_update(
        np.array([1.0, 0.0, -1.0]), np.array([0.2, 0.0, -0.2]), 0.5
    )
    ok = out.tolist() == [0.9, 0.0, -0.9]
    _announce(7, "update rule golden values", ok, f"got {out.tolist()}")
    assert ok, out.tolist()


# -- 8: training sanity -------------------------------------------------------------


def test_criterion_8_training_reduces_loss():
    """Default net, 4 pipelined ranks, 200 iterations: the whole-dataset loss
    of the final model is under half the initial model's (the initial model
    is what iteration 1's loss is measured against)."""
    cfg = TrainConfig(world_size=4, iterations=200, seed=42)
    specs = cfg.specs()
    ds = net.make_synthetic_dataset(cfg.seed, cfg.dataset_size, specs, cfg.input_scale)
    results = run_inproc(cfg, ds)
    initial = net.dataset_loss(specs, net.init_model(cfg.seed, specs).layers, ds)
    final = net.dataset_loss(specs, results[0].model, ds)
    ok = final < 0.5 * initial
    _announce(8, "training sanity", ok,
              f"dataset loss {initial:.6f} -> {final:.6f} ({final / initial:.3f}x)")
    assert ok, f"final {final:.6f} not below half of initial {initial:.6f}"


# -- 9: wire format golden ----------------------------------------------------------


def test_criterion_9_wire_header_golden_bytes():
    got = pack_write_notify(
        dest_segment=1, dest_offset=32, payload_size=16,
        notification_id=7, notification_value=3,
    )
    expected = bytes.fromhex(
        "544e5747"          # magic "GWNT" little-endian
        "01"                # version
        "00"                # msg type: write_notify
        "0000"              # reserved
        "0100"              # dest segment = 1
        "0000"              # reserved
        "2000000000000000"  # dest offset = 32
        "1000000000000000"  # payload size = 16
        "07000000"          # notification id = 7
        "03000000"          # notification value = 3
    )
    mismatches = [
        (i, g, w) for i, (g, w) in enumerate(zip(got, expected)) if g != w
    ]
    ok = len(got) == len(expected) == HEADER_SIZE and not mismatches
    _announce(9, "wire header golden bytes", ok,
              f"{len(got)} bytes, {len(mismatches)} mismatches")
    assert len(got) == HEADER_SIZE == len(expected)
    assert not mismatches, f"byte mismatches at {mismatches}"
