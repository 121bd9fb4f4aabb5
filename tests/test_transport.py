"""In-process transport: one-sided writes, notifications, latency, barrier."""

import threading
import time

import numpy as np
import pytest

from pipesgd.errors import ConfigError, ProtocolError, RangeError, RoutingError, TransportError
from pipesgd.transport import CONTROL_SEGMENT, InprocWorld, LatencyModel, WriteRequest, base
from pipesgd.transport.base import Notifications, Segment


def make_world(size=2, latency=None):
    world = InprocWorld(size, latency)
    transports = [world.transport(r) for r in range(size)]
    for tr in transports:
        tr.segment_create(0, 256, 16)
    return world, transports


def poll_until(tr, first_id, count, hits=1, timeout=2.0):
    """Poll segment 0 of ``tr`` until ``hits`` notifications are visible
    or ``timeout`` seconds passed; returns the last poll."""
    deadline = time.monotonic() + timeout
    while len(seen := tr.notify_poll(0, first_id, count)) < hits and time.monotonic() < deadline:
        time.sleep(1e-4)
    return seen


class TestSegment:
    def test_write_read(self):
        seg = Segment(0, 64, 4)
        seg.write(8, b"\x01\x02\x03")
        assert bytes(seg.read(8, 3)) == b"\x01\x02\x03"

    def test_range_checks(self):
        seg = Segment(0, 64, 4)
        with pytest.raises(RangeError):
            seg.write(62, b"\x00\x00\x00")
        with pytest.raises(RangeError):
            seg.read(-1, 2)

    def test_view_f64_requires_alignment(self):
        seg = Segment(0, 64, 4)
        view = seg.view_f64(8, 4)
        view[:] = [1.0, 2.0, 3.0, 4.0]
        assert bytes(seg.read(8, 32)) == np.array([1.0, 2.0, 3.0, 4.0]).tobytes()
        with pytest.raises(RangeError):
            seg.view_f64(4, 2)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            Segment(0, 0, 4)


class TestNotifications:
    def test_fire_poll_reset(self):
        n = Notifications(8)
        n.fire(3, 7)
        assert n.poll(1, 6) == [(3, 7)]
        assert n.poll(1, 6) == [(3, 7)], "poll must not consume"
        assert n.reset(3) == 7
        assert n.reset(3) == 0
        assert n.poll(1, 6) == []

    def test_poll_respects_range(self):
        n = Notifications(16)
        n.fire(2, 1)
        n.fire(9, 1)
        assert n.poll(1, 5) == [(2, 1)]

    def test_fire_rejects_zero_value(self):
        n = Notifications(8)
        with pytest.raises(ProtocolError):
            n.fire(1, 0)

    def test_fire_rejects_out_of_range_id(self):
        n = Notifications(8)
        with pytest.raises(RangeError):
            n.fire(8, 1)

    def test_poll_returns_sorted_ids(self):
        n = Notifications(32)
        for nid in (9, 3, 17):
            n.fire(nid, 1)
        assert [nid for nid, _ in n.poll(0, 32)] == [3, 9, 17]


class TestInprocWrites:
    def test_write_delivers_bytes_and_notification(self):
        world, (a, b) = make_world()
        payload = np.arange(4, dtype=np.float64)
        a.segment(0).write(0, payload.tobytes())
        end = a.write_notify(WriteRequest(0, 0, 1, 0, 64, 32, 5, 9))
        assert end <= time.monotonic_ns()
        assert b.notify_poll(0, 5, 1) == [(5, 9)]
        assert bytes(b.segment(0).read(64, 32)) == payload.tobytes()
        world.close()

    def test_self_write_allowed(self):
        world, (a, _b) = make_world()
        a.segment(0).write(0, b"\xaa" * 8)
        assert a.write_notify(WriteRequest(0, 0, 0, 0, 128, 8, 3, 1)) <= time.monotonic_ns()
        assert bytes(a.segment(0).read(128, 8)) == b"\xaa" * 8
        world.close()

    def test_zero_latency_completes_inline(self):
        world, (a, _b) = make_world()
        end = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1))
        assert end <= time.monotonic_ns(), "zero-latency delivery happens in the caller's thread"
        world.close()

    def test_notification_value_zero_rejected(self):
        world, (a, _b) = make_world()
        with pytest.raises(ProtocolError):
            a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 0))
        world.close()

    def test_unknown_destination_rank(self):
        world, (a, _b) = make_world()
        with pytest.raises(RoutingError):
            a.write_notify(WriteRequest(0, 0, 7, 0, 0, 16, 1, 1))
        world.close()

    @pytest.mark.parametrize(
        "latency", [None, LatencyModel(fixed_ns=1000)], ids=["zero", "1us-latency"]
    )
    def test_remote_range_violation_raises(self, latency):
        """A write past the end of the peer's segment raises from
        write_notify itself, at any latency, and fires nothing there."""
        world, (a, b) = make_world(latency=latency)
        with pytest.raises(RangeError, match="outside segment 0"):
            a.write_notify(WriteRequest(0, 0, 1, 0, 255, 16, 1, 1))
        a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 2, 1))
        assert poll_until(b, 1, 8) == [(2, 1)]
        world.close()

    @pytest.mark.parametrize("latency", [None, LatencyModel(fixed_ns=1_000_000)])
    def test_write_after_close_raises(self, latency):
        """A closed world's transports refuse writes at once, at any
        latency, and what landed before stays consumable."""
        world, (a, b) = make_world(latency=latency)
        a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1))
        assert poll_until(b, 1, 8) == [(1, 1)]
        world.close()
        with pytest.raises(TransportError, match="closed"):
            a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 2, 1))
        assert b.notify_poll(0, 1, 8) == [(1, 1)]

    def test_duplicate_segment_rejected(self):
        world, (a, _b) = make_world()
        with pytest.raises(ConfigError):
            a.segment_create(0, 64, 4)
        world.close()

    def test_reserved_segment_rejected(self):
        world, (a, _b) = make_world()
        with pytest.raises(ConfigError):
            a.segment_create(CONTROL_SEGMENT, 64, 4)
        world.close()


class TestLatency:
    @pytest.mark.parametrize(
        "fields",
        [
            {"fixed_ns": -1},
            {"per_byte_ns": -0.5},
            {"per_byte_ns": float("nan")},
            {"per_byte_ns": float("inf")},
            {"fixed_ns": float("nan")},
            {"fixed_ns": True},
            {"per_byte_ns": True},
            {"fixed_ns": "5"},
            {"per_byte_ns": None},
        ],
    )
    def test_rejects_negative_or_non_finite(self, fields):
        with pytest.raises(ConfigError, match="latency"):
            LatencyModel(**fields)

    def test_fixed_delay_is_applied(self):
        world, (a, b) = make_world(latency=LatencyModel(fixed_ns=20_000_000, per_byte_ns=0))
        t0 = time.monotonic_ns()
        end = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1))
        assert end - t0 >= 20_000_000, "the write's flight lasts 20 ms"
        assert poll_until(b, 1, 1) == [(1, 1)]
        assert time.monotonic_ns() >= end
        world.close()

    def test_per_byte_delay_scales(self):
        lat = LatencyModel(fixed_ns=0, per_byte_ns=100_000)  # 0.1 ms per byte
        world, (a, _b) = make_world(latency=lat)
        t0 = time.monotonic_ns()
        end = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 64, 1, 1))
        assert end - t0 >= 64 * 100_000
        world.close()

    def test_links_delay_independently(self):
        """Two outgoing links serialize per destination, not globally."""
        lat = LatencyModel(fixed_ns=50_000_000, per_byte_ns=0)
        world = InprocWorld(3, lat)
        transports = [world.transport(r) for r in range(3)]
        for tr in transports:
            tr.segment_create(0, 64, 8)
        t0 = time.monotonic_ns()
        ends = [
            transports[0].write_notify(WriteRequest(0, 0, dst, 0, 0, 16, 1, 1)) for dst in (1, 2)
        ]
        elapsed = max(ends) - t0
        assert elapsed < 95_000_000, f"independent links took {elapsed} ns, expected ~50 ms"
        world.close()

    def test_write_lands_inline_and_notifies_after_its_flight(self):
        """The payload is in the peer's segment when write_notify returns;
        its notification stays hidden from poll and reset for 40 ms."""
        world, (a, b) = make_world(latency=LatencyModel(fixed_ns=40_000_000))
        a.segment(0).write(0, b"\x5a" * 16)
        t0 = time.monotonic_ns()
        end = a.write_notify(WriteRequest(0, 0, 1, 0, 32, 16, 4, 7))
        assert bytes(b.segment(0).read(32, 16)) == b"\x5a" * 16
        assert b.notify_poll(0, 1, 15) == []
        assert b.notify_reset(0, 4) == 0
        assert time.monotonic_ns() - t0 < 40_000_000, "checks above ran after the flight"
        assert end - t0 >= 40_000_000
        assert poll_until(b, 1, 15) == [(4, 7)]
        assert b.notify_reset(0, 4) == 7
        world.close()

    def test_latency_starts_no_threads(self):
        before = set(threading.enumerate())
        world, transports = make_world(3, latency=LatencyModel(fixed_ns=1_000_000))
        for src in transports:
            for dst in range(3):
                src.write_notify(WriteRequest(0, 0, dst, 0, 0, 8, 1 + src.rank, 1))
        assert [t.name for t in threading.enumerate() if t not in before] == []
        world.close()

    def test_same_link_is_fifo(self):
        lat = LatencyModel(fixed_ns=5_000_000, per_byte_ns=0)
        world, (a, b) = make_world(latency=lat)
        first = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 8, 1, 1))
        second = a.write_notify(WriteRequest(0, 8, 1, 0, 8, 8, 2, 1))
        assert second - first >= 5_000_000, "FIFO link: a later write queues behind an earlier one"
        world.close()


class TestBarrier:
    def test_barrier_counts(self):
        world, (a, b) = make_world()
        results = []

        def body(tr):
            tr.barrier()
            results.append(tr.rank)

        threads = [threading.Thread(target=body, args=(t,)) for t in (a, b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(results) == [0, 1]
        assert a.barrier_calls == 1 and b.barrier_calls == 1
        world.close()

    def test_barrier_pays_the_link_latency(self):
        """After the release a fence waits for the flights of tcp's
        dissemination barrier, so the barrier baseline pays the same
        modelled latency on both backends."""
        latency_ns = 40_000_000
        world, transports = make_world(latency=LatencyModel(fixed_ns=latency_ns))
        entered, left = {}, {}

        def body(tr):
            entered[tr.rank] = time.monotonic_ns()
            tr.barrier()
            left[tr.rank] = time.monotonic_ns()

        threads = [threading.Thread(target=body, args=(tr,)) for tr in transports]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert sorted(left) == [0, 1], "a barrier did not return"
        for r in (0, 1):
            assert left[r] - entered[1 - r] >= latency_ns
        world.close()

    def test_zero_latency_barrier_does_not_sleep(self, monkeypatch):
        """Without latency a fence waits for nothing after the release."""
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        world, transports = make_world()
        threads = [threading.Thread(target=tr.barrier) for tr in transports]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads), "a barrier did not return"
        assert slept == []
        world.close()

    def test_abort_unblocks_waiters(self):
        world, (a, _b) = make_world()
        errors = []

        def body():
            try:
                a.barrier()
            except TransportError as exc:
                errors.append(exc)

        t = threading.Thread(target=body)
        t.start()
        time.sleep(0.05)
        world.abort_barrier()
        t.join(timeout=2)
        assert errors
        world.close()

    def test_a_peer_that_never_arrives_breaks_the_fence(self, monkeypatch):
        """A rank that stops without failing cannot hold its peers forever:
        the fence gives up after the bound, as tcp's does."""
        monkeypatch.setattr(base, "BARRIER_TIMEOUT_S", 0.2)
        world, (a, _b) = make_world()
        errors = []

        def body():
            try:
                a.barrier()
            except TransportError as exc:
                errors.append(exc)

        t = threading.Thread(target=body, daemon=True)
        t.start()
        t.join(timeout=3)
        if t.is_alive():
            world.abort_barrier()  # without the bound it waits forever
            t.join(timeout=2)
            pytest.fail("barrier() still waiting 3 s after a 0.2 s bound")
        assert errors and "a peer failed or timed out" in str(errors[0])
        world.close()


class TestConcurrency:
    def test_notification_fires_after_its_payload_landed(self, monkeypatch):
        """Delivery runs in the writer's thread, so no delivery thread races
        a poller; the payload-before-notification order is checked where
        it is made."""
        world, (a, b) = make_world()
        a.segment(0).write(0, b"\x77" * 16)
        seen = []
        fire = Notifications.fire

        def checked_fire(notifications, notification_id, value, visible_at_ns=0):
            seen.append(b.segment(0).read(64, 16))
            fire(notifications, notification_id, value, visible_at_ns)

        monkeypatch.setattr(Notifications, "fire", checked_fire)
        a.write_notify(WriteRequest(0, 0, 1, 0, 64, 16, 1, 1))
        assert seen == [b"\x77" * 16]
        world.close()

    def test_many_concurrent_writers_one_reader(self):
        """Interleaved writes from several threads all land intact."""
        world = InprocWorld(4, LatencyModel(fixed_ns=100_000, per_byte_ns=0))
        transports = [world.transport(r) for r in range(4)]
        for tr in transports:
            tr.segment_create(0, 4096, 64)
        per_writer = 16

        def writer(tr):
            for i in range(per_writer):
                off = ((tr.rank - 1) * per_writer + i) * 8
                nid = (tr.rank - 1) * per_writer + i + 1
                tr.segment(0).write(off, bytes([tr.rank] * 8))
                tr.write_notify(WriteRequest(0, off, 0, 0, off, 8, nid, tr.rank + 1))

        threads = [threading.Thread(target=writer, args=(tr,)) for tr in transports[1:]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hits = poll_until(transports[0], 1, 63, hits=3 * per_writer)
        assert len(hits) == 3 * per_writer
        for rank in (1, 2, 3):
            for i in range(per_writer):
                off = ((rank - 1) * per_writer + i) * 8
                assert bytes(transports[0].segment(0).read(off, 8)) == bytes([rank] * 8)
        world.close()
