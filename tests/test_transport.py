"""In-process transport: one-sided writes, notifications, latency, barrier."""

import threading
import time

import numpy as np
import pytest

from pipesgd.errors import ConfigError, ProtocolError, RangeError, RoutingError, TransportError
from pipesgd.transport import CONTROL_SEGMENT, InprocWorld, LatencyModel, WriteRequest
from pipesgd.transport.base import Notifications, Segment, Ticket, completed_ticket


def make_world(size=2, latency=None):
    world = InprocWorld(size, latency)
    transports = [world.transport(r) for r in range(size)]
    for tr in transports:
        tr.segment_create(0, 256, 16)
    return world, transports


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


class TestTicket:
    def test_completed_ticket_is_done(self):
        t = completed_ticket()
        assert t.done
        t.wait(0.01)

    def test_wait_times_out(self):
        t = Ticket()
        with pytest.raises(TransportError, match="did not complete"):
            t.wait(0.01)

    def test_failed_ticket_raises_cause(self):
        t = Ticket()
        t.fail(RuntimeError("link down"))
        with pytest.raises(TransportError, match="link down"):
            t.wait(0.01)


class TestInprocWrites:
    def test_write_delivers_bytes_and_notification(self):
        world, (a, b) = make_world()
        payload = np.arange(4, dtype=np.float64)
        a.segment(0).write(0, payload.tobytes())
        ticket = a.write_notify(WriteRequest(0, 0, 1, 0, 64, 32, 5, 9))
        ticket.wait(1.0)
        assert b.notify_poll(0, 5, 1) == [(5, 9)]
        assert bytes(b.segment(0).read(64, 32)) == payload.tobytes()
        world.close()

    def test_self_write_allowed(self):
        world, (a, _b) = make_world()
        a.segment(0).write(0, b"\xaa" * 8)
        a.write_notify(WriteRequest(0, 0, 0, 0, 128, 8, 3, 1)).wait(1.0)
        assert bytes(a.segment(0).read(128, 8)) == b"\xaa" * 8
        world.close()

    def test_zero_latency_completes_inline(self):
        world, (a, _b) = make_world()
        ticket = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1))
        assert ticket.done, "zero-latency delivery happens in the caller's thread"
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

    def test_remote_range_violation_fails_ticket(self):
        """A failed delayed delivery fails the ticket and the sender: its
        next write and its next empty poll raise."""
        world, (a, _b) = make_world(latency=LatencyModel(fixed_ns=1000, per_byte_ns=0))
        ticket = a.write_notify(WriteRequest(0, 0, 1, 0, 255, 16, 1, 1))
        with pytest.raises(TransportError):
            ticket.wait(1.0)
        with pytest.raises(TransportError, match="outside segment 0"):
            a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 2, 1))
        with pytest.raises(TransportError, match="outside segment 0"):
            a.notify_poll(0, 1, 8)
        world.close()

    @pytest.mark.parametrize("latency", [None, LatencyModel(fixed_ns=1_000_000)])
    def test_write_after_close_raises(self, latency):
        """A closed world's transports refuse writes at once, whether or not
        a link to the peer was running."""
        world, (a, b) = make_world(latency=latency)
        a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1)).wait(1.0)
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
    def test_fixed_delay_is_applied(self):
        world, (a, b) = make_world(latency=LatencyModel(fixed_ns=20_000_000, per_byte_ns=0))
        t0 = time.monotonic_ns()
        ticket = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1))
        assert not ticket.done, "the write is queued behind a 20 ms link delay"
        ticket.wait(2.0)
        assert ticket.completed_at_ns - t0 >= 20_000_000
        assert b.notify_poll(0, 1, 1) == [(1, 1)]
        world.close()

    def test_per_byte_delay_scales(self):
        lat = LatencyModel(fixed_ns=0, per_byte_ns=100_000)  # 0.1 ms per byte
        world, (a, _b) = make_world(latency=lat)
        t0 = time.monotonic_ns()
        a.write_notify(WriteRequest(0, 0, 1, 0, 0, 64, 1, 1)).wait(5.0)
        assert time.monotonic_ns() - t0 >= 64 * 100_000
        world.close()

    def test_links_delay_independently(self):
        """Two outgoing links serialize per destination, not globally."""
        lat = LatencyModel(fixed_ns=50_000_000, per_byte_ns=0)
        world = InprocWorld(3, lat)
        transports = [world.transport(r) for r in range(3)]
        for tr in transports:
            tr.segment_create(0, 64, 8)
        t0 = time.monotonic_ns()
        t1 = transports[0].write_notify(WriteRequest(0, 0, 1, 0, 0, 16, 1, 1))
        t2 = transports[0].write_notify(WriteRequest(0, 0, 2, 0, 0, 16, 1, 1))
        transports[0].ticket_wait_all([t1, t2], timeout=2.0)
        elapsed = time.monotonic_ns() - t0
        assert elapsed < 95_000_000, f"independent links took {elapsed} ns, expected ~50 ms"
        world.close()

    def test_same_link_is_fifo(self):
        lat = LatencyModel(fixed_ns=5_000_000, per_byte_ns=0)
        world, (a, b) = make_world(latency=lat)
        first = a.write_notify(WriteRequest(0, 0, 1, 0, 0, 8, 1, 1))
        second = a.write_notify(WriteRequest(0, 8, 1, 0, 8, 8, 2, 1))
        second.wait(2.0)
        assert first.done, "FIFO link: earlier write completes before a later one"
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


class TestConcurrency:
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
                tr.write_notify(WriteRequest(0, off, 0, 0, off, 8, nid, tr.rank + 1)).wait(2.0)

        threads = [threading.Thread(target=writer, args=(tr,)) for tr in transports[1:]]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hits = transports[0].notify_poll(0, 1, 63)
        assert len(hits) == 3 * per_writer
        for rank in (1, 2, 3):
            for i in range(per_writer):
                off = ((rank - 1) * per_writer + i) * 8
                assert bytes(transports[0].segment(0).read(off, 8)) == bytes([rank] * 8)
        world.close()
