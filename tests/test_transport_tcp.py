"""TCP mesh transport: framing over real sockets, barriers, failure paths."""

import socket
import threading
import time

import numpy as np
import pytest

from pipesgd.errors import TransportError
from pipesgd.transport import LatencyModel, TcpTransport, WriteRequest, bind_listener, wire


def start_mesh(world_size, latency=None, segment_size=4096, notifications=64):
    """Construct a full mesh of transports on loopback, one thread per rank."""
    listeners = [bind_listener() for _ in range(world_size)]
    addresses = [l.getsockname()[:2] for l in listeners]
    transports: list[TcpTransport | None] = [None] * world_size
    failures = []

    def build(rank):
        try:
            transports[rank] = TcpTransport(rank, world_size, listeners[rank], addresses, latency)
        except Exception as exc:  # pragma: no cover - setup failure reporting
            failures.append((rank, exc))

    threads = [threading.Thread(target=build, args=(r,)) for r in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    if failures:
        raise AssertionError(f"mesh setup failed: {failures}")
    for tr in transports:
        tr.segment_create(0, segment_size, notifications)
    return transports


def close_all(transports):
    for tr in transports:
        tr.close()


class TestMesh:
    def test_two_rank_round_trip(self):
        a, b = start_mesh(2)
        payload = np.arange(16, dtype=np.float64).tobytes()
        a.segment(0).write(0, payload)
        a.write_notify(WriteRequest(0, 0, 1, 0, 256, len(payload), 3, 9)).wait(5.0)
        deadline = time.monotonic() + 5
        while not b.notify_poll(0, 3, 1):
            assert time.monotonic() < deadline, "notification never arrived"
            time.sleep(0.001)
        assert b.notify_poll(0, 3, 1) == [(3, 9)]
        assert bytes(b.segment(0).read(256, len(payload))) == payload
        assert b.notify_reset(0, 3) == 9
        close_all([a, b])

    def test_self_write_skips_sockets(self):
        (a,) = start_mesh(1)
        a.segment(0).write(0, b"\x11" * 8)
        ticket = a.write_notify(WriteRequest(0, 0, 0, 0, 64, 8, 1, 1))
        ticket.wait(1.0)
        assert bytes(a.segment(0).read(64, 8)) == b"\x11" * 8
        close_all([a])

    def test_payload_larger_than_socket_buffer(self):
        """A multi-megabyte write arrives intact across partial sends and reads."""
        a, b = start_mesh(2, segment_size=4 * 1024 * 1024)
        rng = np.random.default_rng(0)
        payload = rng.integers(0, 256, size=3_000_000, dtype=np.uint8).tobytes()
        a.segment(0).write(0, payload)
        a.write_notify(WriteRequest(0, 0, 1, 0, 0, len(payload), 5, 1)).wait(30.0)
        deadline = time.monotonic() + 30
        while not b.notify_poll(0, 5, 1):
            assert time.monotonic() < deadline
            time.sleep(0.002)
        assert bytes(b.segment(0).read(0, len(payload))) == payload
        close_all([a, b])

    def test_latency_applies_per_message(self):
        a, b = start_mesh(2, latency=LatencyModel(fixed_ns=30_000_000, per_byte_ns=0))
        t0 = time.monotonic_ns()
        a.write_notify(WriteRequest(0, 0, 1, 0, 0, 8, 1, 1)).wait(5.0)
        assert time.monotonic_ns() - t0 >= 30_000_000
        close_all([a, b])

    def test_barrier_synchronizes_three_ranks(self):
        transports = start_mesh(3)
        order = []
        lock = threading.Lock()

        def body(tr, delay):
            time.sleep(delay)
            with lock:
                order.append(("before", tr.rank))
            tr.barrier()
            with lock:
                order.append(("after", tr.rank))

        threads = [
            threading.Thread(target=body, args=(tr, 0.05 * tr.rank)) for tr in transports
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        befores = [i for i, (phase, _) in enumerate(order) if phase == "before"]
        afters = [i for i, (phase, _) in enumerate(order) if phase == "after"]
        assert max(befores) < min(afters), f"barrier crossed early: {order}"
        assert all(tr.barrier_calls == 1 for tr in transports)
        close_all(transports)

    def test_repeated_barriers(self):
        transports = start_mesh(2)
        errors = []

        def body(tr):
            try:
                for _ in range(25):
                    tr.barrier()
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=body, args=(tr,)) for tr in transports]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert transports[0].barrier_calls == 25
        close_all(transports)


class TestFailure:
    def test_dead_peer_surfaces_as_transport_error(self):
        """Killing one endpoint fails in-flight work instead of hanging."""
        a, b = start_mesh(2, segment_size=1 << 20)
        b.close()  # rank 1 dies abruptly
        with pytest.raises(TransportError):
            # either the send itself fails or the failure flag trips; keep
            # pushing data until the broken pipe becomes visible
            for _ in range(200):
                a.write_notify(WriteRequest(0, 0, 1, 0, 0, 1 << 20, 1, 1)).wait(5.0)
        a.close()

    def test_out_of_range_write_fails_the_receiver(self):
        """The destination range is checked before the payload is read, so
        a write past the end of the peer's segment fails the peer's
        transport and leaves its segment bytes untouched."""
        a, b = start_mesh(2, segment_size=4096)
        a.segment(0).write(0, b"\xab" * 256)
        a.write_notify(WriteRequest(0, 0, 1, 0, 4000, 256, 1, 1)).wait(5.0)
        deadline = time.monotonic() + 5
        with pytest.raises(TransportError, match="outside segment 0"):
            while time.monotonic() < deadline:
                b.notify_poll(0, 1, 8)
                time.sleep(0.002)
        assert b.segment(0).read(0, 4096) == bytes(4096)
        close_all([a, b])

    def test_frame_cut_mid_payload_fails_the_receiver(self):
        """A peer that dies after a frame's header and part of its payload
        fails the receiver's polls, and the cut write never notifies."""
        a, b = start_mesh(2)
        sock = a._peers[1]
        sock.sendall(wire.pack_write_notify(0, 0, 256, 5, 1) + b"\xab" * 100)
        sock.shutdown(socket.SHUT_RDWR)
        deadline = time.monotonic() + 5
        with pytest.raises(TransportError, match="mid-frame"):
            while time.monotonic() < deadline:
                b.notify_poll(0, 1, 8)
                time.sleep(0.002)
        assert b.segment(0).notifications.poll(5, 1) == []
        close_all([a, b])

    def test_poll_surfaces_peer_failure_when_idle(self):
        a, b = start_mesh(2)
        b.close()
        deadline = time.monotonic() + 5
        with pytest.raises(TransportError):
            while time.monotonic() < deadline:
                a.notify_poll(0, 1, 8)
                time.sleep(0.002)
        a.close()

    @pytest.mark.parametrize("latency", [None, LatencyModel(fixed_ns=1_000_000)])
    def test_write_after_close_raises(self, latency):
        """A closed endpoint refuses writes at once, to peers and to itself,
        instead of returning a ticket that never completes."""
        a, b = start_mesh(2, latency)
        a.close()
        for dest in (1, 0):
            with pytest.raises(TransportError, match="closed"):
                a.write_notify(WriteRequest(0, 0, dest, 0, 0, 16, 1, 1))
        b.close()

    def test_clean_close_is_not_a_failure(self):
        a, b = start_mesh(2)
        close_all([a, b])
        # closing twice stays quiet
        close_all([a, b])
