"""Socket transport: one OS process per rank, length-prefixed frames.

Connection setup: every rank dials every higher rank and sends a hello
frame naming itself; lower ranks are discovered by accepting and reading
the hello.  After setup each pair of ranks shares one TCP connection used
in both directions.

``write_notify`` sends each write as one frame from the writer's own
thread.  Each peer connection has one receive loop per side, the only
thread the transport runs: it applies incoming writes to local segments
and fires their notifications, each visible once the frame's modeled
flight, timed on the loop's own clock for that link, is over.  The
receiving application thread never performs a transport call for a
transfer to complete; it only polls notification slots.  A write to the
rank itself lands directly in its own segment.

A peer that goes away is a failed peer, whether its connection breaks or
closes cleanly: once that peer's last flight is over, the receive loop
fails the transport, and its next write, empty poll or fence raises.
Ranks that finish therefore keep their mesh open until their launcher
releases them.
"""

from __future__ import annotations

import socket
import threading
import time

from ..errors import ConfigError, ProtocolError, TransportError
from . import base, wire
from .base import CONTROL_SEGMENT, LatencyModel, Segment, TransportBase, WriteRequest

_CONNECT_TIMEOUT = 30.0


def _recv_into(sock: socket.socket, buf) -> bool:
    """Fill buf from the socket; False on clean EOF before the first byte."""
    view = memoryview(buf)
    n = len(view)
    got = 0
    while got < n:
        r = sock.recv_into(view[got:], n - got)
        if r == 0:
            if got == 0:
                return False
            raise TransportError(f"connection closed mid-frame ({got}/{n} bytes)")
        got += r
    return True


def _send_frame(sock: socket.socket, req: WriteRequest, payload) -> None:
    """Send one write-notify frame, header and payload straight from their
    buffers."""
    header = wire.pack_write_notify(
        req.remote_segment,
        req.remote_offset,
        req.size,
        req.notification_id,
        req.notification_value,
    )
    buffers = [memoryview(header), memoryview(payload)]
    while buffers:
        sent = sock.sendmsg(buffers)
        while buffers and sent >= len(buffers[0]):
            sent -= len(buffers.pop(0))
        if sent:
            buffers[0] = buffers[0][sent:]


class TcpTransport(TransportBase):
    """One rank's endpoint of a fully connected localhost/TCP mesh."""

    def __init__(
        self,
        rank: int,
        world_size: int,
        listener: socket.socket,
        addresses: list[tuple[str, int]],
        latency: LatencyModel | None = None,
    ):
        super().__init__(rank, world_size, latency)
        if world_size > 1 and len(addresses) != world_size:
            raise ConfigError(f"need {world_size} addresses, got {len(addresses)}")
        self._peers: dict[int, socket.socket] = {}
        self._recv_threads: list[threading.Thread] = []
        self._barrier_seq = 0
        # control segment for barrier traffic; bypasses segment_create on
        # purpose, the id is reserved and exists before any peer can write.
        self._segments[CONTROL_SEGMENT] = Segment(CONTROL_SEGMENT, 1, 64)
        self._connect_mesh(listener, addresses)

    # -- mesh setup ---------------------------------------------------------
    def _connect_mesh(self, listener: socket.socket, addresses: list[tuple[str, int]]) -> None:
        listener.settimeout(_CONNECT_TIMEOUT)
        try:
            for peer in range(self.rank + 1, self.world_size):
                sock = socket.create_connection(addresses[peer], timeout=_CONNECT_TIMEOUT)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(wire.pack_hello(self.rank))
                self._peers[peer] = sock
            for _ in range(self.rank):
                sock, _addr = listener.accept()
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = bytearray(wire.HELLO_SIZE)
                if not _recv_into(sock, hello):
                    raise TransportError("peer closed connection before hello")
                peer = wire.unpack_hello(bytes(hello))
                if not (0 <= peer < self.rank) or peer in self._peers:
                    raise ProtocolError(f"unexpected hello from rank {peer}")
                self._peers[peer] = sock
        except (OSError, socket.timeout) as exc:
            raise TransportError(f"mesh setup failed on rank {self.rank}: {exc}") from exc
        finally:
            listener.close()
        for peer, sock in self._peers.items():
            sock.settimeout(None)
            t = threading.Thread(
                target=self._recv_loop,
                args=(peer, sock),
                name=f"tcp-recv-{self.rank}-{peer}",
                daemon=True,
            )
            t.start()
            self._recv_threads.append(t)

    # -- receive path -------------------------------------------------------
    def _recv_loop(self, peer: int, sock: socket.socket) -> None:
        """Apply incoming frames: the payload is received straight into its
        destination range, which is checked before any byte is read.  Each
        notification becomes visible when the frame's flight, timed on
        this loop's clock for the link from ``peer`` from the moment its
        header arrived, is over, and never before its payload landed."""
        header = bytearray(wire.HEADER_SIZE)
        visible_at = 0
        try:
            while True:
                if not _recv_into(sock, header):
                    # clean close: the frame stream ended on a boundary, so
                    # once the last flight is over every notification the
                    # peer fired is visible; only then does the close fail
                    # this endpoint
                    time.sleep(max(0, visible_at - time.monotonic_ns()) * 1e-9)
                    raise TransportError(f"rank {peer} closed its connection")
                fh = wire.unpack_write_notify(bytes(header))
                seg = self.segment(fh.dest_segment)
                seg.check_range(fh.dest_offset, fh.payload_size)
                dest = seg.data[fh.dest_offset : fh.dest_offset + fh.payload_size]
                # the flight starts when the header arrives, not after the
                # payload's transfer; that is later than the sender timed
                # the same flight by the header's delivery time (README,
                # "Transport model")
                visible_at = self.latency.flight_end(fh.payload_size, visible_at)
                if not _recv_into(sock, dest):
                    raise TransportError("connection closed before payload")
                seg.notifications.fire(fh.notification_id, fh.notification_value, visible_at)
        except Exception as exc:
            if not self._closing:
                self._mark_failed(exc)
            # the failure's traceback keeps this frame; unbind the transport
            # from it, or that cycle keeps every segment alive until a GC pass
            del self

    # -- one-sided ops ------------------------------------------------------
    def write_notify(self, req: WriteRequest) -> int:
        """Send one write as a frame from the caller's thread; a write to
        this rank lands directly.  Returns the monotonic time, in ns, at
        which the write's flight ends.  Only one thread per transport may
        write: frames from two threads could interleave on a socket, and
        the peer's magic check would then raise ``FormatError``."""
        payload, end = self._post(req)
        if req.rank == self.rank:
            self.segment(req.remote_segment).land(req, payload, end)
            return end
        try:
            _send_frame(self._peers[req.rank], req, payload)
        except OSError as exc:
            # a partly sent frame leaves the stream unusable
            self._mark_failed(exc)
            raise TransportError(f"rank {self.rank}: send to rank {req.rank} failed: {exc}") from exc
        return end

    # the base poll, in this class's own __dict__ for wrappers that count per class
    notify_poll = TransportBase.notify_poll

    # -- collective ---------------------------------------------------------
    def barrier(self) -> None:
        """Dissemination barrier built from size-0 notify writes.

        Round t: tell rank (r + 2^t) mod s, wait for (r - 2^t) mod s.  Slots
        alternate by barrier parity so a rank one barrier ahead can never
        overwrite a flag its partner has not consumed yet.
        """
        self.barrier_calls += 1
        if self.world_size == 1:
            return
        self._barrier_seq += 1
        seq = self._barrier_seq
        rounds = (self.world_size - 1).bit_length()
        control = self._segments[CONTROL_SEGMENT]
        for t in range(rounds):
            dst = (self.rank + (1 << t)) % self.world_size
            nid = 1 + 2 * t + (seq & 1)
            self.write_notify(
                WriteRequest(CONTROL_SEGMENT, 0, dst, CONTROL_SEGMENT, 0, 0, nid, seq)
            )
            deadline = time.monotonic() + base.BARRIER_TIMEOUT_S
            while True:
                got = control.notifications.reset(nid)
                if got == seq:
                    break
                if got != 0:
                    raise ProtocolError(f"barrier slot held {got}, expected {seq}")
                self._check_failed()
                if time.monotonic() > deadline:
                    raise TransportError(f"barrier timed out after {base.BARRIER_TIMEOUT_S} s")
                time.sleep(base.IDLE_SLEEP_S)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        super().close()
        for sock in self._peers.values():
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            sock.close()
        for t in self._recv_threads:
            t.join(timeout=5)


def bind_listener(host: str = "127.0.0.1", port: int = 0) -> socket.socket:
    """Bound, listening socket; the assigned port is in getsockname()."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind((host, port))
    sock.listen(64)
    return sock
