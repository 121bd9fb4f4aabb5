"""Socket transport: one OS process per rank, length-prefixed frames.

Connection setup: every rank dials every higher rank and sends a hello
frame naming itself; lower ranks are discovered by accepting and reading
the hello.  After setup each pair of ranks shares one TCP connection used
in both directions.

Each peer connection owns two threads on each side: the sender's
:class:`DelayedLink`, which applies the modeled flight delay and writes
frames to the socket in trigger order, and a receive loop that applies
incoming writes to local segments and fires their notifications.  The
receiving application thread never performs a transport call for a
transfer to complete; it only polls notification slots.  A write to the
rank itself lands directly in its own segment.
"""

from __future__ import annotations

import functools
import socket
import threading
import time

from ..errors import ConfigError, ProtocolError, TransportError
from . import wire
from .base import (
    CONTROL_SEGMENT,
    DelayedLink,
    LatencyModel,
    Segment,
    Ticket,
    TransportBase,
    WriteRequest,
    completed_ticket,
)

_CONNECT_TIMEOUT = 30.0
_BARRIER_TIMEOUT = 120.0
_POLL_SLEEP = 2e-5


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
        listener: socket.socket | None,
        addresses: list[tuple[str, int]],
        latency: LatencyModel | None = None,
    ):
        super().__init__(rank, world_size, latency)
        if world_size > 1 and len(addresses) != world_size:
            raise ConfigError(f"need {world_size} addresses, got {len(addresses)}")
        # peers that closed their side cleanly (EOF on a frame boundary);
        # everything they ever sent has already been applied by then
        self._peers_closed: set[int] = set()
        self._peers: dict[int, socket.socket] = {}
        self._recv_threads: list[threading.Thread] = []
        self._barrier_seq = 0
        # control segment for barrier traffic; bypasses segment_create on
        # purpose, the id is reserved and exists before any peer can write.
        self._segments[CONTROL_SEGMENT] = Segment(CONTROL_SEGMENT, 1, 64)
        if listener is not None:
            self._connect_mesh(listener, addresses)
        elif world_size > 1:
            raise ConfigError("a bound listening socket is required for world_size > 1")

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
            self._links[peer] = DelayedLink(
                self, f"tcp-send-{self.rank}-{peer}", functools.partial(_send_frame, sock)
            )
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
        destination range, which is checked before any byte is read."""
        header = bytearray(wire.HEADER_SIZE)
        try:
            while True:
                if not _recv_into(sock, header):
                    # clean close: the frame stream ended on a boundary, so
                    # every notification the peer fired is already visible.
                    # Record it per peer instead of failing the transport;
                    # waits that still depend on this peer raise themselves.
                    self._peers_closed.add(peer)
                    return
                fh = wire.unpack_write_notify(bytes(header))
                seg = self.segment(fh.dest_segment)
                seg.check_range(fh.dest_offset, fh.payload_size)
                dest = seg.data[fh.dest_offset : fh.dest_offset + fh.payload_size]
                if not _recv_into(sock, dest):
                    raise TransportError("connection closed before payload")
                seg.notifications.fire(fh.notification_id, fh.notification_value)
        except Exception as exc:
            if not self._closing:
                self._mark_failed(exc)

    # -- one-sided ops ------------------------------------------------------
    def write_notify(self, req: WriteRequest) -> Ticket:
        payload = self._source(req)
        if req.rank == self.rank:
            self.segment(req.remote_segment).land(req, payload)
            return completed_ticket()
        return self._links[req.rank].submit(req, payload)

    def notify_poll(self, segment_id: int, first_id: int, count: int) -> list[tuple[int, int]]:
        hits = self.segment(segment_id).notifications.poll(first_id, count)
        if not hits:
            # only surface peer loss when there is nothing left to consume;
            # already-delivered data stays readable during teardown.
            self._check_failed()
            if self._peers_closed and not self._closing:
                gone = min(self._peers_closed)
                raise TransportError(f"rank {gone} closed its connection")
        return hits

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
            src = (self.rank - (1 << t)) % self.world_size
            nid = 1 + 2 * t + (seq & 1)
            self.write_notify(
                WriteRequest(CONTROL_SEGMENT, 0, dst, CONTROL_SEGMENT, 0, 0, nid, seq)
            )
            deadline = time.monotonic() + _BARRIER_TIMEOUT
            while True:
                got = control.notifications.reset(nid)
                if got == seq:
                    break
                if got != 0:
                    raise ProtocolError(f"barrier slot held {got}, expected {seq}")
                self._check_failed()
                if src in self._peers_closed:
                    # a clean close delivers everything first, so one more
                    # look at the slot decides whether the peer made it
                    got = control.notifications.reset(nid)
                    if got == seq:
                        break
                    raise TransportError(
                        f"rank {src} closed its connection before completing the barrier"
                    )
                if time.monotonic() > deadline:
                    raise TransportError(f"barrier timed out after {_BARRIER_TIMEOUT} s")
                time.sleep(_POLL_SLEEP)

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
