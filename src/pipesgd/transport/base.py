"""Shared pieces of the one-sided notify-write transport.

A transport exposes remotely writable memory as numbered segments.  Each
segment owns an array of notification slots.  A write lands first, its
notification fires after the last payload byte is visible
(:meth:`Segment.land`), and polling is non-blocking; that happens-before
edge is the only synchronization the training protocol relies on.

Backends differ only in how a write reaches its peer.  Injected latency
and in-order delivery per directed link are common to all of them: a
:class:`DelayedLink` queues a transport's writes to one peer, waits each
one's modeled flight time and hands it to the backend's delivery callback.
The sending transport owns its links and stops them on ``close``.  Writes
are checked on the sending side first (:meth:`TransportBase._source`): a
closed or failed transport, an unknown destination rank or a bad local
range raises at once.
"""

from __future__ import annotations

import queue
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, ProtocolError, RangeError, RoutingError, TransportError

# segment id reserved for transport-internal control traffic (barrier).
CONTROL_SEGMENT = 15


@dataclass(frozen=True)
class LatencyModel:
    """Synthetic per-message delay: fixed_ns + size_bytes * per_byte_ns."""

    fixed_ns: int = 0
    per_byte_ns: float = 0.0

    def delay_seconds(self, size_bytes: int) -> float:
        return (self.fixed_ns + size_bytes * self.per_byte_ns) * 1e-9

    @property
    def is_zero(self) -> bool:
        return self.fixed_ns == 0 and self.per_byte_ns == 0.0


@dataclass(frozen=True)
class WriteRequest:
    """One one-sided write: local source range -> remote segment range.

    The source range must stay unmodified until the returned ticket
    completes.  ``notification_value`` must be nonzero; value 0 is the
    "nothing fired" marker on the receive side.
    """

    local_segment: int
    local_offset: int
    rank: int
    remote_segment: int
    remote_offset: int
    size: int
    notification_id: int
    notification_value: int


class Ticket:
    """Completion handle for one triggered write."""

    __slots__ = ("_event", "error", "completed_at_ns")

    def __init__(self) -> None:
        self._event = threading.Event()
        self.error: Exception | None = None
        self.completed_at_ns: int = 0

    def complete(self) -> None:
        self.completed_at_ns = time.monotonic_ns()
        self._event.set()

    def fail(self, exc: Exception) -> None:
        self.error = exc
        self.completed_at_ns = time.monotonic_ns()
        self._event.set()

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> None:
        if not self._event.wait(timeout):
            raise TransportError(f"write did not complete within {timeout} s")
        if self.error is not None:
            raise TransportError(str(self.error)) from self.error


def completed_ticket() -> Ticket:
    t = Ticket()
    t.complete()
    return t


class Notifications:
    """Fired-notification table of one segment; consume-once via reset."""

    def __init__(self, count: int):
        self.count = count
        self._fired: dict[int, int] = {}
        self._lock = threading.Lock()

    def fire(self, notification_id: int, value: int) -> None:
        if not (0 <= notification_id < self.count):
            raise RangeError(f"notification id {notification_id} outside 0..{self.count - 1}")
        if value == 0:
            raise ProtocolError("notification value 0 is reserved for 'not fired'")
        with self._lock:
            self._fired[notification_id] = value

    def poll(self, first_id: int, count: int) -> list[tuple[int, int]]:
        if first_id < 0 or count < 0 or first_id + count > self.count:
            raise RangeError(
                f"poll range [{first_id}, {first_id + count}) outside 0..{self.count - 1}"
            )
        last = first_id + count
        with self._lock:
            hits = [(nid, v) for nid, v in self._fired.items() if first_id <= nid < last]
        hits.sort()
        return hits

    def reset(self, notification_id: int) -> int:
        """Atomically clear one slot; returns its value, 0 if it was not fired."""
        if not (0 <= notification_id < self.count):
            raise RangeError(f"notification id {notification_id} outside 0..{self.count - 1}")
        with self._lock:
            return self._fired.pop(notification_id, 0)


class Segment:
    """Remotely writable byte region plus its notification slots."""

    def __init__(self, segment_id: int, size: int, notification_count: int):
        if size < 1:
            raise ConfigError(f"segment size must be >= 1, got {size}")
        if notification_count < 1:
            raise ConfigError(f"notification count must be >= 1, got {notification_count}")
        self.segment_id = segment_id
        self.size = size
        self.data = np.zeros(size, dtype=np.uint8)
        self.notifications = Notifications(notification_count)

    def check_range(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise RangeError(
                f"range [{offset}, {offset + size}) outside segment {self.segment_id}"
                f" of size {self.size}"
            )

    def write(self, offset: int, payload) -> None:
        """Copy payload bytes into the segment.  Callers fire notifications
        only after this returns, which is what gives receivers the
        payload-before-notification ordering."""
        n = len(payload)
        self.check_range(offset, n)
        if n:
            self.data[offset : offset + n] = np.frombuffer(payload, dtype=np.uint8)

    def land(self, req: WriteRequest, payload) -> None:
        """Deliver one write here: copy its payload, then fire its
        notification, so a poller that sees the notification sees every
        payload byte."""
        self.write(req.remote_offset, payload)
        self.notifications.fire(req.notification_id, req.notification_value)

    def read(self, offset: int, size: int) -> bytes:
        self.check_range(offset, size)
        return self.data[offset : offset + size].tobytes()

    def view_f64(self, offset: int, count: int) -> np.ndarray:
        """float64 view of an 8-aligned byte range; no copy."""
        self.check_range(offset, count * 8)
        if offset % 8:
            raise RangeError(f"float64 view needs 8-byte alignment, offset {offset}")
        return self.data[offset : offset + count * 8].view(np.float64)


class TransportBase:
    """Segment bookkeeping and local-side operations common to all backends."""

    def __init__(self, rank: int, world_size: int, latency: LatencyModel | None = None):
        if world_size < 1:
            raise ConfigError(f"world size must be >= 1, got {world_size}")
        if not (0 <= rank < world_size):
            raise ConfigError(f"rank {rank} outside world of size {world_size}")
        self.rank = rank
        self.world_size = world_size
        self.latency = latency or LatencyModel()
        self.barrier_calls = 0
        self._segments: dict[int, Segment] = {}
        # outgoing delayed links by destination rank; close() stops them
        self._links: dict[int, DelayedLink] = {}
        self._closing = False
        # first error that broke this endpoint; raised by later calls
        self._failure: Exception | None = None

    # -- segments ---------------------------------------------------------
    def segment_create(self, segment_id: int, size: int, notification_count: int) -> Segment:
        if not (0 <= segment_id < 65536):
            raise ConfigError(f"segment id {segment_id} outside u16 range")
        if segment_id == CONTROL_SEGMENT:
            raise ConfigError(f"segment id {CONTROL_SEGMENT} is reserved for the transport")
        if segment_id in self._segments:
            raise ConfigError(f"segment {segment_id} already exists on rank {self.rank}")
        seg = Segment(segment_id, size, notification_count)
        self._segments[segment_id] = seg
        return seg

    def segment(self, segment_id: int) -> Segment:
        try:
            return self._segments[segment_id]
        except KeyError:
            raise ConfigError(f"segment {segment_id} does not exist on rank {self.rank}") from None

    # -- failure ------------------------------------------------------------
    def _mark_failed(self, exc: Exception) -> None:
        if self._failure is None:
            self._failure = exc

    def _check_failed(self) -> None:
        if self._failure is not None:
            raise TransportError(f"transport failed: {self._failure}") from self._failure

    # -- local notification ops -------------------------------------------
    def notify_poll(self, segment_id: int, first_id: int, count: int) -> list[tuple[int, int]]:
        hits = self.segment(segment_id).notifications.poll(first_id, count)
        if not hits:
            # already-delivered data stays consumable after a failure
            self._check_failed()
        return hits

    def notify_reset(self, segment_id: int, notification_id: int) -> int:
        return self.segment(segment_id).notifications.reset(notification_id)

    # -- writes -------------------------------------------------------------
    def ticket_wait_all(self, tickets, timeout: float | None = None) -> None:
        """Block until every ticket completes; raises on failure or timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for t in tickets:
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            t.wait(remaining)

    def _source(self, req: WriteRequest) -> np.ndarray:
        """Checks the local side of a write; returns its source bytes.

        A write on a closed or failed transport, or to a rank outside the
        world, raises here, so it never returns a ticket that cannot
        complete.
        """
        if self._closing:
            raise TransportError(f"rank {self.rank}: transport is closed")
        self._check_failed()
        if not (0 <= req.rank < self.world_size):
            raise RoutingError(f"rank {req.rank} outside world of size {self.world_size}")
        if req.size < 0:
            raise RangeError(f"write size must be >= 0, got {req.size}")
        if req.notification_value == 0:
            raise ProtocolError("notification value 0 is reserved; use values >= 1")
        src = self.segment(req.local_segment)
        src.check_range(req.local_offset, req.size)
        return src.data[req.local_offset : req.local_offset + req.size]

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Refuse new writes and stop the outgoing links once their queued
        writes are delivered.  Call it after this endpoint's last write has
        returned: a write racing it could start a link that nothing stops."""
        self._closing = True
        for link in self._links.values():
            link.close()


class DelayedLink:
    """FIFO delivery over one directed link, after the modeled flight time.

    One thread per link takes writes in trigger order, sleeps
    ``latency.delay_seconds(size)`` for each and then calls
    ``deliver(req, payload)``.  The ticket completes after delivery; if
    delivery raises, the ticket and the owning transport both fail, so the
    transport's next write or idle poll raises too.
    """

    def __init__(
        self,
        transport: TransportBase,
        name: str,
        deliver: Callable[[WriteRequest, np.ndarray], None],
    ):
        self._transport = transport
        self._deliver = deliver
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._run, name=name, daemon=True)
        self._thread.start()

    def submit(self, req: WriteRequest, payload: np.ndarray) -> Ticket:
        ticket = Ticket()
        self._queue.put((req, payload, ticket))
        return ticket

    def _run(self) -> None:
        latency = self._transport.latency
        while (item := self._queue.get()) is not None:
            req, payload, ticket = item
            try:
                delay = latency.delay_seconds(req.size)
                if delay > 0:
                    time.sleep(delay)
                self._deliver(req, payload)
                ticket.complete()
            except Exception as exc:  # surfaced via the transport and the ticket
                # the transport fails first, so a caller woken by the ticket
                # already finds it failed
                self._transport._mark_failed(exc)
                ticket.fail(exc)

    def close(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=5)
