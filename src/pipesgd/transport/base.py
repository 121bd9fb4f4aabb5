"""Shared pieces of the one-sided notify-write transport.

A transport exposes remotely writable memory as numbered segments.  Each
segment owns an array of notification slots.  A write lands first, its
notification fires after the last payload byte is visible
(:meth:`Segment.land`), and polling is non-blocking; that happens-before
edge is the only synchronization the training protocol relies on.

Backends differ only in how a write reaches its peer; each completes it
in the writer's own thread, as ``gaspi_write_notify`` posts a write from
its caller.  Injected latency is not a delay on that thread but the time
a notification becomes visible: every directed link keeps a clock, and a
write posted at ``now`` ends its flight at ``max(now, end of the link's
previous flight) + latency``, so writes on one link stay in trigger
order.  :class:`Notifications` hides a fired notification until its
flight is over.  ``write_notify`` returns that time, but promises only
local completion, as ``gaspi_write_notify`` does: the source range may
be reused at once, and the peer learns of the write from its
notification, not from the writer.  Writes are checked on the sending
side first (:meth:`TransportBase._post`): a closed or failed transport,
an unknown destination rank or a bad local range raises at once.
"""

from __future__ import annotations

import math
import numbers
import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ConfigError, ProtocolError, RangeError, RoutingError, TransportError

# segment id reserved for transport-internal control traffic (barrier).
CONTROL_SEGMENT = 15
# how long any rank waits in one fence for its peers, on every backend
BARRIER_TIMEOUT_S = 120.0
# one idle sleep between two polls that found nothing, in the engine and in
# tcp's barrier; the kernel's default 50 us timer slack stretches it: on a
# 2-vCPU Linux VM `time.sleep(2e-5)` measured 75-78 us median
IDLE_SLEEP_S = 2e-5


@dataclass(frozen=True)
class LatencyModel:
    """Synthetic per-message delay: fixed_ns + size_bytes * per_byte_ns."""

    fixed_ns: int = 0
    per_byte_ns: float = 0.0

    def __post_init__(self):
        for value in (self.fixed_ns, self.per_byte_ns):
            number = isinstance(value, numbers.Real) and not isinstance(value, bool)
            if not (number and 0 <= value < math.inf):
                raise ConfigError(f"latency must be a finite number >= 0, got {self}")

    def flight_end(self, size_bytes: int, link_free_ns: int) -> int:
        """Monotonic time a write of ``size_bytes`` posted now ends its
        flight on a link whose previous flight ends at ``link_free_ns``."""
        delay_ns = int(self.fixed_ns + size_bytes * self.per_byte_ns)
        return max(time.monotonic_ns(), link_free_ns) + delay_ns


class WriteRequest(NamedTuple):
    """One one-sided write: local source range -> remote segment range.

    A ``NamedTuple``, so the engine plans each write once and stamps its
    value with ``_replace`` when it sends it.  ``notification_value`` must
    be nonzero to leave (:meth:`TransportBase._post`): value 0 is the
    "nothing fired" marker on the receive side, and the value a planned
    request carries until it is sent.
    """

    local_segment: int
    local_offset: int
    rank: int
    remote_segment: int
    remote_offset: int
    size: int
    notification_id: int
    notification_value: int


class Notifications:
    """Fired-notification table of one segment; consume-once via reset.

    A notification fired with ``visible_at_ns`` stays hidden from poll and
    reset until the monotonic clock reaches that time.
    """

    def __init__(self, count: int):
        self.count = count
        # notification id -> (value, visible_at_ns)
        self._fired: dict[int, tuple[int, int]] = {}
        self._lock = threading.Lock()

    def fire(self, notification_id: int, value: int, visible_at_ns: int = 0) -> None:
        if not (0 <= notification_id < self.count):
            raise RangeError(f"notification id {notification_id} outside 0..{self.count - 1}")
        if value == 0:
            raise ProtocolError("notification value 0 is reserved for 'not fired'")
        with self._lock:
            self._fired[notification_id] = (value, visible_at_ns)

    def poll(self, first_id: int, count: int) -> list[tuple[int, int]]:
        if first_id < 0 or count < 0 or first_id + count > self.count:
            raise RangeError(
                f"poll range [{first_id}, {first_id + count}) outside 0..{self.count - 1}"
            )
        last = first_id + count
        now = time.monotonic_ns()
        with self._lock:
            hits = [
                (nid, v)
                for nid, (v, visible_at) in self._fired.items()
                if first_id <= nid < last and visible_at <= now
            ]
        hits.sort()
        return hits

    def reset(self, notification_id: int) -> int:
        """Atomically clear one slot; returns its value, 0 if nothing visible
        has fired there."""
        if not (0 <= notification_id < self.count):
            raise RangeError(f"notification id {notification_id} outside 0..{self.count - 1}")
        with self._lock:
            value, visible_at = self._fired.get(notification_id, (0, 0))
            if value == 0 or visible_at > time.monotonic_ns():
                return 0
            del self._fired[notification_id]
            return value


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

    def land(self, req: WriteRequest, payload, visible_at_ns: int) -> None:
        """Deliver one write here: copy its payload, then fire its
        notification, visible from ``visible_at_ns``, so a poller that
        sees the notification sees every payload byte."""
        self.write(req.remote_offset, payload)
        self.notifications.fire(req.notification_id, req.notification_value, visible_at_ns)

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
        # per destination rank: when the link's last flight ends
        self._link_free_ns = [0] * world_size
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
    def _post(self, req: WriteRequest) -> tuple[np.ndarray, int]:
        """Checks the local side of a write and times its flight on the
        link to ``req.rank``; returns its source bytes and the monotonic
        time, in ns, at which its flight ends.

        A write on a closed or failed transport, or to a rank outside the
        world, raises here.
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
        end = self.latency.flight_end(req.size, self._link_free_ns[req.rank])
        self._link_free_ns[req.rank] = end
        return src.data[req.local_offset : req.local_offset + req.size], end

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Refuse new writes.  Nothing is queued: every write that returned
        has already left this endpoint."""
        self._closing = True
