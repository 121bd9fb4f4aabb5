"""In-process transport: every rank is a thread inside one interpreter.

Delivery is performed by the sending side.  Without injected latency the
writer's own thread copies the payload into the target segment and fires
the notification before ``write_notify`` returns, which keeps tests fully
deterministic.  With latency, each (sender, receiver) link owns a worker
thread that delays each message by the modeled flight time and then
delivers; messages on one link stay in trigger order.
"""

from __future__ import annotations

import queue
import threading
import time

from ..errors import ConfigError, RoutingError, TransportError
from .base import (
    LatencyModel,
    Segment,
    Ticket,
    TransportBase,
    WriteRequest,
    completed_ticket,
)


class _LinkWorker:
    """FIFO delayed-delivery queue for one directed rank pair."""

    def __init__(self, world: "InprocWorld", src: int, dst: int):
        self._world = world
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(
            target=self._run, name=f"inproc-link-{src}-{dst}", daemon=True
        )
        self._thread.start()

    def submit(self, src_view, req: WriteRequest, ticket: Ticket) -> None:
        self._queue.put((src_view, req, ticket))

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            src_view, req, ticket = item
            try:
                delay = self._world.latency.delay_seconds(req.size)
                if delay > 0:
                    time.sleep(delay)
                self._world.deliver(src_view, req)
                ticket.complete()
            except Exception as exc:  # surfaced via ticket_wait_all
                ticket.fail(exc)

    def stop(self) -> None:
        self._queue.put(None)
        self._thread.join(timeout=5)


class InprocWorld:
    """Shared state for a set of same-process ranks."""

    def __init__(self, world_size: int, latency: LatencyModel | None = None):
        if world_size < 1:
            raise ConfigError(f"world size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.latency = latency or LatencyModel()
        self._transports: dict[int, InprocTransport] = {}
        self._barrier = threading.Barrier(world_size)
        self._links: dict[tuple[int, int], _LinkWorker] = {}
        self._links_lock = threading.Lock()
        self._closed = False

    def transport(self, rank: int) -> "InprocTransport":
        if not (0 <= rank < self.world_size):
            raise ConfigError(f"rank {rank} outside world of size {self.world_size}")
        if rank in self._transports:
            raise ConfigError(f"transport for rank {rank} already created")
        tr = InprocTransport(self, rank)
        self._transports[rank] = tr
        return tr

    def remote_segment(self, rank: int, segment_id: int) -> Segment:
        if not (0 <= rank < self.world_size):
            raise RoutingError(f"rank {rank} outside world of size {self.world_size}")
        tr = self._transports.get(rank)
        if tr is None:
            raise RoutingError(f"rank {rank} has no transport yet")
        return tr.segment(segment_id)

    def deliver(self, src_view, req: WriteRequest) -> None:
        """Copy payload into the target segment, then fire the notification."""
        seg = self.remote_segment(req.rank, req.remote_segment)
        seg.check_range(req.remote_offset, req.size)
        if req.size:
            seg.data[req.remote_offset : req.remote_offset + req.size] = src_view
        seg.notifications.fire(req.notification_id, req.notification_value)

    def link(self, src: int, dst: int) -> _LinkWorker:
        with self._links_lock:
            if self._closed:
                raise TransportError("world is closed")
            worker = self._links.get((src, dst))
            if worker is None:
                worker = _LinkWorker(self, src, dst)
                self._links[(src, dst)] = worker
            return worker

    def wait_barrier(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise TransportError("barrier broken; a peer failed") from exc

    def abort_barrier(self) -> None:
        """Break the barrier and fail every rank's transport, so peers of a
        crashed rank stop at their next barrier or idle notify poll."""
        exc = TransportError("a peer failed")
        for tr in list(self._transports.values()):
            tr._mark_failed(exc)
        self._barrier.abort()

    def close(self) -> None:
        with self._links_lock:
            self._closed = True
            links = list(self._links.values())
            self._links.clear()
        for w in links:
            w.stop()


class InprocTransport(TransportBase):
    def __init__(self, world: InprocWorld, rank: int):
        super().__init__(rank, world.world_size, world.latency)
        self._world = world

    def write_notify(self, req: WriteRequest) -> Ticket:
        src = self._validate_request(req)
        view = src.data[req.local_offset : req.local_offset + req.size]
        if self.latency.is_zero:
            self._world.deliver(view, req)
            return completed_ticket()
        ticket = Ticket()
        self._world.link(self.rank, req.rank).submit(view, req, ticket)
        return ticket

    def barrier(self) -> None:
        self.barrier_calls += 1
        self._world.wait_barrier()

    def close(self) -> None:
        pass  # segments are plain memory; the world owns the link workers
