"""In-process transport: every rank is a thread inside one interpreter.

Delivery is performed by the sending side: the payload is copied into the
target rank's segment, then the notification fires (:meth:`Segment.land`).
Without injected latency the writer's own thread delivers before
``write_notify`` returns, which keeps tests fully deterministic.  With
latency, the sender creates one :class:`DelayedLink` per destination on
its first write there; it delays each message by the modeled flight time
and then delivers, so messages on one link stay in trigger order.
"""

from __future__ import annotations

import threading

from ..errors import ConfigError, RoutingError, TransportError
from .base import (
    DelayedLink,
    LatencyModel,
    Ticket,
    TransportBase,
    WriteRequest,
    completed_ticket,
)


class InprocWorld:
    """Shared state for a set of same-process ranks."""

    def __init__(self, world_size: int, latency: LatencyModel | None = None):
        if world_size < 1:
            raise ConfigError(f"world size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.latency = latency or LatencyModel()
        self._transports: dict[int, InprocTransport] = {}
        self._barrier = threading.Barrier(world_size)

    def transport(self, rank: int) -> "InprocTransport":
        if not (0 <= rank < self.world_size):
            raise ConfigError(f"rank {rank} outside world of size {self.world_size}")
        if rank in self._transports:
            raise ConfigError(f"transport for rank {rank} already created")
        tr = InprocTransport(self, rank)
        self._transports[rank] = tr
        return tr

    def deliver(self, req: WriteRequest, payload) -> None:
        """Land one write in the destination rank's segment."""
        tr = self._transports.get(req.rank)
        if tr is None:
            raise RoutingError(f"rank {req.rank} has no transport yet")
        tr.segment(req.remote_segment).land(req, payload)

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
        for tr in list(self._transports.values()):
            tr.close()


class InprocTransport(TransportBase):
    def __init__(self, world: InprocWorld, rank: int):
        super().__init__(rank, world.world_size, world.latency)
        self._world = world

    def write_notify(self, req: WriteRequest) -> Ticket:
        payload = self._source(req)
        if self.latency.is_zero:
            self._world.deliver(req, payload)
            return completed_ticket()
        link = self._links.get(req.rank)
        if link is None:
            link = DelayedLink(self, f"inproc-link-{self.rank}-{req.rank}", self._world.deliver)
            self._links[req.rank] = link
        return link.submit(req, payload)

    def barrier(self) -> None:
        self.barrier_calls += 1
        self._world.wait_barrier()
