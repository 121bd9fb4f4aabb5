"""In-process transport: every rank is a thread inside one interpreter.

``write_notify`` delivers in the writer's own thread: it copies the
payload into the target rank's segment, then fires the notification
(:meth:`Segment.land`), visible once the write's modeled flight is over.
"""

from __future__ import annotations

import threading

from ..errors import ConfigError, RoutingError, TransportError
from . import base
from .base import LatencyModel, Ticket, TransportBase, WriteRequest


class InprocWorld:
    """Shared state for a set of same-process ranks."""

    def __init__(self, world_size: int, latency: LatencyModel | None = None):
        if world_size < 1:
            raise ConfigError(f"world size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.latency = latency or LatencyModel()
        self._transports: dict[int, InprocTransport] = {}
        self._barrier = threading.Barrier(world_size, timeout=base.BARRIER_TIMEOUT_S)

    def transport(self, rank: int) -> "InprocTransport":
        if not (0 <= rank < self.world_size):
            raise ConfigError(f"rank {rank} outside world of size {self.world_size}")
        if rank in self._transports:
            raise ConfigError(f"transport for rank {rank} already created")
        tr = InprocTransport(self, rank)
        self._transports[rank] = tr
        return tr

    def deliver(self, req: WriteRequest, payload, visible_at_ns: int) -> None:
        """Land one write in the destination rank's segment."""
        tr = self._transports.get(req.rank)
        if tr is None:
            raise RoutingError(f"rank {req.rank} has no transport yet")
        tr.segment(req.remote_segment).land(req, payload, visible_at_ns)

    def wait_barrier(self) -> None:
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError as exc:
            raise TransportError("barrier broken: a peer failed or timed out") from exc

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
        # each transport points back at this world; drop the other half of
        # that cycle, or every segment stays alive until a GC pass
        self._transports.clear()


class InprocTransport(TransportBase):
    def __init__(self, world: InprocWorld, rank: int):
        super().__init__(rank, world.world_size, world.latency)
        self._world = world

    def write_notify(self, req: WriteRequest) -> Ticket:
        """Land one write in the peer's segment before returning."""
        payload, ticket = self._post(req)
        self._world.deliver(req, payload, ticket.completed_at_ns)
        return ticket

    def barrier(self) -> None:
        self.barrier_calls += 1
        self._world.wait_barrier()
