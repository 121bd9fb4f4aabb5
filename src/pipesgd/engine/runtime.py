"""Turn-based data-parallel SGD for both communication schedules.

A rank owns two segments (see :mod:`.layout`): its gradient and one
receive segment, whose slot 0 is the rank's live model and slot 1 + c
child c's gradient.  It works on float64 views into them, talks to its
tree neighbours through one-sided notify-writes, and sees every arrival
through one notification poll per communication pass.  Nothing on the
whole-model path is copied or allocated per iteration: the backward pass
writes gradients into their segment views, folds and the master update
run in place, and model units land in the weights the next forward pass
reads and leave for the broadcast children from there.
Model and gradient move in *transfer units*: contiguous ``[first,
stop)`` layer ranges.  The barrier baseline moves one
whole-model unit.  The pipelined schedule plans its units from the
compute and link model (:func:`plan_units`): one unit per layer when the
backward compute of the next layer can hide one more write, one
fence-free whole-model unit when it cannot.  A multi-layer unit records
its fold, flight and receive spans under timeline layer -1.

The backward pass emits layer gradients from the output layer down.  A
unit is published on the *turn* that emits its lowest layer: the rank
publishes its local gradient for the unit and then does whatever
communication has become possible, without waiting for anything:

  * child contributions that finished arriving are folded into the local
    gradient, in ascending child order (sequentially gated, so the float
    summation order is identical on every run and equal to the reference
    optimizer's),
  * a unit whose children are all folded is forwarded up the reduction
    tree - or, on the master, applied via the update rule and broadcast
    back down,
  * freshly arrived model units, already in place, are forwarded to
    broadcast children.

The same communication pass also runs while a layer's backward compute
is modeled (``compute_inflation_ns``): the rank polls until that time is
up instead of sleeping through it, so a unit that lands mid-layer is
folded, forwarded, applied or relayed at once, not at the next turn, and
a failed peer surfaces there too.  Under the barrier baseline nothing can
arrive mid-backward, so those polls find nothing.

After the last turn the rank keeps polling until every unit's gradient
went up and every updated unit came back.  Under the pipelined schedule
no barrier runs anywhere in or between iterations, so a fast neighbour
may already be one iteration ahead.  Its writes still cannot clobber a
receive slot: a child writes its iteration-k+1 gradient only after model
k landed, which its parent sent only after folding the child's
iteration-k gradient, and a parent writes model k+1 only after the
child's iteration-k+1 gradient went up, which the child sent only after
model k landed and its own iteration-k writes completed.  Notification
values carry iteration+1, so an early k+2 is recognized and left pending
until this rank reaches iteration k+1.  The barrier baseline adds
exactly two fences per iteration: one before its whole-model unit is
published and one after the iteration's traffic is done.  Those two
barrier calls are the synchronization the pipelined schedule exists to
avoid.

Model units may land in the live weights mid-backward because an updated
unit can only arrive after this rank contributed its own gradient for
it, and the backward pass reads the unit's old weights for the last time
while producing exactly that gradient: it propagates the layer's input
gradient through the old weights before it emits the layer.  A stray
model write is still caught at the next pass, after it clobbered those
weights; the run fails either way.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .. import net
from ..buffers import buffer_add
from ..errors import ConfigError, ProtocolError
from ..timeline import TimelineEvent
from ..topology import build_reduction_tree
from ..transport.base import LatencyModel, Ticket, TransportBase, WriteRequest
from .config import TrainConfig
from .layout import SEG_RECV, SEG_WORK, SegmentLayout
from .sgd import apply_update, batch_indices, shard_bounds

_IDLE_SLEEP_S = 2e-5

# Engine work one more transfer unit adds per iteration: its fold, notify
# polls, master update call and write ticket.  Measured on rank 0 with
# `bench/run.py --workload inproc-small --seed 7 --seconds 20 --trace 1`
# on a 2-vCPU VM while the pipelined schedule still moved one unit per
# layer and ranks polled only at turn boundaries, not during compute:
# fold + update + post-backward tail took 1.48 ms per iteration over 4
# units, 0.45 ms under the barrier baseline's single unit, so about
# 0.34 ms for each of the 3 extra units.
_UNIT_COST_NS = 340_000


def plan_units(num_layers: int, hide_ns: int, latency: LatencyModel) -> list[tuple[int, int]]:
    """Contiguous ``[first, stop)`` layer ranges in ascending order.

    Walking down from the top layer, the open unit is closed below a
    layer only when the backward compute that would hide its write
    (``hide_ns`` per layer) is at least the cost of one more write: the
    link's fixed latency plus the engine's per-unit work.  The unit
    holding layer 0 always closes, since nothing is left to compute
    behind it.  Every input is shared by all ranks, so they all plan the
    same units.
    """
    write_ns = latency.fixed_ns + _UNIT_COST_NS
    units = []
    stop = num_layers
    for layer in reversed(range(num_layers)):
        if layer == 0 or hide_ns >= write_ns:
            units.append((layer, stop))
            stop = layer
    return units[::-1]


@dataclass
class RankResult:
    """What one rank hands back after its training loop."""

    rank: int
    world_size: int
    iterations: int
    model: list[np.ndarray]
    losses: list[float]
    barrier_calls: int
    fold_counts: list[int]
    wall_ns: int
    units: list[tuple[int, int]]
    events: list[TimelineEvent] = field(default_factory=list)


class TurnState:
    """Communication bookkeeping for one in-flight iteration, per unit."""

    def __init__(self, num_units: int, num_children: int):
        self.local_gradient_ready = [False] * num_units
        self.gradient_forwarded = [False] * num_units
        self.model_arrived = [False] * num_units
        # child slots whose unit contribution has fully arrived
        self.child_arrived: list[set[int]] = [set() for _ in range(num_units)]
        # how many child slots have been folded, per unit; folds happen in
        # ascending slot order so the float summation order is fixed
        self.next_fold = [0] * num_units
        self.num_children = num_children


class Rank:
    """One rank's training loop; ``config.pattern`` picks its units and fences."""

    def __init__(
        self,
        config: TrainConfig,
        dataset,
        transport: TransportBase,
        record: bool = False,
    ):
        config.validate()
        if transport.world_size != config.world_size:
            raise ConfigError(
                f"transport spans {transport.world_size} ranks, config expects {config.world_size}"
            )
        self.cfg = config
        self.dataset = dataset
        self.tr = transport
        self.rank = transport.rank
        # this rank's timeline when recording, else None
        self.events: list[TimelineEvent] | None = [] if record else None
        self.specs = config.specs()
        self.num_layers = len(self.specs)
        if config.pattern == "pipelined":
            self.units = plan_units(
                self.num_layers, config.compute_inflation_ns, transport.latency
            )
        else:
            self.units = [(0, self.num_layers)]
        self._fenced = config.pattern == "barrier"
        # a unit is published when its lowest layer's gradient is emitted
        self._unit_at = {first: u for u, (first, _) in enumerate(self.units)}
        # timeline layer index of a unit's spans; -1 marks a multi-layer unit
        self._labels = [first if stop - first == 1 else -1 for first, stop in self.units]
        bounds = list(itertools.accumulate((s.param_count for s in self.specs), initial=0))
        self.layout = SegmentLayout([bounds[stop] - bounds[first] for first, stop in self.units])

        tree = build_reduction_tree(config.world_size)
        self.children = tree.children[self.rank]
        self.parent = tree.parent.get(self.rank)
        self.is_master = self.rank == 0
        # this rank's receive slot in its parent's SEG_RECV: 1 + its index
        # in the parent's child list
        self.parent_slot = (
            None if self.parent is None else 1 + tree.children[self.parent].index(self.rank)
        )

        lay = self.layout
        slots = 1 + len(self.children)
        self.seg_work = transport.segment_create(SEG_WORK, lay.size(1), 1)
        self.seg_recv = transport.segment_create(SEG_RECV, lay.size(slots), lay.notif_count(slots))

        model_region = self.seg_recv.view_f64(0, lay.total_params)
        grad_region = self.seg_work.view_f64(0, lay.total_params)
        self.model_views = [model_region[a:b] for a, b in zip(bounds, bounds[1:])]
        self.grad_views = [grad_region[a:b] for a, b in zip(bounds, bounds[1:])]
        self.unit_grad_views = [grad_region[bounds[a]:bounds[b]] for a, b in self.units]

        start = net.init_model(config.seed, self.specs)
        for l in range(self.num_layers):
            self.model_views[l][:] = start.layers[l]

        # every id in [1, count) is assigned, so polls cover exactly that span
        self._poll_ids = lay.notif_count(slots) - 1
        self.losses: list[float] = []
        self.fold_counts = [0] * self.num_layers
        # (kind, iteration, label, trigger time, ticket) per outgoing write
        self._flights: list[tuple[str, int, int, int, Ticket]] = []
        self.k = 0

    # Receive-slot views ---------------------------------------------------

    def _rx(self, slot: int, unit: int) -> np.ndarray:
        off = self.layout.offset(slot, unit)
        return self.seg_recv.view_f64(off, self.layout.param_counts[unit])

    # Event recording ------------------------------------------------------

    def _record(self, kind: str, layer: int, t0: int, t1: int) -> None:
        if self.events is not None:
            self.events.append(TimelineEvent(self.rank, self.k, layer, kind, t0, t1))

    # Sending ---------------------------------------------------------------

    def _send(self, dest_rank: int, slot: int, unit: int, source: int, kind: str) -> None:
        """One notify-write of one unit from slot 0 of a local segment -
        the gradient in SEG_WORK or the model in SEG_RECV - into one
        receive slot of one destination.

        The whole unit moves as a single write with a single notification
        whose value is iteration+1, so receivers can tell live data from
        leftovers (value 0 means "never fired").  The flight is timed from
        here to the completion of the write's ticket.
        """
        lay = self.layout
        t0 = time.monotonic_ns()
        ticket = self.tr.write_notify(
            WriteRequest(
                local_segment=source,
                local_offset=lay.offset(0, unit),
                rank=dest_rank,
                remote_segment=SEG_RECV,
                remote_offset=lay.offset(slot, unit),
                size=lay.unit_bytes[unit],
                notification_id=lay.notif_id(slot, unit),
                notification_value=self.k + 1,
            )
        )
        self._flights.append((kind, self.k, self._labels[unit], t0, ticket))

    def _send_gradient(self, unit: int) -> None:
        self._send(self.parent, self.parent_slot, unit, SEG_WORK, "send_trigger")

    def _send_model(self, unit: int) -> None:
        for child in self.children:
            self._send(child, 0, unit, SEG_RECV, "model_forward")

    def _wait_tickets(self) -> None:
        """Wait out this iteration's outgoing flights and record them.

        Every write has already left its source buffer, but the iteration
        ends only once its writes' modeled flights are over, so a rank
        cannot run ahead of the latency its peers see.
        """
        self.tr.ticket_wait_all(
            [flight[-1] for flight in self._flights], timeout=self.cfg.finalize_timeout_s
        )
        if self.events is not None:
            for kind, k, layer, t0, ticket in self._flights:
                t1 = max(t0, ticket.completed_at_ns)
                self.events.append(TimelineEvent(self.rank, k, layer, kind, t0, t1))
        self._flights = []

    # Batch handling ---------------------------------------------------------

    def _shard(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx = batch_indices(self.cfg.seed, k, self.cfg.batch_size, len(self.dataset))
        lo, hi = shard_bounds(self.cfg.batch_size, self.cfg.world_size, self.rank)
        return self.dataset.take(idx[lo:hi])

    def _inflate(self) -> None:
        """Model one layer's backward compute, communicating while it runs.

        Until ``compute_inflation_ns`` has passed, the rank runs
        communication passes - folding, forwarding, applying and relaying
        whatever arrived - and idles only after a pass that consumed
        nothing, as a host thread drives one-sided writes while an
        accelerator computes.  No new guard is needed: the backward
        pass has already read the weights an update may now overwrite,
        a model unit arrives only after this rank's gradient for it went
        up, and folds stay gated in child-slot order.  A failed peer
        raises here instead of at the next turn.
        """
        deadline = time.monotonic_ns() + self.cfg.compute_inflation_ns
        while (left_ns := deadline - time.monotonic_ns()) > 0:
            if not self._comm_pass():
                time.sleep(min(_IDLE_SLEEP_S, left_ns * 1e-9))

    # Run loop ----------------------------------------------------------------

    def run(self) -> RankResult:
        """Execute the configured number of iterations and collect results.

        One rendezvous barrier runs before the loop so no rank starts
        writing before all peers have registered their segments; it is not
        part of the measured loop (barrier_calls reports the in-loop count).
        """
        if self.cfg.world_size > 1:
            self.tr.barrier()
        base_barriers = self.tr.barrier_calls
        t0 = time.monotonic_ns()
        for k in range(self.cfg.iterations):
            self._train_iteration(k)
        wall_ns = time.monotonic_ns() - t0
        return RankResult(
            rank=self.rank,
            world_size=self.cfg.world_size,
            iterations=self.cfg.iterations,
            model=[np.array(v, copy=True) for v in self.model_views],
            losses=list(self.losses),
            barrier_calls=self.tr.barrier_calls - base_barriers,
            fold_counts=list(self.fold_counts),
            wall_ns=wall_ns,
            units=list(self.units),
            events=list(self.events or ()),
        )

    def _train_iteration(self, k: int) -> None:
        self.begin_iteration(k)
        x, t = self._shard(k)
        t0 = time.monotonic_ns()
        _, cache = net.forward(self.specs, self.model_views, x)
        self._record("forward", -1, t0, time.monotonic_ns())

        self._turn_clock = time.monotonic_ns()

        def emit(layer: int, gradient) -> None:
            self._inflate()
            self._record("backward_layer", layer, self._turn_clock, time.monotonic_ns())
            self.run_turn(layer, gradient)
            self._turn_clock = time.monotonic_ns()

        _, loss = net.backward_from_cache(
            self.specs, self.model_views, cache, t, emit, out=self.grad_views
        )
        self.losses.append(loss)
        self.finalize_iteration()
        if self._fenced:
            self._fence()

    def begin_iteration(self, k: int) -> None:
        self.k = k
        self.state = TurnState(len(self.units), len(self.children))

    def run_turn(self, layer: int, gradient) -> None:
        """Take one layer's local gradient; publish its unit if it is the lowest layer.

        The training loop's backward pass computes into ``grad_views``, so
        ``gradient`` is normally that very view; any other array is copied
        into it.
        """
        if gradient is not self.grad_views[layer]:
            self.grad_views[layer][:] = gradient
        unit = self._unit_at.get(layer)
        if unit is None:
            return
        if self._fenced:
            self._fence()
        self.state.local_gradient_ready[unit] = True
        self._comm_pass()

    def finalize_iteration(self) -> None:
        """Poll until the iteration's protocol obligations are met.

        Progress resets the watchdog; a quiet period longer than the
        configured timeout means a peer died or the protocol wedged, and
        raises with a state dump instead of hanging forever.
        """
        t0 = time.monotonic_ns()
        deadline = time.monotonic() + self.cfg.finalize_timeout_s
        while not self._iteration_done():
            if self._comm_pass():
                deadline = time.monotonic() + self.cfg.finalize_timeout_s
            elif time.monotonic() > deadline:
                raise ProtocolError(
                    f"rank {self.rank}: no progress for {self.cfg.finalize_timeout_s:.1f}s "
                    f"finishing iteration {self.k}: {self._dump_state()}"
                )
            else:
                time.sleep(_IDLE_SLEEP_S)
        self._wait_tickets()
        self._record("finalize", -1, t0, time.monotonic_ns())

    def _fence(self) -> None:
        t0 = time.monotonic_ns()
        self.tr.barrier()
        self._record("barrier", -1, t0, time.monotonic_ns())

    # Internal steps ---------------------------------------------------------

    def _apply_update(self, unit: int) -> None:
        first, stop = self.units[unit]
        for layer in range(first, stop):
            t0 = time.monotonic_ns()
            apply_update(self.model_views[layer], self.grad_views[layer], self.cfg.epsilon)
            self._record("master_update", layer, t0, time.monotonic_ns())

    def _comm_pass(self) -> bool:
        """One non-blocking poll of the receive segment, then the work it enables.

        Child gradients (slots >= 1) are recorded first, then folded, then
        arrived model units (slot 0), already in place, are relayed.  A
        rank without neighbours never polls.  Returns True when at least
        one notification was consumed, which is the liveness signal the
        finalize watchdog feeds on.
        """
        t_pass = time.monotonic_ns()
        st = self.state
        arrivals = self._consume() if self.cfg.world_size > 1 else []
        arrived_models: list[int] = []
        for slot, unit in arrivals:
            if slot == 0:
                arrived_models.append(unit)
                continue
            child = slot - 1
            if child in st.child_arrived[unit]:
                raise ProtocolError(
                    f"rank {self.rank}: duplicate gradient from child slot {child} "
                    f"for unit {unit}"
                )
            st.child_arrived[unit].add(child)
            self._record("recv_notify", self._labels[unit], t_pass, time.monotonic_ns())
        self._advance_folds()
        for unit in sorted(arrived_models):
            self._handle_model_arrival(unit, t_pass)
        return bool(arrivals)

    def _advance_folds(self) -> None:
        """Fold arrived child data and forward every unit that became complete.

        Child c's gradient for unit u folds only after those of children
        0..c-1; a unit goes up (or, on the master, into the update) only
        when its local gradient is published and all children are folded.
        """
        st = self.state
        for unit, (first, stop) in enumerate(self.units):
            if not st.local_gradient_ready[unit] or st.gradient_forwarded[unit]:
                continue
            while st.next_fold[unit] in st.child_arrived[unit]:
                child = st.next_fold[unit]
                t0 = time.monotonic_ns()
                buffer_add(self._rx(1 + child, unit), self.unit_grad_views[unit])
                self._record("reduce_local", self._labels[unit], t0, time.monotonic_ns())
                for layer in range(first, stop):
                    self.fold_counts[layer] += 1
                st.next_fold[unit] += 1
            if st.next_fold[unit] == st.num_children:
                self._complete_gradient(unit)

    def _complete_gradient(self, unit: int) -> None:
        st = self.state
        if self.is_master:
            self._apply_update(unit)
            self._send_model(unit)
            st.model_arrived[unit] = True
        else:
            self._send_gradient(unit)
        st.gradient_forwarded[unit] = True

    def _handle_model_arrival(self, unit: int, t_pass: int) -> None:
        st = self.state
        if st.model_arrived[unit]:
            raise ProtocolError(f"rank {self.rank}: duplicate model update for unit {unit}")
        if not st.gradient_forwarded[unit]:
            raise ProtocolError(
                f"rank {self.rank}: model unit {unit} arrived before this rank's "
                "gradient contribution went up"
            )
        self._record("recv_notify", self._labels[unit], t_pass, time.monotonic_ns())
        self._send_model(unit)
        st.model_arrived[unit] = True

    def _iteration_done(self) -> bool:
        st = self.state
        return all(st.gradient_forwarded) and all(st.model_arrived)

    def _dump_state(self) -> str:
        st = self.state
        waiting = []
        for unit, (first, stop) in enumerate(self.units):
            layers = f"layers [{first}, {stop})"
            if not st.gradient_forwarded[unit]:
                missing = [c for c in range(st.num_children) if c not in st.child_arrived[unit]]
                waiting.append(f"{layers} gradient (children pending: {missing})")
            elif not st.model_arrived[unit]:
                waiting.append(f"{layers} model update")
        return "; ".join(waiting) or "nothing pending"

    # Notification consumption -------------------------------------------------

    def _consume(self) -> list[tuple[int, int]]:
        """Consume current-iteration notifications on the receive segment.

        Polls every assigned id and returns the (slot, unit) of each
        consumed notification.  Traffic for iteration k+1 (value k+2) is
        left in place for the next iteration; any other value but k+1 is
        a protocol violation and raises.
        """
        hits = self.tr.notify_poll(SEG_RECV, 1, self._poll_ids)
        out = []
        for nid, value in hits:
            if value == self.k + 2:
                continue  # next iteration's data, not ours to consume
            if value != self.k + 1:
                raise ProtocolError(
                    f"rank {self.rank}: iteration {self.k} saw notification value "
                    f"{value} on id {nid}"
                )
            self.tr.notify_reset(SEG_RECV, nid)
            out.append(self.layout.decode(nid))
        return out
