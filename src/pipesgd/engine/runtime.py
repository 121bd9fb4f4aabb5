"""Turn-based data-parallel SGD for both communication schedules.

A rank owns two segments (see :mod:`.layout`): its gradient and one
receive segment, whose slot 0 is the rank's live model and slot 1 + j
the data of reduce-scatter step j.  It works on float64 views into them,
talks to its hypercube partners (:mod:`..topology`) through one-sided
notify-writes, and sees every arrival through one notification poll per
communication pass.  Nothing is copied or allocated per iteration: the
backward pass writes gradients into their segment views, folds and the
shard updates run in place, and all-gather data lands in the weights the
next forward pass reads and leaves for the next partner from there.
Model and gradient move in *transfer units*: contiguous ``[first,
stop)`` layer ranges.  The barrier baseline moves one
whole-model unit.  The pipelined schedule plans its units from the
compute and link model (:func:`plan_units`): one unit per layer when the
backward compute of the next layer can hide one more write, one
fence-free whole-model unit when it cannot.  A multi-layer unit records
its fold, flight and receive spans under timeline layer -1.

Each unit runs one collective, in phases:

  * reduce-scatter step j = 0, 1, ...: for each virtual rank v it plays
    whose partner w = v ^ 2**j is played elsewhere, the rank writes the
    half of v's range that w keeps into w's player's slot 1 + j, and
    folds w's copy of the half v keeps into its gradient once it landed;
  * the update: each virtual rank's final range, its *shard*, is updated
    in place in slot 0 (:func:`.sgd.apply_update` is elementwise);
  * all-gather step j = ..., 1, 0: the rank writes the range v held after
    reduce-scatter step j from slot 0 into the same range of w's player's
    slot 0, and waits until w's range landed in its own.

Every element is then summed in the reference order of
:func:`.sgd.tree_reduce` and updated by the reference rule, so all ranks
end bit-identical to :func:`.sgd.sequential_sgd`.  A rank starts a phase
only after it ended the previous one, so the sends of reduce-scatter
step j + 1 read folded data.  A unit starts on the *turn* that emits its
lowest layer's local gradient; after that the rank does whatever
communication has become possible, without waiting for anything.  The
same communication pass also runs while a layer's backward compute is
modeled (``compute_inflation_ns``): the rank polls until that time is up
instead of sleeping through it, so a write that lands mid-layer is folded
and passed on at once, not at the next turn, and a failed peer surfaces
there too.  Under the barrier baseline nothing can arrive mid-backward,
so those polls find nothing.

After the last turn the rank keeps polling until every unit's collective
ended.  Under the pipelined schedule no barrier runs anywhere in or
between iterations, so a fast partner may already be one iteration
ahead.  Its writes still cannot clobber a receive range:

  * at reduce-scatter step j, partner p writes its iteration-k+1 data
    into this rank's slot 1 + j only after p finished iteration k.  That
    needed this rank's iteration-k all-gather data for the same range,
    which this rank sends only after folding p's iteration-k step-j
    data, and the range is empty on both sides or on neither;
  * all-gather data for unit u of iteration k+1 exists only after every
    rank published u's k+1 gradient, since every element's sum holds
    every rank's contribution.  So it never lands while this rank is
    still in iteration k or a backward pass still reads the old weights:
    the backward pass propagates a layer's input gradient through the
    old weights before it emits the layer.

Notification values carry iteration+1, so an early k+2 is recognized and
left pending until this rank reaches iteration k+1; k+3 cannot come,
since a partner ends iteration k+1 only with this rank's k+1 data.  A
write on a channel this rank does not expect, a second write on one, or
all-gather data before this rank's own reduce-scatter data for it went
out raises at the next pass.  The barrier baseline adds exactly two
fences per iteration: one before its whole-model unit is published and
one after the iteration's traffic is done.  Those two barrier calls are
the synchronization the pipelined schedule exists to avoid.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import net
from ..buffers import buffer_add
from ..errors import ConfigError, ProtocolError
from ..timeline import TimelineEvent
from ..topology import build_hypercube, shard_range
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


class _Write(NamedTuple):
    """One planned notify-write; its notification value is set when sent."""

    dest: int
    segment: int
    offset: int
    remote_offset: int
    size: int
    nid: int


class _Wait(NamedTuple):
    """One planned arrival, and the fold it feeds in the reduce-scatter:
    ``(received, gradient)`` views, or None."""

    nid: int
    sender: int
    fold: tuple[np.ndarray, np.ndarray] | None


class _Phase(NamedTuple):
    name: str
    kind: str  # timeline kind of its writes
    sends: list[_Write]
    waits: list[_Wait]


class TurnState:
    """Collective progress of one in-flight iteration, per unit.

    A unit runs its phases in order.  A phase *starts* by sending its
    writes (the update phase: by updating this rank's shards) and *ends*
    once every write it waits for has arrived and, in the reduce-scatter,
    has been folded.
    """

    def __init__(self, num_units: int):
        self.local_gradient_ready = [False] * num_units
        self.started = [0] * num_units
        self.ended = [0] * num_units
        # notification ids consumed this iteration
        self.arrived: list[set[int]] = [set() for _ in range(num_units)]


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
        self._bounds = bounds = list(
            itertools.accumulate((s.param_count for s in self.specs), initial=0)
        )
        self.layout = lay = SegmentLayout(
            [bounds[stop] - bounds[first] for first, stop in self.units]
        )

        self.cube = build_hypercube(config.world_size)
        self.steps = self.cube.steps
        self.vranks = [v for v, p in enumerate(self.cube.players) if p == self.rank]
        channels = 2 * len(self.cube.players)
        self.seg_work = transport.segment_create(SEG_WORK, lay.size(1), 1)
        self.seg_recv = transport.segment_create(
            SEG_RECV, lay.size(1 + self.steps), lay.notif_count(channels)
        )

        model_region = self.seg_recv.view_f64(0, lay.total_params)
        grad_region = self.seg_work.view_f64(0, lay.total_params)
        self.model_views = [model_region[a:b] for a, b in zip(bounds, bounds[1:])]
        self.grad_views = [grad_region[a:b] for a, b in zip(bounds, bounds[1:])]

        start = net.init_model(config.seed, self.specs)
        for l in range(self.num_layers):
            self.model_views[l][:] = start.layers[l]

        # expected notification id -> (unit, phases this rank must have started)
        self._expected: dict[int, tuple[int, int]] = {}
        self._phases = [self._plan(unit) for unit in range(len(self.units))]
        self._pieces = [
            self._shard_pieces(unit, model_region, grad_region) for unit in range(len(self.units))
        ]
        # every id in [1, count) is assigned, so polls cover exactly that span
        self._poll_ids = lay.notif_count(channels) - 1
        self.losses: list[float] = []
        self.fold_counts = [0] * self.num_layers
        # (kind, iteration, label, trigger time, return time, ticket) per outgoing write
        self._flights: list[tuple[str, int, int, int, int, Ticket]] = []
        self.k = 0

    # Collective plan ---------------------------------------------------------

    def _plan(self, unit: int) -> list[_Phase]:
        """This rank's phases for one unit: reduce-scatter steps 0..d-1,
        the update, all-gather steps d-1..0.  Empty ranges are neither
        sent nor waited for."""
        lay, cube = self.layout, self.cube
        n = lay.param_counts[unit]
        grad = self.seg_work.view_f64(lay.offset(0, unit), n)
        gather_channels = len(cube.players)
        scatter, gather = [], []
        for j in range(self.steps):
            rx = self.seg_recv.view_f64(lay.offset(1 + j, unit), n)
            rs = _Phase(f"reduce-scatter step {j}", "send_trigger", [], [])
            ag = _Phase(f"all-gather step {j}", "model_forward", [], [])
            for v, w in cube.exchanges(self.rank, j):
                peer = cube.players[w]
                # v keeps one half of the range both hold, w the other: the
                # reduce-scatter trades each its half, the all-gather back
                keep = shard_range(n, v, j + 1)
                give = shard_range(n, w, j + 1)
                if keep[1] > keep[0]:
                    nid = lay.notif_id(w, unit)
                    rs.waits.append(_Wait(nid, peer, (rx[slice(*keep)], grad[slice(*keep)])))
                    self._expected[nid] = (unit, 0)
                    ag.sends.append(self._write(peer, SEG_RECV, 0, unit, keep, gather_channels + v))
                if give[1] > give[0]:
                    rs.sends.append(self._write(peer, SEG_WORK, 1 + j, unit, give, v))
                    nid = lay.notif_id(gather_channels + w, unit)
                    ag.waits.append(_Wait(nid, peer, None))
                    # w gathers its half only after this rank's step-j data
                    self._expected[nid] = (unit, j + 1)
            scatter.append(rs)
            gather.append(ag)
        return scatter + [_Phase("update", "master_update", [], [])] + gather[::-1]

    def _write(
        self, dest: int, segment: int, slot: int, unit: int, span: tuple[int, int], channel: int
    ) -> _Write:
        """A write of one range of a unit from slot 0 of ``segment`` into
        the same range of ``dest``'s receive ``slot``."""
        lay = self.layout
        lo, hi = span
        return _Write(
            dest, segment, lay.offset(0, unit, lo), lay.offset(slot, unit, lo),
            lay.offset(0, unit, hi) - lay.offset(0, unit, lo), lay.notif_id(channel, unit),
        )

    def _shard_pieces(self, unit: int, model: np.ndarray, grad: np.ndarray) -> list:
        """(layer, weights, gradient) views of this rank's shards of one
        unit, one piece per layer a shard touches; ``model`` and ``grad``
        are the whole-model regions."""
        first, stop = self.units[unit]
        bounds = self._bounds
        pieces = []
        for v in self.vranks:
            lo, hi = shard_range(self.layout.param_counts[unit], v, self.steps)
            for layer in range(first, stop):
                a = max(bounds[first] + lo, bounds[layer])
                b = min(bounds[first] + hi, bounds[layer + 1])
                if a < b:
                    pieces.append((layer, model[a:b], grad[a:b]))
        return pieces

    # Event recording ------------------------------------------------------

    def _record(self, kind: str, layer: int, t0: int, t1: int) -> None:
        if self.events is not None:
            self.events.append(TimelineEvent(self.rank, self.k, layer, kind, t0, t1))

    # Sending ---------------------------------------------------------------

    def _send(self, unit: int, kind: str, write: _Write) -> None:
        """One notify-write of one planned range, with notification value
        iteration+1 so receivers can tell live data from leftovers (value
        0 means "never fired").

        The flight is timed from here to whichever ends later: the call,
        which over tcp sends the whole frame, or the write's ticket.
        """
        t0 = time.monotonic_ns()
        ticket = self.tr.write_notify(
            WriteRequest(
                local_segment=write.segment,
                local_offset=write.offset,
                rank=write.dest,
                remote_segment=SEG_RECV,
                remote_offset=write.remote_offset,
                size=write.size,
                notification_id=write.nid,
                notification_value=self.k + 1,
            )
        )
        self._flights.append((kind, self.k, self._labels[unit], t0, time.monotonic_ns(), ticket))

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
            for kind, k, layer, t0, returned, ticket in self._flights:
                t1 = max(returned, ticket.completed_at_ns)
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
        communication passes - folding, updating and sending whatever
        became possible - and idles only after a pass that consumed
        nothing, as a host thread drives one-sided writes while an
        accelerator computes.  No new guard is needed: the backward
        pass has already read the weights an update may now overwrite,
        all-gather data arrives only after this rank's gradient for it
        went out, and folds follow the step order.  A failed peer raises
        here instead of at the next turn.
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
        self.state = TurnState(len(self.units))

    def run_turn(self, layer: int, gradient) -> None:
        """Take one layer's local gradient; start its unit if it is the lowest layer.

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
        for layer, weights, gradient in self._pieces[unit]:
            t0 = time.monotonic_ns()
            apply_update(weights, gradient, self.cfg.epsilon)
            self._record("master_update", layer, t0, time.monotonic_ns())

    def _comm_pass(self) -> bool:
        """One non-blocking poll of the receive segment, then the work it enables.

        Arrivals are checked and recorded first, then every started unit
        runs as many phases as its arrivals allow.  A rank without peers
        never polls.  Returns True when at least one notification was
        consumed, which is the liveness signal the finalize watchdog
        feeds on.
        """
        t_pass = time.monotonic_ns()
        arrivals = self._consume() if self.cfg.world_size > 1 else []
        for nid in arrivals:
            self._accept(nid, t_pass)
        for unit in range(len(self.units)):
            self._advance(unit)
        return bool(arrivals)

    def _accept(self, nid: int, t_pass: int) -> None:
        """Check one consumed arrival against the plan, then record it."""
        st = self.state
        if nid not in self._expected:
            channel, _ = self.layout.decode(nid)
            owned = channel % len(self.cube.players) in self.vranks
            self._violation(nid, "a range this rank owns" if owned else "not from a partner")
        unit, need_started = self._expected[nid]
        if nid in st.arrived[unit]:
            self._violation(nid, "a duplicate")
        if st.started[unit] < need_started:
            self._violation(nid, "arrived before this rank's own data for it went out")
        st.arrived[unit].add(nid)
        self._record("recv_notify", self._labels[unit], t_pass, time.monotonic_ns())

    def _violation(self, nid: int, problem: str) -> None:
        channel, unit = self.layout.decode(nid)
        gather, w = divmod(channel, len(self.cube.players))
        kind = "all-gather" if gather else "reduce-scatter"
        raise ProtocolError(
            f"rank {self.rank}: {kind} write from virtual rank {w} for unit {unit}: {problem}"
        )

    def _advance(self, unit: int) -> None:
        """Run a started unit's phases while their arrivals are in.

        Entering a phase sends its writes, or, between the two halves of
        the collective, updates this rank's shards; a phase ends once all
        of its waits arrived, folding reduce-scatter data into the
        gradient in the order the phase lists it.
        """
        st = self.state
        if not st.local_gradient_ready[unit]:
            return
        phases = self._phases[unit]
        first, stop = self.units[unit]
        while (p := st.ended[unit]) < len(phases):
            phase = phases[p]
            if st.started[unit] == p:
                st.started[unit] = p + 1
                if p == self.steps:
                    self._apply_update(unit)
                for write in phase.sends:
                    self._send(unit, phase.kind, write)
            arrived = st.arrived[unit]
            if not all(wait.nid in arrived for wait in phase.waits):
                return
            for wait in phase.waits:
                if wait.fold is not None:
                    t0 = time.monotonic_ns()
                    buffer_add(*wait.fold)
                    self._record("reduce_local", self._labels[unit], t0, time.monotonic_ns())
                    for layer in range(first, stop):
                        self.fold_counts[layer] += 1
            st.ended[unit] = p + 1

    def _iteration_done(self) -> bool:
        return all(e == len(p) for e, p in zip(self.state.ended, self._phases))

    def _dump_state(self) -> str:
        st = self.state
        waiting = []
        for unit, (first, stop) in enumerate(self.units):
            layers = f"layers [{first}, {stop})"
            if not st.local_gradient_ready[unit]:
                waiting.append(f"{layers} local gradient")
            elif st.ended[unit] < len(self._phases[unit]):
                phase = self._phases[unit][st.ended[unit]]
                missing = sorted({w.sender for w in phase.waits if w.nid not in st.arrived[unit]})
                waiting.append(f"{layers} {phase.name} (ranks pending: {missing})")
        return "; ".join(waiting) or "nothing pending"

    # Notification consumption -------------------------------------------------

    def _consume(self) -> list[int]:
        """Consume current-iteration notifications on the receive segment.

        Polls every assigned id and returns each consumed one.  Traffic
        for iteration k+1 (value k+2) is left in place for the next
        iteration; any other value but k+1 is a protocol violation and
        raises.
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
            out.append(nid)
        return out
