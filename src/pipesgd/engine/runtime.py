"""Turn-based data-parallel SGD for both communication schedules.

A rank owns two segments (see :mod:`.layout`): its gradient and one
receive segment, whose slot 0 is the rank's live model and slot 1 + j
the data of reduce-scatter step j.  It works on float64 views into them,
talks to its peers (:mod:`..topology`) through one-sided notify-writes,
and sees every arrival through one notification poll per communication
pass.  Nothing is copied or allocated per iteration: the backward pass
writes gradients into their segment views, folds and updates run in
place, and all-gather data leaves from the weights the rank updated and
lands in the weights the next forward pass reads.  Model and gradient
move in *transfer units*: contiguous ``[first, stop)`` layer ranges.
One pure function, :func:`plan`, makes every choice the compute and
link model drive.  The barrier baseline moves one whole-model unit.  The
pipelined schedule moves one unit per layer when the backward compute
of the next layer can hide one more write, one fence-free whole-model
unit when it cannot.  A multi-layer unit records its fold, flight and
receive spans under timeline layer -1.

:func:`plan` also gives each unit one of two collectives.  A unit is
*latency-bound* when its serialization on one link is shorter than one
write's fixed cost (unit bytes x ``per_byte_ns`` < ``fixed_ns``): hops
then cost more than bytes, so it is *replicated* and runs a one-hop
allreduce.  At zero latency no unit is.  Every other unit is
*sharded* and runs, in phases:

  * reduce-scatter step j = 0, 1, ...: for each virtual rank v it plays
    whose partner w = v ^ 2**j is played elsewhere, the rank writes the
    half of v's range that w keeps into w's player's slot 1 + j, and
    folds w's copy of the half v keeps into its gradient once it landed;
  * the all-gather, in one hop.  It opens with the update: each virtual
    rank's final range, its *shard*, is updated in place in slot 0
    (:func:`.sgd.apply_update` is elementwise).  The rank then writes
    each non-empty shard it plays from slot 0 into the same range of
    every other rank's slot 0, and waits until every shard it does not
    play landed in its own.

Over 4 ranks a sharded unit costs each rank 5 writes: 2 in the
reduce-scatter and 3 in the all-gather, which run on 3 links side by
side.  Its critical path is 3 hops and 1.0 model sizes, where a
recursive-doubling all-gather that retraces the hypercube would cost 4
writes but chain 4 hops and 1.5 model sizes.  A replicated unit runs:

  * the exchange: the rank writes its whole unit gradient to every peer,
    into the exchange range of its own rank and the iteration's parity,
    and once the N - 1 peers' gradients landed, folds them in the order
    of :func:`.sgd.tree_reduce` (binomial tree, children ascending);
  * the update of the whole unit in place, on every rank; no all-gather
    follows.

That is one hop and N - 1 writes of the whole unit per rank, against
1 + log2 N hops and about 1.5 unit sizes: a win only for units that are
small against the link's fixed cost, where it shortens the exposed tail
of the pipelined schedule, layer 0's collective.

Every element is summed in the reference order of
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

That modeled compute runs on a *device clock*, as an accelerator stream
runs beside the host thread that drives its one-sided writes.  The clock
starts when the backward pass starts, after the forward, and each
emitted layer advances it by ``compute_inflation_ns``, so the modeled
layers run back to back: the host's turn for layer l and the real
compute of layer l - 1 fall inside layer l - 1's window instead of
adding to it.  A host that has fallen behind finds the clock already
passed and does not poll; at zero inflation it never polls outside the
turns.

After the last turn the rank keeps polling until every unit's collective
ended.  Under the pipelined schedule no barrier runs anywhere in or
between iterations, so a fast partner may already be one iteration
ahead.  Its writes still cannot clobber a receive range:

  * at reduce-scatter step j, partner p writes its iteration-k+1 data
    into this rank's slot 1 + j only after p finished iteration k.  That
    needed the iteration-k all-gather data of the same range, whose
    every shard was updated from a sum that passed through this rank's
    fold of p's iteration-k step-j data, so their players can update
    them only after it.  The range is empty on both sides or on neither;
  * all-gather data for unit u of iteration k+1 exists only after every
    rank published u's k+1 gradient, since every element's sum holds
    every rank's contribution.  So it never lands while this rank is
    still in iteration k or a backward pass still reads the old weights:
    the backward pass propagates a layer's input gradient through the
    old weights before it emits the layer;
  * slot 0 is read for sending only where no write lands: an all-gather
    write carries only the sender's own shards, which no other rank
    writes;
  * no write comes back after an exchange's fold, so a peer may finish
    iteration k, and send its k+1 gradient, before this rank folded the
    peer's k one.  The exchange ranges are therefore double-buffered by
    iteration parity: the k+1 data lands in the other parity's range and
    stays pending.  Peer p writes iteration-k+2 data into the parity-k
    range only after it finished iteration k+1.  That needed this rank's
    iteration-k+1 data, which this rank sends only after it finished
    iteration k, and so after it folded that range.

A rank never waits for its own writes.  ``write_notify`` promises local
completion only: the payload has left its source range when the call
returns, so the next update or backward pass may overwrite that range.
A rank may thus start iteration k+1 while its iteration-k all-gather
writes are still in flight.  A later write on the same link queues
behind them on the per-link clock, so its notification becomes visible
only after theirs, and no receive range is reused before its reader
consumed it, for the causal reasons above: each of them runs through a
notification the reader saw, never through the writer's wait.

Notification values carry iteration+1, so an early k+2 is recognized and
left pending until this rank reaches iteration k+1; k+3 cannot come,
since a partner ends iteration k+1 only with this rank's k+1 data.  A
write on a channel this rank does not expect (among them exchange data
for a sharded unit), a second write on one after the first was consumed,
a shard before the reduce-scatter step whose send carried this rank's
share of it started, or exchange data on the other parity's id raises at
the next pass.  A second write that lands before the first was consumed
raises nothing: as in GASPI, a notification is set, not counted, so the
second overwrites the first and is folded once.  The
barrier baseline adds exactly two fences per iteration: one before its
whole-model unit is published and one after the iteration's traffic is
done.  Those two barrier calls are the synchronization the pipelined
schedule exists to avoid.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import net
from ..buffers import buffer_add
from ..errors import ConfigError, ProtocolError, ShapeError
from ..timeline import TimelineEvent
from ..topology import build_hypercube, build_reduction_tree, shard_range
from ..transport.base import IDLE_SLEEP_S, LatencyModel, TransportBase, WriteRequest
from .config import TrainConfig
from .layout import SEG_RECV, SEG_WORK, SegmentLayout
from .sgd import apply_update, batch_indices, shard_bounds

# Engine work one more transfer unit adds per iteration: its fold, notify
# polls, master update call and write call.  Measured on rank 0 with
# `bench/run.py --workload inproc-small --seed 7 --seconds 20 --trace 1`
# on a 2-vCPU VM (no modeled compute, so every pass ran at a turn or
# after the backward pass) while the pipelined schedule still moved one
# unit per layer: fold + update + post-backward tail took 1.48 ms per
# iteration over 4 units, 0.45 ms under the barrier baseline's single
# unit, so about 0.34 ms for each of the 3 extra units.  Under modeled
# compute that work runs inside the device clock's layer windows, where
# it hides as long as a window outlasts it.
_UNIT_COST_NS = 340_000


class Unit(NamedTuple):
    """Layers ``[first, stop)`` moved as one transfer; ``replicated``
    picks the one-hop allreduce over the sharded collective."""

    first: int
    stop: int
    replicated: bool


def plan(config: TrainConfig, latency: LatencyModel) -> list[Unit]:
    """The transfer units of ``config``'s schedule in ascending order.

    The barrier baseline moves the whole model as one unit.  The
    pipelined schedule gives every layer its own unit when the backward
    compute that would hide a unit's write (``compute_inflation_ns`` per
    layer) is at least the cost of one more write: the link's fixed
    latency plus the engine's per-unit work.  That test is the same for
    every layer, so otherwise the whole model is one unit.  A unit is
    replicated when its serialization on one link is shorter than one
    write's fixed cost.  Every input is shared by all ranks, so they all
    plan the same units.
    """
    bounds = list(itertools.accumulate((s.param_count for s in config.specs()), initial=0))
    num_layers = len(bounds) - 1
    write_ns = latency.fixed_ns + _UNIT_COST_NS
    per_layer = config.pattern == "pipelined" and config.compute_inflation_ns >= write_ns
    spans = [(l, l + 1) for l in range(num_layers)] if per_layer else [(0, num_layers)]
    item_ns = np.float64().itemsize * latency.per_byte_ns
    return [Unit(a, b, (bounds[b] - bounds[a]) * item_ns < latency.fixed_ns) for a, b in spans]


@dataclass
class RankResult:
    """What one rank hands back after its training loop.

    ``model`` holds the rank's own copy of its final layers.  A forked
    rank of ``harness.run_tcp`` reports without them: the launcher sets
    its ``model`` to per-layer views into the launch's shared mapping,
    where the child copied them.
    """

    rank: int
    model: list[np.ndarray]
    losses: list[float]
    barrier_calls: int
    fold_counts: list[int]
    wall_ns: int
    units: list[Unit]
    events: list[TimelineEvent] = field(default_factory=list)


class _Wait(NamedTuple):
    """One planned arrival."""

    nid: int
    sender: int


class _Phase(NamedTuple):
    name: str
    kind: str  # timeline kind of its writes
    # (layer, weights, gradient) views updated in place before the sends
    updates: list[tuple[int, np.ndarray, np.ndarray]]
    # planned with notification value 0; _send stamps iteration+1
    sends: list[WriteRequest]
    waits: list[_Wait]
    # (addend, sum) views added in this order once every wait arrived
    folds: list[tuple[np.ndarray, np.ndarray]]


class TurnState:
    """Collective progress of one in-flight iteration, per unit.

    A unit runs its phases in order.  A phase *starts* by applying its
    updates and sending its writes, and *ends* once every write it waits
    for has arrived and its folds have run.
    """

    def __init__(self, num_units: int):
        self.local_gradient_ready = [False] * num_units
        self.started = [0] * num_units
        self.ended = [0] * num_units
        # notification ids consumed this iteration
        self.arrived: list[set[int]] = [set() for _ in range(num_units)]


class Rank:
    """One rank's training loop over the units :func:`plan` gives it;
    ``config.pattern`` also picks its fences.

    ``start`` holds the start weights, one flat array per layer, each of
    shape ``(param_count,)``; any other shape raises ``ShapeError``.  Like
    ``dataset`` they are a launch input: the launcher builds them once per
    launch with ``net.init_model(config.seed, config.specs())``, marks
    them read-only and hands the same arrays to every rank, which copies
    them into slot 0, its live model.
    """

    def __init__(
        self,
        config: TrainConfig,
        dataset,
        start: list[np.ndarray],
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
        sizes = [np.size(layer) for layer in start]
        if sizes != [s.param_count for s in self.specs]:
            raise ShapeError(f"start weights of {sizes} values per layer do not fit the config")
        for l, layer in enumerate(start):
            if np.ndim(layer) != 1:
                raise ShapeError(
                    f"start weights of layer {l} have shape {np.shape(layer)}, not ({sizes[l]},)"
                )
        self.units = plan(config, transport.latency)
        self._fenced = config.pattern == "barrier"
        # a unit is published when its lowest layer's gradient is emitted
        self._unit_at = {u.first: i for i, u in enumerate(self.units)}
        # timeline layer index of a unit's spans; -1 marks a multi-layer unit
        self._labels = [u.first if u.stop - u.first == 1 else -1 for u in self.units]
        self._bounds = bounds = list(
            itertools.accumulate((s.param_count for s in self.specs), initial=0)
        )
        counts = [bounds[u.stop] - bounds[u.first] for u in self.units]
        replicated = [u.replicated for u in self.units]

        self.cube = build_hypercube(config.world_size)
        self.steps = self.cube.steps
        self.vranks = [v for v, p in enumerate(self.cube.players) if p == self.rank]
        self.layout = lay = SegmentLayout(counts, 1 + self.steps, replicated, config.world_size)
        # exchange channels follow the 2P hypercube channels
        self._exchange_channel = 2 * len(self.cube.players)
        channels = self._exchange_channel + (2 * config.world_size if any(replicated) else 0)
        self.seg_work = transport.segment_create(SEG_WORK, lay.size(1), 1)
        self.seg_recv = transport.segment_create(
            SEG_RECV, lay.recv_bytes, lay.notif_count(channels)
        )

        model_region = self.seg_recv.view_f64(0, lay.total_params)
        grad_region = self.seg_work.view_f64(0, lay.total_params)
        self.model_views = [model_region[a:b] for a, b in zip(bounds, bounds[1:])]
        self.grad_views = [grad_region[a:b] for a, b in zip(bounds, bounds[1:])]

        for view, layer in zip(self.model_views, start):
            view[:] = layer

        # expected notification id -> (unit, phases this rank must have
        # started, iteration parity it serves or None for both)
        self._expected: dict[int, tuple[int, int, int | None]] = {}
        # per iteration parity, each unit's phases; a sharded unit's are shared
        self._parity_phases = tuple(zip(*(
            self._exchange(unit) if u.replicated else [self._sharded(unit)] * 2
            for unit, u in enumerate(self.units)
        )))
        # every id in [1, count) is assigned, so polls cover exactly that span
        self._poll_ids = lay.notif_count(channels) - 1
        self.losses: list[float] = []
        self.fold_counts = [0] * self.num_layers
        self.k = 0

    # Collective plan ---------------------------------------------------------

    def _sharded(self, unit: int) -> list[_Phase]:
        """This rank's phases for one unit: reduce-scatter steps 0..d-1,
        then the all-gather, which opens with the update of the shards
        this rank plays.  Empty ranges are neither sent nor waited for."""
        lay, cube, world = self.layout, self.cube, self.cfg.world_size
        n = lay.param_counts[unit]
        grad = self.seg_work.view_f64(lay.offset(0, unit), n)
        phases = []
        gave = []  # (range, step) of every range this rank's reduce-scatter sent
        for j in range(self.steps):
            rx = self.seg_recv.view_f64(lay.offset(1 + j, unit), n)
            rs = _Phase(f"reduce-scatter step {j}", "send_trigger", [], [], [], [])
            for v, w in cube.exchanges(self.rank, j):
                peer = cube.players[w]
                # v keeps one half of the range both hold, w the other:
                # each sends the other the half it gives up
                keep = shard_range(n, v, j + 1)
                give = shard_range(n, w, j + 1)
                if keep[1] > keep[0]:
                    nid = lay.notif_id(w, unit)
                    rs.waits.append(_Wait(nid, peer))
                    rs.folds.append((rx[slice(*keep)], grad[slice(*keep)]))
                    self._expected[nid] = (unit, 0, None)
                if give[1] > give[0]:
                    rs.sends.append(self._write(peer, SEG_WORK, 1 + j, unit, give, v))
                    gave.append((give, j))
            phases.append(rs)
        # the player of each non-empty shard writes it from slot 0 into the
        # same range of every other rank's slot 0, on the shard's all-gather
        # channel.  A shard comes only after this rank started the
        # reduce-scatter step whose send carried its contribution to it,
        # the one sent range that holds the shard.
        phase = _Phase("all-gather", "model_forward", self._update_pieces(unit), [], [], [])
        for x, player in enumerate(cube.players):
            lo, hi = shard = shard_range(n, x, self.steps)
            if lo == hi:
                continue
            channel = len(cube.players) + x
            if player == self.rank:
                # peers in turn from the next rank on, so no rank is every
                # owner's first destination
                for i in range(1, world):
                    dest = (self.rank + i) % world
                    phase.sends.append(self._write(dest, SEG_RECV, 0, unit, shard, channel))
            else:
                (step,) = [j for (a, b), j in gave if a <= lo and hi <= b]
                nid = lay.notif_id(channel, unit)
                phase.waits.append(_Wait(nid, player))
                self._expected[nid] = (unit, step + 1, None)
        return phases + [phase]

    def _exchange(self, unit: int) -> list[list[_Phase]]:
        """A replicated unit's phases for even and odd iterations: the
        one-hop exchange, then the update of the whole unit.

        The rank writes its whole unit gradient into its own range of
        every peer's exchange ranges of the iteration's parity, and once
        every peer's landed, folds them in :func:`.sgd.tree_reduce`'s
        order.  The running sum of this rank's tree path stays in its
        gradient: where the tree adds a path child's sum to its parent's
        partial sum, the fold adds the partial sum to the gradient
        instead, the same IEEE sum, so the total ends there."""
        lay, world = self.layout, self.cfg.world_size
        n = lay.param_counts[unit]
        grad = self.seg_work.view_f64(lay.offset(0, unit), n)
        tree = build_reduction_tree(world)
        path, node = {tree.root}, self.rank  # this rank and its ancestors
        while node != tree.root:
            path.add(node)
            node = tree.parent[node]
        update = _Phase("update", "master_update", self._update_pieces(unit), [], [], [])
        plans = []
        for parity in (0, 1):
            base = self._exchange_channel + parity * world  # sender 0's channel
            phase = _Phase("exchange", "send_trigger", [], [], [], [])
            for i in range(1, world):
                dest = (self.rank + i) % world
                phase.sends.append(WriteRequest(
                    SEG_WORK, lay.offset(0, unit), dest, SEG_RECV,
                    lay.exchange_offset(parity, self.rank, unit), lay.unit_bytes[unit],
                    lay.notif_id(base + self.rank, unit), 0,
                ))
            home = []  # where each rank's subtree sum builds up
            for sender in range(world):
                if sender == self.rank:
                    home.append(grad)
                    continue
                nid = lay.notif_id(base + sender, unit)
                phase.waits.append(_Wait(nid, sender))
                self._expected[nid] = (unit, 0, parity)
                home.append(self.seg_recv.view_f64(lay.exchange_offset(parity, sender, unit), n))
            for r in reversed(range(world)):
                for c in tree.children[r]:
                    if c in path:
                        phase.folds.append((home[r], home[c]))
                        home[r] = home[c]
                    else:
                        phase.folds.append((home[c], home[r]))
            plans.append([phase, update])
        return plans

    def _write(
        self, dest: int, segment: int, slot: int, unit: int, span: tuple[int, int], channel: int
    ) -> WriteRequest:
        """A write of one range of a unit from slot 0 of ``segment`` into
        the same range of ``dest``'s receive ``slot``, not yet stamped."""
        lay = self.layout
        lo, hi = span
        return WriteRequest(
            segment, lay.offset(0, unit, lo), dest, SEG_RECV, lay.offset(slot, unit, lo),
            lay.offset(0, unit, hi) - lay.offset(0, unit, lo), lay.notif_id(channel, unit), 0,
        )

    def _update_pieces(self, unit: int) -> list:
        """(layer, weights, gradient) views of what this rank updates of
        one unit - its shards, or the whole unit if it is replicated - one
        piece per layer a range touches."""
        first, stop, replicated = self.units[unit]
        bounds, model, grad = self._bounds, self.model_views, self.grad_views
        n = self.layout.param_counts[unit]
        spans = (
            [(0, n)] if replicated
            else [shard_range(n, v, self.steps) for v in self.vranks]
        )
        pieces = []
        for lo, hi in spans:
            for layer in range(first, stop):
                # the range's part of this layer, in the layer's own indices
                a = max(bounds[first] + lo - bounds[layer], 0)
                b = min(bounds[first] + hi, bounds[layer + 1]) - bounds[layer]
                if a < b:
                    pieces.append((layer, model[layer][a:b], grad[layer][a:b]))
        return pieces

    # Event recording ------------------------------------------------------

    def _record(self, kind: str, layer: int, t0: int, t1: int) -> None:
        if self.events is not None:
            self.events.append(TimelineEvent(self.rank, self.k, layer, kind, t0, t1))

    # Sending ---------------------------------------------------------------

    def _send(self, unit: int, kind: str, write: WriteRequest) -> None:
        """One planned notify-write, stamped when sent with notification
        value iteration+1 so receivers can tell live data from leftovers
        (value 0 means "never fired").

        The flight is recorded at once, from here to whichever ends
        later: the call, which over tcp sends the whole frame, or the
        write's flight on its link.  Nothing waits for that flight: the
        payload has left its source range when the call returns.
        """
        t0 = time.monotonic_ns()
        end = self.tr.write_notify(write._replace(notification_value=self.k + 1))
        self._record(kind, self._labels[unit], t0, max(time.monotonic_ns(), end))

    # Batch handling ---------------------------------------------------------

    def _shard(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        idx = batch_indices(self.cfg.seed, k, self.cfg.batch_size, len(self.dataset))
        lo, hi = shard_bounds(self.cfg.batch_size, self.cfg.world_size, self.rank)
        return self.dataset.take(idx[lo:hi])

    def _inflate(self) -> None:
        """Model one layer's backward compute, communicating while it runs.

        The layer's compute ends ``compute_inflation_ns`` after the
        previous layer's on the device clock (see the module docstring),
        not that long after this call: the turn just taken and the real
        backward compute since count toward it.  Until then the rank runs
        communication passes - folding, updating and sending whatever
        became possible - and idles only after a pass that consumed
        nothing, as a host thread drives one-sided writes while an
        accelerator computes.  No new guard is needed: the backward
        pass has already read the weights an update may now overwrite,
        all-gather data arrives only after this rank's gradient for it
        went out, and folds follow the step order.  A failed peer raises
        here instead of at the next turn.
        """
        self._device_ns += self.cfg.compute_inflation_ns
        while (left_ns := self._device_ns - time.monotonic_ns()) > 0:
            if not self._comm_pass():
                time.sleep(min(IDLE_SLEEP_S, left_ns * 1e-9))

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

        self._turn_clock = self._device_ns = time.monotonic_ns()

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
        self._phases = self._parity_phases[k & 1]

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
                time.sleep(IDLE_SLEEP_S)
        self._record("finalize", -1, t0, time.monotonic_ns())

    def _fence(self) -> None:
        t0 = time.monotonic_ns()
        self.tr.barrier()
        self._record("barrier", -1, t0, time.monotonic_ns())

    # Internal steps ---------------------------------------------------------

    def _comm_pass(self) -> bool:
        """One non-blocking poll of the receive segment, then the work it enables.

        Every assigned id is polled.  Traffic for iteration k+1 (value
        k+2) is left in place for the next iteration; any other value but
        k+1 is a protocol violation and raises.  Each arrival is consumed,
        checked and recorded, then every started unit runs as many phases
        as its arrivals allow.  A rank without peers never polls.  Returns
        True when at least one notification was consumed, which is the
        liveness signal the finalize watchdog feeds on.
        """
        t_pass = time.monotonic_ns()
        consumed = False
        hits = self.tr.notify_poll(SEG_RECV, 1, self._poll_ids) if self.cfg.world_size > 1 else []
        for nid, value in hits:
            if value == self.k + 2:
                continue  # next iteration's data, not ours to consume
            if value != self.k + 1:
                raise ProtocolError(
                    f"rank {self.rank}: iteration {self.k} saw notification value "
                    f"{value} on id {nid}"
                )
            self.tr.notify_reset(SEG_RECV, nid)
            self._accept(nid, t_pass)
            consumed = True
        for unit in range(len(self.units)):
            self._advance(unit)
        return consumed

    def _accept(self, nid: int, t_pass: int) -> None:
        """Check one consumed arrival against the plan, then record it."""
        st = self.state
        if nid not in self._expected:
            channel, unit = self.layout.decode(nid)
            if channel >= self._exchange_channel:
                owned = (channel - self._exchange_channel) % self.cfg.world_size == self.rank
                self._violation(nid, "a range this rank owns" if owned else "for a sharded unit")
            if self.units[unit].replicated:
                self._violation(nid, "for a replicated unit")
            owned = channel % len(self.cube.players) in self.vranks
            self._violation(nid, "a range this rank owns" if owned else "not from a partner")
        unit, need_started, parity = self._expected[nid]
        if parity not in (None, self.k & 1):
            self._violation(nid, f"on the other iteration parity's id in iteration {self.k}")
        if nid in st.arrived[unit]:
            self._violation(nid, "a duplicate")
        if st.started[unit] < need_started:
            self._violation(nid, "arrived before this rank's own data for it went out")
        st.arrived[unit].add(nid)
        self._record("recv_notify", self._labels[unit], t_pass, time.monotonic_ns())

    def _violation(self, nid: int, problem: str) -> None:
        channel, unit = self.layout.decode(nid)
        if channel >= self._exchange_channel:
            parity, s = divmod(channel - self._exchange_channel, self.cfg.world_size)
            source = f"exchange write from rank {s} (parity {parity})"
        else:
            gather, w = divmod(channel, len(self.cube.players))
            kind = "all-gather" if gather else "reduce-scatter"
            source = f"{kind} write from virtual rank {w}"
        raise ProtocolError(f"rank {self.rank}: {source} for unit {unit}: {problem}")

    def _advance(self, unit: int) -> None:
        """Run a started unit's phases while their arrivals are in.

        Entering a phase updates its pieces in place, then sends its
        writes; a phase ends once all of its waits arrived, running its
        folds in the order the phase lists them.
        """
        st = self.state
        if not st.local_gradient_ready[unit]:
            return
        phases = self._phases[unit]
        first, stop, _ = self.units[unit]
        while (p := st.ended[unit]) < len(phases):
            phase = phases[p]
            if st.started[unit] == p:
                st.started[unit] = p + 1
                for layer, weights, gradient in phase.updates:
                    t0 = time.monotonic_ns()
                    apply_update(weights, gradient, self.cfg.epsilon)
                    self._record("master_update", layer, t0, time.monotonic_ns())
                for write in phase.sends:
                    self._send(unit, phase.kind, write)
            arrived = st.arrived[unit]
            if not all(wait.nid in arrived for wait in phase.waits):
                return
            for addend, total in phase.folds:
                t0 = time.monotonic_ns()
                buffer_add(addend, total)
                self._record("reduce_local", self._labels[unit], t0, time.monotonic_ns())
                for layer in range(first, stop):
                    self.fold_counts[layer] += 1
            st.ended[unit] = p + 1

    def _iteration_done(self) -> bool:
        return all(e == len(p) for e, p in zip(self.state.ended, self._phases))

    def _dump_state(self) -> str:
        st = self.state
        waiting = []
        for unit, (first, stop, _) in enumerate(self.units):
            layers = f"layers [{first}, {stop})"
            if not st.local_gradient_ready[unit]:
                waiting.append(f"{layers} local gradient")
            elif st.ended[unit] < len(self._phases[unit]):
                phase = self._phases[unit][st.ended[unit]]
                missing = sorted({w.sender for w in phase.waits if w.nid not in st.arrived[unit]})
                waiting.append(f"{layers} {phase.name} (ranks pending: {missing})")
        return "; ".join(waiting) or "nothing pending"
