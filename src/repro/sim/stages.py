"""The four pipeline stages of the simulation core.

Each cycle the :class:`~repro.sim.engine.Simulator` façade runs, in
order: :class:`GenerationStage`, :class:`InjectionStage`,
:class:`AllocationStage`, :class:`TransferStage`.  The stage split keeps
each phase's state and wakeup discipline in one object; the shared
dynamic state (source queues, outstanding counts, the waiting-module
set, in-flight accounting) stays on the simulator, which every stage
holds a reference to.

The stages serve one adaptive core, its two pinned spellings and the
oracle (``Simulator(core=...)``):

* **work-lists** (every core but ``"legacy"``) — sources enter the
  injection work-list only when they hold queued messages, modules enter
  the allocation work-list only when a header arrives (the engine's
  long-standing ``_modules_waiting`` pattern), channels enter the
  transfer work-list only while a virtual channel is busy on them, and
  generation skips idle sources through the
  :class:`~repro.sim.sampling.GeometricSampler` block stream.
* **two branches for phases 3 and 4** — the scalar loops of
  :class:`AllocationStage` / :class:`TransferStage` (all of ``"active"``),
  and the batched numpy pass of :mod:`repro.sim.vector`.  The default
  ``"adaptive"`` core (:class:`AdaptiveAllocationStage` /
  :class:`AdaptiveTransferStage`) picks one per cycle from the number of
  busy channels; ``"vector"`` is the same pair pinned to always batch.
* ``"legacy"`` — the seed engine's full-scan algorithm, kept as the
  oracle: every healthy node draws inline and every physical channel is
  visited every cycle.

Every spelling executes the *same* per-node / per-channel decisions in
the same order, so results are bit-for-bit identical — the parity
guarantee ``tests/test_engine_parity.py`` enforces (see
docs/architecture.md for the ordering argument).
"""

from __future__ import annotations

from bisect import insort
from typing import TYPE_CHECKING, List

from ..router.channels import ChannelKind, PhysicalChannel, VirtualChannel
from ..router.modules import Module
from .sampling import GeometricSampler

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from .engine import Simulator


def _channel_index(channel: PhysicalChannel) -> int:
    return channel.index


class GenerationStage:
    """Phase 1: every healthy node generates a message with probability
    ``rate`` for a destination chosen by the traffic pattern; generated
    messages queue at the source.

    With ``block_sampling`` the generation stream comes through the
    block sampler, so cycles and nodes that generate nothing never
    execute any per-node Python; the legacy oracle draws inline per node.
    Both consume the RNG stream in identical order.
    """

    __slots__ = ("sim", "sampler")

    def __init__(self, sim: "Simulator", *, block_sampling: bool):
        self.sim = sim
        self.sampler = GeometricSampler(sim.gen_rng) if block_sampling else None

    def run(self, now: int) -> None:
        sim = self.sim
        rate = sim.config.rate
        if rate <= 0.0:
            return
        healthy = sim.net.healthy
        if self.sampler is not None:
            hits = self.sampler.next_cycle(len(healthy), rate)
            for index in hits:
                self._generate_at(healthy[index])
        else:
            rng_random = sim.gen_rng.random
            for coord in healthy:
                if rng_random() >= rate:
                    continue
                self._generate_at(coord)

    def _generate_at(self, coord) -> None:
        sim = self.sim
        dst = sim.traffic.destination(coord)
        if dst is None:
            return
        sim._queue_message(coord, dst)
        if sim.stats.measuring:
            sim.stats.generated += 1


class InjectionStage:
    """Phase 2: a node whose queue is non-empty and which has fewer than
    ``injection_limit`` previously injected messages still in the node
    starts transmitting the next message on a free injection virtual
    channel.  Idle sources are never visited: a source is on
    ``sim._active_sources`` only while it holds queued messages."""

    __slots__ = ("sim", "transfer")

    def __init__(self, sim: "Simulator", transfer: "TransferStage"):
        self.sim = sim
        self.transfer = transfer

    def run(self, now: int) -> None:
        sim = self.sim
        sources = sim._active_sources
        if not sources:
            return
        limit = sim.config.injection_limit
        activate = self.transfer.activate
        stats = sim.stats
        tracer = sim.tracer
        done: List = []
        for coord in sources:
            queue = sim.queues[coord]
            if not queue:
                done.append(coord)
                continue
            if sim.outstanding[coord] >= limit:
                continue
            channel = sim.net.nodes[coord].injection_channel
            message = queue[0]
            base = sim.net.base_classes
            bank = range(message.protocol * base, (message.protocol + 1) * base)
            vc = channel.free_vc(bank)
            if vc is None:
                continue
            queue.popleft()
            vc.message = message
            vc.upstream = message.source
            channel.busy_add(vc)
            activate(channel)
            message.injected_cycle = now
            sim.outstanding[coord] += 1
            sim.in_flight += 1
            if tracer is not None:
                tracer.on_inject(now, message, channel, vc)
            if stats.measuring:
                stats.injected += 1
            if not queue:
                done.append(coord)
        for coord in done:
            sources.discard(coord)


class AllocationStage:
    """Phase 3: each router module processes one incoming header
    (round-robin among its input virtual channels holding an eligible
    header): the routing logic picks the output channel and the
    admissible virtual channel classes; the header is allocated the
    first free one, extending the worm.

    Modules wake only when a header arrives: the engine's
    ``_modules_waiting`` insertion-ordered dict (a set of Modules would
    iterate in ``id()`` order, which varies run to run and breaks
    bit-for-bit determinism when two modules race for one downstream
    VC)."""

    __slots__ = ("sim", "transfer")

    def __init__(self, sim: "Simulator", transfer: "TransferStage"):
        self.sim = sim
        self.transfer = transfer

    def run(self, now: int) -> bool:
        sim = self.sim
        waiting_set = sim._modules_waiting
        if not waiting_set:
            return False
        routing = sim.net.routing
        share_idle = sim.config.effective_sharing
        nodes = sim.net.nodes
        activate = self.transfer.activate
        reconfig = sim.reconfig
        tracer = sim.tracer
        progress = False
        finished: List[Module] = []
        for module in waiting_set:
            waiting = module.waiting
            if not waiting:
                finished.append(module)
                continue
            count = len(waiting)
            start = module.rr % count
            for offset in range(count):
                vc = waiting[(start + offset) % count]
                eligible = vc.eligible
                if not eligible or eligible[0] > now:
                    continue
                resolution = vc.cached_resolution
                fresh = resolution is None
                if resolution is None:
                    node = nodes[module.node_coord]
                    if reconfig is not None:
                        # transition window: a stale node may steer the
                        # worm at a dead component — the window truncates
                        # it (loss) instead of letting the error escape
                        resolution = reconfig.resolve(
                            node, module, vc, routing, share_idle
                        )
                        if resolution is None:
                            # the kill mutated module.waiting under us;
                            # rr points at the slot the removal vacated
                            module.rr = start + offset
                            progress = True
                            break
                    else:
                        resolution = node.resolve(module, vc.message, routing, share_idle)
                    vc.cached_resolution = resolution
                downstream = resolution.channel.free_vc(resolution.classes)
                if downstream is None:
                    if fresh and tracer is not None:
                        # only the header's first failed attempt at this
                        # node: later retries find the cached resolution
                        tracer.on_blocked(now, vc.message, module, resolution.channel)
                    continue
                if resolution.commit_decision is not None:
                    routing.commit_hop(
                        vc.message.route, module.node_coord, resolution.commit_decision
                    )
                downstream.message = vc.message
                downstream.upstream = vc
                resolution.channel.busy_add(downstream)
                activate(resolution.channel)
                if tracer is not None:
                    tracer.on_vc_alloc(
                        now, vc.message, module, resolution.channel, downstream
                    )
                vc.waiting_route = False
                vc.cached_resolution = None
                waiting.remove(vc)
                # Bounded by construction: start < count and offset < count,
                # so rr <= 2*count - 1 (tests/test_router_modules.py asserts
                # the invariant).  Do NOT reduce this modulo count: the next
                # arbitration reduces by the *new* waiting length, so storing
                # rr % count changes which header is served when the list has
                # shrunk or grown in between — empirically enough to push one
                # fault-campaign scenario into a watchdog deadlock.
                module.rr = start + offset + 1
                progress = True
                break  # one header per module per cycle
            if not waiting:
                finished.append(module)
        for module in finished:
            waiting_set.pop(module, None)
        return progress


class TransferStage:
    """Phase 4: every physical channel moves at most one flit (demand
    time-multiplexed round-robin over its allocated virtual channels
    whose upstream flit is eligible and whose buffer has space).  Flits
    entering a module input buffer become eligible after the router
    timing delay; flits entering a consumption channel are delivered.

    With ``work_list`` only registered channels are serviced: a channel
    registers (``activate``) when a virtual channel is allocated on it
    and lazily drops off once its busy list empties.  The work-list is
    kept sorted by construction index, which makes its service order a
    subsequence of the legacy full scan — channels with no busy VC are
    exactly the ones the full scan skips, so both execute the same
    transfers in the same order."""

    __slots__ = ("sim", "active_set", "_active")

    def __init__(self, sim: "Simulator", *, work_list: bool):
        self.sim = sim
        #: True while channels register on (and are served from) the
        #: work-list; False full-scans ``net.channels`` (legacy oracle)
        self.active_set = work_list
        self._active: List[PhysicalChannel] = []

    # -- work-list maintenance ------------------------------------------
    def activate(self, channel: PhysicalChannel) -> None:
        """Register a channel that just had a virtual channel allocated
        on it.  O(1) when already registered; ordered insert otherwise."""
        if not self.active_set or channel.active:
            return
        channel.active = True
        insort(self._active, channel, key=_channel_index)

    def resync(self) -> None:
        """Rebuild the work-list from the network's channel list (after a
        reconfiguration removed channels or released worms wholesale)."""
        if not self.active_set:
            return
        for channel in self._active:
            channel.active = False
        self._active = [ch for ch in self.sim.net.channels if ch.busy]
        for channel in self._active:
            channel.active = True

    # -- per-cycle service ----------------------------------------------
    def run(self, now: int) -> bool:
        sim = self.sim
        compact = self.active_set
        channels = self._active if compact else sim.net.channels
        progress = False
        timing = sim.config.timing
        header_delay = timing.header_delay
        data_delay = timing.data_delay
        internode = ChannelKind.INTERNODE
        consumption = ChannelKind.CONSUMPTION
        waiting_set = sim._modules_waiting
        on_consumed = sim._on_consumed
        outstanding = sim.outstanding
        active_sources = sim._active_sources
        tracer = sim.tracer
        write = 0
        for channel in channels:
            busy = channel.busy
            if not busy:
                if compact:
                    channel.active = False
                continue
            if compact:
                channels[write] = channel
                write += 1
            count = len(busy)
            start = channel.rr % count
            for offset in range(count):
                vc = busy[(start + offset) % count]
                message = vc.message
                if vc.received >= message.length:
                    # Whole worm already received; the VC is only draining
                    # downstream.  Its upstream reference is stale (that VC
                    # may have been released and re-allocated), so it must
                    # not pull again.
                    continue
                # eligibility + pop inlined (this is the hottest loop in
                # the simulator; the method-call forms are
                # has_eligible_flit / pop_flit on VirtualChannel and
                # MessageSource)
                upstream = vc.upstream
                from_vc = type(upstream) is VirtualChannel
                if from_vc:
                    upstream_flits = upstream.eligible
                    if not upstream_flits or upstream_flits[0] > now:
                        continue
                elif upstream.sent >= upstream.length:
                    continue
                kind = channel.kind
                if kind is consumption:
                    if from_vc:
                        upstream_flits.popleft()
                    upstream.sent += 1
                    vc.received += 1
                    vc.sent += 1
                    if vc.received == message.length:
                        message.consumed_cycle = now
                        on_consumed(message)
                        channel.release(vc)
                else:
                    if vc.received - vc.sent >= channel.buffer_depth:
                        continue
                    if from_vc:
                        upstream_flits.popleft()
                    upstream.sent += 1
                    is_header = vc.received == 0
                    vc.received += 1
                    vc.eligible.append(now + (header_delay if is_header else data_delay))
                    if is_header:
                        module = channel.dst_module
                        if module is not None:
                            module.waiting.append(vc)
                            vc.waiting_route = True
                            waiting_set[module] = None
                    if vc.received == message.length:
                        # the tail finished crossing this channel (hop done)
                        if not message.exited_source and kind is internode:
                            message.exited_source = True
                            outstanding[message.src] -= 1
                            active_sources.add(message.src)
                        if tracer is not None:
                            tracer.on_transfer(now, message, channel, vc)
                if from_vc and upstream.sent == message.length:
                    upstream.channel.release(upstream)
                channel.transfers += 1
                channel.rr = (start + offset + 1) % count
                progress = True
                break  # one flit per physical channel per cycle
        if compact:
            del channels[write:]
        return progress


#: Busy physical channels at which a scalar cycle hands over to the
#: batched pass (``BATCH_ENTER``) and below which a batched cycle hands
#: back (``BATCH_LEAVE``; the gap keeps a network hovering at the cutoff
#: from paying the work-list rebuild every cycle).  Measured, not
#: configurable.  Milliseconds per run, best of 3, enter/leave:
#:
#:   run (busy channels p5-p95)       never 32/24 64/48 96/72 128/96 always
#:   4x4   rate 0.06    (69-85)         858   946   955   855    859    951
#:   8x8   rate 0.005   (28-86)         687   785   725   684    689    793
#:   16x16 rate 0.0002  (0-26)          189   196   190   191    190    410
#:   16x16 rate 0.002   (87-193)       1761  1128  1130  1144   1194   1154
#:   16x16 5% faults, rate 0.014 (~930) 2701  932   930   964    936    918
#:
#: The full sweep and the busy-channel distributions are in
#: docs/architecture.md ("Choosing the branch").
BATCH_ENTER = 96
BATCH_LEAVE = 72


class AdaptiveTransferStage(TransferStage):
    """Phase 4 of the adaptive core: each cycle takes one of two branches
    over the same SoA state — the inherited scalar loop over the
    work-list, or the batched numpy pass of :mod:`repro.sim.vector`.

    The choice follows the number of physical channels with a busy VC:
    the work-list's own length on scalar cycles, the busy set's size on
    batched ones, so neither branch pays for the other's bookkeeping
    (and a run that never reaches the cutoff never loads the batched
    module at all).  Both branches map a cycle-start state to the same
    cycle-end state, so a switch only refreshes what the idle branch let
    go stale: the work-list is rebuilt on the way down, the batched
    pass's parked modules are flushed on the way up."""

    __slots__ = ("batched", "enter", "leave", "batched_cycles", "switches")

    def __init__(self, sim: "Simulator", *, always_batch: bool):
        super().__init__(sim, work_list=True)
        #: the :class:`~repro.sim.vector.BatchedPass`, built on first use
        self.batched = None
        timing = sim.config.timing
        if timing.header_delay < 1 or timing.data_delay < 1:
            # batching needs pushed flits to never be same-cycle eligible
            self.enter, self.leave = float("inf"), 0
        elif always_batch:
            self.enter = self.leave = 0
        else:
            self.enter, self.leave = BATCH_ENTER, BATCH_LEAVE
        #: branch accounting (the parity tests assert both branches ran)
        self.batched_cycles = 0
        self.switches = 0

    @property
    def batching(self) -> bool:
        """The branch the next stage call takes: batched cycles are
        exactly those on which the work-list is not maintained."""
        return not self.active_set

    def resync(self) -> None:
        # reconfiguration killed worms and rebuilt routing outside the
        # stages: besides the work-list, every parked allocation
        # decision and recorded wake source is stale
        TransferStage.resync(self)
        if self.batched is not None:
            self.batched.flush()

    def _switch(self, batching: bool) -> None:
        self.active_set = not batching
        self.switches += 1
        if not batching:
            # batched cycles do not maintain the work-list
            TransferStage.resync(self)
        elif self.batched is None:
            from .vector import BatchedPass

            self.batched = BatchedPass(self.sim)
        else:
            # scalar cycles release channels without waking parked modules
            self.batched.flush()

    def run(self, now: int) -> bool:
        if self.batching:
            if self.sim.reconfig is not None:
                self._switch(False)  # transition windows are scalar-only
        elif len(self._active) >= self.enter and self.sim.reconfig is None:
            self._switch(True)
        if self.batching:
            progress = self.batched.transfer(now, self.leave)
            if progress is not None:
                self.batched_cycles += 1
                return progress
            self._switch(False)  # fewer than ``leave`` channels busy
        return TransferStage.run(self, now)


class AdaptiveAllocationStage(AllocationStage):
    """Phase 3 of the adaptive core: the inherited arbitration loop on
    scalar cycles (and in reconfiguration windows, whose stale/target
    resolution is stateful), the batched pass's parked/cached variant of
    it while the transfer stage is batching."""

    __slots__ = ()

    def run(self, now: int) -> bool:
        transfer = self.transfer
        if transfer.batching and self.sim.reconfig is None:
            return transfer.batched.allocate(now)
        return AllocationStage.run(self, now)
