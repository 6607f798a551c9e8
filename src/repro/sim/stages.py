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
* **one allocation loop, two transfer branches** — phase 3 is one
  loop, :meth:`AllocationStage.run`, on every core and every cycle; it
  memoizes header resolutions and parks modules that cannot grant
  (everywhere but the oracle and transition windows).  Phase 4 has two
  branches: the scalar loop of :class:`TransferStage` (all of
  ``"active"``) and the batched numpy pass of :mod:`repro.sim.vector`.
  The default ``"adaptive"`` core (:class:`AdaptiveTransferStage`) picks
  one per cycle from the number of busy channels; ``"vector"`` is the
  same stage pinned to always batch.  Both branches index the
  :class:`~repro.sim.soa.SoAState` buffers directly and wake parked
  modules through :meth:`AllocationStage.wake`; Python objects
  (messages, VC views, modules) are fetched only where an event needs
  them — a header wake-up, a tail, a delivery, a release, the tracer.
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
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List

from ..core.ecube import next_ecube_dim
from ..router.channels import PhysicalChannel
from ..router.modules import Module
from .sampling import GeometricSampler
from .soa import BIG, KIND_CONSUMPTION, KIND_INTERNODE

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from .engine import Simulator


def _channel_index(channel: PhysicalChannel) -> int:
    return channel.index


#: what the oracle and transition windows consult instead of the parked set
_NOT_PARKED = frozenset()


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
    first free one, extending the worm.  This is the one header
    arbitration loop: every core and both transfer branches use it.

    Modules wake only when a header arrives: the engine's
    ``_modules_waiting`` insertion-ordered dict (a set of Modules would
    iterate in ``id()`` order, which varies run to run and breaks
    bit-for-bit determinism when two modules race for one downstream
    VC).

    Outside the oracle (``core="legacy"``) and transition windows
    (``sim.reconfig``, whose stale/target resolution is stateful), two
    fast paths ride on the loop.  A fresh header of a routing policy
    that declares ``cacheable_decisions`` resolves through the memo on
    the network (``SimNetwork.resolution_memo``: decisions keyed by the
    e-cube hop and the exact mutable route fields they read; misroute
    entries mutate state and are never cached).  And a module whose
    scan grants nothing **parks**.

    Parking argument: a module whose scan ends without a grant changed
    nothing observable (``rr`` untouched, resolutions cached,
    ``on_blocked`` fires only on the fresh resolve), so skipping the
    rescan is invisible as long as the module is rescanned no later
    than the first cycle it *could* grant.  Every waiting VC is blocked
    on exactly one of two conditions, each with an exact wake event:

    * its header is not yet eligible — the head time is a fixed future
      cycle (the ring cannot empty or advance while the header waits
      for a route, and pushes never touch a non-empty ring's head), so
      a timer at that cycle is exact;
    * its resolved output channel has no free VC in the admissible
      classes — free bits are set only by ``channel.release``, and every
      release in either transfer branch calls :meth:`wake` for the
      channel's subscribers.

    A header arriving at a parked module unparks it.  Releases outside
    the transfer stage (worms killed by a reconfiguration) go through
    ``reconfiguration._retire``, which calls :meth:`flush`; spurious
    wakes are always safe (a rescan that cannot grant has no observable
    effect)."""

    __slots__ = ("sim", "transfer", "plain", "_parked", "_subs", "_timers", "_tseq")

    def __init__(self, sim: "Simulator", transfer: "TransferStage"):
        self.sim = sim
        self.transfer = transfer
        #: the oracle resolves every fresh header and never parks, so the
        #: parity matrix checks the memo and parking against neither
        self.plain = sim.core == "legacy"
        self._parked: Dict[Module, None] = {}
        self._subs: Dict[int, List[Module]] = {}
        self._timers: List[tuple] = []
        self._tseq = 0

    def flush(self) -> None:
        """Wake every parked module and forget every wake source."""
        self._parked.clear()
        self._subs.clear()
        self._timers.clear()

    def wake(self, ci: int) -> None:
        """Channel ``ci`` released a VC: wake the modules blocked on it."""
        woken = self._subs.pop(ci, None)
        if woken:
            parked = self._parked
            for module in woken:
                parked.pop(module, None)

    def run(self, now: int) -> bool:
        sim = self.sim
        waiting_set = sim._modules_waiting
        if not waiting_set:
            return False
        net = sim.net
        routing = net.routing
        share_idle = sim.config.effective_sharing
        nodes = net.nodes
        activate = self.transfer.activate
        reconfig = sim.reconfig
        tracer = sim.tracer
        store = net.store
        head_time = store.head_time
        free_mask = store.free_mask
        res = store.res
        msg = store.msg
        msg_len = store.msg_len
        upstream = store.upstream
        waiting_route = store.waiting_route
        module_rr = store.module_rr
        park = not self.plain and reconfig is None
        cache = None
        parked = self._parked if park else _NOT_PARKED
        if park:
            memo_routing, memo_sharing, cache = net.resolution_memo
            if routing is not memo_routing or share_idle != memo_sharing:
                # routing objects are replaced, never mutated, on
                # reconfiguration — identity tracks fault-view freshness;
                # a reused network hands the next run a warm table
                cache = {} if getattr(routing, "cacheable_decisions", False) else None
                net.resolution_memo = (routing, share_idle, cache)
            timers = self._timers
            while timers and timers[0][0] <= now:
                parked.pop(heappop(timers)[2], None)
            if cache is not None:
                min_dir = routing.network.minimal_direction
        progress = False
        finished: List[Module] = []
        for module in waiting_set:
            if module in parked:
                continue
            waiting = module.waiting
            if not waiting:
                finished.append(module)
                continue
            granted = False
            wake_time = BIG
            wake_chans: List[int] = []
            mid = module._mid
            count = len(waiting)
            start = module_rr[mid] % count
            for offset in range(count):
                vc = waiting[(start + offset) % count]
                vid = vc._vid
                # the header is the ring head while the VC waits for a
                # route, so its eligibility is one load
                ht = head_time[vid]
                if ht > now:
                    if ht < wake_time:
                        wake_time = ht
                    continue
                message = msg[vid]
                resolution = res[vid]
                fresh = resolution is None
                if fresh:
                    node = nodes[module.node_coord]
                    route = message.route
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
                            module_rr[mid] = start + offset
                            progress = True
                            break
                    elif cache is not None and route.misroute is None:
                        # replicate next_hop's _normalize (idempotent:
                        # resolve re-runs it on a cache miss)
                        coord = module.node_coord
                        dst = route.dst
                        dim = next_ecube_dim(coord, dst)
                        if dim is None:
                            hop = None
                        else:
                            route.advance_role(dim)
                            # the e-cube hop carries everything the
                            # decision reads from dst, so keying on it
                            # (instead of dst itself) collapses the key
                            # space from num-nodes to a handful per module
                            hop = (dim, min_dir(coord[dim], dst[dim]))
                        key = (
                            module,
                            hop,
                            route.msg_dim,
                            route.wrapped,
                            message.protocol,
                            route.resume_direct,
                            route.last_dim,
                            route.last_vc_class,
                        )
                        resolution = cache.get(key)
                        if resolution is None:
                            resolution = node.resolve(module, message, routing, share_idle)
                            if route.misroute is None:
                                # blocked decisions enter a misroute and
                                # mutate route state — never cacheable
                                cache[key] = resolution
                    else:
                        resolution = node.resolve(module, message, routing, share_idle)
                    res[vid] = resolution
                channel = resolution.channel
                ci = channel.index
                if free_mask[ci] & resolution.class_mask:
                    downstream = channel.free_vc(resolution.classes)
                else:
                    downstream = None
                if downstream is None:
                    if fresh and tracer is not None:
                        # only the header's first failed attempt at this
                        # node: later retries find the cached resolution
                        tracer.on_blocked(now, message, module, channel)
                    wake_chans.append(ci)
                    continue
                if resolution.commit_decision is not None:
                    routing.commit_hop(
                        message.route, module.node_coord, resolution.commit_decision
                    )
                # extend the worm: the downstream VC is free, so no
                # message source is bound to it
                down = downstream._vid
                msg[down] = message
                msg_len[down] = message.length
                free_mask[ci] &= ~(1 << downstream.vc_class)
                upstream[down] = vid
                channel.busy_add(downstream)
                activate(channel)
                if tracer is not None:
                    tracer.on_vc_alloc(now, message, module, channel, downstream)
                waiting_route[vid] = 0
                res[vid] = None
                waiting.remove(vc)
                # Bounded by construction: start < count and offset < count,
                # so rr <= 2*count - 1 (tests/test_router_modules.py asserts
                # the invariant).  Do NOT reduce this modulo count: the next
                # arbitration reduces by the *new* waiting length, so storing
                # rr % count changes which header is served when the list has
                # shrunk or grown in between — empirically enough to push one
                # fault-campaign scenario into a watchdog deadlock.
                module_rr[mid] = start + offset + 1
                progress = True
                granted = True
                break  # one header per module per cycle
            if not waiting:
                finished.append(module)
            elif park and not granted:
                # every waiting VC contributed a wake source; stale
                # subscriptions from an earlier parking only cause a
                # spurious (safe) rescan
                parked[module] = None
                subs = self._subs
                for ci in wake_chans:
                    lst = subs.get(ci)
                    if lst is None:
                        subs[ci] = [module]
                    else:
                        lst.append(module)
                if wake_time < BIG:
                    self._tseq += 1
                    heappush(self._timers, (wake_time, self._tseq, module))
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
        store = sim.net.store
        received = store.received
        sent = store.sent
        head_time = store.head_time
        upstream = store.upstream
        msg_len = store.msg_len
        elig = store.elig
        elig_head = store.elig_head
        elig_count = store.elig_count
        ring_base = store.ring_base
        chan_of = store.chan_of
        is_real = store.is_real
        depth = store.depth
        kind_code = store.kind_code
        rr = store.rr
        transfers = store.transfers
        busy_count = store.busy_count
        busy_slots = store.busy_slots
        waiting_route = store.waiting_route
        msg = store.msg
        vc_obj = store.vc_obj
        K = store.num_classes
        timing = sim.config.timing
        header_delay = timing.header_delay
        data_delay = timing.data_delay
        waiting_set = sim._modules_waiting
        on_consumed = sim._on_consumed
        outstanding = sim.outstanding
        active_sources = sim._active_sources
        tracer = sim.tracer
        wake = sim.allocation.wake
        parked = sim.allocation._parked
        progress = False
        write = 0
        for channel in channels:
            # the busy list mirrors busy_count; its truth test is the
            # cheaper emptiness check on the legacy full scan
            if not channel.busy:
                if compact:
                    channel.active = False
                continue
            if compact:
                channels[write] = channel
                write += 1
            ci = channel.index
            count = busy_count[ci]
            base = ci * K
            start = rr[ci] % count
            for offset in range(count):
                slot = start + offset
                if slot >= count:
                    slot -= count
                vid = busy_slots[base + slot]
                got = received[vid]
                length = msg_len[vid]
                if got >= length:
                    # Whole worm already received; the VC is only draining
                    # downstream.  Its upstream link is stale (that VC may
                    # have been released and re-allocated), so it must not
                    # pull again.
                    continue
                # one pull check for both suppliers: a VC's head_time is
                # its ring head, a source's shadow slot is -1 while it
                # still has flits (soa.py)
                src = upstream[vid]
                if head_time[src] > now:
                    continue
                kind = kind_code[ci]
                consume = kind == KIND_CONSUMPTION
                if not consume and got - sent[vid] >= depth[ci]:
                    continue
                # pop the upstream flit
                pulled = sent[src] + 1
                sent[src] = pulled
                real = is_real[src]
                if real:
                    left = elig_count[src] - 1
                    head = elig_head[src] + 1
                    if head == depth[chan_of[src]]:
                        head = 0
                    elig_head[src] = head
                    elig_count[src] = left
                    head_time[src] = elig[ring_base[src] + head] if left else BIG
                elif pulled >= msg_len[src]:
                    head_time[src] = BIG  # the source is exhausted
                got += 1
                received[vid] = got
                if consume:
                    sent[vid] += 1
                    if got == length:
                        message = msg[vid]
                        message.consumed_cycle = now
                        on_consumed(message)
                        channel.release(vc_obj[vid])
                        wake(ci)
                else:
                    # push onto this VC's eligibility ring
                    when = now + (header_delay if got == 1 else data_delay)
                    held = elig_count[vid]
                    elig[ring_base[vid] + (elig_head[vid] + held) % depth[ci]] = when
                    elig_count[vid] = held + 1
                    if not held:
                        head_time[vid] = when
                    if got == 1:
                        module = channel.dst_module
                        if module is not None:
                            module.waiting.append(vc_obj[vid])
                            waiting_route[vid] = 1
                            waiting_set[module] = None
                            parked.pop(module, None)
                    if got == length:
                        # the tail finished crossing this channel (hop done)
                        message = msg[vid]
                        if not message.exited_source and kind == KIND_INTERNODE:
                            message.exited_source = True
                            outstanding[message.src] -= 1
                            active_sources.add(message.src)
                        if tracer is not None:
                            tracer.on_transfer(now, message, channel, vc_obj[vid])
                if real and pulled == length:
                    drained = vc_obj[src]
                    drained.channel.release(drained)
                    wake(chan_of[src])
                transfers[ci] += 1
                rr[ci] = (start + offset + 1) % count
                progress = True
                break  # one flit per physical channel per cycle
        if compact:
            del channels[write:]
        return progress


#: Busy physical channels at which a scalar cycle hands over to the
#: batched pass (``BATCH_ENTER``) and below which a batched cycle hands
#: back (``BATCH_LEAVE``; the gap keeps a network hovering at the cutoff
#: from paying the work-list rebuild every cycle).  Measured, not
#: configurable.  Milliseconds per run, median of 7, enter/leave:
#:
#:   run (busy channels p5-p95)        active  vector   96/72 192/144 320/240 512/384
#:   4x4   rate 0.06 (69-84)              910    1610     883     894     897     871
#:   8x8   1%, rate 0.012 (139-213)       399     505     450     470     383     379
#:   16x16 rate 0.002 (88-200)           1283    1652    1632    1293    1098    1172
#:   16x16 rate 0.004 (216-371)          1750    1516    1521    1407    1466    1720
#:   16x16 rate 0.01 (790-871)           1575    1403    1422    1196    1166    1566
#:   16x16 5%, rate 0.014 (861-1040)     1865    1209    1171    1326    1189    1226
#:
#: The scalar and batched branches cross between ~260 and ~350 busy
#: channels; the full sweep, the per-cycle costs and the busy-channel
#: distributions are in docs/architecture.md ("Choosing the branch").
BATCH_ENTER = 320
BATCH_LEAVE = 240


class AdaptiveTransferStage(TransferStage):
    """Phase 4 of the adaptive core: each cycle takes one of two branches
    over the same SoA state — the inherited scalar loop over the
    work-list, or the batched numpy pass of :mod:`repro.sim.vector`.

    The choice follows the number of physical channels with a busy VC:
    the work-list's own length on scalar cycles, the busy set's size on
    batched ones, so neither branch pays for the other's bookkeeping
    (and a run that never reaches the cutoff never loads the batched
    module at all).  Both branches map a cycle-start state to the same
    cycle-end state and wake parked modules the same way, so a switch
    only refreshes the one thing the idle branch let go stale: the
    work-list, rebuilt on the way down."""

    __slots__ = ("batched", "enter", "leave", "batched_cycles", "switches")

    def __init__(self, sim: "Simulator", *, always_batch: bool):
        super().__init__(sim, work_list=True)
        #: :func:`repro.sim.vector.transfer`, imported on first use
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

    def _switch(self, batching: bool) -> None:
        self.active_set = not batching
        self.switches += 1
        if not batching:
            # batched cycles do not maintain the work-list
            self.resync()
        elif self.batched is None:
            from .vector import transfer

            self.batched = transfer

    def run(self, now: int) -> bool:
        if self.batching:
            if self.sim.reconfig is not None:
                self._switch(False)  # transition windows are scalar-only
        elif len(self._active) >= self.enter and self.sim.reconfig is None:
            self._switch(True)
        if self.batching:
            progress = self.batched(self.sim, now, self.leave)
            if progress is not None:
                self.batched_cycles += 1
                return progress
            self._switch(False)  # fewer than ``leave`` channels busy
        return TransferStage.run(self, now)
