"""The four pipeline stages of the simulation core.

Each cycle the :class:`~repro.sim.engine.Simulator` façade runs, in
order: :class:`GenerationStage`, :class:`InjectionStage`,
:class:`AllocationStage`, :class:`TransferStage`.  The stage split keeps
each phase's state and wakeup discipline in one object; the shared
dynamic state (source queues, outstanding counts, the waiting-module
set, in-flight accounting) stays on the simulator, which every stage
reaches through a weak proxy (``Simulator.__init__``), so a simulator
and its stages form no reference cycle.

The stages serve the work-list core and the oracle
(``Simulator(core=...)``):

* **work-lists** (``"active"``, the default) — sources enter the
  injection work-list only when they hold queued messages, modules enter
  the allocation work-list only when a header arrives (the engine's
  long-standing ``_modules_waiting`` pattern), channels stay on the
  transfer work-list only while a busy virtual channel on them may
  move a flit, and generation skips idle sources through the
  :class:`~repro.sim.sampling.GeometricSampler` block stream.  Phase 3
  is one loop, :meth:`AllocationStage.run`; it memoizes header
  resolutions and parks modules that cannot grant (everywhere but the
  oracle and transition windows).  Phase 4 is one loop,
  :meth:`TransferStage.run`.  Both index the
  :class:`~repro.sim.soa.SoAState` lists directly; Python objects
  (messages, channels, modules) are fetched only where an event needs
  them — a header wake-up, a tail, a delivery, a release, the tracer.
  A virtual channel is its vid throughout: ``module.waiting`` holds
  vids and the tracer is handed VC classes.
* ``"legacy"`` — the seed engine's full-scan algorithm, kept as the
  oracle: every healthy node draws inline and every physical channel is
  visited every cycle.

Both execute the *same* per-node / per-channel decisions in the same
order, so results are bit-for-bit identical — the parity guarantee
``tests/test_engine_parity.py`` enforces (see docs/architecture.md for
the ordering argument).
"""

from __future__ import annotations

from bisect import insort
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Dict, List

from ..core.ecube import next_ecube_dim
from ..router.modules import Module
from .sampling import GeometricSampler
from .soa import BIG, KIND_CONSUMPTION, KIND_INTERNODE

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from .engine import Simulator


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
        store = sim.net.store
        msg = store.msg
        msg_len = store.msg_len
        sent = store.sent
        head_time = store.head_time
        upstream = store.upstream
        free_mask = store.free_mask
        vbase = store.vbase
        K = store.num_classes
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
            vid = channel.free_vc(bank)
            if vid is None:
                continue
            queue.popleft()
            ci = channel.index
            vc_class = vid - vbase[ci]
            length = message.length
            msg[vid] = message
            msg_len[vid] = length
            free_mask[ci] &= ~(1 << vc_class)
            # the processor streams the message through the VC's shadow
            # slot: ready at once until all ``length`` flits have left
            shadow = vid + K
            sent[shadow] = 0
            msg_len[shadow] = length
            head_time[shadow] = -1
            upstream[vid] = shadow
            store.busy_add(ci, vid)
            activate(ci)
            message.injected_cycle = now
            sim.outstanding[coord] += 1
            sim.in_flight += 1
            if tracer is not None:
                tracer.on_inject(now, message, channel, vc_class)
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
    arbitration loop: both cores use it.

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
      classes — free bits are set only by ``store.release``, and every
      release in the transfer loop calls :meth:`wake` for the channel's
      subscribers.

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
        busy_add = store.busy_add
        module_rr = store.module_rr
        vbase = store.vbase
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
                vid = waiting[(start + offset) % count]
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
                            node, module, message, routing, share_idle
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
                    down = channel.free_vc(resolution.classes)
                else:
                    down = None
                if down is None:
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
                # extend the worm: the downstream VC pulls from the
                # header's VC
                down_class = down - vbase[ci]
                msg[down] = message
                msg_len[down] = message.length
                free_mask[ci] &= ~(1 << down_class)
                upstream[down] = vid
                busy_add(ci, down)
                activate(ci)
                if tracer is not None:
                    tracer.on_vc_alloc(now, message, module, channel, down_class)
                res[vid] = None
                waiting.remove(vid)
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

    Each visit has two parts.  *Select* picks the VC that moves a flit,
    or decides to skip, poll or park the channel.  A channel with one
    busy VC — most visits, at every load — takes the one-worm path: the
    same tests on ``busy_slots[ci * K]`` and ``rr[ci] = 0``, which is
    what the round robin over one candidate writes; two or more busy
    VCs run the round-robin scan.  *Move* is one block for both: pop
    the upstream flit, push it onto the VC's eligibility ring (or
    deliver it), and handle header arrival, tail and releases.  A VC's
    ring is indexed by its flit counters (``soa.py``): it holds flits
    ``sent`` .. ``received - 1``, flit ``n`` at slot ``n % depth``.

    The loop walks channel *indices*; it fetches a channel object
    (``net.channel_at``) only for the tracer and a module
    (``net.feeds``) only when a header arrives.  The oracle
    (``work_list=False``) visits every live channel every cycle.  With
    ``work_list`` only listed channels are served: a channel is listed
    (``activate``) when a virtual channel is allocated on it, drops off
    once its busy count (``store.busy_count``) falls to zero, and
    **parks** — busy but off the list — after a scan that moves nothing
    when every busy VC is either

    * *draining*: it received the whole worm, so it never pulls again
      until it is released; or
    * *full*: its buffer holds ``depth`` flits on a channel that is not
      a consumption channel, so it cannot pull until the channel
      downstream pops one.

    A VC that waits only for its upstream flit to become eligible keeps
    the channel listed; it is polled as before.  Parking is invisible: a
    scan that moves nothing writes nothing (``rr`` is untouched), and a
    parked channel is rescanned no later than the first cycle it could
    move, because only two events let one of its VCs move:

    * a new VC allocation (injection or allocation) — :meth:`activate`
      lists the channel;
    * a pop from a full VC — the pop site in this loop lists the VC's
      channel ``cs``.  The full scan would still visit ``cs`` this
      cycle when ``cs > ci`` (the channel being served), so ``cs`` is
      inserted into the list being walked (the unvisited part of it is
      sorted, and a list iterator advances by position); when
      ``cs < ci`` the full scan has already passed it, so ``cs`` joins
      the next cycle's list.

    A release never lets another VC of its channel move, and releases
    outside this loop (worms killed by a reconfiguration) are followed
    by :meth:`resync`, which lists every busy channel again.  The list
    stays sorted by channel index, so its service order is a
    subsequence of the full scan's, and the channels it leaves out are
    exactly ones the full scan would visit without moving a flit: both
    execute the same transfers in the same order."""

    __slots__ = ("sim", "active_set", "_active", "_listed")

    def __init__(self, sim: "Simulator", *, work_list: bool):
        self.sim = sim
        #: True when channels register on (and are served from) the
        #: work-list; False full-scans every live channel (legacy oracle)
        self.active_set = work_list
        #: sorted channel indices: the work-list, or every live channel
        #: for the oracle
        self._active: List[int] = []
        #: by channel index: True while the channel is on the work-list
        #: (registration is O(1) deduplicated)
        self._listed = [False] * len(sim.net.store.rr)
        if not work_list:
            self.resync()

    # -- work-list maintenance ------------------------------------------
    def activate(self, ci: int) -> None:
        """Register channel ``ci``, which just had a virtual channel
        allocated on it.  O(1) when already registered; ordered insert
        otherwise."""
        if not self.active_set or self._listed[ci]:
            return
        self._listed[ci] = True
        insort(self._active, ci)

    def resync(self) -> None:
        """Rebuild the list from the network's live channels (after a
        reconfiguration removed channels or released worms wholesale):
        every busy channel for the work-list, parked ones included;
        every channel for the oracle."""
        indices = [channel.index for channel in self.sim.net.channels]
        if not self.active_set:
            self._active = indices
            return
        busy_count = self.sim.net.store.busy_count
        listed = self._listed = [False] * len(self._listed)
        self._active = [ci for ci in indices if busy_count[ci]]
        for ci in self._active:
            listed[ci] = True

    # -- per-cycle service ----------------------------------------------
    def run(self, now: int) -> bool:
        sim = self.sim
        compact = self.active_set
        channels = self._active
        net = sim.net
        channel_at = net.channel_at
        feeds = net.feeds
        store = net.store
        received = store.received
        sent = store.sent
        head_time = store.head_time
        upstream = store.upstream
        msg_len = store.msg_len
        elig = store.elig
        ring_base = store.ring_base
        chan_of = store.chan_of
        is_real = store.is_real
        depth = store.depth
        kind_code = store.kind_code
        rr = store.rr
        transfers = store.transfers
        busy_count = store.busy_count
        busy_slots = store.busy_slots
        release = store.release
        msg = store.msg
        listed = self._listed
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
        # channels woken behind the one being served: next cycle's list
        late: List[int] = []
        for ci in channels:
            # -- select: the VC that moves a flit, or park / poll / skip
            count = busy_count[ci]
            if count == 1:
                # one worm: the round robin has a single candidate
                vid = busy_slots[ci * K]
                got = received[vid]
                length = msg_len[vid]
                if got >= length or got - sent[vid] >= depth[ci]:
                    if compact:
                        listed[ci] = False  # draining or full: park
                    continue
                if compact:
                    channels[write] = ci
                    write += 1
                src = upstream[vid]
                if head_time[src] > now:
                    continue  # no event marks the flit turning eligible
                rr[ci] = 0
            elif count:
                if compact:
                    channels[write] = ci
                    write += 1
                room = depth[ci]
                polled = False
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
                    if got - sent[vid] >= room:
                        continue  # full until the channel downstream pops
                    # one pull check for both suppliers: a VC's head_time is
                    # its ring head, a source's shadow slot is -1 while it
                    # still has flits (soa.py)
                    src = upstream[vid]
                    if head_time[src] > now:
                        polled = True  # no event marks the flit turning eligible
                        continue
                    rr[ci] = (start + offset + 1) % count
                    break
                else:
                    if compact and not polled:
                        # every busy VC is draining or full: park
                        listed[ci] = False
                        write -= 1
                    continue
            else:
                if compact:
                    listed[ci] = False
                continue
            # -- move one flit from ``src`` into ``vid``: pop it upstream
            pulled = sent[src] + 1
            sent[src] = pulled
            real = is_real[src]
            if real:
                cs = chan_of[src]
                cap = depth[cs]
                held = received[src] - pulled
                # the ring holds flits ``sent`` .. ``received - 1``, flit
                # ``n`` at slot ``n % depth``
                head_time[src] = elig[ring_base[src] + pulled % cap] if held else BIG
                if not listed[cs] and compact and held >= cap - 1:
                    # the pop took a full VC below ``depth``: wake its
                    # parked channel where the full scan would reach it
                    listed[cs] = True
                    if cs > ci:
                        insort(channels, cs, lo=write)
                    else:
                        late.append(cs)
            elif pulled >= msg_len[src]:
                head_time[src] = BIG  # the source is exhausted
            # ... and push it here, as flit ``got``
            received[vid] = got + 1
            kind = kind_code[ci]
            if kind == KIND_CONSUMPTION:
                sent[vid] = got + 1  # delivered at once: the buffer stays empty
                if got + 1 == length:
                    message = msg[vid]
                    message.consumed_cycle = now
                    on_consumed(message)
                    release(ci, vid)
                    wake(ci)
            else:
                when = now + (data_delay if got else header_delay)
                elig[ring_base[vid] + got % depth[ci]] = when
                if got == sent[vid]:
                    head_time[vid] = when  # it is the ring's only flit
                if not got:
                    module = feeds[ci]
                    if module is not None:
                        module.waiting.append(vid)
                        waiting_set[module] = None
                        parked.pop(module, None)
                if got + 1 == length:
                    # the tail finished crossing this channel (hop done)
                    message = msg[vid]
                    if not message.exited_source and kind == KIND_INTERNODE:
                        message.exited_source = True
                        outstanding[message.src] -= 1
                        active_sources.add(message.src)
                    if tracer is not None:
                        tracer.on_transfer(
                            now, message, channel_at[ci], vid - store.vbase[ci]
                        )
            if real and pulled == length:
                release(cs, src)
                wake(cs)
            transfers[ci] += 1
            progress = True
        if compact:
            del channels[write:]
            for cs in late:
                insort(channels, cs)
        return progress
