"""Physical and virtual channels with flit-level wormhole semantics.

Model (Section 6's simulator description):

* every physical channel — internode, interchip (between dimension
  modules of one PDR node), injection and consumption — simulates one
  virtual channel per class, each with a flit buffer of depth four at the
  receiving end;
* the virtual channels of a physical channel are demand time-multiplexed:
  the channel transfers at most one flit per cycle, round-robin among the
  virtual channels that have a flit ready upstream and buffer space
  downstream;
* a flit arriving at a module's input buffer becomes *eligible* to leave
  on the module's outgoing channel only after the router's internal delay
  (3 cycles for headers / 2 for data flits in the pipelined router);
* wormhole switching: a virtual channel is allocated to one message by
  its header and held until the tail flit has been forwarded.

Flits are not materialized as objects; each virtual channel tracks counts
plus a ring of eligibility times, which is equivalent because flits of a
message move in order and a VC buffers flits of at most one message.

Since the struct-of-arrays refactor, none of this state lives on the
objects themselves: every dynamic field is a slot in the simulation's
:class:`~repro.sim.soa.SoAState` buffers, and the classes below are thin
views over those buffers (the engine's allocation and transfer loops
index the buffers themselves).  Channels built
outside a network (unit tests) get a private single-channel store, so
the classes stay usable standalone.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, List, Optional, Sequence

from ..sim.soa import (
    BIG,
    KIND_CONSUMPTION,
    KIND_INJECTION,
    KIND_INTERCHIP,
    KIND_INTERNODE,
    SoAState,
)
from ..topology import Coord, Direction

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from .messages import Message


#: Flit buffer depth per virtual channel ("Each virtual channel has a
#: buffer of depth four to pipeline message transmission smoothly").
DEFAULT_BUFFER_DEPTH = 4


class ChannelKind(Enum):
    INTERNODE = "internode"
    INTERCHIP = "interchip"
    INJECTION = "injection"
    CONSUMPTION = "consumption"


_KIND_CODES = {
    ChannelKind.INTERNODE: KIND_INTERNODE,
    ChannelKind.INTERCHIP: KIND_INTERCHIP,
    ChannelKind.INJECTION: KIND_INJECTION,
    ChannelKind.CONSUMPTION: KIND_CONSUMPTION,
}


class _EligRing(Sequence):
    """Deque-compatible view of one VC's eligibility ring (the buffered
    flits' eligibility times, in arrival order).

    Ring capacity equals the channel's buffer depth — the transfer
    stage's space check bounds occupancy, so the ring never overflows in
    a simulation.  The head time is mirrored into ``head_time`` so the
    hot pull/eligibility checks are single loads.
    """

    __slots__ = ("_st", "_vid")

    def __init__(self, store: SoAState, vid: int):
        self._st = store
        self._vid = vid

    def __len__(self) -> int:
        return self._st.elig_count[self._vid]

    def __bool__(self) -> bool:
        return self._st.elig_count[self._vid] > 0

    def __getitem__(self, i: int):
        st, vid = self._st, self._vid
        count = st.elig_count[vid]
        if i < 0:
            i += count
        if not 0 <= i < count:
            raise IndexError("eligibility ring index out of range")
        ci = st.chan_of[vid]
        depth = st.depth[ci]
        return st.elig[st.ring_base[vid] + (st.elig_head[vid] + i) % depth]

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def append(self, when: int) -> None:
        st, vid = self._st, self._vid
        depth = st.depth[st.chan_of[vid]]
        count = st.elig_count[vid]
        st.elig[st.ring_base[vid] + (st.elig_head[vid] + count) % depth] = when
        st.elig_count[vid] = count + 1
        if count == 0:
            st.head_time[vid] = when

    def extend(self, times) -> None:
        for when in times:
            self.append(when)

    def popleft(self) -> int:
        st, vid = self._st, self._vid
        count = st.elig_count[vid]
        if count == 0:
            raise IndexError("pop from an empty eligibility ring")
        ci = st.chan_of[vid]
        depth = st.depth[ci]
        head = st.elig_head[vid]
        when = st.elig[st.ring_base[vid] + head]
        head = (head + 1) % depth
        st.elig_head[vid] = head
        st.elig_count[vid] = count - 1
        st.head_time[vid] = st.elig[st.ring_base[vid] + head] if count > 1 else BIG
        return when

    def clear(self) -> None:
        st, vid = self._st, self._vid
        st.elig_count[vid] = 0
        st.head_time[vid] = BIG

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_EligRing({list(self)})"


class VirtualChannel:
    """One virtual channel: receiving-side flit buffer plus wormhole
    reservation state (a view over the SoA buffers at index ``vid``)."""

    __slots__ = ("channel", "vc_class", "eligible", "_st", "_vid")

    def __init__(self, channel: "PhysicalChannel", vc_class: int):
        self.channel = channel
        self.vc_class = vc_class
        self._st = channel._st
        self._vid = channel._vb + vc_class
        #: eligibility times of currently buffered flits, in arrival order
        self.eligible = _EligRing(self._st, self._vid)
        self._st.vc_obj[self._vid] = self

    # -- SoA-backed fields ----------------------------------------------
    @property
    def message(self) -> Optional["Message"]:
        return self._st.msg[self._vid]

    @message.setter
    def message(self, value: Optional["Message"]) -> None:
        st, vid = self._st, self._vid
        st.msg[vid] = value
        ci = st.chan_of[vid]
        bit = 1 << self.vc_class
        if value is None:
            st.msg_len[vid] = 0
            st.free_mask[ci] |= bit
        else:
            # getattr: unit tests park sentinel objects in VCs
            st.msg_len[vid] = getattr(value, "length", 0)
            st.free_mask[ci] &= ~bit

    @property
    def upstream(self) -> Optional[object]:
        """The virtual channel (or message source) this VC pulls flits
        from."""
        st, vid = self._st, self._vid
        u = st.upstream[vid]
        if u == 0:
            return None
        if st.is_real[u]:
            return st.vc_obj[u]
        return st.src_bind[vid]

    @upstream.setter
    def upstream(self, value: Optional[object]) -> None:
        st, vid = self._st, self._vid
        old = st.src_bind[vid]
        if old is not None and old is not value:
            old._unbind()
            st.src_bind[vid] = None
        if value is None:
            st.upstream[vid] = 0
        elif type(value) is VirtualChannel:
            st.upstream[vid] = value._vid
        else:  # MessageSource: bind it into this VC's shadow slot
            shadow = vid + st.num_classes
            value._bind(st, shadow)
            st.src_bind[vid] = value
            st.upstream[vid] = shadow

    @property
    def received(self) -> int:
        return self._st.received[self._vid]

    @received.setter
    def received(self, value: int) -> None:
        self._st.received[self._vid] = value

    @property
    def sent(self) -> int:
        return self._st.sent[self._vid]

    @sent.setter
    def sent(self, value: int) -> None:
        self._st.sent[self._vid] = value

    @property
    def waiting_route(self) -> bool:
        """True while this VC holds an unrouted header (module
        arbitration)."""
        return bool(self._st.waiting_route[self._vid])

    @waiting_route.setter
    def waiting_route(self, value: bool) -> None:
        self._st.waiting_route[self._vid] = 1 if value else 0

    @property
    def cached_resolution(self):
        """Memoized Resolution for the waiting header (fault view is
        static, so the decision cannot change while the header waits)."""
        return self._st.res[self._vid]

    @cached_resolution.setter
    def cached_resolution(self, value) -> None:
        self._st.res[self._vid] = value

    # -- upstream interface (this VC acting as flit supplier) -----------
    def has_eligible_flit(self, now: int) -> bool:
        return self._st.head_time[self._vid] <= now

    def pop_flit(self) -> None:
        self.eligible.popleft()
        self._st.sent[self._vid] += 1

    # -- downstream interface (this VC acting as receiver) --------------
    def has_space(self) -> bool:
        st, vid = self._st, self._vid
        return (st.received[vid] - st.sent[vid]) < self.channel.buffer_depth

    @property
    def buffered(self) -> int:
        st, vid = self._st, self._vid
        return st.received[vid] - st.sent[vid]

    @property
    def free(self) -> bool:
        return self._st.msg[self._vid] is None

    def reset(self) -> None:
        self._st.reset_vc(self._vid)


class MessageSource:
    """Flit supplier for the injection channel: the processor streams the
    message's flits with no internal delay (upstream end of the worm).

    While injection is in flight the source is *bound* to the injection
    VC's shadow slot and its counters live in the SoA buffers; before
    binding and after release it carries its own ``sent`` count (tests
    and the transport layer read ``message.source.sent`` after the run).
    """

    __slots__ = ("length", "_sent", "_st", "_slot")

    def __init__(self, length: int):
        self.length = length
        self._sent = 0
        self._st: Optional[SoAState] = None
        self._slot = 0

    def _bind(self, store: SoAState, slot: int) -> None:
        self._st = store
        self._slot = slot
        store.sent[slot] = self._sent
        store.msg_len[slot] = self.length
        store.head_time[slot] = -1 if self._sent < self.length else BIG

    def _unbind(self) -> None:
        st = self._st
        if st is not None:
            self._sent = st.sent[self._slot]
            st.head_time[self._slot] = BIG
            st.sent[self._slot] = 0
            self._st = None

    @property
    def sent(self) -> int:
        st = self._st
        return st.sent[self._slot] if st is not None else self._sent

    @sent.setter
    def sent(self, value: int) -> None:
        st = self._st
        if st is not None:
            st.sent[self._slot] = value
            if value >= self.length:
                st.head_time[self._slot] = BIG
        else:
            self._sent = value

    def has_eligible_flit(self, now: int) -> bool:
        return self.sent < self.length

    def pop_flit(self) -> None:
        self.sent += 1


class PhysicalChannel:
    """A unidirectional physical channel simulating ``num_classes`` virtual
    channels with demand time-multiplexing (one flit per cycle total)."""

    __slots__ = (
        "kind",
        "src_node",
        "dst_node",
        "dim",
        "direction",
        "dst_module",
        "vcs",
        "busy",
        "on_ring",
        "buffer_depth",
        "name",
        "index",
        "active",
        "_st",
        "_vb",
    )

    def __init__(
        self,
        kind: ChannelKind,
        num_classes: int,
        *,
        src_node: Optional[Coord] = None,
        dst_node: Optional[Coord] = None,
        dim: int = -1,
        direction: Direction = Direction.POS,
        dst_module: Optional[object] = None,
        buffer_depth: int = DEFAULT_BUFFER_DEPTH,
        name: str = "",
        store: Optional[SoAState] = None,
    ):
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.dim = dim
        self.direction = direction
        #: the router module whose input this channel feeds (None for
        #: consumption channels, which feed the processor sink)
        self.dst_module = dst_module
        #: True if the channel lies on an f-ring (virtual channels are then
        #: reserved for their designated message types)
        self.on_ring = False
        self.buffer_depth = buffer_depth
        self.name = name
        #: True while registered on the transfer scheduler's work-list
        #: (kept on the channel so registration is O(1) deduplicated)
        self.active = False
        if store is None:
            store = SoAState()  # standalone construction (unit tests)
        self._st = store
        #: position in the store's construction-ordered channel list.
        #: The active-set transfer scheduler services channels in
        #: ascending index order, which reproduces the full-scan engine's
        #: iteration order exactly (the determinism contract — see
        #: docs/architecture.md).
        self.index = store.add_channel(self, num_classes, buffer_depth, _KIND_CODES[kind])
        self._vb = store.vbase[self.index]
        self.vcs: List[VirtualChannel] = [VirtualChannel(self, c) for c in range(num_classes)]
        #: virtual channels currently allocated to a message (receivers);
        #: mirrored in the store's busy_slots, which the transfer loops
        #: walk — use busy_add/release, never mutate directly in engine
        #: code
        self.busy: List[VirtualChannel] = []

    # -- SoA-backed counters --------------------------------------------
    @property
    def rr(self) -> int:
        return self._st.rr[self.index]

    @rr.setter
    def rr(self, value: int) -> None:
        self._st.rr[self.index] = value

    @property
    def transfers(self) -> int:
        """Flits moved over this channel since construction/reset
        (instrumentation for utilization analysis)."""
        return self._st.transfers[self.index]

    @transfers.setter
    def transfers(self, value: int) -> None:
        self._st.transfers[self.index] = value

    # -------------------------------------------------------------------
    def free_vc(self, admissible: Sequence[int]) -> Optional[VirtualChannel]:
        """First free virtual channel among the admissible classes, in the
        given preference order."""
        msg = self._st.msg
        vb = self._vb
        for vc_class in admissible:
            if msg[vb + vc_class] is None:
                return self.vcs[vc_class]
        return None

    def busy_add(self, vc: VirtualChannel) -> None:
        """Register a freshly allocated VC on the busy list (and its
        mirror in the store)."""
        self.busy.append(vc)
        self._st.busy_add(self.index, vc._vid)

    def release(self, vc: VirtualChannel) -> None:
        self._st.reset_vc(vc._vid)
        self._st.busy_remove(self.index, vc._vid)
        try:
            self.busy.remove(vc)
        except ValueError:  # pragma: no cover - release is idempotent
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhysicalChannel({self.name or self.kind.value})"
