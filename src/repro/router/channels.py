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

None of this state lives on the objects themselves: every dynamic
field — flit counts, the eligibility ring, the busy list, the wormhole
links — exists once, as a slot in the simulation's
:class:`~repro.sim.soa.SoAState` lists, which the engine's allocation
and transfer loops index directly.  The classes below carry the static
structure (kind, endpoints, the module a channel feeds) and read or
write the store for injection, reconfiguration, the tracer, the
deadlock report and tests.  Channels built outside a network (unit
tests) get a private single-channel store, so the classes stay usable
standalone.
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


class VirtualChannel:
    """One virtual channel: receiving-side flit buffer plus wormhole
    reservation state (a view over the SoA buffers at index ``vid``)."""

    __slots__ = ("channel", "vc_class", "_st", "_vid")

    def __init__(self, channel: "PhysicalChannel", vc_class: int):
        self.channel = channel
        self.vc_class = vc_class
        self._st = channel._st
        self._vid = channel._vb + vc_class
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
        "on_ring",
        "buffer_depth",
        "name",
        "index",
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

    # -- SoA-backed state -----------------------------------------------
    @property
    def busy(self) -> List[VirtualChannel]:
        """Virtual channels currently allocated to a message (receivers),
        in the store's busy-list order; change it with busy_add/release."""
        vc_obj = self._st.vc_obj
        return [vc_obj[vid] for vid in self._st.busy_vids(self.index)]

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
        """Register a freshly allocated VC on the busy list."""
        self._st.busy_add(self.index, vc._vid)

    def release(self, vc: VirtualChannel) -> None:
        self._st.release(self.index, vc._vid)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhysicalChannel({self.name or self.kind.value})"
