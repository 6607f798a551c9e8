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

Flits are not materialized as objects, and neither are virtual channels:
a virtual channel is fully named by its physical channel and class, so
its handle is one integer, its *vid* in the simulation's
:class:`~repro.sim.soa.SoAState` (``vid = vbase + vc_class``).  Every
dynamic field — flit counts, the ring of eligibility times, the busy
list, the wormhole links — exists once, as a slot in the store's lists,
which the engine's loops index directly.  :class:`PhysicalChannel`
carries only static structure (kind, endpoints, its index and vid
block) plus the two reads every caller needs:
:meth:`PhysicalChannel.free_vc` and the ``transfers`` counter.  The
module a channel feeds is ``SimNetwork.feeds[index]``, so a channel
holds no reference to a module.
Channels built outside a network (unit tests) get a private
single-channel store, so the class stays usable standalone.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional, Sequence

from ..sim.soa import (
    KIND_CONSUMPTION,
    KIND_INJECTION,
    KIND_INTERCHIP,
    KIND_INTERNODE,
    SoAState,
)
from ..topology import Coord, Direction

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


class PhysicalChannel:
    """A unidirectional physical channel simulating ``num_classes`` virtual
    channels with demand time-multiplexing (one flit per cycle total)."""

    __slots__ = (
        "kind",
        "src_node",
        "dst_node",
        "dim",
        "direction",
        "on_ring",
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
        buffer_depth: int = DEFAULT_BUFFER_DEPTH,
        name: str = "",
        store: Optional[SoAState] = None,
    ):
        self.kind = kind
        self.src_node = src_node
        self.dst_node = dst_node
        self.dim = dim
        self.direction = direction
        #: True if the channel lies on an f-ring (virtual channels are then
        #: reserved for their designated message types)
        self.on_ring = False
        self.name = name
        if store is None:
            store = SoAState()  # standalone construction (unit tests)
        self._st = store
        #: dense index in the store, in construction order.
        #: The active-set transfer scheduler services channels in
        #: ascending index order, which reproduces the full-scan engine's
        #: iteration order exactly (the determinism contract — see
        #: docs/architecture.md).
        self.index = store.add_channel(num_classes, buffer_depth, _KIND_CODES[kind])
        #: vid of class 0; class ``c`` of this channel is vid ``_vb + c``
        self._vb = store.vbase[self.index]

    @property
    def transfers(self) -> int:
        """Flits moved over this channel since construction/reset
        (instrumentation for utilization analysis)."""
        return self._st.transfers[self.index]

    def free_vc(self, admissible: Sequence[int]) -> Optional[int]:
        """Vid of the first free virtual channel among the admissible
        classes, in the given preference order (None if all are held)."""
        msg = self._st.msg
        vb = self._vb
        for vc_class in admissible:
            if msg[vb + vc_class] is None:
                return vb + vc_class
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhysicalChannel({self.name or self.kind.value})"
