"""Router node models: partitioned dimension-order (PDR) and crossbar.

A **module** is one routing chip.  A PDR node has one module per
dimension; module ``i`` owns the node's dimension-``i`` internode ports.
Messages changing dimensions cross *interchip* physical channels between
modules.  The baseline (non-fault-tolerant) PDR provides only the forward
chain ``i -> i+1``; the paper's fault-tolerance modification (Section 4)
adds multiplexed connections from the output of chip ``i`` to the inputs
of chips ``(i+1) mod n`` and ``(i+2) mod n``, which is exactly the
connectivity the misrouting transitions need for n = 2 and n = 3.

A **crossbar** node is a single module owning all ports: dimension
changes happen inside the switch with no interchip hop.  It is the
baseline the paper compares against (its earlier work [3, 4] assumed such
routers).

Modules are static structure, like channels: a module's ports and the
index of its round-robin arbiter counter (``module_rr`` in the
simulation's :class:`~repro.sim.soa.SoAState`).  Its one piece of
dynamic state is the ``waiting`` work-list of the vids of its input
virtual channels that hold an unrouted header.

The *resolution* step maps a routing decision (from whichever
:class:`repro.core.RoutingPolicy` the registry built) to the next physical channel
within the node and the admissible virtual channel classes on it,
implementing the interchip class rules of Section 5:

* a message that completed its ``DIM_a`` hops crosses ``a -> a+1`` using
  the classes of an ``M_a`` message (either member of the pair);
* misroute transitions (entering an f-ring detour, turning at ring
  corners, resuming normal routing after a three-sided detour) take the
  direct ``+1``/``+2`` connection using exactly the class of the upcoming
  travel segment (Figures 6 and 7);
* on physical channels that are neither faulty nor on an f-ring, a normal
  message may use any idle virtual channel of the same dateline rank as
  its designated class ("all the simulated virtual channels are used to
  route normal messages"), which preserves the wraparound ordering that
  deadlock freedom relies on.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import Decision, class_pair
from ..core.routing_policy import RoutingPolicy
from ..core.message_types import RoutingError
from ..topology import Coord, Direction, GridNetwork
from .channels import PhysicalChannel
from .messages import Message


class Module:
    """One router chip: input VCs waiting for route/VC allocation plus the
    output channels it drives."""

    __slots__ = ("node_coord", "dim_index", "waiting", "outputs", "_mid")

    def __init__(self, node_coord: Coord, dim_index: int):
        self.node_coord = node_coord
        #: dimension this chip owns; -1 for a crossbar module (owns all)
        self.dim_index = dim_index
        #: vids of the input VCs holding an unrouted header
        self.waiting: List[int] = []
        #: (kind-specific key) -> PhysicalChannel driven by this module
        self.outputs: Dict[object, PhysicalChannel] = {}
        #: index of this module's round-robin arbiter counter in the
        #: store's ``module_rr`` (set by :meth:`adopt`)
        self._mid = 0

    def adopt(self, store) -> None:
        """Give this module an arbiter counter in a network's SoA store."""
        self._mid = store.add_module()

    def internode_out(self, dim: int, direction: Direction) -> Optional[PhysicalChannel]:
        return self.outputs.get(("node", dim, direction))

    def interchip_out(self, target_dim: int) -> Optional[PhysicalChannel]:
        return self.outputs.get(("chip", target_dim))

    def delivery_out(self) -> Optional[PhysicalChannel]:
        return self.outputs.get("deliver")


def sharing_set(
    nominal: int, num_classes: int, *, torus: bool, mode: str = "rank"
) -> Tuple[int, ...]:
    """Classes a *normal* message may use on an off-ring channel.

    ``mode="rank"`` (the default) preserves the torus dateline ordering:
    even classes are the pre-wraparound rank and odd classes the
    post-wraparound rank, and a message only borrows idle classes of the
    same parity — this keeps the channel dependency graph provably
    acyclic.  ``mode="all"`` is the paper's literal reading ("all the
    simulated virtual channels are used to route normal messages"): it
    reproduces the paper's fault-free torus peak exactly, but it
    reintroduces the classic torus ring cycle and the network can wedge
    when driven past saturation (the CDG analysis finds the cycle).
    Meshes have no datelines, so both modes allow every class."""
    if mode not in ("rank", "all"):
        raise ValueError(f"unknown sharing mode {mode!r}; expected 'rank' or 'all'")
    if torus and mode == "rank":
        extra = tuple(c for c in range(num_classes) if c != nominal and c % 2 == nominal % 2)
    else:
        extra = tuple(c for c in range(num_classes) if c != nominal)
    return (nominal,) + extra


class Resolution:
    """Where a header at a module input goes next."""

    __slots__ = ("channel", "classes", "class_mask", "commit_decision")

    def __init__(
        self,
        channel: PhysicalChannel,
        classes: Tuple[int, ...],
        commit_decision: Optional[Decision] = None,
    ):
        self.channel = channel
        self.classes = classes
        #: bitmask over ``classes`` — lets allocation reject a fully
        #: occupied channel against ``free_mask`` without iterating
        mask = 0
        for c in classes:
            mask |= 1 << c
        self.class_mask = mask
        #: the core routing decision to commit when this allocation is an
        #: internode hop (None for interchip / delivery moves)
        self.commit_decision = commit_decision


class NodeModel:
    """Shared structure of PDR and crossbar nodes.

    ``num_classes`` is the total virtual channels per physical channel:
    ``base_classes`` (what the routing scheme needs — 4 torus / 2 mesh)
    times the number of protocol banks.  A message of protocol class p
    only ever uses classes ``[p * base_classes, (p+1) * base_classes)``,
    which is how the T3D separates its two message classes (Section 2)
    and what prevents request-reply protocol deadlock."""

    kind = "base"

    def __init__(
        self, coord: Coord, network: GridNetwork, num_classes: int, base_classes: int = 0
    ):
        self.coord = coord
        self.network = network
        self.num_classes = num_classes
        self.base_classes = base_classes or num_classes
        self.modules: List[Module] = []
        self.injection_channel: Optional[PhysicalChannel] = None
        self.delivery_channel: Optional[PhysicalChannel] = None
        #: True if any f-ring passes through this node (restricts interchip
        #: class sharing)
        self.on_ring = False

    # interface ---------------------------------------------------------
    def injection_module(self) -> Module:
        raise NotImplementedError

    def resolve(
        self, module: Module, message: Message, routing: RoutingPolicy, share_idle
    ) -> Resolution:
        raise NotImplementedError

    # helpers ------------------------------------------------------------
    @staticmethod
    def _sharing_mode(share_idle) -> str:
        """Normalize the sharing argument: booleans (legacy) map to
        'rank'/'off'; strings pass through."""
        if share_idle is True:
            return "rank"
        if share_idle is False:
            return "off"
        return share_idle

    def _bank(self, message: Message, classes: Tuple[int, ...]) -> Tuple[int, ...]:
        """Map base-relative classes into the message's protocol bank."""
        offset = message.protocol * self.base_classes
        if offset == 0:
            return classes
        return tuple(offset + c for c in classes)

    def _bank_all(self, message: Message) -> Tuple[int, ...]:
        offset = message.protocol * self.base_classes
        return tuple(range(offset, offset + self.base_classes))

    def _internode_resolution(
        self, module: Module, message: Message, decision: Decision, share_idle, routing=None
    ) -> Resolution:
        channel = module.internode_out(decision.dim, decision.direction)
        if channel is None:
            raise RoutingError(
                f"routing chose a missing channel DIM{decision.dim}"
                f"{decision.direction.symbol} at {self.coord} (faulty link?)"
            )
        mode = self._sharing_mode(share_idle)
        if not getattr(routing, "supports_sharing", True):
            mode = "off"
        if channel.on_ring or decision.misrouting or mode == "off":
            classes: Tuple[int, ...] = (decision.vc_class,)
        else:
            # normal decisions always carry a scheme-base class; sharing
            # stays inside the scheme base so layer-1 misroute classes
            # (overlapping-ring scenarios) remain reserved
            classes = sharing_set(
                decision.vc_class,
                routing.base_vc_classes if hasattr(routing, "base_vc_classes") else self.base_classes,
                torus=self.network.wraparound,
                mode=mode,
            )
        return Resolution(channel, self._bank(message, classes), commit_decision=decision)


class CrossbarNode(NodeModel):
    """Single-module node: the whole router is one switch."""

    kind = "crossbar"

    def __init__(
        self, coord: Coord, network: GridNetwork, num_classes: int, base_classes: int = 0
    ):
        super().__init__(coord, network, num_classes, base_classes)
        self.modules = [Module(coord, -1)]

    def injection_module(self) -> Module:
        return self.modules[0]

    def resolve(
        self, module: Module, message: Message, routing: RoutingPolicy, share_idle
    ) -> Resolution:
        decision = routing.next_hop(message.route, self.coord)
        if decision.consume:
            channel = module.delivery_out()
            assert channel is not None
            return Resolution(channel, self._bank_all(message))
        return self._internode_resolution(module, message, decision, share_idle, routing)


class PDRNode(NodeModel):
    """Partitioned dimension-order router: one module per dimension.

    ``fault_tolerant`` selects between the baseline interchip chain
    (``i -> i+1`` only) and the paper's modified organization
    (``i -> (i+1) mod n`` and ``i -> (i+2) mod n``)."""

    kind = "pdr"

    def __init__(
        self,
        coord: Coord,
        network: GridNetwork,
        num_classes: int,
        base_classes: int = 0,
        *,
        fault_tolerant: bool = True,
    ):
        super().__init__(coord, network, num_classes, base_classes)
        if not self.covers(network.dims, fault_tolerant=fault_tolerant):
            raise ValueError(
                "the paper's (i+1, i+2) interchip connections cover the "
                "misrouting transitions only for 2D and 3D networks; use "
                "the crossbar node model for higher dimensions"
            )
        self.fault_tolerant = fault_tolerant
        self.modules = [Module(coord, dim) for dim in range(network.dims)]

    @staticmethod
    def covers(dims: int, *, fault_tolerant: bool) -> bool:
        """Whether the organization can route a ``dims``-dimensional
        network: the modified one only in 2D and 3D."""
        return not fault_tolerant or dims <= 3

    def injection_module(self) -> Module:
        return self.modules[0]

    def interchip_targets(self, dim: int) -> List[int]:
        """Which modules chip ``dim`` drives interchip channels to."""
        n = self.network.dims
        if not self.fault_tolerant:
            return [dim + 1] if dim + 1 < n else []
        targets = []
        for offset in (1, 2):
            target = (dim + offset) % n
            if target != dim and target not in targets:
                targets.append(target)
        return targets

    def resolve(
        self, module: Module, message: Message, routing: RoutingPolicy, share_idle
    ) -> Resolution:
        decision = routing.next_hop(message.route, self.coord)
        here = module.dim_index
        n = self.network.dims
        if decision.consume:
            if here == n - 1:
                channel = module.delivery_out()
                assert channel is not None
                return Resolution(channel, self._bank_all(message))
            return self._pass_through(module, message)
        if decision.dim == here:
            return self._internode_resolution(module, message, decision, share_idle, routing)
        # The message must change modules within this node.
        direct = decision.misrouting or decision.dim < here or message.route.resume_direct
        if direct:
            channel = module.interchip_out(decision.dim)
            if channel is None:
                raise RoutingError(
                    f"no interchip connection chip{here} -> chip{decision.dim} "
                    f"at {self.coord}; fault-tolerant routing requires the "
                    "modified PDR organization (fault_tolerant=True)"
                )
            return Resolution(channel, self._bank(message, (decision.vc_class,)))
        # Normal dimension ascent: chain through the next chip using the
        # classes of an M_{here} message ("the same as the virtual channel
        # class used for the hop it just completed" / "any virtual channel
        # that can be used by a message of that dimension").
        return self._pass_through(module, message)

    def _pass_through(self, module: Module, message: Message) -> Resolution:
        here = module.dim_index
        channel = module.interchip_out((here + 1) % self.network.dims)
        if channel is None:
            raise RoutingError(f"missing interchip chain at {self.coord} chip {here}")
        pair = class_pair(self.network.dims, here, here, torus=self.network.wraparound)
        route = message.route
        if route.last_dim == here:
            # "The virtual channel class used is the same as the virtual
            # channel class used for the hop it just completed" — even when
            # that hop was a misroute using another type's pair (an M_1
            # message finishing its three-sided detour crosses chip0->chip1
            # on c2/c3, not on M_0's c0/c1): the interchip reservation must
            # keep the message's current virtual-network rank or the
            # partial order of Lemma 1 breaks.
            classes: Tuple[int, ...] = (route.last_vc_class,)
        elif pair[0] != pair[1]:
            # The message never traveled this dimension: "any virtual
            # channel that can be used by a message of that dimension".
            classes = pair
        else:
            classes = (pair[0],)
        return Resolution(channel, self._bank(message, classes))
