"""Message typing and per-message routing state.

Section 5: depending on the dimension and direction a message is traveling
when blocked, it is one of ``2n`` types ``DIM_{i+}`` / ``DIM_{i-}``.  A
message's *dimension role* (``M_i`` in Table 2) changes as e-cube routing
completes dimensions; its *misroute state* is set while it is being routed
around an f-ring and cleared when it leaves the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from ..faults import FaultRing
from ..topology import Coord, Direction


class MisroutePhase(Enum):
    """Progress of a misrouted message around its f-ring.

    Two-sided misroutes (messages blocked in a non-final dimension) only
    use ``SIDE``.  Three-sided misroutes (messages blocked in the final
    dimension) go ``OUT`` (leave the blocked column along the misroute
    dimension), ``ALONG`` (travel past the fault in the blocked dimension),
    then ``BACK`` (return to the original column).
    """

    SIDE = "side"
    OUT = "out"
    ALONG = "along"
    BACK = "back"


@dataclass
class MisrouteState:
    """Everything a message needs to navigate one f-ring traversal."""

    ring: FaultRing
    move_dim: int  #: dimension the message was traveling when blocked
    travel_direction: Direction  #: its direction in ``move_dim``
    misroute_dim: int  #: the ring's other plane dimension
    orientation: Direction  #: current travel direction along ``misroute_dim``
    three_sided: bool  #: last-dimension messages take three sides of the ring
    phase: MisroutePhase
    entry_position: int  #: position in ``misroute_dim`` where misrouting began

    @property
    def message_type(self) -> str:
        """The paper's type label, e.g. ``DIM0+``."""
        return f"DIM{self.move_dim}{self.travel_direction.symbol}"


@dataclass
class MessageRoute:
    """Mutable routing state carried by one message.

    ``msg_dim`` is the message's current dimension role (it is an
    ``M_{msg_dim}`` message); ``wrapped`` records whether it has reserved a
    wraparound link in ``msg_dim``, which selects between the two virtual
    channel classes of its pair (Table 1/2).  The role and flag both reset
    when e-cube routing advances to the next dimension.
    """

    src: Coord
    dst: Coord
    msg_dim: int = 0
    wrapped: bool = False
    misroute: Optional[MisrouteState] = None
    #: dimension and virtual channel class of the most recently reserved
    #: internode hop (drives the interchip pass-through class rule: "the
    #: same as the virtual channel class used for the hop it just
    #: completed")
    last_dim: Optional[int] = None
    last_vc_class: int = 0
    #: set while the message sits at the node where it just left an f-ring;
    #: tells a PDR node to use the direct (+1/+2) interchip connection back
    #: to the resumed dimension's chip (Figure 7's corner node D) rather
    #: than the normal pass-through chain.  Cleared on the next hop.
    resume_direct: bool = False
    #: statistics: how many hops were spent misrouting vs. normal
    normal_hops: int = 0
    misroute_hops: int = 0
    rings_visited: int = 0

    @property
    def is_misrouted(self) -> bool:
        return self.misroute is not None

    def advance_role(self, new_dim: int) -> None:
        """Turn into an ``M_{new_dim}`` message (resets the wraparound
        class-switch flag, which is keyed to the message's own dimension)."""
        if new_dim != self.msg_dim:
            self.msg_dim = new_dim
            self.wrapped = False


class RoutingError(RuntimeError):
    """Raised when the routing logic reaches a state its invariants forbid
    (indicates a bug or an unsupported fault pattern, never normal flow)."""


def walk_route(relation_at, state: MessageRoute, src: Coord, max_hops: int) -> List[Coord]:
    """The node sequence a header steered by ``state`` visits from
    ``src``: ask the relation for the ``next_hop``, stop when it says
    consume, ``commit_hop`` otherwise.  ``relation_at(coord)`` names the
    routing relation in force at ``coord`` — the policy itself, except
    inside a transition window, where each node routes on its own
    knowledge.  Every policy's ``route_path`` is this loop under the
    policy's own ``max_hops`` bound."""
    path = [src]
    current = src
    for _ in range(max_hops):
        relation = relation_at(current)
        decision = relation.next_hop(state, current)
        if decision.consume:
            return path
        current = relation.commit_hop(state, current, decision)
        path.append(current)
    raise RoutingError(f"message {src}->{state.dst} exceeded {max_hops} hops (livelock?)")
