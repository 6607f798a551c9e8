"""Table-based fault tolerance: the Cray T3D's rudimentary baseline.

Section 2: "Another interesting feature of the Cray T3D router is that
its routing logic is programmable.  Routing tables, which contain routes
for each destination, can be loaded into the network interface by
software.  In fact, this ability to alter routing tables together with
the wraparound links in the torus topology can be used to provide a
rudimentary fault-tolerant routing to handle one fault, for example, in
a row [12]."

This module implements that baseline so the paper's scheme has the
comparison its introduction implies: software precomputes, per
source/destination pair, an **intermediate node** such that both e-cube
legs (source -> via, via -> destination) avoid every fault; the message
travels dimension-order twice.  Deadlock freedom comes from giving each
leg its own class pair (leg 0 on ``c0/c1``, leg 1 on ``c2/c3``, each with
the usual dateline split), an ordering identical in spirit to the
two-phase schemes used by table-routed machines.

The baseline's limits — the reason the paper's f-ring scheme exists:

* route *tables* must be recomputed globally (no local fault knowledge);
* a valid intermediate may simply not exist for multi-fault patterns or
  may lengthen paths dramatically (:class:`TableRoutingError` reports
  unreachable pairs);
* every detoured message pays two full dimension-order traversals.

``benchmarks/test_ablation_table_routing.py`` compares it against the
fault-tolerant PDR routing under the paper's fault scenarios.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..faults import FaultRingIndex, FaultScenario, FaultSet, LocalFaultView
from ..topology import Coord, GridNetwork
from .ecube import ecube_hop, next_ecube_dim
from .ft_routing import Decision
from .message_types import MessageRoute, RoutingError, walk_route


class TableRoutingError(RoutingError):
    """No fault-avoiding route (direct or via one intermediate) exists for
    a source/destination pair — the baseline's fundamental limit."""


class TableRoute(MessageRoute):
    """Routing state of a two-phase (via-intermediate) message."""

    def __init__(self, src: Coord, dst: Coord, via: Optional[Coord]):
        first_dim = next_ecube_dim(src, via if via is not None else dst)
        super().__init__(src=src, dst=dst, msg_dim=first_dim if first_dim is not None else 0)
        #: intermediate node, or None for a direct e-cube route
        self.via = via
        #: 0 while heading to the intermediate, 1 afterwards
        self.leg = 0 if via is not None else 1

    @property
    def current_target(self) -> Coord:
        return self.via if self.leg == 0 and self.via is not None else self.dst


class TableRouting:
    """Two-phase dimension-order routing from precomputed tables.

    Interface-compatible with :class:`~repro.core.FaultTolerantRouting`
    (``initial_state`` / ``next_hop`` / ``commit_hop`` / ``route_path``),
    so the same router models and simulator drive it unchanged.
    """

    def __init__(self, network: GridNetwork, faults: Optional[FaultSet] = None):
        self.network = network
        self.faults = faults or FaultSet()
        self.view = LocalFaultView(network, self.faults)
        self.ring_index = FaultRingIndex(network, [])  # tables use no rings
        self.base_vc_classes = 4 if network.wraparound else 2
        self.num_vc_classes = self.base_vc_classes
        #: idle-VC borrowing would let leg-1 worms hold leg-0 classes and
        #: break the leg ordering; the node models honor this flag
        self.supports_sharing = False
        self._healthy = [
            coord for coord in network.nodes() if coord not in self.faults.node_faults
        ]
        self._via_table: Dict[Tuple[Coord, Coord], Optional[Coord]] = {}
        self._unreachable: Dict[Tuple[Coord, Coord], str] = {}

    @classmethod
    def for_scenario(cls, network: GridNetwork, scenario: FaultScenario, **_kwargs) -> "TableRouting":
        return cls(network, scenario.faults)

    # ------------------------------------------------------------------
    # table construction (the "software" part of the T3D story)
    # ------------------------------------------------------------------
    def _leg_clear(self, src: Coord, dst: Coord) -> bool:
        """Whether the plain e-cube path from src to dst avoids all
        faults."""
        current = src
        while current != dst:
            hop = ecube_hop(self.network, current, dst)
            assert hop is not None
            dim, direction = hop
            if self.view.hop_blocked(current, dim, direction):
                return False
            current = self.network.neighbor(current, dim, direction)
        return True

    def lookup_via(self, src: Coord, dst: Coord) -> Optional[Coord]:
        """Table entry for (src, dst): ``None`` for a direct route, an
        intermediate node otherwise.  Raises :class:`TableRoutingError`
        when no single intermediate works."""
        key = (src, dst)
        if key in self._unreachable:
            raise TableRoutingError(self._unreachable[key])
        if key in self._via_table:
            return self._via_table[key]
        if self._leg_clear(src, dst):
            self._via_table[key] = None
            return None
        best: Optional[Coord] = None
        best_cost = None
        for via in self._healthy:
            if via == src or via == dst:
                continue
            if self._leg_clear(src, via) and self._leg_clear(via, dst):
                cost = self.network.distance(src, via) + self.network.distance(via, dst)
                if best_cost is None or cost < best_cost:
                    best, best_cost = via, cost
        if best is None:
            reason = (
                f"no single-intermediate route from {src} to {dst} avoids the "
                "fault pattern (the rudimentary table scheme 'handles one "
                "fault'; this pattern exceeds it)"
            )
            self._unreachable[key] = reason
            raise TableRoutingError(reason)
        self._via_table[key] = best
        return best

    def table_coverage(self) -> float:
        """Fraction of healthy ordered pairs the table can route — 1.0 for
        single compact faults, below 1.0 when the pattern defeats the
        baseline."""
        total = 0
        reachable = 0
        for src in self._healthy:
            for dst in self._healthy:
                if src == dst:
                    continue
                total += 1
                try:
                    self.lookup_via(src, dst)
                    reachable += 1
                except TableRoutingError:
                    pass
        return reachable / total if total else 1.0

    def coverage(self) -> float:
        """Uniform name for the routable-pair fraction (every
        partial-coverage policy exposes ``coverage()``; the arena harness
        keys on it)."""
        return self.table_coverage()

    # ------------------------------------------------------------------
    # routing interface
    # ------------------------------------------------------------------
    def initial_state(self, src: Coord, dst: Coord) -> TableRoute:
        if self.faults.is_node_faulty(src) or self.faults.is_node_faulty(dst):
            raise ValueError("messages are generated by and for healthy nodes only")
        return TableRoute(src, dst, self.lookup_via(src, dst))

    def next_hop(self, state: TableRoute, current: Coord) -> Decision:
        if state.leg == 0 and current == state.via:
            state.leg = 1
            state.wrapped = False  # each leg has its own dateline split
        target = state.current_target
        hop = ecube_hop(self.network, current, target)
        if hop is None:
            return Decision.deliver()
        dim, direction = hop
        state.advance_role(self._role_dim(current, target))
        if self.view.hop_blocked(current, dim, direction):  # pragma: no cover
            raise TableRoutingError(
                f"table route hit an unexpected fault at {current} (stale table?)"
            )
        wrapped = state.wrapped or self.network.is_wraparound_hop(current, dim, direction)
        pair_base = 0 if state.leg == 0 else self.base_vc_classes // 2
        if self.network.wraparound:
            vc_class = pair_base + (1 if wrapped else 0)
        else:
            vc_class = 0 if state.leg == 0 else 1
        return Decision(consume=False, dim=dim, direction=direction, vc_class=vc_class)

    def _role_dim(self, current: Coord, target: Coord) -> int:
        dim = next_ecube_dim(current, target)
        return dim if dim is not None else 0

    def commit_hop(self, state: TableRoute, current: Coord, decision: Decision) -> Coord:
        if decision.consume:
            raise RoutingError("commit_hop called on a deliver decision")
        if self.network.is_wraparound_hop(current, decision.dim, decision.direction):
            state.wrapped = True
        state.last_dim = decision.dim
        state.last_vc_class = decision.vc_class
        state.normal_hops += 1
        nxt = self.network.neighbor(current, decision.dim, decision.direction)
        if nxt is None:
            raise RoutingError(f"hop off the boundary at {current}")
        return nxt

    def route_path(self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None) -> List[Coord]:
        if max_hops is None:
            max_hops = 4 * self.network.dims * self.network.radix + 8
        return walk_route(lambda _coord: self, self.initial_state(src, dst), src, max_hops)
