"""The avoid-faulty-nodes heuristic, generalized from hypercubes to
(k, n)-grids.

The hypercube literature routes around faults greedily: travel minimal
(dimension-order) hops, and when the productive hop is blocked take a
deterministic perpendicular *side-step episode* — keep stepping in one
perpendicular direction until the productive hop clears, then resume.
Unlike the paper's f-ring scheme the heuristic uses only per-hop local
fault checks (no ring geometry at all), and unlike the up*/down*
policies it is *incomplete*: a bounded number of detour episodes may not
suffice for every pair under every pattern.  :meth:`AvoidFaultyRouting.coverage`
reports the routable fraction, mirroring the delivery-probability
analyses of the hypercube papers; the arena skips load sweeps for cells
with partial coverage instead of crashing mid-simulation.

Deadlock freedom is by *structured buffer pools*: each detour episode
moves the message to a fresh bank of virtual-channel classes, and the
episode counter never decreases, so cross-bank dependencies follow a
strict order.  Within a bank the message travels dimension-order with
the usual dateline class split per travel segment, and every detour or
post-detour resumption crosses chips on the direct interchip connection
with its own bank's class (``misrouting`` / ``resume_direct``), keeping
bank discipline on the interchip channels too.  Idle-VC sharing is
disabled (``supports_sharing = False``) — borrowing across banks would
break the episode order.  As with every registered policy, the
conformance suite checks the channel dependency graph per fault
pattern; the default two banks fit the paper's budget (4 torus / 2 mesh
classes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from ..faults import FaultRingIndex, FaultScenario, FaultSet, LocalFaultView
from ..topology import Coord, Direction, GridNetwork
from .ecube import ecube_hop
from .ft_routing import Decision
from .message_types import MessageRoute, RoutingError, walk_route


class AvoidRoute(MessageRoute):
    """Route state of an avoidance-heuristic message."""

    def __init__(self, src: Coord, dst: Coord, msg_dim: int):
        super().__init__(src=src, dst=dst, msg_dim=msg_dim)
        #: detour episodes used so far (selects the class bank)
        self.level = 0
        #: active side-step direction, or None while routing minimally
        self.detour: Optional[Tuple[int, Direction]] = None
        #: hops taken in the current episode (bounds perpendicular walks)
        self.episode_hops = 0
        #: direction of the last committed hop (prevents a new episode
        #: from immediately backtracking)
        self.last_direction: Optional[Direction] = None

    @property
    def is_misrouted(self) -> bool:
        # mid-detour worms count as misrouted so a full reconfiguration
        # truncates them (their detour context may have changed under them)
        return self.detour is not None


class AvoidFaultyRouting:
    """Greedy minimal routing with perpendicular side-step episodes
    (registered as ``"avoid"``).

    ``banks`` is the number of detour banks; a message may use at most
    ``banks - 1`` episodes before the pair counts as unroutable.  The
    registry sizes it from ``num_vcs`` when the configuration asks for
    more virtual channels (each bank costs 2 classes on a torus, 1 on a
    mesh).
    """

    #: cross-bank borrowing would break the episode order
    supports_sharing = False

    def __init__(
        self,
        network: GridNetwork,
        faults: Optional[FaultSet] = None,
        *,
        banks: int = 2,
    ):
        if banks < 1:
            raise ValueError("the avoidance heuristic needs at least one class bank")
        self.network = network
        self.faults = faults or FaultSet()
        self.view = LocalFaultView(network, self.faults)
        self.ring_index = FaultRingIndex(network, [])  # purely local knowledge
        self.banks = banks
        self._classes_per_bank = 2 if network.wraparound else 1
        self.base_vc_classes = banks * self._classes_per_bank
        self.num_vc_classes = self.base_vc_classes
        self._healthy = [
            coord for coord in network.nodes() if coord not in self.faults.node_faults
        ]
        #: pairs whose dry walk succeeded / failed (initial_state raises
        #: for unroutable pairs, like the table baseline)
        self._routable: Set[Tuple[Coord, Coord]] = set()
        self._unroutable: Dict[Tuple[Coord, Coord], str] = {}

    @classmethod
    def for_scenario(
        cls, network: GridNetwork, scenario: FaultScenario, *, banks: int = 2, **_kwargs
    ) -> "AvoidFaultyRouting":
        return cls(network, scenario.faults, banks=banks)

    # ------------------------------------------------------------------
    # routing interface
    # ------------------------------------------------------------------
    def initial_state(self, src: Coord, dst: Coord) -> AvoidRoute:
        if self.faults.is_node_faulty(src) or self.faults.is_node_faulty(dst):
            raise ValueError("messages are generated by and for healthy nodes only")
        self._verify(src, dst)
        return self._fresh_state(src, dst)

    def _fresh_state(self, src: Coord, dst: Coord) -> AvoidRoute:
        hop = ecube_hop(self.network, src, dst)
        return AvoidRoute(src, dst, hop[0] if hop is not None else 0)

    def next_hop(self, state: AvoidRoute, current: Coord) -> Decision:
        hop = ecube_hop(self.network, current, state.dst)
        if hop is None:
            return Decision.deliver()
        dim, direction = hop
        if not self.view.hop_blocked(current, dim, direction):
            if state.detour is not None:
                # episode over: resume minimal routing; the chip change
                # back to the productive dimension takes the direct
                # interchip connection with this bank's class
                state.detour = None
                state.episode_hops = 0
                state.resume_direct = True
            state.advance_role(dim)
            wrapped = state.wrapped or self.network.is_wraparound_hop(
                current, dim, direction
            )
            return Decision(
                consume=False,
                dim=dim,
                direction=direction,
                vc_class=self._bank_class(state.level, wrapped),
            )
        if state.detour is not None:
            ddim, ddir = state.detour
            if (
                self.view.hop_blocked(current, ddim, ddir)
                or state.episode_hops >= self.network.radix - 1
            ):
                # walked into another fault (or all the way around a
                # ring): a fresh episode on the next bank
                self._start_episode(state, current, dim)
            ddim, ddir = state.detour
            state.advance_role(ddim)
            wrapped = state.wrapped or self.network.is_wraparound_hop(current, ddim, ddir)
            return Decision(
                consume=False,
                dim=ddim,
                direction=ddir,
                vc_class=self._bank_class(state.level, wrapped),
                misrouting=True,
            )
        self._start_episode(state, current, dim)
        ddim, ddir = state.detour
        state.advance_role(ddim)
        wrapped = state.wrapped or self.network.is_wraparound_hop(current, ddim, ddir)
        return Decision(
            consume=False,
            dim=ddim,
            direction=ddir,
            vc_class=self._bank_class(state.level, wrapped),
            misrouting=True,
        )

    def commit_hop(self, state: AvoidRoute, current: Coord, decision: Decision) -> Coord:
        if decision.consume:
            raise RoutingError("commit_hop called on a deliver decision")
        if decision.dim == state.msg_dim and self.network.is_wraparound_hop(
            current, decision.dim, decision.direction
        ):
            state.wrapped = True
        state.resume_direct = False
        state.last_dim = decision.dim
        state.last_vc_class = decision.vc_class
        state.last_direction = decision.direction
        if decision.misrouting:
            state.misroute_hops += 1
            state.episode_hops += 1
        else:
            state.normal_hops += 1
        nxt = self.network.neighbor(current, decision.dim, decision.direction)
        if nxt is None:
            raise RoutingError(f"hop off the boundary at {current}")
        return nxt

    def route_path(
        self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None
    ) -> List[Coord]:
        if max_hops is None:
            max_hops = self._max_hops()
        return walk_route(lambda _coord: self, self.initial_state(src, dst), src, max_hops)

    # ------------------------------------------------------------------
    # episode management
    # ------------------------------------------------------------------
    def _start_episode(self, state: AvoidRoute, current: Coord, blocked_dim: int) -> None:
        if state.level + 1 >= self.banks:
            raise RoutingError(
                f"message {state.src}->{state.dst} blocked at {current} needs "
                f"more than {self.banks - 1} detour episode(s) — beyond the "
                "heuristic's class-bank budget (the pair is unroutable; "
                "coverage() reports the fraction of such pairs)"
            )
        choice = self._pick_side_step(state, current, blocked_dim)
        if choice is None:
            raise RoutingError(
                f"message {state.src}->{state.dst} is walled in at {current}: "
                "every perpendicular hop is blocked"
            )
        state.level += 1
        state.detour = choice
        state.episode_hops = 0
        # a fresh bank starts a fresh dateline segment
        state.wrapped = False
        state.msg_dim = choice[0]

    def _pick_side_step(
        self, state: AvoidRoute, current: Coord, blocked_dim: int
    ) -> Optional[Tuple[int, Direction]]:
        """Deterministic side-step choice: prefer a perpendicular hop that
        is itself productive (the hypercube heuristic's "route in another
        needed dimension"), then the lowest dimension, positive direction
        first; never immediately backtrack the hop just taken."""
        backtrack = None
        if state.last_dim is not None and state.last_direction is not None:
            backtrack = (state.last_dim, state.last_direction.opposite)
        candidates: List[Tuple[int, int, int, Tuple[int, Direction]]] = []
        for dim in range(self.network.dims):
            if dim == blocked_dim:
                continue
            for direction in (Direction.POS, Direction.NEG):
                if (dim, direction) == backtrack:
                    continue
                if self.view.hop_blocked(current, dim, direction):
                    continue
                productive = 0
                if self.network.dim_distance(current[dim], state.dst[dim]) > 0:
                    preferred = self.network.minimal_direction(
                        current[dim], state.dst[dim]
                    )
                    productive = 0 if preferred is direction else 1
                else:
                    productive = 1
                candidates.append(
                    (
                        productive,
                        dim,
                        0 if direction is Direction.POS else 1,
                        (dim, direction),
                    )
                )
        if not candidates:
            return None
        return min(candidates)[3]

    def _bank_class(self, level: int, wrapped: bool) -> int:
        base = level * self._classes_per_bank
        if self.network.wraparound:
            return base + (1 if wrapped else 0)
        return base

    def _max_hops(self) -> int:
        return (
            self.network.dims * self.network.radix
            + 2 * self.banks * self.network.radix
            + 8
        )

    # ------------------------------------------------------------------
    # coverage (the heuristic's published metric)
    # ------------------------------------------------------------------
    def _verify(self, src: Coord, dst: Coord) -> None:
        key = (src, dst)
        if key in self._routable:
            return
        reason = self._unroutable.get(key)
        if reason is not None:
            raise RoutingError(reason)
        try:
            walk_route(
                lambda _coord: self, self._fresh_state(src, dst), src, self._max_hops()
            )
        except RoutingError as error:
            self._unroutable[key] = str(error)
            raise
        self._routable.add(key)

    def coverage(self) -> float:
        """Fraction of healthy ordered pairs the heuristic delivers within
        its episode budget — 1.0 only for benign patterns (the published
        incompleteness of avoid-faulty-node routing)."""
        total = 0
        reachable = 0
        for src in self._healthy:
            for dst in self._healthy:
                if src == dst:
                    continue
                total += 1
                try:
                    self._verify(src, dst)
                    reachable += 1
                except RoutingError:
                    pass
        return reachable / total if total else 1.0
