"""Up*/down* routing machinery and two baseline policies built on it.

Both policies race the paper's f-ring scheme in the routing arena
(``repro-experiments arena``) and follow the self-healing literature
rather than the paper:

* :class:`FashionRouting` ("fashion") — a FASHION-style self-healing
  table policy: whenever the fault knowledge changes, shortest paths are
  recomputed over the *healthy* graph under an up*/down* turn
  restriction and messages follow the precomputed hop list.  The
  reconfiguration machinery rebuilds the tables on every runtime fault —
  recomputation *is* the self-healing step.
* :class:`AdaptiveRouting` ("adaptive") — a fault-tolerant adaptive
  protocol in the spirit of Stroobant et al.: at every hop the message
  picks any unblocked productive neighbor permitted by the same
  up*/down* discipline, falling back to the precomputed table path as an
  escape when no productive hop qualifies.  Adaptivity is with respect
  to *faults* (deterministic per topology and fault pattern), keeping
  runs bit-for-bit reproducible across reruns and engine cores.

Why up*/down* here: the discipline orders all healthy nodes by BFS rank
from a root and forbids down→up turns, so every route ascends then
descends the rank order — on meshes, tori (wraparound links included;
the ordering is on nodes, not ring positions) and arbitrary connected
fault patterns alike.  On *link* channels that alone keeps dependency
chains from closing, but the PDR organization adds interchip channels
shared by every message crossing a chip boundary inside a node: if up-
and down-phase messages reserved the same class there, the union
dependency graph would contain a down→up path through the shared
channel and a cycle becomes possible (the conformance suite catches
exactly this).  Both policies therefore split the phases over classes —
**class 0 for up hops, class 1 for down hops** — and take the *direct*
interchip connection with the decision's class on every module change
(``resume_direct``), so class 0 dependencies strictly descend the rank,
class 1 dependencies strictly ascend it, and cross edges only ever go
0 → 1 (the single up→down pivot).  Idle-VC sharing is disabled
(``supports_sharing = False``): borrowing across the phase classes would
re-merge them.  The conformance suite checks the CDG mechanically per
fault pattern, as required of every registered policy.

The rank order roots at the healthy node with the most healthy links
(ties: most central, then lowest id — see :class:`UpDownOrder`): every
node reaches the root by up hops along its BFS parent chain and the root
reaches every node by down hops, so any connected fault pattern leaves
every healthy pair routable (full coverage — unlike the avoidance
heuristic in :mod:`.avoidance`).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..faults import FaultRingIndex, FaultScenario, FaultSet, LocalFaultView
from ..topology import Coord, Direction, GridNetwork
from .ft_routing import Decision
from .message_types import MessageRoute, RoutingError, walk_route
from .vc_allocation import num_classes

#: one (dim, direction) hop of a precomputed path
Hop = Tuple[int, Direction]


class UpDownOrder:
    """BFS rank order over the healthy subgraph.

    ``rank(v) = (bfs_level, -node_id)`` with the root at level 0; a hop
    ``u -> v`` is *up* when ``rank(v) < rank(u)``.  Up hops strictly
    decrease the rank, so the up-graph (and symmetrically the down-graph)
    is acyclic, and every node has an all-up path to the root (its BFS
    parent chain).

    The root is the healthy node with the maximal healthy degree — every
    up path funnels through the root's links, so the best-connected node
    gives the up phase the most capacity and the shallowest BFS tree.
    Ties prefer the most central node (smallest L1 offset from the array
    midpoint, which keeps mesh trees balanced; on a fault-free torus
    every node ties) and then the lowest node id, keeping the choice
    deterministic for a given fault pattern.
    """

    def __init__(self, network: GridNetwork, faults: FaultSet):
        self.network = network
        self.view = LocalFaultView(network, faults)
        self._adjacency: Dict[Coord, Tuple[Tuple[int, Direction, Coord], ...]] = {}
        healthy = [c for c in network.nodes() if faults.is_node_faulty(c) is False]
        for coord in healthy:
            self._adjacency[coord] = tuple(
                (dim, direction, neighbor)
                for dim, direction, neighbor in network.neighbors(coord)
                if not self.view.hop_blocked(coord, dim, direction)
            )
        self._rank: Dict[Coord, Tuple[int, int]] = {}
        if healthy:
            mid = network.radix - 1  # doubled midpoint: |2c - mid| stays integral

            def root_key(coord: Coord) -> Tuple[int, int, int]:
                return (
                    -len(self._adjacency[coord]),
                    sum(abs(2 * c - mid) for c in coord),
                    network.node_id(coord),
                )

            root = min(healthy, key=root_key)
            level = {root: 0}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for _dim, _direction, v in self._adjacency[u]:
                    if v not in level:
                        level[v] = level[u] + 1
                        queue.append(v)
            for coord, lvl in level.items():
                self._rank[coord] = (lvl, -network.node_id(coord))

    def reachable(self, coord: Coord) -> bool:
        """Whether ``coord`` is connected to the healthy component of the
        root (always true for the fault model's validated patterns)."""
        return coord in self._rank

    def neighbors(self, coord: Coord) -> Tuple[Tuple[int, Direction, Coord], ...]:
        return self._adjacency.get(coord, ())

    def is_up(self, u: Coord, v: Coord) -> bool:
        return self._rank[v] < self._rank[u]


class UpDownTables:
    """Shortest paths under the up*/down* turn restriction.

    Plans are BFS-shortest over the state graph ``(node, down?)`` —
    phase 0 may still take up hops, phase 1 is committed to down hops —
    with a fixed neighbor iteration order, so every plan is
    deterministic.  The state graph is a DAG (up hops strictly descend
    the rank, down hops strictly ascend it), which also makes the
    per-destination reachability sets used by the adaptive policy a
    simple memoized traversal.
    """

    def __init__(self, order: UpDownOrder):
        self.order = order
        self._plans: Dict[Tuple[Coord, Coord, bool], Tuple[Hop, ...]] = {}
        self._reach: Dict[Coord, FrozenSet[Tuple[Coord, bool]]] = {}

    def plan(self, src: Coord, dst: Coord, *, start_down: bool = False) -> Tuple[Hop, ...]:
        """The hop list from ``src`` to ``dst`` (empty when equal).
        Raises :class:`RoutingError` when no up*/down* path exists — only
        possible for a disconnected healthy graph, which the fault model
        rejects."""
        if src == dst:
            return ()
        key = (src, dst, start_down)
        cached = self._plans.get(key)
        if cached is not None:
            return cached
        order = self.order
        if not (order.reachable(src) and order.reachable(dst)):
            raise RoutingError(
                f"no up*/down* path from {src} to {dst}: the healthy graph "
                "is disconnected"
            )
        start = (src, start_down)
        parents: Dict[Tuple[Coord, bool], Tuple[Tuple[Coord, bool], Hop]] = {}
        seen = {start}
        queue = deque([start])
        goal: Optional[Tuple[Coord, bool]] = None
        while queue and goal is None:
            state = queue.popleft()
            u, down = state
            for dim, direction, v in order.neighbors(u):
                up = order.is_up(u, v)
                if down and up:
                    continue
                nxt = (v, down or not up)
                if nxt in seen:
                    continue
                seen.add(nxt)
                parents[nxt] = (state, (dim, direction))
                if v == dst:
                    goal = nxt
                    break
                queue.append(nxt)
        if goal is None:
            raise RoutingError(
                f"no up*/down* path from {src} to {dst}: the healthy graph "
                "is disconnected"
            )
        hops: List[Hop] = []
        state = goal
        while state != start:
            state, hop = parents[state]
            hops.append(hop)
        hops.reverse()
        plan = tuple(hops)
        self._plans[key] = plan
        return plan

    def reach_set(self, dst: Coord) -> FrozenSet[Tuple[Coord, bool]]:
        """States ``(node, down?)`` from which ``dst`` is reachable under
        the discipline.  The adaptive policy never steps outside this set,
        which is what guarantees its escape plan always exists."""
        cached = self._reach.get(dst)
        if cached is not None:
            return cached
        order = self.order
        ok: Dict[Tuple[Coord, bool], bool] = {}

        def resolve(state: Tuple[Coord, bool]) -> bool:
            # iterative DFS over the (acyclic) phase graph
            stack = [(state, False)]
            while stack:
                current, expanded = stack.pop()
                if current in ok:
                    continue
                u, down = current
                if u == dst:
                    ok[current] = True
                    continue
                successors = []
                for _dim, _direction, v in order.neighbors(u):
                    up = order.is_up(u, v)
                    if down and up:
                        continue
                    successors.append((v, down or not up))
                if expanded:
                    ok[current] = any(ok.get(s, False) for s in successors)
                else:
                    stack.append((current, True))
                    stack.extend((s, False) for s in successors if s not in ok)
            return ok[state]

        for coord in order._adjacency:
            for down in (False, True):
                resolve((coord, down))
        result = frozenset(state for state, good in ok.items() if good)
        self._reach[dst] = result
        return result


class _UpDownBase:
    """Shared structure of the two up*/down* policies."""

    #: the phase-class split (0 up, 1 down) is the deadlock argument;
    #: borrowing idle classes would re-merge the phases
    supports_sharing = False

    def __init__(self, network: GridNetwork, faults: Optional[FaultSet] = None):
        self.network = network
        self.faults = faults or FaultSet()
        self.view = LocalFaultView(network, self.faults)
        self.ring_index = FaultRingIndex(network, [])  # no f-rings
        #: declared at the paper's budget (4 torus / 2 mesh) so every
        #: arena entrant races with equal virtual-channel resources and
        #: the PDR interchip class pairs stay in range; the scheme itself
        #: needs only the designated class 0
        self.base_vc_classes = num_classes(torus=network.wraparound)
        self.num_vc_classes = self.base_vc_classes
        self.order = UpDownOrder(network, self.faults)
        self.tables = UpDownTables(self.order)

    @classmethod
    def for_scenario(cls, network: GridNetwork, scenario: FaultScenario, **_kwargs):
        return cls(network, scenario.faults)

    # ------------------------------------------------------------------
    def _check_endpoints(self, src: Coord, dst: Coord) -> None:
        if self.faults.is_node_faulty(src) or self.faults.is_node_faulty(dst):
            raise ValueError("messages are generated by and for healthy nodes only")

    def _productive(self, current: Coord, dst: Coord, dim: int, direction: Direction) -> bool:
        """Whether the hop reduces the (minimal) distance to ``dst`` —
        non-productive hops are accounted as misroute hops and take the
        designated class on a direct interchip connection."""
        nxt = self.network.neighbor(current, dim, direction)
        if nxt is None:
            return False
        return self.network.distance(nxt, dst) < self.network.distance(current, dst)

    def _phase_class(self, current: Coord, dim: int, direction: Direction) -> int:
        """Class 0 for up hops, class 1 for down hops (the phase split the
        deadlock argument rests on)."""
        nxt = self.network.neighbor(current, dim, direction)
        if nxt is None or not self.order.reachable(nxt):
            return 1
        return 0 if self.order.is_up(current, nxt) else 1

    def _commit(self, state: MessageRoute, current: Coord, decision: Decision) -> Coord:
        if decision.consume:
            raise RoutingError("commit_hop called on a deliver decision")
        # every module change crosses on the direct interchip connection
        # with the decision's phase class — sharing the pass-through chain
        # would mix the phases on one interchip channel
        state.resume_direct = True
        state.last_dim = decision.dim
        state.last_vc_class = decision.vc_class
        if decision.misrouting:
            state.misroute_hops += 1
        else:
            state.normal_hops += 1
        nxt = self.network.neighbor(current, decision.dim, decision.direction)
        if nxt is None:
            raise RoutingError(f"hop off the boundary at {current}")
        return nxt

    def _walk(self, src: Coord, dst: Coord, max_hops: int) -> List[Coord]:
        return walk_route(lambda _coord: self, self.initial_state(src, dst), src, max_hops)

    def _default_max_hops(self) -> int:
        # a phase-constrained walk visits each (node, phase) state at most
        # once: two states per healthy node
        return 2 * len(self.order._adjacency) + 4


class UpDownRoute(MessageRoute):
    """Route state of a table-following up*/down* message."""

    def __init__(self, src: Coord, dst: Coord, hops: Tuple[Hop, ...], planner):
        super().__init__(src=src, dst=dst, msg_dim=hops[0][0] if hops else 0)
        #: the precomputed (dim, direction) hop list being followed
        self.hops = hops
        self.hop_index = 0
        #: the relation that computed ``hops``; when another relation
        #: (a rebuilt post-fault table set) picks the message up, it
        #: re-plans the remainder on its own tables — the self-healing
        #: mid-flight reroute
        self.planner = planner


class FashionRouting(_UpDownBase):
    """FASHION-style self-healing table routing (registered as
    ``"fashion"``).

    Software recomputes per-pair shortest up*/down* paths over the
    healthy graph; messages follow the table.  On a runtime fault the
    registry rebuilds the policy for the merged scenario
    (``reconfigure_with="fashion"``), and in-flight messages that reach a
    node with converged knowledge are re-planned from there on the new
    tables — stale worms that steer into a dead component are truncated
    by the transition window exactly like the paper's scheme.

    Up hops use class 0 and down hops class 1; deadlock freedom is the
    up*/down* ordering plus that phase split (see the module
    docstring).  Mid-window paths can mix
    old-epoch and new-epoch plans, the same transient hazard every
    staged reconfiguration accepts — the post-install CDG re-check
    (``strict_invariants``) covers the settled network.
    """

    def initial_state(self, src: Coord, dst: Coord) -> UpDownRoute:
        self._check_endpoints(src, dst)
        return UpDownRoute(src, dst, self.tables.plan(src, dst), self)

    def next_hop(self, state: UpDownRoute, current: Coord) -> Decision:
        if state.planner is not self:
            # self-healing: re-plan the remainder on this relation's tables
            state.hops = self.tables.plan(current, state.dst)
            state.hop_index = 0
            state.planner = self
        if state.hop_index >= len(state.hops):
            return Decision.deliver()
        dim, direction = state.hops[state.hop_index]
        return Decision(
            consume=False,
            dim=dim,
            direction=direction,
            vc_class=self._phase_class(current, dim, direction),
            misrouting=not self._productive(current, state.dst, dim, direction),
        )

    def commit_hop(self, state: UpDownRoute, current: Coord, decision: Decision) -> Coord:
        nxt = self._commit(state, current, decision)
        state.hop_index += 1
        return nxt

    def route_path(
        self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None
    ) -> List[Coord]:
        return self._walk(src, dst, max_hops or self._default_max_hops())


class AdaptiveRoute(MessageRoute):
    """Route state of a fault-adaptive up*/down* message."""

    def __init__(self, src: Coord, dst: Coord, planner):
        super().__init__(src=src, dst=dst)
        #: committed to the down phase (a down hop was taken)
        self.down = False
        #: escape plan being followed, or None while routing adaptively
        self.escape: Optional[Tuple[Hop, ...]] = None
        self.escape_index = 0
        self.planner = planner


class AdaptiveRouting(_UpDownBase):
    """Fault-tolerant adaptive deadlock-free routing in the spirit of
    Stroobant et al. (registered as ``"adaptive"``).

    At each node the message may take *any* unblocked productive hop the
    up*/down* discipline permits **and** that keeps the destination
    reachable under the discipline (the per-destination reachability
    set); ties break deterministically (nearest, then lowest dimension,
    positive direction first).  When no productive hop qualifies, the
    message escapes onto the precomputed table path for the remainder of
    the route.  Productive hops strictly decrease the distance and the
    escape path is finite, so the walk terminates; every hop obeys the
    up*/down* order, so the channel dependency graph stays acyclic.

    Adaptivity is to the *fault pattern* only — no congestion state is
    consulted — so decisions are a pure function of (topology, faults,
    src, dst, position), which keeps both engine cores bit-identical and
    lets the CDG analysis walk the one true path per pair.
    """

    def initial_state(self, src: Coord, dst: Coord) -> AdaptiveRoute:
        self._check_endpoints(src, dst)
        if not (self.order.reachable(src) and self.order.reachable(dst)):
            raise RoutingError(
                f"no up*/down* path from {src} to {dst}: the healthy graph "
                "is disconnected"
            )
        return AdaptiveRoute(src, dst, self)

    def next_hop(self, state: AdaptiveRoute, current: Coord) -> Decision:
        if state.planner is not self:
            # a rebuilt post-fault relation picked the worm up: restart the
            # phase discipline under the new rank order
            state.down = False
            state.escape = None
            state.escape_index = 0
            state.planner = self
        if current == state.dst:
            return Decision.deliver()
        if state.escape is None:
            choice = self._adaptive_choice(state, current)
            if choice is not None:
                dim, direction = choice
                return Decision(
                    consume=False,
                    dim=dim,
                    direction=direction,
                    vc_class=self._phase_class(current, dim, direction),
                )
            # no productive permitted hop: pin the remainder to the table
            state.escape = self.tables.plan(current, state.dst, start_down=state.down)
            state.escape_index = 0
        dim, direction = state.escape[state.escape_index]
        return Decision(
            consume=False,
            dim=dim,
            direction=direction,
            vc_class=self._phase_class(current, dim, direction),
            misrouting=not self._productive(current, state.dst, dim, direction),
        )

    def _adaptive_choice(self, state: AdaptiveRoute, current: Coord) -> Optional[Hop]:
        reach = self.tables.reach_set(state.dst)
        here = self.network.distance(current, state.dst)
        best: Optional[Tuple[int, int, int]] = None
        best_hop: Optional[Hop] = None
        for dim, direction, v in self.order.neighbors(current):
            up = self.order.is_up(current, v)
            if state.down and up:
                continue
            if (v, state.down or not up) not in reach:
                continue
            dist = self.network.distance(v, state.dst)
            if dist >= here:
                continue
            ranking = (dist, dim, 0 if direction is Direction.POS else 1)
            if best is None or ranking < best:
                best = ranking
                best_hop = (dim, direction)
        return best_hop

    def commit_hop(self, state: AdaptiveRoute, current: Coord, decision: Decision) -> Coord:
        nxt = self._commit(state, current, decision)
        if state.escape is not None:
            state.escape_index += 1
        if not self.order.is_up(current, nxt):
            state.down = True
        return nxt

    def route_path(
        self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None
    ) -> List[Coord]:
        return self._walk(src, dst, max_hops or 2 * self._default_max_hops())
