"""The paper's fault-tolerant routing algorithm (Section 5).

Messages are routed by ordinary dimension-order (e-cube) routing until the
next hop is blocked by a fault.  The blocked message becomes *misrouted*
and travels around the f-ring enclosing the fault in its current 2D
routing plane:

* A message blocked in a non-final dimension travels on **two sides** of
  the f-ring (either orientation along the ring column it is standing on)
  and resumes normal e-cube routing when it reaches a corner.
* A message blocked in the **final** dimension travels on **three sides**
  (one fixed orientation: out along the misroute dimension's positive
  direction, along the blocked dimension past the fault, and back) and
  resumes normal routing only once it returns to its original column with
  only final-dimension hops left.

Virtual channel classes follow Tables 1 and 2 (:mod:`.vc_allocation`).
The algorithm needs only local fault knowledge plus the f-ring geometry
each ring node learns during the distributed ring-formation step.

The same decision logic serves both router organizations: the PDR model
(:mod:`repro.router.pdr`) adds the interchip hops, the crossbar model
(:mod:`repro.router.crossbar`) switches dimensions internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..faults import FaultRingIndex, FaultScenario, FaultSet, LocalFaultView
from ..topology import Coord, Direction, GridNetwork
from .ecube import ecube_hop, next_ecube_dim
from .message_types import MessageRoute, MisroutePhase, MisrouteState, RoutingError, walk_route
from .vc_allocation import (
    is_three_sided,
    misroute_dim_of,
    num_classes,
    plane_of,
    vc_class,
)


@dataclass(frozen=True)
class Decision:
    """One routing decision: deliver here, or take a hop on
    (``dim``, ``direction``) using virtual channel class ``vc_class``."""

    consume: bool
    dim: int = -1
    direction: Direction = Direction.POS
    vc_class: int = 0
    misrouting: bool = False

    @staticmethod
    def deliver() -> "Decision":
        return Decision(consume=True)


class FaultTolerantRouting:
    """Routing-decision engine for one faulty (or fault-free) network.

    Stateless across messages: all per-message state lives in the
    :class:`MessageRoute` the caller holds.  ``next_hop`` is idempotent —
    calling it repeatedly at the same node returns the same decision, so a
    router can re-evaluate while a header waits for an output channel.
    """

    #: Orientation policies for two-sided misroutes.  The paper allows
    #: either orientation (deadlock freedom is orientation-independent);
    #: how the freedom is spent is a performance knob:
    #:
    #: * ``"destination"`` — toward the destination's position in the
    #:   misroute dimension (shortest final path; the default);
    #: * ``"shorter-side"`` — always the nearer ring corner (fewest
    #:   misroute hops, possibly more normal hops later);
    #: * ``"balanced"`` — deterministic pseudo-random split, spreading
    #:   detour traffic over both ring sides to soften the f-ring hotspot
    #:   the paper's Section 6 identifies.
    ORIENTATION_POLICIES = ("destination", "shorter-side", "balanced")

    #: normal messages may borrow idle same-rank classes on off-ring
    #: channels (the parity-rank sharing rule keeps the CDG acyclic)
    supports_sharing = True

    #: Non-misrouting decisions are a pure function of
    #: (module, dst, msg_dim, wrapped, protocol, resume_direct, last_dim,
    #: last_vc_class) — ``next_hop`` mutates state only through the
    #: idempotent ``_advance_role`` while ``misroute is None``, and the
    #: fault view is frozen per routing object.  The vector core's
    #: allocation stage exploits this to memoize resolutions.
    cacheable_decisions = True

    def __init__(
        self,
        network: GridNetwork,
        faults: Optional[FaultSet] = None,
        ring_index: Optional[FaultRingIndex] = None,
        *,
        orientation_policy: str = "destination",
        region_layers: Optional[dict] = None,
    ):
        self.network = network
        self.faults = faults or FaultSet()
        self.view = LocalFaultView(network, self.faults)
        self.ring_index = ring_index or FaultRingIndex(network, [])
        #: classes one misroute layer needs (the paper's 4 torus / 2 mesh)
        self.base_vc_classes = num_classes(torus=network.wraparound)
        #: misroute layer per region (all zero without overlapping rings);
        #: layer-1 regions detour on a second bank of classes — the
        #: "more virtual channels" of the authors' report [8]
        self.region_layers = dict(region_layers or {})
        self._layered = any(layer for layer in self.region_layers.values())
        #: total classes the scheme needs per protocol bank
        self.num_vc_classes = self.base_vc_classes * (2 if self._layered else 1)
        if orientation_policy not in self.ORIENTATION_POLICIES:
            raise ValueError(
                f"unknown orientation policy {orientation_policy!r}; "
                f"expected one of {self.ORIENTATION_POLICIES}"
            )
        self.orientation_policy = orientation_policy

    @classmethod
    def for_scenario(
        cls,
        network: GridNetwork,
        scenario: FaultScenario,
        *,
        orientation_policy: str = "destination",
    ) -> "FaultTolerantRouting":
        return cls(
            network,
            scenario.faults,
            scenario.ring_index,
            orientation_policy=orientation_policy,
            region_layers=scenario.region_layers,
        )

    # ------------------------------------------------------------------
    # public interface
    # ------------------------------------------------------------------
    def initial_state(self, src: Coord, dst: Coord) -> MessageRoute:
        if self.faults.is_node_faulty(src) or self.faults.is_node_faulty(dst):
            raise ValueError("messages are generated by and for healthy nodes only")
        first_dim = next_ecube_dim(src, dst)
        return MessageRoute(src=src, dst=dst, msg_dim=first_dim if first_dim is not None else 0)

    def next_hop(self, state: MessageRoute, current: Coord) -> Decision:
        """The decision for the message at ``current``.

        May advance the message's internal phase (misroute entry/exit,
        dimension-role changes); such transitions are idempotent for a
        fixed ``current``.
        """
        self._normalize(state, current)
        if state.misroute is not None:
            return self._misroute_decision(state, current)
        return self._normal_decision(state, current)

    def commit_hop(self, state: MessageRoute, current: Coord, decision: Decision) -> Coord:
        """Record that the hop of ``decision`` has been taken (its channel
        reserved) and return the next node.

        Reserving a wraparound link in the message's own dimension flips
        the class-pair selector (Table 1: "c0 before reserving a wraparound
        link in DIM_0, c1 after")."""
        if decision.consume:
            raise RoutingError("commit_hop called on a deliver decision")
        if decision.dim == state.msg_dim and self.network.is_wraparound_hop(
            current, decision.dim, decision.direction
        ):
            state.wrapped = True
        state.resume_direct = False
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

    def route_path(self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None) -> List[Coord]:
        """Walk the algorithm hop by hop and return the full path (used by
        tests, analysis and examples; the simulator drives the same calls
        flit by flit).  Raises :class:`RoutingError` if the path exceeds
        ``max_hops`` — which, by Lemma 2, never happens for valid fault
        patterns."""
        if max_hops is None:
            ring_budget = sum(
                2 * (ring.span_length(min(ring.plane)) + ring.span_length(max(ring.plane)))
                for ring in self.ring_index.rings
            )
            max_hops = self.network.dims * self.network.radix + 2 * ring_budget + 4
        return walk_route(lambda _coord: self, self.initial_state(src, dst), src, max_hops)

    # ------------------------------------------------------------------
    # phase normalization
    # ------------------------------------------------------------------
    def _normalize(self, state: MessageRoute, current: Coord) -> None:
        misroute = state.misroute
        if misroute is None:
            self._advance_role(state, current)
            return
        ring = misroute.ring
        pos = current[misroute.misroute_dim]
        if misroute.phase is MisroutePhase.SIDE:
            if ring.pos_on_boundary(misroute.misroute_dim, pos):
                # Reached a corner: "it takes the turn and continues to
                # travel on [the ring] as a normal message".
                state.misroute = None
                state.resume_direct = True
                self._advance_role(state, current)
        elif misroute.phase is MisroutePhase.OUT:
            # OUT always travels toward the high corner (orientation POS).
            if pos == ring.hi[misroute.misroute_dim]:
                misroute.phase = MisroutePhase.ALONG
        elif misroute.phase is MisroutePhase.ALONG:
            if current[misroute.move_dim] == ring.far_boundary_position(
                misroute.move_dim, misroute.travel_direction
            ):
                misroute.phase = MisroutePhase.BACK
        elif misroute.phase is MisroutePhase.BACK:
            if pos == misroute.entry_position:
                # "with only DIM_{n-1} hops left": back on the original
                # column, past the fault.
                state.misroute = None
                state.resume_direct = True
                self._advance_role(state, current)

    def _advance_role(self, state: MessageRoute, current: Coord) -> None:
        dim = next_ecube_dim(current, state.dst)
        if dim is not None:
            state.advance_role(dim)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _normal_decision(self, state: MessageRoute, current: Coord) -> Decision:
        hop = ecube_hop(self.network, current, state.dst)
        if hop is None:
            return Decision.deliver()
        dim, direction = hop
        if not self.view.hop_blocked(current, dim, direction):
            return Decision(
                consume=False,
                dim=dim,
                direction=direction,
                vc_class=self._hop_class(state, current, dim, direction),
            )
        self._enter_misroute(state, current, dim, direction)
        return self._misroute_decision(state, current)

    def _misroute_decision(self, state: MessageRoute, current: Coord) -> Decision:
        misroute = state.misroute
        assert misroute is not None
        if misroute.phase in (MisroutePhase.SIDE, MisroutePhase.OUT):
            dim = misroute.misroute_dim
            direction = misroute.orientation
        elif misroute.phase is MisroutePhase.BACK:
            dim = misroute.misroute_dim
            direction = misroute.orientation.opposite
        else:  # ALONG: continue past the fault in the blocked dimension
            dim = misroute.move_dim
            direction = misroute.travel_direction
        layer = self.region_layers.get(misroute.ring.region_index, 0)
        return Decision(
            consume=False,
            dim=dim,
            direction=direction,
            vc_class=self._hop_class(state, current, dim, direction)
            + layer * self.base_vc_classes,
            misrouting=True,
        )

    def _enter_misroute(self, state: MessageRoute, current: Coord, dim: int, direction: Direction) -> None:
        region_index = self.ring_index.locate_region(current, dim, direction)
        if region_index is None:
            raise RoutingError(
                f"hop from {current} in DIM{dim}{direction.symbol} is blocked "
                "but no fault region is responsible (unreachable destination "
                "or unsupported boundary fault)"
            )
        plane = plane_of(self.network.dims, dim)
        ring = self.ring_index.ring_for(region_index, plane, current)
        misroute_dim = misroute_dim_of(self.network.dims, dim)
        three_sided = is_three_sided(self.network.dims, dim)
        if three_sided:
            orientation = Direction.POS  # the single fixed orientation (Fig. 4)
            phase = MisroutePhase.OUT
        else:
            orientation = self._choose_orientation(state, current, ring, misroute_dim)
            phase = MisroutePhase.SIDE
        state.misroute = MisrouteState(
            ring=ring,
            move_dim=dim,
            travel_direction=direction,
            misroute_dim=misroute_dim,
            orientation=orientation,
            three_sided=three_sided,
            phase=phase,
            entry_position=current[misroute_dim],
        )
        state.rings_visited += 1

    def _choose_orientation(
        self, state: MessageRoute, current: Coord, ring, misroute_dim: int
    ) -> Direction:
        """Messages blocked in a non-final dimension "may choose one of two
        possible orientations" (deadlock freedom holds for either choice);
        the configured policy spends that freedom."""
        if self.orientation_policy == "balanced":
            # deterministic per-message coin flip: spreads detours over
            # both ring sides without breaking reproducibility
            token = hash((state.src, state.dst, state.msg_dim)) & 1
            return Direction.POS if token else Direction.NEG
        if self.orientation_policy == "destination":
            preferred = self.network.minimal_direction(
                current[misroute_dim], state.dst[misroute_dim]
            )
            if preferred is not None:
                return preferred
        # "shorter-side", and the destination policy's tie-break
        pos = current[misroute_dim]
        if self.network.wraparound:
            to_hi = (ring.hi[misroute_dim] - pos) % self.network.radix
            to_lo = (pos - ring.lo[misroute_dim]) % self.network.radix
        else:
            to_hi = ring.hi[misroute_dim] - pos
            to_lo = pos - ring.lo[misroute_dim]
        return Direction.POS if to_hi <= to_lo else Direction.NEG

    # ------------------------------------------------------------------
    def _hop_class(self, state: MessageRoute, current: Coord, dim: int, direction: Direction) -> int:
        wrapped = state.wrapped or (
            dim == state.msg_dim and self.network.is_wraparound_hop(current, dim, direction)
        )
        return vc_class(
            self.network.dims,
            state.msg_dim,
            dim,
            wrapped,
            torus=self.network.wraparound,
        )

class StagedRoutingView:
    """Node-local routing during a reconfiguration transition window.

    While fault reports propagate (see
    :class:`repro.faults.DetectionProcess`), each node routes against the
    relation it *knows*: nodes whose knowledge has converged use the
    ``target`` relation (new f-rings), the rest still use the ``stale``
    one.  Per-hop decisions therefore mix relations along a single path,
    which is exactly the hazard the transition window creates — a worm
    routed by a stale node can run into a channel the target relation has
    condemned, and the simulator truncates it (a loss the reliability
    layer retransmits).

    The view quacks like :class:`FaultTolerantRouting` for everything the
    router models consult (``num_vc_classes``, ``base_vc_classes``,
    ``faults``, ``ring_index``, ``view``, sharing support), delegating to
    the stale relation: channel banks and ring flags are only rewired when
    the window closes, so mid-window structural queries must keep seeing
    the pre-fault world.
    """

    def __init__(self, stale, target, ready_fn):
        self.stale = stale
        #: relation being converged to; replaced in place when another
        #: fault event lands inside the same window
        self.target = target
        #: ``ready_fn(coord) -> bool`` — has this node's knowledge converged?
        self.ready_fn = ready_fn

    # -- per-node dispatch ---------------------------------------------
    def _relation_at(self, current: Coord):
        return self.target if self.ready_fn(current) else self.stale

    def initial_state(self, src: Coord, dst: Coord) -> MessageRoute:
        relation = self._relation_at(src)
        try:
            return relation.initial_state(src, dst)
        except ValueError:
            # one endpoint is faulty in this node's view but not the
            # other's (e.g. a converged source replying to a requester the
            # window has condemned): fall back to the other relation — the
            # worm heads out on that knowledge and is truncated when the
            # window closes if the destination really is doomed
            other = self.stale if relation is self.target else self.target
            return other.initial_state(src, dst)

    def next_hop(self, state: MessageRoute, current: Coord) -> Decision:
        return self._relation_at(current).next_hop(state, current)

    def commit_hop(self, state: MessageRoute, current: Coord, decision: Decision) -> Coord:
        return self._relation_at(current).commit_hop(state, current, decision)

    def route_path(
        self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None
    ) -> List[Coord]:
        # an analytic walk through the transition window follows each
        # node's own knowledge, exactly as the simulator would
        state = self.initial_state(src, dst)
        budget = max_hops if max_hops is not None else (
            8 * self.network.dims * self.network.radix + 64
        )
        return walk_route(self._relation_at, state, src, budget)

    # -- structural queries: the pre-fault world ------------------------
    @property
    def network(self) -> GridNetwork:
        return self.stale.network

    @property
    def faults(self) -> FaultSet:
        return self.stale.faults

    @property
    def view(self) -> LocalFaultView:
        return self.stale.view

    @property
    def ring_index(self) -> FaultRingIndex:
        return self.stale.ring_index

    @property
    def num_vc_classes(self) -> int:
        return self.stale.num_vc_classes

    @property
    def base_vc_classes(self) -> int:
        return self.stale.base_vc_classes

    @property
    def supports_sharing(self) -> bool:
        return getattr(self.stale, "supports_sharing", True)


class ECubeRouting:
    """Plain dimension-order routing (no fault tolerance) with the minimal
    deadlock-free virtual channel usage: two classes per dimension pair in
    a torus (dateline scheme), one in a mesh.

    Used as the crossbar-era baseline for ablations and for validating the
    simulator against classic fault-free behavior.  Raises
    :class:`RoutingError` if it ever meets a fault.
    """

    supports_sharing = True

    def __init__(self, network: GridNetwork):
        self.network = network
        self.num_vc_classes = 2 if network.wraparound else 1
        self.base_vc_classes = self.num_vc_classes
        self.ring_index = FaultRingIndex(network, [])
        self.faults = FaultSet()
        self.view = LocalFaultView(network, self.faults)

    def initial_state(self, src: Coord, dst: Coord) -> MessageRoute:
        first_dim = next_ecube_dim(src, dst)
        return MessageRoute(src=src, dst=dst, msg_dim=first_dim if first_dim is not None else 0)

    def next_hop(self, state: MessageRoute, current: Coord) -> Decision:
        dim = next_ecube_dim(current, state.dst)
        if dim is None:
            return Decision.deliver()
        state.advance_role(dim)
        direction = self.network.minimal_direction(current[dim], state.dst[dim])
        assert direction is not None
        wrapped = state.wrapped or self.network.is_wraparound_hop(current, dim, direction)
        return Decision(
            consume=False,
            dim=dim,
            direction=direction,
            vc_class=1 if (wrapped and self.network.wraparound) else 0,
        )

    def commit_hop(self, state: MessageRoute, current: Coord, decision: Decision) -> Coord:
        if decision.dim == state.msg_dim and self.network.is_wraparound_hop(
            current, decision.dim, decision.direction
        ):
            state.wrapped = True
        state.normal_hops += 1
        nxt = self.network.neighbor(current, decision.dim, decision.direction)
        if nxt is None:
            raise RoutingError("e-cube stepped off the mesh boundary")
        return nxt

    def route_path(
        self, src: Coord, dst: Coord, *, max_hops: Optional[int] = None
    ) -> List[Coord]:
        from .ecube import ecube_path

        path = ecube_path(self.network, src, dst)
        if max_hops is not None and len(path) - 1 > max_hops:
            raise RoutingError(f"message {src}->{dst} exceeded {max_hops} hops")
        return path
