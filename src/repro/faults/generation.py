"""Random fault-pattern generation.

Section 6 of the paper: "we have randomly generated the required number of
faulty nodes and links such that isolated faults with nonoverlapping
f-rings are formed", using 1 node + 1 link for the ~1%-faults experiments
and 4 nodes + 10 links for the ~5%-faults experiments (percentages count
faulty links, with node faults contributing their incident links).

We reproduce that generator by rejection sampling with a seeded RNG:

* faulty nodes are sampled without replacement, faulty links among the
  remaining healthy links;
* the pattern is accepted only if it is already blocked (no expansion by
  the blocking rule — faults are isolated), every region's f-rings can be
  formed (no mesh-boundary faults, no self-wrapping torus rings), all
  f-ring nodes/links are healthy, rings are pairwise non-overlapping, and
  the healthy network remains connected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from ..topology import BiLink, Coord, GridNetwork
from .fault_model import FaultSet
from .fault_rings import FaultRingIndex, RingGeometryError
from .overlaps import OverlapColoringError, assign_region_layers, has_overlaps
from .regions import (
    FaultRegion,
    NetworkDisconnectedError,
    NonConvexFaultError,
    _interval_from_positions,
    _node_components,
    block_faults,
    extract_fault_regions,
    healthy_network_connected,
    link_fault_region,
)


class FaultGenerationError(RuntimeError):
    """Raised when no acceptable pattern is found within the try budget."""


@dataclass(frozen=True)
class FaultScenario:
    """A validated fault pattern together with its region/ring geometry.

    ``region_layers`` maps each region index to its misroute layer (0 or
    1); layer 1 appears only for patterns with overlapping f-rings, which
    then need a second bank of virtual channel classes (the extension of
    the authors' report [8])."""

    faults: FaultSet
    ring_index: FaultRingIndex
    region_layers: Dict[int, int] = field(default_factory=dict)

    @property
    def num_regions(self) -> int:
        return len(self.ring_index.regions)

    @property
    def has_overlapping_rings(self) -> bool:
        return has_overlaps(self.region_layers)

    def link_fault_percent(self, network: GridNetwork) -> float:
        return 100.0 * self.faults.faulty_link_fraction(network)


def validate_fault_pattern(
    network: GridNetwork,
    faults: FaultSet,
    *,
    allow_blocking: bool = False,
    allow_overlapping_rings: bool = False,
) -> FaultScenario:
    """Check a fault pattern against the model assumptions and build its
    ring geometry.  Raises on violation.

    With ``allow_blocking`` the pattern is first expanded by the blocking
    rule (useful for user-supplied patterns); the paper's generator only
    accepts already-blocked patterns.  With ``allow_overlapping_rings``
    patterns whose f-rings share links are accepted and each region is
    assigned a misroute layer (report [8]'s extra-virtual-channel
    scheme); without it, such patterns raise, as in the paper.
    """
    blocked, regions = extract_fault_regions(network, faults, block=True)
    if not allow_blocking and blocked.node_faults != faults.node_faults:
        raise NonConvexFaultError("pattern is not blocked (blocking rule would expand it)")
    ring_index = FaultRingIndex(network, regions)
    if not ring_index.rings_healthy(blocked):
        raise RingGeometryError("an f-ring passes through a faulty node or link")
    if not allow_overlapping_rings and ring_index.overlapping_ring_pairs():
        raise RingGeometryError("f-rings overlap (share a link)")
    if not healthy_network_connected(network, blocked):
        raise NetworkDisconnectedError("faults disconnect the healthy nodes")
    layers = assign_region_layers(ring_index)
    return FaultScenario(blocked, ring_index, layers)


@dataclass
class DegradationInfo:
    """How a requested fault pattern was degraded into a valid block
    pattern.

    ``degraded_nodes`` are the healthy nodes sacrificed beyond the request
    (by the blocking rule, by box-filling a non-convex component, or by
    merging offending regions into one enclosing block).
    ``condemned_rounds`` maps each sacrificed node to the round of the
    iterated local protocol at which it condemns itself (round 1 is the
    first blocking sweep); the distributed detection model announces a
    round-``r`` node one report latency later per round."""

    requested_nodes: FrozenSet[Coord]
    requested_links: FrozenSet[BiLink]
    degraded_nodes: Tuple[Coord, ...]
    convexify_steps: int
    merges: int
    condemned_rounds: Dict[Coord, int] = field(default_factory=dict)


def _box_interval(network: GridNetwork, material: Set[Coord], dim: int):
    positions = {coord[dim] for coord in material}
    return _interval_from_positions(positions, network.radix, network.wraparound)


def _box_nodes(network: GridNetwork, material: Set[Coord]) -> Set[Coord]:
    """All nodes of the smallest axis-aligned box covering ``material``.
    Raises :class:`NetworkDisconnectedError` when the box would span a
    full torus ring."""
    intervals = tuple(_box_interval(network, material, dim) for dim in range(network.dims))
    return set(FaultRegion(intervals).faulty_nodes(network))


def _link_region_endpoints(network: GridNetwork, region: FaultRegion) -> List[Coord]:
    """The two (healthy) endpoint nodes of a degenerate link region."""
    coords_u: List[int] = []
    coords_v: List[int] = []
    for dim in range(network.dims):
        interval = region.intervals[dim]
        if interval.start % 2 == 1:
            low = (interval.start - 1) // 2
            high = (low + 1) % network.radix if network.wraparound else low + 1
            coords_u.append(low)
            coords_v.append(high)
        else:
            coords_u.append(interval.start // 2)
            coords_v.append(interval.start // 2)
    return [tuple(coords_u), tuple(coords_v)]


def _region_of(network: GridNetwork, regions: Sequence[FaultRegion], item) -> int:
    """Index of the region a faulty node or link belongs to."""
    if isinstance(item, BiLink):
        doubled = tuple(iv.start for iv in link_fault_region(network, item).intervals)
    else:
        doubled = tuple(2 * position for position in item)
    for index, region in enumerate(regions):
        if region.contains_doubled(doubled):
            return index
    raise FaultGenerationError(f"faulty {item} belongs to no fault region")


def _ring_offender(blocked: FaultSet, ring_index: FaultRingIndex) -> "Tuple[int, int] | None":
    """First pair of regions whose geometry conflicts: a ring of one
    passes through faulty material of the other.  Returns ``None`` when
    every ring is healthy."""
    for ring, item in ring_index.faults_on_rings(blocked):
        other = _region_of(ring_index.network, ring_index.regions, item)
        if other != ring.region_index:
            return (ring.region_index, other)
    return None


def degrade_fault_pattern(
    network: GridNetwork,
    faults: FaultSet,
    *,
    allow_overlapping_rings: bool = False,
) -> Tuple[FaultScenario, DegradationInfo]:
    """Convexify an arbitrary fault pattern into a valid block pattern,
    sacrificing healthy nodes as needed (degraded mode).

    The pipeline iterates the paper's own machinery instead of rejecting:
    the blocking rule runs to fixpoint; components that still do not fill
    their bounding box are box-filled; a ring passing through another
    region's faulty material — or an overlapping ring pair, when those are
    not allowed — causes the two regions to be merged into one enclosing
    node block.  Fatal geometry (disconnecting the healthy nodes, mesh
    boundary faults, torus-spanning regions) still raises, since no amount
    of sacrifice can repair it.

    On an input :func:`validate_fault_pattern` already accepts (with
    ``allow_blocking=True``), the first pass runs exactly the validator's
    checks and returns an identical scenario with ``convexify_steps == 0``.

    Returns ``(scenario, info)``.
    """
    working = faults
    condemned_rounds: Dict[Coord, int] = {}
    merges = 0
    passes = 0
    round_base = 0
    # each pass either succeeds or strictly grows the faulty node set /
    # reduces the region count, so termination is bounded by network size;
    # the guard catches logic errors rather than real patterns
    max_passes = 4 * network.dims * network.radix + 16
    while True:
        passes += 1
        if passes > max_passes:
            raise FaultGenerationError(
                f"degraded-mode convexification did not converge within "
                f"{max_passes} passes on {network!r}"
            )
        waves, blocked_nodes = block_faults(network, working.node_faults)
        for wave_index, wave in enumerate(waves[1:], start=1):
            for coord in wave:
                condemned_rounds.setdefault(coord, round_base + wave_index)
        round_base += len(waves) - 1
        try:
            blocked, regions = extract_fault_regions(network, working, blocked=blocked_nodes)
        except NonConvexFaultError:
            # box-fill every component that is not a filled box
            unfilled = set().union(*waves)
            filled: Set[Coord] = set(unfilled)
            for component in _node_components(network, frozenset(unfilled)):
                filled |= _box_nodes(network, component)
            round_base += 1
            for coord in filled - unfilled:
                condemned_rounds.setdefault(coord, round_base)
            working = FaultSet(frozenset(filled), working.link_faults)
            continue
        working = blocked
        ring_index = FaultRingIndex(network, regions)
        offender = _ring_offender(blocked, ring_index)
        layers = None
        if offender is None:
            # overlapping rings stay when they are allowed and two layers
            # separate them; otherwise the first overlapping pair merges
            pairs = ring_index.overlapping_ring_pairs()
            if allow_overlapping_rings or not pairs:
                try:
                    layers = assign_region_layers(ring_index)
                except OverlapColoringError:
                    pass
            if layers is None:
                offender = (pairs[0][0].region_index, pairs[0][1].region_index)
        if offender is None:
            if not healthy_network_connected(network, blocked):
                raise NetworkDisconnectedError("faults disconnect the healthy nodes")
            degraded = tuple(sorted(blocked.node_faults - faults.node_faults))
            info = DegradationInfo(
                requested_nodes=faults.node_faults,
                requested_links=faults.link_faults,
                degraded_nodes=degraded,
                convexify_steps=passes - 1,
                merges=merges,
                condemned_rounds=condemned_rounds,
            )
            return FaultScenario(blocked, ring_index, layers), info
        # merge the offending pair into one enclosing node block
        material: Set[Coord] = set()
        for index in offender:
            region = regions[index]
            nodes = region.faulty_nodes(network)
            if nodes:
                material.update(nodes)
            else:
                material.update(_link_region_endpoints(network, region))
        box_nodes = _box_nodes(network, material)
        round_base += 1
        for coord in box_nodes - working.node_faults:
            condemned_rounds.setdefault(coord, round_base)
        working = FaultSet(working.node_faults | frozenset(box_nodes), working.link_faults)
        merges += 1


def draw_fault_set(
    all_nodes: Sequence[Coord],
    all_links: Sequence[BiLink],
    num_node_faults: int,
    num_link_faults: int,
    rng: random.Random,
) -> FaultSet:
    """One random raw pattern: faulty nodes sampled without replacement,
    faulty links among the links not incident on a faulty node.  Every
    generator here and :class:`repro.mc.PatternSampler` draw through this
    one function, so they consume the RNG identically."""
    nodes = rng.sample(all_nodes, num_node_faults) if num_node_faults else []
    links: List[BiLink] = []
    if num_link_faults:
        node_set = set(nodes)
        candidates = [
            link for link in all_links if link.u not in node_set and link.v not in node_set
        ]
        links = rng.sample(candidates, num_link_faults)
    return FaultSet(frozenset(nodes), frozenset(links))


def generate_random_pattern(
    network: GridNetwork,
    num_node_faults: int,
    num_link_faults: int,
    rng: random.Random,
    *,
    allow_overlapping_rings: bool = False,
    max_tries: int = 1_000,
) -> Tuple[FaultScenario, DegradationInfo]:
    """Sample an arbitrary (not necessarily convex, not pre-blocked) fault
    pattern and degrade it into a valid block pattern.

    Unlike :func:`generate_fault_pattern` there is no rejection on
    convexity or ring overlap — the degraded-mode pipeline convexifies
    whatever comes up; only fatally invalid draws (disconnecting the
    network, mesh-boundary faults) are re-drawn."""
    all_nodes = list(network.nodes())
    all_links = list(network.links())
    for _attempt in range(max_tries):
        faults = draw_fault_set(all_nodes, all_links, num_node_faults, num_link_faults, rng)
        try:
            return degrade_fault_pattern(
                network, faults, allow_overlapping_rings=allow_overlapping_rings
            )
        except (RingGeometryError, NetworkDisconnectedError, OverlapColoringError, FaultGenerationError):
            continue
    raise FaultGenerationError(
        f"no degradable pattern with {num_node_faults} node and {num_link_faults} "
        f"link faults found in {max_tries} tries on {network!r}"
    )


def generate_fault_pattern(
    network: GridNetwork,
    num_node_faults: int,
    num_link_faults: int,
    rng: random.Random,
    *,
    max_tries: int = 10_000,
) -> FaultScenario:
    """Sample a fault pattern with the given number of isolated node and
    link faults, rejecting patterns that violate the model (Section 6's
    procedure)."""
    all_nodes = list(network.nodes())
    all_links = list(network.links())
    for _attempt in range(max_tries):
        faults = draw_fault_set(all_nodes, all_links, num_node_faults, num_link_faults, rng)
        try:
            return validate_fault_pattern(network, faults)
        except (NonConvexFaultError, RingGeometryError, NetworkDisconnectedError):
            continue
    raise FaultGenerationError(
        f"no valid pattern with {num_node_faults} node and {num_link_faults} "
        f"link faults found in {max_tries} tries on {network!r}"
    )


def generate_overlapping_pattern(
    network: GridNetwork,
    num_regions: int,
    rng: random.Random,
    *,
    max_tries: int = 20_000,
) -> FaultScenario:
    """Sample a pattern of single-node faults in which at least one pair
    of f-rings overlaps (the interleaved-board scenario of Section 7),
    validated under the layered scheme of report [8]."""
    all_nodes = list(network.nodes())
    for _attempt in range(max_tries):
        faults = draw_fault_set(all_nodes, (), num_regions, 0, rng)
        try:
            scenario = validate_fault_pattern(
                network, faults, allow_overlapping_rings=True
            )
        except (
            NonConvexFaultError,
            RingGeometryError,
            NetworkDisconnectedError,
            OverlapColoringError,
        ):
            continue
        if scenario.has_overlapping_rings:
            return scenario
    raise FaultGenerationError(
        f"no overlapping-ring pattern with {num_regions} regions found in "
        f"{max_tries} tries on {network!r}"
    )


#: The paper's two fault scenarios for 16x16 networks (Section 6): the
#: labels are the approximate percentage of faulty links.
PAPER_FAULT_COUNTS = {
    0: (0, 0),  # fault-free
    1: (1, 1),  # "1% faults": 1 node + 1 link
    5: (4, 10),  # "5% faults": 4 nodes + 10 links
}


def scaled_fault_counts(network: GridNetwork, percent: int) -> Tuple[int, int]:
    """The paper's (node, link) fault counts, scaled to the network size.

    The paper's counts target 16x16 networks (512/480 links).  For other
    sizes we keep the same faulty-link fraction and roughly the same
    node:link fault mix, remembering that each isolated node fault
    contributes its ``2n`` incident links to the percentage."""
    if percent == 0:
        return (0, 0)
    if network.radix == 16 and network.dims == 2:
        return PAPER_FAULT_COUNTS[percent]
    target_links = percent / 100.0 * network.num_links()
    links_per_node_fault = 2 * network.dims
    # Paper mix: ~60% of faulty links come from node faults (16 of 26).
    num_nodes = max(0, round(0.6 * target_links / links_per_node_fault))
    remaining = target_links - num_nodes * links_per_node_fault
    num_links = max(1 if num_nodes == 0 else 0, round(remaining))
    return (num_nodes, num_links)


def paper_fault_scenario(
    network: GridNetwork, percent: int, rng: random.Random
) -> FaultScenario:
    """Generate one of the paper's named fault scenarios (0, 1 or 5% of
    links faulty), scaling the fault counts for non-16x16 networks."""
    if percent not in PAPER_FAULT_COUNTS:
        raise ValueError(
            f"unknown paper scenario {percent}%; expected one of {sorted(PAPER_FAULT_COUNTS)}"
        )
    num_nodes, num_links = scaled_fault_counts(network, percent)
    if num_nodes == 0 and num_links == 0:
        return validate_fault_pattern(network, FaultSet())
    return generate_fault_pattern(network, num_nodes, num_links, rng)
