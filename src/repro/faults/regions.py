"""Block (convex) fault regions.

Section 3 of the paper: the faulty nodes must partition into disjoint
subsets, each forming an n-D box.  Arbitrary fault patterns are *blocked*
by a local rule — "if a node has more than one neighbor faulty, it marks
itself faulty" — which converges within a number of steps bounded by the
network diameter.

We represent each fault region in **doubled coordinates** so that node
blocks and single-link faults share one representation:

* a node at position ``p`` occupies doubled position ``2p``;
* the link between positions ``p`` and ``p+1`` occupies ``2p+1``.

A region is then an axis-aligned box of doubled intervals, one per
dimension.  A node block spanning node positions ``a..b`` in some dimension
has the doubled interval ``[2a, 2b]``; a faulty link in dimension ``d``
between positions ``x`` and ``x+1`` has the degenerate interval
``[2x+1, 2x+1]`` in ``d`` and ``[2p, 2p]`` in every other dimension.  The
enclosing fault ring (see :mod:`repro.faults.fault_rings`) falls out of the
same arithmetic for both cases.

Torus intervals may wrap around the dateline; they are stored as a start
plus a length in the doubled ring of size ``2k``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..topology import BiLink, Coord, GridNetwork
from .fault_model import FaultSet


class NonConvexFaultError(ValueError):
    """Raised when a fault pattern does not satisfy the block-fault model
    even after applying the blocking rule."""


class NetworkDisconnectedError(ValueError):
    """Raised when a fault pattern disconnects the healthy nodes or spans a
    full ring of the torus."""


# ----------------------------------------------------------------------
# interval arithmetic in the doubled coordinate ring
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DoubledInterval:
    """A contiguous interval on the doubled ring of size ``size``.

    ``start`` is the first doubled position, ``length`` the number of
    doubled positions covered.  ``size == 0`` denotes a non-wrapping (mesh)
    axis, in which case values are plain integers.
    """

    start: int
    length: int
    size: int  # 2k for torus axes, 0 for mesh axes

    @property
    def wraps(self) -> bool:
        return self.size > 0 and self.start + self.length > self.size

    @property
    def end(self) -> int:
        """Last doubled position covered (mod ``size`` on torus axes)."""
        last = self.start + self.length - 1
        return last % self.size if self.size else last

    def contains(self, value: int) -> bool:
        if self.size:
            return (value - self.start) % self.size < self.length
        return self.start <= value < self.start + self.length

    def expanded(self, amount: int) -> "DoubledInterval":
        """Interval grown by ``amount`` doubled positions on each side."""
        new_length = self.length + 2 * amount
        if self.size and new_length >= self.size:
            raise NetworkDisconnectedError(
                "fault region (plus its ring) spans an entire torus ring"
            )
        new_start = self.start - amount
        if self.size:
            new_start %= self.size
        return DoubledInterval(new_start, new_length, self.size)

    def node_positions(self) -> List[int]:
        """Node (even doubled) positions covered, as node coordinates."""
        positions = []
        for offset in range(self.length):
            doubled = self.start + offset
            if self.size:
                doubled %= self.size
            if doubled % 2 == 0:
                positions.append(doubled // 2)
        return positions


def _interval_from_positions(positions: Set[int], radix: int, wraparound: bool) -> DoubledInterval:
    """Smallest doubled interval covering a set of *node* positions on one
    axis.  On a torus the minimal covering arc is chosen (complement of the
    largest gap)."""
    if not positions:
        raise ValueError("empty position set")
    ordered = sorted(positions)
    if not wraparound:
        return DoubledInterval(2 * ordered[0], 2 * (ordered[-1] - ordered[0]) + 1, 0)
    if len(ordered) == radix:
        raise NetworkDisconnectedError("faulty nodes span an entire torus ring")
    # Find the largest circular gap between consecutive occupied positions;
    # the covering arc starts just after it.
    best_gap, best_index = -1, 0
    for index, position in enumerate(ordered):
        nxt = ordered[(index + 1) % len(ordered)]
        gap = (nxt - position) % radix
        if gap > best_gap:
            best_gap, best_index = gap, index
    start = ordered[(best_index + 1) % len(ordered)]
    span_nodes = (ordered[best_index] - start) % radix + 1
    return DoubledInterval(2 * start, 2 * (span_nodes - 1) + 1, 2 * radix)


# ----------------------------------------------------------------------
# fault regions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultRegion:
    """One convex fault region: an axis-aligned box in doubled coordinates.

    Either a block of faulty nodes (all intervals start/end on even doubled
    positions) or a single faulty link (a degenerate odd interval in the
    link's dimension).
    """

    intervals: Tuple[DoubledInterval, ...]

    @property
    def dims(self) -> int:
        return len(self.intervals)

    def contains_node(self, coord: Coord) -> bool:
        return all(self.intervals[d].contains(2 * coord[d]) for d in range(self.dims))

    def contains_doubled(self, doubled: Sequence[int]) -> bool:
        return all(self.intervals[d].contains(doubled[d]) for d in range(self.dims))

    def is_link_region(self) -> bool:
        """True if this region is a single faulty link (no faulty nodes)."""
        return any(interval.start % 2 == 1 and interval.length == 1 for interval in self.intervals)

    def node_extent(self, dim: int) -> List[int]:
        """Node positions the region covers in ``dim`` (empty in the link
        dimension of a link region)."""
        return self.intervals[dim].node_positions()

    def faulty_nodes(self, network: GridNetwork) -> List[Coord]:
        """All node coordinates inside the region (empty for link regions)."""
        return list(product(*(self.node_extent(d) for d in range(self.dims))))


def node_fault_region(network: GridNetwork, nodes: Iterable[Coord]) -> FaultRegion:
    """Region covering a set of faulty nodes, which must fill an n-D box."""
    node_list = [tuple(c) for c in nodes]
    if not node_list:
        raise ValueError("node_fault_region needs at least one node")
    intervals = []
    for dim in range(network.dims):
        positions = {coord[dim] for coord in node_list}
        intervals.append(_interval_from_positions(positions, network.radix, network.wraparound))
    region = FaultRegion(tuple(intervals))
    expected = 1
    for dim in range(network.dims):
        expected *= len(region.node_extent(dim))
    if expected != len(set(node_list)):
        raise NonConvexFaultError(
            f"faulty node set of size {len(set(node_list))} does not fill its "
            f"{expected}-node bounding box"
        )
    return region


def link_fault_region(network: GridNetwork, link: BiLink) -> FaultRegion:
    """Region for a single faulty link."""
    size = 2 * network.radix if network.wraparound else 0
    intervals = []
    for dim in range(network.dims):
        if dim == link.dim:
            low = min(link.u[dim], link.v[dim])
            high = max(link.u[dim], link.v[dim])
            if network.wraparound and high - low != 1:
                # wraparound link between k-1 and 0
                doubled = 2 * (network.radix - 1) + 1
            else:
                doubled = 2 * low + 1
            intervals.append(DoubledInterval(doubled, 1, size))
        else:
            intervals.append(DoubledInterval(2 * link.u[dim], 1, size))
    return FaultRegion(tuple(intervals))


# ----------------------------------------------------------------------
# the blocking rule
# ----------------------------------------------------------------------
def block_faults(
    network: GridNetwork, node_faults: FrozenSet[Coord]
) -> Tuple[List[Set[Coord]], FrozenSet[Coord]]:
    """The paper's local blocking rule, run to fixpoint: ``(waves,
    blocked)``.

    "A fault-free node may have at most one faulty neighbor.  Using this
    rule, any fault pattern can be blocked: if a node has more than one
    neighbor faulty, it marks itself faulty."  Wave 0 is the seed fault
    set; wave ``i >= 1`` holds the nodes that condemn themselves on sweep
    ``i`` (they see more than one faulty neighbor among the union of
    earlier waves); ``blocked`` is the union of all waves.  The number of
    condemning waves is bounded by the network diameter, which is what
    the distributed detection protocol's announcement schedule relies on.
    """
    adjacent = network.adjacent
    faulty: Set[Coord] = set(node_faults)
    waves: List[Set[Coord]] = [set(node_faults)]
    frontier = set(faulty)
    while frontier:
        candidates: Set[Coord] = set()
        for coord in frontier:
            for _dim, _direction, other in adjacent(coord):
                if other not in faulty:
                    candidates.add(other)
        newly = set()
        for coord in candidates:
            faulty_neighbors = sum(
                1 for _d, _dir, other in adjacent(coord) if other in faulty
            )
            if faulty_neighbors > 1:
                newly.add(coord)
        if newly:
            waves.append(newly)
        faulty |= newly
        frontier = newly
    return waves, frozenset(faulty)


def apply_block_fault_rule(network: GridNetwork, node_faults: FrozenSet[Coord]) -> FrozenSet[Coord]:
    """The blocked node set of :func:`block_faults`."""
    return block_faults(network, node_faults)[1]


def blocking_waves(network: GridNetwork, node_faults: FrozenSet[Coord]) -> List[Set[Coord]]:
    """The sweeps of :func:`block_faults`."""
    return block_faults(network, node_faults)[0]


def _node_components(network: GridNetwork, nodes: FrozenSet[Coord]) -> List[Set[Coord]]:
    """Connected components of a node set under grid adjacency."""
    remaining = set(nodes)
    components = []
    while remaining:
        seed = remaining.pop()
        component = {seed}
        stack = [seed]
        while stack:
            coord = stack.pop()
            for _dim, _direction, other in network.adjacent(coord):
                if other in remaining:
                    remaining.discard(other)
                    component.add(other)
                    stack.append(other)
        components.append(component)
    return components


def extract_fault_regions(
    network: GridNetwork,
    faults: FaultSet,
    *,
    block: bool = True,
    blocked: Optional[FrozenSet[Coord]] = None,
) -> Tuple[FaultSet, List[FaultRegion]]:
    """Decompose a fault set into convex fault regions.

    If ``block`` is true the blocking rule is applied first, so the
    returned :class:`FaultSet` may contain more faulty nodes than the
    input (nodes sacrificed to convexity, as in the paper); a caller that
    already ran :func:`block_faults` on ``faults`` passes its ``blocked``
    set instead of having the fixpoint recomputed.  Explicitly
    faulty links that are incident on a faulty node are absorbed into that
    node's region; every other faulty link becomes its own degenerate
    region.

    Raises :class:`NonConvexFaultError` if a component is not a filled box
    even after blocking.
    """
    node_faults = faults.node_faults
    if blocked is not None:
        node_faults = blocked
    elif block:
        node_faults = apply_block_fault_rule(network, node_faults)

    regions: List[FaultRegion] = []
    for component in _node_components(network, node_faults):
        regions.append(node_fault_region(network, component))

    for link in faults.link_faults:
        if link.u in node_faults or link.v in node_faults:
            continue  # absorbed into a node region
        regions.append(link_fault_region(network, link))
    return FaultSet(node_faults, faults.link_faults), regions


def healthy_network_connected(network: GridNetwork, faults: FaultSet) -> bool:
    """Check that the healthy nodes form one connected component using only
    healthy links (Section 3 requires faults not to disconnect the
    network)."""
    faulty_links = faults.all_faulty_links(network)
    start = next((c for c in network.nodes() if c not in faults.node_faults), None)
    if start is None:
        return False
    # only hops out of an endpoint of a faulty link can be cut; every
    # link of a faulty node is faulty, so the search never enters one
    guarded = {end for link in faulty_links for end in link.endpoints}
    seen = {start}
    stack = [start]
    while stack:
        coord = stack.pop()
        hops = network.adjacent(coord)
        if coord in guarded:
            links = network.incident_links(coord)
            hops = [hop for hop, link in zip(hops, links) if link not in faulty_links]
        for _dim, _direction, other in hops:
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return len(seen) == network.num_nodes - len(faults.node_faults)
