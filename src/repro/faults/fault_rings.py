"""Fault rings (f-rings).

Section 3: each block fault is enclosed by rings of healthy nodes and
links, one ring per 2D cross-section of the fault.  A message blocked by
the fault is misrouted along the ring lying in the message's current 2D
routing plane.

A ring is the perimeter of an axis-aligned rectangle of nodes in a 2D
plane of the network.  We derive it from the fault region's doubled
intervals: expanding the region's interval by one node (two doubled
positions) on each side in both plane dimensions gives the ring rectangle.
This produces the correct ring both for node blocks (a ``(w+2) x (h+2)``
perimeter) and for single-link faults (the six-node ring around the link).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..topology import BiLink, Coord, Direction, GridNetwork, ring_span
from .fault_model import FaultSet
from .regions import FaultRegion, NetworkDisconnectedError


class RingGeometryError(ValueError):
    """Raised when a fault ring cannot be formed (mesh boundary fault, or a
    ring that would wrap onto itself in a small torus)."""


@dataclass(frozen=True)
class FaultRing:
    """The f-ring of one 2D cross-section of a fault region.

    ``plane`` is the unordered pair of dimensions the ring lies in;
    ``fixed`` gives the coordinate of the ring in every other dimension
    (``None`` in the plane dimensions).  ``lo``/``hi`` give the node
    bounds of the ring rectangle, indexed by dimension (``None`` outside
    the plane); on a torus ``hi < lo`` encodes a rectangle wrapping the
    dateline.  Every field is immutable, so rings of equal geometry are
    equal, hash equal and can key a dict.
    """

    region_index: int
    plane: FrozenSet[int]
    fixed: Tuple[Optional[int], ...]
    lo: Tuple[Optional[int], ...]
    hi: Tuple[Optional[int], ...]
    radix: int
    wraparound: bool

    # ------------------------------------------------------------------
    # geometry queries
    # ------------------------------------------------------------------
    def span_length(self, dim: int) -> int:
        """Number of node positions the ring rectangle spans in ``dim``."""
        if self.wraparound:
            return (self.hi[dim] - self.lo[dim]) % self.radix + 1
        return self.hi[dim] - self.lo[dim] + 1

    def pos_in_span(self, dim: int, position: int) -> bool:
        """Whether ``position`` lies within the ring rectangle in ``dim``."""
        if self.wraparound:
            return (position - self.lo[dim]) % self.radix < self.span_length(dim)
        return self.lo[dim] <= position <= self.hi[dim]

    def pos_on_boundary(self, dim: int, position: int) -> bool:
        return position == self.lo[dim] or position == self.hi[dim]

    def matches_fixed(self, coord: Coord) -> bool:
        return all(
            want is None or coord[dim] == want for dim, want in enumerate(self.fixed)
        )

    def on_ring(self, coord: Coord) -> bool:
        """True if ``coord`` is one of the ring's perimeter nodes."""
        if not self.matches_fixed(coord):
            return False
        dims = sorted(self.plane)
        if not all(self.pos_in_span(d, coord[d]) for d in dims):
            return False
        return any(self.pos_on_boundary(d, coord[d]) for d in dims)

    def is_corner(self, coord: Coord) -> bool:
        if not self.matches_fixed(coord):
            return False
        return all(self.pos_on_boundary(d, coord[d]) for d in sorted(self.plane))

    def boundary_position(self, dim: int, direction: Direction) -> int:
        """Ring boundary a message blocked while traveling ``direction``
        along ``dim`` stands on: the low side for POS travel (the fault is
        ahead of it), the high side for NEG travel."""
        return self.lo[dim] if direction is Direction.POS else self.hi[dim]

    def far_boundary_position(self, dim: int, direction: Direction) -> int:
        """Ring boundary on the other side of the fault from
        :meth:`boundary_position`."""
        return self.hi[dim] if direction is Direction.POS else self.lo[dim]

    # ------------------------------------------------------------------
    # perimeter enumeration (ring membership, tests, visualization)
    # ------------------------------------------------------------------
    def perimeter(self) -> Tuple[Tuple[Coord, ...], Tuple[BiLink, ...]]:
        """Perimeter ``(nodes, links)``: the nodes in cycle order, starting
        at the (lo, lo) corner and moving in the positive direction of the
        lower plane dimension; the links in the iteration order of the set
        they are collected into, which is the order the degrade pipeline
        has always examined them in — the first offending link decides
        which regions merge."""
        fixed, lo, hi, radix = self.fixed, self.lo, self.hi, self.radix
        dim_a, dim_b = sorted(self.plane)
        if self.wraparound:
            pos_a = list(ring_span(lo[dim_a], hi[dim_a], radix))
            pos_b = list(ring_span(lo[dim_b], hi[dim_b], radix))
        else:
            pos_a = list(range(lo[dim_a], hi[dim_a] + 1))
            pos_b = list(range(lo[dim_b], hi[dim_b] + 1))

        def make(a_val: int, b_val: int) -> Coord:
            coord = list(fixed)
            coord[dim_a] = a_val
            coord[dim_b] = b_val
            return tuple(coord)  # type: ignore[arg-type]

        nodes: List[Coord] = []
        nodes.extend(make(a, pos_b[0]) for a in pos_a)  # low-b edge, a increasing
        nodes.extend(make(pos_a[-1], b) for b in pos_b[1:])  # high-a edge
        nodes.extend(make(a, pos_b[-1]) for a in reversed(pos_a[:-1]))  # high-b edge
        nodes.extend(make(pos_a[0], b) for b in reversed(pos_b[1:-1]))  # low-a edge
        links = set()
        for index, node in enumerate(nodes):
            nxt = nodes[(index + 1) % len(nodes)]
            dim = dim_a if node[dim_a] != nxt[dim_a] else dim_b
            links.add(BiLink.between(node, nxt, dim, radix))
        return tuple(nodes), tuple(links)

    def perimeter_nodes(self) -> Tuple[Coord, ...]:
        return self.perimeter()[0]

    def perimeter_links(self) -> FrozenSet[BiLink]:
        return frozenset(self.perimeter()[1])


# ----------------------------------------------------------------------
# ring construction
# ----------------------------------------------------------------------
def routing_planes(dims: int) -> List[FrozenSet[int]]:
    """The plane types used by the routing algorithm: ``A_{i, i+1 mod n}``
    for each dimension ``i`` (Section 5.2).  For 2D this is the single
    plane {0, 1}; for 3D all three pairs; for higher n, n adjacent pairs."""
    planes = []
    for dim in range(dims):
        pair = frozenset({dim, (dim + 1) % dims})
        if pair not in planes and len(pair) == 2:
            planes.append(pair)
    return planes


def _ring_bounds(region: FaultRegion, dim: int, radix: int, wraparound: bool) -> Tuple[int, int]:
    """Node bounds of the ring rectangle in a plane dimension."""
    expanded = region.intervals[dim].expanded(2)
    nodes = expanded.node_positions()
    if not nodes:
        raise RingGeometryError("expanded region interval contains no nodes")
    if wraparound:
        if len(nodes) >= radix:
            raise NetworkDisconnectedError("fault ring wraps onto itself")
        return nodes[0], nodes[-1]
    lo, hi = nodes[0], nodes[-1]
    if lo < 0 or hi >= radix:
        raise RingGeometryError(
            "fault touches the mesh boundary; boundary faults require the "
            "special handling of Boppana & Chalasani [3, 4], which this "
            "library does not implement (the fault generator avoids them)"
        )
    return lo, hi


#: fault regions whose ring geometry is kept (least recently used
#: beyond that are dropped, 2-3 KB each): every pass of the degrade
#: pipeline re-derives the rings of the regions it kept, and random
#: draws keep meeting the same single-node and single-link regions
RING_MEMO = 512

#: a ring of a region together with its perimeter nodes and links
RingShape = Tuple[FaultRing, Tuple[Coord, ...], Tuple[BiLink, ...]]


@lru_cache(maxsize=RING_MEMO)
def _ring_shapes(
    region: FaultRegion, radix: int, dims: int, wraparound: bool
) -> Tuple[RingShape, ...]:
    """Every f-ring of ``region`` in a network of the given shape, as if
    the region had index 0, with its perimeter: one ring per 2D
    cross-section per routing plane type that intersects the region.  A
    pure function of its arguments, hence memoised across passes and
    patterns (failures are not cached, they re-raise)."""
    if dims == 1:
        raise RingGeometryError("fault rings require at least 2 dimensions")
    shapes: List[RingShape] = []
    for plane in routing_planes(dims):
        # Cross-sections: every combination of node positions of the region
        # in the non-plane dimensions.  A link region whose link dimension
        # is not in this plane has no position there, hence none here.
        axes = [[None] if dim in plane else region.node_extent(dim) for dim in range(dims)]
        if not all(axes):
            continue
        lo: List[Optional[int]] = [None] * dims
        hi: List[Optional[int]] = [None] * dims
        for dim in sorted(plane):
            lo[dim], hi[dim] = _ring_bounds(region, dim, radix, wraparound)
        for fixed in product(*axes):
            ring = FaultRing(0, plane, fixed, tuple(lo), tuple(hi), radix, wraparound)
            shapes.append((ring, *ring.perimeter()))
    return tuple(shapes)


def _indexed(ring: FaultRing, region_index: int) -> FaultRing:
    return FaultRing(
        region_index, ring.plane, ring.fixed, ring.lo, ring.hi, ring.radix, ring.wraparound
    )


def rings_for_region(
    network: GridNetwork, region: FaultRegion, region_index: int
) -> List[FaultRing]:
    """All f-rings of one region (see :func:`_ring_shapes`)."""
    shapes = _ring_shapes(region, network.radix, network.dims, network.wraparound)
    return [_indexed(ring, region_index) for ring, _nodes, _links in shapes]


class FaultRingIndex:
    """All fault regions and f-rings of a faulty network, with the lookup
    operations the routing logic needs.

    In a real machine this structure is materialized distributively (each
    ring node learns only its own ring neighbors via the two-step protocol
    of Section 3); here it is computed centrally, but routing decisions
    only ever query the ring local to the blocking fault.
    """

    def __init__(self, network: GridNetwork, regions: Sequence[FaultRegion]):
        self.network = network
        self.regions = list(regions)
        self.rings: List[FaultRing] = []
        self._by_key: Dict[Tuple[int, FrozenSet[int], Tuple[Optional[int], ...]], FaultRing] = {}
        #: ring membership: positions in :attr:`rings` of every ring a
        #: node / link lies on, ascending.  Ring health, conflicts and
        #: overlaps are all reads of these two maps.
        self.node_owners: Dict[Coord, List[int]] = {}
        self.link_owners: Dict[BiLink, List[int]] = {}
        self._perimeters: List[Tuple[Tuple[Coord, ...], Tuple[BiLink, ...]]] = []
        for index, region in enumerate(self.regions):
            for shape, nodes, links in _ring_shapes(
                region, network.radix, network.dims, network.wraparound
            ):
                ring = _indexed(shape, index)
                slot = len(self.rings)
                self.rings.append(ring)
                self._perimeters.append((nodes, links))
                self._by_key[(index, ring.plane, ring.fixed)] = ring
                for node in nodes:
                    self.node_owners.setdefault(node, []).append(slot)
                for link in links:
                    self.link_owners.setdefault(link, []).append(slot)

    # ------------------------------------------------------------------
    def locate_region(self, coord: Coord, dim: int, direction: Direction) -> Optional[int]:
        """Index of the region responsible for blocking the hop from
        ``coord`` along ``dim``/``direction``, or ``None`` (e.g. the hop is
        blocked by the mesh boundary rather than a fault)."""
        hop = self.network.hop(coord, dim, direction)
        if hop is None:
            return None
        target = hop[0]
        # doubled coordinates of the link midpoint
        doubled = [2 * coord[d] for d in range(self.network.dims)]
        if direction is Direction.POS:
            doubled[dim] = (2 * coord[dim] + 1) % (2 * self.network.radix) if self.network.wraparound else 2 * coord[dim] + 1
        else:
            doubled[dim] = (2 * coord[dim] - 1) % (2 * self.network.radix) if self.network.wraparound else 2 * coord[dim] - 1
        for index, region in enumerate(self.regions):
            if region.contains_node(target) or region.contains_doubled(doubled):
                return index
        return None

    def ring_for(self, region_index: int, plane: Iterable[int], coord: Coord) -> FaultRing:
        """The f-ring of ``region_index`` in ``plane`` whose cross-section
        passes through ``coord`` (i.e. matches ``coord`` in the fixed
        dimensions)."""
        plane_set = frozenset(plane)
        fixed = tuple(
            None if dim in plane_set else coord[dim] for dim in range(self.network.dims)
        )
        try:
            return self._by_key[(region_index, plane_set, fixed)]
        except KeyError:
            raise RingGeometryError(
                f"no f-ring of region {region_index} in plane {sorted(plane_set)} "
                f"through {coord}"
            ) from None

    # ------------------------------------------------------------------
    def overlapping_ring_pairs(self) -> List[Tuple[FaultRing, FaultRing]]:
        """Pairs of rings of different regions sharing at least one link
        (the paper's definition of overlap; overlapping rings need the
        extended scheme of reference [8] and are rejected by the
        generator), in ring order.  Rings of one region never share
        links: same-plane rings differ in a fixed coordinate, and
        cross-plane rings place their shared-dimension links at different
        offsets (boundary vs interior of the region extent)."""
        rings = self.rings
        slots = {
            (first, second)
            for owners in self.link_owners.values()
            for first, second in combinations(owners, 2)
            if rings[first].region_index != rings[second].region_index
        }
        return [(rings[first], rings[second]) for first, second in sorted(slots)]

    def faults_on_rings(self, faults: FaultSet) -> List[Tuple[FaultRing, Union[Coord, BiLink]]]:
        """Every faulty node and link lying on a ring, as ``(ring,
        item)``: ring by ring, a ring's nodes before its links, each in
        perimeter order."""
        hits = []
        for node in faults.node_faults:
            for slot in self.node_owners.get(node, ()):
                hits.append((slot, 0, self._perimeters[slot][0].index(node), node))
        for link in faults.all_faulty_links(self.network):
            for slot in self.link_owners.get(link, ()):
                hits.append((slot, 1, self._perimeters[slot][1].index(link), link))
        hits.sort(key=lambda hit: hit[:3])
        return [(self.rings[slot], item) for slot, _kind, _position, item in hits]

    def rings_healthy(self, faults: FaultSet) -> bool:
        """Every ring node and link must be healthy for the routing
        algorithm's guarantees to hold."""
        return not self.faults_on_rings(faults)
