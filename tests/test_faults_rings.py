"""Unit tests for fault-ring geometry and the ring index."""

import pytest

from repro.faults import (
    FaultRingIndex,
    FaultSet,
    RingGeometryError,
    extract_fault_regions,
    rings_for_region,
    routing_planes,
)
from repro.topology import BiLink, Direction, Mesh, Torus


def region_of(network, fault_set):
    _blocked, regions = extract_fault_regions(network, fault_set)
    assert len(regions) == 1
    return regions[0]


class TestRoutingPlanes:
    def test_2d(self):
        assert routing_planes(2) == [frozenset({0, 1})]

    def test_3d(self):
        assert routing_planes(3) == [
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 2}),
        ]

    def test_4d_adjacent_pairs_only(self):
        planes = routing_planes(4)
        assert frozenset({0, 1}) in planes and frozenset({3, 0}) in planes
        assert frozenset({0, 2}) not in planes
        assert len(planes) == 4


class TestRingGeometry2D:
    def test_node_block_ring_bounds(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(3, 3), (4, 3), (3, 4), (4, 4)]))
        (ring,) = rings_for_region(t, region, 0)
        assert ring.lo == (2, 2) and ring.hi == (5, 5)
        assert ring.span_length(0) == 4

    def test_node_block_perimeter(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(3, 3), (4, 3), (3, 4), (4, 4)]))
        (ring,) = rings_for_region(t, region, 0)
        nodes = ring.perimeter_nodes()
        assert len(nodes) == 12
        assert len(ring.perimeter_links()) == 12
        assert nodes[0] == (2, 2)  # cycle starts at the low corner
        # perimeter is a cycle of unit steps
        for a, b in zip(nodes, nodes[1:] + nodes[:1]):
            assert t.distance(a, b) == 1

    def test_single_node_ring_is_eight_cycle(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(4, 4)]))
        (ring,) = rings_for_region(t, region, 0)
        assert len(ring.perimeter_nodes()) == 8

    def test_link_fault_six_ring(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, links=[((2, 5), 0, Direction.POS)]))
        (ring,) = rings_for_region(t, region, 0)
        nodes = ring.perimeter_nodes()
        assert len(nodes) == 6
        assert (2, 5) in nodes and (3, 5) in nodes  # link endpoints are ON the ring
        assert ring.lo == (2, 4) and ring.hi == (3, 6)

    def test_wrapping_ring(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(7, 2), (0, 2)]))
        (ring,) = rings_for_region(t, region, 0)
        assert ring.lo[0] == 6 and ring.hi[0] == 1
        assert ring.pos_in_span(0, 7) and ring.pos_in_span(0, 0)
        assert not ring.pos_in_span(0, 2)
        assert len(ring.perimeter_nodes()) == 2 * 4 + 2 * 3 - 4

    def test_on_ring_and_corners(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(4, 4)]))
        (ring,) = rings_for_region(t, region, 0)
        assert ring.on_ring((3, 3)) and ring.is_corner((3, 3))
        assert ring.on_ring((4, 3)) and not ring.is_corner((4, 3))
        assert not ring.on_ring((4, 4))  # the faulty node itself
        assert not ring.on_ring((6, 6))

    def test_boundary_positions(self):
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(4, 4)]))
        (ring,) = rings_for_region(t, region, 0)
        # a DIM0+ message stands on the low column, DIM0- on the high one
        assert ring.boundary_position(0, Direction.POS) == 3
        assert ring.boundary_position(0, Direction.NEG) == 5
        assert ring.far_boundary_position(0, Direction.POS) == 5


class TestRingGeometryMesh:
    def test_interior_fault_ok(self):
        m = Mesh(8, 2)
        region = region_of(m, FaultSet.of(m, nodes=[(4, 4)]))
        (ring,) = rings_for_region(m, region, 0)
        assert len(ring.perimeter_nodes()) == 8

    def test_boundary_fault_rejected(self):
        m = Mesh(8, 2)
        region = region_of(m, FaultSet.of(m, nodes=[(0, 4)]))
        with pytest.raises(RingGeometryError):
            rings_for_region(m, region, 0)


class TestRingGeometry3D:
    def test_single_node_three_rings(self):
        t = Torus(6, 3)
        region = region_of(t, FaultSet.of(t, nodes=[(2, 3, 4)]))
        rings = rings_for_region(t, region, 0)
        assert len(rings) == 3
        planes = {tuple(sorted(r.plane)) for r in rings}
        assert planes == {(0, 1), (1, 2), (0, 2)}
        for ring in rings:
            assert len(ring.perimeter_nodes()) == 8

    def test_cube_block_rings_per_cross_section(self):
        t = Torus(6, 3)
        nodes = [(x, y, z) for x in (2, 3) for y in (2, 3) for z in (2, 3)]
        region = region_of(t, FaultSet(frozenset(nodes)))
        rings = rings_for_region(t, region, 0)
        # 2 cross-sections per plane type, 3 plane types
        assert len(rings) == 6

    def test_link_region_only_planes_containing_link_dim(self):
        t = Torus(6, 3)
        region = region_of(t, FaultSet.of(t, links=[((2, 3, 4), 1, Direction.POS)]))
        rings = rings_for_region(t, region, 0)
        planes = {tuple(sorted(r.plane)) for r in rings}
        assert planes == {(0, 1), (1, 2)}

    def test_same_region_rings_share_no_links(self):
        t = Torus(6, 3)
        region = region_of(t, FaultSet.of(t, nodes=[(2, 3, 4)]))
        rings = rings_for_region(t, region, 0)
        for i in range(len(rings)):
            for j in range(i + 1, len(rings)):
                assert not (rings[i].perimeter_links() & rings[j].perimeter_links())


class TestFaultRingIndex:
    def _index(self, network, fault_set):
        blocked, regions = extract_fault_regions(network, fault_set)
        return FaultRingIndex(network, regions), blocked

    def test_locate_region_node_fault(self):
        t = Torus(8, 2)
        index, _ = self._index(t, FaultSet.of(t, nodes=[(4, 4)]))
        assert index.locate_region((3, 4), 0, Direction.POS) == 0
        assert index.locate_region((4, 3), 1, Direction.POS) == 0
        assert index.locate_region((0, 0), 0, Direction.POS) is None

    def test_locate_region_link_fault(self):
        t = Torus(8, 2)
        index, _ = self._index(t, FaultSet.of(t, links=[((2, 5), 0, Direction.POS)]))
        assert index.locate_region((2, 5), 0, Direction.POS) == 0
        assert index.locate_region((3, 5), 0, Direction.NEG) == 0
        assert index.locate_region((2, 4), 1, Direction.POS) is None

    def test_locate_region_wraparound_link(self):
        t = Torus(8, 2)
        index, _ = self._index(t, FaultSet.of(t, links=[((7, 5), 0, Direction.POS)]))
        assert index.locate_region((7, 5), 0, Direction.POS) == 0
        assert index.locate_region((0, 5), 0, Direction.NEG) == 0

    def test_ring_for(self):
        t = Torus(6, 3)
        index, _ = self._index(t, FaultSet.of(t, nodes=[(2, 3, 4)]))
        ring = index.ring_for(0, (0, 1), (1, 3, 4))
        assert tuple(sorted(ring.plane)) == (0, 1)
        with pytest.raises(RingGeometryError):
            index.ring_for(0, (0, 1), (1, 3, 5))  # wrong cross-section

    def test_overlap_detection(self):
        t = Torus(8, 2)
        # two adjacent single-node faults whose rings share links
        index, _ = self._index(t, FaultSet(frozenset({(2, 2), (3, 4)})))
        assert index.overlapping_ring_pairs()

    def test_no_overlap_when_far(self):
        t = Torus(8, 2)
        index, _ = self._index(t, FaultSet(frozenset({(1, 1), (5, 5)})))
        assert not index.overlapping_ring_pairs()

    def test_rings_healthy(self):
        t = Torus(8, 2)
        fs = FaultSet(frozenset({(2, 2)}))
        index, blocked = self._index(t, fs)
        assert index.rings_healthy(blocked)
        # a link fault lying on the ring makes it unhealthy
        bad = FaultSet.of(t, nodes=[(2, 2)], links=[((1, 1), 0, Direction.POS)])
        index2, _ = self._index(t, bad)
        assert not index2.rings_healthy(bad)


class TestRingValueSemantics:
    """Regression: ``FaultRing`` is a frozen dataclass but used to carry
    its bounds as dicts, so ``hash(ring)`` raised ``TypeError`` and the
    "frozen" bounds could be edited in place."""

    @staticmethod
    def single_node_ring():
        t = Torus(8, 2)
        region = region_of(t, FaultSet.of(t, nodes=[(4, 4)]))
        (ring,) = rings_for_region(t, region, 0)
        return ring

    def test_equal_geometry_rings_are_equal_and_hash_equal(self):
        a, b = self.single_node_ring(), self.single_node_ring()
        assert a is not b and a == b
        assert hash(a) == hash(b)
        assert {a: "ring"}[b] == "ring"
        assert len({a, b}) == 1

    def test_bounds_are_immutable_and_indexed_by_dimension(self):
        ring = self.single_node_ring()
        assert (ring.lo[0], ring.hi[0], ring.lo[1], ring.hi[1]) == (3, 5, 3, 5)
        with pytest.raises(TypeError):
            ring.lo[0] = 0

    def test_bounds_outside_the_plane_are_none(self):
        t = Torus(6, 3)
        region = region_of(t, FaultSet.of(t, nodes=[(2, 2, 2)]))
        for ring in rings_for_region(t, region, 0):
            for dim in range(3):
                assert (ring.lo[dim] is None) == (dim not in ring.plane)
                assert (ring.fixed[dim] is None) == (dim in ring.plane)
            hash(ring)


class TestRingOwnership:
    """The index's node/link ownership maps are the one source of ring
    membership: they must agree with every ring's own perimeter."""

    def test_maps_match_perimeters(self):
        t = Torus(12, 2)
        fs = FaultSet.of(t, nodes=[(4, 4), (5, 6), (9, 9)], links=[((0, 0), 1, Direction.POS)])
        _blocked, regions = extract_fault_regions(t, fs)
        index = FaultRingIndex(t, regions)
        for slot, ring in enumerate(index.rings):
            for node in ring.perimeter_nodes():
                assert slot in index.node_owners[node]
            for link in ring.perimeter_links():
                assert slot in index.link_owners[link]
        assert sum(map(len, index.node_owners.values())) == sum(
            len(ring.perimeter_nodes()) for ring in index.rings
        )
        assert sum(map(len, index.link_owners.values())) == sum(
            len(ring.perimeter_links()) for ring in index.rings
        )

    def test_overlap_pairs_equal_pairwise_intersection(self):
        """The map-derived pairs are exactly what intersecting every pair
        of link sets yields, in the same (ring order) sequence."""
        import random

        from repro.faults import NetworkDisconnectedError, NonConvexFaultError

        t = Torus(12, 2)
        rng = random.Random(5)
        nodes = list(t.nodes())
        seen_overlap = False
        for _ in range(300):
            fs = FaultSet(frozenset(rng.sample(nodes, 4)))
            try:
                _blocked, regions = extract_fault_regions(t, fs)
                index = FaultRingIndex(t, regions)
            except (NonConvexFaultError, NetworkDisconnectedError, RingGeometryError):
                continue
            brute = [
                (a, b)
                for i, a in enumerate(index.rings)
                for b in index.rings[i + 1 :]
                if a.region_index != b.region_index
                and a.perimeter_links() & b.perimeter_links()
            ]
            assert index.overlapping_ring_pairs() == brute
            seen_overlap |= bool(brute)
        assert seen_overlap

    def test_faults_on_rings_order(self):
        """Ring by ring, nodes before links — the order the degrade
        pipeline picks its first offender in."""
        t = Torus(10, 2)
        # (5, 4) sits on the ring of (4, 4) and vice versa
        fs = FaultSet.of(t, nodes=[(4, 4), (5, 4)])
        regions = [region_of(t, FaultSet.of(t, nodes=[n])) for n in [(4, 4), (5, 4)]]
        index = FaultRingIndex(t, regions)
        hits = index.faults_on_rings(fs)
        assert not index.rings_healthy(fs)
        assert [ring.region_index for ring, _item in hits] == sorted(
            ring.region_index for ring, _item in hits
        )
        first_ring = hits[0][0]
        kinds = [isinstance(item, BiLink) for ring, item in hits if ring is first_ring]
        assert kinds == sorted(kinds)  # nodes (False) before links (True)
        assert hits[0][1] == (5, 4)
