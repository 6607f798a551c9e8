"""Unit tests for the torus/mesh network structure."""

import pytest

from repro.topology import BiLink, Direction, Mesh, Torus, make_network


class TestConstruction:
    def test_num_nodes(self):
        assert Torus(4, 2).num_nodes == 16
        assert Mesh(4, 3).num_nodes == 64

    def test_invalid_radix(self):
        with pytest.raises(ValueError):
            Torus(1, 2)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            Mesh(4, 0)

    def test_factory(self):
        assert isinstance(make_network("torus", 4, 2), Torus)
        assert isinstance(make_network("MESH", 4, 2), Mesh)
        with pytest.raises(ValueError):
            make_network("hypercube", 4, 2)


class TestNeighbors:
    def test_torus_every_node_has_2n_neighbors(self):
        t = Torus(4, 2)
        for coord in t.nodes():
            assert len(list(t.neighbors(coord))) == 4

    def test_mesh_corner_has_n_neighbors(self):
        m = Mesh(4, 2)
        assert len(list(m.neighbors((0, 0)))) == 2
        assert len(list(m.neighbors((3, 3)))) == 2

    def test_mesh_edge_and_interior(self):
        m = Mesh(4, 2)
        assert len(list(m.neighbors((1, 0)))) == 3
        assert len(list(m.neighbors((1, 1)))) == 4

    def test_torus_wraparound_neighbor(self):
        t = Torus(4, 2)
        assert t.neighbor((3, 1), 0, Direction.POS) == (0, 1)
        assert t.neighbor((1, 0), 1, Direction.NEG) == (1, 3)

    def test_mesh_boundary_neighbor_is_none(self):
        m = Mesh(4, 2)
        assert m.neighbor((3, 1), 0, Direction.POS) is None
        assert m.neighbor((1, 0), 1, Direction.NEG) is None

    def test_bad_dim_raises(self):
        with pytest.raises(ValueError):
            Torus(4, 2).neighbor((0, 0), 2, Direction.POS)


class TestLinks:
    def test_torus_link_count(self):
        t = Torus(8, 2)
        links = list(t.links())
        assert len(links) == t.num_links() == 2 * 8 * 8

    def test_mesh_link_count(self):
        m = Mesh(8, 2)
        assert len(list(m.links())) == m.num_links() == 2 * 7 * 8

    def test_3d_counts(self):
        assert Torus(4, 3).num_links() == 3 * 4 * 16
        assert Mesh(4, 3).num_links() == 3 * 3 * 16

    def test_links_reported_once(self):
        t = Torus(4, 2)
        links = list(t.links())
        assert len(links) == len(set(links))

    def test_bilink_normalized(self):
        link = BiLink.between((3, 0), (0, 0), 0, 4)
        assert link.u == (0, 0) and link.v == (3, 0)
        assert BiLink.between((0, 0), (3, 0), 0, 4) == link


class TestWraparound:
    def test_torus_wraparound_hops(self):
        t = Torus(4, 2)
        assert t.is_wraparound_hop((3, 0), 0, Direction.POS)
        assert t.is_wraparound_hop((0, 2), 0, Direction.NEG)
        assert not t.is_wraparound_hop((1, 0), 0, Direction.POS)

    def test_mesh_never_wraps(self):
        m = Mesh(4, 2)
        assert not m.is_wraparound_hop((3, 0), 0, Direction.POS)


class TestRoutingQueries:
    def test_minimal_direction_torus(self):
        t = Torus(8, 2)
        assert t.minimal_direction(0, 2) is Direction.POS
        assert t.minimal_direction(0, 6) is Direction.NEG
        assert t.minimal_direction(0, 4) is Direction.POS  # tie -> POS
        assert t.minimal_direction(3, 3) is None

    def test_minimal_direction_mesh(self):
        m = Mesh(8, 2)
        assert m.minimal_direction(0, 7) is Direction.POS
        assert m.minimal_direction(7, 0) is Direction.NEG

    def test_distance_torus(self):
        t = Torus(8, 2)
        assert t.distance((0, 0), (7, 7)) == 2  # wrap both dims
        assert t.distance((0, 0), (4, 4)) == 8

    def test_distance_mesh(self):
        m = Mesh(8, 2)
        assert m.distance((0, 0), (7, 7)) == 14

    def test_crosses_dateline(self):
        t = Torus(8, 2)
        assert t.crosses_dateline(6, 1, Direction.POS)  # 6->7->0->1
        assert not t.crosses_dateline(1, 6, Direction.POS)
        assert t.crosses_dateline(1, 6, Direction.NEG)  # 1->0->7->6
        assert not t.crosses_dateline(6, 1, Direction.NEG)

    def test_mesh_never_crosses_dateline(self):
        m = Mesh(8, 2)
        assert not m.crosses_dateline(0, 7, Direction.POS)


def _arithmetic_hops(network, coord):
    """The adjacency the tables must reproduce, straight from
    ``neighbor()``: dimension by dimension, POS before NEG."""
    return tuple(
        (dim, direction, network.neighbor(coord, dim, direction))
        for dim in range(network.dims)
        for direction in (Direction.POS, Direction.NEG)
        if network.neighbor(coord, dim, direction) is not None
    )


class TestAdjacencyTables:
    """The tables are derived from ``neighbor()`` and must equal it hop
    for hop, in order — radix-2 tori (POS and NEG reach the same node)
    and mesh boundaries included."""

    @pytest.mark.parametrize("kind", ["torus", "mesh"])
    @pytest.mark.parametrize("radix", [2, 3, 4, 8])
    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_tables_equal_arithmetic(self, kind, radix, dims):
        network = make_network(kind, radix, dims)
        for coord in network.nodes():
            hops = _arithmetic_hops(network, coord)
            assert network.adjacent(coord) == hops
            assert tuple(network.neighbors(coord)) == hops
            links = network.incident_links(coord)
            assert links == tuple(
                BiLink.between(coord, other, dim, radix) for dim, _direction, other in hops
            )
            for dim in range(dims):
                for direction in (Direction.POS, Direction.NEG):
                    other = network.neighbor(coord, dim, direction)
                    hop = network.hop(coord, dim, direction)
                    if other is None:
                        assert hop is None
                    else:
                        assert hop == (other, BiLink.between(coord, other, dim, radix))
                        assert hop[1] is links[hops.index((dim, direction, other))]

    @pytest.mark.parametrize("network", [Torus(2, 2), Torus(4, 2), Mesh(3, 3)])
    def test_links_are_interned(self, network):
        """One object per link, whichever end or direction asks."""
        by_value = {}
        for coord in network.nodes():
            for link in network.incident_links(coord):
                assert by_value.setdefault(link, link) is link
        assert set(by_value) == set(network.links())

    def test_hop_validates_dimension(self):
        t = Torus(4, 2)
        with pytest.raises(ValueError):
            t.hop((0, 0), 2, Direction.POS)
        t.adjacent((0, 0))
        with pytest.raises(ValueError):  # also once the node is tabulated
            t.hop((0, 0), -1, Direction.POS)

    def test_tables_fill_lazily(self):
        t = Torus(16, 2)
        assert not t._adjacent and not t._incident
        t.adjacent((3, 3))
        assert list(t._adjacent) == [(3, 3)]

    def test_pickle_carries_no_tables(self):
        import pickle

        t = Torus(8, 2)
        bare = pickle.dumps(t)
        list(t.links())
        assert pickle.dumps(t) == bare
        restored = pickle.loads(bare)
        assert type(restored) is Torus and (restored.radix, restored.dims) == (8, 2)
        assert not restored._adjacent
        assert restored.adjacent((7, 0)) == t.adjacent((7, 0))
        assert list(restored.links()) == list(t.links())
        m = pickle.loads(pickle.dumps(Mesh(4, 3)))
        assert type(m) is Mesh and m.hop((3, 0, 0), 0, Direction.POS) is None


def _sha(items):
    import hashlib

    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class TestIterationOrderPinned:
    """``PatternSampler`` and ``generate_fault_pattern`` sample from
    ``list(nodes())`` / ``list(links())``: every seeded fault pattern —
    hence every digest in the repo — depends on this exact order."""

    def test_torus16(self):
        t = Torus(16, 2)
        nodes, links = list(t.nodes()), list(t.links())
        assert nodes[:3] == [(0, 0), (1, 0), (2, 0)] and nodes[-2:] == [(14, 15), (15, 15)]
        assert links[:3] == [
            BiLink((0, 0), (1, 0), 0),
            BiLink((0, 0), (15, 0), 0),
            BiLink((0, 0), (0, 1), 1),
        ]
        assert links[-2:] == [BiLink((13, 15), (14, 15), 0), BiLink((14, 15), (15, 15), 0)]
        assert (len(nodes), len(links)) == (256, 512)
        assert (_sha(nodes), _sha(links)) == ("64d289d900afbf71", "47ea40973047c115")

    def test_mesh8(self):
        m = Mesh(8, 2)
        nodes, links = list(m.nodes()), list(m.links())
        assert links[:3] == [
            BiLink((0, 0), (1, 0), 0),
            BiLink((0, 0), (0, 1), 1),
            BiLink((1, 0), (2, 0), 0),
        ]
        assert links[-2:] == [BiLink((5, 7), (6, 7), 0), BiLink((6, 7), (7, 7), 0)]
        assert (len(nodes), len(links)) == (64, 112)
        assert (_sha(nodes), _sha(links)) == ("e0b05a222c234393", "46ad9ce7aecc006c")

    def test_torus4x4x4(self):
        t = Torus(4, 3)
        nodes, links = list(t.nodes()), list(t.links())
        assert nodes[:3] == [(0, 0, 0), (1, 0, 0), (2, 0, 0)]
        assert links[:3] == [
            BiLink((0, 0, 0), (1, 0, 0), 0),
            BiLink((0, 0, 0), (3, 0, 0), 0),
            BiLink((0, 0, 0), (0, 1, 0), 1),
        ]
        assert links[-2:] == [BiLink((1, 3, 3), (2, 3, 3), 0), BiLink((2, 3, 3), (3, 3, 3), 0)]
        assert (len(nodes), len(links)) == (64, 192)
        assert (_sha(nodes), _sha(links)) == ("fe02daa5968dffc9", "99127adb520975f5")

    def test_radix2_torus(self):
        """POS and NEG reach the same node over the same link."""
        t = Torus(2, 3)
        nodes, links = list(t.nodes()), list(t.links())
        assert (len(nodes), len(links)) == (8, 12)
        assert (_sha(nodes), _sha(links)) == ("024093a35ad12ef4", "f7d57a3173a0bbf6")
