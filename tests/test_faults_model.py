"""Unit tests for fault sets and the local fault view."""

import pytest

from repro.faults import FaultSet, LocalFaultView
from repro.topology import BiLink, Direction, Mesh, Torus


class TestFaultSet:
    def test_empty(self):
        assert FaultSet().empty
        assert not FaultSet(node_faults=frozenset({(0, 0)})).empty

    def test_of_constructor_links(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, links=[((1, 1), 0, Direction.POS)])
        assert BiLink((1, 1), (2, 1), 0) in fs.link_faults

    def test_of_constructor_boundary_link_raises(self):
        m = Mesh(8, 2)
        with pytest.raises(ValueError):
            FaultSet.of(m, links=[((7, 0), 0, Direction.POS)])

    def test_node_fault_implies_incident_links(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(3, 3)])
        links = fs.all_faulty_links(t)
        assert len(links) == 4
        assert BiLink((2, 3), (3, 3), 0) in links

    def test_faulty_link_fraction_paper_percentages(self):
        t = Torus(16, 2)
        one_pct = FaultSet.of(t, nodes=[(3, 3)], links=[((10, 10), 0, Direction.POS)])
        assert 0.009 < one_pct.faulty_link_fraction(t) < 0.011

    def test_is_hop_faulty_cases(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(3, 3)], links=[((5, 5), 1, Direction.POS)])
        assert fs.is_hop_faulty(t, (2, 3), 0, Direction.POS)  # into faulty node
        assert fs.is_hop_faulty(t, (3, 3), 0, Direction.POS)  # out of faulty node
        assert fs.is_hop_faulty(t, (5, 5), 1, Direction.POS)  # faulty link
        assert fs.is_hop_faulty(t, (5, 6), 1, Direction.NEG)  # same link, other way
        assert not fs.is_hop_faulty(t, (0, 0), 0, Direction.POS)

    def test_mesh_boundary_hop_is_faulty(self):
        m = Mesh(8, 2)
        assert FaultSet().is_hop_faulty(m, (7, 0), 0, Direction.POS)

    def test_merge_and_with_nodes(self):
        a = FaultSet(node_faults=frozenset({(0, 0)}))
        b = FaultSet(node_faults=frozenset({(1, 1)}))
        merged = a.merged_with(b)
        assert merged.node_faults == {(0, 0), (1, 1)}
        assert a.with_nodes([(2, 2)]).node_faults == {(0, 0), (2, 2)}


class TestLocalFaultView:
    def test_hop_blocked_matches_fault_set(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(3, 3)])
        view = LocalFaultView(t, fs)
        assert view.hop_blocked((2, 3), 0, Direction.POS)
        assert not view.hop_blocked((0, 0), 0, Direction.POS)

    def test_mesh_boundary_blocked(self):
        m = Mesh(4, 2)
        view = LocalFaultView(m, FaultSet())
        assert view.hop_blocked((3, 0), 0, Direction.POS)

    def test_node_usable(self):
        t = Torus(8, 2)
        view = LocalFaultView(t, FaultSet.of(t, nodes=[(3, 3)]))
        assert not view.node_usable((3, 3))
        assert view.node_usable((3, 4))

    def test_blocking_fault_target(self):
        t = Torus(8, 2)
        view = LocalFaultView(t, FaultSet())
        assert view.blocking_fault_target((7, 0), 0, Direction.POS) == (0, 0)


class TestMemoHygiene:
    """``all_faulty_links`` and the ring geometry are memoised; the memos
    live outside the objects they describe, so nothing derived may leak
    into equality, hashes, canonical forms or pickles — fault sets travel
    inside ``SimulationConfig`` to pool workers and into store keys."""

    @staticmethod
    def pattern(network):
        return FaultSet.of(
            network, nodes=[(3, 3), (9, 12)], links=[((1, 1), 0, Direction.POS)]
        )

    def test_queries_leave_fault_set_and_config_untouched(self):
        import pickle

        from repro.faults import degrade_fault_pattern
        from repro.sim.config import SimulationConfig

        t = Torus(16, 2)
        fs = self.pattern(t)
        twin = self.pattern(t)
        config = SimulationConfig(topology="torus", radix=16, dims=2, faults=fs)
        before = (
            pickle.dumps(fs),
            pickle.dumps(config),
            hash(fs),
            config.content_hash("v"),
            config.to_canonical(),
            dict(vars(fs)),
        )
        links = fs.all_faulty_links(t)
        assert fs.all_faulty_links(t) is links  # served from the memo
        scenario, _info = degrade_fault_pattern(t, fs)
        for ring in scenario.ring_index.rings:
            ring.perimeter_nodes(), ring.perimeter_links()
        LocalFaultView(t, fs).hop_blocked((3, 2), 1, Direction.POS)
        after = (
            pickle.dumps(fs),
            pickle.dumps(config),
            hash(fs),
            config.content_hash("v"),
            config.to_canonical(),
            dict(vars(fs)),
        )
        assert after == before
        assert fs == twin and hash(fs) == hash(twin)
        assert pickle.loads(pickle.dumps(fs)) == fs
        assert pickle.loads(pickle.dumps(config)).content_hash("v") == before[3]

    def test_memo_is_per_network_and_equal_sets_share_an_entry(self):
        a, b = Torus(16, 2), Mesh(16, 2)
        fs = self.pattern(a)
        assert fs.all_faulty_links(a) is self.pattern(a).all_faulty_links(a)
        # same fault set, different network: the mesh has no wraparound
        # links, the answer must not be served from the torus's entry
        edge = FaultSet(frozenset({(0, 0)}))
        assert len(edge.all_faulty_links(a)) == 4
        assert len(edge.all_faulty_links(b)) == 2

    def test_memo_is_bounded_and_dies_with_the_network(self):
        import gc

        from repro.faults import fault_model

        t = Torus(8, 2)
        for coord in t.nodes():
            FaultSet(frozenset({coord})).all_faulty_links(t)
            assert len(fault_model._faulty_links[t]) <= fault_model.FAULTY_LINKS_MEMO
        # networks that earlier tests left in reference cycles must not
        # be collected inside the measured window below
        gc.collect()
        tracked = len(fault_model._faulty_links)
        del t
        gc.collect()
        assert len(fault_model._faulty_links) == tracked - 1

    def test_ring_geometry_memo_stays_within_its_bound(self):
        import random

        from repro.faults import fault_rings, generate_random_pattern

        t = Torus(16, 2)
        rng = random.Random(2)
        assert fault_rings._ring_shapes.cache_info().maxsize == fault_rings.RING_MEMO
        for _ in range(5000):
            generate_random_pattern(t, 2, 2, rng)
        info = fault_rings._ring_shapes.cache_info()
        assert info.hits > info.misses  # random draws do reuse ring shapes
        assert info.currsize <= fault_rings.RING_MEMO
