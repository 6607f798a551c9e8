"""Tests for the channel-dependency-graph analysis (mechanized Lemma 1)."""

import pytest

from repro.analysis import (
    assert_deadlock_free,
    build_cdg,
    channel_walk,
    find_dependency_cycle,
    misroute_statistics,
)
from repro.analysis.cdg import _find_cycle
from repro.faults import FaultSet
from repro.router import ChannelKind
from repro.sim import SimulationConfig, SimNetwork
from repro.topology import Torus


def build(**kwargs):
    defaults = dict(topology="torus", radix=6, dims=2)
    defaults.update(kwargs)
    return SimNetwork(SimulationConfig(**defaults))


class TestChannelWalk:
    def test_starts_with_injection_ends_with_consumption(self):
        net = build()
        walk = channel_walk(net, (0, 0), (3, 3))
        assert walk[0][0].kind is ChannelKind.INJECTION
        assert walk[-1][0].kind is ChannelKind.CONSUMPTION

    def test_internode_hops_match_route_path(self):
        net = build()
        walk = channel_walk(net, (0, 0), (3, 3))
        internode = [ch for ch, _cls in walk if ch.kind is ChannelKind.INTERNODE]
        path = net.routing.route_path((0, 0), (3, 3))
        assert len(internode) == len(path) - 1

    def test_pdr_walk_contains_interchip(self):
        net = build()
        walk = channel_walk(net, (0, 0), (3, 3))
        assert any(ch.kind is ChannelKind.INTERCHIP for ch, _ in walk)

    def test_crossbar_walk_has_no_interchip(self):
        net = build(router_model="crossbar")
        walk = channel_walk(net, (0, 0), (3, 3))
        assert not any(ch.kind is ChannelKind.INTERCHIP for ch, _ in walk)

    def test_misrouted_walk_stays_on_healthy_channels(self):
        t = Torus(6, 2)
        fs = FaultSet.of(t, nodes=[(3, 3)])
        net = build(faults=fs)
        walk = channel_walk(net, (1, 3), (5, 3))
        for ch, _classes in walk:
            assert ch.dst_node != (3, 3) and ch.src_node != (3, 3)


class TestAcyclicity:
    def test_fault_free_acyclic(self):
        assert assert_deadlock_free(build()) > 0

    def test_faulty_acyclic_both_modes(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(4, 4)])
        net = build(radix=8, faults=fs)
        assert_deadlock_free(net, include_sharing=False)
        assert_deadlock_free(net, include_sharing=True)

    def test_no_cycle_returned(self):
        assert find_dependency_cycle(build()) is None

    def test_restricted_pairs(self):
        net = build()
        graph = build_cdg(net, pairs=[((0, 0), (3, 3)), ((3, 3), (0, 0))])
        assert len(graph) > 0

    def test_broken_allocation_is_caught(self):
        """Sanity check that the analysis can actually detect a cycle: a
        torus e-cube WITHOUT the dateline class switch must be cyclic."""
        net = build(fault_tolerant=False, routing_algorithm="ecube")  # plain e-cube, 2 VCs
        graph = build_cdg(net)

        # collapse the class dimension: pretend every hop used class 0,
        # which is exactly 'no dateline switch'
        collapsed = {}
        for (ch_a, _ca), successors in graph.items():
            heads = collapsed.setdefault((ch_a, 0), {})
            for ch_b, _cb in successors:
                heads[(ch_b, 0)] = None
        assert _find_cycle(graph) is None
        assert _find_cycle(collapsed) is not None


class TestMisrouteStatistics:
    def test_fault_free_no_detours(self):
        stats = misroute_statistics(build())
        assert stats["detoured_pairs"] == 0
        assert stats["avg_extra_hops"] == 0.0

    def test_faulty_has_detours(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(4, 4)])
        net = build(radix=8, faults=fs)
        stats = misroute_statistics(net)
        assert stats["detoured_pairs"] > 0
        assert stats["avg_extra_hops"] >= 2.0  # detours come in pairs of hops
        assert stats["pairs"] == 63 * 62
