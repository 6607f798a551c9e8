"""Tests for the overlapping-f-rings extension (the paper's reference
[8]: "overlapping f-rings can be handled using more virtual channels").
"""

import pytest

from repro.analysis import assert_deadlock_free
from repro.core import FaultTolerantRouting
from repro.faults import (
    FaultSet,
    OverlapColoringError,
    RingGeometryError,
    assign_region_layers,
    ring_overlap_graph,
    shared_links_report,
    validate_fault_pattern,
)
from repro.sim import SimulationConfig, SimNetwork, Simulator
from repro.topology import Torus

#: two single-node faults whose rings share the link (4,4)-(5,4) but that
#: the blocking rule does not merge
OVERLAP_NODES = [(4, 3), (5, 5)]


@pytest.fixture()
def overlap_scenario():
    t = Torus(10, 2)
    fs = FaultSet.of(t, nodes=OVERLAP_NODES)
    return t, validate_fault_pattern(t, fs, allow_overlapping_rings=True)


class TestOverlapDetection:
    def test_rejected_by_default(self):
        t = Torus(10, 2)
        fs = FaultSet.of(t, nodes=OVERLAP_NODES)
        with pytest.raises(RingGeometryError):
            validate_fault_pattern(t, fs)

    def test_overlap_graph(self, overlap_scenario):
        _t, scenario = overlap_scenario
        graph = ring_overlap_graph(scenario.ring_index)
        assert graph == {0: {1}, 1: {0}}

    def test_shared_links_counted(self, overlap_scenario):
        _t, scenario = overlap_scenario
        assert shared_links_report(scenario.ring_index) == [(0, 1, 1)]

    def test_layers_alternate(self, overlap_scenario):
        _t, scenario = overlap_scenario
        assert sorted(scenario.region_layers.values()) == [0, 1]
        assert scenario.has_overlapping_rings

    def test_disjoint_pattern_all_layer_zero(self):
        t = Torus(10, 2)
        fs = FaultSet.of(t, nodes=[(2, 2), (7, 7)])
        scenario = validate_fault_pattern(t, fs, allow_overlapping_rings=True)
        assert set(scenario.region_layers.values()) == {0}
        assert not scenario.has_overlapping_rings

    def test_odd_cycle_rejected(self):
        """Three pairwise-overlapping rings cannot be 2-colored.  The
        block-fault geometry makes real 3-cliques contrived (the blocking
        rule usually merges the regions first), so the coloring is
        exercised directly on a synthetic overlap triangle."""

        class FakeRing:
            def __init__(self, region_index):
                self.region_index = region_index

        class FakeIndex:
            regions = [0, 1, 2]
            rings = [FakeRing(0), FakeRing(1), FakeRing(2)]

            def overlapping_ring_pairs(self):
                a, b, c = self.rings
                return [(a, b), (a, c), (b, c)]

        with pytest.raises(OverlapColoringError):
            assign_region_layers(FakeIndex())

    def test_chain_of_three_is_colorable(self):
        """A linear chain A-B-C of overlaps 2-colors as 0,1,0."""
        t = Torus(12, 2)
        fs = FaultSet.of(t, nodes=[(4, 4), (5, 6), (6, 8)])
        scenario = validate_fault_pattern(t, fs, allow_overlapping_rings=True)
        graph = ring_overlap_graph(scenario.ring_index)
        middle = next(
            index
            for index, region in enumerate(scenario.ring_index.regions)
            if region.contains_node((5, 6))
        )
        ends = [i for i in range(3) if i != middle]
        # the middle region overlaps both ends; the ends do not overlap
        assert graph[middle] == set(ends)
        assert scenario.region_layers[ends[0]] == scenario.region_layers[ends[1]]
        assert scenario.region_layers[middle] != scenario.region_layers[ends[0]]


class TestLayeredRouting:
    def test_needs_double_classes(self, overlap_scenario):
        t, scenario = overlap_scenario
        routing = FaultTolerantRouting.for_scenario(t, scenario)
        assert routing.base_vc_classes == 4
        assert routing.num_vc_classes == 8

    def test_all_pairs_delivery(self, overlap_scenario):
        t, scenario = overlap_scenario
        routing = FaultTolerantRouting.for_scenario(t, scenario)
        healthy = [c for c in t.nodes() if c not in scenario.faults.node_faults]
        for src in healthy[::3]:
            for dst in healthy[::3]:
                if src != dst:
                    assert routing.route_path(src, dst)[-1] == dst

    def test_layer1_detours_use_upper_classes(self, overlap_scenario):
        t, scenario = overlap_scenario
        routing = FaultTolerantRouting.for_scenario(t, scenario)
        layer1_region = next(r for r, l in scenario.region_layers.items() if l == 1)
        region = scenario.ring_index.regions[layer1_region]
        # a message blocked by the layer-1 region in dim 0
        row = region.node_extent(1)[0]
        col = region.node_extent(0)[0]
        src = ((col - 2) % 10, row)
        dst = ((col + 3) % 10, row)
        state = routing.initial_state(src, dst)
        current = src
        misroute_classes = set()
        for _ in range(60):
            decision = routing.next_hop(state, current)
            if decision.consume:
                break
            if decision.misrouting:
                misroute_classes.add(decision.vc_class)
            current = routing.commit_hop(state, current, decision)
        assert misroute_classes and all(c >= 4 for c in misroute_classes)

    def test_layer0_detours_stay_in_base(self, overlap_scenario):
        t, scenario = overlap_scenario
        routing = FaultTolerantRouting.for_scenario(t, scenario)
        layer0_region = next(r for r, l in scenario.region_layers.items() if l == 0)
        region = scenario.ring_index.regions[layer0_region]
        row = region.node_extent(1)[0]
        col = region.node_extent(0)[0]
        src = ((col - 2) % 10, row)
        dst = ((col + 3) % 10, row)
        state = routing.initial_state(src, dst)
        current = src
        misroute_classes = set()
        for _ in range(60):
            decision = routing.next_hop(state, current)
            if decision.consume:
                break
            if decision.misrouting:
                misroute_classes.add(decision.vc_class)
            current = routing.commit_hop(state, current, decision)
        assert misroute_classes and all(c < 4 for c in misroute_classes)


class TestLayeredNetwork:
    def _config(self, **kwargs):
        t = Torus(10, 2)
        fs = FaultSet.of(t, nodes=OVERLAP_NODES)
        defaults = dict(
            topology="torus", radix=10, dims=2, faults=fs,
            allow_overlapping_rings=True,
        )
        defaults.update(kwargs)
        return SimulationConfig(**defaults)

    def test_network_gets_eight_classes(self):
        net = SimNetwork(self._config())
        assert net.num_classes == 8

    def test_cdg_acyclic_with_overlaps(self):
        """The mechanized counterpart of report [8]'s claim."""
        net = SimNetwork(self._config())
        assert_deadlock_free(net, include_sharing=False)
        assert_deadlock_free(net, include_sharing=True)

    def test_simulation_runs_and_drains(self):
        config = self._config(rate=0.012, warmup_cycles=300, measure_cycles=1500)
        sim = Simulator(config)
        result = sim.run()
        sim.drain()
        assert sim.in_flight == 0
        assert result.misrouted_messages > 0

    def test_degraded_without_flag(self):
        # without the extra-VC flag the overlap is no longer rejected: the
        # degraded-mode pipeline merges both rings into one enclosing
        # block and reports the sacrificed healthy nodes
        config = self._config(allow_overlapping_rings=False)
        net = SimNetwork(config)
        assert net.degradation is not None
        assert net.degradation.degraded_nodes == ((4, 4), (4, 5), (5, 3), (5, 4))
        assert net.degradation.convexify_steps == 1
        assert len(net.scenario.ring_index.rings) == 1
        assert not net.scenario.has_overlapping_rings
        assert net.num_classes == 4

    def test_composes_with_protocol_banks(self):
        config = self._config(
            protocol_classes=2, request_reply=True,
            rate=0.006, warmup_cycles=300, measure_cycles=1200,
        )
        net = SimNetwork(config)
        assert net.num_classes == 16  # 4 base x 2 layers x 2 protocols
        sim = Simulator(config, net)
        sim.run()
        sim.drain()
        assert sim.in_flight == 0
