"""Tests for the virtual-channel sharing modes ('off'/'rank'/'all').

The 'all' mode is the paper's literal "all the simulated virtual channels
are used to route normal messages"; the 'rank' default restricts sharing
to the same dateline rank, which the CDG analysis proves deadlock-free.
"""

import pytest

from repro.analysis import assert_deadlock_free, build_cdg, find_dependency_cycle
from repro.router import sharing_set
from repro.sim import SimulationConfig, SimNetwork, Simulator


class TestSharingSetModes:
    def test_rank_mode_same_parity(self):
        assert sharing_set(0, 4, torus=True, mode="rank") == (0, 2)
        assert sharing_set(3, 4, torus=True, mode="rank") == (3, 1)

    def test_all_mode_every_class(self):
        assert sharing_set(0, 4, torus=True, mode="all") == (0, 1, 2, 3)
        assert sharing_set(2, 4, torus=True, mode="all") == (2, 0, 1, 3)

    def test_mesh_ignores_mode(self):
        assert sharing_set(0, 2, torus=False, mode="rank") == sharing_set(
            0, 2, torus=False, mode="all"
        )

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            sharing_set(0, 4, torus=True, mode="greedy")


class TestConfigPlumbing:
    def test_effective_sharing(self):
        assert SimulationConfig().effective_sharing == "rank"
        assert SimulationConfig(vc_sharing_mode="all").effective_sharing == "all"
        assert SimulationConfig(share_idle_vcs=False).effective_sharing == "off"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(vc_sharing_mode="greedy")


class TestCdgPredictsTheDifference:
    """The headline result of this ablation: the rank restriction is what
    makes the sharing provably safe on a torus."""

    def test_torus_all_mode_has_cycle(self):
        net = SimNetwork(SimulationConfig(topology="torus", radix=6, dims=2))
        cycle = find_dependency_cycle(net, include_sharing="all")
        by_name = {channel.name: channel for channel in net.channels}
        ring = [f"(1, {j})->DIM1+" for j in (1, 2, 3, 4, 5, 0)]
        assert cycle == [(by_name[name], c) for name, c in zip(ring, (2, 2, 2, 2, 3, 3))]
        graph = build_cdg(net, include_sharing="all")
        for tail, head in zip(cycle, cycle[1:] + cycle[:1]):
            assert head in graph[tail]
        with pytest.raises(AssertionError) as excinfo:
            assert_deadlock_free(net, include_sharing="all")
        assert str(excinfo.value) == (
            "channel dependency cycle found: [(1, 1)->DIM1+ c2, (1, 2)->DIM1+ c2, "
            "(1, 3)->DIM1+ c2, (1, 4)->DIM1+ c2, (1, 5)->DIM1+ c3, (1, 0)->DIM1+ c3]"
        )

    def test_torus_rank_mode_acyclic(self):
        net = SimNetwork(SimulationConfig(topology="torus", radix=6, dims=2))
        assert find_dependency_cycle(net, include_sharing="rank") is None

    def test_mesh_safe_either_way(self):
        net = SimNetwork(SimulationConfig(topology="mesh", radix=6, dims=2))
        assert find_dependency_cycle(net, include_sharing="all") is None
        assert find_dependency_cycle(net, include_sharing="rank") is None


class TestSimulationBehavior:
    def test_all_mode_runs_below_saturation(self):
        config = SimulationConfig(
            topology="torus", radix=8, dims=2, vc_sharing_mode="all",
            rate=0.01, warmup_cycles=300, measure_cycles=1200,
        )
        sim = Simulator(config)
        result = sim.run()
        sim.drain()
        assert result.delivered > 0

    def test_all_mode_beats_rank_at_saturation(self):
        results = {}
        for mode in ("rank", "all"):
            config = SimulationConfig(
                topology="torus", radix=8, dims=2, vc_sharing_mode=mode,
                rate=0.026, warmup_cycles=500, measure_cycles=2000,
            )
            results[mode] = Simulator(config).run()
        assert (
            results["all"].throughput_flits_per_cycle
            > results["rank"].throughput_flits_per_cycle
        )
