"""Tests for the misroute orientation policies (the algorithm's free
choice for two-sided detours)."""

import pytest

from repro.core import FaultTolerantRouting
from repro.faults import FaultSet, validate_fault_pattern
from repro.sim import SimulationConfig, Simulator
from repro.topology import Torus


@pytest.fixture()
def scenario():
    t = Torus(8, 2)
    fs = FaultSet.of(t, nodes=[(3, 3), (4, 3), (3, 4), (4, 4)])
    return t, validate_fault_pattern(t, fs)


class TestPolicies:
    def test_unknown_policy_rejected(self, scenario):
        t, scen = scenario
        with pytest.raises(ValueError):
            FaultTolerantRouting.for_scenario(t, scen, orientation_policy="zigzag")

    def test_all_policies_deliver_all_pairs(self, scenario):
        t, scen = scenario
        healthy = [c for c in t.nodes() if c not in scen.faults.node_faults]
        for policy in FaultTolerantRouting.ORIENTATION_POLICIES:
            router = FaultTolerantRouting.for_scenario(t, scen, orientation_policy=policy)
            for src in healthy[::5]:
                for dst in healthy[::5]:
                    if src != dst:
                        assert router.route_path(src, dst)[-1] == dst

    def test_destination_policy_heads_toward_destination(self, scenario):
        t, scen = scenario
        router = FaultTolerantRouting.for_scenario(t, scen)
        # destination above the block -> detour through the upper ring row
        path = router.route_path((1, 4), (5, 6))
        assert (2, 5) in path

    def test_shorter_side_policy_ignores_destination(self, scenario):
        t, scen = scenario
        router = FaultTolerantRouting.for_scenario(
            t, scen, orientation_policy="shorter-side"
        )
        # blocked at (2,4): row 4 is nearer the upper corner (5) than the
        # lower (2)?  distances: to hi (5-4)=1, to lo (4-2)=2 -> go up even
        # if the destination is below
        path = router.route_path((1, 4), (5, 2))
        assert (2, 5) in path

    def test_balanced_policy_uses_both_sides(self, scenario):
        t, scen = scenario
        router = FaultTolerantRouting.for_scenario(t, scen, orientation_policy="balanced")
        sides = set()
        for y_dst in range(8):
            dst = (5, y_dst)
            if dst in scen.faults.node_faults:
                continue
            for y_src in (3, 4):
                path = router.route_path((1, y_src), dst)
                if (2, 5) in path:
                    sides.add("up")
                if (2, 2) in path:
                    sides.add("down")
        assert sides == {"up", "down"}

    def test_balanced_policy_deterministic(self, scenario):
        t, scen = scenario
        a = FaultTolerantRouting.for_scenario(t, scen, orientation_policy="balanced")
        b = FaultTolerantRouting.for_scenario(t, scen, orientation_policy="balanced")
        assert a.route_path((1, 3), (5, 3)) == b.route_path((1, 3), (5, 3))


class TestPolicyInSimulation:
    @pytest.mark.parametrize("policy", ["destination", "shorter-side", "balanced"])
    def test_simulation_runs_and_drains(self, policy):
        config = SimulationConfig(
            topology="torus",
            radix=8,
            dims=2,
            fault_percent=5,
            orientation_policy=policy,
            rate=0.012,
            warmup_cycles=300,
            measure_cycles=1200,
        )
        sim = Simulator(config)
        result = sim.run()
        sim.drain()
        assert sim.in_flight == 0
        assert result.misrouted_messages > 0

    def test_invalid_policy_rejected_at_config(self):
        with pytest.raises(ValueError, match="^orientation_policy must be one of"):
            SimulationConfig(orientation_policy="zigzag")
