"""Conformance suite for the :class:`repro.core.RoutingPolicy` protocol.

Every policy in the registry is held to the same contract, mechanically:

* structural conformance (``isinstance`` against the runtime protocol,
  the documented attributes with sane values);
* walk invariants over a sample of routable pairs — idempotent
  ``next_hop``, in-range virtual channel classes, ``commit_hop``
  returning the decision's neighbor, delivery exactly at the
  destination, agreement with ``route_path``;
* faulty endpoints rejected with ``ValueError``;
* the per-policy deadlock obligation: an acyclic channel dependency
  graph for every fault pattern the policy accepts (restricted to the
  pairs it routes, so partial-coverage policies are checked on exactly
  their coverage);
* build determinism (two independently built relations route
  identically);
* the simulator routes with exactly the class the registry builder
  declares, with no wrapper in between;
* the registry surface itself: dynamic validation errors, third-party
  registration end-to-end through ``SimulationConfig`` and a simulation,
  and the deprecation shim for ``fault_tolerant=False``.

Cross-engine bit-for-bit parity per policy lives in
``tests/test_engine_parity.py`` (GOLDEN_CONFIGS covers every registered
name).
"""

import typing
import warnings
from functools import lru_cache

import pytest

from repro.analysis.cdg import assert_deadlock_free, routable_pairs
from repro.core import FaultTolerantRouting, RoutingPolicy
from repro.core.message_types import RoutingError
from repro.core.routing_registry import (
    PolicySpec,
    build_routing,
    policy_spec,
    register_policy,
    registered_policies,
    unregister_policy,
)
from repro.sim import SimulationConfig, SimNetwork, Simulator


def _cells():
    """Every (policy, topology, fault pattern) the suite verifies: each
    registered policy on both topologies, fault-free and — when the
    policy accepts faults at all — under the paper's 1% pattern."""
    cells = []
    for name in registered_policies():
        percents = (0, 1) if policy_spec(name).handles_faults else (0,)
        for topology in ("torus", "mesh"):
            for percent in percents:
                cells.append((name, topology, percent))
    return cells


CELLS = _cells()
IDS = [f"{p}-{t}-f{f}" for p, t, f in CELLS]


@lru_cache(maxsize=None)
def _net(policy: str, topology: str, percent: int) -> SimNetwork:
    config = SimulationConfig(
        topology=topology,
        radix=8,
        dims=2,
        fault_percent=percent,
        fault_seed=7,
        routing_algorithm=policy,
        fault_tolerant=policy != "ecube",
    )
    return SimNetwork(config)


@lru_cache(maxsize=None)
def _pairs(policy: str, topology: str, percent: int):
    return tuple(routable_pairs(_net(policy, topology, percent)))


def _sample(pairs, stride=17):
    return pairs[::stride]


@pytest.mark.parametrize(("policy", "topology", "percent"), CELLS, ids=IDS)
class TestProtocolConformance:
    def test_structural_conformance(self, policy, topology, percent):
        routing = _net(policy, topology, percent).routing
        assert isinstance(routing, RoutingPolicy)
        assert routing.network is _net(policy, topology, percent).topology
        assert routing.faults is not None
        assert routing.view is not None
        assert routing.ring_index is not None
        assert isinstance(routing.supports_sharing, bool)
        assert 1 <= routing.base_vc_classes <= routing.num_vc_classes

    def test_simulator_calls_the_builders_class(self, policy, topology, percent):
        """The relation a network routes with is exactly the class the
        registry builder declares and builds: no adapter or per-call
        wrapper sits between the allocation loop and the policy."""
        net = _net(policy, topology, percent)
        declared = typing.get_type_hints(policy_spec(policy).builder)["return"]
        assert type(net.routing) is declared
        assert type(build_routing(policy, net.topology, net.scenario, net.config)) is declared
        overridden = {"next_hop", "commit_hop", "initial_state", "route_path"}
        assert not overridden & set(getattr(net.routing, "__dict__", ()))

    def test_walk_invariants(self, policy, topology, percent):
        net = _net(policy, topology, percent)
        routing = net.routing
        budget = 8 * net.topology.dims * net.topology.radix + 64
        for src, dst in _sample(_pairs(policy, topology, percent)):
            state = routing.initial_state(src, dst)
            current = src
            for _ in range(budget):
                decision = routing.next_hop(state, current)
                # idempotent: routers re-evaluate while a header waits
                assert decision == routing.next_hop(state, current)
                if decision.consume:
                    assert current == dst
                    break
                assert 0 <= decision.vc_class < routing.num_vc_classes
                nxt = routing.commit_hop(state, current, decision)
                assert nxt == net.topology.neighbor(
                    current, decision.dim, decision.direction
                ), f"commit_hop left the decision's channel at {current}"
                current = nxt
            else:
                pytest.fail(f"{policy} never delivered {src}->{dst}")

    def test_route_path_agrees(self, policy, topology, percent):
        net = _net(policy, topology, percent)
        routing = net.routing
        for src, dst in _sample(_pairs(policy, topology, percent), stride=29):
            path = routing.route_path(src, dst)
            assert path[0] == src and path[-1] == dst
            for a, b in zip(path, path[1:]):
                assert net.topology.distance(a, b) == 1

    def test_faulty_endpoints_rejected(self, policy, topology, percent):
        net = _net(policy, topology, percent)
        node_faults = net.scenario.faults.node_faults
        if not node_faults:
            pytest.skip("pattern has no node faults")
        faulty = sorted(node_faults)[0]
        healthy = net.healthy[0]
        with pytest.raises(ValueError):
            net.routing.initial_state(faulty, healthy)
        with pytest.raises(ValueError):
            net.routing.initial_state(healthy, faulty)

    def test_cdg_acyclic(self, policy, topology, percent):
        """The per-policy deadlock obligation, restricted to the pairs
        the policy routes (its published coverage)."""
        net = _net(policy, topology, percent)
        pairs = _pairs(policy, topology, percent)
        assert assert_deadlock_free(net, include_sharing=False, pairs=pairs) > 0
        if net.routing.supports_sharing:
            assert assert_deadlock_free(net, include_sharing=True, pairs=pairs) > 0

    def test_coverage_metric_matches_routable_pairs(self, policy, topology, percent):
        net = _net(policy, topology, percent)
        coverage = getattr(net.routing, "coverage", None)
        if coverage is None:
            pytest.skip("policy publishes no coverage metric (full coverage)")
        healthy = len(net.healthy)
        fraction = len(_pairs(policy, topology, percent)) / (healthy * (healthy - 1))
        assert coverage() == pytest.approx(fraction)

    def test_build_determinism(self, policy, topology, percent):
        """Two independently built relations route every sampled pair
        identically — no hidden randomness in construction."""
        net = _net(policy, topology, percent)
        rebuilt = build_routing(policy, net.topology, net.scenario, net.config)
        for src, dst in _sample(_pairs(policy, topology, percent), stride=43):
            assert net.routing.route_path(src, dst) == rebuilt.route_path(src, dst)


class TestRegistry:
    def test_all_builtins_registered(self):
        assert {"ft", "ecube", "table", "fashion", "adaptive", "avoid"} <= set(
            registered_policies()
        )

    def test_unknown_name_lists_registered_policies(self):
        with pytest.raises(ValueError) as exc:
            SimulationConfig(routing_algorithm="chaos-walk")
        message = str(exc.value)
        assert "chaos-walk" in message
        for name in registered_policies():
            assert name in message

    def test_duplicate_name_rejected_unless_replaced(self):
        spec = policy_spec("ft")
        with pytest.raises(ValueError):
            register_policy(spec)
        assert register_policy(spec, replace=True) is spec

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_policy(PolicySpec(name="", builder=lambda n, s, c: None))

    def test_spec_surface(self):
        ecube = policy_spec("ecube")
        assert ecube.required_vcs(torus=True) == 2
        assert ecube.required_vcs(torus=False) == 1
        assert ecube.reconfigure_target() == "ft"
        assert not ecube.needs_modified_pdr
        ft = policy_spec("ft")
        assert ft.reconfigure_target() == "ft"
        assert ft.required_vcs(torus=True) == 4

    def test_ecube_builder_rejects_faults(self):
        net = _net("ft", "torus", 1)
        with pytest.raises(ValueError, match="cannot be used with faults"):
            build_routing("ecube", net.topology, net.scenario)

    def test_third_party_policy_end_to_end(self):
        """A policy registered from outside repro validates in
        SimulationConfig, simulates, and disappears cleanly again."""
        register_policy(
            PolicySpec(
                name="test-clone",
                builder=lambda network, scenario, config: (
                    FaultTolerantRouting.for_scenario(network, scenario)
                ),
                description="registration round-trip test double",
            )
        )
        try:
            assert "test-clone" in registered_policies()
            config = SimulationConfig(
                topology="torus",
                radix=8,
                dims=2,
                fault_percent=1,
                fault_seed=7,
                routing_algorithm="test-clone",
                rate=0.01,
                warmup_cycles=100,
                measure_cycles=300,
                seed=5,
            )
            assert config.effective_routing == "test-clone"
            result = Simulator(config).run()
            assert result.delivered > 0
        finally:
            unregister_policy("test-clone")
        with pytest.raises(ValueError) as exc:
            SimulationConfig(routing_algorithm="test-clone")
        assert "test-clone" not in "/".join(registered_policies())
        assert "ft" in str(exc.value)


class TestDeprecationShim:
    def test_fault_tolerant_false_without_algorithm_warns(self):
        with pytest.warns(DeprecationWarning, match="routing_algorithm='ecube'"):
            config = SimulationConfig(topology="torus", radix=8, dims=2, fault_tolerant=False)
        assert config.effective_routing == "ecube"

    def test_explicit_algorithm_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = SimulationConfig(
                topology="torus", radix=8, dims=2,
                fault_tolerant=False, routing_algorithm="ecube",
            )
        assert config.effective_routing == "ecube"

    def test_default_config_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = SimulationConfig(topology="torus", radix=8, dims=2)
        assert config.effective_routing == "ft"
