"""Unit tests for PDR/crossbar node models and resolution rules."""

import pytest

from repro.core import FaultTolerantRouting
from repro.faults import FaultSet, validate_fault_pattern
from repro.router import ChannelKind, CrossbarNode, PDRNode, sharing_set
from repro.router.messages import Message
from repro.sim import SimulationConfig, SimNetwork
from repro.topology import Direction, Mesh, Torus


class TestInterchipTargets:
    def test_ft_2d(self):
        node = PDRNode((0, 0), Torus(8, 2), 4, fault_tolerant=True)
        assert node.interchip_targets(0) == [1]
        assert node.interchip_targets(1) == [0]

    def test_ft_3d(self):
        node = PDRNode((0, 0, 0), Torus(4, 3), 4, fault_tolerant=True)
        assert node.interchip_targets(0) == [1, 2]
        assert node.interchip_targets(1) == [2, 0]
        assert node.interchip_targets(2) == [0, 1]

    def test_baseline_forward_chain_only(self):
        node = PDRNode((0, 0, 0), Torus(4, 3), 2, fault_tolerant=False)
        assert node.interchip_targets(0) == [1]
        assert node.interchip_targets(1) == [2]
        assert node.interchip_targets(2) == []

    def test_4d_ft_rejected(self):
        with pytest.raises(ValueError):
            PDRNode((0, 0, 0, 0), Torus(4, 4), 4, fault_tolerant=True)

    def test_module_count(self):
        assert len(PDRNode((0, 0), Torus(8, 2), 4).modules) == 2
        assert len(CrossbarNode((0, 0), Torus(8, 2), 4).modules) == 1


class TestSharingSet:
    def test_torus_same_parity_only(self):
        assert sharing_set(0, 4, torus=True) == (0, 2)
        assert sharing_set(1, 4, torus=True) == (1, 3)
        assert sharing_set(2, 4, torus=True) == (2, 0)
        assert sharing_set(3, 4, torus=True) == (3, 1)

    def test_mesh_all_classes(self):
        assert sharing_set(0, 2, torus=False) == (0, 1)
        assert sharing_set(1, 2, torus=False) == (1, 0)

    def test_nominal_always_first(self):
        for nominal in range(4):
            assert sharing_set(nominal, 4, torus=True)[0] == nominal


def build(topology="torus", radix=8, fault_percent=0, **kwargs):
    config = SimulationConfig(
        topology=topology, radix=radix, dims=2, fault_percent=fault_percent, **kwargs
    )
    return SimNetwork(config)


def header_at(net, src, dst):
    """A message plus the module its header notionally sits at (chip 0 of
    the source node)."""
    routing = net.routing
    message = Message(1, src, dst, 20, routing.initial_state(src, dst), 0, False)
    node = net.nodes[src]
    return node, node.injection_module(), message


class TestPDRResolution:
    def test_own_dimension_goes_internode(self):
        net = build()
        node, module, message = header_at(net, (0, 0), (3, 0))
        res = node.resolve(module, message, net.routing, share_idle=False)
        assert res.channel.kind is ChannelKind.INTERNODE
        assert res.channel.dim == 0 and res.channel.direction is Direction.POS
        assert res.commit_decision is not None

    def test_dimension_ascent_pass_through(self):
        net = build()
        node, module, message = header_at(net, (0, 0), (0, 3))
        res = node.resolve(module, message, net.routing, share_idle=False)
        assert res.channel.kind is ChannelKind.INTERCHIP
        assert net.feeds[res.channel.index] is node.modules[1]
        # never traveled dim 0: any class of M0's pair
        assert res.classes == (0, 1)
        assert res.commit_decision is None

    def test_consume_chains_to_delivery(self):
        net = build()
        node, module, message = header_at(net, (0, 0), (0, 0) if False else (1, 0))
        dst_node = net.nodes[(1, 0)]
        chip0 = dst_node.modules[0]
        res = dst_node.resolve(chip0, message, net.routing, share_idle=False)
        # message (0,0)->(1,0) arriving at chip0 of (1,0): consume ->
        # pass-through toward the last chip first
        assert res.channel.kind is ChannelKind.INTERCHIP
        res2 = dst_node.resolve(dst_node.modules[1], message, net.routing, share_idle=False)
        assert res2.channel.kind is ChannelKind.CONSUMPTION

    def test_pass_through_keeps_completed_hop_class(self):
        net = build()
        routing = net.routing
        message = Message(1, (6, 0), (1, 1), 20, routing.initial_state((6, 0), (1, 1)), 0, False)
        # walk dim0 hops: 6 -> 7 -> 0 -> 1 (wraps, ends on c1)
        current = (6, 0)
        while True:
            decision = routing.next_hop(message.route, current)
            if decision.dim != 0:
                break
            current = routing.commit_hop(message.route, current, decision)
        assert message.route.last_vc_class == 1
        node = net.nodes[current]
        res = node.resolve(node.modules[0], message, routing, share_idle=False)
        assert res.channel.kind is ChannelKind.INTERCHIP
        assert res.classes == (1,)

    def test_misroute_entry_uses_exact_class(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(4, 4)])
        config = SimulationConfig(topology="torus", radix=8, dims=2, faults=fs)
        net = SimNetwork(config)
        routing = net.routing
        message = Message(1, (3, 4), (6, 4), 20, routing.initial_state((3, 4), (6, 4)), 0, False)
        node = net.nodes[(3, 4)]
        res = node.resolve(node.modules[0], message, routing, share_idle=True)
        # blocked in dim0 -> interchip to chip1, exactly the designated class
        assert res.channel.kind is ChannelKind.INTERCHIP
        assert res.classes == (0,)

    def test_share_idle_widens_internode_classes(self):
        net = build()
        node, module, message = header_at(net, (0, 0), (3, 0))
        res = node.resolve(module, message, net.routing, share_idle=True)
        assert res.classes == (0, 2)

    def test_ring_channel_not_widened(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(4, 4)])
        config = SimulationConfig(topology="torus", radix=8, dims=2, faults=fs)
        net = SimNetwork(config)
        # (3,3) -> (3,5): dim1 hops along the ring's left column
        routing = net.routing
        message = Message(1, (3, 3), (3, 5), 20, routing.initial_state((3, 3), (3, 5)), 0, False)
        node = net.nodes[(3, 3)]
        res = node.resolve(node.modules[1], message, routing, share_idle=True)
        assert res.channel.kind is ChannelKind.INTERNODE
        assert res.channel.on_ring
        assert len(res.classes) == 1


class TestRoundRobinBounds:
    """Arbitration counters must not grow without bound over a run.

    The channel counter is reduced modulo the busy count on every
    advance.  The module counter is advanced to ``start + offset + 1``
    with ``start < count`` and ``offset < count``, so it stays below
    ``2 * count`` — it cannot be reduced modulo ``count`` instead,
    because the next arbitration reduces by the *future* waiting length
    and the stored residue would change which header is served.
    """

    def run_sim(self, **kwargs):
        from repro.sim import Simulator

        defaults = dict(
            topology="torus", radix=8, dims=2, rate=0.03,
            warmup_cycles=200, measure_cycles=800, seed=3, fault_percent=1,
        )
        defaults.update(kwargs)
        sim = Simulator(SimulationConfig(**defaults))
        sim.run()
        return sim

    def test_module_rr_bounded_by_twice_fanin(self):
        sim = self.run_sim()
        store = sim.net.store
        # a module arbitrates over at most its input VCs; the waiting
        # list can never exceed the VCs of the channels feeding it
        for module in sim.net.modules:
            fan_in = store.num_classes * sum(
                1 for ch in sim.net.channels if sim.net.feeds[ch.index] is module
            )
            assert 0 <= store.module_rr[module._mid] <= 2 * max(fan_in, 1)

    def test_channel_rr_stays_within_vc_count(self):
        sim = self.run_sim()
        store = sim.net.store
        served = 0
        for channel in sim.net.channels:
            if channel.transfers:
                served += 1
            assert 0 <= store.rr[channel.index] < max(store.num_classes, 1)
        assert served > 0

    def test_bounds_hold_under_saturation(self):
        sim = self.run_sim(rate=0.08, measure_cycles=600, fault_percent=0)
        store = sim.net.store
        for module in sim.net.modules:
            fan_in = store.num_classes * sum(
                1 for ch in sim.net.channels if sim.net.feeds[ch.index] is module
            )
            assert 0 <= store.module_rr[module._mid] <= 2 * max(fan_in, 1)
        for channel in sim.net.channels:
            assert 0 <= store.rr[channel.index] < max(store.num_classes, 1)


class TestCrossbarResolution:
    def test_no_interchip_channels(self):
        net = build(router_model="crossbar")
        assert all(
            ch.kind is not ChannelKind.INTERCHIP for ch in net.channels
        )

    def test_direct_delivery(self):
        net = build(router_model="crossbar")
        node, module, message = header_at(net, (1, 0), (1, 0) if False else (2, 0))
        dst_node = net.nodes[(2, 0)]
        res = dst_node.resolve(dst_node.modules[0], message, net.routing, share_idle=False)
        assert res.channel.kind is ChannelKind.CONSUMPTION

    def test_dimension_change_is_internal(self):
        net = build(router_model="crossbar")
        node, module, message = header_at(net, (0, 0), (0, 3))
        res = node.resolve(module, message, net.routing, share_idle=False)
        assert res.channel.kind is ChannelKind.INTERNODE
        assert res.channel.dim == 1
