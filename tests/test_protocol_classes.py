"""Tests for protocol message classes (virtual channel banks) and the
request-reply workload.

Section 2: "The Cray T3D actually simulates four virtual channels to
handle two distinct classes of messages with two virtual channels per
class."  We generalize: each protocol class gets a full bank of the
routing scheme's classes, so request-reply traffic cannot deadlock on
shared channels."""

import pytest

from repro.router import ChannelKind
from repro.router.messages import Message
from repro.sim import SimulationConfig, SimNetwork, Simulator


def build(**kwargs):
    defaults = dict(topology="torus", radix=8, dims=2, protocol_classes=2)
    defaults.update(kwargs)
    return SimNetwork(SimulationConfig(**defaults))


class TestBankStructure:
    def test_total_classes(self):
        net = build()
        assert net.base_classes == 4
        assert net.num_classes == 8
        assert net.store.num_classes == 8
        for channel in net.channels:
            assert net.store.vbase[channel.index] == 1 + 2 * 8 * channel.index

    def test_mesh_banks(self):
        net = build(topology="mesh")
        assert net.base_classes == 2 and net.num_classes == 4

    def test_single_bank_default(self):
        net = SimNetwork(SimulationConfig(topology="torus", radix=8, dims=2))
        assert net.num_classes == net.base_classes == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(protocol_classes=0)
        with pytest.raises(ValueError):
            SimulationConfig(request_reply=True, protocol_classes=1)


class TestBankResolution:
    def _message(self, net, src, dst, protocol):
        return Message(
            1, src, dst, 20, net.routing.initial_state(src, dst), 0, False,
            protocol=protocol,
        )

    def test_request_uses_bank_zero(self):
        net = build()
        node = net.nodes[(0, 0)]
        message = self._message(net, (0, 0), (3, 0), protocol=0)
        res = node.resolve(node.injection_module(), message, net.routing, "rank")
        assert all(c < 4 for c in res.classes)

    def test_reply_uses_bank_one(self):
        net = build()
        node = net.nodes[(0, 0)]
        message = self._message(net, (0, 0), (3, 0), protocol=1)
        res = node.resolve(node.injection_module(), message, net.routing, "rank")
        assert all(4 <= c < 8 for c in res.classes)

    def test_reply_bank_preserves_structure(self):
        """A protocol-1 message's class pattern is the protocol-0 pattern
        shifted by one bank, hop for hop."""
        net = build()
        from repro.analysis import channel_walk

        # monkey-free: walk a protocol-1 message manually through resolve
        src, dst = (0, 0), (3, 3)
        walk0 = channel_walk(net, src, dst)
        message = self._message(net, src, dst, protocol=1)
        node = net.nodes[src]
        module = node.injection_module()
        classes1 = []
        for _ in range(100):
            res = node.resolve(module, message, net.routing, False)
            classes1.append(res.classes)
            if res.channel.kind is ChannelKind.CONSUMPTION:
                break
            if res.commit_decision is not None:
                net.routing.commit_hop(message.route, node.coord, res.commit_decision)
                node = net.nodes[res.channel.dst_node]
            module = net.feeds[res.channel.index]
        # skip the injection entry of walk0; compare hop classes
        for (ch0, c0), c1 in zip(walk0[1:], classes1):
            if ch0.kind is ChannelKind.CONSUMPTION:
                assert set(c1) == {4, 5, 6, 7}
            else:
                assert tuple(c + 4 for c in c0) == c1

    def test_pass_through_stays_in_bank(self):
        net = build()
        node = net.nodes[(0, 0)]
        message = self._message(net, (0, 0), (0, 3), protocol=1)  # no dim0 hops
        res = node.resolve(node.injection_module(), message, net.routing, "rank")
        assert res.channel.kind is ChannelKind.INTERCHIP
        assert res.classes == (4, 5)


class TestRequestReplySimulation:
    def _config(self, **kwargs):
        defaults = dict(
            topology="torus", radix=8, dims=2, protocol_classes=2,
            request_reply=True, rate=0.008, warmup_cycles=400,
            measure_cycles=2_000,
        )
        defaults.update(kwargs)
        return SimulationConfig(**defaults)

    def test_replies_generated_and_drained(self):
        sim = Simulator(self._config())
        result = sim.run()
        sim.drain()
        assert sim.in_flight == 0
        # roughly as many replies as requests delivered
        assert result.delivered > 0

    def test_reply_messages_travel_reverse(self):
        sim = Simulator(self._config(rate=0.0))
        request = sim.inject_message((1, 1), (5, 5))
        for _ in range(2_000):
            sim.step()
            if sim.in_flight == 0 and not any(sim.queues.values()):
                break
        assert request.consumed_cycle is not None
        # a reply was created back to (1,1): total messages = 2
        assert sim._msg_counter == 2

    def test_faulty_network_request_reply(self):
        sim = Simulator(self._config(fault_percent=5, rate=0.006))
        result = sim.run()
        sim.drain()
        assert sim.in_flight == 0
        assert result.misrouted_messages > 0

    def test_deterministic(self):
        a = Simulator(self._config(seed=9)).run()
        b = Simulator(self._config(seed=9)).run()
        assert a.delivered == b.delivered

    def test_throughput_includes_replies(self):
        plain = Simulator(self._config(request_reply=False)).run()
        with_replies = Simulator(self._config()).run()
        # replies roughly double the delivered traffic at low load
        assert with_replies.delivered > 1.5 * plain.delivered
