"""Tests for the end-to-end reliable delivery layer (repro.reliability)."""

import pytest

from repro.reliability import ReliabilityConfig, ReliableTransport
from repro.sim import SimulationConfig, Simulator


def quiet_sim(rate=0.0, radix=8, **kwargs):
    base = dict(
        topology="torus", radix=radix, dims=2, rate=rate,
        warmup_cycles=0, measure_cycles=10,
    )
    base.update(kwargs)
    return Simulator(SimulationConfig(**base))


class TestConfigValidation:
    def test_ack_needs_header_and_tail(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(ack_length=1)

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(timeout=0)

    def test_backoff_at_least_one(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(backoff=0.5)

    def test_retries_non_negative(self):
        with pytest.raises(ValueError):
            ReliabilityConfig(max_retries=-1)

    def test_double_attach_rejected(self):
        sim = quiet_sim()
        ReliableTransport(sim)
        with pytest.raises(ValueError):
            ReliableTransport(sim)


class TestSequenceNumbers:
    def test_per_source_sequence_assignment(self):
        sim = quiet_sim()
        ReliableTransport(sim)
        first = sim.inject_message((0, 0), (3, 0))
        second = sim.inject_message((0, 0), (5, 5))
        other = sim.inject_message((1, 1), (3, 0))
        assert (first.seq, second.seq) == (0, 1)
        assert other.seq == 0  # sequences are per source

    def test_data_messages_are_not_control(self):
        sim = quiet_sim()
        ReliableTransport(sim)
        message = sim.inject_message((0, 0), (3, 0))
        assert message.is_control is False
        assert message.ack_for is None


class TestCleanDelivery:
    def test_exactly_once_on_healthy_network(self):
        sim = quiet_sim()
        transport = ReliableTransport(sim)
        messages = [
            sim.inject_message((0, 0), (4, 4)),
            sim.inject_message((2, 1), (6, 3)),
            sim.inject_message((7, 7), (3, 3)),
        ]
        sim.drain()
        stats = transport.stats
        assert all(m.consumed_cycle is not None for m in messages)
        assert stats.tracked_generated == 3
        assert stats.unique_delivered == 3
        assert stats.lost == 0
        assert stats.exactly_once
        assert stats.retransmissions == 0
        assert stats.acks_sent == 3
        assert stats.acks_delivered == 3
        assert transport.quiescent
        assert transport.pending_flows == 0

    def test_acks_excluded_from_paper_metrics(self):
        sim = quiet_sim()
        ReliableTransport(sim)
        sim._start_measurement()
        for _ in range(4):
            sim.inject_message((0, 0), (4, 4))
        sim.drain()
        # 4 data messages were consumed; the 4 ACKs must not be counted
        assert sim.stats.delivered == 4

    def test_ack_rides_highest_protocol_bank_by_default(self):
        sim = quiet_sim(protocol_classes=2)
        transport = ReliableTransport(sim)
        assert transport._ack_protocol() == 1

    def test_ack_protocol_override(self):
        sim = quiet_sim(protocol_classes=2)
        transport = ReliableTransport(sim, ReliabilityConfig(ack_protocol=0))
        assert transport._ack_protocol() == 0


class TestRetransmission:
    def test_backoff_progression_and_cap(self):
        sim = quiet_sim()
        transport = ReliableTransport(
            sim, ReliabilityConfig(timeout=100, backoff=2.0, max_timeout=350)
        )
        assert transport._backoff_timeout(0) == 100
        assert transport._backoff_timeout(1) == 200
        assert transport._backoff_timeout(2) == 350  # capped

    def test_spurious_timeout_duplicates_suppressed(self):
        # timeout far below the delivery latency: the source retransmits
        # even though the original is still on its way, and the sink must
        # swallow the copies
        sim = quiet_sim()
        transport = ReliableTransport(sim, ReliabilityConfig(timeout=25, backoff=1.0))
        sim.inject_message((0, 0), (4, 4))
        sim.drain()
        stats = transport.stats
        assert stats.unique_delivered == 1
        assert stats.retransmissions >= 1
        assert stats.timeouts >= 1
        assert stats.duplicates >= 1
        assert stats.exactly_once
        assert transport.quiescent

    def test_fault_kill_triggers_fast_retransmit(self):
        sim = quiet_sim()
        transport = ReliableTransport(sim)
        message = sim.inject_message((0, 0), (5, 0))
        link = None
        store = sim.net.store
        for _ in range(100):
            sim.step()
            for channel in sim.net.channels:
                if channel.kind.value != "internode":
                    continue
                if any(store.msg[vid] is message for vid in store.busy_vids(channel.index)):
                    link = (channel.src_node, channel.dim, int(channel.direction))
                    break
            if link is not None:
                break
        assert link is not None, "worm never reached an internode channel"
        report = sim.inject_runtime_fault(links=[link])
        assert message.msg_id in report.lost_message_ids
        sim.drain()
        stats = transport.stats
        assert stats.killed_in_flight >= 1
        assert stats.fault_retransmissions >= 1
        assert stats.unique_delivered == 1
        assert stats.exactly_once
        times = transport.recovery_times()
        assert len(times) == 1 and times[0] >= 0
        assert transport.fault_events[0].killed_flows >= 1

    def test_give_up_after_max_retries(self):
        sim = quiet_sim()
        transport = ReliableTransport(sim, ReliabilityConfig(timeout=1, max_retries=0))
        sim.inject_message((0, 0), (4, 4))
        sim.drain()
        stats = transport.stats
        assert stats.gave_up == 1
        assert stats.retransmissions == 0
        assert transport.quiescent  # an abandoned flow must not block drain


class TestAbort:
    def test_flow_to_dead_destination_aborted(self):
        sim = quiet_sim()
        transport = ReliableTransport(sim)
        sim.inject_message((0, 0), (4, 4))
        for _ in range(5):
            sim.step()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        sim.drain()
        stats = transport.stats
        assert stats.aborted == 1
        assert stats.lost == 1  # unrecoverable: counted, never retried
        assert stats.retransmissions == 0
        assert transport.quiescent

    def test_flow_from_dead_source_aborted(self):
        sim = quiet_sim()
        transport = ReliableTransport(sim)
        sim.inject_message((4, 4), (0, 0))
        for _ in range(5):
            sim.step()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        sim.drain()
        assert transport.stats.aborted == 1
        assert transport.stats.unique_delivered == 0


class TestEnqueueMessage:
    def test_enqueue_at_dead_node_rejected(self):
        sim = quiet_sim()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        with pytest.raises(ValueError):
            sim.enqueue_message((4, 4), (0, 0))

    def test_enqueue_bypasses_flow_tracking(self):
        sim = quiet_sim()
        transport = ReliableTransport(sim)
        sim.enqueue_message((0, 0), (3, 3))
        assert transport.stats.tracked_generated == 0
        sim.drain()  # still delivered like any worm
        assert sim.in_flight == 0
