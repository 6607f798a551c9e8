"""Tests for runtime fault injection and network reconfiguration."""

import pytest

from repro.faults import NetworkDisconnectedError
from repro.router import ChannelKind
from repro.sim import SimulationConfig, Simulator


def running_sim(rate=0.015, radix=8, cycles=500, **kwargs):
    config = SimulationConfig(
        topology="torus", radix=radix, dims=2, rate=rate,
        warmup_cycles=0, measure_cycles=10, **kwargs,
    )
    sim = Simulator(config)
    for _ in range(cycles):
        sim.step()
    return sim


class TestFaultEvent:
    def test_node_failure_report(self):
        sim = running_sim()
        report = sim.inject_runtime_fault(nodes=[(4, 4)])
        assert report.new_node_faults == ((4, 4),)
        assert report.channels_removed == 12  # 8 internode + inj/del + 2 interchip
        assert report.dropped_in_flight >= 0

    def test_link_failure_report(self):
        sim = running_sim()
        report = sim.inject_runtime_fault(links=[((1, 1), 0, 1)])
        assert report.channels_removed == 2
        assert len(report.new_link_faults) == 1

    def test_structures_rebuilt(self):
        sim = running_sim()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        assert (4, 4) not in sim.net.nodes
        assert (4, 4) not in sim.net.healthy
        assert len(sim.net.scenario.ring_index.rings) == 1
        assert any(ch.on_ring for ch in sim.net.channels)
        assert (4, 4) not in sim.traffic.healthy_set

    def test_no_channel_touches_dead_node(self):
        sim = running_sim()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        for channel in sim.net.channels:
            assert channel.src_node != (4, 4) and channel.dst_node != (4, 4)
        for node in sim.net.nodes.values():
            for module in node.modules:
                for channel in module.outputs.values():
                    assert channel.dst_node != (4, 4)

    def test_bisection_bandwidth_updated(self):
        sim = running_sim()
        before = sim.net.bisection_bandwidth
        sim.inject_runtime_fault(links=[((3, 2), 0, 1)])  # a bisection link
        assert sim.net.bisection_bandwidth == before - 2

    def test_rejected_event_changes_nothing(self):
        sim = running_sim()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        channels_before = len(sim.net.channels)
        # a fatal pattern (this one spans a full torus ring, disconnecting
        # the network) must be rejected atomically
        with pytest.raises(NetworkDisconnectedError):
            sim.inject_runtime_fault(nodes=[(0, j) for j in range(7)])
        assert len(sim.net.channels) == channels_before
        assert sim.fault_events == 1

    def test_overlapping_event_degrades(self):
        # this pattern used to be rejected with RingGeometryError; the
        # degraded-mode pipeline now merges the overlapping rings into one
        # enclosing block, sacrificing the healthy nodes in between
        sim = running_sim()
        sim.inject_runtime_fault(nodes=[(4, 4)])
        report = sim.inject_runtime_fault(nodes=[(5, 6)])
        assert report.degraded_nodes == ((4, 5), (4, 6), (5, 4), (5, 5))
        assert report.convexify_steps >= 1
        assert len(sim.net.scenario.ring_index.rings) == 1
        for coord in report.degraded_nodes:
            assert coord not in sim.net.nodes
            assert coord not in sim.net.healthy
        assert sim.degraded_nodes_total == 4
        sim.drain()
        assert sim.in_flight == 0

    def test_empty_event_rejected(self):
        sim = running_sim()
        with pytest.raises(ValueError):
            sim.inject_runtime_fault()


class TestTrafficContinuity:
    def test_network_keeps_operating_and_drains(self):
        sim = running_sim()
        delivered_before = sum(
            1 for q in sim.queues.values() for _m in q
        )  # just exercise accounting
        sim.inject_runtime_fault(nodes=[(4, 4)])
        for _ in range(600):
            sim.step()
        sim.drain()
        assert sim.in_flight == 0

    def test_messages_detour_after_event(self):
        sim = running_sim(rate=0.0, cycles=5)
        sim.inject_runtime_fault(nodes=[(4, 4)])
        message = sim.inject_message((2, 4), (6, 4))
        sim.drain()
        assert message.consumed_cycle is not None
        assert message.route.misroute_hops > 0 or message.route.normal_hops > 4

    def test_sequential_fault_events(self):
        sim = running_sim()
        first = sim.inject_runtime_fault(nodes=[(2, 2)])
        for _ in range(300):
            sim.step()
        second = sim.inject_runtime_fault(nodes=[(6, 6)])
        for _ in range(300):
            sim.step()
        sim.drain()
        assert sim.in_flight == 0
        assert len(sim.net.scenario.ring_index.rings) == 2

    def test_victims_no_longer_hold_channels(self):
        sim = running_sim(rate=0.03)
        report = sim.inject_runtime_fault(nodes=[(4, 4)])
        lost = set(report.lost_message_ids)
        store = sim.net.store
        for channel in sim.net.channels:
            for vid in store.busy_vids(channel.index):
                assert store.msg[vid].msg_id not in lost

    def test_accounting_consistent_after_event(self):
        sim = running_sim(rate=0.03)
        sim.inject_runtime_fault(nodes=[(4, 4)])
        assert sim.in_flight >= 0
        assert all(v >= 0 for v in sim.outstanding.values())
        sim.drain()
        assert sim.in_flight == 0

    def test_request_reply_survives_event(self):
        sim = running_sim(rate=0.008, protocol_classes=2, request_reply=True)
        sim.inject_runtime_fault(nodes=[(4, 4)])
        for _ in range(500):
            sim.step()
        sim.drain()
        assert sim.in_flight == 0


class TestRuntimeFaultEdgeCases:
    def test_injection_at_cycle_zero(self):
        sim = running_sim(rate=0.01, cycles=0)
        report = sim.inject_runtime_fault(nodes=[(4, 4)])
        assert sim.now == 0
        assert report.cycle == 0
        assert report.dropped_in_flight == 0 and report.dropped_queued == 0
        for _ in range(300):
            sim.step()
        sim.drain()
        assert sim.in_flight == 0

    def test_back_to_back_injections_same_cycle(self):
        sim = running_sim(rate=0.015)
        first = sim.inject_runtime_fault(nodes=[(2, 2)])
        second = sim.inject_runtime_fault(nodes=[(6, 6)])
        assert first.cycle == second.cycle == sim.now
        assert len(sim.net.scenario.ring_index.rings) == 2
        assert sim.fault_events == 2
        sim.drain()
        assert sim.in_flight == 0

    def test_mid_misroute_message_is_killed(self):
        # a worm caught while detouring around one fault region is a
        # victim of the next event, wherever that event lands: its ring
        # geometry may have changed under it
        sim = running_sim(rate=0.0, cycles=0)
        sim.inject_runtime_fault(nodes=[(4, 4)])
        message = sim.inject_message((2, 4), (6, 4))
        steps = 0
        while not (message.route.is_misrouted and message.consumed_cycle is None):
            sim.step()
            steps += 1
            assert steps < 300, "message never started misrouting"
        report = sim.inject_runtime_fault(nodes=[(0, 0)])
        assert message.msg_id in report.lost_message_ids
        sim.drain()
        assert message.consumed_cycle is None  # gone for good: no transport
        assert sim.killed_in_flight >= 1

    def test_survivability_counters_accumulate(self):
        sim = running_sim(rate=0.03)
        report = sim.inject_runtime_fault(nodes=[(4, 4)])
        assert sim.fault_events == 1
        assert sim.killed_in_flight == report.dropped_in_flight
        assert sim.killed_queued == report.dropped_queued
        sim.drain()
        result = sim._result()
        assert result.fault_events == 1
        assert not result.reliability_enabled
        assert result.lost_messages == result.killed_in_flight + result.killed_queued


class TestTraceDeterminism:
    """Same run, same event stream — whatever the heap looks like and
    whichever process ran it.  The kills of one fault event commute, so
    results never showed it, but the victims used to be walked as a set
    of ``Message`` objects (hashed by address) and the TRUNCATE events
    came out in heap order."""

    @staticmethod
    def traced_fault_run(latency):
        from repro.obs import Tracer

        sim = running_sim(rate=0.02, cycles=0, seed=11, detection_latency=latency)
        tracer = Tracer(sim)
        for _ in range(400):
            sim.step()
        report = sim.inject_runtime_fault(nodes=[(3, 3), (3, 4)])
        while sim.reconfig is not None:
            sim.step()
        for _ in range(50):
            sim.step()
        return tracer.events, report

    @pytest.mark.parametrize("latency", [0, 4])
    def test_truncate_order_independent_of_heap(self, latency):
        events, report = self.traced_fault_run(latency)
        # move every later allocation somewhere else
        ballast = [object() for _ in range(5000)] + [[i] for i in range(3000)]
        events_again, report_again = self.traced_fault_run(latency)
        assert len(ballast) == 8000
        assert report.dropped_in_flight >= 2
        # the staged run was followed through its window close
        assert (report.completed_cycle > report.cycle) == bool(latency)
        assert events == events_again
        assert report.lost_message_ids == report_again.lost_message_ids
        assert report.trace_tail == report_again.trace_tail
        if latency == 0:
            truncated = [
                e.msg_id for e in events if e.kind == "truncate" and e.cycle == report.cycle
            ]
            assert truncated == sorted(truncated) == report.lost_message_ids

    def test_exports_identical_in_process_and_in_worker(self, tmp_path):
        from repro import Experiment
        from repro.obs import TraceConfig
        from repro.reliability import FaultCampaign, FaultEvent, ReliabilityConfig

        config = SimulationConfig(
            topology="torus", radix=8, dims=2, rate=0.02, seed=11,
            warmup_cycles=0, measure_cycles=10, detection_latency=4,
        )
        campaign = FaultCampaign([FaultEvent(cycle=400, nodes=((3, 3), (3, 4)))])
        exported = {}
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            Experiment.campaign(
                config, campaign, reliability=ReliabilityConfig(), settle_cycles=100,
                trace=TraceConfig(out_dir=str(out)),
            ).run(jobs=jobs, cache=False)
            exported[jobs] = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert any(name.endswith(".events.jsonl") for name in exported[1])
        assert exported[1] == exported[2]
