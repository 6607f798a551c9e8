"""Unit and behavior tests for the flit-level simulator engine."""

import pytest

from repro.router import UNPIPELINED, ChannelKind
from repro.sim import DeadlockError, SimulationConfig, Simulator

from .channel_helpers import freeze_every_worm


def quiet_config(**kwargs):
    defaults = dict(
        topology="torus",
        radix=8,
        dims=2,
        rate=0.0,
        warmup_cycles=0,
        measure_cycles=10,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestSingleMessage:
    def test_delivered_with_expected_latency(self):
        sim = Simulator(quiet_config())
        message = sim.inject_message((1, 0), (2, 0))
        for _ in range(200):
            sim.step()
            if message.consumed_cycle is not None:
                break
        # one internode hop; 20 flits; injection + internode + interchip +
        # delivery channels with 3/2-cycle module delays: ~28 cycles
        assert message.consumed_cycle is not None
        assert 24 <= message.latency <= 40

    def test_unpipelined_is_faster(self):
        lat = {}
        for timing in (None, UNPIPELINED):
            config = quiet_config() if timing is None else quiet_config(timing=timing)
            sim = Simulator(config)
            message = sim.inject_message((0, 0), (4, 4))
            for _ in range(300):
                sim.step()
                if message.consumed_cycle is not None:
                    break
            lat[config.timing.name] = message.latency
        assert lat["unpipelined"] < lat["pipelined"]

    def test_longer_path_longer_latency(self):
        sim = Simulator(quiet_config())
        near = sim.inject_message((0, 0), (1, 0))
        far = sim.inject_message((0, 1), (4, 5))
        sim.drain()
        assert far.latency > near.latency

    def test_queueing_delay_accounted(self):
        sim = Simulator(quiet_config())
        first = sim.inject_message((0, 0), (4, 0))
        second = sim.inject_message((0, 0), (4, 1))
        third = sim.inject_message((0, 0), (4, 2))
        sim.drain()
        assert first.queueing_delay == 0
        assert third.queueing_delay >= 0
        assert third.injected_cycle >= first.injected_cycle


class TestInjectionLimit:
    def test_at_most_two_outstanding(self):
        config = quiet_config(injection_limit=2)
        sim = Simulator(config)
        for i in range(6):
            sim.inject_message((0, 0), (4, i))
        max_outstanding = 0
        for _ in range(400):
            sim.step()
            max_outstanding = max(max_outstanding, sim.outstanding[(0, 0)])
            if sim.in_flight == 0 and not sim.queues[(0, 0)]:
                break
        assert max_outstanding <= 2

    def test_limit_one_serializes(self):
        config = quiet_config(injection_limit=1)
        sim = Simulator(config)
        a = sim.inject_message((0, 0), (4, 0))
        b = sim.inject_message((0, 0), (4, 1))
        sim.drain()
        assert b.injected_cycle > a.injected_cycle


class TestWormholeSemantics:
    def test_flits_arrive_in_order_and_complete(self):
        sim = Simulator(quiet_config())
        messages = [sim.inject_message((0, y), (5, y)) for y in range(4)]
        sim.drain()
        for message in messages:
            assert message.consumed_cycle is not None
        # every flit of every worm, and nothing more, reached a processor
        delivered = sum(
            channel.transfers
            for channel in sim.net.channels
            if channel.kind is ChannelKind.CONSUMPTION
        )
        assert delivered == sum(message.length for message in messages)

    def test_worm_holds_channels_until_tail(self):
        # A head-of-line blocked worm must not be overtaken on its own VC:
        # all messages between the same pair arrive in injection order.
        sim = Simulator(quiet_config())
        messages = [sim.inject_message((0, 0), (6, 3)) for _ in range(4)]
        sim.drain()
        consumed = [m.consumed_cycle for m in messages]
        assert consumed == sorted(consumed)


class TestStochasticRuns:
    def test_all_injected_eventually_delivered(self):
        config = quiet_config(rate=0.02, warmup_cycles=0, measure_cycles=1500)
        sim = Simulator(config)
        result = sim.run()
        sim.drain()
        assert sim.in_flight == 0
        assert result.delivered > 0

    def test_deterministic_given_seed(self):
        r1 = Simulator(quiet_config(rate=0.01, measure_cycles=800, seed=5)).run()
        r2 = Simulator(quiet_config(rate=0.01, measure_cycles=800, seed=5)).run()
        assert r1.delivered == r2.delivered
        assert r1.avg_latency == r2.avg_latency

    def test_different_seeds_differ(self):
        r1 = Simulator(quiet_config(rate=0.01, measure_cycles=800, seed=5)).run()
        r2 = Simulator(quiet_config(rate=0.01, measure_cycles=800, seed=6)).run()
        assert (r1.delivered, r1.avg_latency) != (r2.delivered, r2.avg_latency)

    def test_faulty_network_run_and_drain(self):
        config = quiet_config(rate=0.015, measure_cycles=1200, fault_percent=5)
        sim = Simulator(config)
        result = sim.run()
        sim.drain()
        assert result.misrouted_messages > 0
        assert sim.in_flight == 0

    def test_throughput_tracks_load_below_saturation(self):
        low = Simulator(quiet_config(rate=0.004, warmup_cycles=400, measure_cycles=1500)).run()
        mid = Simulator(quiet_config(rate=0.008, warmup_cycles=400, measure_cycles=1500)).run()
        assert mid.throughput_flits_per_cycle > 1.5 * low.throughput_flits_per_cycle
        # delivered ~= offered below saturation (64 nodes * rate * cycles)
        offered = 64 * 0.004 * 1500
        assert abs(low.delivered - offered) / offered < 0.2


class TestWatchdog:
    def test_no_false_positive_when_idle(self):
        config = quiet_config(measure_cycles=100, deadlock_threshold=20)
        sim = Simulator(config)
        sim.run()  # nothing in flight: watchdog must not fire

    def test_fires_on_artificial_stall(self):
        config = quiet_config(deadlock_threshold=50)
        sim = Simulator(config)
        message = sim.inject_message((0, 0), (4, 0))
        sim.step()
        # sabotage: freeze the worm by emptying every eligibility ring
        # each step so no flit can ever move again
        with pytest.raises(DeadlockError):
            for _ in range(200):
                freeze_every_worm(sim)
                sim.step()

    def test_error_carries_report(self):
        try:
            self.test_fires_on_artificial_stall()
        except Exception:
            pytest.fail("expected clean DeadlockError handling")

    def test_error_carries_structured_snapshot(self):
        config = quiet_config(deadlock_threshold=50)
        sim = Simulator(config)
        message = sim.inject_message((0, 0), (4, 0))
        sim.step()
        with pytest.raises(DeadlockError) as excinfo:
            for _ in range(200):
                freeze_every_worm(sim)
                sim.step()
        error = excinfo.value
        assert error.cycle > 0
        assert error.worms, "snapshot must name the stuck worms"
        worm = error.worms[0]
        assert worm.msg_id == message.msg_id
        assert (worm.src, worm.dst) == ((0, 0), (4, 0))
        assert error.total_busy >= len(error.worms)
        assert not error.truncated
        assert f"msg#{message.msg_id}" in error.report
        assert str(error.cycle) in str(error)


class TestDeadlockSnapshot:
    def busy_channels(self):
        sim = Simulator(quiet_config(rate=0.05))
        for _ in range(300):
            sim.step()
        return sim.net.channels

    def test_snapshot_truncation_is_reported(self):
        from repro.sim import stuck_worm_snapshot
        from repro.sim.deadlock import format_stuck_worms

        channels = self.busy_channels()
        worms, total = stuck_worm_snapshot(channels, limit=2)
        assert len(worms) == 2
        assert total > 2
        report = format_stuck_worms(worms, total)
        assert "snapshot truncated" in report
        assert f"showing 2 of {total}" in report

    def test_untruncated_snapshot_has_no_note(self):
        from repro.sim import stuck_worm_snapshot
        from repro.sim.deadlock import format_stuck_worms

        channels = self.busy_channels()
        worms, total = stuck_worm_snapshot(channels, limit=10_000)
        assert len(worms) == total
        assert "snapshot truncated" not in format_stuck_worms(worms, total)

    def test_legacy_string_report_still_accepted(self):
        error = DeadlockError(42, "  custom diagnostic")
        assert error.cycle == 42
        assert error.report == "  custom diagnostic"
        assert error.worms == []
        assert not error.truncated


class TestBisectionAccounting:
    def test_bisection_messages_counted(self):
        config = quiet_config(rate=0.01, warmup_cycles=200, measure_cycles=1500)
        result = Simulator(config).run()
        assert 0 < result.bisection_messages < result.delivered
        assert 0.0 < result.bisection_utilization < 1.0

    def test_utilization_zero_at_zero_load(self):
        result = Simulator(quiet_config(measure_cycles=50)).run()
        assert result.bisection_utilization == 0.0
