"""Tests for post-run instrumentation (utilization, hotspots, latency
distributions)."""

import pytest

from repro.analysis import (
    ChannelLoad,
    channel_utilizations,
    hotspot_report,
    latency_histogram,
    latency_summary,
    percentile,
    utilization_heatmap,
)
from repro.sim import SimulationConfig, Simulator


@pytest.fixture(scope="module")
def faulty_run():
    config = SimulationConfig(
        topology="torus", radix=8, dims=2, fault_percent=5,
        rate=0.012, warmup_cycles=300, measure_cycles=1500,
        collect_latencies=True,
    )
    sim = Simulator(config)
    sim.run()
    return sim


class TestChannelUtilization:
    def test_utilizations_bounded(self, faulty_run):
        utilization = channel_utilizations(faulty_run)
        assert utilization
        assert all(0.0 <= value <= 1.0 for value in utilization.values())

    def test_transfers_counted(self, faulty_run):
        assert sum(ch.transfers for ch in faulty_run.net.channels) > 0

    def test_hotspot_fring_hotter(self, faulty_run):
        """The paper's hotspot claim: f-ring channels carry more traffic
        than ordinary channels."""
        report = hotspot_report(faulty_run)
        assert report["f-ring"].count > 0
        assert report["f-ring"].mean_utilization > report["other"].mean_utilization

    def test_channel_load_of_empty(self):
        load = ChannelLoad.of([])
        assert load.count == 0 and load.mean_utilization == 0.0

    def test_warmup_traffic_excluded_from_utilization(self):
        """Regression: utilization must be computed over the measurement
        window, not the whole run — a run whose traffic all happened
        during warmup has zero measured utilization."""
        config = SimulationConfig(
            topology="torus", radix=6, dims=2, rate=0.0,
            warmup_cycles=300, measure_cycles=400,
        )
        sim = Simulator(config)

        def seed(now):
            if now == 5:
                sim.inject_message((0, 0), (3, 3))

        sim.cycle_hooks.append(seed)
        sim.run()
        assert sum(ch.transfers for ch in sim.net.channels) > 0
        utilization = channel_utilizations(sim)
        assert all(value == 0.0 for value in utilization.values())
        report = hotspot_report(sim)
        assert report["other"].mean_utilization == 0.0

    def test_manual_stepping_falls_back_to_whole_run(self):
        config = SimulationConfig(
            topology="torus", radix=6, dims=2, rate=0.0,
            warmup_cycles=0, measure_cycles=10,
        )
        sim = Simulator(config)
        sim.inject_message((0, 0), (3, 0))
        for _ in range(100):
            sim.step()
        assert sim.measure_start_cycle is None
        assert sum(channel_utilizations(sim).values()) > 0


class TestHeatmap:
    def test_renders_grid(self, faulty_run):
        heatmap = utilization_heatmap(faulty_run)
        lines = heatmap.splitlines()
        assert len(lines) == 8 + 2  # rows + axis + scale
        assert "scale" in lines[-1]

    def test_marks_faulty_nodes(self, faulty_run):
        if faulty_run.net.scenario.faults.node_faults:
            assert "#" in utilization_heatmap(faulty_run)

    def test_3d_rejected(self):
        config = SimulationConfig(topology="torus", radix=4, dims=3,
                                  warmup_cycles=0, measure_cycles=10)
        sim = Simulator(config)
        sim.run()
        with pytest.raises(ValueError):
            utilization_heatmap(sim)


class TestLatencyDistribution:
    def test_percentiles(self):
        samples = list(range(1, 101))
        assert percentile(samples, 50) == 50
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100
        assert percentile(samples, 0) == 1

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_summary_fields(self, faulty_run):
        summary = latency_summary(faulty_run.stats.latency_samples)
        assert summary["count"] == len(faulty_run.stats.latency_samples) > 0
        assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["max"]

    def test_summary_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_histogram_bins_sum(self):
        samples = [1.0, 2.0, 3.0, 10.0, 10.0]
        text = latency_histogram(samples, bins=3)
        assert text.count("\n") == 2
        total = sum(int(line.rsplit(" ", 1)[1]) for line in text.splitlines())
        assert total == len(samples)

    def test_histogram_empty(self):
        assert latency_histogram([]) == "(no samples)"

    def test_samples_only_collected_when_enabled(self):
        config = SimulationConfig(topology="torus", radix=6, dims=2,
                                  rate=0.01, warmup_cycles=100, measure_cycles=400)
        sim = Simulator(config)
        sim.run()
        assert sim.stats.latency_samples == []
