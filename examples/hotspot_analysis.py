#!/usr/bin/env python3
"""Quantifying the f-ring hotspot.

Section 6 explains the sharp performance drop at the first fault:
"an f-ring represents a two-lane path to a message that needs to go
through the block fault ... some physical channels in an f-ring may need
to handle traffic many times the traffic of a channel not on any f-ring.
Thus an f-ring becomes a hotspot."

This example measures that directly: it runs a faulty torus at moderate
load with the observability tracer attached, prints the utilization
heatmap (watch the bright band around the fault), the f-ring-vs-ordinary
channel load ratio, the *per-window time series* of the same two loads
(the hotspot is persistent, not an end-of-run artifact), and the latency
tail that misrouted messages grow.

Run:  python examples/hotspot_analysis.py
"""

from repro import FaultSet, SimulationConfig, Simulator, Torus
from repro.analysis import (
    ascii_chart,
    hotspot_report,
    latency_histogram,
    latency_summary,
    utilization_heatmap,
)
from repro.obs import TraceConfig, Tracer

RADIX = 12


def main() -> None:
    torus = Torus(RADIX, 2)
    faults = FaultSet.of(torus, nodes=[(5, 5), (6, 5), (5, 6), (6, 6)])
    config = SimulationConfig(
        topology="torus",
        radix=RADIX,
        dims=2,
        faults=faults,
        rate=0.012,
        warmup_cycles=800,
        measure_cycles=5_000,
        collect_latencies=True,
    )
    simulator = Simulator(config)
    tracer = Tracer(simulator, TraceConfig(window=200, events=False))
    result = simulator.run()

    print(f"{RADIX}x{RADIX} torus, 2x2 block fault, "
          f"{result.applied_load_flits_per_node:.2f} flits/node/cycle offered\n")

    print("channel utilization heatmap (mean outbound flits/cycle per node):")
    print(utilization_heatmap(simulator))
    print()

    report = hotspot_report(simulator)
    ring = report["f-ring"]
    other = report["other"]
    print(f"f-ring channels : {ring.count:4d} channels, "
          f"mean {ring.mean_utilization:.3f}, peak {ring.max_utilization:.3f} flits/cycle")
    print(f"other channels  : {other.count:4d} channels, "
          f"mean {other.mean_utilization:.3f}, peak {other.max_utilization:.3f} flits/cycle")
    print(f"hotspot ratio   : {ring.mean_utilization / other.mean_utilization:.2f}x "
          "(the paper's 'many times the traffic' channels)\n")

    series = tracer.series
    print(f"f-ring vs ordinary utilization over time "
          f"(per {series.window}-cycle window):")
    print(ascii_chart(
        {"f-ring": series.ring_series(), "other": series.other_series()},
        x_label="cycle",
        y_label="flits/cycle",
    ))
    print(f"mean per-window gap: {series.mean_ring_gap():+.3f} flits/cycle "
          "(positive in every window: the hotspot never goes away)\n")

    summary = latency_summary(simulator.stats.latency_samples)
    print(f"latency: mean {summary['mean']:.1f}, p50 {summary['p50']:.0f}, "
          f"p90 {summary['p90']:.0f}, p99 {summary['p99']:.0f}, max {summary['max']:.0f}")
    print(f"misrouted messages: {result.misrouted_messages} "
          f"({100 * result.misrouted_messages / result.delivered:.1f}% of deliveries)\n")
    print(latency_histogram(simulator.stats.latency_samples, bins=10))


if __name__ == "__main__":
    main()
