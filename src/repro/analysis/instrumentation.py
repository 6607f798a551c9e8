"""Post-run instrumentation: channel utilization maps, hotspot analysis
and latency distributions.

Section 6 explains the faulty-network performance drop qualitatively:
"an f-ring becomes a hotspot causing performance degradation" because
"some physical channels in an f-ring may need to handle traffic many
times the traffic of a channel not on any f-ring".  These tools make
that claim measurable: run a simulation, then compare the utilization of
f-ring channels against the rest, or render the whole network as an
ASCII heatmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..router.channels import ChannelKind
from ..sim.engine import Simulator
from ..sim.metrics import percentile


@dataclass(frozen=True)
class ChannelLoad:
    """Utilization summary of one group of channels."""

    count: int
    mean_utilization: float
    max_utilization: float

    @staticmethod
    def of(utilizations: Sequence[float]) -> "ChannelLoad":
        if not utilizations:
            return ChannelLoad(0, 0.0, 0.0)
        return ChannelLoad(
            len(utilizations),
            sum(utilizations) / len(utilizations),
            max(utilizations),
        )


def _measurement_window(simulator: Simulator) -> Tuple[int, List[int]]:
    """Denominator and per-channel transfer baseline for utilization.

    When the run went through the warmup boundary
    (``Simulator.measure_start_cycle`` is set), utilization is computed
    over the measurement window only — dividing by ``simulator.now``
    would mix warmup traffic into the claim.  Runs driven without
    ``run()`` (tests, drains) fall back to whole-run utilization."""
    start = simulator.measure_start_cycle
    if start is None:
        return max(simulator.now, 1), []
    return max(simulator.now - start, 1), simulator._measure_transfer_base


def _channel_utilization(channel, cycles: int, base: List[int]) -> float:
    return (channel.transfers - (base[channel.index] if base else 0)) / cycles


def channel_utilizations(simulator: Simulator) -> Dict[str, float]:
    """Per-internode-channel utilization (flits transferred per cycle
    over the measurement window), keyed by channel name."""
    cycles, base = _measurement_window(simulator)
    return {
        channel.name: _channel_utilization(channel, cycles, base)
        for channel in simulator.net.channels
        if channel.kind is ChannelKind.INTERNODE
    }


def hotspot_report(simulator: Simulator) -> Dict[str, ChannelLoad]:
    """Utilization of f-ring channels versus ordinary channels — the
    quantified version of the paper's hotspot observation."""
    cycles, base = _measurement_window(simulator)
    ring, other = [], []
    for channel in simulator.net.channels:
        if channel.kind is not ChannelKind.INTERNODE:
            continue
        (ring if channel.on_ring else other).append(
            _channel_utilization(channel, cycles, base)
        )
    return {"f-ring": ChannelLoad.of(ring), "other": ChannelLoad.of(other)}


def utilization_heatmap(simulator: Simulator) -> str:
    """ASCII heatmap of 2D networks: each cell shows the mean utilization
    of the internode channels *leaving* that node, on a 0-9 scale ('#' for
    faulty nodes)."""
    net = simulator.net
    topology = net.topology
    if topology.dims != 2:
        raise ValueError("the heatmap renders 2D networks only")
    cycles, base = _measurement_window(simulator)
    per_node: Dict[Tuple[int, int], List[float]] = {}
    for channel in net.channels:
        if channel.kind is ChannelKind.INTERNODE:
            per_node.setdefault(channel.src_node, []).append(
                _channel_utilization(channel, cycles, base)
            )
    peak = max((max(v) for v in per_node.values() if v), default=1.0) or 1.0
    faulty = net.scenario.faults.node_faults
    lines = []
    for y in reversed(range(topology.radix)):
        row = []
        for x in range(topology.radix):
            if (x, y) in faulty:
                row.append("#")
            else:
                values = per_node.get((x, y), [])
                mean = sum(values) / len(values) if values else 0.0
                row.append(str(min(9, int(round(9 * mean / peak)))))
        lines.append(f"{y:2d} " + " ".join(row))
    lines.append("   " + " ".join(str(x % 10) for x in range(topology.radix)))
    lines.append(f"(scale: 9 = {peak:.2f} flits/cycle; '#' = faulty node)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# latency distributions
# ----------------------------------------------------------------------
# ``percentile`` lives in repro.sim.metrics (SimulationResult reports the
# tail percentiles directly); re-exported here for existing importers.

def latency_summary(samples: Sequence[float]) -> Dict[str, float]:
    """Mean plus the usual tail percentiles."""
    if not samples:
        return {"count": 0}
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 50),
        "p90": percentile(samples, 90),
        "p99": percentile(samples, 99),
        "max": float(max(samples)),
    }


def latency_histogram(samples: Sequence[float], *, bins: int = 12, width: int = 50) -> str:
    """ASCII histogram of message latencies."""
    if not samples:
        return "(no samples)"
    lo, hi = min(samples), max(samples)
    span = (hi - lo) or 1.0
    counts = [0] * bins
    for sample in samples:
        index = min(bins - 1, int((sample - lo) / span * bins))
        counts[index] += 1
    peak = max(counts)
    lines = []
    for index, count in enumerate(counts):
        left = lo + index * span / bins
        right = lo + (index + 1) * span / bins
        bar = "#" * (round(width * count / peak) if peak else 0)
        lines.append(f"{left:7.1f}-{right:7.1f} | {bar} {count}")
    return "\n".join(lines)
