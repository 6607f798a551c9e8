"""Performance metrics and confidence intervals.

The paper reports two metrics (Section 6):

* **average message latency** — injection to consumption, in cycles;
* **bisection utilization** ``rho_b`` — bisection messages delivered per
  cycle, times the message length, divided by the (fault-aware) bisection
  bandwidth.

Confidence intervals use the method of batch means: the measurement
window is split into equal batches and the 95% interval computed from the
batch-mean variance ("the 95% confidence interval is within 10% of the
value" is the paper's acceptance criterion, checked by the harness).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import FrozenSet, List, Sequence, Tuple

from ..canonical import to_data

# two-sided 97.5% Student-t quantiles for small degrees of freedom
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447, 7: 2.365,
    8: 2.306, 9: 2.262, 10: 2.228, 11: 2.201, 12: 2.179, 13: 2.160,
    14: 2.145, 15: 2.131, 16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093,
}


def t_quantile_975(dof: int) -> float:
    if dof <= 0:
        return float("inf")
    return _T_975.get(dof, 1.96)


def batch_means_ci(batch_values: List[float]) -> Tuple[float, float]:
    """(mean, 95% half-width) from per-batch means."""
    n = len(batch_values)
    if n == 0:
        return 0.0, 0.0
    mean = sum(batch_values) / n
    if n == 1:
        return mean, float("inf")
    variance = sum((v - mean) ** 2 for v in batch_values) / (n - 1)
    half = t_quantile_975(n - 1) * math.sqrt(variance / n)
    return mean, half


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``0 <= q <= 100``."""
    if not samples:
        raise ValueError("no samples")
    if not 0 <= q <= 100:
        raise ValueError("percentile must be in [0, 100]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return float(ordered[rank - 1])


@dataclass
class SimulationResult:
    """Aggregated outcome of one simulation point."""

    # configuration echo
    topology: str
    radix: int
    dims: int
    router_model: str
    timing_name: str
    fault_percent: int
    rate: float
    message_length: int
    num_vcs: int
    seed: int

    # measurement
    cycles: int
    generated: int
    injected: int
    delivered: int
    delivered_flits: int
    bisection_messages: int
    bisection_bandwidth: int

    avg_latency: float
    latency_ci: float
    avg_queueing: float

    misrouted_messages: int
    avg_misroute_hops: float

    final_source_queue: int
    in_flight_at_end: int

    #: latency tail percentiles (nearest-rank, from the raw per-message
    #: samples; 0.0 unless the run used ``collect_latencies``)
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0

    #: per-batch delivered flits normalized by each batch's *observed*
    #: cycle count, and the matching per-batch mean latencies
    batch_flits: List[float] = field(default_factory=list, repr=False)
    batch_latency: List[float] = field(default_factory=list, repr=False)
    #: cycles actually stepped while each batch was current (uneven
    #: divisions give the last batch the remainder)
    batch_cycles: List[int] = field(default_factory=list, repr=False)

    # --- survivability (runtime faults and the reliability layer) ------
    #: runtime fault events injected over the whole run
    fault_events: int = 0
    #: worms truncated in transit by fault events
    killed_in_flight: int = 0
    #: queued messages dropped by fault events (dead source/destination)
    killed_queued: int = 0
    #: messages that were never delivered: with a reliability layer, the
    #: flows it aborted or gave up on; without one, everything killed
    lost_messages: int = 0
    #: True when a :class:`repro.reliability.ReliableTransport` ran
    reliability_enabled: bool = False
    #: distinct messages delivered at least once (duplicates suppressed)
    unique_delivered: int = 0
    #: retransmitted copies injected by the transport
    retransmitted_messages: int = 0
    #: deliveries suppressed as duplicates at the sink
    duplicate_messages: int = 0
    #: delivery acknowledgements sent by sinks
    acks_sent: int = 0
    #: retransmissions triggered by timer expiry (vs. fault notification)
    timeouts_fired: int = 0
    #: time-to-recover per fault event, in cycles (events whose killed
    #: flows were all re-delivered or resolved; see the campaign runner)
    recovery_cycles: List[int] = field(default_factory=list, repr=False)
    #: healthy nodes sacrificed by the degraded-mode convexification
    #: (static build plus every runtime event)
    degraded_nodes: int = 0
    #: extra convexification passes the degrade pipeline needed in total
    convexify_steps: int = 0
    #: worms truncated mid-transition-window by the stale-knowledge
    #: fallback (detection_latency > 0 only)
    window_losses: int = 0
    #: cycles each reconfiguration transition window stayed open
    #: (fault event to staged f-ring reconstruction complete)
    detection_cycles: List[int] = field(default_factory=list, repr=False)

    @property
    def delivery_ratio(self) -> float:
        """Unique deliveries over tracked generated messages (1.0 means
        exactly-once delivery of everything; requires the reliability
        layer for the numerator to be meaningful)."""
        tracked = self.unique_delivered + self.lost_messages
        return self.unique_delivered / tracked if tracked else 0.0

    @property
    def applied_load_flits_per_node(self) -> float:
        """Offered load in flits per node per cycle."""
        return self.rate * self.message_length

    @property
    def throughput_flits_per_cycle(self) -> float:
        return self.delivered_flits / self.cycles if self.cycles else 0.0

    @property
    def messages_per_cycle(self) -> float:
        return self.delivered / self.cycles if self.cycles else 0.0

    @property
    def bisection_utilization(self) -> float:
        """The paper's rho_b."""
        if not self.cycles or not self.bisection_bandwidth:
            return 0.0
        per_cycle = self.bisection_messages / self.cycles
        return per_cycle * self.message_length / self.bisection_bandwidth

    @property
    def throughput_ci(self) -> Tuple[float, float]:
        return batch_means_ci(self.batch_flits)

    @property
    def saturated(self) -> bool:
        """Heuristic: the sources could not keep up with the offered load
        (queues grew) — the point is at or past saturation."""
        return self.final_source_queue > 2 * self.radix**self.dims

    def scaled_latency(self, clock_scale: float) -> float:
        """Latency in *pipelined-router clock* units for cross-clock
        comparisons (Figure 10's discussion)."""
        return self.avg_latency * clock_scale

    def to_dict(self) -> dict:
        """JSON-friendly dict: ``to_data(self)`` plus the derived
        metrics (for plotting pipelines downstream of the harness)."""
        data = to_data(self)
        data.update(
            applied_load_flits_per_node=self.applied_load_flits_per_node,
            throughput_flits_per_cycle=self.throughput_flits_per_cycle,
            messages_per_cycle=self.messages_per_cycle,
            bisection_utilization=self.bisection_utilization,
            saturated=self.saturated,
        )
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output (or its JSON
        round-trip).  Derived metrics included by ``to_dict`` are ignored;
        unknown keys are tolerated so stores written by newer code still
        load where possible."""
        names = _field_names(cls)
        return cls(**{k: v for k, v in data.items() if k in names})

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        return cls.from_dict(json.loads(text))

    @staticmethod
    def sweep_to_json(results: List["SimulationResult"]) -> str:
        """Serialize a whole sweep (one JSON array)."""
        return json.dumps([r.to_dict() for r in results], sort_keys=True)

    def row(self) -> str:
        """One formatted table row for harness output."""
        return (
            f"rate={self.rate:.4f} load={self.applied_load_flits_per_node:.3f} "
            f"thr={self.throughput_flits_per_cycle:7.2f} f/c "
            f"rho_b={100 * self.bisection_utilization:5.1f}% "
            f"lat={self.avg_latency:7.1f} (+-{self.latency_ci:.1f}) "
            f"msgs={self.delivered}"
        )


@lru_cache(maxsize=None)
def _field_names(cls: type) -> FrozenSet[str]:
    """A result class's field names, read once per class rather than on
    every :meth:`SimulationResult.from_dict`."""
    return frozenset(spec.name for spec in fields(cls))
