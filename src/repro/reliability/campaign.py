"""Fault-injection campaigns: scripted or seeded timelines of runtime
fault events driven into a live simulator.

The paper's operational story (Section 3) is a machine that keeps
running while components fail one after another over a long deployment.
A :class:`FaultCampaign` is that story as data — an ordered list of
:class:`FaultEvent`\\ s — and :func:`run_campaign` replays it against a
:class:`~repro.sim.engine.Simulator`, measuring per-epoch throughput and
latency, per-event losses, and (when a
:class:`~repro.reliability.transport.ReliableTransport` is attached)
time-to-recover for every injection.

Three seeded generators cover the standard survivability workloads:

* :meth:`FaultCampaign.rolling` — isolated components die one at a time;
* :meth:`FaultCampaign.bursts` — whole rectangular regions (boards) die
  at once;
* :meth:`FaultCampaign.fail_then_grow` — one failure whose region then
  spreads outward step by step (a spreading short / thermal event).

Every generated event is pre-validated against the block-fault model
(convexity, non-overlapping f-rings, connectivity) applied to the
*cumulative* fault set, so a seeded campaign injects cleanly in order.

:meth:`FaultCampaign.chaos` is the deliberate exception: it draws
arbitrary multi-component patterns with **no** convexity or overlap
screening, exercising the degraded-mode convexification pipeline at
injection time; only fatally invalid draws (disconnection, mesh boundary
faults) are re-drawn.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from ..canonical import canonical_digest
from ..faults import (
    FaultGenerationError,
    FaultSet,
    degrade_fault_pattern,
    validate_fault_pattern,
)
from ..topology import Coord, GridNetwork

from .stats import ReliabilityStats


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled runtime fault: at ``cycle`` (relative to campaign
    start), the named nodes and links fail simultaneously."""

    cycle: int
    nodes: Tuple[Coord, ...] = ()
    links: Tuple[Tuple[Coord, int, int], ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault events need a non-negative cycle")
        if not self.nodes and not self.links:
            raise ValueError("a fault event needs at least one node or link")

    def describe(self) -> str:
        if self.label:
            return self.label
        parts = []
        if self.nodes:
            parts.append("nodes " + ", ".join(map(str, self.nodes)))
        if self.links:
            parts.append("links " + ", ".join(map(str, self.links)))
        return "; ".join(parts)

    def to_dict(self) -> dict:
        """JSON-safe form (tuples become lists), for canonical hashing
        and checkpoint manifests."""
        return {
            "cycle": self.cycle,
            "nodes": [list(coord) for coord in self.nodes],
            "links": [[list(coord), dim, direction] for coord, dim, direction in self.links],
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        return cls(
            cycle=int(data["cycle"]),
            nodes=tuple(tuple(coord) for coord in data.get("nodes", [])),
            links=tuple(
                (tuple(coord), int(dim), int(direction))
                for coord, dim, direction in data.get("links", [])
            ),
            label=data.get("label", ""),
        )


class FaultCampaign:
    """An ordered timeline of fault events (cycles relative to the cycle
    at which the campaign starts running)."""

    def __init__(self, events: Iterable[FaultEvent]):
        self.events: List[FaultEvent] = sorted(events, key=lambda e: e.cycle)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def horizon(self) -> int:
        """Cycle of the last event (0 for an empty campaign)."""
        return self.events[-1].cycle if self.events else 0

    # ------------------------------------------------------------------
    # canonical identity
    # ------------------------------------------------------------------
    def to_canonical(self) -> dict:
        """A JSON-safe dict that uniquely identifies this campaign's
        timeline — the basis of checkpoint task keys."""
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_canonical(cls, data: dict) -> "FaultCampaign":
        return cls(FaultEvent.from_dict(entry) for entry in data.get("events", []))

    def content_hash(self, version_tag: str = "") -> str:
        """Stable hash of the canonical timeline (plus an optional
        code-version tag), mirroring
        :meth:`~repro.sim.config.SimulationConfig.content_hash`."""
        return canonical_digest({"campaign": self.to_canonical(), "version": version_tag})

    # ------------------------------------------------------------------
    # seeded generators
    # ------------------------------------------------------------------
    @classmethod
    def rolling(
        cls,
        topology: GridNetwork,
        *,
        count: int = 3,
        start: int = 1_000,
        interval: int = 1_500,
        seed: int = 0,
        kind: str = "node",
    ) -> "FaultCampaign":
        """Isolated failures, one per event, spaced ``interval`` cycles
        apart.  ``kind`` is ``"node"``, ``"link"`` or ``"mixed"``."""
        if kind not in ("node", "link", "mixed"):
            raise ValueError("kind must be one of node/link/mixed")
        rng = random.Random(seed)
        merged = FaultSet()
        events: List[FaultEvent] = []
        for index in range(count):
            pick_link = kind == "link" or (kind == "mixed" and rng.random() < 0.5)
            placed = _place(
                topology,
                merged,
                rng,
                lambda r: _random_link(topology, r) if pick_link else _random_node(topology, r),
            )
            if placed is None:
                break  # the pattern is too crowded to extend further
            merged, event_nodes, event_links = placed
            events.append(
                FaultEvent(
                    cycle=start + index * interval,
                    nodes=event_nodes,
                    links=event_links,
                    label=(
                        f"link {event_links[0]} dies"
                        if event_links
                        else f"node {event_nodes[0]} dies"
                    ),
                )
            )
        return cls(events)

    @classmethod
    def bursts(
        cls,
        topology: GridNetwork,
        *,
        bursts: int = 2,
        burst_size: int = 2,
        start: int = 1_000,
        interval: int = 2_000,
        seed: int = 0,
    ) -> "FaultCampaign":
        """Board-style failures: each event kills a ``burst_size`` ×
        ``burst_size`` block of nodes at once."""
        rng = random.Random(seed)
        merged = FaultSet()
        events: List[FaultEvent] = []
        for index in range(bursts):
            placed = _place(
                topology,
                merged,
                rng,
                lambda r: _random_block(topology, r, burst_size),
            )
            if placed is None:
                break
            merged, event_nodes, _links = placed
            events.append(
                FaultEvent(
                    cycle=start + index * interval,
                    nodes=event_nodes,
                    label=f"board of {len(event_nodes)} nodes dies",
                )
            )
        return cls(events)

    @classmethod
    def fail_then_grow(
        cls,
        topology: GridNetwork,
        *,
        steps: int = 3,
        start: int = 1_000,
        interval: int = 1_500,
        seed: int = 0,
    ) -> "FaultCampaign":
        """One failure whose region then grows: step ``i`` expands the
        initial node to an ``(i+1)`` × ``(i+1)`` block (each event adds
        only the newly dead cells, so injections stay incremental)."""
        rng = random.Random(seed)
        radix = topology.radix
        if steps > radix - 2:
            raise ValueError("growth exceeds the network radius")
        merged = FaultSet()
        events: List[FaultEvent] = []
        for _attempt in range(200):
            anchor = tuple(
                [rng.randrange(1, radix - steps) for _ in range(2)]
                + [rng.randrange(radix) for _ in range(topology.dims - 2)]
            )
            candidate_events: List[FaultEvent] = []
            grown: Optional[FaultSet] = FaultSet()
            previous: set = set()
            for step in range(steps):
                block = set(_block_cells(anchor, step + 1, topology.dims))
                fresh = tuple(sorted(block - previous))
                grown = _validated(topology, grown, nodes=fresh)
                if grown is None:
                    break
                previous = block
                candidate_events.append(
                    FaultEvent(
                        cycle=start + step * interval,
                        nodes=fresh,
                        label=f"region grows to {len(block)} nodes",
                    )
                )
            if grown is not None and len(candidate_events) == steps:
                merged = grown
                events = candidate_events
                break
        return cls(events)

    @classmethod
    def chaos(
        cls,
        topology: GridNetwork,
        *,
        count: int = 3,
        start: int = 1_000,
        interval: int = 1_500,
        seed: int = 0,
        max_nodes: int = 2,
        max_links: int = 1,
    ) -> "FaultCampaign":
        """Arbitrary (not pre-blocked) fault patterns: each event draws a
        random handful of nodes and links with no convexity, adjacency or
        f-ring-overlap screening, so the runtime degraded-mode pipeline
        must convexify the pattern at injection time — possibly
        sacrificing healthy nodes.  Only draws that are fatal against the
        cumulative *degraded* fault set (disconnecting the network, mesh
        boundary faults) are re-drawn."""
        rng = random.Random(seed)
        merged = FaultSet()
        events: List[FaultEvent] = []
        all_nodes = list(topology.nodes())
        for index in range(count):
            placed = None
            for _ in range(200):
                candidates = [c for c in all_nodes if c not in merged.node_faults]
                nodes = rng.sample(candidates, min(rng.randint(1, max_nodes), len(candidates)))
                node_set = set(nodes) | merged.node_faults
                links = []
                for _ in range(rng.randint(0, max_links)):
                    candidate = _random_link(topology, rng)
                    if candidate is None:
                        continue
                    ((coord, dim, direction),) = candidate[1]
                    if coord in node_set or topology.neighbor(coord, dim, direction) in node_set:
                        continue
                    links.append((coord, dim, direction))
                try:
                    addition = FaultSet.of(topology, nodes=nodes, links=links)
                    scenario, _info = degrade_fault_pattern(
                        topology, merged.merged_with(addition)
                    )
                except (ValueError, FaultGenerationError):
                    continue
                placed = (scenario.faults, tuple(nodes), tuple(links))
                break
            if placed is None:
                break
            # the cumulative set tracks the *degraded* outcome, matching
            # what the live network will actually have installed when the
            # next event lands
            merged, event_nodes, event_links = placed
            events.append(
                FaultEvent(
                    cycle=start + index * interval,
                    nodes=event_nodes,
                    links=event_links,
                    label=f"chaos: {len(event_nodes)} nodes, {len(event_links)} links",
                )
            )
        return cls(events)


# ----------------------------------------------------------------------
# candidate generation helpers
# ----------------------------------------------------------------------
def _random_node(topology: GridNetwork, rng: random.Random):
    coord = tuple(rng.randrange(topology.radix) for _ in range(topology.dims))
    return (coord,), ()


def _random_link(topology: GridNetwork, rng: random.Random):
    coord = tuple(rng.randrange(topology.radix) for _ in range(topology.dims))
    dim = rng.randrange(topology.dims)
    direction = rng.choice((-1, 1))
    if topology.neighbor(coord, dim, direction) is None:
        return None
    return (), ((coord, dim, direction),)


def _random_block(topology: GridNetwork, rng: random.Random, size: int):
    radix = topology.radix
    if size >= radix - 1:
        return None
    anchor = tuple(
        [rng.randrange(1, radix - size) for _ in range(2)]
        + [rng.randrange(radix) for _ in range(topology.dims - 2)]
    )
    return tuple(sorted(_block_cells(anchor, size, topology.dims))), ()


def _block_cells(anchor: Coord, size: int, dims: int):
    for dx in range(size):
        for dy in range(size):
            yield (anchor[0] + dx, anchor[1] + dy) + tuple(anchor[2:dims])


def _validated(topology, base: FaultSet, *, nodes=(), links=()) -> Optional[FaultSet]:
    """Merge a candidate addition into ``base`` and validate the result
    against the block-fault model; None if the pattern is rejected."""
    try:
        addition = FaultSet.of(topology, nodes=nodes, links=links)
        merged = base.merged_with(addition)
        validate_fault_pattern(topology, merged, allow_blocking=True)
    except (ValueError, FaultGenerationError):
        return None
    return merged


def _place(topology, merged: FaultSet, rng: random.Random, candidate_fn, tries: int = 200):
    """Draw candidates until one validates against the cumulative fault
    set; returns (new merged set, nodes, links) or None."""
    for _ in range(tries):
        candidate = candidate_fn(rng)
        if candidate is None:
            continue
        nodes, links = candidate
        if any(n in merged.node_faults for n in nodes):
            continue
        new_merged = _validated(topology, merged, nodes=nodes, links=links)
        if new_merged is not None and new_merged != merged:
            return new_merged, tuple(nodes), tuple(links)
    return None


# ----------------------------------------------------------------------
# campaign execution
# ----------------------------------------------------------------------
@dataclass
class EpochStats:
    """Throughput/latency measured over one inter-event epoch."""

    label: str
    start_cycle: int
    cycles: int
    delivered: int
    avg_latency: float

    @property
    def throughput(self) -> float:
        """Delivered messages per cycle inside the epoch."""
        return self.delivered / self.cycles if self.cycles else 0.0


@dataclass
class InjectionRecord:
    """What one scheduled event did when the campaign replayed it."""

    index: int
    event: FaultEvent
    applied: bool
    cycle: int
    error: str = ""
    report: Optional[object] = None  # ReconfigurationReport when applied
    #: cycles from injection until every flow the event killed reached a
    #: terminal state (needs an attached transport; None while pending
    #: or when no transport ran)
    time_to_recover: Optional[int] = None
    #: the degraded-mode epoch following this event
    epoch: Optional[EpochStats] = None


@dataclass
class CampaignOutcome:
    """Everything one campaign replay produced."""

    baseline: Optional[EpochStats]
    records: List[InjectionRecord]
    stats: Optional[ReliabilityStats]
    final_cycle: int
    drained: bool

    @property
    def applied_events(self) -> int:
        return sum(1 for r in self.records if r.applied)

    @property
    def degraded_throughput_ratio(self) -> Optional[float]:
        """Mean degraded-epoch throughput over the healthy baseline
        (1.0 = no degradation); None without a baseline."""
        if self.baseline is None or self.baseline.throughput == 0.0:
            return None
        epochs = [r.epoch for r in self.records if r.applied and r.epoch is not None]
        if not epochs:
            return None
        mean = sum(e.throughput for e in epochs) / len(epochs)
        return mean / self.baseline.throughput


def replay_campaign(
    sim,
    campaign: FaultCampaign,
    *,
    settle_cycles: int = 1_000,
    drain: bool = True,
) -> CampaignOutcome:
    """Replay a campaign against a live simulator.

    Steps the simulator to each event's cycle (relative to ``sim.now`` at
    entry), injects the event via
    :meth:`~repro.sim.engine.Simulator.inject_runtime_fault`, and keeps
    per-epoch throughput/latency.  Events rejected by the fault model
    (e.g. a scripted event whose f-ring would overlap an earlier one) are
    recorded with ``applied=False`` and the campaign continues — a
    survivability run should not die because one injection was
    geometrically impossible.

    After the last event the simulator runs ``settle_cycles`` more, then
    (by default) drains: with a transport attached, draining also waits
    for every retransmission to be acknowledged.
    """
    start = sim.now
    if not sim._measuring:
        sim._start_measurement()
    transport = sim.reliability

    mark_delivered = sim.delivered
    mark_latency = sim.latency_sum
    mark_cycle = sim.now

    def close_epoch(label: str) -> EpochStats:
        nonlocal mark_delivered, mark_latency, mark_cycle
        delivered = sim.delivered - mark_delivered
        latency_sum = sim.latency_sum - mark_latency
        epoch = EpochStats(
            label=label,
            start_cycle=mark_cycle,
            cycles=sim.now - mark_cycle,
            delivered=delivered,
            avg_latency=latency_sum / delivered if delivered else 0.0,
        )
        mark_delivered = sim.delivered
        mark_latency = sim.latency_sum
        mark_cycle = sim.now
        return epoch

    baseline: Optional[EpochStats] = None
    records: List[InjectionRecord] = []
    track_indices: List[Optional[int]] = []

    for index, event in enumerate(campaign.events):
        while sim.now < start + event.cycle:
            sim.step()
        epoch = close_epoch("baseline" if index == 0 else f"after event {index - 1}")
        if index == 0:
            baseline = epoch
        elif records:
            records[-1].epoch = epoch
        try:
            report = sim.inject_runtime_fault(nodes=event.nodes, links=event.links)
        except (ValueError, FaultGenerationError) as exc:
            records.append(
                InjectionRecord(
                    index=index, event=event, applied=False, cycle=sim.now, error=str(exc)
                )
            )
            track_indices.append(None)
            continue
        records.append(
            InjectionRecord(
                index=index, event=event, applied=True, cycle=sim.now, report=report
            )
        )
        track_indices.append(len(transport.fault_events) - 1 if transport else None)

    for _ in range(settle_cycles):
        sim.step()
    final_epoch = close_epoch(f"after event {len(records) - 1}" if records else "baseline")
    if records:
        records[-1].epoch = final_epoch
    elif baseline is None:
        baseline = final_epoch

    if drain:
        sim.drain()

    if transport is not None:
        for record, track_index in zip(records, track_indices):
            if track_index is not None:
                record.time_to_recover = transport.fault_events[track_index].time_to_recover

    return CampaignOutcome(
        baseline=baseline,
        records=records,
        stats=transport.stats if transport is not None else None,
        final_cycle=sim.now,
        drained=drain,
    )


def run_campaign(
    sim,
    campaign: FaultCampaign,
    *,
    settle_cycles: int = 1_000,
    drain: bool = True,
) -> CampaignOutcome:
    """Deprecated alias of :func:`replay_campaign`.

    New code should either replay against a live simulator with
    :func:`replay_campaign` or — for config-driven runs — use
    :meth:`repro.api.Experiment.campaign`, which also parallelizes
    replicas across worker processes.
    """
    warnings.warn(
        "run_campaign is deprecated; use replay_campaign (live simulator) "
        "or repro.api.Experiment.campaign (config-driven)",
        DeprecationWarning,
        stacklevel=2,
    )
    return replay_campaign(sim, campaign, settle_cycles=settle_cycles, drain=drain)
