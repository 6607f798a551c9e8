"""The simulation tier: attach performance distributions to MC classes.

Classification says *whether* the network survives a pattern; this tier
says *how well*.  From each cell's per-class reservoirs (the lowest
pattern indices per class — a deterministic stratified subsample) it
re-draws the exact FaultSets through the index-addressed sampler,
wraps each in a full :class:`~repro.sim.config.SimulationConfig`, runs
them through the executor as ordinary cacheable point tasks, and
reports throughput/latency degradation relative to the cell's
fault-free baseline.

Patterns classified fatal are never simulated (there is nothing to
run); policies that cannot build a relation for a surviving pattern
would have classified it fatal already.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exec.executor import ExecPolicy, ExecutionStats, PointTask, execute
from ..exec.store import ResultStore
from ..sim.config import SimulationConfig
from .classify import DEGRADED, ROUTABLE
from .engine import CellEstimate
from .sampler import PatternSampler

__all__ = ["SimTierRow", "simulation_configs", "run_simulation_tier"]

#: Classes eligible for simulation, in reporting order.
SIMULATED_CLASSES = (ROUTABLE, DEGRADED)


@dataclass
class SimTierRow:
    """One simulated pattern's performance next to its baseline."""

    cell_key: str
    label: str
    pattern_index: int
    throughput: float  #: delivered flits per cycle
    avg_latency: float
    throughput_ratio: float  #: vs the cell's fault-free baseline
    latency_ratio: float


def _base_config(estimate: CellEstimate, **overrides: Any) -> SimulationConfig:
    cell = estimate.cell
    return SimulationConfig(
        topology=cell.topology,
        radix=cell.radix,
        dims=cell.dims,
        routing_algorithm=cell.policy or "ft",
        allow_overlapping_rings=cell.allow_overlapping_rings,
        **overrides,
    )


def simulation_configs(
    estimate: CellEstimate,
    *,
    master_seed: int,
    per_class: int = 2,
    **overrides: Any,
) -> List[Tuple[str, int, SimulationConfig]]:
    """``(label, pattern_index, config)`` for the stratified subsample.

    ``overrides`` are passed straight to :class:`SimulationConfig`
    (rate, warmup/measure cycles, seed, ...).  Deterministic: the
    reservoirs hold the lowest pattern indices per class regardless of
    execution order, and the sampler re-draws each index exactly.
    """
    cell = estimate.cell
    if cell.total_faults == 0:
        return []
    sampler = PatternSampler(
        cell.network(),
        cell.num_node_faults,
        cell.num_link_faults,
        master_seed=master_seed,
        cell_key=cell.key(),
    )
    picks: List[Tuple[str, int, SimulationConfig]] = []
    for label in SIMULATED_CLASSES:
        for index in estimate.reservoirs.get(label, ())[:per_class]:
            faults = sampler.draw(index)
            picks.append(
                (label, index, _base_config(estimate, faults=faults, **overrides))
            )
    return picks


def run_simulation_tier(
    estimates: List[CellEstimate],
    *,
    master_seed: int,
    per_class: int = 2,
    jobs: Optional[int] = 1,
    store: Optional[ResultStore] = None,
    policy: Optional[ExecPolicy] = None,
    progress: Optional[Callable[..., None]] = None,
    **overrides: Any,
) -> Tuple[List[SimTierRow], ExecutionStats]:
    """Simulate the stratified subsample of every estimate.

    Each cell also runs one fault-free baseline config (cached across
    cells that share a network and policy), so the rows report ratios,
    not just absolutes.
    """
    tasks: List[PointTask] = []
    meta: List[Tuple[str, str, int]] = []  #: (cell_key, label, pattern_index)
    baseline_slots: Dict[str, int] = {}  #: cell_key -> task index of baseline
    for estimate in estimates:
        picks = simulation_configs(
            estimate, master_seed=master_seed, per_class=per_class, **overrides
        )
        if not picks:
            continue
        baseline = _base_config(estimate, faults=None, **overrides)
        baseline_slots[estimate.cell.key()] = len(tasks)
        tasks.append(PointTask(baseline))
        meta.append((estimate.cell.key(), "baseline", -1))
        for label, index, config in picks:
            tasks.append(PointTask(config))
            meta.append((estimate.cell.key(), label, index))
    if not tasks:
        return [], ExecutionStats(jobs=1)
    results, stats = execute(
        tasks, jobs=jobs, store=store, policy=policy, progress=progress
    )
    rows: List[SimTierRow] = []
    for (cell_key, label, index), result in zip(meta, results):
        if label == "baseline":
            continue
        base = results[baseline_slots[cell_key]]
        base_tp = base.throughput_flits_per_cycle or 1.0
        base_lat = base.avg_latency or 1.0
        rows.append(
            SimTierRow(
                cell_key=cell_key,
                label=label,
                pattern_index=index,
                throughput=result.throughput_flits_per_cycle,
                avg_latency=result.avg_latency,
                throughput_ratio=result.throughput_flits_per_cycle / base_tp,
                latency_ratio=result.avg_latency / base_lat,
            )
        )
    return rows, stats
