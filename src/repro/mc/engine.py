"""The Monte-Carlo engine: cells, shard tasks, and the early-stopping loop.

A **cell** is one point of the reliability surface — (topology, fault
counts, routing policy).  Its sample stream is cut into fixed-size
**shards**; each shard is an executor task (:class:`MCShardTask`) that
classifies its pattern indices and returns a
:class:`~repro.mc.tally.ShardTally`.  The engine launches shards in
waves through :func:`repro.exec.execute` and applies a **prefix-exact**
early-stopping rule:

    stop at the smallest shard index ``i`` such that the confidence
    interval of the merged tallies ``0..i`` meets the target half-width
    (and at least ``min_shards`` shards are merged).

Because the rule scans shard *prefixes* in index order, the stopping
point — and therefore the final merged tally and estimate — is a pure
function of (master seed, cell, settings).  Parallel waves may compute
a few shards past the stopping point; those are discarded from the
estimate, so ``jobs=1``, ``jobs=N``, and a crash-resumed run all
produce bit-for-bit identical results.  Durability comes from the
:class:`~repro.mc.tally.TallyLog`: completed shards are fsynced as they
land and served without re-execution on resume.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..canonical import canonical_digest
from ..core.routing_registry import registered_policies
from ..exec.executor import (
    DEFAULT_POLICY,
    ExecPolicy,
    ExecutionStats,
    WorkerPool,
    execute,
    resolve_jobs,
)
from ..exec.store import CODE_VERSION
from ..topology import GridNetwork, make_network
from .classify import classify_pattern
from .estimators import INTERVAL_METHODS, binomial_interval, half_width
from .sampler import PatternSampler, max_link_faults, max_node_faults
from .tally import DEFAULT_RESERVOIR, ShardTally, TallyLog, merge_tallies

__all__ = [
    "MCCell",
    "MCSettings",
    "MCShardTask",
    "MCPlan",
    "CellEstimate",
    "MCRunResult",
    "MCProgress",
    "run_cell",
    "run_plan",
    "fold_stats",
]


# ----------------------------------------------------------------------
# the cell and its settings
# ----------------------------------------------------------------------


@lru_cache(maxsize=4)
def _cell_network(topology: str, radix: int, dims: int) -> GridNetwork:
    """One network per process and shape: a worker that lives for a
    plan (or a service) classifies every shard on tables it filled
    once, instead of re-tabulating adjacency and links per shard.
    Bounded like the executor's ``_NETWORK_CACHE``; safe to share
    because nothing mutates a :class:`GridNetwork` after its lazy
    tables are built (faults live in the ``FaultSet``)."""
    return make_network(topology, radix, dims)


@dataclass(frozen=True)
class MCCell:
    """One point of the reliability surface."""

    topology: str = "torus"
    radix: int = 8
    dims: int = 2
    num_node_faults: int = 0
    num_link_faults: int = 0
    policy: str = ""  #: "" = policy-independent classification
    allow_overlapping_rings: bool = False
    check_cdg: bool = False

    def validate(self) -> None:
        network = self.network()
        if self.policy and self.policy not in registered_policies():
            raise ValueError(
                f"unknown policy {self.policy!r}; registered: "
                f"{'/'.join(registered_policies())}"
            )
        if not 0 <= self.num_node_faults <= max_node_faults(network):
            raise ValueError(
                f"num_node_faults={self.num_node_faults} out of range on {network!r}"
            )
        limit = max_link_faults(network, self.num_node_faults)
        if not 0 <= self.num_link_faults <= limit:
            raise ValueError(
                f"num_link_faults={self.num_link_faults} out of range "
                f"[0, {limit}] on {network!r}"
            )

    def network(self) -> GridNetwork:
        return _cell_network(self.topology, self.radix, self.dims)

    @property
    def total_faults(self) -> int:
        return self.num_node_faults + self.num_link_faults

    def key(self) -> str:
        """Human-readable stable identifier; part of every pattern seed."""
        return (
            f"{self.topology}{self.radix}d{self.dims}"
            f":n{self.num_node_faults}:l{self.num_link_faults}"
            f":p={self.policy or '-'}"
            f":ov{int(self.allow_overlapping_rings)}:cdg{int(self.check_cdg)}"
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "topology": self.topology,
            "radix": self.radix,
            "dims": self.dims,
            "num_node_faults": self.num_node_faults,
            "num_link_faults": self.num_link_faults,
            "policy": self.policy,
            "allow_overlapping_rings": self.allow_overlapping_rings,
            "check_cdg": self.check_cdg,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MCCell":
        return cls(
            topology=str(payload.get("topology", "torus")),
            radix=int(payload.get("radix", 8)),
            dims=int(payload.get("dims", 2)),
            num_node_faults=int(payload.get("num_node_faults", 0)),
            num_link_faults=int(payload.get("num_link_faults", 0)),
            policy=str(payload.get("policy", "")),
            allow_overlapping_rings=bool(payload.get("allow_overlapping_rings", False)),
            check_cdg=bool(payload.get("check_cdg", False)),
        )


@dataclass(frozen=True)
class MCSettings:
    """Estimator and budget knobs shared by every cell of one plan."""

    confidence: float = 0.95
    half_width: float = 0.01  #: target CI half-width (the stopping rule)
    shard_size: int = 250  #: patterns per executor task
    max_shards: int = 40  #: hard budget: shard_size * max_shards samples
    min_shards: int = 1  #: never stop before this many shards are merged
    method: str = "wilson"  #: interval method (see INTERVAL_METHODS)
    reservoir: int = DEFAULT_RESERVOIR  #: per-class lowest-index pool size

    def validate(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if not 0.0 < self.half_width < 1.0:
            raise ValueError(f"half_width must be in (0, 1), got {self.half_width}")
        if self.shard_size < 1 or self.max_shards < 1:
            raise ValueError("shard_size and max_shards must be >= 1")
        if not 1 <= self.min_shards <= self.max_shards:
            raise ValueError(
                f"min_shards must be in [1, {self.max_shards}], got {self.min_shards}"
            )
        if self.method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {INTERVAL_METHODS}"
            )
        if self.reservoir < 0:
            raise ValueError("reservoir must be >= 0")

    @property
    def max_samples(self) -> int:
        return self.shard_size * self.max_shards

    def to_payload(self) -> Dict[str, Any]:
        return {
            "confidence": self.confidence,
            "half_width": self.half_width,
            "shard_size": self.shard_size,
            "max_shards": self.max_shards,
            "min_shards": self.min_shards,
            "method": self.method,
            "reservoir": self.reservoir,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MCSettings":
        base = cls()
        return cls(
            confidence=float(payload.get("confidence", base.confidence)),
            half_width=float(payload.get("half_width", base.half_width)),
            shard_size=int(payload.get("shard_size", base.shard_size)),
            max_shards=int(payload.get("max_shards", base.max_shards)),
            min_shards=int(payload.get("min_shards", base.min_shards)),
            method=str(payload.get("method", base.method)),
            reservoir=int(payload.get("reservoir", base.reservoir)),
        )


# ----------------------------------------------------------------------
# the executor task
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MCShardTask:
    """Classify one contiguous shard of a cell's pattern stream.

    Not cacheable: the tally is tiny, lands in the TallyLog (the MC
    subsystem's own durable layer), and must never appear in the result
    store, whose fsck asserts every key is a SimulationConfig hash.
    """

    cell: MCCell
    master_seed: int
    shard_index: int
    shard_size: int
    reservoir_cap: int = DEFAULT_RESERVOIR
    cacheable = False
    kind = "mc-shard"

    @property
    def start(self) -> int:
        return self.shard_index * self.shard_size

    def checkpoint_key(self, version: str = CODE_VERSION) -> str:
        payload = {
            "kind": "mc-shard",
            "cell": self.cell.to_payload(),
            "master_seed": self.master_seed,
            "shard_index": self.shard_index,
            "shard_size": self.shard_size,
            "reservoir_cap": self.reservoir_cap,
            "version": version,
        }
        return canonical_digest(payload)

    def execute(self) -> Dict[str, Any]:
        """Returns the shard's :class:`ShardTally` as a payload dict
        (plain JSON-safe data, so worker transport never pickles
        scenario object graphs)."""
        network = self.cell.network()
        sampler = PatternSampler(
            network,
            self.cell.num_node_faults,
            self.cell.num_link_faults,
            master_seed=self.master_seed,
            cell_key=self.cell.key(),
        )
        tally = ShardTally(
            cell_key=self.cell.key(),
            start=self.start,
            reservoir_cap=self.reservoir_cap,
        )
        for index, faults in sampler.batch(self.start, self.shard_size):
            verdict = classify_pattern(
                network,
                faults,
                policy=self.cell.policy,
                allow_overlapping_rings=self.cell.allow_overlapping_rings,
                check_cdg=self.cell.check_cdg,
            )
            tally.record(index, verdict)
        return tally.to_payload()


# ----------------------------------------------------------------------
# estimates and results
# ----------------------------------------------------------------------


@dataclass
class CellEstimate:
    """One cell's final estimate, derived from the stopping prefix.

    ``to_payload`` deliberately excludes anything execution-shaped
    (wave sizes, shards computed past the stop, wall time): the payload
    is a pure function of (cell, settings, master_seed), which is what
    the service's bit-for-bit convergence check compares.
    """

    cell: MCCell
    n: int
    counts: Dict[str, int]
    reasons: Dict[str, int]
    sacrificed: int
    survivors: int
    p_survive: float
    lo: float
    hi: float
    p_routable: float
    routable_lo: float
    routable_hi: float
    shards_used: int
    early_stopped: bool
    reservoirs: Dict[str, Tuple[int, ...]]
    method: str
    confidence: float
    target_half_width: float
    budget: int  #: max samples the settings allowed

    @property
    def half_width(self) -> float:
        return (self.hi - self.lo) / 2.0

    def to_payload(self) -> Dict[str, Any]:
        return {
            "cell": self.cell.to_payload(),
            "cell_key": self.cell.key(),
            "n": self.n,
            "counts": {label: self.counts[label] for label in sorted(self.counts)},
            "reasons": {r: self.reasons[r] for r in sorted(self.reasons)},
            "sacrificed": self.sacrificed,
            "survivors": self.survivors,
            "p_survive": self.p_survive,
            "interval": [self.lo, self.hi],
            "p_routable": self.p_routable,
            "routable_interval": [self.routable_lo, self.routable_hi],
            "shards_used": self.shards_used,
            "early_stopped": self.early_stopped,
            "reservoirs": {
                label: list(self.reservoirs[label])
                for label in sorted(self.reservoirs)
            },
            "method": self.method,
            "confidence": self.confidence,
            "target_half_width": self.target_half_width,
            "budget": self.budget,
        }

    def digest(self) -> str:
        return canonical_digest(self.to_payload())


@dataclass
class MCRunResult:
    """Everything one plan run produced."""

    estimates: List[CellEstimate]
    stats: ExecutionStats
    shards_executed: int = 0
    shards_resumed: int = 0  #: shards served from the TallyLog

    def to_payload(self) -> Dict[str, Any]:
        """Deterministic result payload (see CellEstimate.to_payload)."""
        return {"cells": [estimate.to_payload() for estimate in self.estimates]}


@dataclass(frozen=True)
class MCProgress:
    """Passed to the engine's progress callback after every wave."""

    cell_key: str
    cell_index: int
    cells_total: int
    shards_done: int  #: shards available for this cell so far
    shards_budget: int
    samples: int
    stopped: bool


# ----------------------------------------------------------------------
# plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MCPlan:
    """A full campaign: cells x settings under one master seed."""

    cells: Tuple[MCCell, ...]
    settings: MCSettings = field(default_factory=MCSettings)
    master_seed: int = 7

    def validate(self) -> None:
        if not self.cells:
            raise ValueError("an MC plan needs at least one cell")
        self.settings.validate()
        seen = set()
        for cell in self.cells:
            cell.validate()
            if cell.key() in seen:
                raise ValueError(f"duplicate cell {cell.key()!r} in plan")
            seen.add(cell.key())

    def to_payload(self) -> Dict[str, Any]:
        return {
            "cells": [cell.to_payload() for cell in self.cells],
            "settings": self.settings.to_payload(),
            "master_seed": self.master_seed,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "MCPlan":
        return cls(
            cells=tuple(
                MCCell.from_payload(cell) for cell in payload.get("cells", [])
            ),
            settings=MCSettings.from_payload(dict(payload.get("settings", {}))),
            master_seed=int(payload.get("master_seed", 7)),
        )

    def plan_key(self) -> str:
        return canonical_digest(self.to_payload())[:16]


# ----------------------------------------------------------------------
# the early-stopping loop
# ----------------------------------------------------------------------


def fold_stats(parts: Sequence[ExecutionStats], *, jobs: int = 1) -> ExecutionStats:
    """Sum the counters of several :func:`execute` calls into one."""
    total = ExecutionStats(jobs=jobs)
    for part in parts:
        total.absorb(part)
    return total


def _stop_index(
    tallies: Sequence[ShardTally], settings: MCSettings
) -> Optional[int]:
    """The prefix-exact stopping rule: smallest ``i`` whose merged
    prefix ``0..i`` meets the half-width target (None if no prefix
    does).  Scanning prefixes in index order is what makes the stopping
    point independent of wave size and resume history."""
    merged: Optional[ShardTally] = None
    for i, tally in enumerate(tallies):
        merged = tally if merged is None else merged.merged_with(tally)
        if i + 1 < settings.min_shards:
            continue
        interval = binomial_interval(
            merged.survivors, merged.count, settings.confidence, settings.method
        )
        if half_width(interval) <= settings.half_width:
            return i
    return None


def _estimate(
    cell: MCCell,
    settings: MCSettings,
    tallies: Sequence[ShardTally],
    stop: Optional[int],
) -> CellEstimate:
    used = (stop + 1) if stop is not None else len(tallies)
    merged = merge_tallies(tallies[:used])
    lo, hi = binomial_interval(
        merged.survivors, merged.count, settings.confidence, settings.method
    )
    routable = merged.class_count("routable")
    r_lo, r_hi = binomial_interval(
        routable, merged.count, settings.confidence, settings.method
    )
    return CellEstimate(
        cell=cell,
        n=merged.count,
        counts=dict(merged.counts),
        reasons=dict(merged.reasons),
        sacrificed=merged.sacrificed,
        survivors=merged.survivors,
        p_survive=merged.survivors / merged.count,
        lo=lo,
        hi=hi,
        p_routable=routable / merged.count,
        routable_lo=r_lo,
        routable_hi=r_hi,
        shards_used=used,
        early_stopped=stop is not None,
        reservoirs=dict(merged.reservoirs),
        method=settings.method,
        confidence=settings.confidence,
        target_half_width=settings.half_width,
        budget=settings.max_samples,
    )


def run_cell(
    cell: MCCell,
    settings: MCSettings,
    *,
    master_seed: int = 7,
    jobs: Optional[int] = 1,
    tally_log: Optional[TallyLog] = None,
    policy: Optional[ExecPolicy] = None,
    on_wave: Optional[Callable[[int, int, ExecutionStats], None]] = None,
    stats_parts: Optional[List[ExecutionStats]] = None,
    pool: Optional[WorkerPool] = None,
) -> CellEstimate:
    """Estimate one cell, launching shards in waves of ``jobs`` until
    the stopping rule fires or the budget is exhausted.  ``pool`` keeps
    the workers across the waves (and across cells: :func:`run_plan`);
    without one every wave opens and closes its own."""
    cell.validate()
    settings.validate()
    wave = max(1, resolve_jobs(jobs))
    tallies: List[ShardTally] = []
    stop: Optional[int] = None
    while stop is None and len(tallies) < settings.max_shards:
        want = list(
            range(len(tallies), min(len(tallies) + wave, settings.max_shards))
        )
        tasks: List[MCShardTask] = []
        cached: Dict[int, ShardTally] = {}
        for shard_index in want:
            task = MCShardTask(
                cell=cell,
                master_seed=master_seed,
                shard_index=shard_index,
                shard_size=settings.shard_size,
                reservoir_cap=settings.reservoir,
            )
            served = tally_log.get(task.checkpoint_key()) if tally_log else None
            if served is not None:
                cached[shard_index] = served
            else:
                tasks.append(task)
        payloads: Dict[int, ShardTally] = {}
        if tasks:
            results, stats = execute(tasks, jobs=jobs, policy=policy, pool=pool)
            if stats_parts is not None:
                stats_parts.append(stats)
            for task, payload in zip(tasks, results):
                tally = ShardTally.from_payload(payload)
                if tally_log is not None:
                    tally_log.append(task.checkpoint_key(), tally)
                payloads[task.shard_index] = tally
            if on_wave is not None:
                on_wave(len(tasks), len(cached), stats)
        elif on_wave is not None:
            on_wave(0, len(cached), ExecutionStats(jobs=wave))
        for shard_index in want:
            tallies.append(
                cached[shard_index]
                if shard_index in cached
                else payloads[shard_index]
            )
        stop = _stop_index(tallies, settings)
    return _estimate(cell, settings, tallies, stop)


def run_plan(
    plan: MCPlan,
    *,
    jobs: Optional[int] = 1,
    tally_log: Optional[Union[TallyLog, str, Path]] = None,
    policy: Optional[ExecPolicy] = None,
    progress: Optional[Callable[[MCProgress], None]] = None,
    pool: Optional[WorkerPool] = None,
) -> MCRunResult:
    """Run every cell of a plan.  ``tally_log`` (a path or an open
    :class:`TallyLog`) makes the run crash-resumable: completed shards
    are served from the log instead of re-executing.

    A plan is many small :func:`execute` calls (one per wave), so the
    workers live as long as the plan: one :class:`WorkerPool` serves
    every wave of every cell — ``pool`` if the caller owns one (the
    service), else one opened here and closed on the way out."""
    plan.validate()
    log = (
        tally_log
        if isinstance(tally_log, TallyLog) or tally_log is None
        else TallyLog(tally_log)
    )
    estimates: List[CellEstimate] = []
    parts: List[ExecutionStats] = []
    executed = 0
    resumed = 0
    # spawns nothing until a wave runs with jobs > 1
    with nullcontext(pool) if pool is not None else WorkerPool(
        heartbeat_interval=(policy or DEFAULT_POLICY).heartbeat_interval
    ) as pool:
        for cell_index, cell in enumerate(plan.cells):
            shards_done = 0

            def report(stopped: bool) -> None:
                if progress is not None:
                    progress(
                        MCProgress(
                            cell_key=cell.key(),
                            cell_index=cell_index,
                            cells_total=len(plan.cells),
                            shards_done=shards_done,
                            shards_budget=plan.settings.max_shards,
                            samples=shards_done * plan.settings.shard_size,
                            stopped=stopped,
                        )
                    )

            def on_wave(ran: int, served: int, _stats: ExecutionStats) -> None:
                nonlocal executed, resumed, shards_done
                executed += ran
                resumed += served
                shards_done += ran + served
                report(False)

            estimate = run_cell(
                cell,
                plan.settings,
                master_seed=plan.master_seed,
                jobs=jobs,
                tally_log=log,
                policy=policy,
                on_wave=on_wave,
                stats_parts=parts,
                pool=pool,
            )
            estimates.append(estimate)
            report(True)
    return MCRunResult(
        estimates=estimates,
        stats=fold_stats(parts, jobs=max(1, resolve_jobs(jobs))),
        shards_executed=executed,
        shards_resumed=resumed,
    )
