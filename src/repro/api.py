"""The unified experiment front door.

One object — :class:`Experiment` — describes *what* to simulate (a
single point, a rate sweep, a seed-replicated grid, or a fault-injection
campaign), and one method — :meth:`Experiment.run` — decides *how*: how
many worker processes (``jobs``) and whether the on-disk result store
serves and records points (``cache``).  Results come back as a
:class:`ResultSet` that keeps the per-task ordering, the campaign
outcomes when there are any, and the execution accounting (cache hits,
wall time).

Quickstart::

    from repro.api import Experiment
    from repro import SimulationConfig

    base = SimulationConfig(topology="torus", radix=16, fault_percent=1)
    rs = Experiment.sweep(base, rates=[0.002, 0.004, 0.008]).run(jobs=4)
    for r in rs:
        print(r.row())
    print(rs.stats.describe())          # "3 task(s): 2 cached, 1 executed ..."

The legacy entry points (``repro.sim.run_point``, ``sweep_rates`` and
``repro.reliability.run_campaign``) remain as thin deprecated wrappers
over this module.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple, Union

from pathlib import Path

from .exec.checkpoint import SweepCheckpoint
from .exec.executor import (
    CampaignReplay,
    CampaignTask,
    ExecPolicy,
    ExecutionStats,
    PointTask,
    ProgressEvent,
    execute,
)
from .exec.store import ResultStore
from .sim.config import SimulationConfig
from .sim.metrics import SimulationResult
from .sim.runner import saturation_utilization


class ResultSet(Sequence[SimulationResult]):
    """An ordered collection of simulation results plus provenance.

    Indexing and iteration yield :class:`SimulationResult`\\ s in task
    order.  For campaign experiments, :attr:`outcomes` holds the parallel
    list of :class:`~repro.reliability.CampaignOutcome`\\ s (None for
    plain points) and :attr:`descriptions` the per-task network
    descriptions.
    """

    def __init__(
        self,
        results: Sequence[SimulationResult],
        *,
        stats: Optional[ExecutionStats] = None,
        outcomes: Optional[Sequence[Any]] = None,
        descriptions: Optional[Sequence[str]] = None,
    ):
        self.results: List[SimulationResult] = list(results)
        self.stats = stats if stats is not None else ExecutionStats(total=len(self.results))
        self.outcomes: List[Any] = list(outcomes) if outcomes is not None else [None] * len(
            self.results
        )
        self.descriptions: List[str] = (
            list(descriptions) if descriptions is not None else [""] * len(self.results)
        )

    # --- sequence protocol --------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index) -> SimulationResult:
        return self.results[index]

    def __iter__(self) -> Iterator[SimulationResult]:
        return iter(self.results)

    # --- sweep helpers -------------------------------------------------
    @property
    def rates(self) -> List[float]:
        return [r.rate for r in self.results]

    def saturation_utilization(self) -> float:
        """Peak bisection utilization over the set (the paper's headline
        per-scenario number)."""
        return saturation_utilization(self.results)

    def best_throughput(self) -> SimulationResult:
        return max(self.results, key=lambda r: r.throughput_flits_per_cycle)

    def to_dicts(self) -> List[dict]:
        return [r.to_dict() for r in self.results]

    def to_json(self) -> str:
        return json.dumps(self.to_dicts(), sort_keys=True)

    def rows(self) -> str:
        return "\n".join(r.row() for r in self.results)

    def summary(self) -> dict:
        """Sweep-level accounting, including the infrastructure-fault
        counters.  Result-neutral by construction: retries and worker
        replacements change these numbers, never any entry of
        :attr:`results`."""
        stats = self.stats
        return {
            "points": len(self.results),
            "cache_hits": stats.cache_hits,
            "executed": stats.executed,
            "failed": stats.failed,
            "wall_seconds": stats.wall_seconds,
            "infra_retries": stats.infra_retries,
            "infra_timeouts": stats.infra_timeouts,
            "infra_crashes": stats.infra_crashes,
            "infra_hung": stats.infra_hung,
            "quarantined": stats.quarantined,
            "replayed_failures": stats.replayed_failures,
        }


@dataclass(frozen=True)
class Experiment:
    """A declarative bundle of simulation work.

    Build one with :meth:`point`, :meth:`sweep`, :meth:`from_configs` or
    :meth:`campaign`; concatenate experiments with ``+`` to run
    heterogeneous batches in one pool; then call :meth:`run`.

    ``trace`` attaches a :class:`repro.obs.TraceConfig` to every task:
    each run records lifecycle events and windowed time series and
    exports them under ``trace.out_dir`` (results are unchanged — the
    tracer observes without perturbing — but traced tasks always
    execute instead of being served from the result store, so the trace
    files actually get produced).
    """

    tasks: Tuple[Any, ...]
    label: str = ""
    trace: Optional[Any] = None  #: :class:`repro.obs.TraceConfig`

    # --- constructors --------------------------------------------------
    @classmethod
    def point(
        cls, config: SimulationConfig, *, label: str = "", trace=None
    ) -> "Experiment":
        """One simulation point."""
        return cls(tasks=(PointTask(config),), label=label, trace=trace)

    @classmethod
    def from_configs(
        cls, configs: Sequence[SimulationConfig], *, label: str = "", trace=None
    ) -> "Experiment":
        """One point per explicit configuration, in order."""
        return cls(
            tasks=tuple(PointTask(c) for c in configs), label=label, trace=trace
        )

    @classmethod
    def sweep(
        cls,
        base: SimulationConfig,
        rates: Sequence[float],
        *,
        seeds: Optional[Sequence[int]] = None,
        label: str = "",
        trace=None,
    ) -> "Experiment":
        """The latency-vs-load axis behind Figures 8-10: ``base`` swept
        across message-generation ``rates``.  With ``seeds``, every rate
        is replicated per seed (rate-major order: all seeds of rate 0,
        then rate 1, ...)."""
        configs: List[SimulationConfig] = []
        for rate in rates:
            if seeds is None:
                configs.append(replace(base, rate=rate))
            else:
                configs.extend(replace(base, rate=rate, seed=s) for s in seeds)
        return cls.from_configs(configs, label=label, trace=trace)

    @classmethod
    def campaign(
        cls,
        config: SimulationConfig,
        campaign,
        *,
        reliability=None,
        settle_cycles: int = 1_000,
        drain: bool = True,
        label: str = "",
        trace=None,
    ) -> "Experiment":
        """One fault-injection campaign replay: run ``config`` under the
        given :class:`~repro.reliability.FaultCampaign`, with the
        reliability transport attached when a
        :class:`~repro.reliability.ReliabilityConfig` is provided."""
        task = CampaignTask(
            config=config,
            campaign=campaign,
            reliability=reliability,
            settle_cycles=settle_cycles,
            drain=drain,
        )
        return cls(tasks=(task,), label=label, trace=trace)

    def __add__(self, other: "Experiment") -> "Experiment":
        label = self.label if self.label == other.label else (
            f"{self.label}+{other.label}".strip("+")
        )
        return Experiment(
            tasks=self.tasks + other.tasks,
            label=label,
            trace=self.trace if self.trace is not None else other.trace,
        )

    def __len__(self) -> int:
        return len(self.tasks)

    @property
    def configs(self) -> List[SimulationConfig]:
        return [task.config for task in self.tasks]

    # --- execution -----------------------------------------------------
    def run(
        self,
        *,
        jobs: Optional[int] = 1,
        cache: Union[bool, ResultStore, None] = True,
        store: Optional[ResultStore] = None,
        progress: Optional[Callable[[ProgressEvent], None]] = None,
        allow_failures: bool = False,
        policy: Optional[ExecPolicy] = None,
        resume: Union[str, Path, SweepCheckpoint, None] = None,
    ) -> ResultSet:
        """Execute every task and return a :class:`ResultSet`.

        ``jobs`` — worker processes (1 = in-process; None/0 = one per
        CPU).  ``cache`` — True uses the default on-disk store
        (``$REPRO_RESULT_STORE`` or ``~/.cache/repro/results``), False
        disables memoization, or pass a :class:`ResultStore` directly
        (``store=`` is an alias that wins when given).  Campaign tasks
        always execute; only plain points are memoized.

        ``policy`` — fault-tolerance knobs for the worker pool (see
        :class:`~repro.exec.ExecPolicy`: per-task timeouts, bounded
        deterministic retry, heartbeat watchdog, quarantine).

        ``resume`` — a checkpoint *root directory* (or an explicit
        :class:`~repro.exec.SweepCheckpoint`): every terminal task is
        marked durably as it completes, and re-running the same
        experiment with the same ``resume`` serves finished work from
        the store and replays recorded failures, restarting an
        interrupted run exactly where it stopped.  Requires the store
        (``cache=False`` with ``resume`` is an error — completed marks
        would not be servable).
        """
        if store is None:
            if isinstance(cache, ResultStore):
                store = cache
            elif cache:
                store = ResultStore()
        tasks = self.tasks
        if self.trace is not None:
            tasks = tuple(replace(task, trace=self.trace) for task in tasks)
        checkpoint: Optional[SweepCheckpoint] = None
        if resume is not None:
            if isinstance(resume, SweepCheckpoint):
                checkpoint = resume
            else:
                if store is None:
                    raise ValueError(
                        "resume= needs the result store (cache=False would "
                        "leave checkpointed results unservable)"
                    )
                checkpoint = SweepCheckpoint.for_tasks(
                    resume, tasks, version=store.version, label=self.label
                )
        payloads, stats = execute(
            tasks,
            jobs=jobs,
            store=store,
            progress=progress,
            allow_failures=allow_failures,
            policy=policy,
            checkpoint=checkpoint,
        )
        if self.trace is not None and stats.infra_events:
            from .obs.export import write_jsonl

            stem = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in self.label
            ) or "experiment"
            out = Path(self.trace.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_jsonl(stats.infra_events, out / f"{stem}.exec.jsonl")
        results: List[SimulationResult] = []
        outcomes: List[Any] = []
        descriptions: List[str] = []
        for payload in payloads:
            if isinstance(payload, CampaignReplay):
                results.append(payload.result)
                outcomes.append(payload.outcome)
                descriptions.append(payload.network_description)
            else:
                results.append(payload)
                outcomes.append(None)
                descriptions.append("")
        return ResultSet(
            results, stats=stats, outcomes=outcomes, descriptions=descriptions
        )
