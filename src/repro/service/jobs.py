"""Durable job model for the campaign service.

A *job* is one unit of client-submitted work — a rate sweep of
:class:`~repro.exec.executor.PointTask`\\ s, a fault-campaign replay, or
a Monte-Carlo reliability plan (kind ``mc``, run through
:func:`repro.mc.run_plan` with its own crash-safe tally log) —
described entirely by a JSON-safe :class:`JobSpec`.  The spec's content
hash (plus the store's code-version tag) **is** the job id, so
resubmitting the same spec is idempotent by construction: the service
finds the existing record instead of queueing duplicate work, and the
underlying points dedupe again at the
:class:`~repro.exec.store.ResultStore` level.

Durability mirrors the checkpoint layer's discipline.  Every job owns a
directory ``<root>/jobs/<id>/`` holding

``spec.json``
    the canonical spec, written atomically *before* the submission is
    journaled (a crash between the two leaves an orphan spec the next
    recovery pass re-adopts — never a journaled job with no spec);
``ckpt/``
    the job's :class:`~repro.exec.checkpoint.SweepCheckpoint` root, so a
    killed server resumes mid-sweep instead of restarting it;
``result.json``
    the terminal payload (results, failures, stats), written atomically
    *before* the terminal state is journaled;
``job.exec.jsonl``
    the executor-infrastructure events the job's run produced (always
    written, possibly empty — ``repro.obs.validate`` accepts both);
``trace/``
    obs exports (events / time-series windows / Chrome traces) for
    traced jobs, appearing file by file as points complete.

The service journal at ``<root>/service.jsonl`` is an append-only log
(the one rule of :mod:`repro.exec.durable`) of job state transitions
(``submit``/``start``/``done``/``failed``).  :meth:`JobStore.recover`
replays it after a restart: terminal jobs keep their recorded state
(with the payload re-verified on disk), anything else re-enters the run
queue in original submission order.  Re-running is safe because every
task is deterministic and completed points are served from the store —
which is what makes a SIGKILL'd server converge bit-for-bit with an
uninterrupted run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..canonical import canonical_digest, from_data, to_data
from ..exec.executor import CampaignTask, ExecPolicy, PointTask
from ..exec.durable import append_jsonl, atomic_write_text, read_jsonl
from ..exec.store import CODE_VERSION
from ..sim.config import SimulationConfig

# --- job lifecycle states ---------------------------------------------

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: states in which a job will make no further progress
TERMINAL_STATES = frozenset({DONE, FAILED})

JOURNAL_NAME = "service.jsonl"
JOBS_DIR = "jobs"
SPEC_NAME = "spec.json"
RESULT_NAME = "result.json"
CHECKPOINT_DIR = "ckpt"
TRACE_DIR = "trace"
EXEC_EVENTS_NAME = "job.exec.jsonl"
TALLY_LOG_NAME = "mc.tallies.jsonl"


class SpecError(ValueError):
    """The submitted payload does not describe a runnable job."""


@dataclass(frozen=True)
class JobSpec:
    """One submission, as canonical data.

    ``config`` is a :class:`SimulationConfig` as
    :func:`repro.canonical.to_data` writes it.  For sweeps, ``rates`` (and
    optionally ``seeds``) expand it rate-major exactly like
    :meth:`repro.api.Experiment.sweep`; an empty ``rates`` runs the base
    config as a single point.  For campaigns, ``campaign`` is the
    canonical :class:`~repro.reliability.FaultCampaign` timeline and
    ``reliability`` an optional
    :class:`~repro.reliability.ReliabilityConfig` as a dict.

    Every field except ``label`` enters the content hash — the job id —
    so two submissions that could produce different results (or
    different artifacts: ``trace``) are always distinct jobs.
    """

    kind: str  #: "sweep", "campaign" or "mc"
    config: Dict[str, Any] = field(default_factory=dict)
    rates: Tuple[float, ...] = ()
    seeds: Tuple[int, ...] = ()
    campaign: Optional[Dict[str, Any]] = None
    reliability: Optional[Dict[str, Any]] = None
    #: :class:`repro.mc.MCPlan` as ``to_data`` writes it (kind ``mc`` only)
    mc: Optional[Dict[str, Any]] = None
    settle_cycles: int = 1_000
    drain: bool = True
    #: per-job ExecPolicy overrides (None = executor defaults)
    task_timeout: Optional[float] = None
    retries: Optional[int] = None
    #: record + export obs traces (events, time-series windows)
    trace: bool = False
    trace_window: int = 100
    #: cosmetic only — excluded from the job id
    label: str = ""

    # ------------------------------------------------------------------
    # construction / validation
    # ------------------------------------------------------------------
    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Parse and validate a client submission; raises
        :class:`SpecError` with a client-presentable message that names
        the field.  ``from_data`` plus :meth:`validate`, kept as one
        method because the frozen benchmark suite calls it."""
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object")
        try:
            spec = from_data(cls, payload)
        except ValueError as exc:
            raise SpecError(str(exc)) from exc
        spec.validate()
        return spec

    def validate(self) -> None:
        """Re-build every object the spec names so malformed submissions
        fail at admission, not inside a worker."""
        if self.kind not in ("sweep", "campaign", "mc"):
            raise SpecError("spec kind must be 'sweep', 'campaign' or 'mc'")
        if self.kind == "mc":
            if self.config:
                raise SpecError("mc jobs take an 'mc' plan, not a 'config'")
            if self.campaign is not None or self.reliability is not None:
                raise SpecError("mc jobs cannot carry a campaign/reliability section")
            if self.rates or self.seeds:
                raise SpecError("mc jobs take no rates/seeds (the plan names its cells)")
            if self.trace:
                raise SpecError("mc jobs do not produce obs traces")
            if not isinstance(self.mc, dict):
                raise SpecError("mc jobs need an 'mc' plan object (canonical MCPlan)")
            try:
                self.mc_plan()
            except (TypeError, ValueError, KeyError) as exc:
                raise SpecError(f"bad mc plan: {exc}") from exc
            self._validate_policy_knobs()
            return
        if self.mc is not None:
            raise SpecError("only mc jobs may carry an 'mc' plan section")
        if not self.config:
            raise SpecError("spec needs a 'config' object (canonical SimulationConfig)")
        try:
            base = from_data(SimulationConfig, self.config)
        except ValueError as exc:
            raise SpecError(f"bad config: {exc}") from exc
        if self.kind == "campaign":
            if not isinstance(self.campaign, dict):
                raise SpecError("campaign jobs need a 'campaign' timeline object")
            try:
                from ..reliability import FaultCampaign

                from_data(FaultCampaign, self.campaign)
            except ValueError as exc:
                raise SpecError(f"bad campaign timeline: {exc}") from exc
            if self.rates or self.seeds:
                raise SpecError("campaign jobs take a single config (no rates/seeds)")
        elif self.campaign is not None or self.reliability is not None:
            raise SpecError("sweep jobs cannot carry a campaign/reliability section")
        if self.reliability is not None:
            try:
                from ..reliability import ReliabilityConfig

                from_data(ReliabilityConfig, self.reliability)
            except ValueError as exc:
                raise SpecError(f"bad reliability config: {exc}") from exc
        for rate in self.rates:
            try:
                replace(base, rate=rate)
            except ValueError as exc:
                raise SpecError(f"bad rate {rate!r}: {exc}") from exc
        self._validate_policy_knobs()

    def _validate_policy_knobs(self) -> None:
        if self.settle_cycles < 0:
            raise SpecError("settle_cycles must be non-negative")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise SpecError("task_timeout must be positive")
        if self.retries is not None and self.retries < 1:
            raise SpecError("retries must be at least 1")
        if self.trace_window < 0:
            raise SpecError("trace_window must be non-negative")

    def mc_plan(self) -> "Any":
        """The validated :class:`repro.mc.MCPlan` an ``mc`` job runs."""
        from ..mc import MCPlan

        plan = from_data(MCPlan, self.mc)
        plan.validate()
        return plan

    def job_id(self, version: str = CODE_VERSION) -> str:
        identity = to_data(self)
        identity.pop("label", None)  # cosmetic
        return canonical_digest({"spec": identity, "version": version})

    # ------------------------------------------------------------------
    # execution material
    # ------------------------------------------------------------------
    def configs(self) -> List[SimulationConfig]:
        base = from_data(SimulationConfig, self.config)
        if self.kind == "campaign" or not self.rates:
            return [base]
        configs: List[SimulationConfig] = []
        for rate in self.rates:
            if self.seeds:
                configs.extend(replace(base, rate=rate, seed=s) for s in self.seeds)
            else:
                configs.append(replace(base, rate=rate))
        return configs

    def build_tasks(self, trace_config: Optional[Any] = None) -> List[Any]:
        """The executor task list this job runs.  ``trace_config`` is the
        deployment-local :class:`repro.obs.TraceConfig` the service built
        for traced jobs (the spec only records *that* tracing was asked
        for — output paths are not part of job identity).

        ``mc`` jobs return no static task list: the MC engine spawns
        :class:`repro.mc.MCShardTask`\\ s wave by wave until its
        early-stopping rule fires (see :meth:`task_total` for the
        budget ceiling used as the progress denominator)."""
        if self.kind == "mc":
            return []
        if self.kind == "campaign":
            from ..reliability import FaultCampaign, ReliabilityConfig

            return [
                CampaignTask(
                    config=from_data(SimulationConfig, self.config),
                    campaign=from_data(FaultCampaign, self.campaign or {}),
                    reliability=from_data(Optional[ReliabilityConfig], self.reliability),
                    settle_cycles=self.settle_cycles,
                    drain=self.drain,
                    trace=trace_config,
                )
            ]
        return [PointTask(config, trace=trace_config) for config in self.configs()]

    def exec_policy(self, defaults: Optional[ExecPolicy] = None) -> Optional[ExecPolicy]:
        """The per-job :class:`ExecPolicy`, or None for executor
        defaults."""
        if self.task_timeout is None and self.retries is None:
            return defaults
        base = defaults if defaults is not None else ExecPolicy()
        return replace(
            base,
            task_timeout=self.task_timeout
            if self.task_timeout is not None
            else base.task_timeout,
            max_attempts=self.retries if self.retries is not None else base.max_attempts,
        )

    def task_total(self) -> int:
        """The progress denominator: task count for static jobs, the
        shard-budget ceiling for ``mc`` jobs (early stopping may finish
        well under it)."""
        if self.kind == "mc":
            plan = self.mc or {}
            cells = len(plan.get("cells", []))
            max_shards = int(dict(plan.get("settings", {})).get("max_shards", 40))
            return max(1, cells) * max(1, max_shards)
        return len(self.build_tasks())

    def describe(self) -> str:
        if self.kind == "campaign":
            events = len((self.campaign or {}).get("events", []))
            return f"campaign ({events} event(s))"
        if self.kind == "mc":
            cells = len((self.mc or {}).get("cells", []))
            return f"mc ({cells} cell(s))"
        return f"sweep ({max(1, len(self.rates)) * max(1, len(self.seeds) or 1)} point(s))"


@dataclass
class JobRecord:
    """One job's runtime state inside the service (the durable truth
    lives in the journal + job directory; this is the in-memory view)."""

    job_id: str
    spec: JobSpec
    state: str = QUEUED
    #: progress: terminal tasks so far / total tasks
    completed: int = 0
    total: int = 0
    #: :meth:`ExecutionStats.to_dict` of the finished run
    stats: Optional[Dict[str, Any]] = None
    error: str = ""
    #: monotonically growing progress-event list (the /events stream)
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: True when this record was rebuilt from the journal after a restart
    recovered: bool = False

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def summary(self) -> Dict[str, Any]:
        return {
            "job": self.job_id,
            "kind": self.spec.kind,
            "label": self.spec.label,
            "state": self.state,
            "completed": self.completed,
            "total": self.total,
            "recovered": self.recovered,
            "error": self.error,
        }


# ----------------------------------------------------------------------
# durable storage
# ----------------------------------------------------------------------


class JobStore:
    """The service's durable side: per-job directories plus the
    append-only state journal (see the module docstring)."""

    def __init__(self, root: Union[str, Path], *, version: str = CODE_VERSION):
        self.root = Path(root)
        self.version = version

    # --- paths ---------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    def job_dir(self, job_id: str) -> Path:
        return self.root / JOBS_DIR / job_id

    def spec_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / SPEC_NAME

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / RESULT_NAME

    def checkpoint_root(self, job_id: str) -> Path:
        return self.job_dir(job_id) / CHECKPOINT_DIR

    def trace_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / TRACE_DIR

    def exec_events_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / EXEC_EVENTS_NAME

    def tally_log_path(self, job_id: str) -> Path:
        """The crash-safe MC shard-tally log (``mc`` jobs only)."""
        return self.job_dir(job_id) / TALLY_LOG_NAME

    # --- journal -------------------------------------------------------
    def journal(self, op: str, job_id: str, **extra) -> None:
        record = {"op": op, "job": job_id, "pid": os.getpid()}
        record.update(extra)
        append_jsonl(self.journal_path, record)

    def journal_entries(self) -> List[dict]:
        return read_jsonl(self.journal_path)

    # --- specs / results ----------------------------------------------
    def write_spec(self, job_id: str, spec: JobSpec) -> None:
        atomic_write_text(self.spec_path(job_id), json.dumps(to_data(spec), sort_keys=True))

    def load_spec(self, job_id: str) -> Optional[JobSpec]:
        try:
            data = json.loads(self.spec_path(job_id).read_text(encoding="utf-8"))
            return from_data(JobSpec, data)
        except (OSError, ValueError):
            return None

    def write_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        atomic_write_text(
            self.result_path(job_id), json.dumps(payload, sort_keys=True)
        )

    def load_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(self.result_path(job_id).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    # --- recovery ------------------------------------------------------
    def recover(self) -> Tuple[Dict[str, JobRecord], List[str]]:
        """Rebuild ``(records, pending_queue)`` from the journal and the
        job directories.

        Jobs whose last journaled op is terminal keep that state (a
        ``done`` whose payload cannot be read on disk is demoted back to
        the queue — the payload write always *precedes* the journal
        record, so this only happens under external damage).  Everything
        else — journaled ``submit``/``start``, or an orphan ``spec.json``
        whose submission never reached the journal — re-enters the queue:
        journaled jobs in original submission order, orphans after them
        in job-id order.
        """
        last_op: Dict[str, dict] = {}
        submit_order: List[str] = []
        for record in self.journal_entries():
            job_id = record.get("job")
            op = record.get("op")
            if not isinstance(job_id, str) or not isinstance(op, str):
                continue
            if job_id not in last_op:
                submit_order.append(job_id)
            last_op[job_id] = record

        records: Dict[str, JobRecord] = {}
        pending: List[str] = []
        for job_id in submit_order:
            spec = self.load_spec(job_id)
            if spec is None:
                continue  # a journaled job with no readable spec cannot run
            op = last_op[job_id]["op"]
            record = JobRecord(job_id=job_id, spec=spec, recovered=True)
            record.total = spec.task_total()
            if op == "done" and self.load_result(job_id) is not None:
                record.state = DONE
                payload = self.load_result(job_id) or {}
                record.completed = record.total
                record.stats = payload.get("stats")
            elif op == "failed":
                record.state = FAILED
                record.error = str(last_op[job_id].get("error", ""))
            else:
                record.state = QUEUED
                pending.append(job_id)
            records[job_id] = record

        jobs_root = self.root / JOBS_DIR
        if jobs_root.is_dir():
            for entry in sorted(jobs_root.iterdir()):
                if not entry.is_dir() or entry.name in records:
                    continue
                spec = self.load_spec(entry.name)
                if spec is None:
                    continue
                record = JobRecord(job_id=entry.name, spec=spec, recovered=True)
                record.total = spec.task_total()
                record.state = QUEUED
                records[entry.name] = record
                pending.append(entry.name)
        return records, pending
