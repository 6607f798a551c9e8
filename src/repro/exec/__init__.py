"""Parallel experiment execution and on-disk result memoization.

* :mod:`repro.exec.executor` — fan sweep points, seed replicates and
  campaign replays out across a supervised ``multiprocessing`` worker
  pool with per-worker network reuse, per-task timeouts, bounded
  deterministic retry, heartbeat watchdog and poison-task quarantine;
  the :class:`WorkerPool` lives as long as whoever holds it (one
  ``execute`` call, one MC plan, one service).
* :mod:`repro.exec.durable` — the atomic file writer and the
  append-only JSONL log (one torn-tail rule) every durable file uses.
* :mod:`repro.exec.store` — memoize :class:`SimulationResult`\\ s on disk
  keyed by a content hash of the canonical configuration plus a
  code-version tag; writes are journaled and crash-safe.
* :mod:`repro.exec.checkpoint` — durable sweep manifests + completion
  logs so interrupted runs resume exactly where they stopped.
* :mod:`repro.exec.fsck` — verify the store, quarantine entries that do
  not re-hash, garbage-collect temp files.
* :mod:`repro.exec.chaos` — the self-chaos harness that SIGKILLs
  workers and the sweep parent and proves resume is bit-for-bit exact.

Most callers should use the :class:`repro.api.Experiment` facade rather
than these primitives directly.
"""

from .checkpoint import CheckpointMismatch, SweepCheckpoint, task_key
from .executor import (
    DEFAULT_POLICY,
    CampaignReplay,
    CampaignTask,
    ExecPolicy,
    ExecutionError,
    ExecutionStats,
    PointTask,
    ProgressEvent,
    TaskFailure,
    WorkerPool,
    execute,
    resolve_jobs,
    run_configs,
)
from .fsck import FsckIssue, FsckReport, fsck
from .store import CODE_VERSION, STORE_ENV, ResultStore, default_store_root

__all__ = [
    "CODE_VERSION",
    "CampaignReplay",
    "CampaignTask",
    "CheckpointMismatch",
    "DEFAULT_POLICY",
    "ExecPolicy",
    "ExecutionError",
    "ExecutionStats",
    "FsckIssue",
    "FsckReport",
    "PointTask",
    "ProgressEvent",
    "ResultStore",
    "STORE_ENV",
    "SweepCheckpoint",
    "TaskFailure",
    "WorkerPool",
    "default_store_root",
    "execute",
    "fsck",
    "resolve_jobs",
    "run_configs",
    "task_key",
]
