"""Shared execution context for the experiment harnesses.

Every harness (figures, tables, campaign, 3D extension) receives one
:class:`RunContext` carrying the knobs the CLI exposes uniformly —
scale, worker count, result-store policy, seed override — plus a
``run`` method that executes an :class:`~repro.api.Experiment` with
those knobs and accumulates cache/executor accounting across the whole
command for the final report line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from ..api import Experiment, ResultSet
from ..exec import ExecPolicy, ExecutionStats, ProgressEvent, ResultStore
from .settings import ExperimentScale, get_scale


@dataclass
class RunContext:
    """How to execute experiment harness work.

    The default context reproduces the old serial, uncached behaviour,
    so library callers (and tests) that invoke ``fig8()`` directly are
    unaffected unless they opt in.
    """

    scale_name: str = ""
    #: worker processes per :meth:`run` (1 = in-process, None/0 = CPUs)
    jobs: Optional[int] = 1
    #: result store serving/persisting sweep points; None disables
    store: Optional[ResultStore] = None
    #: simulation seed override for the harnesses (None = each harness's
    #: historical default)
    seed: Optional[int] = None
    #: called with each :class:`ProgressEvent`, tagged with a label
    progress: Optional[Callable[[str, ProgressEvent], None]] = None
    #: when set (``--trace``), every experiment this context runs records
    #: and exports traces (a :class:`repro.obs.TraceConfig`)
    trace: Optional[Any] = None
    #: when set (``--resume DIR``), every experiment this context runs is
    #: checkpointed under this root and resumes completed work
    checkpoint_root: Optional[str] = None
    #: fault-tolerance knobs for the worker pool (``--task-timeout`` /
    #: ``--retries``); None uses the executor defaults
    policy: Optional[ExecPolicy] = None
    #: accumulated over every :meth:`run` in this context
    totals: ExecutionStats = field(default_factory=ExecutionStats)

    @property
    def scale(self) -> ExperimentScale:
        return get_scale(self.scale_name)

    def seed_or(self, default: int) -> int:
        return self.seed if self.seed is not None else default

    def run(self, experiment: Experiment) -> ResultSet:
        """Execute with this context's jobs/store and fold the stats into
        :attr:`totals`."""
        callback = None
        if self.progress is not None:
            label = experiment.label
            callback = lambda event: self.progress(label, event)  # noqa: E731
        if self.trace is not None and experiment.trace is None:
            experiment = replace(experiment, trace=self.trace)
        result = experiment.run(
            jobs=self.jobs,
            cache=False,
            store=self.store,
            progress=callback,
            policy=self.policy,
            resume=self.checkpoint_root,
        )
        self.fold(result.stats)
        return result

    def fold(self, stats: ExecutionStats) -> None:
        """Accumulate one execute/run's accounting into :attr:`totals`."""
        self.totals.absorb(stats)
        self.totals.jobs = stats.jobs
