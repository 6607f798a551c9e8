"""Parallel sweep execution over a supervised ``multiprocessing`` pool.

The workloads behind every figure are embarrassingly parallel: each
sweep point, seed replicate, or campaign replay is an independent
simulation fully determined by its configuration.  The executor fans a
list of :class:`Task`\\ s out across worker processes and returns results
in task order, with

* **per-worker network construction** — each worker process builds a
  :class:`~repro.sim.network.SimNetwork` at most once per network
  signature and reuses it across the points it executes (reset between
  runs), so parallel sweeps keep the cheap-amortized-build property of
  the old serial ``sweep_rates`` loop without sharing any mutable state
  across tasks;
* **deterministic per-task seeding** — the executor adds no randomness;
  every task's outcome is fixed by its config (``seed`` /
  ``fault_seed``), so ``jobs=1`` and ``jobs=N`` are bit-for-bit
  identical — and so are retried attempts, which is what makes the
  fault tolerance below *neutral*: infrastructure failures change
  counters, never results;
* **memoization** — with a :class:`~repro.exec.store.ResultStore`
  attached, cached points are served without touching the pool and
  fresh results are persisted *as they complete* (not at the end), so a
  killed parent loses at most the in-flight points;
* **checkpointing** — with a
  :class:`~repro.exec.checkpoint.SweepCheckpoint` attached, every
  terminal task (success or failure) is marked durably, and a resumed
  run serves completed work from the store and replays recorded
  failures without re-running them.

**Failure model.**  The paper's detect/contain/reconfigure discipline,
applied to our own fleet layer:

* a *simulation* failure (:class:`~repro.sim.DeadlockError`, or any
  exception from ``task.execute()``) is a deterministic property of the
  task — it is recorded as a structured :class:`TaskFailure` and never
  retried;
* an *infrastructure* failure is not the task's fault until proven
  otherwise.  A worker that dies (OOM kill, segfault — kind
  ``"crash"``), exceeds the policy's per-task wall-clock budget
  (``"timeout"``), or stops heartbeating (``"hung"``) is killed and
  replaced, and its task is retried on a deterministic exponential
  backoff schedule (no jitter — reproducible runs).  A task that kills
  its worker :attr:`ExecPolicy.max_attempts` times is *poison*: it
  falls back to one in-process attempt (crashes only, and only when
  :attr:`ExecPolicy.in_process_fallback` is set) or is quarantined as a
  structured :class:`TaskFailure` instead of sinking the sweep.

The heartbeat distinguishes a *stalled process* (blocked in a syscall or
native code, unable to beat) from a merely slow one; a pure-Python busy
loop keeps beating and is caught by the wall-clock timeout instead.

**Pool lifetime.**  The workers belong to a :class:`WorkerPool`, and the
pool to whoever holds it: :func:`execute` opens one per call unless its
caller passes ``pool=`` — ``mc.run_plan`` keeps one for a plan,
``CampaignService`` for its life (docs/execution.md, "Pool lifetime and
ownership").  Each worker talks to the parent over a pipe of its own,
so a worker killed even halfway through a message costs only its task.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import signal
import threading
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..canonical import canonical_digest, to_data
from ..sim.config import SimulationConfig
from ..sim.deadlock import DeadlockError
from ..sim.engine import Simulator
from ..sim.metrics import SimulationResult
from ..sim.network import SimNetwork
from .checkpoint import SweepCheckpoint
from .store import CODE_VERSION, ResultStore

# ----------------------------------------------------------------------
# tasks
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PointTask:
    """One simulation point: build (or reuse) the network, run, return
    the :class:`SimulationResult`.  Cacheable — the result is fully
    determined by the config (tracing observes without perturbing, so a
    traced run returns the same result; the executor only skips store
    *loads* for traced tasks so the trace files actually get produced).
    """

    config: SimulationConfig
    trace: Optional[Any] = None  #: :class:`repro.obs.TraceConfig`
    cacheable = True
    kind = "point"

    def checkpoint_key(self, version: str = CODE_VERSION) -> str:
        # identical to the store key, so a checkpointed "ok" is servable
        return self.config.content_hash(version)

    def execute(self) -> SimulationResult:
        sim = Simulator(self.config, _shared_network(self.config))
        tracer = _attach_tracer(sim, self.trace)
        result = sim.run()
        if tracer is not None:
            _export_tracer(tracer, self.trace, f"point-{self.config.content_hash()[:12]}")
        return result


@dataclass(frozen=True)
class CampaignTask:
    """One fault-injection campaign replay: build a *fresh* network
    (runtime faults mutate it permanently, so the shared per-worker
    network is off limits), optionally attach the reliability transport,
    replay the campaign, and return a :class:`CampaignReplay`.

    Not cacheable: campaign outcomes carry rich object graphs (epoch
    records, reconfiguration reports) that have no stable on-disk form.
    A checkpointed "ok" mark therefore cannot be *served* for a campaign
    — the replay re-executes (deterministically) on resume; only
    recorded failures are replayed without re-running.
    """

    config: SimulationConfig
    campaign: Any  #: :class:`repro.reliability.FaultCampaign`
    reliability: Optional[Any] = None  #: :class:`repro.reliability.ReliabilityConfig`
    settle_cycles: int = 1_000
    drain: bool = True
    trace: Optional[Any] = None  #: :class:`repro.obs.TraceConfig`
    cacheable = False
    kind = "campaign"

    def checkpoint_key(self, version: str = CODE_VERSION) -> str:
        """Spelled out, not ``to_data(self)``: ``trace`` says where the
        exports go, which is not part of what the task computes."""
        payload = {
            "kind": "campaign",
            "config": to_data(self.config),
            "campaign": to_data(self.campaign),
            "reliability": to_data(self.reliability),
            "settle_cycles": self.settle_cycles,
            "drain": self.drain,
            "version": version,
        }
        return canonical_digest(payload)

    def execute(self) -> "CampaignReplay":
        from ..reliability.campaign import replay_campaign
        from ..reliability.transport import ReliableTransport

        sim = Simulator(self.config)
        if self.reliability is not None:
            ReliableTransport(sim, self.reliability)
        tracer = _attach_tracer(sim, self.trace)
        outcome = replay_campaign(
            sim, self.campaign, settle_cycles=self.settle_cycles, drain=self.drain
        )
        if tracer is not None:
            _export_tracer(
                tracer, self.trace, f"campaign-{self.config.content_hash()[:12]}"
            )
        return CampaignReplay(
            result=sim._result(),
            outcome=outcome,
            network_description=sim.net.describe(),
        )


@dataclass
class CampaignReplay:
    """Everything a :class:`CampaignTask` brings back from its worker."""

    result: SimulationResult
    outcome: Any  #: :class:`repro.reliability.CampaignOutcome`
    network_description: str


# ----------------------------------------------------------------------
# tracing support (worker-side)
# ----------------------------------------------------------------------


def _attach_tracer(sim: Simulator, trace) -> Optional[Any]:
    """Attach a :class:`repro.obs.Tracer` when the task asks for one.
    Imported lazily so untraced runs never touch the obs package."""
    if trace is None:
        return None
    from ..obs import Tracer

    return Tracer(sim, trace)


def _export_tracer(tracer, trace, stem: str) -> List[Any]:
    from ..obs import export_trace

    return export_trace(tracer, trace.out_dir, stem)


# ----------------------------------------------------------------------
# per-worker network reuse
# ----------------------------------------------------------------------

#: ``network_signature -> SimNetwork``, local to each worker process.
#: Bounded: sweeps touch one or two distinct networks, ablations a few.
_NETWORK_CACHE: Dict[str, SimNetwork] = {}
_NETWORK_CACHE_MAX = 4


def _shared_network(config: SimulationConfig) -> SimNetwork:
    """The reuse contract: a network may be shared only between runs with
    equal :meth:`~repro.sim.config.SimulationConfig.network_signature`,
    never concurrently, and the consumer (``Simulator.__init__``) must
    reset it before use.  Workers are single-threaded, so handing the
    cached object to one simulator at a time is guaranteed here."""
    signature = config.network_signature()
    network = _NETWORK_CACHE.get(signature)
    if network is None:
        network = SimNetwork(config)
        if len(_NETWORK_CACHE) >= _NETWORK_CACHE_MAX:
            _NETWORK_CACHE.pop(next(iter(_NETWORK_CACHE)))
        _NETWORK_CACHE[signature] = network
    return network


# ----------------------------------------------------------------------
# failure bookkeeping
# ----------------------------------------------------------------------

#: Failure kinds that are the *infrastructure's* fault (retried), as
#: opposed to the deterministic simulation-failure kinds "error" and
#: "deadlock" (never retried).
INFRA_KINDS = ("crash", "timeout", "hung")


@dataclass(frozen=True)
class TaskFailure:
    """One task that did not produce a result."""

    index: int
    kind: str  #: "deadlock", "error", or an infra kind: "crash"/"timeout"/"hung"
    message: str
    cycle: Optional[int] = None  #: deadlock cycle, when kind == "deadlock"
    attempts: int = 1  #: how many execution attempts the task consumed


class ExecutionError(RuntimeError):
    """One or more tasks failed with a non-deadlock exception."""

    def __init__(self, failures: Sequence[TaskFailure]):
        self.failures = list(failures)
        lines = [f"{len(self.failures)} task(s) failed:"]
        for failure in self.failures:
            lines.append(f"--- task {failure.index} ({failure.kind}) ---")
            lines.append(failure.message.rstrip())
        super().__init__("\n".join(lines))


@dataclass(frozen=True)
class ExecPolicy:
    """Fault-tolerance knobs for one :func:`execute` call.

    The backoff schedule is deterministic (no jitter): attempt ``n``
    waits ``min(cap, base * factor**(n-1))`` seconds before re-dispatch,
    so a retried run is as reproducible as an unretried one.
    """

    #: Per-task wall-clock budget in seconds; None disables timeouts.
    task_timeout: Optional[float] = None
    #: Total execution attempts before a task is declared poison.
    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: How often workers post heartbeats; <= 0 disables posting.
    heartbeat_interval: float = 0.2
    #: A busy worker silent for this long is declared hung; <= 0
    #: disables the watchdog.
    heartbeat_grace: float = 30.0
    #: After ``max_attempts`` worker crashes, try the task once in the
    #: parent process instead of quarantining it outright.
    in_process_fallback: bool = True

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before re-dispatching attempt ``attempt + 1``."""
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )


DEFAULT_POLICY = ExecPolicy()


#: The keys of :meth:`WorkerPool.describe`.
POOL_COUNTERS = ("workers", "spawned", "respawned", "tasks_run")


@dataclass
class ExecutionStats:
    """Accounting for one :func:`execute` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    failed: int = 0
    jobs: int = 1
    pool_broken: bool = False
    wall_seconds: float = 0.0
    failures: List[TaskFailure] = field(default_factory=list)
    # -- infrastructure-fault accounting (result-neutral: these count
    # retries and replacements, never changes to any task's payload) --
    infra_retries: int = 0  #: re-dispatches after an infra failure
    infra_timeouts: int = 0  #: workers killed for exceeding task_timeout
    infra_crashes: int = 0  #: workers that died underneath a task
    infra_hung: int = 0  #: workers killed by the heartbeat watchdog
    quarantined: int = 0  #: poison tasks recorded as TaskFailure
    replayed_failures: int = 0  #: failures served from a checkpoint
    #: :class:`repro.obs.ExecEvent` records for every infra incident.
    infra_events: List[Any] = field(default_factory=list)
    #: per-task-kind outcome counters: ``{kind: {"done"|"cached"|"failed": n}}``
    task_kinds: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: what this call did to its :class:`WorkerPool` (see
    #: :meth:`WorkerPool.describe`): ``workers`` alive when it ended and
    #: the ``spawned`` / ``respawned`` / ``tasks_run`` it added
    pool: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(POOL_COUNTERS, 0))

    def count_task(self, kind: str, outcome: str) -> None:
        """Bump the ``{kind: {outcome: n}}`` counter (outcome is one of
        ``done``/``cached``/``failed``)."""
        per_kind = self.task_kinds.setdefault(kind, {})
        per_kind[outcome] = per_kind.get(outcome, 0) + 1

    def absorb(self, other: "ExecutionStats") -> None:
        """Add the accounting of one more :func:`execute` call to this
        running total (``jobs`` is the total's own and is left alone)."""
        self.total += other.total
        self.cache_hits += other.cache_hits
        self.executed += other.executed
        self.failed += other.failed
        self.pool_broken = self.pool_broken or other.pool_broken
        self.wall_seconds += other.wall_seconds
        self.failures.extend(other.failures)
        self.infra_retries += other.infra_retries
        self.infra_timeouts += other.infra_timeouts
        self.infra_crashes += other.infra_crashes
        self.infra_hung += other.infra_hung
        self.quarantined += other.quarantined
        self.replayed_failures += other.replayed_failures
        self.infra_events.extend(other.infra_events)
        for kind, outcomes in other.task_kinds.items():
            per_kind = self.task_kinds.setdefault(kind, {})
            for outcome, count in outcomes.items():
                per_kind[outcome] = per_kind.get(outcome, 0) + count
        for name, count in other.pool.items():
            mine = self.pool[name]
            self.pool[name] = max(mine, count) if name == "workers" else mine + count

    @property
    def cache_misses(self) -> int:
        return self.total - self.cache_hits

    @property
    def hit_ratio(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    @property
    def infra_failures(self) -> int:
        return self.infra_crashes + self.infra_timeouts + self.infra_hung

    def describe(self) -> str:
        base = (
            f"{self.total} task(s): {self.cache_hits} cached, "
            f"{self.executed} executed (jobs={self.jobs}, "
            f"{self.wall_seconds:.1f}s)"
        )
        if self.infra_failures or self.quarantined:
            base += (
                f"; infra: {self.infra_retries} retries "
                f"({self.infra_crashes} crashes, {self.infra_timeouts} timeouts, "
                f"{self.infra_hung} hung), {self.quarantined} quarantined"
            )
        return base

    def to_dict(self) -> Dict[str, Any]:
        """Machine-readable form of the accounting above.  This is the
        schema behind the CLI's ``[repro] infra-json:`` line and the
        service's ``/status`` payload — counters only, JSON-safe, with
        the derived ratios precomputed so consumers don't re-implement
        them (which is why it is not ``to_data`` alone); the failure and
        event lists have their own exports."""
        data = to_data(self)
        del data["failures"], data["infra_events"]
        data.update(
            cache_misses=self.cache_misses,
            hit_ratio=self.hit_ratio,
            infra_failures=self.infra_failures,
        )
        return data


@dataclass(frozen=True)
class ProgressEvent:
    """Passed to the ``progress`` callback as each task finishes."""

    index: int  #: position in the submitted task list
    completed: int  #: tasks finished so far (including this one)
    total: int
    cached: bool
    payload: Any  #: the task's result, or None if it failed
    attempt: int = 1  #: execution attempts this task consumed (1 = no retries)


# ----------------------------------------------------------------------
# the executor
# ----------------------------------------------------------------------


def task_kind(task) -> str:
    """A task's accounting label: its ``kind`` class attribute, falling
    back to the lowercased class name for third-party task types."""
    return getattr(type(task), "kind", type(task).__name__.lower())


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/0 means one worker per CPU."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError("jobs must be a positive worker count (or None/0 for auto)")
    return jobs


def _run_task(task) -> Tuple[str, Any]:
    """Worker-side wrapper: never raises, so one bad task cannot take the
    pool down with an unpicklable exception."""
    try:
        return "ok", task.execute()
    except DeadlockError as exc:
        return "deadlock", (exc.cycle, str(exc))
    except Exception:
        return "error", traceback.format_exc()


def _task_label(task, index: int) -> str:
    name = type(task).__name__
    config = getattr(task, "config", None)
    if config is not None:
        try:
            return f"task {index} ({name} {config.content_hash()[:12]})"
        except Exception:
            pass
    return f"task {index} ({name})"


# ----------------------------------------------------------------------
# the supervised worker pool
# ----------------------------------------------------------------------


def _worker_main(conn, heartbeat_interval) -> None:
    """Worker process body: execute tasks received on ``conn`` one at a
    time, posting heartbeats from a daemon thread *while a task is in
    flight* so the parent can tell a stalled process from a slow one (an
    idle worker posts nothing: between calls nobody reads its pipe).  The
    pipe is this worker's alone, both ways, so a worker killed mid-send
    damages nothing but its own pipe; a worker-local lock orders its two
    senders.  If the parent disappears (its pid changes — the parent was
    SIGKILLed and we were re-parented) the worker exits within a poll
    tick: EOF cannot tell it, since workers forked later hold copies of
    the parent's end.

    A worker is forked from whatever its owner happened to be — a
    server that routes SIGTERM/SIGINT to a graceful drain, say — so it
    drops the inherited handlers first: SIGTERM kills it (that is how
    ``terminate()`` and the exit-time cleanup of ``multiprocessing``
    stop it), SIGINT is the parent's to act on.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent = os.getppid()
    busy = threading.Event()
    send_lock = threading.Lock()

    def orphaned() -> bool:
        return os.getppid() != parent

    def send(message) -> None:
        try:
            with send_lock:
                conn.send(message)
        except Exception:
            os._exit(2)

    if heartbeat_interval and heartbeat_interval > 0:

        def beat() -> None:
            while True:
                time.sleep(heartbeat_interval)
                if orphaned():
                    os._exit(2)
                if busy.is_set():
                    send(("hb",))

        threading.Thread(target=beat, daemon=True).start()

    while True:
        try:
            if not conn.poll(1.0):
                if orphaned():
                    os._exit(2)
                continue
            item = conn.recv()
        except (EOFError, OSError):
            os._exit(2)
        if item is None:  # shutdown sentinel
            return
        epoch, index, attempt, task = item
        busy.set()
        outcome = _run_task(task)
        busy.clear()
        send(("done", epoch, index, attempt, outcome))


class _WorkerHandle:
    __slots__ = ("process", "conn", "busy", "last_beat")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        self.busy: Optional[Tuple[int, int, float]] = None  # (index, attempt, t0)
        self.last_beat = time.monotonic()


def _stop_worker(handle: _WorkerHandle) -> None:
    if handle.process.is_alive():
        handle.process.kill()
    handle.process.join(timeout=1.0)
    handle.conn.close()


class WorkerPool:
    """Supervised worker processes, kept for as long as their owner
    holds the pool.

    Unlike ``concurrent.futures``, every worker has its own duplex pipe
    — tasks go down it, heartbeats and results come back — so the parent
    always knows exactly which (task, attempt) a dead, hung or overdue
    worker was running: failures are attributable, and only the victim
    task pays for them.  Nothing is shared between workers, so a worker
    killed at any point, even halfway through writing a message, cannot
    stall the others: the parent holds no copy of a worker's end, and a
    dead worker's pipe reads as end-of-file.

    **Ownership.**  Lifetime is whoever holds the object: :func:`execute`
    opens one for a single call when none is passed, ``mc.run_plan``
    holds one for all waves of a plan, ``CampaignService`` one for its
    life.  Workers are spawned on demand by :meth:`run` (a pool that
    never runs parallel work costs nothing) and stay, warm, until
    :meth:`close`.  A pool serves one :meth:`run` at a time and is not
    thread-safe.

    **Per call vs per pool.**  Everything parent-side is per call and
    comes from that call's :class:`ExecPolicy` — ``task_timeout``,
    ``max_attempts``, backoff, ``heartbeat_grace`` — as do its stats
    and ExecEvents.  Only the worker-side ``heartbeat_interval`` is
    fixed when the pool is built.  Every message carries the *epoch* of
    the call that dispatched it and results of another epoch are
    dropped, so a late answer to an earlier call can never be delivered
    into a later one.
    """

    def __init__(self, *, heartbeat_interval: float = DEFAULT_POLICY.heartbeat_interval):
        self._ctx = multiprocessing.get_context()
        self._workers: Dict[int, _WorkerHandle] = {}
        self._heartbeat_interval = heartbeat_interval
        self._next_wid = 0
        self._epoch = 0
        self._lost = 0  # workers gone and not yet replaced
        self._closed = False
        self.spawned = 0  #: worker processes started
        self.respawned = 0  #: ... of which replaced a worker that died or was killed
        self.tasks_run = 0  #: task attempts handed to a worker

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def describe(self) -> Dict[str, int]:
        """Result-neutral, timestamp-free counters (``/status`` and the
        CLI's ``infra-json`` line)."""
        return {
            "workers": len(self._workers),
            "spawned": self.spawned,
            "respawned": self.respawned,
            "tasks_run": self.tasks_run,
        }

    def pids(self) -> List[int]:
        return sorted(handle.process.pid for handle in self._workers.values())

    # ------------------------------------------------------------------
    def _spawn(self) -> None:
        wid = self._next_wid
        self._next_wid += 1
        conn, worker_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_conn, self._heartbeat_interval),
            daemon=True,
        )
        process.start()
        # the worker's end must live in the worker alone: a worker that
        # dies mid-send then reads as EOF here, never as a blocked recv()
        worker_conn.close()
        self._workers[wid] = _WorkerHandle(process, conn)
        self.spawned += 1
        if self._lost:
            self._lost -= 1
            self.respawned += 1

    def _discard(self, wid: int) -> _WorkerHandle:
        handle = self._workers.pop(wid)
        _stop_worker(handle)
        self._lost += 1
        return handle

    def close(self) -> None:
        """Stop every worker — sentinel, a bounded join, then kill — and
        close the pipes.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        handles = list(self._workers.values())
        self._workers.clear()
        # run() leaves no worker busy, so each is waiting on its pipe
        for handle in handles:
            try:
                handle.conn.send(None)
            except OSError:
                pass
        deadline = time.monotonic() + 1.0
        for handle in handles:
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
        for handle in handles:
            _stop_worker(handle)

    # ------------------------------------------------------------------
    def run(
        self,
        tasks: Sequence[Any],
        pending: Sequence[int],
        jobs: int,
        policy: ExecPolicy,
        stats: ExecutionStats,
        deliver: Callable[[int, int, Tuple[str, Any]], None],
        record_event: Callable[..., None],
    ) -> None:
        """Run ``pending`` task indices on at most ``jobs`` workers,
        delivering each outcome (to the store, checkpoint and progress
        callback) the moment it arrives.  This is the one supervision
        loop: dispatch, heartbeat / timeout / crash detection, retry
        with backoff, quarantine, respawn."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        self._epoch += 1
        epoch = self._epoch
        workers = self._workers
        before = self.describe()
        seq = 0  # heap tiebreak

        outstanding = set(pending)
        current_attempt = {index: 1 for index in pending}
        ready: List[Tuple[float, int, int, int]] = []  # (ready_time, seq, index, attempt)
        for index in pending:
            ready.append((0.0, seq, index, 1))
            seq += 1
        heapq.heapify(ready)

        def pop_ready(now: float) -> Optional[Tuple[int, int]]:
            while ready:
                ready_time, _tie, index, attempt = ready[0]
                if ready_time > now:
                    return None
                heapq.heappop(ready)
                # skip entries made stale by a delivered result or a newer attempt
                if index in outstanding and current_attempt.get(index) == attempt:
                    return index, attempt
            return None

        def fail_busy(wid: int, kind: str, detail: str) -> None:
            nonlocal seq
            index, attempt, _t0 = self._discard(wid).busy  # type: ignore[misc]
            stats.pool_broken = True
            counter = {
                "crash": "infra_crashes",
                "timeout": "infra_timeouts",
                "hung": "infra_hung",
            }[kind]
            setattr(stats, counter, getattr(stats, counter) + 1)
            record_event(f"task_{kind}", index, attempt, detail)
            if index not in outstanding:
                return  # a stale attempt died; the task already delivered
            label = _task_label(tasks[index], index)
            if attempt < policy.max_attempts:
                stats.infra_retries += 1
                delay = policy.backoff(attempt)
                record_event(
                    "task_retry",
                    index,
                    attempt + 1,
                    f"retrying after {kind} (backoff {delay:.3f}s)",
                )
                current_attempt[index] = attempt + 1
                heapq.heappush(ready, (time.monotonic() + delay, seq, index, attempt + 1))
                seq += 1
            elif kind == "crash" and policy.in_process_fallback:
                warnings.warn(
                    f"worker pool broke on {label} after {attempt} attempt(s); "
                    "running it in-process",
                    RuntimeWarning,
                    stacklevel=4,
                )
                outstanding.discard(index)
                deliver(index, attempt, _run_task(tasks[index]))
            else:
                stats.quarantined += 1
                record_event("task_quarantine", index, attempt, detail)
                message = (
                    f"{label} quarantined: {kind} on all {attempt} attempt(s) "
                    f"({detail})"
                )
                outstanding.discard(index)
                deliver(index, attempt, (kind, message))

        try:
            while outstanding:
                # --- supervise: replace the dead, fail the overdue ---------
                now = time.monotonic()
                for wid in list(workers):
                    handle = workers[wid]
                    if handle.busy is None:
                        if not handle.process.is_alive():
                            # an idle worker died; replace it quietly
                            self._discard(wid)
                        continue
                    _index, _attempt, t0 = handle.busy
                    if not handle.process.is_alive():
                        fail_busy(
                            wid, "crash", f"worker exited with code {handle.process.exitcode}"
                        )
                    elif policy.task_timeout is not None and now - t0 > policy.task_timeout:
                        fail_busy(
                            wid,
                            "timeout",
                            f"exceeded the {policy.task_timeout:.1f}s wall-clock budget",
                        )
                    elif (
                        policy.heartbeat_grace > 0
                        and now - handle.last_beat > policy.heartbeat_grace
                    ):
                        fail_busy(
                            wid, "hung", f"no heartbeat for {policy.heartbeat_grace:.1f}s"
                        )
                if not outstanding:
                    break  # the last task was settled by the supervisor itself
                while len(workers) < min(jobs, len(outstanding)):
                    self._spawn()
                # --- dispatch ready work to idle workers -------------------
                now = time.monotonic()
                idle = [handle for handle in workers.values() if handle.busy is None]
                # an earlier call may have left more workers than this one asked for
                for handle in idle[: max(0, jobs - (len(workers) - len(idle)))]:
                    item = pop_ready(now)
                    if item is None:
                        break
                    index, attempt = item
                    try:
                        handle.conn.send((epoch, index, attempt, tasks[index]))
                    except OSError:
                        pass  # the worker is dead; the supervisor settles it
                    handle.busy = (index, attempt, now)
                    handle.last_beat = now
                    self.tasks_run += 1
                # --- drain results and heartbeats --------------------------
                owner = {handle.conn: handle for handle in workers.values()}
                for conn in wait(owner, timeout=0.05):
                    handle = owner[conn]
                    try:
                        while conn.poll():
                            message = conn.recv()
                            if message[0] == "hb":
                                handle.last_beat = time.monotonic()
                            elif message[1] == epoch:
                                _, _epoch, index, attempt, outcome = message
                                handle.busy = None
                                if index in outstanding:
                                    outstanding.discard(index)
                                    deliver(index, attempt, outcome)
                            # else: the answer to an earlier call
                    except (EOFError, OSError):
                        # the worker died, perhaps halfway through a
                        # message; once reaped, the supervisor settles it
                        handle.process.join(timeout=1.0)
        finally:
            # a call that leaves by an exception can leave workers mid-task
            # on work nobody will collect; between calls every worker is idle
            for wid in [wid for wid, handle in workers.items() if handle.busy is not None]:
                self._discard(wid)
            stats.pool = {
                name: count - (0 if name == "workers" else before[name])
                for name, count in self.describe().items()
            }


def execute(
    tasks: Sequence[Any],
    *,
    jobs: Optional[int] = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    allow_failures: bool = False,
    policy: Optional[ExecPolicy] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
    pool: Optional[WorkerPool] = None,
) -> Tuple[List[Any], ExecutionStats]:
    """Run every task and return ``(payloads, stats)`` in task order.

    ``store`` memoizes cacheable tasks: hits skip the pool entirely and
    fresh results are persisted the moment they arrive.  Each task's key
    is derived once per call and serves its store lookup, its store
    write and its checkpoint marks.

    ``jobs=1`` runs in-process (keeping the per-process network reuse);
    ``jobs>1`` uses a supervised worker pool; ``jobs in (None, 0)``
    sizes the pool to the CPU count.

    ``pool`` says who owns the workers: a caller that makes many calls
    passes its own :class:`WorkerPool` and keeps the workers (warm)
    between them; with none, a parallel call opens a pool for itself
    and closes it on the way out.  Either way ``jobs`` bounds how many
    workers this call uses.

    ``policy`` governs timeouts, retries, heartbeats and quarantine for
    the worker pool (see :class:`ExecPolicy`; in-process execution
    cannot crash a worker, so the policy is inert at ``jobs=1``).

    ``checkpoint`` makes the run resumable: every terminal task is
    marked durably as it completes, previously recorded failures are
    replayed as :class:`TaskFailure`\\ s without re-running the task, and
    previously completed work is served from the store (or re-executed
    deterministically when the store cannot serve it).  It must name
    exactly ``tasks``, else :class:`~.checkpoint.CheckpointMismatch` is raised before
    anything runs.  Opened by :meth:`SweepCheckpoint.for_tasks` for these
    very task objects, its manifest's keys are used without hashing the
    tasks again (:meth:`SweepCheckpoint.keys_for`).

    With ``allow_failures=True`` failed tasks yield ``None`` payloads and
    are listed in ``stats.failures``; otherwise the first failure in task
    order is raised — as :class:`~repro.sim.DeadlockError` if the task
    deadlocked, as :class:`ExecutionError` (with every collected
    traceback) for anything else.
    """
    started = perf_counter()
    tasks = list(tasks)
    policy = policy if policy is not None else DEFAULT_POLICY
    stats = ExecutionStats(total=len(tasks), jobs=resolve_jobs(jobs))
    payloads: List[Any] = [None] * len(tasks)
    completed = 0

    # one key per task per call, handed to the checkpoint marks and the
    # store's get / put: a cacheable task's checkpoint key is its store
    # key (task_key), so under the store's version one list serves both
    keys: Optional[List[str]] = None
    store_keys: Optional[List[Optional[str]]] = None
    records: Dict[str, dict] = {}
    if checkpoint is not None:
        version = checkpoint.manifest().get("version") or (
            store.version if store is not None else CODE_VERSION
        )
        keys = checkpoint.keys_for(tasks, version)
        records = checkpoint.completed()
        if store is not None and version == store.version:
            store_keys = keys
    if store is not None and store_keys is None:
        store_keys = [store.key(task.config) if task.cacheable else None for task in tasks]

    def record_event(kind: str, index: int, attempt: int, detail: str = "") -> None:
        from ..obs.events import ExecEvent

        stats.infra_events.append(
            ExecEvent(
                kind=kind,
                task_index=index,
                attempt=attempt,
                key=keys[index] if keys is not None else "",
                detail=detail,
            )
        )

    def finish(index: int, payload: Any, cached: bool, attempt: int = 1) -> None:
        nonlocal completed
        completed += 1
        payloads[index] = payload
        if progress is not None:
            progress(
                ProgressEvent(
                    index=index,
                    completed=completed,
                    total=len(tasks),
                    cached=cached,
                    payload=payload,
                    attempt=attempt,
                )
            )

    def deliver(index: int, attempt: int, outcome: Tuple[str, Any]) -> None:
        """Integrate one terminal outcome: persist, mark, report."""
        status, payload = outcome
        if status == "ok":
            stats.executed += 1
            stats.count_task(task_kind(tasks[index]), "done")
            if store is not None and tasks[index].cacheable:
                result = payload.result if isinstance(payload, CampaignReplay) else payload
                store.put(store_keys[index], tasks[index].config, result)
            if checkpoint is not None:
                checkpoint.mark_ok(keys[index])
            finish(index, payload, cached=False, attempt=attempt)
            return
        if status == "deadlock":
            cycle, message = payload
        else:
            cycle, message = None, payload
        stats.failed += 1
        stats.count_task(task_kind(tasks[index]), "failed")
        stats.failures.append(
            TaskFailure(
                index=index, kind=status, message=message, cycle=cycle, attempts=attempt
            )
        )
        if checkpoint is not None:
            checkpoint.mark_failed(
                keys[index], kind=status, message=message, cycle=cycle, attempts=attempt
            )
        finish(index, None, cached=False, attempt=attempt)

    # --- serve what the checkpoint and store already have --------------
    pending: List[int] = []
    for index, task in enumerate(tasks):
        record = records.get(keys[index]) if keys is not None else None
        if record is not None and record.get("status") == "failed":
            # a recorded (deterministic or quarantined) failure: replay
            # it instead of re-running the task on every resume
            stats.failed += 1
            stats.replayed_failures += 1
            stats.count_task(task_kind(task), "failed")
            stats.failures.append(
                TaskFailure(
                    index=index,
                    kind=str(record.get("kind", "error")),
                    message=str(record.get("message", "")),
                    cycle=record.get("cycle"),
                    attempts=int(record.get("attempts", 1)),
                )
            )
            finish(index, None, cached=True)
            continue
        hit = None
        # traced tasks always execute: a cache hit would return the same
        # result but skip producing the trace files the caller asked for
        if store is not None and task.cacheable and getattr(task, "trace", None) is None:
            hit = store.get(store_keys[index])
        if hit is not None:
            stats.cache_hits += 1
            stats.count_task(task_kind(task), "cached")
            if checkpoint is not None and record is None:
                checkpoint.mark_ok(keys[index])
            finish(index, hit, cached=True)
        else:
            pending.append(index)

    # --- run the misses ------------------------------------------------
    if pending and stats.jobs > 1:
        # a passed pool is its owner's to close; ours lasts for this call
        with nullcontext(pool) if pool is not None else WorkerPool(
            heartbeat_interval=policy.heartbeat_interval
        ) as workers:
            workers.run(tasks, pending, stats.jobs, policy, stats, deliver, record_event)
    else:
        for index in pending:
            deliver(index, 1, _run_task(tasks[index]))

    stats.wall_seconds = perf_counter() - started
    if stats.failures and not allow_failures:
        ordered = sorted(stats.failures, key=lambda f: f.index)
        first = ordered[0]
        if first.kind == "deadlock":
            raise DeadlockError(first.cycle, first.message)
        raise ExecutionError(ordered)
    return payloads, stats


def run_configs(
    configs: Sequence[SimulationConfig],
    *,
    jobs: Optional[int] = 1,
    store: Optional[ResultStore] = None,
    progress: Optional[Callable[[ProgressEvent], None]] = None,
    policy: Optional[ExecPolicy] = None,
    checkpoint: Optional[SweepCheckpoint] = None,
) -> Tuple[List[SimulationResult], ExecutionStats]:
    """Convenience wrapper: one :class:`PointTask` per config."""
    return execute(
        [PointTask(config) for config in configs],
        jobs=jobs,
        store=store,
        progress=progress,
        policy=policy,
        checkpoint=checkpoint,
    )
