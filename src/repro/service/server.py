"""The campaign service: a long-lived HTTP job server over the
Experiment/exec/store machinery.

Architecture — three layers, each reusing an existing guarantee:

* **Admission** (:meth:`CampaignService.submit`): payloads are parsed
  into :class:`~repro.service.jobs.JobSpec`\\ s whose content hash is the
  job id, so resubmission — including a client retrying after a lost
  response or a server restart — is idempotent: the existing record is
  returned instead of new work being queued.  The queue is *bounded*:
  past ``max_queue`` waiting jobs, submission fails with
  :class:`QueueFull` (HTTP 429 + ``Retry-After``) instead of growing
  memory without limit; a draining server refuses with
  :class:`Draining` (503).
* **Execution** (the runner thread): one job at a time through
  :func:`repro.exec.executor.execute` with the service's shared
  :class:`~repro.exec.store.ResultStore`, a per-job
  :class:`~repro.exec.checkpoint.SweepCheckpoint` under the job
  directory, and the job's own :class:`~repro.exec.ExecPolicy`
  (timeout/retry/backoff) — so worker crashes, hangs, and poison tasks
  are absorbed by the supervised pool, and every terminal point is
  durable the moment it lands.  The service owns one
  :class:`~repro.exec.WorkerPool` for its whole life: workers are
  spawned at the first parallel job, reused (warm) by every later one,
  and closed by the runner thread as it exits.
* **Durability** (:class:`~repro.service.jobs.JobStore`): every state
  transition is journaled (fsynced, torn-tail-healed) *after* the data
  it refers to is safely on disk.  A SIGKILL'd server therefore
  restarts, replays the journal, re-queues anything non-terminal, and
  re-runs it against the same store + checkpoint — completed points are
  cache-served, campaign replays re-execute deterministically, and the
  final ``result.json`` is bit-for-bit what an uninterrupted run writes.
  ``repro.service.chaos`` enforces exactly this.

SIGTERM (or ``POST /drain``) triggers graceful drain: admission stops
(503), the in-flight job finishes (its checkpoint makes a later SIGKILL
safe anyway), queued jobs stay journaled for the next start, exports are
flushed, the worker pool is closed, and the process exits.

Endpoints (all JSON unless noted)::

    POST /jobs            submit a spec        -> 200/201 {job, state, ...}
    GET  /jobs            list job summaries
    GET  /jobs/<id>       one job's summary (includes result when done)
    GET  /jobs/<id>/result    terminal payload (409 while running)
    GET  /jobs/<id>/events    NDJSON progress stream (?since=N)
    GET  /jobs/<id>/trace     exported obs artifacts as they land
    GET  /jobs/<id>/trace/<name>   one artifact (CSV/JSONL/JSON)
    GET  /status          ExecutionStats totals + queue/drain/pool state
    GET  /healthz         liveness
    POST /drain           begin graceful drain
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from ..canonical import to_data
from ..exec.checkpoint import SweepCheckpoint
from ..exec.durable import atomic_write_text
from ..exec.executor import ExecutionStats, ProgressEvent, WorkerPool, execute
from ..exec.store import CODE_VERSION, ResultStore
from .jobs import (
    DONE,
    FAILED,
    RUNNING,
    JobRecord,
    JobSpec,
    JobStore,
    SpecError,
)

SERVER_INFO_NAME = "server.json"
STORE_DIR = "store"
#: the largest request body the server reads (a job spec is a few KiB)
MAX_BODY_BYTES = 1 << 20
#: seconds a connection may stall on one socket read or write; a body
#: that stops short of its ``Content-Length`` is answered 408
REQUEST_TIMEOUT_S = 10.0


class QueueFull(RuntimeError):
    """Admission refused: the bounded queue is at capacity."""

    def __init__(self, depth: int, retry_after: int):
        super().__init__(f"admission queue full ({depth} waiting)")
        self.retry_after = retry_after


class Draining(RuntimeError):
    """Admission refused: the server is draining for shutdown."""


class _Refused(Exception):
    """A request answered with ``status`` and a closed connection: its
    body is unread or incomplete."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


# ----------------------------------------------------------------------
# result payload serialization
# ----------------------------------------------------------------------


def _epoch_dict(epoch: Any) -> Optional[Dict[str, Any]]:
    if epoch is None:
        return None
    return {**to_data(epoch), "throughput": epoch.throughput}


def payload_to_json(payload: Any) -> Optional[Dict[str, Any]]:
    """A deterministic JSON form of one task payload.

    :class:`~repro.sim.metrics.SimulationResult` round-trips through its
    own ``to_dict`` (the store's on-disk form, already proven exact by
    the exec chaos harness).  :class:`~repro.exec.executor.CampaignReplay`
    has no stable store form, so the service defines one here — a view,
    not ``to_data``: the final simulation metrics plus a scalar summary
    of every injection record (its reconfiguration report left out) —
    all fields deterministic given the spec, which is what lets the
    service chaos harness compare campaign jobs bit-for-bit.
    """
    if payload is None:
        return None
    outcome = getattr(payload, "outcome", None)
    if outcome is None:
        return payload.to_dict()
    return {
        "kind": "campaign",
        "result": payload.result.to_dict(),
        "network": payload.network_description,
        "outcome": {
            "final_cycle": outcome.final_cycle,
            "drained": outcome.drained,
            "applied_events": outcome.applied_events,
            "degraded_throughput_ratio": outcome.degraded_throughput_ratio,
            "baseline": _epoch_dict(outcome.baseline),
            "transport": to_data(outcome.stats),
            "records": [
                {
                    "index": record.index,
                    "event": to_data(record.event),
                    "applied": record.applied,
                    "cycle": record.cycle,
                    "error": record.error,
                    "time_to_recover": record.time_to_recover,
                    "epoch": _epoch_dict(record.epoch),
                }
                for record in outcome.records
            ],
        },
    }


def result_payload(
    job_id: str, payloads: List[Any], stats: ExecutionStats
) -> Dict[str, Any]:
    """The terminal ``result.json`` for one job.  ``results`` and
    ``failures`` are deterministic (the chaos harness compares exactly
    those); ``stats`` is accounting and legitimately varies between an
    uninterrupted run and a resumed one (cache hits, wall time)."""
    return {
        "job": job_id,
        "results": [payload_to_json(p) for p in payloads],
        "failures": to_data(stats.failures),
        "stats": stats.to_dict(),
    }


def mc_result_payload(job_id: str, outcome: Any) -> Dict[str, Any]:
    """The terminal ``result.json`` for an ``mc`` job: one deterministic
    cell-estimate dict per plan cell (see
    :meth:`repro.mc.CellEstimate.to_payload` — execution-shaped detail
    is deliberately excluded, so a resumed run writes the identical
    ``results``/``failures`` and :func:`deterministic_blob` compares
    mc jobs exactly like sweeps and campaigns)."""
    return {
        "job": job_id,
        "results": outcome.to_payload()["cells"],
        "failures": to_data(outcome.stats.failures),
        "stats": outcome.stats.to_dict(),
    }


def deterministic_blob(result: Dict[str, Any]) -> str:
    """The bit-for-bit comparable part of a ``result.json`` payload."""
    return json.dumps(
        {"results": result.get("results"), "failures": result.get("failures")},
        sort_keys=True,
    )


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------


class CampaignService:
    """Job queue + runner + durable state (see module docstring).

    ``jobs`` is the executor pool size each job runs with; ``max_queue``
    bounds the number of *waiting* jobs before admission sheds load.
    The constructor replays the journal: terminal jobs come back in
    their recorded state, everything else re-enters the queue in
    original submission order.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        jobs: int = 2,
        max_queue: int = 16,
        version: str = CODE_VERSION,
    ):
        self.root = Path(root)
        self.jobs = jobs
        self.max_queue = max_queue
        self.version = version
        self.store_dir = self.root / STORE_DIR
        self.job_store = JobStore(self.root, version=version)
        self.result_store = ResultStore(self.store_dir)
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        #: notified on every progress event / state change (streamers wait here)
        self._progress = threading.Condition(self._lock)
        self._draining = False
        self._stopped = False
        self.totals = ExecutionStats(jobs=jobs)
        #: the workers every job runs on: spawned at the first parallel
        #: job, kept (warm) for the life of the service, closed by the
        #: runner thread — their only user — when it exits
        self.pool = WorkerPool()
        self.records, pending = self.job_store.recover()
        self._queue: List[str] = list(pending)
        self._runner = threading.Thread(
            target=self._run_loop, name="repro-service-runner", daemon=True
        )
        self._runner.start()

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(self, payload: Any) -> Tuple[JobRecord, bool]:
        """Admit one job; returns ``(record, created)``.

        Raises :class:`~repro.service.jobs.SpecError` (bad payload),
        :class:`Draining`, or :class:`QueueFull`.  The spec file is
        written *before* the submission is journaled so a journaled
        submit always has a readable spec; the reverse crash (spec
        without journal) is re-adopted as an orphan on restart.
        """
        spec = JobSpec.from_payload(payload)
        job_id = spec.job_id(self.version)
        with self._lock:
            existing = self.records.get(job_id)
            if existing is not None:
                return existing, False
            if self._draining or self._stopped:
                raise Draining("server is draining; not admitting new jobs")
            if len(self._queue) >= self.max_queue:
                # a coarse, honest hint: one queue slot per drained job
                retry_after = max(2, 2 * len(self._queue))
                raise QueueFull(len(self._queue), retry_after)
            record = JobRecord(job_id=job_id, spec=spec)
            record.total = spec.task_total()
            self.job_store.write_spec(job_id, spec)
            self.job_store.journal("submit", job_id, kind=spec.kind)
            self.records[job_id] = record
            self._queue.append(job_id)
            self._wakeup.notify_all()
            self._progress.notify_all()
            return record, True

    # ------------------------------------------------------------------
    # the runner
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        try:
            while True:
                with self._lock:
                    while not self._queue and not self._draining and not self._stopped:
                        self._wakeup.wait(timeout=0.5)
                    if self._draining or self._stopped:
                        # drain: stop pulling new work; anything still queued
                        # stays journaled for the next start
                        return
                    job_id = self._queue.pop(0)
                    record = self.records[job_id]
                    record.state = RUNNING
                    self._progress.notify_all()
                try:
                    self._run_one(record)
                except BaseException as exc:  # noqa: BLE001 — runner must survive
                    self._finish(record, FAILED, error=f"{type(exc).__name__}: {exc}")
        finally:
            # drained or stopped: the workers go before the process does
            # (sentinel, bounded join, kill) — wait_drained() returning
            # means no child is left
            self.pool.close()

    def _run_one(self, record: JobRecord) -> None:
        job_id = record.job_id
        spec = record.spec
        self.job_store.journal("start", job_id)
        if spec.kind == "mc":
            self._run_mc(record)
            return
        trace_config = None
        if spec.trace:
            from ..obs import TraceConfig

            trace_config = TraceConfig(
                out_dir=str(self.job_store.trace_dir(job_id)),
                window=spec.trace_window,
            )
        tasks = spec.build_tasks(trace_config)
        with self._lock:
            record.total = len(tasks)
        checkpoint = SweepCheckpoint.for_tasks(
            self.job_store.checkpoint_root(job_id), tasks, version=self.version
        )

        def on_progress(event: ProgressEvent) -> None:
            with self._lock:
                record.completed = event.completed
                record.events.append(
                    {
                        "index": event.index,
                        "completed": event.completed,
                        "total": event.total,
                        "cached": event.cached,
                        "attempt": event.attempt,
                        "ok": event.payload is not None,
                    }
                )
                self._progress.notify_all()

        payloads, stats = execute(
            tasks,
            jobs=self.jobs,
            store=self.result_store,
            progress=on_progress,
            allow_failures=True,
            policy=spec.exec_policy(),
            checkpoint=checkpoint,
            pool=self.pool,
        )
        self._persist(record, result_payload(job_id, payloads, stats), stats)

    def _run_mc(self, record: JobRecord) -> None:
        """Run one Monte-Carlo reliability plan.  Durability comes from
        the job's :class:`repro.mc.TallyLog` (fsynced shard tallies under
        the job directory) instead of a SweepCheckpoint: a restarted
        server re-runs the plan, serves completed shards from the log,
        and — because the early-stopping rule is prefix-exact — writes a
        bit-for-bit identical result payload."""
        from ..mc import MCProgress, run_plan

        job_id = record.job_id
        spec = record.spec
        plan = spec.mc_plan()
        with self._lock:
            record.total = spec.task_total()
        per_cell: Dict[int, int] = {}

        def on_progress(progress: MCProgress) -> None:
            with self._lock:
                per_cell[progress.cell_index] = progress.shards_done
                record.completed = sum(per_cell.values())
                record.events.append(
                    {
                        "index": progress.cell_index,
                        "completed": record.completed,
                        "total": record.total,
                        "cell": progress.cell_key,
                        "samples": progress.samples,
                        "stopped": progress.stopped,
                    }
                )
                self._progress.notify_all()

        outcome = run_plan(
            plan,
            jobs=self.jobs,
            tally_log=self.job_store.tally_log_path(job_id),
            policy=spec.exec_policy(),
            progress=on_progress,
            pool=self.pool,
        )
        self._persist(record, mc_result_payload(job_id, outcome), outcome.stats)

    def _persist(self, record: JobRecord, payload: Dict[str, Any], stats) -> None:
        """The durable tail of every finished job.  The order is the
        contract: exec events, then the result payload, then the terminal
        journal record — a crash at any point leaves either a re-runnable
        job or a fully-recorded one, never a half-truth."""
        from ..obs.export import write_jsonl

        job_id = record.job_id
        write_jsonl(stats.infra_events, self.job_store.exec_events_path(job_id))
        self.job_store.write_result(job_id, payload)
        with self._lock:
            record.stats = payload["stats"]
            self.totals.absorb(stats)
        self._finish(record, DONE)

    def _finish(self, record: JobRecord, state: str, *, error: str = "") -> None:
        if state == FAILED:
            self.job_store.journal("failed", record.job_id, error=error)
        else:
            self.job_store.journal("done", record.job_id)
        with self._lock:
            record.state = state
            record.error = error
            if state == DONE:
                record.completed = record.total
            self._progress.notify_all()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        with self._lock:
            states: Dict[str, int] = {}
            kinds: Dict[str, Dict[str, int]] = {}
            for record in self.records.values():
                states[record.state] = states.get(record.state, 0) + 1
                per_kind = kinds.setdefault(record.spec.kind, {})
                per_kind[record.state] = per_kind.get(record.state, 0) + 1
            return {
                "pid": os.getpid(),
                "root": str(self.root),
                "jobs": self.jobs,
                "max_queue": self.max_queue,
                "queued": len(self._queue),
                "draining": self._draining,
                "job_states": states,
                "job_kinds": kinds,
                "stats": self.totals.to_dict(),
                "pool": self.pool.describe(),
            }

    def job_summaries(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [
                self.records[job_id].summary() for job_id in sorted(self.records)
            ]

    def get(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self.records.get(job_id)

    def wait_events(
        self, job_id: str, since: int, timeout: float = 10.0
    ) -> Tuple[List[Dict[str, Any]], bool]:
        """Events past index ``since`` for the NDJSON stream, long-polling
        up to ``timeout`` when none are pending; returns ``(events,
        terminal)``."""
        deadline = _monotonic() + timeout
        with self._lock:
            record = self.records.get(job_id)
            if record is None:
                return [], True
            while (
                len(record.events) <= since
                and not record.terminal
                and not self._stopped
            ):
                remaining = deadline - _monotonic()
                if remaining <= 0:
                    break
                self._progress.wait(timeout=min(remaining, 0.5))
            return list(record.events[since:]), record.terminal

    # ------------------------------------------------------------------
    # drain / shutdown
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Stop admitting; let the in-flight job finish; keep queued jobs
        journaled for the next start."""
        with self._lock:
            self._draining = True
            self._wakeup.notify_all()
            self._progress.notify_all()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        self._runner.join(timeout)
        return not self._runner.is_alive()

    def stop(self) -> None:
        """Hard-ish stop for tests: drain and wake every waiter."""
        with self._lock:
            self._draining = True
            self._stopped = True
            self._wakeup.notify_all()
            self._progress.notify_all()


def _natural(text: str) -> Optional[int]:
    """``text`` as a non-negative integer, else ``None``: ASCII digits
    only, so no sign, no point, no blank."""
    return int(text) if text.isascii() and text.isdigit() else None


def _monotonic() -> float:
    import time

    return time.monotonic()


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True
    service: CampaignService  # attached by serve()


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ServiceHTTPServer

    # --- plumbing ------------------------------------------------------
    @property
    def timeout(self) -> float:  # applied to the socket by setup()
        return REQUEST_TIMEOUT_S

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        sys.stderr.write(
            "[repro-service] %s %s\n" % (self.address_string(), format % args)
        )

    def _json(
        self,
        code: int,
        payload: Any,
        *,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, **extra: Any) -> None:
        headers = {}
        if "retry_after" in extra:
            headers["Retry-After"] = str(extra["retry_after"])
        self._json(code, {"error": message, **extra}, headers=headers)

    def _read_body(self) -> Any:
        """The request's JSON body.  ``Content-Length`` is client input
        too: one that is not a non-negative integer, or one above
        :data:`MAX_BODY_BYTES`, is refused before any body byte is read
        (``rfile.read(-1)`` would block until the client hangs up), and
        a body that stalls :data:`REQUEST_TIMEOUT_S` short of it is 408."""
        header = self.headers.get("Content-Length") or "0"
        length = _natural(header)
        if length is None:
            raise _Refused(400, f"bad Content-Length {header[:40]!r}")
        if length > MAX_BODY_BYTES:
            raise _Refused(413, f"request body over {MAX_BODY_BYTES} bytes")
        try:
            raw = self.rfile.read(length) if length else b""
        except socket.timeout:
            raise _Refused(408, f"request body stopped short of {length} bytes") from None
        if not raw:
            raise SpecError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except ValueError as exc:
            raise SpecError(f"request body is not JSON: {exc}") from exc

    # --- routes --------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802
        service = self.server.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["healthz"]:
                self._json(200, {"ok": True, "pid": os.getpid()})
            elif parts == ["status"]:
                self._json(200, service.status())
            elif parts == ["jobs"]:
                self._json(200, {"jobs": service.job_summaries()})
            elif len(parts) >= 2 and parts[0] == "jobs":
                self._job_get(service, parts[1], parts[2:], url)
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except BrokenPipeError:
            pass

    def _job_get(
        self, service: CampaignService, job_id: str, rest: List[str], url
    ) -> None:
        record = service.get(job_id)
        if record is None:
            self._error(404, f"unknown job {job_id}")
            return
        if not rest:
            payload = record.summary()
            if record.terminal:
                payload["result"] = service.job_store.load_result(job_id)
            self._json(200, payload)
        elif rest == ["result"]:
            if not record.terminal:
                self._error(409, f"job {job_id} is {record.state}", state=record.state)
                return
            result = service.job_store.load_result(job_id)
            if result is None:
                self._json(
                    200, {"job": job_id, "state": record.state, "error": record.error}
                )
            else:
                self._json(200, result)
        elif rest == ["events"]:
            self._stream_events(service, record, url)
        elif rest and rest[0] == "trace":
            self._trace(service, record, rest[1:])
        else:
            self._error(404, f"no such job endpoint: /{'/'.join(rest)}")

    def _stream_events(self, service: CampaignService, record: JobRecord, url) -> None:
        """NDJSON long-poll stream: every progress event from ``?since=N``
        onward, then a terminal summary line, then EOF."""
        raw = parse_qs(url.query).get("since", ["0"])[0]
        since = _natural(raw)
        if since is None:
            self._error(400, f"bad since {raw[:40]!r}: expected a non-negative integer")
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        while True:
            events, terminal = service.wait_events(record.job_id, since)
            for event in events:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
            self.wfile.flush()
            since += len(events)
            if terminal and not events:
                self.wfile.write(
                    (json.dumps(record.summary(), sort_keys=True) + "\n").encode(
                        "utf-8"
                    )
                )
                self.wfile.flush()
                self.close_connection = True
                return

    def _trace(
        self, service: CampaignService, record: JobRecord, rest: List[str]
    ) -> None:
        trace_dir = service.job_store.trace_dir(record.job_id)
        if not rest:
            names = (
                sorted(p.name for p in trace_dir.iterdir() if p.is_file())
                if trace_dir.is_dir()
                else []
            )
            self._json(200, {"job": record.job_id, "files": names})
            return
        name = rest[0]
        path = trace_dir / name
        if "/" in name or ".." in name or not path.is_file():
            self._error(404, f"no trace artifact {name!r}")
            return
        body = path.read_bytes()
        self.send_response(200)
        self.send_header("Content-Type", "application/octet-stream")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802
        service = self.server.service
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        try:
            if parts == ["jobs"]:
                try:
                    payload = self._read_body()
                    record, created = service.submit(payload)
                except SpecError as exc:
                    self._error(400, str(exc))
                    return
                except _Refused as exc:
                    # the unread body must not be parsed as a next request
                    self._json(exc.status, {"error": str(exc)}, headers={"Connection": "close"})
                    return
                except QueueFull as exc:
                    self._error(429, str(exc), retry_after=exc.retry_after)
                    return
                except Draining as exc:
                    self._error(503, str(exc), retry_after=5)
                    return
                self._json(201 if created else 200, record.summary())
            elif parts == ["drain"]:
                # answer first: on an idle server the drain watcher shuts
                # the listener down at once, and handler threads are
                # daemons — the process could exit mid-response
                self._json(202, {"draining": True})
                self.wfile.flush()
                service.drain()
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except BrokenPipeError:
            pass


# ----------------------------------------------------------------------
# process entry point
# ----------------------------------------------------------------------


def write_server_info(root: Path, host: str, port: int) -> Path:
    path = Path(root) / SERVER_INFO_NAME
    atomic_write_text(
        path,
        json.dumps(
            {
                "host": host,
                "port": port,
                "pid": os.getpid(),
                "url": f"http://{host}:{port}",
            },
            sort_keys=True,
        ),
    )
    return path


def read_server_info(root: Union[str, Path]) -> Optional[Dict[str, Any]]:
    try:
        return json.loads((Path(root) / SERVER_INFO_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def serve(
    root: Union[str, Path],
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 2,
    max_queue: int = 16,
    install_signals: bool = True,
) -> int:
    """Run the service until drained; returns the exit code.

    ``port=0`` binds an ephemeral port; the bound address is published in
    ``<root>/server.json`` (written atomically after the socket is
    listening) so clients and the chaos harness discover it without a
    race.  SIGTERM begins graceful drain; SIGINT behaves the same.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    service = CampaignService(root, jobs=jobs, max_queue=max_queue)
    httpd = ServiceHTTPServer((host, port), _Handler)
    httpd.service = service
    bound_host, bound_port = httpd.server_address[:2]
    if isinstance(bound_host, bytes):  # pragma: no cover — AF_INET6 oddity
        bound_host = bound_host.decode("ascii")
    write_server_info(root, str(bound_host), int(bound_port))
    sys.stderr.write(
        f"[repro-service] listening on http://{bound_host}:{bound_port} "
        f"(root={root}, jobs={jobs}, max_queue={max_queue}, pid={os.getpid()})\n"
    )

    stop_started = threading.Event()

    def _graceful(*_args: Any) -> None:
        if stop_started.is_set():
            return
        stop_started.set()
        sys.stderr.write("[repro-service] drain requested; not admitting new jobs\n")
        service.drain()

    if install_signals:
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)

    drain_watch = threading.Thread(
        # drain arrives via signal or POST /drain; either way the runner
        # exits once the in-flight job finishes, and we stop listening
        target=lambda: (service.wait_drained(), httpd.shutdown()),
        daemon=True,
    )
    drain_watch.start()
    try:
        httpd.serve_forever(poll_interval=0.2)
    finally:
        service.stop()
        httpd.server_close()
    sys.stderr.write("[repro-service] drained; bye\n")
    return 0
