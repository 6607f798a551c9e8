"""``service_smalljobs``: ``python -m repro.service serve`` as a
subprocess and one closed-loop client (the next job is submitted only
when the previous one has its result).  HTTP, admission, the job
journal, the per-job checkpoint and the pool do the work; the
simulation is negligible."""

from __future__ import annotations

import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.service import (
    ClientError,
    JobSpec,
    JobStore,
    ServiceClient,
    ServiceUnavailable,
    deterministic_blob,
    read_server_info,
)
from repro.sim import SimulationConfig

from .harness import (
    JOBS,
    Rep,
    SliceClock,
    Trace,
    child_env,
    children_cpu_s,
    digest,
    import_seconds,
    median,
    percentile,
    pool_spawn_seconds,
    reference_seconds,
    slice_medians,
    timed,
)

JOBS_PER_PASS = 8
RATES = (0.01, 0.02, 0.03, 0.04)
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0
POLL_S = 0.005


class ServiceSmallJobs:
    IMPORT = None  # every server start pays the import
    SETUPS = 3  # server starts besides the one every pass makes
    WORK_UNIT = "job (a 4-point sweep of a 4x4 torus)"
    REQUEST = "one job, POST /jobs to result (median over the jobs)"

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.roots = 0
        self.specs = [
            {
                "kind": "sweep",
                "config": SimulationConfig(
                    topology="torus",
                    radix=4,
                    dims=2,
                    warmup_cycles=50,
                    measure_cycles=200,
                    seed=seed * 1000 + index,
                ).to_canonical(),
                "rates": list(RATES),
            }
            for index in range(JOBS_PER_PASS)
        ]

    def fresh_root(self) -> Path:
        self.roots += 1
        return self.tmp / f"root-{self.roots}"

    def setup(self) -> Callable[[], int]:
        """Start a server; stopping it is not part of the set-up time."""
        server, _url = self.start_server(self.fresh_root())
        return lambda: self.stop_server(server)

    # ------------------------------------------------------------------
    def start_server(self, root: Path) -> Tuple[subprocess.Popen, str]:
        """Start the server and wait for the first 200 on ``/healthz``;
        returns it with its URL."""
        root.mkdir(parents=True, exist_ok=True)
        start = perf_counter()
        with open(root / "server.log", "ab") as log:
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve", "--root", str(root), "--jobs", str(JOBS)],
                env=child_env(),
                stderr=log,
            )
        while perf_counter() - start < START_TIMEOUT_S and server.poll() is None:
            info = read_server_info(root)
            # a restart finds the previous server's server.json first
            if info is not None and info.get("pid") == server.pid:
                try:
                    with urllib.request.urlopen(f"{info['url']}/healthz", timeout=5) as response:
                        if response.status == 200:
                            return server, info["url"]
                except (urllib.error.URLError, OSError):
                    pass
            time.sleep(POLL_S)
        self.stop_server(server)
        raise RuntimeError(f"service did not come up:\n{(root / 'server.log').read_text()[-2000:]}")

    @staticmethod
    def stop_server(server: subprocess.Popen) -> int:
        """SIGTERM and wait.  (``POST /drain`` raced the listener
        shutdown once: ``IncompleteRead`` in ``ServiceClient.drain``.)"""
        server.send_signal(signal.SIGTERM)
        try:
            return server.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
            return -signal.SIGKILL

    @staticmethod
    def one_job(client: ServiceClient, spec: Dict[str, Any], trace: Optional[Trace]) -> Dict[str, Any]:
        """Submit, then poll to the result; ``{"refused": why}`` if the
        job was refused, failed or timed out (the slice is still timed,
        so slices stay aligned across passes)."""
        try:
            if trace is None:
                summary = client.submit(spec)
            else:
                summary = trace.call("service.submit", client.submit, spec)
            return client.wait(summary["job"], poll=POLL_S, timeout=120.0)
        except (ServiceUnavailable, ClientError, TimeoutError) as exc:
            return {"refused": str(exc)}

    def rep(self, trace: Optional[Trace] = None) -> Rep:
        root = self.fresh_root()
        cpu_before = children_cpu_s()
        (server, url), start_s = reference_seconds(lambda: self.start_server(root))
        try:
            # one attempt: a refusal must show as a failed operation
            client = ServiceClient(url, attempts=1)
            clock = SliceClock()
            with clock.sampling():
                results = [
                    timed(clock, trace, f"job {index}", self.one_job, client, spec, trace)
                    for index, spec in enumerate(self.specs)
                ]
            if trace is not None:
                # the read paths, outside the timed slices
                for spec, result in zip(self.specs, results):
                    if "job" in result:
                        trace.call("service.result_fetch", client.result, result["job"])
                        trace.call("service.status", client.status)
                        trace.call("service.resubmit", client.submit, spec)
        finally:
            exit_code = self.stop_server(server)
        ok = [r for r in results if r.get("results") and not r.get("failures")]
        return Rep(
            clock=clock,
            digest=digest([deterministic_blob(r) for r in results]),
            attempted=len(results) + 1,
            failed=len(results) - len(ok) + (exit_code != 0),
            setup_s=start_s,
            info={
                "root": root,
                "results": results,
                "server_cpu_s": children_cpu_s() - cpu_before,
                "shed_429": sum("HTTP 429" in r.get("refused", "") for r in results),
            },
        )

    def summarise(self, reps: Sequence[Rep]) -> Dict[str, float]:
        typical = slice_medians(reps)
        return {
            "work_per_s": len(typical) / sum(typical),
            "request_ms": 1000.0 * median(typical),
        }

    def layers(self, trace: Trace, plain: Rep, traced: Rep, checks: List[bool]) -> Dict[str, float]:
        out: Dict[str, float] = {
            "service.start_s": median([plain.setup_s, traced.setup_s]),
            "service.job_latency_p90_ms": 1e3 * percentile(plain.slices + traced.slices, 90),
            "service.server_cpu_s_per_job": plain.info["server_cpu_s"] / len(plain.slices),
            "service.shed_429": plain.info["shed_429"] + traced.info["shed_429"],
        }
        for call in ("submit", "result_fetch", "status", "resubmit"):
            out[f"service.{call}_ms_p50"] = 1e3 * median(trace.durations(f"service.{call}"))

        # restart on the root that holds the finished jobs
        root = traced.info["root"]
        (server, url), recover_s = reference_seconds(lambda: self.start_server(root))
        try:
            client = ServiceClient(url, attempts=1)
            states = [client.job(result["job"])["state"] for result in traced.info["results"]]
        finally:
            self.stop_server(server)
        checks.append(all(state == "done" for state in states))
        out["service.restart_recover_s"] = recover_s

        store = JobStore(self.tmp / "jobstore-probe")
        spec = JobSpec.from_payload(self.specs[0])
        job_id = spec.job_id()
        out["service.jobstore.write_spec_ms"] = 1e3 * trace.sample(
            "service.jobstore.write_spec", lambda: store.write_spec(job_id, spec), 20
        )
        out["service.jobstore.journal_ms"] = 1e3 * trace.sample(
            "service.jobstore.journal", lambda: store.journal("submit", job_id, kind=spec.kind), 20
        )
        out["experiments.import_s"] = import_seconds("repro.experiments.cli")
        out["exec.pool.spawn_s"] = pool_spawn_seconds(trace)
        return out
