"""Service-level chaos: prove the campaign server survives SIGKILL.

:mod:`repro.exec.chaos` proves the *executor* survives killed workers
and a killed sweep parent.  This harness climbs one level: the whole
**server process** — HTTP listener, admission queue, runner, journal —
is SIGKILLed at randomized points mid-campaign, restarted, and the
*client* retries its submissions against the recovered server.  One
chaos run:

1. builds a deterministic job mix (a rate sweep, a fault-injection
   campaign, and a Monte-Carlo reliability job), and computes the
   ground truth up front by running every job uninterrupted at
   ``jobs=1`` with no server at all;
2. starts the server (``python -m repro.service serve``), submits the
   jobs over HTTP, and watches durable completions land in the service
   root (checkpoint ``done.jsonl`` lines and MC tally-log lines);
3. after a seeded-random number of additional completions, SIGKILLs the
   server, restarts it on a fresh ephemeral port, and re-submits every
   job through the retrying client — which must dedupe (the journal
   already knows the job) and resume, not restart;
4. repeats for the requested number of kills, then waits for every job
   to converge and the server to drain cleanly (SIGTERM).

The run passes (:attr:`ServiceChaosReport.ok`) only if **every** job's
recovered ``result.json`` is bit-for-bit identical (results + failures)
to its uninterrupted baseline, the service's result store fscks clean,
and the store holds *exactly* the expected entries — one per distinct
cacheable point, zero duplicates.  Every kill decision comes from one
seeded RNG, so a failing run is re-runnable.

Run it standalone::

    python -m repro.service.chaos --workdir /tmp/svc-chaos --radix 8 \\
        --kills 2 --seed 1234 --jobs 2
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exec.chaos import (
    ChildProcess,
    build_sweep,
    count_records,
    harness_kwargs,
    harness_options,
    kill_after_completions,
)
from ..exec.checkpoint import DONE_NAME
from ..exec.executor import execute
from ..exec.fsck import FsckReport, fsck
from ..exec.store import CODE_VERSION
from ..sim.config import SimulationConfig
from .client import ServiceClient
from .jobs import TALLY_LOG_NAME, JobSpec
from .server import (
    SERVER_INFO_NAME,
    STORE_DIR,
    deterministic_blob,
    mc_result_payload,
    result_payload,
)

DEFAULT_RATES: Tuple[float, ...] = (0.004, 0.008, 0.012)


def build_specs(
    *,
    radix: int = 8,
    warmup: int = 200,
    measure: int = 600,
    fault_percent: int = 1,
    sim_seed: int = 7,
    rates: Sequence[float] = DEFAULT_RATES,
) -> List[JobSpec]:
    """The deterministic job mix every chaos run submits: one cacheable
    point sweep, one (non-cacheable, re-executed-on-resume) campaign
    replay, and one Monte-Carlo reliability job (tally-log recovery) —
    together they cover every recovery path the service has."""
    base = build_sweep(
        radix=radix,
        warmup=warmup,
        measure=measure,
        fault_percent=fault_percent,
        sim_seed=sim_seed,
        rates=rates,
    )[0]
    sweep = JobSpec(
        kind="sweep",
        config=base.to_canonical(),
        rates=tuple(rates),
        label="chaos sweep",
    )

    from ..reliability import FaultCampaign
    from ..topology import make_network

    start = max(1, warmup // 2)
    interval = max(1, measure // 2)
    campaign_config = SimulationConfig(
        topology="torus",
        radix=radix,
        dims=2,
        rate=rates[-1],
        warmup_cycles=0,
        measure_cycles=10,  # the replay manages its own measurement
        seed=sim_seed,
    )
    campaign = FaultCampaign.rolling(
        make_network(campaign_config.topology, radix, 2),
        count=2,
        start=start,
        interval=interval,
        seed=23,
        kind="mixed",
    )
    campaign_spec = JobSpec(
        kind="campaign",
        config=campaign_config.to_canonical(),
        campaign=campaign.to_canonical(),
        settle_cycles=interval,
        label="chaos campaign",
    )
    from ..mc import MCCell, MCPlan, MCSettings

    plan = MCPlan(
        cells=(
            MCCell(radix=radix, num_node_faults=1, num_link_faults=1),
            MCCell(radix=radix, num_node_faults=1, num_link_faults=2, policy="ft"),
        ),
        # small shards so kills land mid-cell; a loose target that still
        # stops early, leaving both stopping paths exercised on resume
        settings=MCSettings(
            half_width=0.05, shard_size=20, max_shards=6, min_shards=2
        ),
        master_seed=sim_seed,
    )
    mc_spec = JobSpec(kind="mc", mc=plan.to_payload(), label="chaos mc")

    for spec in (sweep, campaign_spec, mc_spec):
        spec.validate()
    return [sweep, campaign_spec, mc_spec]


def baseline_blobs(specs: Sequence[JobSpec]) -> Dict[str, str]:
    """Ground truth: every job executed uninterrupted, in-process, with
    no store, no checkpoint, no server."""
    blobs: Dict[str, str] = {}
    for spec in specs:
        job_id = spec.job_id()
        if spec.kind == "mc":
            from ..mc import run_plan

            outcome = run_plan(spec.mc_plan(), jobs=1)
            blobs[job_id] = deterministic_blob(mc_result_payload(job_id, outcome))
            continue
        payloads, stats = execute(spec.build_tasks(), jobs=1, allow_failures=True)
        blobs[job_id] = deterministic_blob(result_payload(job_id, payloads, stats))
    return blobs


@dataclass
class ServiceChaosReport:
    """What one :func:`run_service_chaos` campaign did and proved."""

    workdir: str
    jobs: int
    rounds: int
    kills: int
    resubmissions: int
    identical: bool
    store_exact: bool  #: store holds exactly the expected entries
    fsck_report: FsckReport
    divergent: List[str]

    @property
    def ok(self) -> bool:
        return self.identical and self.store_exact and self.fsck_report.clean

    def describe(self) -> str:
        lines = [
            f"service chaos {self.workdir}: {self.jobs} job(s), "
            f"{self.rounds} server round(s), {self.kills} SIGKILL(s), "
            f"{self.resubmissions} idempotent resubmission(s)",
            "every job bit-for-bit identical to its uninterrupted jobs=1 run"
            if self.identical
            else f"RESULTS DIVERGED for job(s): {', '.join(self.divergent)}",
            "store holds exactly the expected entries (no duplicates)"
            if self.store_exact
            else "STORE CONTENTS differ from the expected entry set",
            self.fsck_report.describe(),
            "service chaos PASSED" if self.ok else "service chaos FAILED",
        ]
        return "\n".join(lines)


def _start_server(server: ChildProcess, root: Path, timeout: float = 30.0) -> None:
    """(Re)start the server and wait until it has bound its port."""
    info_path = root / SERVER_INFO_NAME
    # stale server.json from a killed round must not be mistaken for
    # a live server: remove it before the new process binds
    try:
        info_path.unlink()
    except OSError:
        pass
    server.start("server start")
    deadline = time.monotonic() + timeout
    while not info_path.is_file():
        if not server.running():
            raise RuntimeError(
                f"server exited with {server.proc.returncode} before binding; "
                f"log tail:\n{server.log_tail()}"
            )
        if time.monotonic() > deadline:
            raise RuntimeError(f"server did not bind within {timeout:.0f}s")
        time.sleep(0.02)


def run_service_chaos(
    workdir,
    *,
    radix: int = 8,
    jobs: int = 2,
    seed: int = 1234,
    kills: int = 2,
    warmup: int = 200,
    measure: int = 600,
    fault_percent: int = 1,
    rates: Sequence[float] = DEFAULT_RATES,
    progress_timeout: float = 240.0,
    converge_timeout: float = 600.0,
) -> ServiceChaosReport:
    """Run the full service chaos campaign (see module docstring)."""
    workdir = Path(workdir)
    root = workdir / "svc"
    root.mkdir(parents=True, exist_ok=True)

    specs = build_specs(
        radix=radix,
        warmup=warmup,
        measure=measure,
        fault_percent=fault_percent,
        rates=rates,
    )
    job_ids = [spec.job_id() for spec in specs]
    baselines = baseline_blobs(specs)

    rng = random.Random(seed)
    server = ChildProcess(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--root",
            str(root),
            "--jobs",
            str(jobs),
        ],
        workdir / "server.log",
    )
    client = ServiceClient(root, attempts=20, timeout=30.0)

    def submit_all() -> int:
        for spec in specs:
            summary = client.submit(spec.to_canonical())
            assert summary["job"] in job_ids, summary
        return len(specs)

    def completions() -> int:
        """Durable completions across every recovery substrate:
        checkpoint marks for sweep/campaign jobs, tally-log shards for
        mc jobs."""
        return count_records(
            path
            for pattern in (f"*/ckpt/*/{DONE_NAME}", f"*/{TALLY_LOG_NAME}")
            for path in (root / "jobs").glob(pattern)
        )

    def all_terminal() -> bool:
        """Everything finished before the next kill could land."""
        return all(
            client.job(job_id).get("state") in ("done", "failed")
            for job_id in job_ids
        )

    rounds = 1
    killed = 0
    resubmissions = 0
    try:
        _start_server(server, root)
        submit_all()
        while killed < kills and kill_after_completions(
            server, rng, completions, progress_timeout, finished=all_terminal
        ):
            killed += 1
            _start_server(server, root)
            rounds += 1
            # the client's whole point: blind resubmission after a crash
            # must dedupe against the journal, never fork duplicate work
            resubmissions += submit_all()

        results: Dict[str, Dict[str, Any]] = {
            job_id: client.wait(job_id, timeout=converge_timeout)
            for job_id in job_ids
        }
        code = server.terminate(60.0)
        if code != 0:
            raise RuntimeError(
                f"server drain exited with {code}; log tail:\n{server.log_tail()}"
            )
    finally:
        server.kill()

    divergent = [
        job_id
        for job_id in job_ids
        if deterministic_blob(results[job_id]) != baselines[job_id]
    ]

    # the store must hold exactly one entry per distinct cacheable config
    expected_keys = set()
    for spec in specs:
        for task in spec.build_tasks():
            if task.cacheable:
                expected_keys.add(task.config.content_hash(CODE_VERSION))
    store_root = root / STORE_DIR
    actual_keys = {path.stem for path in store_root.glob("*/*.json")}
    fsck_report = fsck(store_root)

    return ServiceChaosReport(
        workdir=str(workdir),
        jobs=len(specs),
        rounds=rounds,
        kills=killed,
        resubmissions=resubmissions,
        identical=not divergent,
        store_exact=actual_keys == expected_keys,
        fsck_report=fsck_report,
        divergent=divergent,
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service.chaos",
        description="Chaos-test the campaign service: SIGKILL the server "
        "mid-campaign, restart it, retry the clients, and verify every job "
        "converges bit-for-bit identical to an uninterrupted jobs=1 run.",
        parents=[
            harness_options(radix=8, warmup=200, measure=600, rates=DEFAULT_RATES)
        ],
    )
    parser.add_argument("--kills", type=int, default=2)
    args = parser.parse_args(argv)
    report = run_service_chaos(args.workdir, kills=args.kills, **harness_kwargs(args))
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
