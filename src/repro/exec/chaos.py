"""Self-chaos harness: prove the execution layer survives SIGKILL.

The paper proves the *network* keeps routing while routers die; this
module proves the same of our own experiment infrastructure.  One chaos
run executes a checkpointed, store-backed sweep while deliberately
killing it:

* **worker kills** — selected tasks carry a *kill marker* file; the
  first worker to execute such a task atomically claims the marker
  (``os.rename``) and SIGKILLs itself, so the executor sees a genuine
  worker crash exactly once per marked task and must retry it;
* **parent kills** — the sweep runs as a child process
  (``python -m repro.exec.chaos --child``) that the harness SIGKILLs
  after a randomized number of checkpoint completions, then restarts.
  Because the child persists every result to the store and marks the
  checkpoint *as each task completes*, a restarted round resumes
  exactly where the dead one stopped.

The run passes (:attr:`ChaosReport.ok`) only if the surviving sweep's
results are **bit-for-bit identical** to an uninterrupted ``jobs=1``
run computed up front, and a final :func:`repro.exec.fsck.fsck` pass
finds nothing to repair in the store.  Every kill decision comes from
one seeded RNG, so a failing run is re-runnable.

Run it standalone::

    python -m repro.exec.chaos --workdir /tmp/chaos --radix 16 \\
        --jobs 2 --worker-kills 2 --parent-kills 1 --seed 1234
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Sequence, Tuple

from ..sim.config import SimulationConfig
from .checkpoint import DONE_NAME, SweepCheckpoint, task_key
from .durable import atomic_write_text, read_jsonl
from .executor import ExecPolicy, PointTask, execute
from .fsck import FsckReport, fsck
from .store import CODE_VERSION, ResultStore

#: Offered loads for the default chaos sweep: enough points that kills
#: land mid-sweep, cheap enough that CI finishes in well under a minute.
DEFAULT_RATES: Tuple[float, ...] = (
    0.002,
    0.004,
    0.006,
    0.008,
    0.010,
    0.012,
    0.014,
    0.016,
)


# ----------------------------------------------------------------------
# the kill/restart skeleton (shared with repro.service.chaos)
# ----------------------------------------------------------------------


def child_env() -> dict:
    """The environment for a harness child: the running ``repro``
    importable, whatever the harness itself was started with."""
    import repro

    env = dict(os.environ)
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class ChildProcess:
    """One process under a harness's control; every incarnation appends
    its output to the same log file."""

    def __init__(self, cmd: Sequence[str], log_path: Path):
        self.cmd = list(cmd)
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None

    def start(self, banner: str) -> None:
        # the child inherits the descriptor; the harness's copy closes here
        with open(self.log_path, "a", encoding="utf-8") as log:
            log.write(f"--- {banner} ---\n")
            log.flush()
            self.proc = subprocess.Popen(
                self.cmd, env=child_env(), stdout=log, stderr=log
            )

    def running(self) -> bool:
        return self.proc is not None and self.proc.poll() is None

    def kill(self) -> None:
        if self.running():
            self.proc.kill()
            self.proc.wait()

    def wait(self, timeout: float) -> int:
        """The exit code; a child still alive after ``timeout`` seconds
        is killed and reported."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(
                f"{' '.join(self.cmd)} still running after {timeout:.0f}s; "
                f"log tail:\n{self.log_tail()}"
            ) from None

    def terminate(self, timeout: float) -> int:
        if self.running():
            self.proc.terminate()
        return self.wait(timeout)

    def log_tail(self, lines: int = 20) -> str:
        try:
            text = self.log_path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return "<no log>"
        return "\n".join(text.splitlines()[-lines:])


def count_records(paths: Iterable[Path]) -> int:
    """Durable completions so far: *records* in the given logs — the
    fragment a kill leaves at a tail is not one."""
    return sum(len(read_jsonl(path)) for path in paths)


def kill_after_completions(
    child: ChildProcess,
    rng: random.Random,
    completions: Callable[[], int],
    timeout: float,
    finished: Optional[Callable[[], bool]] = None,
) -> bool:
    """SIGKILL ``child`` once a seeded-random 1-3 *more* completions are
    durable; True when the kill was delivered.  Gives up when the child
    exits, when ``finished()`` (asked every half second) says there is
    nothing left to interrupt, or after ``timeout`` seconds."""
    threshold = completions() + rng.randint(1, 3)
    deadline = time.monotonic() + timeout
    ticks = 0
    while child.running() and time.monotonic() < deadline:
        if completions() >= threshold:
            child.kill()
            return True
        ticks += 1
        if finished is not None and ticks % 25 == 0 and finished():
            break
        time.sleep(0.02)
    return False


def harness_options(
    *, radix: int, warmup: int, measure: int, rates: Sequence[float]
) -> argparse.ArgumentParser:
    """The argparse parent for the options both harnesses take (the
    defaults are the harness's own sweep size)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--workdir", required=True, help="scratch directory")
    parent.add_argument("--radix", type=int, default=radix)
    parent.add_argument("--jobs", type=int, default=2, help="executor pool size")
    parent.add_argument("--seed", type=int, default=1234, help="chaos RNG seed")
    parent.add_argument("--warmup", type=int, default=warmup)
    parent.add_argument("--measure", type=int, default=measure)
    parent.add_argument("--fault-percent", type=int, default=1)
    parent.add_argument(
        "--rates",
        type=lambda text: tuple(float(rate) for rate in text.split(",")),
        default=tuple(rates),
        help="comma-separated offered loads",
    )
    return parent


def harness_kwargs(args: argparse.Namespace) -> dict:
    """The parsed :func:`harness_options` as the keywords ``run_chaos``
    and ``run_service_chaos`` share."""
    names = ("radix", "jobs", "seed", "warmup", "measure", "fault_percent", "rates")
    return {name: getattr(args, name) for name in names}


def build_sweep(
    *,
    radix: int = 16,
    warmup: int = 400,
    measure: int = 1200,
    fault_percent: int = 1,
    sim_seed: int = 7,
    rates: Sequence[float] = DEFAULT_RATES,
) -> List[SimulationConfig]:
    """The deterministic rate sweep both the baseline and every chaos
    round execute (parent and child must build exactly this list)."""
    base = SimulationConfig(
        topology="torus",
        radix=radix,
        dims=2,
        rate=rates[0],
        warmup_cycles=warmup,
        measure_cycles=measure,
        fault_percent=fault_percent,
        seed=sim_seed,
    )
    return [replace(base, rate=rate) for rate in rates]


@dataclass(frozen=True)
class ChaosTask:
    """A task wrapper that kills its own worker exactly once.

    The marker file is claimed with an atomic ``os.rename`` before the
    SIGKILL, so no matter how many workers or rounds race over the task,
    precisely one attempt dies and every later attempt (or resumed
    round) runs the inner task normally — which is also why the poison
    never reaches the executor's in-process fallback.
    """

    inner: Any  #: the real task (e.g. a PointTask)
    kill_marker: str = ""  #: path of the marker file; "" disables the kill

    @property
    def config(self):
        return self.inner.config

    @property
    def cacheable(self):
        return self.inner.cacheable

    @property
    def trace(self):
        return getattr(self.inner, "trace", None)

    def checkpoint_key(self, version: str = CODE_VERSION) -> str:
        # identity is the inner task's: resumed rounds may mix wrapped
        # and unwrapped tasks and must agree on keys
        return task_key(self.inner, version)

    def execute(self):
        if self.kill_marker:
            try:
                os.rename(self.kill_marker, self.kill_marker + ".claimed")
            except OSError:
                pass  # already claimed (or never created): run normally
            else:
                os.kill(os.getpid(), signal.SIGKILL)
        return self.inner.execute()


@dataclass
class ChaosReport:
    """What one :func:`run_chaos` campaign did and proved."""

    workdir: str
    tasks: int
    rounds: int
    worker_kills_planned: int
    worker_kills_claimed: int
    parent_kills: int
    identical: bool
    fsck_report: FsckReport

    @property
    def ok(self) -> bool:
        return self.identical and self.fsck_report.clean

    def describe(self) -> str:
        lines = [
            f"chaos {self.workdir}: {self.tasks} task(s), {self.rounds} round(s), "
            f"{self.worker_kills_claimed}/{self.worker_kills_planned} worker "
            f"kill(s) claimed, {self.parent_kills} parent kill(s)",
            "results bit-for-bit identical to the uninterrupted jobs=1 run"
            if self.identical
            else "RESULTS DIVERGED from the uninterrupted jobs=1 run",
            self.fsck_report.describe(),
            "chaos run PASSED" if self.ok else "chaos run FAILED",
        ]
        return "\n".join(lines)


def _results_blob(payloads: Sequence[Any]) -> str:
    return json.dumps([r.to_dict() for r in payloads], sort_keys=True)


def run_chaos(
    workdir,
    *,
    radix: int = 16,
    jobs: int = 2,
    seed: int = 1234,
    worker_kills: int = 2,
    parent_kills: int = 1,
    max_rounds: int = 8,
    rates: Sequence[float] = DEFAULT_RATES,
    warmup: int = 400,
    measure: int = 1200,
    fault_percent: int = 1,
    task_timeout: float = 120.0,
    round_timeout: float = 240.0,
) -> ChaosReport:
    """Run the full chaos campaign (see module docstring) and report.

    ``max_rounds`` bounds the restart loop; a healthy run needs
    ``parent_kills + 1`` rounds.  Raises if a child round fails for any
    reason other than being killed.
    """
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    markers = workdir / "markers"
    markers.mkdir(exist_ok=True)
    ckpt_dir = workdir / "ckpt"
    out_path = workdir / "out.json"

    configs = build_sweep(
        radix=radix,
        warmup=warmup,
        measure=measure,
        fault_percent=fault_percent,
        rates=rates,
    )
    rng = random.Random(seed)
    kill_indices = sorted(rng.sample(range(len(configs)), min(worker_kills, len(configs))))
    for index in kill_indices:
        (markers / f"kill-{index}").touch()

    # the ground truth, computed before any chaos: a plain serial run
    baseline_payloads, _ = execute([PointTask(c) for c in configs], jobs=1)
    baseline_blob = _results_blob(baseline_payloads)

    child = ChildProcess(
        [
            sys.executable,
            "-m",
            "repro.exec.chaos",
            "--child",
            "--workdir",
            str(workdir),
            "--radix",
            str(radix),
            "--jobs",
            str(jobs),
            "--warmup",
            str(warmup),
            "--measure",
            str(measure),
            "--fault-percent",
            str(fault_percent),
            "--task-timeout",
            str(task_timeout),
            "--rates",
            ",".join(repr(rate) for rate in rates),
        ],
        workdir / "child.log",
    )

    def completions() -> int:
        return count_records([ckpt_dir / DONE_NAME])

    rounds = 0
    killed_parents = 0
    try:
        while rounds < max_rounds:
            rounds += 1
            child.start(f"round {rounds}")
            # SIGKILL the whole child after a randomized number of
            # *additional* checkpoint completions
            if killed_parents < parent_kills and kill_after_completions(
                child, rng, completions, round_timeout
            ):
                killed_parents += 1
                continue
            code = child.wait(round_timeout)
            if code == 0 and out_path.is_file():
                break
            raise RuntimeError(
                f"chaos child round {rounds} exited with {code} "
                f"without being killed; log tail:\n{child.log_tail()}"
            )
        else:
            raise RuntimeError(
                f"chaos run did not converge within {max_rounds} round(s)"
            )
    finally:
        child.kill()

    identical = out_path.read_text(encoding="utf-8") == baseline_blob
    claimed = len(list(markers.glob("*.claimed")))
    fsck_report = fsck(workdir / "store")
    return ChaosReport(
        workdir=str(workdir),
        tasks=len(configs),
        rounds=rounds,
        worker_kills_planned=len(kill_indices),
        worker_kills_claimed=claimed,
        parent_kills=killed_parents,
        identical=identical,
        fsck_report=fsck_report,
    )


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------


def _child_main(args) -> int:
    """One chaos round: the checkpointed, store-backed sweep the harness
    kills.  Must be bit-for-bit deterministic across restarts."""
    workdir = Path(args.workdir)
    configs = build_sweep(
        radix=args.radix,
        warmup=args.warmup,
        measure=args.measure,
        fault_percent=args.fault_percent,
        rates=args.rates,
    )
    markers = workdir / "markers"
    tasks = [
        ChaosTask(PointTask(config), kill_marker=str(markers / f"kill-{index}"))
        for index, config in enumerate(configs)
    ]
    store = ResultStore(workdir / "store")
    keys = [task_key(task, store.version) for task in tasks]
    checkpoint = SweepCheckpoint.open_or_create(
        workdir / "ckpt", keys, version=store.version, label="chaos sweep"
    )
    policy = ExecPolicy(task_timeout=args.task_timeout, max_attempts=4)
    payloads, stats = execute(
        tasks, jobs=args.jobs, store=store, checkpoint=checkpoint, policy=policy
    )
    atomic_write_text(workdir / "out.json", _results_blob(payloads))
    print(stats.describe())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.chaos",
        description="Chaos-test the execution layer: SIGKILL workers and the "
        "sweep parent mid-run, resume from the checkpoint, and verify the "
        "results are bit-for-bit identical to an uninterrupted run.",
        parents=[
            harness_options(radix=16, warmup=400, measure=1200, rates=DEFAULT_RATES)
        ],
    )
    parser.add_argument("--worker-kills", type=int, default=2)
    parser.add_argument("--parent-kills", type=int, default=1)
    parser.add_argument("--max-rounds", type=int, default=8)
    parser.add_argument("--task-timeout", type=float, default=120.0)
    parser.add_argument(
        "--child", action="store_true", help=argparse.SUPPRESS
    )  # internal: one killable sweep round
    args = parser.parse_args(argv)
    if args.child:
        return _child_main(args)
    report = run_chaos(
        args.workdir,
        worker_kills=args.worker_kills,
        parent_kills=args.parent_kills,
        max_rounds=args.max_rounds,
        task_timeout=args.task_timeout,
        **harness_kwargs(args),
    )
    print(report.describe())
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
