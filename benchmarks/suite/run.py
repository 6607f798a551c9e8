"""The repo benchmark's one command.

    python3 benchmarks/suite/run.py --seed 42            # every workload
    python3 benchmarks/suite/run.py --seed 42 --trace    # ... plus the traced run
    python3 benchmarks/suite/run.py --sets 2             # two-sets acceptance check
    python3 benchmarks/suite/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--workload`` the workload runs in this process and the last line
of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``): the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Without it every workload
runs in a child process of its own.  ``BENCHMARK.json`` at the repo
root names the workloads, the metrics, their units and their bounds;
README.md in this directory explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.suite.harness import (  # noqa: E402  (needs ROOT on the path)
    OUT,
    Trace,
    import_seconds,
    median,
    peak_rss_mb,
    pmedian,
    reference_seconds,
)

#: these silently change the default core, the scale or the store
GUARDED_ENV = ("REPRO_SIM_CORE", "REPRO_SCALE", "REPRO_RESULT_STORE")
MIN_REPS = 3


def make_workload(name: str, seed: int, tmp: Path):
    """Build one workload from the seed; modules are imported on demand
    so a workload's memory holds only the subsystems it drives."""
    if name == "torus16_f0_low":
        from benchmarks.suite.torus16 import Torus16

        # the paper's low-load latency region: work-lists and generation
        # matter most, routing is plain e-cube
        return Torus16(
            seed, tmp, fault_percent=0, rate=0.002, measure_cycles=2700, slice_cycles=10, probe_slices=10
        )
    if name == "torus16_f5_sat":
        from benchmarks.suite.torus16 import Torus16

        # top of the paper-scale 5% grid: f-ring misrouting, four VC
        # classes, allocation and transfer saturated
        return Torus16(
            seed, tmp, fault_percent=5, rate=0.014, measure_cycles=500, slice_cycles=5, probe_slices=4
        )
    if name == "sweep8_cold":
        from benchmarks.suite.sweep8 import Sweep8Cold

        return Sweep8Cold(seed, tmp)
    if name == "exec_tinypoints":
        from benchmarks.suite.exec_tiny import ExecTinyPoints

        return ExecTinyPoints(seed, tmp)
    if name == "mc_torus16":
        from benchmarks.suite.mc16 import MCTorus16

        return MCTorus16(seed, tmp)
    if name == "service_smalljobs":
        from benchmarks.suite.service_jobs import ServiceSmallJobs

        return ServiceSmallJobs(seed, tmp)
    raise SystemExit(f"unknown workload {name!r}")


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------


def setup_seconds(workload) -> float:
    """One set-up, in reference seconds; what it opened is closed after
    the clock has stopped."""
    cleanup, seconds = reference_seconds(workload.setup)
    if cleanup is not None:
        cleanup()
    return seconds


def measure(workload, seconds: float) -> Dict[str, Any]:
    """The untraced run: set up, repeat for ``seconds``, reduce every
    host time by the piecewise median of its reference seconds."""
    import_s = import_seconds(workload.IMPORT) if workload.IMPORT else 0.0
    setups = [setup_seconds(workload) for _ in range(workload.SETUPS)]
    reps = []
    start = perf_counter()
    while True:
        reps.append(workload.rep())
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > seconds:
            break
    setups += [rep.setup_s for rep in reps if rep.setup_s is not None]
    same_digest = len({rep.digest for rep in reps}) == 1
    metrics = workload.summarise(reps)
    metrics["setup_s"] = import_s + median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    # measured seconds, as information: what the host did during the run
    walls = [sum(rep.clock.raw) for rep in reps]
    quartiles = statistics.quantiles(walls, n=4)
    kernel = [kernel_s for rep in reps for _when, kernel_s in rep.clock.samples]
    measured = sum(median(column) for column in zip(*(rep.clock.raw for rep in reps)))
    print(f"unit of work: {workload.WORK_UNIT}; request: {workload.REQUEST}")
    print(
        f"info reps={len(reps)} slices={len(reps[0].slices)} rep_wall_median_s={median(walls):.4f} "
        f"rep_wall_iqr_s={quartiles[2] - quartiles[0]:.4f} import_s={import_s:.4f} "
        f"kernel_min_ms={1e3 * min(kernel):.4f} kernel_median_ms={1e3 * median(kernel):.4f} "
        f"pmedian_measured_s={measured:.4f} pmedian_reference_s={pmedian(reps):.4f}"
    )
    print(f"digest {reps[0].digest}" + ("" if same_digest else " DIFFERS ACROSS REPS"))
    return {
        "metrics": metrics,
        "attempted": sum(rep.attempted for rep in reps) + 1,
        "failed": sum(rep.failed for rep in reps) + (not same_digest),
        "correct": same_digest,
    }


def traced(workload, name: str) -> Dict[str, Any]:
    """The traced run: one plain rep, one rep under spans (and, for the
    simulator, stage proxies), then direct calls into each layer."""
    trace = Trace(name)
    checks: List[bool] = []
    with trace.span("workload"):
        with trace.span("setup"):
            cleanup = workload.setup()
        if cleanup is not None:
            cleanup()
        with trace.span("rep", traced=False):
            plain = workload.rep()
        with trace.span("rep", traced=True):
            under_trace = workload.rep(trace)
        checks.append(plain.digest == under_trace.digest)
        with trace.span("layers"):
            metrics = workload.layers(trace, plain, under_trace, checks)
    metrics["trace_overhead_ratio"] = sum(under_trace.slices) / sum(plain.slices)
    trace.write(OUT / f"trace.{name}.json")
    print(f"digest {plain.digest}" + ("" if checks[0] else " DIFFERS UNDER TRACE"))
    return {
        "metrics": metrics,
        "attempted": plain.attempted + under_trace.attempted + len(checks),
        "failed": plain.failed + under_trace.failed + checks.count(False),
        "correct": all(checks),
    }


def run_one(args, spec: Dict[str, Any]) -> int:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    # This VM bursts to two cores but sustains about one: the same
    # two-process work took 0.24 s or 0.48 s of wall time depending on
    # what ran in the minute before.  One CPU for the workload and all
    # its children makes every wall time a per-core number that repeats.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(
        f"workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} numpy={numpy_version} nproc={os.cpu_count()} pinned_cpu={cpu}"
    )
    OUT.mkdir(exist_ok=True)
    # every store and service root lives here, never in ~/.cache/repro
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        workload = make_workload(args.workload, args.seed, tmp)
        outcome = traced(workload, args.workload) if args.trace else measure(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        os.sync()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    unknown = set(outcome["metrics"]) - set(units)
    if unknown:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    if not args.trace and set(units) - set(outcome["metrics"]):
        raise SystemExit(f"end-to-end metrics not measured: {sorted(set(units) - set(outcome['metrics']))}")
    for name, value in outcome["metrics"].items():
        print(f"{name:36s} {value:.6g} {units[name]}")
    # a layer this workload does not drive reads 0
    outcome["metrics"] = {
        name: {"value": outcome["metrics"].get(name, 0), "unit": unit} for name, unit in units.items()
    }
    failed_frac = outcome["failed"] / outcome["attempted"]
    print(f"failed_frac {failed_frac:.6g} ({outcome['failed']}/{outcome['attempted']})")
    print(json.dumps({key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


# ----------------------------------------------------------------------
# every workload, each in a child process
# ----------------------------------------------------------------------


def run_child(workload: str, args, trace: int) -> Dict[str, Any]:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    *report, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(report), flush=True)
    return json.loads(last)


def run_suite(args, spec: Dict[str, Any]) -> int:
    names = [entry["name"] for entry in spec["workloads"]]
    bounds = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    sets: List[Dict[str, Dict[str, Any]]] = []
    correct = True
    for index in range(args.sets):
        if args.sets > 1:
            print(f"==== set {index + 1} of {args.sets}")
        results: Dict[str, Dict[str, Any]] = {}
        for name in names:
            results[name] = run_child(name, args, 0)
            correct = correct and results[name]["correct"] and results[name]["failed"] == 0
            if args.trace:
                layer_run = run_child(name, args, 1)
                correct = correct and layer_run["correct"] and layer_run["failed"] == 0
            print()
        sets.append(results)
    if args.trace:
        merge_traces(names)
    within = True
    if args.sets > 1:
        print("==== spread of each end-to-end metric over the sets, against its bound")
        for name in names:
            for metric, bound in bounds.items():
                values = [results[name]["metrics"][metric]["value"] for results in sets]
                spread = (max(values) - min(values)) / median(values)
                verdict = "ok" if spread <= bound else "EXCEEDS"
                within = within and spread <= bound
                print(f"{name:20s} {metric:14s} spread {spread:7.4f} bound {bound:.2f} {verdict}")
    print("all outputs correct" if correct else "SOME OUTPUT CHECKS OR OPERATIONS FAILED")
    return 0 if correct and within else 1


def merge_traces(names: List[str]) -> None:
    merged = [json.loads((OUT / f"trace.{name}.json").read_text()) for name in names]
    (OUT / "trace.json").write_text(json.dumps({"workloads": merged}))
    print(f"spans written to {OUT / 'trace.json'}")


def main(argv: Optional[List[str]] = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"benchmark needs the repo checkout: no src/repro or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[entry["name"] for entry in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--sets", type=int, default=1, help="run the whole benchmark N times and print each metric's spread")
    args = parser.parse_args(argv)
    present = [name for name in GUARDED_ENV if os.environ.get(name)]
    if present:
        print(f"refusing to run with {', '.join(present)} set: unset it/them first", file=sys.stderr)
        return 2
    if args.workload:
        return run_one(args, spec)
    return run_suite(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
