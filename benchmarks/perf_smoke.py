"""Engine performance smoke: cycles/second for the simulation cores.

Measures the paper-scale configuration (16x16 torus) at five offered
loads — near-idle through saturated — for the legacy full-scan oracle
and the work-list core (``active``, the default), and writes
``BENCH_engine.json``.
The regression check compares *ratios* (one core over another on the
same machine and the same run), which are machine-independent, rather
than absolute cycles/second, which are not.

Speedups are computed from **paired per-repetition ratios**: each
repetition runs every core back-to-back and contributes one ratio, and
the reported speedup is the median ratio.  Wall-clock noise between
repetitions on a shared machine is far larger than within one (observed
legacy spread on the development box: 170-303 c/s across minutes), so
best-over-best ratios from independent loops are not trustworthy while
paired medians are stable to a few percent.

Usage::

    python benchmarks/perf_smoke.py --write          # refresh the baseline
    python benchmarks/perf_smoke.py --check          # fail on regression

``--check`` fails when any rate's measured speedup drops below
``REGRESSION_FRACTION`` (75%) of the committed baseline speedup.

The smoke also measures the cost of a staged runtime reconfiguration (a
non-convex pattern injected with hop-by-hop detection, stepped until the
transition window closes).  The cost is expressed in *reference-loop
equivalents* — wall time over the time a fixed pure-Python loop
(``_reference_loop``) takes in the same repetition — so it is
machine-independent too; ``--check`` fails when it exceeds
``RECONFIG_REGRESSION_FACTOR`` (125%) of the committed baseline.

Pattern classification (``repro.mc``'s fast tier: blocking rule, regions,
f-rings, degrade pipeline, routing build) is measured the same way for
the three cells of the ``mc_torus16`` suite workload: milliseconds per
classified pattern over the reference loop's time taken in the same
repetition; ``--check`` fails when a cell exceeds
``CLASSIFY_REGRESSION_FACTOR`` (125%) of the committed value.  The
reference loop runs no simulator code, so a faster simulation core does
not tighten either gate (a simulator-cycle unit would); the
reconfiguration window itself steps the simulator, so a faster core
lowers that cost.

The worker pool is measured per call: milliseconds per ``execute()`` of
two no-op tasks at ``jobs=2`` through a pool opened and closed by the
call (what ``Experiment.run`` pays once per sweep) against one kept by
its owner (what every wave of ``mc.run_plan`` and every job of the
service pays), back-to-back in each repetition; ``--check`` fails when
the paired-median ratio reused / fresh exceeds ``POOL_REUSE_CEILING``
(0.5) — a kept pool that is not at least twice as cheap per call has
started spawning or tearing something down again.

Finally the smoke gates the observability tracer both ways:

* **disabled** — a run without a tracer attached pays only ``tracer is
  not None`` pointer checks; ``--check`` fails when the tracer-disabled
  measurement falls more than ``TRACING_DISABLED_LIMIT`` (2%) below a
  plain run measured back-to-back in the same interleaved loop (the two
  are the identical code path, so the gate pins the no-op contract
  against the disabled state ever growing real work).
* **enabled** — the slowdown factor of a fully-traced run (events +
  100-cycle time series) is recorded in the baseline; ``--check`` fails
  when the measured factor exceeds ``TRACING_REGRESSION_FACTOR`` (125%)
  of the committed one.

The gate that compares identical code — tracing disabled — takes the
median ratio of ``SAME_CODE_REPETITIONS`` (7) paired repetitions
instead of ``REPETITIONS`` (3): its true ratio is 1.0, so with three
repetitions one noisy pair decided it.  (That the routing registry adds
no per-call wrapper is checked structurally, not timed:
``tests/test_routing_policies.py::test_simulator_calls_the_builders_class``.)
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

from repro.sim import SimulationConfig, Simulator

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_engine.json"

#: offered loads (messages/node/cycle): near-idle (where the active-set
#: scheduling wins outright), the low-load region where the paper's
#: latency curves live, 0.004 (216-371 busy channels), moderate load
#: approaching saturation (790-886 busy at 0.01), and the saturated
#: region (1067-1272 busy at 0.02)
RATES = (0.0002, 0.002, 0.004, 0.01, 0.02)
RADIX = 16
WARMUP_CYCLES = 300
MEASURE_CYCLES = 1200
REPETITIONS = 3
#: paired repetitions (median taken) for the gate that compares
#: identical code (module docstring): its limit sits within 2% of a
#: true ratio of 1.0
SAME_CODE_REPETITIONS = 7
#: a measured speedup below this fraction of the baseline speedup fails
REGRESSION_FRACTION = 0.75

#: staged-reconfiguration smoke: a non-convex two-node pattern (the pair
#: merges into one block, so the degrade pipeline runs) injected at
#: runtime with hop-by-hop detection
RECONFIG_RATE = 0.002
RECONFIG_LATENCY = 4
RECONFIG_NODES = ((4, 4), (5, 6))
#: cycles stepped before the fault, to steady occupancy
RECONFIG_STEADY_CYCLES = 700
#: a measured reconfiguration cost above this multiple of the baseline fails
RECONFIG_REGRESSION_FACTOR = 1.25

#: classification smoke: the three cells of the suite's ``mc_torus16``
#: workload as (radix, node faults, link faults, policy) on a 2D torus,
#: each timed over this many seeded patterns per repetition
CLASSIFY_CELLS = ((16, 1, 1, "ft"), (16, 4, 10, "ft"), (8, 2, 2, "adaptive"))
CLASSIFY_PATTERNS = 100
#: a measured classification cost above this multiple of the baseline fails
CLASSIFY_REGRESSION_FACTOR = 1.25

#: passes of the reference loop per repetition (median taken)
REFERENCE_PASSES = 7

#: pool smoke: ``execute()`` calls per variant (each a few ms) and the
#: ceiling on the paired-median ratio reused / fresh
POOL_REPETITIONS = 25
POOL_REUSE_CEILING = 0.5

#: tracing smoke: the rate where the paper's latency curves live
TRACING_RATE = 0.002
#: the tracer-disabled run may be at most 2% slower than the plain
#: active-core run measured in the same process
TRACING_DISABLED_LIMIT = 1.02
#: a measured tracer-enabled slowdown above this multiple of the
#: committed baseline slowdown fails
TRACING_REGRESSION_FACTOR = 1.25


def _median(values) -> float:
    return sorted(values)[len(values) // 2]


def _measure_rate(rate: float) -> dict:
    config = SimulationConfig(
        topology="torus", radix=RADIX, dims=2, rate=rate,
        warmup_cycles=0, measure_cycles=10, seed=42,
    )
    cores = ("legacy", "active")
    samples: dict = {core: [] for core in cores}
    # every repetition runs both cores back-to-back so clock drift between
    # repetitions cancels out of the per-repetition ratios
    for _ in range(REPETITIONS):
        for core in cores:
            sim = Simulator(config, core=core)
            for _ in range(WARMUP_CYCLES):  # reach steady occupancy first
                sim.step()
            start = time.perf_counter()
            for _ in range(MEASURE_CYCLES):
                sim.step()
            elapsed = time.perf_counter() - start
            samples[core].append(MEASURE_CYCLES / elapsed)
    point = {f"{core}_cycles_per_sec": round(max(samples[core]), 1) for core in cores}
    point["speedup"] = round(
        _median([a / l for a, l in zip(samples["active"], samples["legacy"])]), 3
    )
    return point


class _Slot:
    """One entry of the reference loop's working set."""

    __slots__ = ("total", "recent")

    def __init__(self) -> None:
        self.total = 0
        self.recent: list = []

    def visit(self, table: dict, key: int) -> int:
        self.total += key & 7
        self.recent.append(key)
        if len(self.recent) > 4:
            self.recent.pop(0)
        table[key & 255] = self.total
        return table.get((key * 7) & 255, 0)


def _reference_loop() -> float:
    """Seconds one pass of a fixed pure-Python loop takes now: integer
    arithmetic, then method calls with attribute, list and dict traffic
    (the interpreter work classification and reconfiguration do).  It
    runs no simulator code: the unit the reconfiguration and
    classification costs are expressed in."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    slots = [_Slot() for _ in range(16)]
    table: dict = {}
    for key in range(3000):
        acc += slots[key & 15].visit(table, key)
    return time.perf_counter() - start


def _reference_seconds() -> float:
    return _median([_reference_loop() for _ in range(REFERENCE_PASSES)])


def _reconfiguration_cost() -> dict:
    config = SimulationConfig(
        topology="torus", radix=RADIX, dims=2, rate=RECONFIG_RATE,
        warmup_cycles=0, measure_cycles=10, seed=42,
        detection_latency=RECONFIG_LATENCY,
    )
    best = float("inf")
    window_cycles = 0
    for _ in range(REPETITIONS):
        sim = Simulator(config)
        for _ in range(RECONFIG_STEADY_CYCLES):
            sim.step()
        unit = _reference_seconds()
        start = time.perf_counter()
        sim.inject_runtime_fault(nodes=RECONFIG_NODES)
        window_cycles = 0
        while sim.reconfig is not None:
            sim.step()
            window_cycles += 1
        elapsed = time.perf_counter() - start
        best = min(best, elapsed / unit)
    return {
        "detection_latency": RECONFIG_LATENCY,
        "window_cycles": window_cycles,
        "cost_refs": round(best, 1),
    }


def _classify_cost() -> dict:
    from repro.mc import MCCell, PatternSampler, classify_pattern

    cells = {
        f"torus{radix} {nodes}+{links} {policy}": MCCell("torus", radix, 2, nodes, links, policy)
        for radix, nodes, links, policy in CLASSIFY_CELLS
    }
    seconds: dict = {label: [] for label in cells}
    ratios: dict = {label: [] for label in cells}
    # each repetition times the reference loop and every cell
    # back-to-back; the per-repetition ratio cancels clock drift
    for _ in range(REPETITIONS):
        unit = _reference_seconds()
        for label, cell in cells.items():
            # the per-process network every shard of the cell shares:
            # repetition one fills its tables, the median reads them warm
            network = cell.network()
            sampler = PatternSampler(
                network, cell.num_node_faults, cell.num_link_faults,
                master_seed=42, cell_key=cell.key(),
            )
            patterns = [sampler.draw(index) for index in range(CLASSIFY_PATTERNS)]
            start = time.perf_counter()
            for faults in patterns:
                classify_pattern(network, faults, policy=cell.policy)
            per_pattern = (time.perf_counter() - start) / CLASSIFY_PATTERNS
            seconds[label].append(per_pattern)
            ratios[label].append(per_pattern / unit)
    return {
        "patterns": CLASSIFY_PATTERNS,
        "cells": {
            label: {
                "ms_per_pattern": round(1e3 * min(seconds[label]), 3),
                "cost_refs": round(_median(ratios[label]), 4),
            }
            for label in cells
        },
    }


class _NoopTask:
    """Costs nothing to run, so a call through the executor measures the
    executor."""

    cacheable = False

    def execute(self) -> int:
        return 0


def _pool_cost() -> dict:
    from repro.exec import WorkerPool, execute

    tasks = [_NoopTask(), _NoopTask()]
    fresh, reused = [], []
    with WorkerPool() as pool:
        execute(tasks, jobs=2, pool=pool)  # spawn outside the timed calls
        # each repetition times both variants back-to-back; the
        # per-repetition ratio cancels clock drift
        for _ in range(POOL_REPETITIONS):
            start = time.perf_counter()
            execute(tasks, jobs=2)
            fresh.append(time.perf_counter() - start)
            start = time.perf_counter()
            execute(tasks, jobs=2, pool=pool)
            reused.append(time.perf_counter() - start)
    return {
        "repetitions": POOL_REPETITIONS,
        "fresh_ms_per_call": round(1e3 * _median(fresh), 3),
        "reused_ms_per_call": round(1e3 * _median(reused), 3),
        "reused_over_fresh": round(_median([r / f for r, f in zip(reused, fresh)]), 3),
    }


def _tracing_cost() -> dict:
    from repro.obs import TraceConfig, Tracer

    config = SimulationConfig(
        topology="torus", radix=RADIX, dims=2, rate=TRACING_RATE,
        warmup_cycles=0, measure_cycles=10, seed=42,
    )
    samples: dict = {"plain": [], "disabled": [], "enabled": []}
    # interleave the variants so clock drift hits all of them equally;
    # "plain" and "disabled" are both tracer-less runs measured
    # back-to-back, which is what the no-op contract promises
    for _ in range(SAME_CODE_REPETITIONS):
        for variant in ("plain", "disabled", "enabled"):
            sim = Simulator(config)
            if variant == "enabled":
                Tracer(sim, TraceConfig(window=100))
            for _ in range(WARMUP_CYCLES):
                sim.step()
            # a full collection (~30 ms on a 2-vCPU box, ~10% of a
            # window) is due every few windows; run it before this one,
            # not inside it
            gc.collect()
            start = time.perf_counter()
            for _ in range(MEASURE_CYCLES):
                sim.step()
            samples[variant].append(MEASURE_CYCLES / (time.perf_counter() - start))
    best = {variant: max(values) for variant, values in samples.items()}
    return {
        "rate": TRACING_RATE,
        "repetitions": SAME_CODE_REPETITIONS,
        "plain_cycles_per_sec": round(best["plain"], 1),
        "disabled_cycles_per_sec": round(best["disabled"], 1),
        "enabled_cycles_per_sec": round(best["enabled"], 1),
        "disabled_overhead": round(
            _median([p / d for p, d in zip(samples["plain"], samples["disabled"])]), 3
        ),
        "enabled_overhead": round(best["disabled"] / best["enabled"], 3),
    }


def measure() -> dict:
    if "REPRO_SIM_CORE" in os.environ:
        raise SystemExit("unset REPRO_SIM_CORE: it replaces the default core being measured")
    points = {}
    for rate in RATES:
        point = points[str(rate)] = _measure_rate(rate)
        print(
            f"rate={rate}: legacy={point['legacy_cycles_per_sec']:9.1f} c/s  "
            f"active={point['active_cycles_per_sec']:9.1f} c/s  "
            f"speedup={point['speedup']:.2f}x"
        )
    reconfig = _reconfiguration_cost()
    print(
        f"reconfiguration: {reconfig['cost_refs']:.1f} reference-loop equivalents "
        f"({reconfig['window_cycles']} window cycles at detection latency "
        f"{reconfig['detection_latency']})"
    )
    classify = _classify_cost()
    for label, cell in classify["cells"].items():
        print(
            f"classify {label}: {cell['ms_per_pattern']:.3f} ms/pattern = "
            f"{cell['cost_refs']:.4f} reference-loop equivalents"
        )
    pool = _pool_cost()
    print(
        f"pool: fresh={pool['fresh_ms_per_call']:.2f} ms/call  "
        f"reused={pool['reused_ms_per_call']:.2f} ms/call  "
        f"reused/fresh={pool['reused_over_fresh']:.3f}"
    )
    tracing = _tracing_cost()
    print(
        f"tracing: disabled={tracing['disabled_cycles_per_sec']:9.1f} c/s  "
        f"enabled={tracing['enabled_cycles_per_sec']:9.1f} c/s  "
        f"overhead={tracing['enabled_overhead']:.2f}x"
    )
    return {
        "config": {
            "topology": "torus", "radix": RADIX, "dims": 2,
            "warmup_cycles": WARMUP_CYCLES, "measure_cycles": MEASURE_CYCLES,
            "repetitions": REPETITIONS,
        },
        "rates": points,
        "reconfiguration": reconfig,
        "classify": classify,
        "pool": pool,
        "tracing": tracing,
    }


def check(measured: dict, baseline: dict) -> int:
    failures = 0
    for rate, point in baseline["rates"].items():
        got = measured["rates"].get(rate)
        if got is None:
            print(f"rate {rate}: missing from measurement", file=sys.stderr)
            failures += 1
            continue
        floor = REGRESSION_FRACTION * point["speedup"]
        verdict = "ok" if got["speedup"] >= floor else "REGRESSION"
        print(
            f"rate {rate}: speedup {got['speedup']:.2f}x vs baseline "
            f"{point['speedup']:.2f}x (floor {floor:.2f}x) -> {verdict}"
        )
        if got["speedup"] < floor:
            failures += 1
    failures += _check_classify(measured, baseline)
    failures += _check_pool(measured)
    failures += _check_reconfiguration(measured, baseline)
    failures += _check_tracing(measured, baseline)
    return failures


def _check_reconfiguration(measured: dict, baseline: dict) -> int:
    base = baseline.get("reconfiguration")
    if base is None or "cost_refs" not in base:
        # no entry, or one in the retired simulator-cycle unit
        print("reconfiguration: no baseline entry in reference units; skipping (--write to add)")
        return 0
    got = measured.get("reconfiguration")
    if got is None:
        print("reconfiguration: missing from measurement", file=sys.stderr)
        return 1
    ceiling = RECONFIG_REGRESSION_FACTOR * base["cost_refs"]
    verdict = "ok" if got["cost_refs"] <= ceiling else "REGRESSION"
    print(
        f"reconfiguration: {got['cost_refs']:.1f} reference-loop equivalents vs "
        f"baseline {base['cost_refs']:.1f} (ceiling {ceiling:.1f}) -> {verdict}"
    )
    return 1 if got["cost_refs"] > ceiling else 0


def _check_classify(measured: dict, baseline: dict) -> int:
    base = baseline.get("classify")
    if base is None or any("cost_refs" not in cell for cell in base["cells"].values()):
        # no entry, or one in the retired legacy-cycle unit
        print("classify: no baseline entry in reference units; skipping (--write to add)")
        return 0
    got = measured.get("classify")
    if got is None:
        print("classify: missing from measurement", file=sys.stderr)
        return 1
    failures = 0
    for label, cell in base["cells"].items():
        cost = got["cells"][label]["cost_refs"]
        ceiling = CLASSIFY_REGRESSION_FACTOR * cell["cost_refs"]
        verdict = "ok" if cost <= ceiling else "REGRESSION"
        print(
            f"classify {label}: {cost:.4f} reference-loop equivalents vs baseline "
            f"{cell['cost_refs']:.4f} (ceiling {ceiling:.4f}) -> {verdict}"
        )
        if cost > ceiling:
            failures += 1
    return failures


def _check_pool(measured: dict) -> int:
    # same-repetition ratios: needs no baseline entry
    got = measured.get("pool")
    if got is None:
        print("pool: missing from measurement", file=sys.stderr)
        return 1
    ratio = got["reused_over_fresh"]
    verdict = "ok" if ratio <= POOL_REUSE_CEILING else "REGRESSION"
    print(
        f"pool: reused {got['reused_ms_per_call']:.2f} ms/call vs fresh "
        f"{got['fresh_ms_per_call']:.2f} ms/call (x{ratio:.3f}, "
        f"ceiling x{POOL_REUSE_CEILING}) -> {verdict}"
    )
    return 1 if ratio > POOL_REUSE_CEILING else 0


def _check_tracing(measured: dict, baseline: dict) -> int:
    failures = 0
    got = measured.get("tracing")
    if got is None:
        print("tracing: missing from measurement", file=sys.stderr)
        return 1
    # disabled gate: same-loop comparison against the interleaved plain
    # measurement (needs no baseline entry)
    ratio = got["disabled_overhead"]
    verdict = "ok" if ratio <= TRACING_DISABLED_LIMIT else "REGRESSION"
    print(
        f"tracing disabled: {got['disabled_cycles_per_sec']:.1f} c/s vs "
        f"plain {got['plain_cycles_per_sec']:.1f} c/s (x{ratio:.3f}, "
        f"limit x{TRACING_DISABLED_LIMIT}) -> {verdict}"
    )
    if ratio > TRACING_DISABLED_LIMIT:
        failures += 1
    base = baseline.get("tracing")
    if base is None:
        print("tracing: no baseline entry; skipping (--write to add)")
        return failures
    ceiling = TRACING_REGRESSION_FACTOR * base["enabled_overhead"]
    verdict = "ok" if got["enabled_overhead"] <= ceiling else "REGRESSION"
    print(
        f"tracing enabled: overhead {got['enabled_overhead']:.2f}x vs baseline "
        f"{base['enabled_overhead']:.2f}x (ceiling {ceiling:.2f}x) -> {verdict}"
    )
    if got["enabled_overhead"] > ceiling:
        failures += 1
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="write the baseline file")
    mode.add_argument("--check", action="store_true", help="compare against the baseline")
    args = parser.parse_args(argv)

    measured = measure()
    if args.write:
        BASELINE_PATH.write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    # leave the measured numbers next to the baseline for CI artifacts
    ci_path = BASELINE_PATH.with_suffix(".ci.json")
    ci_path.write_text(json.dumps(measured, indent=1, sort_keys=True) + "\n")
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --write first", file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = check(measured, baseline)
    if failures:
        print(f"{failures} perf regression(s)", file=sys.stderr)
        return 1
    print("perf smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
