"""``mc_torus16``: Monte-Carlo reliability cells at the paper's 1% and 5%
fault counts.  Classification (faults / regions / rings / degrade)
does the work; no flit is simulated."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.routing_registry import build_routing
from repro.faults import degrade_fault_pattern
from repro.mc import (
    FATAL_EXCEPTIONS,
    MCCell,
    MCPlan,
    MCProgress,
    MCSettings,
    MCShardTask,
    PatternSampler,
    ShardTally,
    TallyLog,
    binomial_interval,
    classify_pattern,
    run_plan,
)

from .harness import JOBS, Rep, SliceClock, Trace, digest, median, pool_spawn_seconds, slice_medians

#: 16x16 torus with (1 node + 1 link) and (4 nodes + 10 links) — the
#: paper's 1% and 5% counts — plus a cheaper 8x8 cell on another policy
CELLS = (
    MCCell("torus", 16, 2, 1, 1, "ft"),
    MCCell("torus", 16, 2, 4, 10, "ft"),
    MCCell("torus", 8, 2, 2, 2, "adaptive"),
)
SETTINGS = MCSettings(half_width=0.04, shard_size=50, max_shards=8, min_shards=2)
#: the cell whose patterns the direct layer calls use (the costly one)
PROBE_CELL = CELLS[1]


class MCTorus16:
    IMPORT = "repro.mc"
    SETUPS = 5
    WORK_UNIT = "classified fault pattern, at an equal mix of the three cells"
    REQUEST = "the first interval of every cell (min_shards merged: one wave of 2x50 patterns each)"

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.logs = 0
        self.plan = MCPlan(cells=CELLS, settings=SETTINGS, master_seed=seed)

    def setup(self) -> None:
        self.plan.validate()
        TallyLog(self.fresh_log())

    def fresh_log(self) -> Path:
        self.logs += 1
        return self.tmp / f"tallies-{self.logs}.jsonl"

    def rep(self, trace: Optional[Trace] = None) -> Rep:
        """One ``run_plan``; a slice is one wave of shards, stamped by
        the public ``progress=`` callback, plus the tail after the last."""
        log_path = self.fresh_log()
        clock = SliceClock()
        wave_cells: List[int] = []

        def on_progress(event: MCProgress) -> None:
            if not event.stopped:
                clock.stop()
                wave_cells.append(event.cell_index)
                clock.start()

        with clock.sampling():
            clock.start()
            result = run_plan(self.plan, jobs=JOBS, tally_log=log_path, progress=on_progress)
            clock.stop()
        if trace is not None:
            for index, (start, seconds) in enumerate(zip(clock.starts, clock.raw)):
                cell = wave_cells[index] if index < len(wave_cells) else "tail"
                trace.add("slice", start, start + seconds, label=f"wave of cell {cell}")
        return Rep(
            clock=clock,
            digest=digest([estimate.digest() for estimate in result.estimates]),
            attempted=result.shards_executed,
            failed=result.stats.failed + result.shards_resumed,
            info={"result": result, "wave_cells": wave_cells, "log": log_path},
        )

    def summarise(self, reps: Sequence[Rep]) -> Dict[str, float]:
        """Every wave is ``jobs`` shards of one cell, so a cell's waves
        are equal work; how many each cell needs before it stops depends
        on the seed.  The rate is therefore taken at a fixed mix, one
        mean wave of every cell, and does not move with the stopping
        points."""
        wave_cells = reps[0].info["wave_cells"]
        typical = slice_medians(reps)
        mean_wave_s = 0.0
        for cell in range(len(CELLS)):
            waves = [typical[index] for index, owner in enumerate(wave_cells) if owner == cell]
            mean_wave_s += sum(waves) / len(waves)
        first_waves = [wave_cells.index(cell) for cell in range(len(CELLS))]
        return {
            "work_per_s": len(CELLS) * JOBS * SETTINGS.shard_size / mean_wave_s,
            "request_ms": 1000.0 * sum(typical[index] for index in first_waves),
        }

    def layers(self, trace: Trace, plain: Rep, traced: Rep, checks: List[bool]) -> Dict[str, float]:
        result = plain.info["result"]
        estimates = result.estimates
        out: Dict[str, float] = {
            "mc.plan_s": sum(plain.slices),
            "mc.patterns": result.shards_executed * SETTINGS.shard_size,
            "mc.shards_executed": result.shards_executed,
            # shards classified past the stopping prefix
            "mc.shards_wasted": result.shards_executed - sum(e.shards_used for e in estimates),
            "mc.samples_to_stop": sum(e.n for e in estimates),
        }
        for label in ("routable", "degraded", "fatal"):
            out[f"mc.class.{label}"] = sum(e.counts.get(label, 0) for e in estimates)

        # the first shard of the costly cell again, layer by layer
        cell = PROBE_CELL
        out["topology.make_network_ms"] = 1e3 * trace.sample("topology.make_network", cell.network, 5)
        network = cell.network()
        sampler = PatternSampler(
            network, cell.num_node_faults, cell.num_link_faults,
            master_seed=self.plan.master_seed, cell_key=cell.key(),
        )  # fmt: skip
        tally = ShardTally(cell_key=cell.key(), start=0, reservoir_cap=SETTINGS.reservoir)
        scenario = None
        for index in range(SETTINGS.shard_size):
            faults = trace.call("mc.sampler.draw", sampler.draw, index)
            verdict = trace.call("mc.classify", classify_pattern, network, faults, policy=cell.policy)
            trace.call("mc.tally.record", tally.record, index, verdict)
            try:
                scenario, _info = trace.call("faults.degrade", degrade_fault_pattern, network, faults)
            except FATAL_EXCEPTIONS:
                pass
        # the direct calls must rebuild exactly the tally the plan logged
        shard = MCShardTask(cell, self.plan.master_seed, 0, SETTINGS.shard_size, SETTINGS.reservoir)
        logged = TallyLog(plain.info["log"]).get(shard.checkpoint_key())
        checks.append(logged is not None and logged.digest() == tally.digest())
        out["mc.sampler.draw_us"] = 1e6 * median(trace.durations("mc.sampler.draw"))
        out["mc.classify.ms_per_pattern"] = 1e3 * median(trace.durations("mc.classify"))
        out["mc.tally.record_us"] = 1e6 * median(trace.durations("mc.tally.record"))
        out["faults.degrade_ms_per_pattern"] = 1e3 * median(trace.durations("faults.degrade"))
        out["core.build_routing_ms"] = 1e3 * trace.sample(
            "core.build_routing", lambda: build_routing(cell.policy, network, scenario, None), 3
        )
        scratch = TallyLog(self.fresh_log())
        for index in range(20):
            trace.call("mc.tally.append", scratch.append, f"probe-{index}", tally)
        out["mc.tally.append_ms"] = 1e3 * median(trace.durations("mc.tally.append"))
        out["mc.tally.replay_ms"] = 1e3 * trace.sample(
            "mc.tally.replay", lambda: TallyLog(plain.info["log"]), 5
        )
        out["mc.estimator.interval_us"] = 1e6 * trace.sample(
            "mc.estimator.interval",
            lambda: binomial_interval(tally.survivors, tally.count, SETTINGS.confidence, SETTINGS.method),
            200,
        )
        out["exec.pool.spawn_s"] = pool_spawn_seconds(trace)
        return out
