"""``exec_tinypoints``: many tiny points, so the executor, the journaled
fsynced store and the checkpoint do most of the work — a cold phase
(store puts + checkpoint marks) then warm passes (store loads +
checkpoint replay)."""

from __future__ import annotations

import random
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.api import Experiment
from repro.exec import ResultStore, SweepCheckpoint
from repro.exec.executor import ProgressEvent
from repro.sim import SimulationConfig

from .harness import JOBS, Rep, SliceClock, Trace, digest, median, slice_medians, timed

CHUNKS = 2
CHUNK_POINTS = 100
#: a cold chunk is cut into slices of this many finished points; with two
#: workers the order of completion can differ, the work in a slice hardly
SLICE_POINTS = 20
COLD_SLICES = CHUNKS * CHUNK_POINTS // SLICE_POINTS
WARM_PASSES = 3
LAYER_SAMPLES = 40


class ExecTinyPoints:
    IMPORT = "repro.api"
    SETUPS = 5
    WORK_UNIT = "cold point (simulated, stored, checkpointed)"
    REQUEST = "one warm pass: all 200 points served from store and checkpoint"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.roots = 0
        self.chunks: List[Experiment] = []

    def setup(self) -> None:
        rng = random.Random(self.seed)
        configs = [
            SimulationConfig(
                topology="torus",
                radix=4,
                dims=2,
                rate=0.01 + 0.0001 * index,
                warmup_cycles=5,
                measure_cycles=15,
                seed=rng.randrange(1 << 30),
            )
            for index in range(CHUNKS * CHUNK_POINTS)
        ]
        self.chunks = [
            Experiment.from_configs(configs[first : first + CHUNK_POINTS])
            for first in range(0, len(configs), CHUNK_POINTS)
        ]
        root = self.fresh_root()
        store = ResultStore(root / "store")
        for chunk in self.chunks:
            SweepCheckpoint.for_tasks(root / "ckpt", chunk.tasks, version=store.version)

    def fresh_root(self) -> Path:
        self.roots += 1
        return self.tmp / f"root-{self.roots}"

    def rep(self, trace: Optional[Trace] = None) -> Rep:
        root = self.fresh_root()
        store = ResultStore(root / "store")
        clock = SliceClock()
        failed = 0
        passes = []
        counts = {"cache_hits": 0, "executed": 0, "failed": 0, "infra_retries": 0}

        def cut(event: ProgressEvent) -> None:
            if event.completed % SLICE_POINTS == 0 and event.completed < event.total:
                clock.stop()
                clock.start()

        with clock.sampling():
            for index in range(1 + WARM_PASSES):
                outputs = []
                for number, chunk in enumerate(self.chunks):
                    results = timed(
                        clock, trace, f"{'warm' if index else 'cold'} chunk {number}", chunk.run,
                        jobs=JOBS, store=store, resume=root / "ckpt", allow_failures=True,
                        progress=None if index else cut,
                    )  # fmt: skip
                    stats = results.stats
                    wanted_hits = len(chunk) if index else 0
                    failed += stats.failed + abs(stats.cache_hits - wanted_hits)
                    for counter in counts:
                        counts[counter] += getattr(stats, counter)
                    outputs.extend(results.to_dicts())
                passes.append(digest(outputs))
        # warm results == cold results
        failed += len(set(passes)) != 1
        return Rep(
            clock=clock,
            digest=passes[0],
            attempted=(1 + WARM_PASSES) * CHUNKS * CHUNK_POINTS + 1,
            failed=failed,
            info={"root": root, "counts": counts},
        )

    def rates(self, reps: Sequence[Rep]) -> Dict[str, float]:
        typical = slice_medians(reps)
        points = CHUNKS * CHUNK_POINTS
        return {
            "cold_points_per_s": points / sum(typical[:COLD_SLICES]),
            "warm_pass_s": sum(typical[COLD_SLICES:]) / WARM_PASSES,
        }

    def summarise(self, reps: Sequence[Rep]) -> Dict[str, float]:
        rates = self.rates(reps)
        return {
            "work_per_s": rates["cold_points_per_s"],
            "request_ms": 1000.0 * rates["warm_pass_s"],
        }

    def layers(self, trace: Trace, plain: Rep, traced: Rep, checks: List[bool]) -> Dict[str, float]:
        rates = self.rates([plain, traced])
        out = {
            "exec.cold_points_per_s": rates["cold_points_per_s"],
            "exec.warm_points_per_s": CHUNKS * CHUNK_POINTS / rates["warm_pass_s"],
        }
        # direct calls on this workload's own points, into a scratch root
        configs = self.chunks[0].configs[:LAYER_SAMPLES]
        tasks = self.chunks[0].tasks
        warm_store = ResultStore(plain.info["root"] / "store")
        scratch = self.fresh_root()
        store = ResultStore(scratch / "store")
        results = [trace.call("exec.store.load", warm_store.load, config) for config in configs]
        checks.append(all(result is not None for result in results))
        for config, result in zip(configs, results):
            trace.call("exec.config.hash", config.content_hash, store.version)
            trace.call("exec.store.store", store.store, config, result)
        checkpoint = trace.call(
            "exec.checkpoint.create", SweepCheckpoint.for_tasks, scratch / "ckpt", tasks, version=store.version
        )
        for key in checkpoint.keys()[:LAYER_SAMPLES]:
            trace.call("exec.checkpoint.mark", checkpoint.mark_ok, key)
        # reopening verifies the manifest and is what a warm pass pays
        trace.sample(
            "exec.checkpoint.open",
            lambda: SweepCheckpoint.for_tasks(scratch / "ckpt", tasks, version=store.version).completed(),
            5,
        )
        out["exec.store.store_ms"] = 1e3 * median(trace.durations("exec.store.store"))
        out["exec.store.load_ms"] = 1e3 * median(trace.durations("exec.store.load"))
        out["exec.checkpoint.mark_ms"] = 1e3 * median(trace.durations("exec.checkpoint.mark"))
        out["exec.checkpoint.open_ms"] = 1e3 * median(trace.durations("exec.checkpoint.open"))
        out["exec.config.hash_us"] = 1e6 * median(trace.durations("exec.config.hash"))
        for counter, value in plain.info["counts"].items():
            out[f"exec.{counter}"] = value
        return out

