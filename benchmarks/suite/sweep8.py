"""``sweep8_cold``: what a figure harness does — twelve cold points
through ``Experiment.run(jobs=2, store=<fresh>)``."""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.api import Experiment
from repro.exec import ResultStore
from repro.sim import SimulationConfig

from .harness import (
    JOBS,
    Rep,
    SliceClock,
    Trace,
    digest,
    pmedian,
    pool_spawn_seconds,
    reference_seconds,
    timed,
)

#: four rates per fault percentage, from the quick-scale grids
RATE_GRIDS = {
    0: (0.005, 0.020, 0.030, 0.040),
    1: (0.004, 0.016, 0.024, 0.032),
    5: (0.003, 0.014, 0.020, 0.028),
}
WARMUP_CYCLES = 100
MEASURE_CYCLES = 300


class Sweep8Cold:
    IMPORT = "repro.api"
    SETUPS = 5
    WORK_UNIT = "sweep point"
    REQUEST = "one cold Experiment.run(jobs=2, store=<fresh>) of 12 points"

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.stores = 0
        self.experiment: Optional[Experiment] = None

    def setup(self) -> None:
        self.experiment = Experiment.from_configs(
            [
                SimulationConfig(
                    topology="torus",
                    radix=8,
                    dims=2,
                    fault_percent=percent,
                    rate=rate,
                    warmup_cycles=WARMUP_CYCLES,
                    measure_cycles=MEASURE_CYCLES,
                    seed=self.seed,
                    fault_seed=self.seed,
                )
                for percent, rates in RATE_GRIDS.items()
                for rate in rates
            ]
        )
        self.fresh_store()

    def fresh_store(self) -> ResultStore:
        self.stores += 1
        return ResultStore(self.tmp / f"store-{self.stores}")

    def rep(self, trace: Optional[Trace] = None) -> Rep:
        # parallel completion order is not deterministic, so the whole
        # rep is one slice
        clock = SliceClock()
        with clock.sampling():
            results = timed(
                clock, trace, "sweep", self.experiment.run,
                jobs=JOBS, store=self.fresh_store(), allow_failures=True,
            )  # fmt: skip
        stats = results.stats
        return Rep(
            clock=clock,
            digest=digest(results.to_dicts()),
            attempted=len(results),
            failed=stats.failed + (stats.cache_hits != 0),
            info={"stats": stats},
        )

    def summarise(self, reps: Sequence[Rep]) -> Dict[str, float]:
        quiet = pmedian(reps)
        return {"work_per_s": len(self.experiment) / quiet, "request_ms": 1000.0 * quiet}

    def layers(self, trace: Trace, plain: Rep, traced: Rep, checks: List[bool]) -> Dict[str, float]:
        stats = plain.info["stats"]
        # the same twelve points run serially in this process, no store.
        # Everything is pinned to one CPU, so two workers cannot beat
        # one: 1.0 means pool, pickling and store writes cost nothing
        with trace.span("exec.serial_points"):
            serial, serial_s = reference_seconds(lambda: self.experiment.run(jobs=1, cache=False))
        checks.append(digest(serial.to_dicts()) == plain.digest)
        return {
            "exec.parallel_efficiency": serial_s / plain.slices[0],
            "exec.pool.spawn_s": pool_spawn_seconds(trace),
            "exec.cache_hits": stats.cache_hits,
            "exec.executed": stats.executed,
            "exec.failed": stats.failed,
            "exec.infra_retries": stats.infra_retries,
        }
