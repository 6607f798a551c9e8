"""Engine performance benchmarks (simulator cycles/second).

These are the only benchmarks here that measure *wall-clock speed* rather
than reproducing a paper result; they guard against performance
regressions in the hot loop (important because the paper-scale 16x16
sweeps run thousands of cycles per point).
"""

import time

import pytest

from repro.sim import SimulationConfig, Simulator


def make_sim(load: float, *, core=None, radix=8, **kwargs):
    defaults = dict(
        topology="torus", radix=radix, dims=2, rate=load,
        warmup_cycles=0, measure_cycles=10,
    )
    defaults.update(kwargs)
    sim = Simulator(SimulationConfig(**defaults), core=core)
    for _ in range(300):  # reach steady occupancy before timing
        sim.step()
    return sim


def cycles_per_second(core: str, load: float, *, cycles=1500, repetitions=3, **kwargs):
    best = 0.0
    for _ in range(repetitions):
        sim = make_sim(load, core=core, **kwargs)
        start = time.perf_counter()
        for _ in range(cycles):
            sim.step()
        best = max(best, cycles / (time.perf_counter() - start))
    return best


class TestEngineSpeed:
    def test_idle_cycles(self, benchmark):
        sim = make_sim(0.0)

        def run():
            for _ in range(500):
                sim.step()

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_moderate_load_cycles(self, benchmark):
        sim = make_sim(0.01)

        def run():
            for _ in range(300):
                sim.step()

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_saturated_cycles(self, benchmark):
        sim = make_sim(0.04)

        def run():
            for _ in range(200):
                sim.step()

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_saturated_with_faults(self, benchmark):
        sim = make_sim(0.03, fault_percent=5)

        def run():
            for _ in range(200):
                sim.step()

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_active_core_speedup_at_low_load(self):
        """The active-set core's acceptance bar: at least 2x the legacy
        full-scan core on the paper-scale 16x16 torus at low load, where
        idle channels dominate a full scan.  (The measured curve across
        loads is recorded by perf_smoke.py in BENCH_engine.json; the
        advantage shrinks toward 1x at saturation, where nearly every
        channel has real work.)"""
        load = 0.0002  # 0.004 flits/node/cycle offered
        legacy = cycles_per_second("legacy", load, radix=16, seed=42)
        active = cycles_per_second("active", load, radix=16, seed=42)
        assert active >= 2.0 * legacy, (
            f"active-set speedup {active / legacy:.2f}x below the 2x bar "
            f"(active={active:.0f} c/s, legacy={legacy:.0f} c/s)"
        )

    def test_vector_core_speedup_at_saturation(self):
        """The vector core's acceptance bar: meaningfully faster than
        legacy on the paper-scale 16x16 torus at saturated load, where
        the active core's event-driven win has collapsed.  Measured
        paired per-repetition (clock drift between repetitions on a
        shared machine dwarfs within-repetition drift) with the median
        ratio against a bar set beneath the honest measured ~2.5-3x so
        noise cannot flake it; perf_smoke.py carries the tighter gate."""
        pytest.importorskip("numpy")
        load = 0.02
        ratios = []
        for _ in range(3):
            legacy = cycles_per_second("legacy", load, radix=16, seed=42,
                                       cycles=600, repetitions=1)
            vector = cycles_per_second("vector", load, radix=16, seed=42,
                                       cycles=600, repetitions=1)
            ratios.append(vector / legacy)
        median = sorted(ratios)[1]
        assert median >= 1.5, (
            f"vector-core speedup {median:.2f}x below the 1.5x bar "
            f"(per-repetition ratios: {[f'{r:.2f}' for r in ratios]})"
        )

    def test_cores_identical_results_at_speed(self):
        """Speed must not cost correctness: the benchmark configuration
        itself delivers identical results on the oracle, the scalar
        branch and the default core (which batches at this load)."""
        config = dict(
            topology="torus", radix=16, dims=2, rate=0.002,
            warmup_cycles=200, measure_cycles=600, seed=42,
        )
        legacy = Simulator(SimulationConfig(**config), core="legacy").run()
        active = Simulator(SimulationConfig(**config), core="active").run()
        default = Simulator(SimulationConfig(**config)).run()
        assert legacy.to_dict() == active.to_dict() == default.to_dict()

    def test_routing_decisions_per_second(self, benchmark):
        from repro.core import FaultTolerantRouting
        from repro.faults import FaultSet, validate_fault_pattern
        from repro.topology import Torus

        torus = Torus(16, 2)
        faults = FaultSet.of(torus, nodes=[(5, 5), (6, 5), (5, 6), (6, 6)])
        scenario = validate_fault_pattern(torus, faults)
        routing = FaultTolerantRouting.for_scenario(torus, scenario)
        healthy = [c for c in torus.nodes() if c not in scenario.faults.node_faults]

        def route_many():
            count = 0
            for src in healthy[::4]:
                for dst in healthy[::4]:
                    if src != dst:
                        routing.route_path(src, dst)
                        count += 1
            return count

        routed = benchmark.pedantic(route_many, rounds=1, iterations=1)
        assert routed > 3_000
