"""``torus16_f0_low`` and ``torus16_f5_sat``: one ``Simulator.run()`` on
the paper's 16x16 torus, fault-free near idle and 5% faults at the top
of the paper-scale rate grid."""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.routing_registry import build_routing
from repro.experiments.figures import PAPER_PEAK_UTILIZATION
from repro.faults import FaultRingIndex, FaultSet, paper_fault_scenario, validate_fault_pattern
from repro.sim import SimNetwork, SimulationConfig, Simulator
from repro.topology import make_network

from .harness import Rep, SliceClock, StageProxy, Trace, digest, pmedian

try:
    import numpy  # noqa: F401  (the vector core needs it)

    HAVE_NUMPY = True
except ImportError:
    HAVE_NUMPY = False

STAGES = ("generation", "injection", "allocation", "transfer")
WARMUP_CYCLES = 300
#: the explicit-core reps of the traced run use a short window, because
#: the legacy core needs ~3.6 ms per cycle at any load
CORE_REP_MEASURE_CYCLES = 300
ROUTE_PAIRS = 2000


class Torus16:
    IMPORT = "repro.sim"
    SETUPS = 5
    WORK_UNIT = "simulated cycle"
    REQUEST = "one Simulator(cfg, net).run()"

    def __init__(
        self,
        seed: int,
        tmp: Path,
        *,
        fault_percent: int,
        rate: float,
        measure_cycles: int,
        slice_cycles: int,
        probe_slices: int,
    ):
        self.seed = seed
        self.slice_cycles = slice_cycles
        self.probe_slices = probe_slices  #: slices between two kernel samples (~50 ms)
        self.cfg = SimulationConfig(
            topology="torus",
            radix=16,
            dims=2,
            fault_percent=fault_percent,
            rate=rate,
            warmup_cycles=WARMUP_CYCLES,
            measure_cycles=measure_cycles,
            seed=seed,
            fault_seed=seed,
        )
        self.net: Optional[SimNetwork] = None
        self.setups = 0

    def setup(self) -> None:
        """Build the network.  The first call builds the one the reps
        run on; later calls draw the next fault patterns, because
        generating a 5% pattern takes 0.07-0.5 s depending on the draw
        and the median over several depends less on the seed."""
        cfg = replace(self.cfg, fault_seed=self.cfg.fault_seed + self.setups)
        self.setups += 1
        net = SimNetwork(cfg)
        if self.net is None:
            self.net = net

    # ------------------------------------------------------------------
    def rep(
        self,
        trace: Optional[Trace] = None,
        *,
        cfg: Optional[SimulationConfig] = None,
        core: Optional[str] = None,
        sliced: bool = True,
    ) -> Rep:
        """One ``sim.run()``.  Slices are stamped by a hook appended to
        the public ``Simulator.cycle_hooks``; with ``trace`` the four
        stages run behind timing proxies.  Neither may change the
        result (the digests are compared)."""
        cfg = cfg or self.cfg
        sim = Simulator(cfg, self.net, core=core)
        proxies: Dict[str, StageProxy] = {}
        if trace is not None:
            for name in STAGES:
                proxies[name] = StageProxy(getattr(sim, name))
                setattr(sim, name, proxies[name])
        every = self.slice_cycles
        probe_every = every * self.probe_slices
        clock = SliceClock()
        marks: List[List[tuple]] = []
        carried: Dict[str, int] = {}

        def stamp(now: int) -> None:
            if now % every == 0:
                if now:
                    clock.stop()
                if proxies:
                    marks.append([(p.busy, p.calls) for p in proxies.values()])
                if now == cfg.warmup_cycles:  # a slice boundary: the window opens here
                    carried["in_flight"] = sim.in_flight
                    carried["queued"] = sum(len(queue) for queue in sim.queues.values())
                if now % probe_every == 0:
                    clock.sample()
                clock.start()

        if sliced:
            sim.cycle_hooks.append(stamp)
        else:
            clock.sample()
            clock.start()
        result = sim.run()
        clock.stop()
        clock.sample()
        if trace is not None:
            marks.append([(p.busy, p.calls) for p in proxies.values()])
            self._record_spans(trace, clock, marks)
        # the window's counters must balance against what it inherited
        # from warm-up: nothing generated or injected may go missing
        conserved = not sliced or (
            result.generated + carried["queued"] == result.injected + result.final_source_queue
            and result.injected + carried["in_flight"] == result.delivered + result.in_flight_at_end
        )
        return Rep(
            clock=clock,
            digest=digest(result.to_dict()),
            attempted=2,  # the run, and the conservation check
            failed=0 if conserved else 1,
            info={
                "result": result,
                "cycles": cfg.warmup_cycles + cfg.measure_cycles,
                "flits_moved": sum(channel.transfers for channel in self.net.channels),
                "stages": {
                    name: (p.busy, p.calls, p.progress) for name, p in proxies.items()
                },
            },
        )

    def _record_spans(self, trace: Trace, clock: SliceClock, marks: Sequence[list]) -> None:
        """One ``slice`` span per slice; under it one span per stage
        holding the *sum* of that stage's per-cycle calls in the slice,
        laid end to end from the slice start (``aggregated``)."""
        for index, (start, seconds) in enumerate(zip(clock.starts, clock.raw)):
            first = index * self.slice_cycles
            slice_id = trace.add("slice", start, start + seconds, label=f"cycles {first}+{self.slice_cycles}")
            cursor = start
            for stage, before, after in zip(STAGES, marks[index], marks[index + 1]):
                busy = after[0] - before[0]
                trace.add(
                    f"sim.{stage}",
                    cursor,
                    cursor + busy,
                    parent=slice_id,
                    aggregated=True,
                    calls=after[1] - before[1],
                )
                cursor += busy

    # ------------------------------------------------------------------
    def summarise(self, reps: Sequence[Rep]) -> Dict[str, float]:
        quiet = pmedian(reps)
        return {
            "work_per_s": reps[0].info["cycles"] / quiet,
            "request_ms": 1000.0 * quiet,
        }

    # ------------------------------------------------------------------
    def layers(self, trace: Trace, plain: Rep, traced: Rep, checks: List[bool]) -> Dict[str, float]:
        cfg, net = self.cfg, self.net
        result = plain.info["result"]
        wall = sum(traced.clock.raw)  # the stage proxies time in measured seconds
        out: Dict[str, float] = {}

        # sim: stage breakdown of the traced rep; step_other is the
        # slices' self time (slice minus the four stage spans)
        stages = traced.info["stages"]
        for name, (busy, calls, progress) in stages.items():
            out[f"sim.{name}.busy_s"] = busy
            out[f"sim.{name}.share"] = busy / wall
            if name in ("allocation", "transfer"):
                out[f"sim.{name}.progress_frac"] = progress / calls
        slice_ids = [s["id"] for s in trace.spans if s["name"] == "slice"]
        out["sim.step_other.share"] = sum(trace.self_time(i) for i in slice_ids) / wall
        out["sim.generated"] = result.generated
        out["sim.injected"] = result.injected
        out["sim.delivered"] = result.delivered
        out["sim.avg_latency_cycles"] = result.avg_latency
        out["sim.bisection_util"] = result.bisection_utilization
        out["sim.paper_peak_util_abs_err"] = abs(
            result.bisection_utilization - PAPER_PEAK_UTILIZATION[("torus", cfg.fault_percent)]
        )
        out["router.flits_moved"] = plain.info["flits_moved"]
        out["sim.us_per_flit_moved"] = 1e6 * sum(plain.slices) / plain.info["flits_moved"]

        # one short rep per explicit core; all must agree bit for bit
        short = replace(cfg, measure_cycles=CORE_REP_MEASURE_CYCLES)
        core_digests = []
        for core in ("active", "vector", "legacy"):
            if core == "vector" and not HAVE_NUMPY:
                continue
            with trace.span(f"sim.core_{core}"):
                rep = self.rep(cfg=short, core=core, sliced=False)
            out[f"sim.core_{core}.cycles_per_s"] = rep.info["cycles"] / rep.slices[0]
            core_digests.append(rep.digest)
        checks.append(len(set(core_digests)) == 1)

        # the static layers, by direct calls on this workload's inputs
        topology = net.topology
        out["topology.make_network_ms"] = 1000.0 * trace.sample(
            "topology.make_network", lambda: make_network("torus", cfg.radix, cfg.dims), 5
        )

        def generate():
            if cfg.fault_percent == 0:
                return validate_fault_pattern(topology, FaultSet())
            return paper_fault_scenario(topology, cfg.fault_percent, random.Random(cfg.fault_seed))

        out["faults.generate_pattern_ms"] = 1000.0 * trace.sample("faults.generate_pattern", generate, 3)
        scenario = net.scenario
        out["faults.rings_ms_per_pattern"] = 1000.0 * trace.sample(
            "faults.rings", lambda: FaultRingIndex(topology, scenario.ring_index.regions), 5
        )
        out["core.build_routing_ms"] = 1000.0 * trace.sample(
            "core.build_routing",
            lambda: build_routing(cfg.effective_routing, topology, scenario, cfg),
            3,
        )
        out["sim.network_build_s"] = trace.sample("sim.network_build", lambda: SimNetwork(cfg), 2)

        rng = random.Random(self.seed)
        pairs = [tuple(rng.sample(net.healthy, 2)) for _ in range(ROUTE_PAIRS)]
        route_path = net.routing.route_path
        with trace.span("core.route_path", calls=ROUTE_PAIRS) as span_id:
            paths = [route_path(src, dst) for src, dst in pairs]
        hops = sum(len(path) - 1 for path in paths)
        out["core.route_path_hops"] = hops
        out["core.route_path_us_per_hop"] = 1e6 * trace.seconds(span_id) / hops
        out["core.misrouted_frac"] = sum(
            len(path) - 1 > topology.distance(src, dst) for path, (src, dst) in zip(paths, pairs)
        ) / len(pairs)
        return out
