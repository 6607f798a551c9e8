"""Cross-engine parity: the adaptive core and its two pinned spellings
must be bit-for-bit result-identical to the legacy full-scan oracle.

The adaptive core chooses per cycle between the scalar work-list service
(``core="active"`` pins it) and the batched array evaluation over the
struct-of-arrays state (``core="vector"`` pins that).  Most configs here
are too small to reach the cutoff on their own, so the pinned columns
are what drives each branch everywhere; the ``adaptive`` column and
``TestAdaptiveSwitching`` cover the switches between them.  Everything
observable — every counter, every batch statistic, every latency sample
— must match exactly; any drift means bookkeeping skipped or reordered
work.  See docs/architecture.md ("Determinism and the engine-parity
guarantee", "Choosing the branch" and "SoA state layout").
"""

import random

import pytest

from repro.sim import SimulationConfig, Simulator

try:
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised in the numpy-free CI job
    HAVE_NUMPY = False

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="the batched branch needs numpy")

# every non-reference core, compared against "legacy" as the baseline
# (without numpy "adaptive" *is* "active", so that column is skipped too)
ALT_CORES = [
    "active",
    pytest.param("vector", marks=needs_numpy),
    pytest.param("adaptive", marks=needs_numpy),
]

# The fixed-seed configurations the integration suite measures the
# paper's claims on (tests/test_integration.py), plus the corner cases
# that stress each scheduler path: crossbars (interchip-free), meshes
# (2 VCs), 3D, saturation (deep work-lists), hotspot + collected
# latencies, protocol banks with replies, table routing, uneven batches.
GOLDEN_CONFIGS = {
    "int-f0": dict(topology="torus", radix=8, dims=2, rate=0.015,
                   warmup_cycles=400, measure_cycles=2000, seed=3, fault_percent=0),
    "int-f1": dict(topology="torus", radix=8, dims=2, rate=0.015,
                   warmup_cycles=400, measure_cycles=2000, seed=3, fault_percent=1),
    "int-f5": dict(topology="torus", radix=8, dims=2, rate=0.015,
                   warmup_cycles=400, measure_cycles=2000, seed=3, fault_percent=5),
    "crossbar": dict(topology="torus", radix=8, dims=2, rate=0.015,
                     warmup_cycles=300, measure_cycles=1200, seed=3,
                     fault_percent=1, router_model="crossbar"),
    "mesh-f5": dict(topology="mesh", radix=8, dims=2, rate=0.012,
                    warmup_cycles=300, measure_cycles=1200, seed=11, fault_percent=5),
    "saturated": dict(topology="torus", radix=8, dims=2, rate=0.05,
                      warmup_cycles=300, measure_cycles=900, seed=5),
    "hotspot-latencies": dict(topology="torus", radix=8, dims=2, rate=0.008,
                              traffic="hotspot", collect_latencies=True,
                              warmup_cycles=300, measure_cycles=1200, seed=9),
    "3d": dict(topology="torus", radix=4, dims=3, rate=0.01,
               warmup_cycles=200, measure_cycles=1000, seed=2),
    "reqrep": dict(topology="torus", radix=6, dims=2, rate=0.008, protocol_classes=2,
                   request_reply=True, warmup_cycles=300, measure_cycles=1000, seed=4),
    "table": dict(topology="torus", radix=8, dims=2, rate=0.01, routing_algorithm="table",
                  warmup_cycles=300, measure_cycles=1000, seed=6, fault_percent=1),
    "ecube": dict(topology="torus", radix=8, dims=2, rate=0.012, fault_tolerant=False, routing_algorithm="ecube",
                  warmup_cycles=200, measure_cycles=1000, seed=8),
    "fashion": dict(topology="torus", radix=8, dims=2, rate=0.01, routing_algorithm="fashion",
                    warmup_cycles=300, measure_cycles=1000, seed=6, fault_percent=1),
    # 5% faults skew healthy degrees, so these also pin the up*/down*
    # root selection (max healthy degree, then centrality, then id)
    "fashion-f5": dict(topology="torus", radix=8, dims=2, rate=0.01, routing_algorithm="fashion",
                       warmup_cycles=300, measure_cycles=1000, seed=12, fault_percent=5),
    "adaptive-mesh": dict(topology="mesh", radix=8, dims=2, rate=0.01, routing_algorithm="adaptive",
                          warmup_cycles=300, measure_cycles=1000, seed=7, fault_percent=1),
    "adaptive-f5": dict(topology="mesh", radix=8, dims=2, rate=0.01, routing_algorithm="adaptive",
                        warmup_cycles=300, measure_cycles=1000, seed=12, fault_percent=5),
    "avoid": dict(topology="torus", radix=8, dims=2, rate=0.012, routing_algorithm="avoid",
                  warmup_cycles=200, measure_cycles=1000, seed=9),
    "uneven-batches": dict(topology="torus", radix=8, dims=2, rate=0.015,
                           warmup_cycles=200, measure_cycles=1005, batches=10, seed=13),
    "sharing-all": dict(topology="torus", radix=8, dims=2, rate=0.012,
                        vc_sharing_mode="all", warmup_cycles=200, measure_cycles=1000,
                        seed=10, fault_percent=1),
    # sits astride the adaptive cutoff: 34-90 busy channels, so the
    # default core keeps switching branches (TestAdaptiveSwitching)
    "crossing": dict(topology="torus", radix=8, dims=2, rate=0.005,
                     warmup_cycles=300, measure_cycles=1500, seed=3),
}


def run_core(core, kwargs, *, drain=False, fault=None):
    config = SimulationConfig(**kwargs)
    sim = Simulator(config, core=core)
    if fault is not None:
        at_cycle, spec = fault

        def bomb(now, sim=sim):
            if now == at_cycle:
                sim.inject_runtime_fault(**spec)

        sim.cycle_hooks.append(bomb)
    result = sim.run()
    if drain:
        sim.drain()
    return sim, result


def assert_results_identical(a, b):
    da, db = a.to_dict(), b.to_dict()
    assert da.keys() == db.keys()
    diffs = {k: (da[k], db[k]) for k in da if da[k] != db[k]}
    assert not diffs, f"cores disagree on: {diffs}"


class TestGoldenParity:
    @pytest.mark.parametrize("core", ALT_CORES)
    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_cores_agree(self, name, core):
        _, legacy = run_core("legacy", GOLDEN_CONFIGS[name])
        _, other = run_core(core, GOLDEN_CONFIGS[name])
        assert_results_identical(legacy, other)

    @pytest.mark.parametrize("core", ALT_CORES)
    def test_drain_parity(self, core):
        kwargs = GOLDEN_CONFIGS["int-f1"]
        legacy_sim, legacy = run_core("legacy", kwargs, drain=True)
        other_sim, other = run_core(core, kwargs, drain=True)
        assert_results_identical(legacy, other)
        assert legacy_sim.in_flight == other_sim.in_flight == 0
        # identical quiescence time: the drained clocks must agree too
        assert legacy_sim.now == other_sim.now
        assert legacy_sim._msg_counter == other_sim._msg_counter

    def test_core_selection_surface(self, monkeypatch):
        # pin the ambient default: CI runs this suite under
        # REPRO_SIM_CORE=vector as well
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        config = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.01)
        assert Simulator(config).core == ("adaptive" if HAVE_NUMPY else "active")
        assert Simulator(config, core="legacy").core == "legacy"
        assert Simulator(config, core="active").core == "active"
        if HAVE_NUMPY:
            assert Simulator(config, core="vector").core == "vector"
        with pytest.raises(ValueError):
            Simulator(config, core="warp")

    def test_default_without_numpy_is_the_scalar_branch(self, monkeypatch):
        import sys

        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        monkeypatch.setitem(sys.modules, "numpy", None)  # ``import numpy`` now fails
        from repro.sim.stages import AllocationStage, TransferStage

        config = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.01)
        for core in (None, "adaptive"):
            sim = Simulator(config, core=core)
            assert sim.core == "active"
            assert type(sim.transfer) is TransferStage
            assert type(sim.allocation) is AllocationStage

    @pytest.mark.parametrize(
        "core", ["legacy", pytest.param("vector", marks=needs_numpy)]
    )
    def test_env_var_selects_core(self, monkeypatch, core):
        config = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.01)
        monkeypatch.setenv("REPRO_SIM_CORE", core)
        assert Simulator(config).core == core

    def test_vector_without_numpy_names_the_extra(self, monkeypatch):
        import builtins
        import sys

        config = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.01)
        real_import = builtins.__import__

        def no_numpy(name, *args, **kwargs):
            if name == "numpy" or name.startswith("numpy."):
                raise ImportError("No module named 'numpy'")
            return real_import(name, *args, **kwargs)

        monkeypatch.delitem(sys.modules, "numpy", raising=False)
        monkeypatch.setattr(builtins, "__import__", no_numpy)
        with pytest.raises(ImportError, match=r"repro\[fast\]"):
            Simulator(config, core="vector")


class TestRuntimeFaultParity:
    """Mid-run reconfiguration exercises the hard parts of the active
    core: the sampler must rewind when the healthy population shrinks and
    the transfer work-list must resync after channels are unwired."""

    FAULT = (900, dict(nodes=[(5, 5)]))

    @pytest.mark.parametrize("core", ALT_CORES)
    def test_mid_run_fault_parity(self, core):
        kwargs = dict(topology="torus", radix=8, dims=2, rate=0.012,
                      warmup_cycles=300, measure_cycles=1200, seed=21)
        legacy_sim, legacy = run_core("legacy", kwargs, drain=True, fault=self.FAULT)
        other_sim, other = run_core(core, kwargs, drain=True, fault=self.FAULT)
        assert legacy.fault_events == other.fault_events == 1
        assert_results_identical(legacy, other)
        assert legacy_sim.now == other_sim.now

    @pytest.mark.parametrize("core", ALT_CORES)
    def test_fault_on_faulty_network_parity(self, core):
        from repro.topology import Direction

        kwargs = dict(topology="torus", radix=8, dims=2, rate=0.01, fault_percent=1,
                      warmup_cycles=300, measure_cycles=1200, seed=17)
        fault = (800, dict(links=[((1, 1), 0, Direction.POS)]))
        _, legacy = run_core("legacy", kwargs, drain=True, fault=fault)
        _, other = run_core(core, kwargs, drain=True, fault=fault)
        assert_results_identical(legacy, other)

    @pytest.mark.parametrize("core", ALT_CORES)
    def test_staged_reconfiguration_window_parity(self, core):
        # detection_latency > 0 stages the fault through a transition
        # window; the vector core must delegate those cycles to the
        # scalar stages and resume batching afterwards with no drift
        kwargs = dict(topology="torus", radix=8, dims=2, rate=0.012,
                      warmup_cycles=300, measure_cycles=1200, seed=21,
                      detection_latency=2)
        legacy_sim, legacy = run_core("legacy", kwargs, drain=True, fault=self.FAULT)
        other_sim, other = run_core(core, kwargs, drain=True, fault=self.FAULT)
        assert_results_identical(legacy, other)
        assert legacy_sim.now == other_sim.now


class TestRandomizedParity:
    """Property sweep: random configurations over topology, radix,
    dimensionality, faults, load, traffic, router organization and
    protocol banks — the cores must agree on every one of them."""

    @staticmethod
    def random_config(rng):
        topology = rng.choice(["torus", "torus", "mesh"])
        dims = rng.choice([2, 2, 2, 3])
        radix = rng.choice([4, 5] if dims == 3 else [5, 6, 8])
        kwargs = dict(
            topology=topology,
            radix=radix,
            dims=dims,
            rate=round(rng.uniform(0.004, 0.03), 4),
            warmup_cycles=rng.choice([100, 200]),
            measure_cycles=rng.choice([400, 600, 700]),
            seed=rng.randrange(1, 10_000),
            traffic=rng.choice(["uniform", "uniform", "transpose", "hotspot"]),
            router_model=rng.choice(["pdr", "pdr", "crossbar"]),
            batches=rng.choice([10, 20]),
            collect_latencies=rng.random() < 0.3,
        )
        # faults need an even torus radix >= 6 for room to build f-rings
        if topology == "torus" and dims == 2 and radix in (6, 8):
            kwargs["fault_percent"] = rng.choice([0, 1, 5])
        if rng.random() < 0.25:
            kwargs["protocol_classes"] = 2
            kwargs["request_reply"] = True
        return kwargs

    @pytest.mark.parametrize("case_seed", range(8))
    def test_random_configs_agree(self, case_seed):
        kwargs = self.random_config(random.Random(20_000 + case_seed))
        _, legacy = run_core("legacy", kwargs)
        for core in ("active", "vector", "adaptive") if HAVE_NUMPY else ("active",):
            _, other = run_core(core, kwargs)
            assert_results_identical(legacy, other)


class TestTracerNeutrality:
    """The observability contract: attaching a tracer never changes
    simulation results (it observes, draws no randomness, and mutates no
    state), and both cores emit the identical event stream."""

    TRACED_CONFIGS = ["int-f5", "mesh-f5", "saturated", "reqrep", "crossing"]

    @staticmethod
    def run_traced(core, kwargs):
        from repro.obs import TraceConfig, Tracer

        config = SimulationConfig(**kwargs)
        sim = Simulator(config, core=core)
        tracer = Tracer(sim, TraceConfig(window=100))
        result = sim.run()
        return tracer, result

    @pytest.mark.parametrize("name", TRACED_CONFIGS)
    @pytest.mark.parametrize("core", ["legacy", *ALT_CORES])
    def test_traced_run_is_bit_identical_to_untraced(self, name, core):
        _, untraced = run_core(core, GOLDEN_CONFIGS[name])
        _, traced = self.run_traced(core, GOLDEN_CONFIGS[name])
        assert_results_identical(untraced, traced)

    @pytest.mark.parametrize("core", ALT_CORES)
    @pytest.mark.parametrize("name", TRACED_CONFIGS)
    def test_cores_emit_identical_event_streams(self, name, core):
        legacy_tracer, legacy = self.run_traced("legacy", GOLDEN_CONFIGS[name])
        other_tracer, other = self.run_traced(core, GOLDEN_CONFIGS[name])
        assert_results_identical(legacy, other)
        assert len(legacy_tracer.events) == len(other_tracer.events)
        assert legacy_tracer.events == other_tracer.events
        legacy_series = [s.to_dict() for s in legacy_tracer.series.samples]
        other_series = [s.to_dict() for s in other_tracer.series.samples]
        assert legacy_series == other_series


@needs_numpy
class TestAdaptiveSwitching:
    """The default core's own moves: crossing the cutoff in both
    directions, and reconfigurations landing on either branch."""

    INF = float("inf")

    def test_crosses_the_cutoff_in_both_directions(self):
        kwargs = GOLDEN_CONFIGS["crossing"]
        _, legacy = run_core("legacy", kwargs)
        sim, adaptive = run_core("adaptive", kwargs)
        assert_results_identical(legacy, adaptive)
        transfer = sim.transfer
        cycles = kwargs["warmup_cycles"] + kwargs["measure_cycles"]
        assert 0 < transfer.batched_cycles < cycles  # both branches ran
        assert transfer.switches >= 2  # up, and back down

    @pytest.mark.parametrize("detection_latency", [0, 2])
    @pytest.mark.parametrize("landing", ["batched", "scalar"])
    def test_fault_lands_on_either_branch(self, landing, detection_latency):
        # instantaneous reconfiguration (latency 0) and a transition
        # window (latency 2) opening on a cycle of the given branch; the
        # branch is pinned just long enough to make the landing certain,
        # then the cutoff is restored and the run keeps switching
        kwargs = dict(GOLDEN_CONFIGS["crossing"], seed=21, detection_latency=detection_latency)
        at_cycle, spec = TestRuntimeFaultParity.FAULT
        legacy_sim, legacy = run_core("legacy", kwargs, drain=True, fault=(at_cycle, spec))

        sim = Simulator(SimulationConfig(**kwargs), core="adaptive")
        transfer = sim.transfer
        cutoff = (transfer.enter, transfer.leave)
        landed = []

        def pin_then_bomb(now):
            if now == at_cycle - 3:
                transfer.enter = transfer.leave = 0 if landing == "batched" else self.INF
            elif now == at_cycle:
                landed.append(transfer.batching)
                transfer.enter, transfer.leave = cutoff
                sim.inject_runtime_fault(**spec)

        sim.cycle_hooks.append(pin_then_bomb)
        adaptive = sim.run()
        sim.drain()
        assert landed == [landing == "batched"]
        assert legacy.fault_events == adaptive.fault_events == 1
        assert_results_identical(legacy, adaptive)
        assert legacy_sim.now == sim.now
        assert 0 < transfer.batched_cycles < sim.now

    def test_release_on_a_scalar_cycle_reaches_a_module_parked_while_batching(self):
        # The one interaction the merge creates.  A long worm holds the
        # only admissible VC of (1,0)'s +x output; a second header
        # arrives behind it and its module parks, subscribed to that
        # channel's release.  The release then happens on a scalar
        # cycle, which has no wake hook — the module must still be
        # rescanned the very cycle the oracle grants it, and the stale
        # parked entry must not survive the switch back up.
        kwargs = dict(topology="torus", radix=8, dims=2, rate=0.0, message_length=32,
                      share_idle_vcs=False, warmup_cycles=0, measure_cycles=10)

        def start(core):
            sim = Simulator(SimulationConfig(**kwargs), core=core)
            first = sim.inject_message((0, 0), (4, 0))
            for _ in range(12):
                sim.step()
            second = sim.inject_message((1, 0), (4, 0))
            return sim, first, second

        def step_until_granted(sim, second):
            # the second header waits for a route in (1,0)'s injection VC
            injection = sim.net.nodes[(1, 0)].injection_channel
            while not (injection.busy and injection.busy[0].waiting_route):
                sim.step()
            while injection.busy[0].waiting_route:
                sim.step()
            assert injection.busy[0].message is second
            return sim.now

        legacy_sim, legacy_first, legacy_second = start("legacy")
        granted_at = step_until_granted(legacy_sim, legacy_second)
        while legacy_sim.in_flight:
            legacy_sim.step()

        sim, first, second = start("adaptive")
        transfer = sim.transfer
        transfer.enter = transfer.leave = 0  # batch from the first cycle
        sim.step()
        parked, subscribers = transfer.batched._parked, transfer.batched._subs
        module = sim.net.nodes[(1, 0)].injection_channel.dst_module
        # (it parks on a timer first, until the header becomes eligible)
        while not any(module in woken for woken in subscribers.values()):
            sim.step()
            assert sim.now < granted_at
        assert module in parked

        transfer.enter = transfer.leave = self.INF  # drop to the scalar branch
        sim.step()
        assert not transfer.batching and module in parked  # stale, never consulted
        assert step_until_granted(sim, second) == granted_at

        transfer.enter = transfer.leave = 0  # and back up: the flush
        sim.step()
        assert transfer.batching and not parked
        while sim.in_flight:
            sim.step()
        assert (first.consumed_cycle, second.consumed_cycle) == (
            legacy_first.consumed_cycle, legacy_second.consumed_cycle
        )


class TestBatchNormalization:
    """Regression for the uneven-batch throughput bias: 1005 cycles in 10
    batches gives the last batch 105 cycles; its throughput must be
    normalized by 105, not the nominal 100."""

    def test_uneven_final_batch_uses_observed_length(self):
        kwargs = GOLDEN_CONFIGS["uneven-batches"]
        sim, result = run_core("active", kwargs)
        assert result.batch_cycles == [100] * 9 + [105]
        stats = sim.stats
        for flits, cycles, normalized in zip(
            stats.batch_flits, result.batch_cycles, result.batch_flits
        ):
            assert normalized == flits / cycles

    def test_even_batches_match_nominal_division(self):
        kwargs = dict(GOLDEN_CONFIGS["uneven-batches"], measure_cycles=1000)
        sim, result = run_core("active", kwargs)
        assert result.batch_cycles == [100] * 10
        for flits, normalized in zip(sim.stats.batch_flits, result.batch_flits):
            assert normalized == flits / 100
