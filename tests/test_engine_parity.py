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

from repro.canonical import canonical_digest, to_data
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
    # 27-94 busy channels: below the default cutoff, so TestAdaptiveSwitching
    # sets one inside that range to keep the default core switching
    "crossing": dict(topology="torus", radix=8, dims=2, rate=0.005,
                     warmup_cycles=300, measure_cycles=1500, seed=3),
}


# Absolute pins on the oracle's own output.  Cross-core parity cannot see
# a change in code every core shares (the scalar allocation loop runs on
# every core, the scalar transfer loop on every run that never batches),
# so the legacy results those tests compute anyway are also held to the
# digests below: ``canonical_digest(result.to_dict())[:16]``.  A change
# that moves one of them changes simulation results.
GOLDEN_DIGESTS = {
    "3d": "54128e3503bfc92b",
    "adaptive-f5": "6d7752429ddf626a",
    "adaptive-mesh": "8f394e7c93e3258b",
    "avoid": "e395fa325c4ee0e6",
    "crossbar": "7c06bb41b2feb885",
    "crossing": "79f06acb035101dc",
    "ecube": "c1425574fe759795",
    "fashion": "9ae7f662e02e40be",
    "fashion-f5": "0adc4b60ac163e29",
    "hotspot-latencies": "a020f344f8473a0b",
    "int-f0": "8208e79e1604f38d",
    "int-f1": "b78401544119856c",
    "int-f5": "75fc6f8a028f4d06",
    "mesh-f5": "bbef2bd3edebdb51",
    "reqrep": "4af0788a89b1c97b",
    "saturated": "2aec4c5fd6a3a966",
    "sharing-all": "282d31ca43f25216",
    "table": "20b8ea65d2313678",
    "uneven-batches": "2ec36eed5581f07c",
}

# the legacy tracer's event stream, ``canonical_digest`` of the events'
# ``to_data`` list
TRACE_DIGESTS = {
    "reqrep": "836c21712d806f2b",
    "crossing": "12443af7922dde5c",
}


def result_digest(result):
    return canonical_digest(result.to_dict())[:16]


# one oracle run per (kind, config, drain, fault) for the whole pytest
# run: every alternative core is compared against the same cached legacy run
_ORACLE_RUNS = {}


def oracle(kind, kwargs, *rest, run):
    key = repr((kind, sorted(kwargs.items()), *rest))
    if key not in _ORACLE_RUNS:
        _ORACLE_RUNS[key] = run()
    return _ORACLE_RUNS[key]


def run_core(core, kwargs, *, drain=False, fault=None):
    if core == "legacy":
        return oracle("run", kwargs, drain, fault, run=lambda: _run_core(core, kwargs, drain, fault))
    return _run_core(core, kwargs, drain, fault)


def _run_core(core, kwargs, drain, fault):
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
        assert result_digest(legacy) == GOLDEN_DIGESTS[name]
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
        assert result_digest(legacy) == "f2482b7aa38015e1"
        assert legacy_sim.now == 1624
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

        def run():
            sim = Simulator(SimulationConfig(**kwargs), core=core)
            tracer = Tracer(sim, TraceConfig(window=100))
            return tracer, sim.run()

        return oracle("traced", kwargs, run=run) if core == "legacy" else run()

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
        if name in TRACE_DIGESTS:
            stream = canonical_digest([to_data(e) for e in legacy_tracer.events])
            assert stream[:16] == TRACE_DIGESTS[name]
        other_tracer, other = self.run_traced(core, GOLDEN_CONFIGS[name])
        assert_results_identical(legacy, other)
        assert len(legacy_tracer.events) == len(other_tracer.events)
        assert legacy_tracer.events == other_tracer.events
        legacy_series = [to_data(s) for s in legacy_tracer.series.samples]
        other_series = [to_data(s) for s in other_tracer.series.samples]
        assert legacy_series == other_series


# The parking scenario: a long worm holds the only admissible VC of
# (1,0)'s +x output; a second header arrives behind it and its module
# parks, subscribed to that channel's release.
PARKING_CONFIG = dict(topology="torus", radix=8, dims=2, rate=0.0, message_length=32,
                      share_idle_vcs=False, warmup_cycles=0, measure_cycles=10)


def parking_start(core):
    sim = Simulator(SimulationConfig(**PARKING_CONFIG), core=core)
    first = sim.inject_message((0, 0), (4, 0))
    for _ in range(12):
        sim.step()
    second = sim.inject_message((1, 0), (4, 0))
    return sim, first, second


def parking_grant_cycle(sim, second):
    # the second header waits for a route in (1,0)'s injection VC
    injection = sim.net.nodes[(1, 0)].injection_channel
    while not (injection.busy and injection.busy[0].waiting_route):
        sim.step()
    while injection.busy[0].waiting_route:
        sim.step()
    assert injection.busy[0].message is second
    return sim.now


def parking_oracle():
    """The legacy grant cycle and the two consumption cycles."""
    sim, first, second = parking_start("legacy")
    granted_at = parking_grant_cycle(sim, second)
    while sim.in_flight:
        sim.step()
    return granted_at, (first.consumed_cycle, second.consumed_cycle)


def park_behind_first_worm(sim, granted_at):
    """Step until (1,0)'s injection module parks on a blocked channel;
    return the module and the channels it waits on."""
    allocation = sim.allocation
    module = sim.net.nodes[(1, 0)].injection_channel.dst_module
    # (it parks on a timer first, until the header becomes eligible)
    while not any(module in woken for woken in allocation._subs.values()):
        sim.step()
        assert sim.now < granted_at
    assert module in allocation._parked
    channels = sim.net.store.channels
    return module, [channels[ci] for ci, woken in allocation._subs.items() if module in woken]


def release_wakes(sim, module, blocked_on, first):
    """Step until the first worm lets go of the blocked channel: the
    module stays parked until then and is awake the cycle it happens."""
    parked = sim.allocation._parked

    def held():
        return any(vc.message is first for channel in blocked_on for vc in channel.busy)

    while held():
        assert module in parked
        sim.step()
    assert module not in parked


@needs_numpy
class TestAdaptiveSwitching:
    """The default core's own moves: crossing the cutoff in both
    directions, and reconfigurations landing on either branch."""

    INF = float("inf")
    #: (enter, leave) inside the ``crossing`` config's busy-channel range;
    #: the default cutoff (BATCH_ENTER / BATCH_LEAVE) sits above it
    CUTOFF = (64, 48)

    def test_crosses_the_cutoff_in_both_directions(self):
        kwargs = GOLDEN_CONFIGS["crossing"]
        _, legacy = run_core("legacy", kwargs)
        sim = Simulator(SimulationConfig(**kwargs), core="adaptive")
        transfer = sim.transfer
        transfer.enter, transfer.leave = self.CUTOFF
        adaptive = sim.run()
        assert_results_identical(legacy, adaptive)
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
        transfer.enter, transfer.leave = cutoff = self.CUTOFF
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
        # A module parks on a batched cycle, subscribed to its blocked
        # output channel; the release then happens on a scalar cycle.
        # The scalar loop's wake hook must take the module off the
        # parked set that same cycle, so it grants when the oracle does.
        granted_at, oracle_consumed = parking_oracle()
        sim, first, second = parking_start("adaptive")
        transfer = sim.transfer
        transfer.enter = transfer.leave = 0  # batch from the first cycle
        module, blocked_on = park_behind_first_worm(sim, granted_at)
        assert transfer.batching

        transfer.enter = transfer.leave = self.INF  # drop to the scalar branch
        release_wakes(sim, module, blocked_on, first)
        assert not transfer.batching
        assert parking_grant_cycle(sim, second) == granted_at
        while sim.in_flight:
            sim.step()
        assert (first.consumed_cycle, second.consumed_cycle) == oracle_consumed


class TestParking:
    """Resolution memo and module parking run on every core but the
    oracle, on scalar cycles as on batched ones."""

    def test_scalar_release_wakes_a_module_parked_on_a_scalar_cycle(self):
        granted_at, oracle_consumed = parking_oracle()
        sim, first, second = parking_start("active")
        module, blocked_on = park_behind_first_worm(sim, granted_at)
        release_wakes(sim, module, blocked_on, first)
        assert parking_grant_cycle(sim, second) == granted_at
        while sim.in_flight:
            sim.step()
        assert (first.consumed_cycle, second.consumed_cycle) == oracle_consumed

    def test_the_oracle_never_parks_and_never_memoizes(self):
        kwargs = dict(GOLDEN_CONFIGS["int-f1"], warmup_cycles=100, measure_cycles=400)
        parked_cycles = {}
        for core in ("legacy", "active"):
            sim = Simulator(SimulationConfig(**kwargs), core=core)
            allocation = sim.allocation

            def count(now, allocation=allocation, core=core):
                parked_cycles[core] = parked_cycles.get(core, 0) + bool(allocation._parked)

            sim.cycle_hooks.append(count)
            sim.run()
            if core == "legacy":
                assert sim.net.resolution_memo == (None, None, None)
                assert not (allocation._parked or allocation._subs or allocation._timers)
            else:
                routing, _sharing, table = sim.net.resolution_memo
                assert routing is sim.net.routing and table
        assert parked_cycles["legacy"] == 0
        assert parked_cycles["active"] > 0


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
