"""Cross-engine parity: the work-list core must be bit-for-bit
result-identical to the legacy full-scan oracle.

The work-list core (``core="active"``, the default) services only the
sources, modules and channels with pending work; the oracle
(``core="legacy"``) scans everything every cycle.  ``"vector"`` and
``"adaptive"`` are older names of the work-list core and keep their own
columns here.  Everything observable — every counter, every batch
statistic, every latency sample — must match exactly; any drift means
bookkeeping skipped or reordered work.  See docs/architecture.md
("Determinism and the engine-parity guarantee" and "SoA state
layout").
"""

import random

import pytest

from repro.canonical import canonical_digest, to_data
from repro.router.channels import ChannelKind, PhysicalChannel
from repro.sim import SimulationConfig, Simulator
from repro.sim.soa import BIG, KIND_CONSUMPTION, SoAState

from .channel_helpers import fed_vc, linked_vc, transfer_stage, worm

# every spelling of the work-list core, compared against "legacy" as the
# baseline
ALT_CORES = ["active", "vector", "adaptive"]

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
    # near idle: 27-94 busy channels, the work-lists stay short
    "crossing": dict(topology="torus", radix=8, dims=2, rate=0.005,
                     warmup_cycles=300, measure_cycles=1500, seed=3),
}


# Absolute pins on the oracle's own output.  Cross-core parity cannot see
# a change in code both cores share (the allocation and transfer loops
# serve the oracle too), so the legacy results those tests compute anyway
# are also held to the digests below:
# ``canonical_digest(result.to_dict())[:16]``.  A change that moves one of
# them changes simulation results.
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
        # pin the ambient default against a REPRO_SIM_CORE in the caller's
        # environment
        monkeypatch.delenv("REPRO_SIM_CORE", raising=False)
        config = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.01)
        assert Simulator(config).core == "active"
        assert Simulator(config, core="legacy").core == "legacy"
        # the older names are the work-list core
        for core in ("active", "vector", "adaptive"):
            assert Simulator(config, core=core).core == "active"
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

    @pytest.mark.parametrize("core", ["legacy", "vector"])
    def test_env_var_selects_core(self, monkeypatch, core):
        config = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.01)
        monkeypatch.setenv("REPRO_SIM_CORE", core)
        assert Simulator(config).core == ("legacy" if core == "legacy" else "active")


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
        # window: no memo and no parking while it is open, both back
        # afterwards with no drift
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
        for core in ALT_CORES:
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
    # the second header waits for a route in (1,0)'s injection VC: it
    # is on the injection module's waiting list until it is granted
    store = sim.net.store
    injection = sim.net.nodes[(1, 0)].injection_channel
    waiting = sim.net.feeds[injection.index].waiting

    def header_waits():
        busy = store.busy_vids(injection.index)
        return bool(busy) and busy[0] in waiting

    while not header_waits():
        sim.step()
    while header_waits():
        sim.step()
    assert store.msg[store.busy_vids(injection.index)[0]] is second
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
    return the module and the indices of the channels it waits on."""
    allocation = sim.allocation
    module = sim.net.feeds[sim.net.nodes[(1, 0)].injection_channel.index]
    # (it parks on a timer first, until the header becomes eligible)
    while not any(module in woken for woken in allocation._subs.values()):
        sim.step()
        assert sim.now < granted_at
    assert module in allocation._parked
    return module, [ci for ci, woken in allocation._subs.items() if module in woken]


def release_wakes(sim, module, blocked_on, first):
    """Step until the first worm lets go of the blocked channel: the
    module stays parked until then and is awake the cycle it happens."""
    parked = sim.allocation._parked
    store = sim.net.store

    def held():
        return any(store.msg[vid] is first for ci in blocked_on for vid in store.busy_vids(ci))

    while held():
        assert module in parked
        sim.step()
    assert module not in parked


class TestParking:
    """Resolution memo and module parking run on every core but the
    oracle."""

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


def parked_channels(sim):
    """Indices of the busy channels off the transfer work-list."""
    store, listed = sim.net.store, sim.transfer._listed
    return [
        ch.index for ch in sim.net.channels if store.busy_count[ch.index] and not listed[ch.index]
    ]


def assert_cannot_move(store, ci):
    """Every busy VC of channel ``ci`` is draining or full."""
    for vid in store.busy_vids(ci):
        got = store.received[vid]
        draining = got >= store.msg_len[vid]
        full = (
            store.kind_code[ci] != KIND_CONSUMPTION
            and got - store.sent[vid] >= store.depth[ci]
        )
        assert draining or full, (ci, vid, got, store.sent[vid], store.msg_len[vid])


# Two 32-flit worms converge on (3,0)'s consumption channel, so the
# channels feeding it fill up and park, and each pop the consumption
# channel makes wakes one of them; those come after it in index order,
# so the woken channel is served in the same cycle.  A third worm's
# header blocks at (1,0) behind the first; its injection channel parks
# full, and the pop that lets it move again comes from a channel after
# it, so it is served the next cycle.
def converging_worms(core):
    sim = Simulator(SimulationConfig(**PARKING_CONFIG), core=core)
    worms = [sim.inject_message((0, 0), (3, 0)), sim.inject_message((3, 2), (3, 0))]
    for _ in range(12):
        sim.step()
    worms.append(sim.inject_message((1, 0), (3, 0)))
    return sim, worms


class TestTransferParking:
    """A busy channel that cannot move a flit leaves the transfer
    work-list until a pop or an allocation wakes it, on every core but
    the oracle."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_parked_channels_hold_only_draining_or_full_vcs(self, name):
        kwargs = dict(GOLDEN_CONFIGS[name], warmup_cycles=100, measure_cycles=300)
        sim = Simulator(SimulationConfig(**kwargs), core="active")
        seen = []

        def check(now):
            parked = parked_channels(sim)
            for ci in parked:
                assert_cannot_move(sim.net.store, ci)
            seen.extend(parked)

        sim.cycle_hooks.append(check)
        sim.run()
        assert seen

    def test_the_oracle_never_parks(self):
        kwargs = dict(GOLDEN_CONFIGS["saturated"], warmup_cycles=100, measure_cycles=300)
        sim = Simulator(SimulationConfig(**kwargs), core="legacy")
        transfer = sim.transfer
        live = [ch.index for ch in sim.net.channels]

        def check(now):
            assert transfer._active == live
            assert not any(transfer._listed)

        sim.cycle_hooks.append(check)
        sim.run()
        assert any(sim.net.store.busy_count)

    def test_a_runtime_fault_resyncs_parked_channels(self):
        # the reconfiguration kills worms wholesale and rebuilds the
        # work-list; parity with the oracle is TestRuntimeFaultParity's
        kwargs = dict(topology="torus", radix=8, dims=2, rate=0.02,
                      warmup_cycles=100, measure_cycles=400, seed=21)
        sim = Simulator(SimulationConfig(**kwargs), core="active")
        parked_at_fault = []

        def check(now):
            if now == 250:
                parked_at_fault.extend(parked_channels(sim))
                sim.inject_runtime_fault(nodes=[(5, 5)])
                assert parked_channels(sim) == []
            for ci in parked_channels(sim):
                assert_cannot_move(sim.net.store, ci)

        sim.cycle_hooks.append(check)
        sim.run()
        assert parked_at_fault and sim.fault_events == 1

    def test_a_pop_wakes_a_parked_channel_where_the_full_scan_serves_it(self):
        oracle_sim, oracle_worms = converging_worms("legacy")
        while oracle_sim.in_flight:
            oracle_sim.step()
        sim, worms = converging_worms("active")
        store, listed = sim.net.store, sim.transfer._listed
        same, late = [], []
        # channel -> (busy vids, transfers) when parked at a cycle's start
        parked, woken = {}, {}

        def watch(now):
            # a channel parked at the last cycle's start whose VCs did not
            # change (no allocation, no release) was woken by a pop
            for ci, (vids, moved) in parked.items():
                if store.busy_vids(ci) != vids:
                    continue
                if store.transfers[ci] != moved:
                    same.append(ci)
                elif listed[ci]:
                    woken[ci] = (vids, moved, now)
            for ci, (vids, moved, at) in list(woken.items()):
                if at < now:
                    del woken[ci]
                    if store.busy_vids(ci) == vids and store.transfers[ci] != moved:
                        late.append(ci)
            parked.clear()
            for ci in parked_channels(sim):
                parked[ci] = (store.busy_vids(ci), store.transfers[ci])

        sim.cycle_hooks.append(watch)
        while sim.in_flight:
            sim.step()
        # woken by a pop from a channel before it: served that cycle
        assert same
        # woken by a pop from a channel after it: served the next cycle
        assert late
        consumed = [worm.consumed_cycle for worm in worms]
        assert consumed == [worm.consumed_cycle for worm in oracle_worms]
        assert sim.now == oracle_sim.now


def assert_rings_follow_the_counters(store):
    """Every busy VC buffers ``received - sent`` flits, at most
    ``depth``, and caches its ring head, slot ``sent % depth``."""
    for ci in range(len(store.busy_count)):
        depth = store.depth[ci]
        for vid in store.busy_vids(ci):
            got, gone = store.received[vid], store.sent[vid]
            assert 0 <= got - gone <= depth, (ci, vid, got, gone)
            head = store.elig[store.ring_base[vid] + gone % depth] if got - gone else BIG
            assert store.head_time[vid] == head, (ci, vid, got, gone)


class TestTransferRing:
    """The eligibility ring is indexed by the flit counters, and a
    channel with one busy VC skips the round robin."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
    def test_every_ring_follows_its_flit_counters(self, name):
        kwargs = dict(GOLDEN_CONFIGS[name], warmup_cycles=100, measure_cycles=300)
        sim = Simulator(SimulationConfig(**kwargs))
        buffered = []

        def check(now):
            store = sim.net.store
            assert_rings_follow_the_counters(store)
            buffered.append(sum(got > gone for got, gone in zip(store.received, store.sent)))

        sim.cycle_hooks.append(check)
        sim.run()
        assert_rings_follow_the_counters(sim.net.store)
        assert max(buffered) > 0

    def test_a_lone_worm_moves_and_resets_the_round_robin(self):
        st = SoAState()
        feed = PhysicalChannel(ChannelKind.INJECTION, 4, buffer_depth=4, store=st)
        sink = PhysicalChannel(ChannelKind.CONSUMPTION, 4, buffer_depth=4, store=st)
        short, long = fed_vc(feed, 0, worm(1)), fed_vc(feed, 1, worm(3))
        first, second = linked_vc(sink, 0, short), linked_vc(sink, 1, long)
        stage = transfer_stage(feed, sink)
        for now in range(4):
            stage.run(now)
        # cycle 3: the short worm's header (eligible at 0 + 3) is
        # delivered whole, and the sink's round robin points past it
        assert st.msg[first] is None and st.busy_vids(sink.index) == [second]
        assert st.rr[sink.index] == 1 and st.received[second] == 0
        stage.run(4)
        # the survivor, alone on the channel, moves at once (its header
        # was eligible at 1 + 3) and the round robin restarts at slot 0
        assert st.received[second] == 1
        assert st.rr[sink.index] == 0


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
