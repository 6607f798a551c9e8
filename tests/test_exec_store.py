"""Tests for config canonicalization, content hashing, and the on-disk
result store (repro.exec.store) — including the crash-safety layer: the
write-ahead journal and stale-temp garbage collection on open."""

import dataclasses
import json
import os
import subprocess
import sys
import time

import pytest

from repro.exec.store import CODE_VERSION, ResultStore, default_store_root, pid_alive
from repro.faults import FaultSet
from repro.router import UNPIPELINED
from repro.sim import SimulationConfig, Simulator
from repro.topology import Torus


def config(**kwargs):
    defaults = dict(
        topology="torus",
        radix=6,
        dims=2,
        rate=0.01,
        warmup_cycles=100,
        measure_cycles=400,
        seed=9,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


class TestCanonicalForm:
    def test_round_trip(self):
        original = config(timing=UNPIPELINED, fault_percent=1, fault_seed=3)
        rebuilt = SimulationConfig.from_canonical(original.to_canonical())
        assert rebuilt == original

    def test_round_trip_with_explicit_faults(self):
        torus = Torus(6, 2)
        faults = FaultSet.of(torus, nodes=[(2, 2)], links=[((0, 0), 0, 1)])
        original = config(faults=faults)
        rebuilt = SimulationConfig.from_canonical(original.to_canonical())
        assert rebuilt.content_hash() == original.content_hash()

    def test_canonical_is_json_serializable(self):
        torus = Torus(6, 2)
        canonical = config(faults=FaultSet.of(torus, nodes=[(1, 1)])).to_canonical()
        json.dumps(canonical)  # must not raise

    def test_covers_every_field(self):
        """New config fields automatically enter the canonical form (and
        therefore the hash) — a stale cache hit is structurally
        impossible."""
        canonical = config().to_canonical()
        for spec in dataclasses.fields(SimulationConfig):
            assert spec.name in canonical


class TestContentHash:
    def test_deterministic_across_instances(self):
        assert config().content_hash() == config().content_hash()

    def test_every_field_change_invalidates(self):
        base = config()
        base_hash = base.content_hash()
        variants = dict(
            topology="mesh",
            radix=8,
            dims=3,
            rate=0.02,
            message_length=4,
            warmup_cycles=101,
            measure_cycles=401,
            seed=10,
            fault_percent=1,
            fault_seed=2,
            traffic="transpose",
            timing=UNPIPELINED,
            router_model="crossbar",
            share_idle_vcs=False,
            collect_latencies=True,
        )
        for name, value in variants.items():
            changed = dataclasses.replace(base, **{name: value})
            assert changed.content_hash() != base_hash, name

    def test_version_tag_invalidates(self):
        assert config().content_hash("sim-v1") != config().content_hash("sim-v2")

    def test_network_signature_ignores_load_fields(self):
        """Configs differing only in traffic/measurement fields may share
        a network; topology-affecting fields may not."""
        base = config()
        assert base.network_signature() == config(
            rate=0.05, seed=77, measure_cycles=900, traffic="hotspot"
        ).network_signature()
        assert base.network_signature() != config(fault_percent=1).network_signature()
        assert base.network_signature() != config(radix=8).network_signature()


class TestResultStore:
    @pytest.fixture()
    def store(self, tmp_path):
        return ResultStore(tmp_path / "results")

    @pytest.fixture(scope="class")
    def result(self):
        return Simulator(config()).run()

    def test_miss_then_hit(self, store, result):
        cfg = config()
        assert cfg not in store
        assert store.load(cfg) is None
        store.store(cfg, result)
        assert cfg in store
        assert store.load(cfg) == result

    def test_distinct_configs_distinct_entries(self, store, result):
        store.store(config(), result)
        store.store(config(rate=0.02), result)
        assert len(store) == 2
        assert config(rate=0.02) in store and config(rate=0.03) not in store

    def test_version_tag_scopes_entries(self, tmp_path, result):
        old = ResultStore(tmp_path, version=CODE_VERSION)
        new = ResultStore(tmp_path, version=CODE_VERSION + ".post")
        old.store(config(), result)
        assert config() in old
        assert config() not in new  # same directory, different code version

    def test_corrupt_entry_reads_as_miss(self, store, result):
        cfg = config()
        path = store.store(cfg, result)
        path.write_text("{ torn json", encoding="utf-8")
        assert store.load(cfg) is None

    def test_clear(self, store, result):
        store.store(config(), result)
        store.store(config(rate=0.02), result)
        assert store.clear() == 2
        assert len(store) == 0
        assert store.clear() == 0  # idempotent on an empty store

    def test_default_root_honors_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env-store"))
        assert default_store_root() == tmp_path / "env-store"
        assert ResultStore().root == tmp_path / "env-store"


@pytest.fixture(scope="module")
def result():
    return Simulator(config()).run()


def dead_pid():
    """A pid that provably names no live process: a child we already
    reaped."""
    proc = subprocess.run(
        [sys.executable, "-c", "import os; print(os.getpid())"],
        capture_output=True,
        text=True,
        check=True,
    )
    return int(proc.stdout.strip())


def plant_temp(store, name="leftover.tmp", age=0.0):
    shard = store.root / "ab"
    shard.mkdir(parents=True, exist_ok=True)
    tmp = shard / name
    tmp.write_text("half a result", encoding="utf-8")
    if age:
        past = time.time() - age
        os.utime(tmp, (past, past))
    return tmp


def plant_begin(store, tmp, pid):
    """A journaled *begin* with no *commit* — an in-flight write."""
    record = {
        "op": "begin",
        "key": "k" * 64,
        "pid": pid,
        "time": time.time(),
        "tmp": os.path.relpath(tmp, store.root),
    }
    store.root.mkdir(parents=True, exist_ok=True)
    with open(store.journal_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


class TestCrashSafety:
    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(dead_pid())
        assert not pid_alive(-1) and not pid_alive(0)

    def test_store_brackets_writes_in_the_journal(self, tmp_path, result):
        store = ResultStore(tmp_path / "results")
        store.store(config(), result)
        ops = [r["op"] for r in store.journal_entries()]
        assert ops == ["begin", "commit"]
        begin, commit = store.journal_entries()
        assert begin["pid"] == commit["pid"] == os.getpid()
        assert begin["key"] == commit["key"] == store.key(config())
        assert begin["tmp"] == commit["tmp"]
        assert store.pending_writes() == []  # committed: nothing in flight
        assert store.temp_files() == []

    def test_torn_journal_tail_is_skipped(self, tmp_path, result):
        store = ResultStore(tmp_path / "results")
        store.store(config(), result)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "beg')
        assert [r["op"] for r in store.journal_entries()] == ["begin", "commit"]

    def test_append_heals_a_tail_torn_at_any_byte(self, tmp_path, result):
        """A writer killed mid-line leaves a fragment with no newline;
        the next append must start a line of its own, or the fragment
        swallows the next *begin* and its *commit* dangles."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        store.store(config(), result)
        intact = store.journal_path.read_bytes()
        plant_begin(store, store.root / "aa" / "x.tmp", dead_pid())
        whole = store.journal_path.read_bytes()
        fresh = config(seed=10)
        # every cut that leaves a partial last record, down to one byte
        for cut in range(len(intact) + 1, len(whole) - 1):
            store.journal_path.write_bytes(whole[:cut])
            store.store(fresh, result)
            entries = store.journal_entries()
            assert [r["op"] for r in entries] == ["begin", "commit"] * 2, cut
            assert entries[2]["key"] == entries[3]["key"] == store.key(fresh)
            assert entries[2]["tmp"] == entries[3]["tmp"]
            assert store.pending_writes() == [], cut
        # cut between the record and its newline: the line is whole, and
        # healing must keep it so (a dead writer's begin, still pending)
        store.journal_path.write_bytes(whole[:-1])
        store.store(fresh, result)
        assert [r["op"] for r in store.journal_entries()] == [
            "begin", "commit", "begin", "begin", "commit"
        ]
        assert [r["key"] for r in store.pending_writes()] == ["k" * 64]

    def test_dead_writers_temp_collected_on_open(self, tmp_path):
        """The self-healing pass: a SIGKILLed writer's journaled temp is
        removed the next time anything opens the store."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        tmp = plant_temp(store)
        plant_begin(store, tmp, dead_pid())
        reopened = ResultStore(store.root)  # clean_on_open=True (default)
        assert not tmp.exists()
        assert reopened.journal_path.read_text(encoding="utf-8") == ""

    def test_live_writers_temp_preserved(self, tmp_path):
        """A temp owned by a journaled *live* pid is a write in progress
        — never touched, and the journal keeps its evidence."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        tmp = plant_temp(store, age=7200.0)  # old, but the writer lives
        plant_begin(store, tmp, os.getpid())
        ResultStore(store.root)
        assert tmp.exists()
        assert store.pending_writes()  # journal not truncated either

    def test_unjournaled_temp_aged_out(self, tmp_path):
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        old = plant_temp(store, "old.tmp", age=7200.0)
        fresh = plant_temp(store, "fresh.tmp")
        ResultStore(store.root)  # default ttl: one hour
        assert not old.exists()
        assert fresh.exists()  # maybe someone is mid-write: keep it

    def test_clean_stale_returns_count_and_honors_ttl(self, tmp_path):
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        plant_temp(store, "a.tmp", age=50.0)
        plant_temp(store, "b.tmp", age=50.0)
        assert store.clean_stale(ttl=3600.0) == 0
        assert store.clean_stale(ttl=10.0) == 2
        assert store.temp_files() == []

    def test_interrupted_write_leaves_old_entry_intact(
        self, tmp_path, result, monkeypatch
    ):
        """Crash-consistency: a failure after *begin* (mid temp write)
        never tears the existing entry, and the journal records the
        in-flight write."""
        store = ResultStore(tmp_path / "results")
        path = store.store(config(), result)
        before = path.read_text(encoding="utf-8")

        def dies(*args, **kwargs):
            raise RuntimeError("writer dies here")

        monkeypatch.setattr(json, "dump", dies)
        with pytest.raises(RuntimeError, match="writer dies"):
            store.store(config(), result)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert store.load(config()) == result
        (pending,) = store.pending_writes()  # begin with no commit
        assert pending["pid"] == os.getpid()

    def test_unjournalable_begin_leaks_neither_descriptor_nor_temp(
        self, tmp_path, result
    ):
        """The *begin* record is written inside the block that closes
        the temp file's descriptor and unlinks it: a journal that cannot
        be appended to (ENOSPC, read-only root — here: a directory in
        its place) must not leave an open fd and an unattributable temp
        behind on every attempt."""
        store = ResultStore(tmp_path / "results")
        store.journal_path.mkdir(parents=True)
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(OSError):
                store.store(config(), result)
        assert store.temp_files() == []
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert config() not in store
