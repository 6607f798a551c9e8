"""Tests for config canonicalization, content hashing, and the on-disk
result store (repro.exec.store) — including the crash-safety layer:
temp files named for their writer, and stale-temp garbage collection on
open."""

import dataclasses
import io
import json
import os
import subprocess
import sys
import time

import pytest

from repro.canonical import from_data, to_data
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
        rebuilt = from_data(SimulationConfig, to_data(original))
        assert rebuilt == original

    def test_round_trip_with_explicit_faults(self):
        torus = Torus(6, 2)
        faults = FaultSet.of(torus, nodes=[(2, 2)], links=[((0, 0), 0, 1)])
        original = config(faults=faults)
        rebuilt = from_data(SimulationConfig, to_data(original))
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

    def test_entry_bytes_are_what_json_dump_wrote(self, store, result):
        """An entry is encoded in one ``json.dumps`` call; its bytes are
        the ones the streaming ``json.dump`` wrote before, so a store
        written by either reads the same."""
        small = dict(radix=4, warmup_cycles=10, measure_cycles=60)
        cases = [(config(), result)] + [
            (cfg, Simulator(cfg).run())
            for cfg in (
                config(topology="mesh", rate=0.0137, fault_percent=5, **small),
                config(timing=UNPIPELINED, collect_latencies=True, seed=123, **small),
            )
        ]
        for cfg, res in cases:
            path = store.store(cfg, res)
            entry = {
                "key": store.key(cfg),
                "version": store.version,
                "config": to_data(cfg),
                "result": res.to_dict(),
            }
            streamed = io.StringIO()
            json.dump(entry, streamed, sort_keys=True)
            assert path.read_text(encoding="utf-8") == streamed.getvalue()

    def test_key_addressed_get_and_put(self, store, result):
        cfg = config()
        key = store.key(cfg)
        assert store.get(key) is None
        assert store.put(key, cfg, result) == store.path_for(cfg)
        assert store.get(key) == store.load(cfg) == result

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


def temp_name(pid):
    """A temp file name as ``atomic_write_text`` makes it for an entry."""
    return f"{'ab' * 32}.json.{pid}.x1y2_z3w.tmp"


def plant_begin(store, tmp, pid):
    """A *begin* with no *commit* in the journal older versions of the
    store kept — an in-flight write whose temp name has no pid."""
    record = {
        "op": "begin",
        "key": "k" * 64,
        "pid": pid,
        "time": time.time(),
        "tmp": os.path.relpath(tmp, store.root),
    }
    store.root.mkdir(parents=True, exist_ok=True)
    with open(store.root / "journal.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")


def count_fsyncs(monkeypatch):
    calls = []
    real = os.fsync

    def fsync(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return calls


class TestCrashSafety:
    def test_pid_alive(self):
        assert pid_alive(os.getpid())
        assert not pid_alive(dead_pid())
        assert not pid_alive(-1) and not pid_alive(0)

    def test_put_is_one_fsync_and_keeps_no_journal(
        self, tmp_path, result, monkeypatch
    ):
        store = ResultStore(tmp_path / "results")
        fsyncs = count_fsyncs(monkeypatch)
        store.store(config(), result)
        assert len(fsyncs) == 1  # the entry's own, before its rename
        assert store.load(config()) == result
        assert store.temp_files() == []
        assert sorted(p.name for p in store.root.iterdir()) == [store.key(config())[:2]]

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        """An older version's journal, torn after the *begin* of a write
        its dead writer never finished, still attributes that temp."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        tmp = plant_temp(store)
        plant_begin(store, tmp, dead_pid())
        with open(store.root / "journal.jsonl", "a", encoding="utf-8") as handle:
            handle.write('{"op": "beg')
        ResultStore(store.root)
        assert not tmp.exists()
        assert not (store.root / "journal.jsonl").exists()

    def test_dead_writers_temp_collected_on_open(self, tmp_path):
        """The self-healing pass: a SIGKILLed writer's temp, named for
        its pid, is removed the next time anything opens the store."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        tmp = plant_temp(store, temp_name(dead_pid()))
        ResultStore(store.root)  # clean_on_open=True (default)
        assert not tmp.exists()

    def test_live_writers_temp_preserved(self, tmp_path):
        """A temp named for a *live* pid is a write in progress — never
        touched, whatever its age."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        tmp = plant_temp(store, temp_name(os.getpid()), age=7200.0)
        ResultStore(store.root)
        assert tmp.exists()
        assert store.stale_temps(ttl=0.0) == []

    def test_old_journal_is_read_until_it_accounts_for_no_temp(self, tmp_path):
        """A store written before temp names carried the pid: the
        journal's live writer keeps its temp and the journal; once that
        temp is gone the journal is deleted, and nothing writes it."""
        store = ResultStore(tmp_path / "results", clean_on_open=False)
        live = plant_temp(store, "live.tmp", age=7200.0)
        dead = plant_temp(store, "dead.tmp")
        plant_begin(store, live, os.getpid())
        plant_begin(store, dead, dead_pid())
        ResultStore(store.root)
        assert live.exists() and not dead.exists()
        assert (store.root / "journal.jsonl").exists()
        live.unlink()
        ResultStore(store.root)
        assert not (store.root / "journal.jsonl").exists()

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
        """Crash-consistency: a failure mid temp write never tears the
        existing entry, and the failed write's temp is gone."""
        store = ResultStore(tmp_path / "results")
        path = store.store(config(), result)
        before = path.read_text(encoding="utf-8")

        def dies(fd):
            raise RuntimeError("writer dies here")

        monkeypatch.setattr(os, "fsync", dies)
        with pytest.raises(RuntimeError, match="writer dies"):
            store.store(config(), result)
        monkeypatch.undo()
        assert path.read_text(encoding="utf-8") == before
        assert store.load(config()) == result
        assert store.temp_files() == []

    def test_failed_write_leaks_neither_descriptor_nor_temp(
        self, tmp_path, result, monkeypatch
    ):
        """A write that cannot complete (ENOSPC, read-only root) must
        not leave an open fd and a temp behind on every attempt."""
        store = ResultStore(tmp_path / "results")

        def no_space(fd):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "fsync", no_space)
        open_fds = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            with pytest.raises(OSError):
                store.store(config(), result)
        assert store.temp_files() == []
        assert len(os.listdir("/proc/self/fd")) == open_fds
        assert config() not in store
