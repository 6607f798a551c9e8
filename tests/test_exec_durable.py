"""Every crash point of every durable file, once (repro.exec.durable).

The three JSONL logs — a checkpoint's ``done.jsonl``, the service
journal, the MC tally log — follow one rule
(see the module docstring of ``repro.exec.durable``), so one test cuts
each of them at every byte, with and without undecodable bytes after
the cut, and asks the same three things: the reader returns a prefix of
what was committed, opening never touches the file, and the next append
is read back whole.
"""

import json
import os
from pathlib import Path

import pytest

import repro
from repro.canonical import to_data
from repro.exec import ResultStore, SweepCheckpoint
from repro.exec.durable import (
    append_jsonl,
    atomic_write_text,
    read_jsonl,
    temp_writer_pid,
)
from repro.exec.fsck import main as fsck_main
from repro.mc import MCCell, MCSettings, ShardTally, TallyLog, run_cell
from repro.service.jobs import DONE, JobSpec, JobStore
from repro.sim import SimulationConfig, Simulator


def tiny(seed=0):
    return SimulationConfig(
        topology="torus",
        radix=4,
        dims=2,
        rate=0.01,
        warmup_cycles=0,
        measure_cycles=20,
        seed=seed,
    )


@pytest.fixture(scope="module")
def result():
    return Simulator(tiny()).run()


def tally(start=0):
    return ShardTally(cell_key="c", start=start, count=1, counts={"routable": 1})


# ----------------------------------------------------------------------
# the three logs, each through its owner: (path, write(i) -> identities
# of the records it committed, read() -> identities in file order)
# ----------------------------------------------------------------------


def checkpoint_log(root, result):
    def write(i):
        SweepCheckpoint(root).mark_ok(f"k{i}")
        return [f"k{i}"]

    return root / "done.jsonl", write, lambda: list(SweepCheckpoint(root).completed())


def service_journal(root, result):
    def write(i):
        JobStore(root).journal("submit", f"j{i}")
        return [f"j{i}"]

    def read():
        store = JobStore(root)
        store.recover()  # the server's first act on start: must not raise
        return [r["job"] for r in store.journal_entries()]

    return root / "service.jsonl", write, read


def tally_log(root, result):
    path = root / "t.jsonl"

    def write(i):
        TallyLog(path).append(f"s{i}", tally(i))
        return [f"s{i}"]

    return path, write, lambda: list(TallyLog(path).entries)


LOGS = [checkpoint_log, service_journal, tally_log]

#: what may follow a cut: nothing, a UTF-16 BOM, half a UTF-8 character
TAILS = (b"", b"\xff\xfe", b"\xc3")


@pytest.mark.parametrize("log", LOGS, ids=lambda log: log.__name__)
def test_every_byte_prefix_recovers(log, tmp_path, result, monkeypatch):
    # fsync orders a write against power loss, which no test observes;
    # stubbed, the ~3000 appends below take seconds instead of a minute
    # on a slow disk
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    path, write, read = log(tmp_path / "d", result)
    committed = []
    while len(committed) < 3:
        committed += write(len(committed))
    whole = path.read_bytes()
    assert read() == committed
    last = whole.rfind(b"\n", 0, -1) + 1  # where the last record starts
    for cut in range(len(whole) + 1):
        for tail in TAILS:
            damaged = whole[:cut] + tail
            path.write_bytes(damaged)
            before = read()
            assert before == committed[: len(before)], (cut, tail)
            # only the line the cut fell in may be missing
            assert len(before) >= whole[:cut].count(b"\n"), (cut, tail)
            assert path.read_bytes() == damaged, (cut, tail)
            if tail and cut < last:
                continue  # a crash damages the tail; earlier lines only need reading
            appended = write(99)
            assert read() == before + appended, (cut, tail)
            assert path.read_bytes().startswith(damaged), (cut, tail)


def test_store_opens_and_fscks_with_a_bad_byte_at_the_journal_tail(
    tmp_path, result, capsys
):
    """One non-UTF-8 byte used to raise out of ``ResultStore(...)`` and
    out of the repair tool itself.  The journal is one an older version
    left, still naming an in-flight write of this (live) process, so
    opening the store keeps it."""
    root = tmp_path / "store"
    store = ResultStore(root)
    store.store(tiny(), result)
    (root / "aa").mkdir()
    (root / "aa" / "x.tmp").write_text("partial")
    append_jsonl(
        root / "journal.jsonl",
        {"op": "begin", "key": "k" * 64, "pid": os.getpid(), "tmp": "aa/x.tmp"},
    )
    with open(root / "journal.jsonl", "ab") as handle:
        handle.write(b"\xff")
    reopened = ResultStore(root)
    assert reopened.stale_temps(ttl=0.0) == []
    assert (root / "aa" / "x.tmp").exists() and (root / "journal.jsonl").exists()
    assert reopened.load(tiny()) == result
    assert fsck_main([str(root)]) == 0
    assert "1 entries scanned, 1 ok" in capsys.readouterr().out


class TestReadAndAppend:
    def test_missing_file_has_no_records(self, tmp_path):
        assert read_jsonl(tmp_path / "absent.jsonl") == []

    def test_lines_that_are_not_objects_are_skipped(self, tmp_path):
        path = tmp_path / "l.jsonl"
        path.write_bytes(b'{"a": 1}\n[1, 2]\n"text"\n\n{not json}\n{"b": 2}\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]
        append_jsonl(path, {"c": 3})
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}, {"c": 3}]


class TestAtomicWrite:
    @pytest.mark.parametrize("call", ["fsync", "replace"])
    def test_failure_leaves_the_old_content_and_no_temp(
        self, call, tmp_path, monkeypatch
    ):
        path = tmp_path / "f.json"
        atomic_write_text(path, "old")

        def fail(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, call, fail)
        with pytest.raises(OSError):
            atomic_write_text(path, "new")
        monkeypatch.undo()
        assert path.read_text() == "old"
        assert list(tmp_path.iterdir()) == [path]

    def test_temp_is_named_for_its_writer(self, tmp_path, monkeypatch):
        path = tmp_path / "f.json"
        seen = []
        real = os.fsync

        def fsync(fd):
            seen.extend(p.name for p in tmp_path.iterdir())
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        atomic_write_text(path, "one")
        (name,) = seen
        assert name.startswith("f.json.") and temp_writer_pid(name) == os.getpid()
        for other in ("leftover.tmp", "tmpab_cd12.tmp", "f.json.12x.ab.tmp", "f.json.1.ab"):
            assert temp_writer_pid(other) is None

    def test_replaces_and_creates_parents(self, tmp_path):
        path = tmp_path / "a" / "b" / "f.json"
        atomic_write_text(path, "one")
        atomic_write_text(path, "two")
        assert path.read_text() == "two"
        assert list(path.parent.iterdir()) == [path]


def test_durability_primitives_live_in_one_module():
    """``fsync`` / ``os.replace`` / ``mkstemp`` outside the durable
    module is a hand-rolled writer: store entries too go through
    ``atomic_write_text``."""
    src = Path(repro.__file__).parent
    allowed = {"exec/durable.py"}
    offenders = [
        (path.relative_to(src).as_posix(), needle)
        for path in sorted(src.rglob("*.py"))
        for needle in ("os.fsync(", "os.replace(", "tempfile.mkstemp(")
        if needle in path.read_text(encoding="utf-8")
        and path.relative_to(src).as_posix() not in allowed
    ]
    assert offenders == []


class TestPreviousLayoutsAreRead:
    """Bytes as the commit before this module wrote them: the tally log
    used compact separators; the other files are spelled out literally
    so a change of layout here fails rather than follows."""

    def test_compact_tally_lines_resume_a_cell(self, tmp_path):
        cell = MCCell(radix=4, num_node_faults=1, num_link_faults=1)
        settings = MCSettings(half_width=0.05, shard_size=50, max_shards=8, min_shards=2)
        path = tmp_path / "t.jsonl"
        first = run_cell(cell, settings, master_seed=7, tally_log=TallyLog(path))
        compact = b"".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")).encode() + b"\n"
            for record in read_jsonl(path)
        )
        assert compact != path.read_bytes()
        path.write_bytes(compact)
        executed = []
        again = run_cell(
            cell, settings, master_seed=7, tally_log=TallyLog(path), stats_parts=executed
        )
        assert again.to_payload() == first.to_payload()
        assert executed == []  # every shard served from the old-layout log
        # and one file may hold both layouts
        log = TallyLog(path)
        served = len(log)
        log.append("extra", tally())
        assert len(TallyLog(path)) == served + 1

    def test_resume_directory(self, tmp_path):
        directory = tmp_path / "ckpt"
        directory.mkdir()
        (directory / "manifest.json").write_bytes(
            b'{"format": 1, "keys": ["k0", "k1"], "label": "", "total": 2, '
            b'"version": "sim-v3"}'
        )
        (directory / "done.jsonl").write_bytes(
            b'{"key": "k0", "status": "ok"}\n'
            b'{"attempts": 2, "cycle": null, "key": "k1", "kind": "crash", '
            b'"message": "worker died", "status": "failed"}\n'
        )
        checkpoint = SweepCheckpoint.open_or_create(directory, ["k0", "k1"])
        done = checkpoint.completed()
        assert list(done) == ["k0", "k1"]
        assert done["k1"]["kind"] == "crash" and done["k1"]["attempts"] == 2
        assert checkpoint.progress() == (2, 2)

    def test_service_root(self, tmp_path):
        specs = [
            JobSpec.from_payload(
                {"kind": "sweep", "config": tiny().to_canonical(), "rates": [rate]}
            )
            for rate in (0.004, 0.008)
        ]
        finished, queued = (spec.job_id() for spec in specs)
        for spec in specs:
            job_dir = tmp_path / "jobs" / spec.job_id()
            job_dir.mkdir(parents=True)
            (job_dir / "spec.json").write_text(
                json.dumps(to_data(spec), sort_keys=True)
            )
        (tmp_path / "jobs" / finished / "result.json").write_bytes(
            b'{"failures": [], "results": [], "stats": {"executed": 1}}'
        )
        (tmp_path / "service.jsonl").write_bytes(
            f'{{"job": "{finished}", "op": "submit", "pid": 1}}\n'
            f'{{"job": "{queued}", "op": "submit", "pid": 1}}\n'
            f'{{"job": "{finished}", "op": "start", "pid": 1}}\n'
            f'{{"job": "{finished}", "op": "done", "pid": 1}}\n'.encode()
        )
        records, pending = JobStore(tmp_path).recover()
        assert records[finished].state == DONE
        assert records[finished].stats == {"executed": 1}
        assert pending == [queued]

    def test_store(self, tmp_path, result):
        root = tmp_path / "store"
        store = ResultStore(root)
        key = store.key(tiny())
        entry = {
            "key": key,
            "version": "sim-v3",
            "config": tiny().to_canonical(),
            "result": result.to_dict(),
        }
        (root / key[:2]).mkdir(parents=True)
        (root / key[:2] / f"{key}.json").write_text(json.dumps(entry, sort_keys=True))
        (root / key[:2] / "dead.tmp").write_text("partial")
        (root / "journal.jsonl").write_bytes(
            f'{{"key": "{key}", "op": "begin", "pid": 1, "time": 1.5, '
            f'"tmp": "{key[:2]}/live.tmp"}}\n'
            f'{{"key": "{key}", "op": "commit", "pid": 1, "time": 1.6, '
            f'"tmp": "{key[:2]}/live.tmp"}}\n'
            f'{{"key": "{key}", "op": "begin", "pid": 0, "time": 1.7, '
            f'"tmp": "{key[:2]}/dead.tmp"}}\n'.encode()
        )
        reopened = ResultStore(root)  # collects the dead writer's temp
        assert reopened.temp_files() == []
        assert reopened.load(tiny()) == result
        assert fsck_main([str(root)]) == 0
