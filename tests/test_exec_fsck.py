"""Tests for store integrity checking (repro.exec.fsck): every issue
kind is detected, quarantine preserves the evidence, dry-run touches
nothing, and the CLI exit codes reflect what was found.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

from repro.exec.fsck import FsckIssue, fsck, main as fsck_main
from repro.exec.store import QUARANTINE_DIR, ResultStore
from repro.sim import SimulationConfig, Simulator


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


@pytest.fixture(scope="module")
def result():
    return Simulator(config()).run()


@pytest.fixture()
def store(tmp_path, result):
    store = ResultStore(tmp_path / "results")
    store.store(config(), result)
    store.store(config(rate=0.02), result)
    return store


def entry_path(store, cfg=None):
    return store.path_for(cfg if cfg is not None else config())


def rewrite(path, mutate):
    entry = json.loads(path.read_text(encoding="utf-8"))
    mutate(entry)
    path.write_text(json.dumps(entry), encoding="utf-8")


class TestCleanStore:
    def test_clean_report(self, store):
        report = fsck(store)
        assert report.clean
        assert report.scanned == 2 and report.ok == 2
        assert report.issues == [] and report.temps_removed == 0
        assert report.describe().endswith("store is clean")

    def test_accepts_a_bare_path(self, store):
        assert fsck(store.root).clean

    def test_empty_store(self, tmp_path):
        report = fsck(tmp_path / "nothing-here")
        assert report.clean and report.scanned == 0


class TestIssueKinds:
    def test_torn_entry(self, store):
        entry_path(store).write_text("{ torn json", encoding="utf-8")
        report = fsck(store)
        (issue,) = report.issues
        assert issue.kind == "torn-entry"
        assert not report.clean

    def test_missing_fields_is_torn(self, store):
        entry_path(store).write_text('{"key": "only"}', encoding="utf-8")
        (issue,) = fsck(store).issues
        assert issue.kind == "torn-entry" and "missing" in issue.detail

    def test_renamed_entry_is_key_mismatch(self, store):
        path = entry_path(store)
        imposter = path.with_name("0" * 63 + "f.json")
        path.rename(imposter)
        kinds = {issue.kind for issue in fsck(store).issues}
        assert kinds == {"key-mismatch"}

    def test_wrong_shard_is_misplaced(self, store):
        path = entry_path(store)
        wrong = store.root / ("zz" if path.parent.name != "zz" else "yy")
        wrong.mkdir()
        path.rename(wrong / path.name)
        (issue,) = fsck(store).issues
        assert issue.kind == "misplaced"

    def test_unrebuildable_result(self, store):
        rewrite(entry_path(store), lambda e: e.update(result=[]))
        (issue,) = fsck(store).issues
        assert issue.kind == "bad-result"

    def test_unrebuildable_config(self, store):
        rewrite(entry_path(store), lambda e: e.update(config={"bogus": True}))
        (issue,) = fsck(store).issues
        assert issue.kind == "bad-config"

    def test_edited_config_breaks_the_hash(self, store):
        """A rebuildable config that no longer hashes to the filename
        must not be served for the wrong configuration."""

        def bump_rate(entry):
            entry["config"]["rate"] = 0.999

        rewrite(entry_path(store), bump_rate)
        (issue,) = fsck(store).issues
        assert issue.kind == "key-mismatch" and "content hash" in issue.detail


class TestRepair:
    def test_quarantine_preserves_evidence(self, store):
        path = entry_path(store)
        original = "{ torn json"
        path.write_text(original, encoding="utf-8")
        report = fsck(store)
        (issue,) = report.issues
        assert not path.exists()  # removed from the serving tree ...
        moved = store.root / QUARANTINE_DIR / path.name
        assert str(moved) == issue.quarantined_to
        assert moved.read_text(encoding="utf-8") == original  # ... not deleted
        assert store.load(config()) is None  # reads as a miss now
        assert fsck(store).clean  # second pass: nothing left to fix

    def test_quarantine_never_overwrites(self, store, result):
        path = entry_path(store)
        qdir = store.root / QUARANTINE_DIR
        qdir.mkdir()
        shutil.copy(path, qdir / path.name)  # name already taken
        path.write_text("{ torn", encoding="utf-8")
        (issue,) = fsck(store).issues
        assert issue.quarantined_to.endswith(".1")

    def test_temp_files_collected(self, store):
        tmp = next(iter(store._shards())) / "leftover.tmp"
        tmp.write_text("half a result", encoding="utf-8")
        report = fsck(store)
        assert report.temps_removed == 1 and not tmp.exists()
        assert not report.clean  # a removed temp is evidence of a crash

    def test_live_writers_temp_survives(self, store):
        """fsck applies the store's own temp rule: a temp named for a
        live pid is a write in progress, not garbage."""
        shard = next(iter(store._shards()))
        tmp = shard / f"{shard.name * 32}.json.{os.getpid()}.abc.tmp"
        tmp.write_text("half a result", encoding="utf-8")
        assert fsck(store, repair=False).temps_removed == 0
        report = fsck(store)
        assert report.temps_removed == 0 and report.clean
        assert tmp.exists()

    def test_dead_writers_temp_is_a_dead_write(self, store):
        shard = next(iter(store._shards()))
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True, text=True, check=True,
        )  # a reaped child: its pid names no live process
        tmp = shard / f"{shard.name * 32}.json.{proc.stdout.strip()}.abc.tmp"
        tmp.write_text("half a result", encoding="utf-8")
        assert fsck(store, repair=False).dead_writes == 1 and tmp.exists()
        report = fsck(store)
        assert report.dead_writes == report.temps_removed == 1
        assert "1 dead in-flight write(s)" in report.describe()
        assert not tmp.exists() and fsck(store).clean

    def test_fsck_during_a_put_lets_the_put_finish(self, store, result, monkeypatch):
        """fsck run from outside while a writer's temp file exists, before
        anything is written to it, leaves the writer's temp alone."""
        mkstemp = tempfile.mkstemp
        reports = []

        def mkstemp_then_fsck(*args, **kwargs):
            made = mkstemp(*args, **kwargs)
            reports.append(fsck(store.root))
            return made

        monkeypatch.setattr(tempfile, "mkstemp", mkstemp_then_fsck)
        fresh = config(seed=11)
        store.store(fresh, result)
        assert reports[0].temps_removed == 0
        assert store.load(fresh) is not None
        assert store.temp_files() == []

    def test_dry_run_changes_nothing(self, store):
        path = entry_path(store)
        path.write_text("{ torn", encoding="utf-8")
        tmp = next(iter(store._shards())) / "leftover.tmp"
        tmp.write_text("x", encoding="utf-8")
        report = fsck(store, repair=False)
        assert not report.repaired
        (issue,) = report.issues
        assert issue.quarantined_to == ""
        assert report.temps_removed == 1  # counted, and ...
        assert path.exists() and tmp.exists()  # ... nothing moved

    def test_quarantine_dir_not_scanned_as_entries(self, store):
        """Quarantined files must not be re-reported forever."""
        entry_path(store).write_text("{ torn", encoding="utf-8")
        fsck(store)
        report = fsck(store)
        assert report.clean and report.scanned == 1


class TestMain:
    def test_exit_zero_when_clean(self, store, capsys):
        assert fsck_main([str(store.root)]) == 0
        assert "store is clean" in capsys.readouterr().out

    def test_exit_one_on_issues(self, store, capsys):
        entry_path(store).write_text("{ torn", encoding="utf-8")
        assert fsck_main([str(store.root)]) == 1
        out = capsys.readouterr().out
        assert "torn-entry" in out and "store needed repair" in out

    def test_dry_run_flag(self, store):
        path = entry_path(store)
        path.write_text("{ torn", encoding="utf-8")
        assert fsck_main([str(store.root), "--dry-run"]) == 1
        assert path.exists()

    def test_issue_describe_includes_destination(self):
        issue = FsckIssue(
            kind="torn-entry", path="a/b.json", detail="bad", quarantined_to="q/b.json"
        )
        assert "-> q/b.json" in issue.describe()

    def test_module_run_warns_nothing(self, tmp_path):
        """``python -m repro.exec.fsck`` must not find its own module
        already imported by the package (runpy's ``RuntimeWarning``)."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [
                sys.executable, "-W", "error::RuntimeWarning",
                "-m", "repro.exec.fsck", "--dry-run", str(tmp_path),
            ],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
