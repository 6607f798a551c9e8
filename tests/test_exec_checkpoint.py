"""Tests for sweep checkpoints (repro.exec.checkpoint): manifest
identity, the append-only completion log, and checkpointed execution —
resume serves completed work and replays recorded failures.
"""

import os
from dataclasses import dataclass, replace

import pytest

from repro.exec import (
    CheckpointMismatch,
    PointTask,
    ResultStore,
    SweepCheckpoint,
    execute,
    task_key,
)
from repro.exec.store import CODE_VERSION
from repro.sim import SimulationConfig


def config(**kwargs):
    defaults = dict(
        topology="torus",
        radix=6,
        dims=2,
        rate=0.01,
        warmup_cycles=100,
        measure_cycles=400,
        seed=4,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


def sweep_tasks(rates=(0.004, 0.008, 0.012)):
    return [PointTask(replace(config(), rate=r)) for r in rates]


@dataclass(frozen=True)
class _BoomTask:
    """Deterministically fails, and counts its executions in a file so a
    test can prove a replayed failure never re-ran the task."""

    config: SimulationConfig
    tally: str
    cacheable = False

    def execute(self):
        with open(self.tally, "a") as handle:
            handle.write("x\n")
        raise ValueError("boom")


class TestTaskKey:
    def test_point_task_key_is_store_key(self):
        """checkpoint key == store key, so an 'ok' mark is servable."""
        task = PointTask(config())
        assert task_key(task) == config().content_hash(CODE_VERSION)
        assert task_key(task, "other") == config().content_hash("other")

    def test_plain_object_falls_back_to_config_hash(self):
        @dataclass(frozen=True)
        class Bare:
            config: SimulationConfig

        assert task_key(Bare(config()), "v") == config().content_hash("v")


class TestManifest:
    def test_create_and_reopen(self, tmp_path):
        keys = ["k1", "k2", "k3"]
        created = SweepCheckpoint.create(tmp_path / "ckpt", keys, label="sweep A")
        assert created.exists
        reopened = SweepCheckpoint.open_or_create(tmp_path / "ckpt", keys)
        assert reopened.keys() == keys
        assert reopened.manifest()["label"] == "sweep A"
        assert reopened.progress() == (0, 3)

    def test_different_keys_rejected(self, tmp_path):
        SweepCheckpoint.create(tmp_path / "ckpt", ["k1", "k2"])
        with pytest.raises(CheckpointMismatch, match="different"):
            SweepCheckpoint.open_or_create(tmp_path / "ckpt", ["k1", "k9"])

    def test_different_version_rejected(self, tmp_path):
        SweepCheckpoint.create(tmp_path / "ckpt", ["k1"], version="v1")
        with pytest.raises(CheckpointMismatch):
            SweepCheckpoint.open_or_create(tmp_path / "ckpt", ["k1"], version="v2")

    def test_unreadable_manifest_rejected(self, tmp_path):
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", ["k1"])
        checkpoint.manifest_path.write_text("{ torn", encoding="utf-8")
        with pytest.raises(CheckpointMismatch, match="unreadable"):
            SweepCheckpoint(tmp_path / "ckpt").manifest()

    def test_for_tasks_is_stable_per_sweep(self, tmp_path):
        tasks = sweep_tasks()
        first = SweepCheckpoint.for_tasks(tmp_path, tasks, label="fig")
        again = SweepCheckpoint.for_tasks(tmp_path, tasks, label="fig")
        other = SweepCheckpoint.for_tasks(tmp_path, sweep_tasks((0.02, 0.04)))
        assert first.directory == again.directory  # same sweep, same manifest
        assert first.directory != other.directory  # one root serves many sweeps
        assert first.directory.parent == tmp_path

    def test_discard(self, tmp_path):
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", ["k1"])
        checkpoint.mark_ok("k1")
        checkpoint.discard()
        assert not checkpoint.exists and not checkpoint.done_path.exists()


class TestCompletionLog:
    def test_marks_round_trip(self, tmp_path):
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", ["k1", "k2"])
        checkpoint.mark_ok("k1")
        checkpoint.mark_failed("k2", kind="deadlock", message="stuck", cycle=7)
        records = checkpoint.completed()
        assert records["k1"]["status"] == "ok"
        assert records["k2"] == {
            "key": "k2",
            "status": "failed",
            "kind": "deadlock",
            "message": "stuck",
            "cycle": 7,
            "attempts": 1,
        }
        assert checkpoint.progress() == (2, 2)
        assert "2/2 done" in checkpoint.describe()

    def test_torn_tail_is_skipped(self, tmp_path):
        """A parent killed mid-append leaves a torn last line; reading
        tolerates it and only that record is lost."""
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", ["k1", "k2"])
        checkpoint.mark_ok("k1")
        with open(checkpoint.done_path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "sta')
        assert set(checkpoint.completed()) == {"k1"}
        # the next append heals the torn tail: the new record lands on
        # its own line instead of fusing with the fragment
        checkpoint.mark_ok("k2")
        assert set(checkpoint.completed()) == {"k1", "k2"}

    def test_last_record_wins(self, tmp_path):
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", ["k1"])
        checkpoint.mark_failed("k1", kind="crash", message="worker died")
        checkpoint.mark_ok("k1")
        assert checkpoint.completed()["k1"]["status"] == "ok"


class TestCheckpointedExecution:
    def test_resume_serves_from_store(self, tmp_path):
        tasks = sweep_tasks()
        store = ResultStore(tmp_path / "store")
        checkpoint = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        first, first_stats = execute(tasks, store=store, checkpoint=checkpoint)
        assert first_stats.executed == len(tasks)
        assert checkpoint.progress() == (len(tasks), len(tasks))

        resumed = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        second, second_stats = execute(tasks, store=store, checkpoint=resumed)
        assert second == first  # bit-for-bit: same payload objects rebuild
        assert second_stats.executed == 0
        assert second_stats.cache_hits == len(tasks)

    def test_a_cold_point_costs_two_fsyncs(self, tmp_path, monkeypatch):
        """One for the store entry, one for the checkpoint mark."""
        tasks = [PointTask(config(radix=4, warmup_cycles=5, measure_cycles=15))]
        store = ResultStore(tmp_path / "store")
        checkpoint = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        fsyncs = []
        real = os.fsync

        def fsync(fd):
            fsyncs.append(fd)
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        _, stats = execute(tasks, jobs=1, store=store, checkpoint=checkpoint)
        assert stats.executed == 1
        assert len(fsyncs) == 2

    @pytest.mark.parametrize("other", ["fewer", "configs", "order"])
    def test_checkpoint_of_other_tasks_serves_nothing(self, tmp_path, other):
        """A finished checkpoint of other tasks — fewer of them, other
        configs, or these configs in another order — must not lend its
        keys to this sweep: the run is refused before anything is served,
        marked or stored, through execute and through Experiment.run
        alike."""
        from repro import Experiment

        tasks = sweep_tasks()
        done_tasks = {
            "fewer": tasks[:2],
            "configs": sweep_tasks(rates=(0.005, 0.009, 0.013)),
            "order": tasks[::-1],
        }[other]
        store = ResultStore(tmp_path / "store")
        finished = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", done_tasks, version=store.version
        )
        execute(done_tasks, store=store, checkpoint=finished)
        marks = finished.done_path.read_bytes()
        entries = sorted(p.name for p in store.root.rglob("*.json"))

        reopened = SweepCheckpoint(finished.directory)
        with pytest.raises(CheckpointMismatch, match="other than the 3 being run"):
            execute(tasks, store=store, checkpoint=reopened)
        experiment = Experiment.from_configs([task.config for task in tasks])
        with pytest.raises(CheckpointMismatch, match="other than the 3 being run"):
            experiment.run(jobs=1, store=store, resume=reopened)
        assert finished.done_path.read_bytes() == marks
        assert sorted(p.name for p in store.root.rglob("*.json")) == entries

    def test_partial_checkpoint_runs_only_the_rest(self, tmp_path):
        """Simulate an interruption: mark the first task done by hand,
        then run — only the unfinished tasks execute."""
        tasks = sweep_tasks()
        store = ResultStore(tmp_path / "store")
        from repro.sim import Simulator

        store.store(tasks[0].config, Simulator(tasks[0].config).run())
        keys = [task_key(t, store.version) for t in tasks]
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", keys)
        checkpoint.mark_ok(keys[0])

        payloads, stats = execute(tasks, store=store, checkpoint=checkpoint)
        assert stats.cache_hits == 1 and stats.executed == len(tasks) - 1
        assert all(p is not None for p in payloads)

    def test_recorded_failure_replays_without_rerunning(self, tmp_path):
        tally = tmp_path / "tally"
        tasks = [PointTask(config()), _BoomTask(config(rate=0.02), str(tally))]
        store = ResultStore(tmp_path / "store")
        checkpoint = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        _, first = execute(
            tasks, store=store, checkpoint=checkpoint, allow_failures=True
        )
        assert first.failed == 1 and tally.read_text().count("x") == 1

        resumed = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        payloads, second = execute(
            tasks, store=store, checkpoint=resumed, allow_failures=True
        )
        assert tally.read_text().count("x") == 1  # the poison never re-ran
        assert second.replayed_failures == 1 and second.executed == 0
        (failure,) = second.failures
        assert failure.kind == "error" and "boom" in failure.message
        assert payloads[0] is not None and payloads[1] is None

    def test_replayed_failure_still_raises_without_allow(self, tmp_path):
        from repro.exec import ExecutionError

        tally = tmp_path / "tally"
        tasks = [_BoomTask(config(), str(tally))]
        store = ResultStore(tmp_path / "store")
        checkpoint = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        with pytest.raises(ExecutionError, match="boom"):
            execute(tasks, store=store, checkpoint=checkpoint)
        resumed = SweepCheckpoint.for_tasks(
            tmp_path / "ckpt", tasks, version=store.version
        )
        with pytest.raises(ExecutionError, match="boom"):
            execute(tasks, store=store, checkpoint=resumed)
        assert tally.read_text().count("x") == 1
