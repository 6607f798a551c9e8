"""Tests for the self-chaos harness (repro.exec.chaos): the
deterministic sweep builder, the self-killing task wrapper, and a small
end-to-end worker-kill campaign.  The combined worker-kill +
parent-kill property lives in tests/test_exec_executor.py
(TestKillAndResume); CI additionally runs the full 16x16 campaign.
"""

import os

from repro.exec import PointTask, SweepCheckpoint, task_key
from repro.exec.chaos import ChaosTask, build_sweep, count_records, run_chaos
from repro.sim import Simulator


class TestBuildSweep:
    def test_deterministic_and_rate_swept(self):
        rates = (0.004, 0.008, 0.012)
        sweep = build_sweep(radix=8, rates=rates)
        assert sweep == build_sweep(radix=8, rates=rates)
        assert [c.rate for c in sweep] == list(rates)
        assert {c.radix for c in sweep} == {8}
        assert {c.fault_percent for c in sweep} == {1}


class TestChaosTask:
    def test_delegates_identity_to_inner(self):
        inner = PointTask(build_sweep(radix=6)[0])
        wrapped = ChaosTask(inner, kill_marker="/nonexistent/marker")
        assert wrapped.config == inner.config
        assert wrapped.cacheable is True
        # keys must agree: resumed rounds mix wrapped and unwrapped tasks
        assert wrapped.checkpoint_key("v") == task_key(inner, "v")

    def test_missing_marker_runs_normally(self, tmp_path):
        cfg = build_sweep(radix=6, warmup=100, measure=300)[0]
        wrapped = ChaosTask(PointTask(cfg), kill_marker=str(tmp_path / "gone"))
        assert wrapped.execute() == Simulator(cfg).run()

    def test_claimed_marker_runs_normally(self, tmp_path):
        """The second claimant (a retry, or a resumed round) must not
        die again."""
        cfg = build_sweep(radix=6, warmup=100, measure=300)[0]
        marker = tmp_path / "kill-0"
        (tmp_path / "kill-0.claimed").touch()  # someone already died here
        wrapped = ChaosTask(PointTask(cfg), kill_marker=str(marker))
        assert wrapped.execute() == Simulator(cfg).run()

    def test_no_marker_disables_the_kill(self):
        cfg = build_sweep(radix=6, warmup=100, measure=300)[0]
        assert ChaosTask(PointTask(cfg)).execute() == Simulator(cfg).run()


class TestCompletionCounter:
    def test_the_fragment_a_kill_leaves_is_not_a_completion(self, tmp_path):
        """Both harnesses kill after N *more* durable completions; the
        torn line their previous kill left must not count towards N."""
        keys = [task_key(PointTask(c)) for c in build_sweep(radix=8)]
        checkpoint = SweepCheckpoint.create(tmp_path / "ckpt", keys)
        assert count_records([checkpoint.done_path]) == 0  # no log yet
        checkpoint.mark_ok(keys[0])
        with open(checkpoint.done_path, "ab") as handle:
            handle.write(b'{"key": "' + keys[1][:20].encode())  # SIGKILL mid-append
        assert len(checkpoint.done_path.read_bytes().splitlines()) == 2
        assert count_records([checkpoint.done_path]) == 1
        checkpoint.mark_ok(keys[1])
        assert count_records([checkpoint.done_path, tmp_path / "absent"]) == 2


class TestRunChaos:
    def test_worker_kill_campaign_stays_identical(self, tmp_path):
        """One round, worker kills only: the executor retries the killed
        workers' tasks and the surviving sweep matches the serial run."""
        report = run_chaos(
            tmp_path / "chaos",
            radix=6,
            jobs=2,
            seed=7,
            worker_kills=2,
            parent_kills=0,
            rates=(0.004, 0.008, 0.012, 0.016),
            warmup=100,
            measure=300,
        )
        assert report.ok, report.describe()
        assert report.rounds == 1 and report.parent_kills == 0
        assert report.worker_kills_claimed == 2
        assert report.identical and report.fsck_report.clean
        assert "chaos run PASSED" in report.describe()
        # every marker was claimed, none left armed
        markers = tmp_path / "chaos" / "markers"
        assert not [p for p in os.listdir(markers) if not p.endswith(".claimed")]
