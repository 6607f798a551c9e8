"""Tests for the parallel executor (repro.exec.executor): serial/parallel
parity, memoization, failure handling, and the worker-side network cache.

The synthetic task classes live at module level so the worker-pool tests
can pickle them.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import pytest

from repro.exec import (
    ExecPolicy,
    ExecutionError,
    PointTask,
    ResultStore,
    WorkerPool,
    execute,
    resolve_jobs,
    run_configs,
)
from repro.sim import DeadlockError, SimulationConfig, Simulator


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


def sweep_configs(rates=(0.004, 0.008, 0.012, 0.016)):
    from dataclasses import replace

    return [replace(config(), rate=r) for r in rates]


@dataclass(frozen=True)
class _BoomTask:
    """A task that always fails with an ordinary exception."""

    config: SimulationConfig
    cacheable = False

    def execute(self):
        raise ValueError("boom")


@dataclass(frozen=True)
class _DeadlockTask:
    """A task that reports a (synthetic) simulated deadlock."""

    config: SimulationConfig
    cacheable = False

    def execute(self):
        raise DeadlockError(123, "synthetic deadlock at cycle 123")


@dataclass(frozen=True)
class _CrashTask:
    """A task that kills its worker process outright (simulating an OOM
    kill), but survives when re-run in the parent process."""

    config: SimulationConfig
    parent_pid: int
    cacheable = False

    def execute(self):
        if os.getpid() != self.parent_pid:
            os._exit(1)
        return "survived-in-process"


@dataclass(frozen=True)
class _FlakyCrashTask:
    """Crashes its worker exactly once (the first claimant of the marker
    file), then computes the real simulation result — the shape of a
    transient infrastructure fault."""

    config: SimulationConfig
    marker: str
    cacheable = False

    def execute(self):
        try:
            os.rename(self.marker, self.marker + ".claimed")
        except OSError:
            pass  # already claimed: behave
        else:
            os._exit(1)
        return Simulator(self.config).run()


@dataclass(frozen=True)
class _PoisonTask:
    """Crashes its worker on every attempt — a genuine poison task."""

    config: SimulationConfig
    cacheable = False

    def execute(self):
        os._exit(1)


@dataclass(frozen=True)
class _SleepTask:
    """Blocks for longer than any test-policy budget."""

    config: SimulationConfig
    seconds: float
    cacheable = False

    def execute(self):
        time.sleep(self.seconds)
        return "finished-sleeping"


@dataclass(frozen=True)
class _PidTask:
    """Reports which process ran it."""

    tag: str
    cacheable = False

    def execute(self):
        return self.tag, os.getpid()


@dataclass(frozen=True)
class _SigtermOnceTask:
    """SIGTERMs its own worker once (the first claimant of the marker
    file), as the exit-time cleanup of ``multiprocessing`` or an
    operator's ``kill`` would, then outlives any test budget unless the
    signal really killed it."""

    marker: str
    cacheable = False

    def execute(self):
        try:
            os.rename(self.marker, self.marker + ".claimed")
        except OSError:
            return "second-attempt"
        os.kill(os.getpid(), signal.SIGTERM)
        time.sleep(30.0)
        return "survived-sigterm"


# A task that finds its worker's own end of the pipe, writes the length
# header of a 1 MiB message and 10 bytes of its body, and SIGKILLs its
# worker: the shape of a worker killed halfway through sending a result.
_HALF_FRAME_TASK = textwrap.dedent(
    """
    import os
    import signal
    import struct
    import sys
    import time

    from repro.exec import ExecPolicy, WorkerPool, execute


    class HalfFrame:
        cacheable = False

        def execute(self):
            frame = sys._getframe()
            while frame.f_code.co_name != "_worker_main":
                frame = frame.f_back
            conn = frame.f_locals["conn"]
            os.write(conn.fileno(), struct.pack("!i", 1 << 20) + b"x" * 10)
            os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _wait_dead(pid, timeout=5.0):
    """Block until child ``pid`` can be (or has been) reaped.  Not
    ``/proc/<pid>/stat``: the main thread of a killed worker reads ``Z``
    while its heartbeat thread is still being torn down, and until that
    is gone ``waitpid`` — hence ``Process.is_alive()`` — says alive."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT | os.WNOHANG):
                return
        except ChildProcessError:
            return  # already reaped
        time.sleep(0.01)
    raise AssertionError(f"pid {pid} still alive after {timeout}s")


def _no_children():
    """True once this process has no live child left (reaps as it looks)."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return not multiprocessing.active_children()


class TestResolveJobs:
    def test_auto(self):
        assert resolve_jobs(None) == resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestParity:
    """The tentpole guarantee: jobs=1, jobs=4 and a cache-warm run all
    produce bit-for-bit identical results, equal to a plain serial loop."""

    def test_serial_parallel_and_cached_identical(self, tmp_path):
        configs = sweep_configs()
        manual = [Simulator(c).run() for c in configs]

        serial, serial_stats = run_configs(configs, jobs=1)
        parallel, parallel_stats = run_configs(configs, jobs=4)
        assert serial == manual
        assert parallel == manual
        assert serial_stats.executed == parallel_stats.executed == len(configs)

        store = ResultStore(tmp_path)
        warmup, warmup_stats = run_configs(configs, jobs=1, store=store)
        cached, cached_stats = run_configs(configs, jobs=4, store=store)
        assert warmup == manual and cached == manual
        assert warmup_stats.cache_hits == 0
        assert cached_stats.cache_hits == len(configs)
        assert cached_stats.executed == 0
        assert cached_stats.hit_ratio == 1.0

    def test_results_keep_task_order(self):
        configs = sweep_configs()
        results, _ = run_configs(configs, jobs=4)
        assert [r.rate for r in results] == [c.rate for c in configs]

    def test_partial_cache(self, tmp_path):
        """Changing one point's config re-simulates only that point."""
        from dataclasses import replace

        store = ResultStore(tmp_path)
        configs = sweep_configs()
        run_configs(configs, store=store)
        configs[1] = replace(configs[1], seed=99)
        results, stats = run_configs(configs, store=store)
        assert stats.cache_hits == len(configs) - 1
        assert stats.executed == 1
        assert results[1] == Simulator(configs[1]).run()


class TestProgress:
    def test_events_cover_all_tasks(self, tmp_path):
        store = ResultStore(tmp_path)
        configs = sweep_configs((0.004, 0.008))
        run_configs(configs, store=store)

        events = []
        run_configs(configs, store=store, progress=events.append)
        assert [e.completed for e in events] == [1, 2]
        assert all(e.cached and e.total == 2 for e in events)
        assert {e.index for e in events} == {0, 1}
        assert all(e.payload.delivered > 0 for e in events)


class TestFailureHandling:
    def test_plain_error_raises_execution_error(self):
        tasks = [PointTask(config()), _BoomTask(config())]
        with pytest.raises(ExecutionError, match="boom"):
            execute(tasks, jobs=1)

    def test_deadlock_reraised_as_deadlock_error(self):
        with pytest.raises(DeadlockError) as excinfo:
            execute([_DeadlockTask(config())], jobs=1)
        assert excinfo.value.cycle == 123

    def test_failures_cross_process_boundary(self):
        with pytest.raises(ExecutionError, match="boom"):
            execute([_BoomTask(config())], jobs=2)
        with pytest.raises(DeadlockError):
            execute([_DeadlockTask(config())], jobs=2)

    def test_allow_failures_collects(self):
        tasks = [_BoomTask(config()), PointTask(config()), _DeadlockTask(config())]
        payloads, stats = execute(tasks, jobs=1, allow_failures=True)
        assert payloads[0] is None and payloads[2] is None
        assert payloads[1].delivered > 0
        assert stats.failed == 2 and stats.executed == 1
        kinds = {f.index: f.kind for f in stats.failures}
        assert kinds == {0: "error", 2: "deadlock"}

    def test_broken_pool_falls_back_in_process(self):
        """A worker dying hard (os._exit) breaks the pool; the executor
        re-runs the unfinished tasks in-process and still returns."""
        tasks = [_CrashTask(config(), parent_pid=os.getpid())]
        with pytest.warns(RuntimeWarning, match="worker pool broke"):
            payloads, stats = execute(tasks, jobs=2)
        assert payloads == ["survived-in-process"]
        assert stats.pool_broken and stats.executed == 1


class TestFaultTolerance:
    """The supervised pool's failure model: transient crashes retry to
    the identical result, overdue/hung workers are killed and accounted,
    and poison tasks are quarantined instead of sinking the sweep."""

    def test_transient_crash_retries_to_identical_result(self, tmp_path):
        marker = tmp_path / "crash-once"
        marker.touch()
        cfg = config()
        policy = ExecPolicy(
            max_attempts=3, backoff_base=0.01, in_process_fallback=False
        )
        payloads, stats = execute(
            [_FlakyCrashTask(cfg, str(marker))], jobs=2, policy=policy
        )
        assert payloads == [Simulator(cfg).run()]  # retry is result-neutral
        assert not marker.exists() and (tmp_path / "crash-once.claimed").exists()
        assert stats.infra_crashes == 1 and stats.infra_retries == 1
        assert stats.failed == 0 and stats.executed == 1
        assert [e.kind for e in stats.infra_events] == ["task_crash", "task_retry"]
        assert all(e.task_index == 0 for e in stats.infra_events)

    def test_timeout_kills_overdue_worker(self):
        policy = ExecPolicy(
            task_timeout=0.5, max_attempts=1, in_process_fallback=False
        )
        payloads, stats = execute(
            [_SleepTask(config(), 30.0)],
            jobs=2,
            policy=policy,
            allow_failures=True,
        )
        assert payloads == [None]
        assert stats.infra_timeouts == 1 and stats.quarantined == 1
        (failure,) = stats.failures
        assert failure.kind == "timeout" and failure.attempts == 1

    def test_hung_worker_detected_by_watchdog(self):
        # heartbeat_interval=0 silences the worker's beats, so the
        # blocked task looks exactly like a process stalled in a syscall
        policy = ExecPolicy(
            heartbeat_interval=0.0,
            heartbeat_grace=0.5,
            max_attempts=1,
            in_process_fallback=False,
        )
        payloads, stats = execute(
            [_SleepTask(config(), 30.0)],
            jobs=2,
            policy=policy,
            allow_failures=True,
        )
        assert payloads == [None]
        assert stats.infra_hung == 1
        (failure,) = stats.failures
        assert failure.kind == "hung"

    def test_poison_task_quarantined_sweep_survives(self):
        cfg = config()
        policy = ExecPolicy(
            max_attempts=2, backoff_base=0.01, in_process_fallback=False
        )
        payloads, stats = execute(
            [_PoisonTask(cfg), PointTask(cfg)],
            jobs=2,
            policy=policy,
            allow_failures=True,
        )
        assert payloads[0] is None
        assert payloads[1] == Simulator(cfg).run()  # the healthy point survived
        assert stats.quarantined == 1
        assert stats.infra_crashes == 2 and stats.infra_retries == 1
        (failure,) = stats.failures
        assert failure.kind == "crash" and failure.index == 0
        assert failure.attempts == 2 and "quarantined" in failure.message
        kinds = [e.kind for e in stats.infra_events]
        assert kinds == ["task_crash", "task_retry", "task_crash", "task_quarantine"]

    def test_backoff_schedule_is_deterministic(self):
        policy = ExecPolicy(backoff_base=0.05, backoff_factor=2.0, backoff_cap=2.0)
        assert [policy.backoff(n) for n in (1, 2, 3)] == [0.05, 0.1, 0.2]
        assert policy.backoff(50) == 2.0  # capped


class TestWorkerPool:
    """The pool outlives the call when its owner says so: same workers,
    same payloads, and nothing of one call can leak into the next."""

    def test_two_calls_on_one_pool_match_two_fresh_pools(self):
        first, second = sweep_configs()[:2], sweep_configs()[2:]
        fresh = [run_configs(first, jobs=2)[0], run_configs(second, jobs=2)[0]]
        with WorkerPool() as pool:
            tasks = [PointTask(c) for c in first]
            shared_first, stats_first = execute(tasks, jobs=2, pool=pool)
            pids = pool.pids()
            tasks = [PointTask(c) for c in second]
            shared_second, stats_second = execute(tasks, jobs=2, pool=pool)
            assert pool.pids() == pids and len(pids) == 2
            assert pool.describe() == {
                "workers": 2, "spawned": 2, "respawned": 0, "tasks_run": 4
            }
        assert [shared_first, shared_second] == fresh
        # each call accounts for what *it* did to the pool
        assert stats_first.pool == {
            "workers": 2, "spawned": 2, "respawned": 0, "tasks_run": 2
        }
        assert stats_second.pool == {
            "workers": 2, "spawned": 0, "respawned": 0, "tasks_run": 2
        }
        assert stats_second.to_dict()["pool"] == stats_second.pool

    def test_jobs_bounds_the_workers_one_call_uses(self):
        with WorkerPool() as pool:
            execute([_PidTask(str(i)) for i in range(3)], jobs=3, pool=pool)
            assert len(pool.pids()) == 3
            payloads, _ = execute([_PidTask("here")], jobs=1, pool=pool)
            assert payloads == [("here", os.getpid())]  # jobs=1: in-process
            started = time.monotonic()
            execute([_SleepTask(config(), 0.3) for _ in range(3)], jobs=2, pool=pool)
            # three 0.3 s sleeps on two of the three workers take two rounds
            assert time.monotonic() - started >= 0.55
            assert pool.describe()["spawned"] == 3

    def test_idle_worker_killed_between_calls_is_replaced_silently(self):
        with WorkerPool() as pool:
            execute([_PidTask("a"), _PidTask("b")], jobs=2, pool=pool)
            victim = pool.pids()[0]
            os.kill(victim, signal.SIGKILL)
            _wait_dead(victim)
            payloads, stats = execute([_PidTask("c"), _PidTask("d")], jobs=2, pool=pool)
            assert [tag for tag, _pid in payloads] == ["c", "d"]
            assert victim not in {pid for _tag, pid in payloads}
            assert stats.infra_events == [] and stats.infra_failures == 0
            assert not stats.pool_broken
            assert pool.describe()["respawned"] == 1 and len(pool.pids()) == 2

    def test_timed_out_task_leaves_nothing_deliverable_in_the_next_call(self, monkeypatch):
        strict = ExecPolicy(task_timeout=1.0, max_attempts=1, in_process_fallback=False)
        with WorkerPool() as pool:
            # keep a copy of each worker's end of its pipe, in spawn order
            worker_ends = []
            make_pipe = pool._ctx.Pipe

            def pipe(*args, **kwargs):
                conn, worker_conn = make_pipe(*args, **kwargs)
                worker_ends.append(Connection(os.dup(worker_conn.fileno())))
                return conn, worker_conn

            monkeypatch.setattr(pool._ctx, "Pipe", pipe)
            payloads, stats = execute(
                [_SleepTask(config(), 30.0), _PidTask("ok")],
                jobs=2,
                policy=strict,
                allow_failures=True,
                pool=pool,
            )
            assert payloads[0] is None and payloads[1][0] == "ok"
            assert stats.infra_timeouts == 1 and stats.quarantined == 1
            # the answer the killed attempt could have posted a moment
            # before it was declared overdue: a task index and attempt
            # the next call also uses, but an older epoch
            (survivor,) = pool._workers
            worker_ends[survivor].send(("done", pool._epoch, 0, 1, ("ok", "stale")))
            payloads, stats = execute(
                [_PidTask("fresh-0"), _PidTask("fresh-1")], jobs=2, pool=pool
            )
            assert [tag for tag, _pid in payloads] == ["fresh-0", "fresh-1"]
            assert stats.executed == 2 and stats.infra_events == []
            for end in worker_ends:
                end.close()

    def test_a_timeout_kill_cannot_silence_the_pool(self):
        """run() wakes on a worker's message, so a timeout kill tends to
        land just as the victim is writing a heartbeat.  Were that pipe
        shared, with a lock around its writes, a victim killed there
        could leave the lock held and no worker of the pool could post
        again; with 1 ms heartbeats that race is hit within a few kills.
        Each worker writes to its own pipe, so the kill damages only the
        pipe it closes."""
        kill = ExecPolicy(task_timeout=0.2, max_attempts=1, in_process_fallback=False)
        check = ExecPolicy(task_timeout=5.0, max_attempts=1, in_process_fallback=False)
        with WorkerPool(heartbeat_interval=0.001) as pool:
            for _ in range(10):
                _, stats = execute(
                    [_SleepTask(config(), 30.0)],
                    jobs=2,
                    policy=kill,
                    allow_failures=True,
                    pool=pool,
                )
                assert stats.infra_timeouts == 1
                payloads, stats = execute(
                    [_PidTask("a"), _PidTask("b")],
                    jobs=2,
                    policy=check,
                    allow_failures=True,
                    pool=pool,
                )
                assert stats.failed == 0, stats.describe()
                assert [tag for tag, _pid in payloads] == ["a", "b"]

    def test_closed_pool_cannot_block_interpreter_exit(self, tmp_path):
        """Workers killed by the supervisor and workers that die halfway
        through writing a message must leave nothing in the parent that
        interpreter exit would wait for: the parent starts no thread of
        its own for a pool, during a call or after it."""
        script = tmp_path / "exit_after_timeout.py"
        script.write_text(
            _HALF_FRAME_TASK
            + textwrap.dedent(
                """
                import threading


                class Sleep:
                    cacheable = False

                    def execute(self):
                        time.sleep(30.0)


                if __name__ == "__main__":
                    before = set(threading.enumerate())
                    during = []
                    strict = ExecPolicy(
                        task_timeout=0.5, max_attempts=1, in_process_fallback=False
                    )
                    pool = WorkerPool()
                    _, stats = execute(
                        [Sleep(), Sleep()], jobs=2, policy=strict,
                        allow_failures=True, pool=pool,
                    )
                    assert stats.infra_timeouts == 2, stats.describe()
                    _, stats = execute(
                        [HalfFrame(), HalfFrame()], jobs=2, policy=strict,
                        allow_failures=True, pool=pool,
                        progress=lambda _event: during.append(set(threading.enumerate())),
                    )
                    assert stats.infra_crashes == 2, stats.describe()
                    assert len(during) == 2 and all(seen == before for seen in during)
                    assert set(threading.enumerate()) == before, threading.enumerate()
                    pool.close()
                    print("closed", flush=True)
                """
            )
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "closed\n"
        assert time.monotonic() - started < 30

    def test_a_worker_killed_mid_send_is_a_crash_not_a_hang(self, tmp_path):
        """A worker that dies after writing a message's length header and
        part of its body: the parent reads end-of-file where the rest
        should be, settles the task as a crash, and the pool serves the
        next call.  Run in a subprocess, so a regression shows as a
        timeout rather than a hung test session."""
        script = tmp_path / "half_frame.py"
        script.write_text(
            _HALF_FRAME_TASK
            + textwrap.dedent(
                """
                class Tag:
                    cacheable = False

                    def __init__(self, tag):
                        self.tag = tag

                    def execute(self):
                        return self.tag


                if __name__ == "__main__":
                    strict = ExecPolicy(max_attempts=1, in_process_fallback=False)
                    with WorkerPool() as pool:
                        payloads, stats = execute(
                            [HalfFrame()], jobs=2, policy=strict,
                            allow_failures=True, pool=pool,
                        )
                        assert payloads == [None], payloads
                        assert stats.infra_crashes == 1, stats.describe()
                        payloads, stats = execute(
                            [Tag("a"), Tag("b")], jobs=2, pool=pool
                        )
                        assert payloads == ["a", "b"], payloads
                        assert stats.infra_failures == 0, stats.describe()
                    print("served", flush=True)
                """
            )
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run(
            [sys.executable, str(script)], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "served\n"

    def test_call_aborted_mid_task_cannot_answer_the_next_call(self):
        """A call that leaves by an exception while a worker is still
        computing: the worker is stopped, and whatever it had posted is
        of a dead epoch."""

        def explode(_event):
            raise RuntimeError("consumer failed")

        with WorkerPool() as pool:
            with pytest.raises(RuntimeError, match="consumer failed"):
                execute(
                    [_PidTask("quick"), _SleepTask(config(), 0.5)],
                    jobs=2,
                    progress=explode,
                    pool=pool,
                )
            assert len(pool.pids()) == 1  # the sleeper was stopped
            time.sleep(0.6)  # had it lived, its answer would be queued by now
            payloads, _ = execute([_PidTask("x"), _PidTask("y")], jobs=2, pool=pool)
            assert [tag for tag, _pid in payloads] == ["x", "y"]

    def test_policy_is_per_call_on_a_shared_pool(self, tmp_path):
        with WorkerPool() as pool:
            # call 1: a tight budget and no retries
            strict = ExecPolicy(
                task_timeout=0.3, max_attempts=1, in_process_fallback=False
            )
            payloads, stats = execute(
                [_SleepTask(config(), 1.0)],
                jobs=2,
                policy=strict,
                allow_failures=True,
                pool=pool,
            )
            assert payloads == [None] and stats.failures[0].kind == "timeout"
            # call 2: the same task under a generous budget finishes
            payloads, stats = execute(
                [_SleepTask(config(), 1.0)],
                jobs=2,
                policy=ExecPolicy(task_timeout=30.0),
                pool=pool,
            )
            assert payloads == ["finished-sleeping"] and stats.infra_failures == 0
            # call 3: retries allowed, so a crash-once task recovers
            marker = tmp_path / "crash-once"
            marker.touch()
            cfg = config()
            payloads, stats = execute(
                [_FlakyCrashTask(cfg, str(marker))],
                jobs=2,
                policy=ExecPolicy(
                    max_attempts=3, backoff_base=0.01, in_process_fallback=False
                ),
                pool=pool,
            )
            assert payloads == [Simulator(cfg).run()]
            assert stats.infra_crashes == 1 and stats.infra_retries == 1
            assert stats.pool["respawned"] == 1

    def test_sigterm_kills_a_worker_whatever_its_parent_handles(self, tmp_path):
        """Workers are forked from processes that route SIGTERM to a
        graceful drain (``serve()``); a worker must not inherit that."""
        marker = tmp_path / "sigterm-once"
        marker.touch()
        caught = []
        previous = signal.signal(signal.SIGTERM, lambda *_args: caught.append(1))
        try:
            payloads, stats = execute(
                [_SigtermOnceTask(str(marker))],
                jobs=2,
                policy=ExecPolicy(
                    task_timeout=5.0,
                    max_attempts=2,
                    backoff_base=0.01,
                    in_process_fallback=False,
                ),
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert payloads == ["second-attempt"]
        assert [e.kind for e in stats.infra_events] == ["task_crash", "task_retry"]
        assert stats.infra_crashes == 1 and stats.infra_timeouts == 0
        assert caught == []  # the parent's handler ran nowhere

    def test_close_is_idempotent_and_exit_on_error_leaves_no_child(self):
        pool = WorkerPool()
        execute([_PidTask("a"), _PidTask("b")], jobs=2, pool=pool)
        pids = pool.pids()
        pool.close()
        pool.close()
        assert pool.describe()["workers"] == 0
        for pid in pids:
            _wait_dead(pid)
        with pytest.raises(RuntimeError, match="closed"):
            execute([_PidTask("a"), _PidTask("b")], jobs=2, pool=pool)

        with pytest.raises(KeyError):
            with WorkerPool() as pool:
                execute(
                    [_PidTask("a"), _SleepTask(config(), 30.0)], jobs=2, pool=pool,
                    progress=lambda _event: {}["boom"],
                )
        assert _no_children()

    def test_pool_opened_by_the_call_is_closed_by_the_call(self):
        payloads, stats = execute([_PidTask("a"), _PidTask("b")], jobs=2)
        assert stats.pool["spawned"] == 2
        for _tag, pid in payloads:
            _wait_dead(pid)
        assert _no_children()


class TestKillAndResume:
    """The tentpole property on an 8x8 sweep: SIGKILL a worker and the
    whole parent mid-run, resume from the checkpoint, and the surviving
    results are bit-for-bit identical to an uninterrupted jobs=1 run."""

    def test_chaos_kill_and_resume_matches_serial(self, tmp_path):
        from repro.exec.chaos import run_chaos

        report = run_chaos(
            tmp_path / "chaos",
            radix=8,
            jobs=2,
            seed=99,
            worker_kills=1,
            parent_kills=1,
            rates=(0.004, 0.008, 0.012, 0.016, 0.020, 0.024),
            warmup=100,
            measure=300,
        )
        assert report.ok, report.describe()
        assert report.identical
        assert report.parent_kills == 1
        assert report.worker_kills_claimed == 1
        assert report.rounds == 2  # one killed round + one clean resume
        assert report.fsck_report.clean


class TestWorkerNetworkReuse:
    def test_network_cache_shared_by_signature(self):
        from repro.exec.executor import _NETWORK_CACHE, _shared_network

        _NETWORK_CACHE.clear()
        a = _shared_network(config(rate=0.004))
        b = _shared_network(config(rate=0.016, seed=12))  # same network
        c = _shared_network(config(fault_percent=1))  # different network
        assert a is b and a is not c
        assert len(_NETWORK_CACHE) == 2
        _NETWORK_CACHE.clear()

    def test_network_cache_bounded(self):
        from repro.exec.executor import (
            _NETWORK_CACHE,
            _NETWORK_CACHE_MAX,
            _shared_network,
        )

        _NETWORK_CACHE.clear()
        for radix in (4, 5, 6, 7, 8):
            _shared_network(config(radix=radix, warmup_cycles=0, measure_cycles=10))
        assert len(_NETWORK_CACHE) <= _NETWORK_CACHE_MAX
        _NETWORK_CACHE.clear()

    def test_campaign_task_never_cached(self, tmp_path):
        """Campaign results must not be served from the point store."""
        from repro.exec import CampaignTask
        from repro.reliability import FaultCampaign

        store = ResultStore(tmp_path)
        task = CampaignTask(
            config=config(warmup_cycles=0, measure_cycles=10),
            campaign=FaultCampaign([]),
            settle_cycles=100,
        )
        _, first = execute([task], store=store)
        _, second = execute([task], store=store)
        assert first.cache_hits == second.cache_hits == 0
        assert len(store) == 0
