"""Tests for the campaign service (repro.service): spec validation and
identity, journal recovery, admission control, drain semantics, and the
HTTP surface end to end.  The crash/kill properties live in
tests/test_service_chaos.py.
"""

import json
import re
import socket
import threading
import time

import pytest

from repro.canonical import from_data, to_data
from repro.exec.durable import append_jsonl
from repro.service import (
    CampaignService,
    Draining,
    JobSpec,
    JobStore,
    QueueFull,
    ServiceClient,
    SpecError,
    read_server_info,
    serve,
)
from repro.service import server as server_module
from repro.service.server import MAX_BODY_BYTES
from repro.sim import SimulationConfig


def tiny_config(**overrides):
    base = dict(
        topology="torus",
        radix=6,
        dims=2,
        rate=0.004,
        warmup_cycles=100,
        measure_cycles=200,
        fault_percent=1,
    )
    base.update(overrides)
    return SimulationConfig(**base)


def sweep_payload(rates=(0.004, 0.008), label="t", **overrides):
    return {
        "kind": "sweep",
        "config": tiny_config(**overrides).to_canonical(),
        "rates": list(rates),
        "label": label,
    }


#: ``(mutation of sweep_payload(), what the SpecError must say)``; every
#: message names the offending field
BAD_PAYLOADS = [
    (lambda p: p.pop("kind"), "kind"),
    (lambda p: p.update(kind="banana"), "kind"),
    (lambda p: p.update(config="not-a-dict"), "config"),
    pytest.param(lambda p: p.update(bogus=1), "bogus: unknown field", id="<lambda>-unknown spec field"),
    (lambda p: p.update(rates=[9.0]), "rate"),
    (lambda p: p.update(settle_cycles=-1), "settle_cycles"),
    (lambda p: p.update(task_timeout=0), "task_timeout"),
    (lambda p: p.update(retries=0), "retries"),
    (lambda p: p.update(campaign={"events": []}), "campaign"),
    # a wrong JSON type is refused, never coerced
    (lambda p: p.update(rates=["x"]), r"rates\[0\]: expected float, got str"),
    (lambda p: p.update(rates=5), "rates: expected list, got int"),
    (lambda p: p.update(settle_cycles="abc"), "settle_cycles: expected int, got str"),
    (lambda p: p.update(retries=[]), "retries: expected int, got list"),
    (lambda p: p.update(trace="yes"), "trace: expected bool, got str"),
    (lambda p: p.update(task_timeout=float("nan")), "task_timeout: expected a finite number"),
    # nested objects are decoded at admission, not inside a worker
    (lambda p: p.update(config={"radix": "x"}), "bad config: radix: expected int, got str"),
    (lambda p: p.update(config={"timing": 5}), "bad config: timing: expected object, got int"),
    # an unknown key inside a nested object is refused like a top-level one
    (
        lambda p: p.update(
            kind="campaign",
            rates=[],
            campaign={"events": [{"cycle": 10, "nodes": [[1, 1]], "bogus": 1}]},
        ),
        r"events\[0\]\.bogus: unknown field",
    ),
]


class TestJobSpec:
    def test_round_trip_and_stable_id(self):
        spec = JobSpec.from_payload(sweep_payload())
        again = from_data(JobSpec, to_data(spec))
        assert again == spec
        assert again.job_id() == spec.job_id()

    def test_label_is_cosmetic(self):
        a = JobSpec.from_payload(sweep_payload(label="one"))
        b = JobSpec.from_payload(sweep_payload(label="two"))
        assert a.job_id() == b.job_id()

    def test_identity_covers_execution_inputs(self):
        base = JobSpec.from_payload(sweep_payload())
        assert base.job_id() != JobSpec.from_payload(sweep_payload(rates=(0.004,))).job_id()
        assert base.job_id() != JobSpec.from_payload(sweep_payload(seed=9)).job_id()
        traced = dict(sweep_payload())
        traced["trace"] = True
        assert base.job_id() != JobSpec.from_payload(traced).job_id()
        # ... and the code-version tag
        assert base.job_id("other-version") != base.job_id()

    def test_sweep_expands_rate_major(self):
        payload = sweep_payload(rates=(0.004, 0.008))
        payload["seeds"] = [1, 2]
        spec = JobSpec.from_payload(payload)
        configs = spec.configs()
        assert [(c.rate, c.seed) for c in configs] == [
            (0.004, 1), (0.004, 2), (0.008, 1), (0.008, 2)
        ]
        assert len(spec.build_tasks()) == 4

    @pytest.mark.parametrize("mutate, message", BAD_PAYLOADS)
    def test_bad_payloads_raise_spec_error(self, mutate, message):
        payload = sweep_payload()
        mutate(payload)
        with pytest.raises(SpecError, match=message):
            JobSpec.from_payload(payload)

    def test_campaign_spec_needs_timeline(self):
        payload = {"kind": "campaign", "config": tiny_config().to_canonical()}
        with pytest.raises(SpecError, match="timeline"):
            JobSpec.from_payload(payload)

    def test_not_an_object(self):
        with pytest.raises(SpecError, match="JSON object"):
            JobSpec.from_payload([1, 2, 3])


class TestJobStoreRecovery:
    def test_journaled_submit_recovers_as_pending(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload())
        job_id = spec.job_id()
        store.write_spec(job_id, spec)
        store.journal("submit", job_id)
        records, pending = store.recover()
        assert pending == [job_id]
        assert records[job_id].state == "queued"
        assert records[job_id].recovered is True
        assert records[job_id].spec == spec

    def test_started_but_unfinished_requeues(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload())
        job_id = spec.job_id()
        store.write_spec(job_id, spec)
        store.journal("submit", job_id)
        store.journal("start", job_id)
        _, pending = store.recover()
        assert pending == [job_id]

    def test_done_with_result_stays_done(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload())
        job_id = spec.job_id()
        store.write_spec(job_id, spec)
        store.journal("submit", job_id)
        store.write_result(job_id, {"results": [], "failures": [], "stats": {"x": 1}})
        store.journal("done", job_id)
        records, pending = store.recover()
        assert pending == []
        assert records[job_id].state == "done"
        assert records[job_id].stats == {"x": 1}

    def test_done_without_readable_result_requeues(self, tmp_path):
        """The payload write precedes the journal record, so this only
        happens under external damage — and the safe answer is re-run."""
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload())
        job_id = spec.job_id()
        store.write_spec(job_id, spec)
        store.journal("submit", job_id)
        store.journal("done", job_id)  # no result.json on disk
        _, pending = store.recover()
        assert pending == [job_id]

    def test_orphan_spec_dir_is_adopted(self, tmp_path):
        """Crash between spec write and journal append: the spec exists,
        the journal never heard of it.  Recovery adopts it."""
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload())
        job_id = spec.job_id()
        store.write_spec(job_id, spec)  # never journaled
        records, pending = store.recover()
        assert pending == [job_id]
        assert records[job_id].state == "queued"

    def test_submission_order_is_preserved(self, tmp_path):
        store = JobStore(tmp_path)
        ids = []
        for rate in (0.004, 0.006, 0.008):
            spec = JobSpec.from_payload(sweep_payload(rates=(rate,)))
            ids.append(spec.job_id())
            store.write_spec(ids[-1], spec)
            store.journal("submit", ids[-1])
        _, pending = store.recover()
        assert pending == ids

    def test_torn_journal_tail_is_skipped(self, tmp_path):
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload())
        job_id = spec.job_id()
        store.write_spec(job_id, spec)
        store.journal("submit", job_id)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"op": "done", "job"')  # torn mid-write
        _, pending = store.recover()
        assert pending == [job_id]
        # the next append heals the tail instead of corrupting the line
        store.journal("start", job_id)
        entries = store.journal_entries()
        assert [e["op"] for e in entries] == ["submit", "start"]

    def test_append_helper_fsyncs_one_record_per_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"a": 1})
        append_jsonl(path, {"b": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [{"a": 1}, {"b": 2}]


class TestAdmission:
    def test_submit_runs_and_dedupes(self, tmp_path):
        service = CampaignService(tmp_path, jobs=1)
        try:
            record, created = service.submit(sweep_payload())
            assert created is True
            again, created_again = service.submit(sweep_payload(label="other"))
            assert created_again is False
            assert again is record
            deadline = time.monotonic() + 60
            while not record.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert record.state == "done"
            result = service.job_store.load_result(record.job_id)
            assert len(result["results"]) == 2
            assert result["failures"] == []
            # exec events are always exported, even when empty
            assert service.job_store.exec_events_path(record.job_id).is_file()
        finally:
            service.stop()
            service.wait_drained(timeout=60)

    def test_bounded_queue_sheds_load(self, tmp_path):
        service = CampaignService(tmp_path, jobs=1, max_queue=0)
        try:
            with pytest.raises(QueueFull) as excinfo:
                service.submit(sweep_payload())
            assert excinfo.value.retry_after >= 1
        finally:
            service.stop()
            service.wait_drained(timeout=60)

    def test_draining_refuses_new_work(self, tmp_path):
        service = CampaignService(tmp_path, jobs=1)
        service.drain()
        assert service.wait_drained(timeout=60)
        with pytest.raises(Draining):
            service.submit(sweep_payload())

    def test_recovered_pending_job_runs_on_next_start(self, tmp_path):
        """Drain semantics: a job still queued when the server stops is
        journaled, and the next server run picks it up and finishes it."""
        store = JobStore(tmp_path)
        spec = JobSpec.from_payload(sweep_payload(rates=(0.004,)))
        job_id = spec.job_id()
        store.write_spec(job_id, spec)
        store.journal("submit", job_id)

        service = CampaignService(tmp_path, jobs=1)
        try:
            record = service.get(job_id)
            assert record is not None and record.recovered
            deadline = time.monotonic() + 60
            while not record.terminal and time.monotonic() < deadline:
                time.sleep(0.02)
            assert record.state == "done"
        finally:
            service.stop()
            service.wait_drained(timeout=60)

    def test_status_reuses_execution_stats_schema(self, tmp_path):
        service = CampaignService(tmp_path, jobs=1)
        try:
            status = service.status()
            assert status["stats"] == service.totals.to_dict()
            for key in ("infra_retries", "infra_crashes", "hit_ratio", "quarantined"):
                assert key in status["stats"]
        finally:
            service.stop()
            service.wait_drained(timeout=60)


class TestServicePool:
    def test_jobs_in_a_row_run_on_the_same_workers(self, tmp_path):
        service = CampaignService(tmp_path, jobs=2)
        try:
            assert service.status()["pool"]["spawned"] == 0  # lazy: no job yet
            pids = []
            for seed in (1, 2, 3):
                record, _ = service.submit(sweep_payload(seed=seed))
                deadline = time.monotonic() + 60
                while not record.terminal and time.monotonic() < deadline:
                    time.sleep(0.02)
                assert record.state == "done"
                pids.append(service.pool.pids())
            assert pids[0] == pids[1] == pids[2] and len(pids[0]) == 2
            status = service.status()
            assert status["pool"] == {
                "workers": 2, "spawned": 2, "respawned": 0, "tasks_run": 6
            }
            assert status["stats"]["pool"] == status["pool"]
        finally:
            service.stop()
            assert service.wait_drained(timeout=60)
        # stopped: the runner closed the pool on its way out
        assert service.pool.describe()["workers"] == 0
        for pid in pids[0]:
            assert not _running(pid)


def _running(pid):
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _children(pid):
    """Pids whose parent is ``pid`` (Linux ``/proc``)."""
    import os

    found = []
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(name))
    return found


@pytest.fixture
def live_server(tmp_path):
    """A real HTTP server on an ephemeral port, drained at teardown."""
    root = tmp_path / "svc"
    thread = threading.Thread(
        target=serve,
        args=(root,),
        kwargs=dict(port=0, jobs=1, max_queue=4, install_signals=False),
        daemon=True,
    )
    thread.start()
    client = ServiceClient(root, attempts=20)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if (root / "server.json").is_file():
            break
        time.sleep(0.01)
    yield client
    client.drain()
    thread.join(timeout=60)


def raw_request(root, head, body=b""):
    """One request on a fresh socket, sent as raw bytes with
    ``Connection: close``: the status code and the body, read to EOF.
    The client-side timeout turns a server that never answers into a
    failure, not a hang."""
    info = read_server_info(root)
    with socket.create_connection((info["host"], info["port"]), timeout=5) as sock:
        sock.sendall(f"{head}\r\nHost: test\r\nConnection: close\r\n\r\n".encode() + body)
        data = sock.makefile("rb").read()
    status_line, _, rest = data.partition(b"\r\n")
    return int(status_line.split()[1]), rest.partition(b"\r\n\r\n")[2]


class TestHTTP:
    def test_submit_wait_result_and_idempotency(self, live_server):
        client = live_server
        summary = client.submit(sweep_payload())
        assert summary["state"] in ("queued", "running", "done")
        result = client.wait(summary["job"], timeout=120)
        assert len(result["results"]) == 2
        assert result["failures"] == []
        assert result["stats"]["total"] == 2
        again = client.submit(sweep_payload())
        assert again["job"] == summary["job"]
        assert again["state"] == "done"

    def test_events_stream_progress(self, live_server):
        client = live_server
        summary = client.submit(sweep_payload(rates=(0.004, 0.006, 0.008)))
        client.wait(summary["job"], timeout=120)
        events = list(client.events(summary["job"]))
        # one line per completed point, then the terminal summary line
        progress = [e for e in events if "completed" in e and "state" not in e]
        assert [e["completed"] for e in progress] == [1, 2, 3]
        assert events[-1]["state"] == "done"

    def test_bad_spec_is_rejected_with_400(self, live_server):
        from repro.service import ClientError

        with pytest.raises(ClientError) as excinfo:
            live_server.submit({"kind": "nope"})
        assert excinfo.value.status == 400

    def test_malformed_specs_get_400_naming_the_field(self, live_server):
        """One attempt each: a refusal is a 400 that says what is wrong,
        not a dropped connection the client retries until it gives up."""
        from repro.service import ClientError

        from .test_mc_service import BAD_MC_PAYLOADS, mc_payload

        client = ServiceClient(live_server.root, attempts=1)
        cases = [(sweep_payload, case) for case in BAD_PAYLOADS]
        cases += [(mc_payload, case) for case in BAD_MC_PAYLOADS]
        for make, case in cases:
            mutate, message = getattr(case, "values", case)
            payload = make()
            mutate(payload)
            with pytest.raises(ClientError) as excinfo:
                client.submit(payload)
            assert excinfo.value.status == 400, message
            assert re.search(message, str(excinfo.value)), (message, str(excinfo.value))

    @pytest.mark.parametrize(
        "length, status",
        [("abc", 400), ("-5", 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 413)],
    )
    def test_content_length_is_client_input(self, live_server, length, status):
        """Answered from the header alone, within a second — ``-1`` must
        never reach ``rfile.read(-1)``, which blocks until the client
        hangs up — and the server takes the next request."""
        info = read_server_info(live_server.root)
        with socket.create_connection((info["host"], info["port"]), timeout=1) as sock:
            sock.sendall(
                b"POST /jobs HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: " + length.encode() + b"\r\n\r\n"
            )
            status_line = sock.makefile("rb").readline()
        assert status_line.split()[1] == str(status).encode()
        assert ServiceClient(live_server.root, attempts=1).status()["max_queue"] == 4

    def test_events_since_is_client_input(self, live_server):
        """``since`` that is not a non-negative integer is a 400 naming
        it, never a dropped connection (``abc``) or a stream that repeats
        events (``-1``); ``since=0`` streams every event once."""
        job = live_server.submit(sweep_payload())["job"]
        live_server.wait(job, timeout=120)
        for since in ("abc", "-1", "1.5"):
            status, body = raw_request(
                live_server.root, f"GET /jobs/{job}/events?since={since} HTTP/1.1"
            )
            assert status == 400, since
            assert "since" in json.loads(body)["error"], since
        status, body = raw_request(live_server.root, f"GET /jobs/{job}/events?since=0 HTTP/1.1")
        events = [json.loads(line) for line in body.splitlines()]
        assert status == 200
        assert [e["completed"] for e in events[:-1]] == [1, 2]
        assert events[-1]["state"] == "done"

    def test_short_body_times_out_with_408(self, live_server, monkeypatch):
        """A body that stops short of its ``Content-Length`` is answered
        408 once the socket timeout passes, not left blocking its handler
        in ``rfile.read``, and the server takes the next request."""
        monkeypatch.setattr(server_module, "REQUEST_TIMEOUT_S", 0.5)
        started = time.monotonic()
        status, body = raw_request(
            live_server.root, "POST /jobs HTTP/1.1\r\nContent-Length: 100", b"{" * 10
        )
        assert status == 408
        assert "stopped short" in json.loads(body)["error"]
        assert time.monotonic() - started < 4
        assert ServiceClient(live_server.root, attempts=1).status()["max_queue"] == 4

    def test_unknown_job_404s(self, live_server):
        from repro.service import ClientError

        with pytest.raises(ClientError) as excinfo:
            live_server.job("f" * 64)
        assert excinfo.value.status == 404

    def test_status_endpoint(self, live_server):
        status = live_server.status()
        assert status["max_queue"] == 4
        assert "stats" in status and "infra_retries" in status["stats"]


class TestServedProcessDrain:
    def test_sigterm_after_jobs_exits_clean_and_leaves_no_child(self, tmp_path):
        """Persistent workers are forked after ``serve()`` installed its
        SIGTERM handler; the server must still stop them and exit 0
        promptly, not hang in the exit-time join of ``multiprocessing``."""
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        root = tmp_path / "svc"
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "serve", "--root", str(root), "--jobs", "2"],
            env=env,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 30
            while not (root / "server.json").is_file():
                assert server.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            client = ServiceClient(root, attempts=20)
            for seed in (1, 2):
                summary = client.submit(sweep_payload(seed=seed))
                assert client.wait(summary["job"], timeout=120)["failures"] == []
            workers = _children(server.pid)
            assert len(workers) == 2
            assert client.status()["pool"]["spawned"] == 2
            started = time.monotonic()
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=5) == 0
            assert time.monotonic() - started < 5
            assert not any(_running(pid) for pid in workers)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()

    def test_idle_drain_answers_before_the_process_exits(self, tmp_path):
        """``POST /drain`` on an idle served process: the drain watcher
        stops the listener at once and handler threads are daemons, so
        the 202 must be on the wire before the drain begins — every
        time, with a complete body and exit code 0."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        for round_index in range(20):
            root = tmp_path / f"svc{round_index}"
            server = subprocess.Popen(
                [sys.executable, "-m", "repro.service", "serve", "--root", str(root), "--jobs", "1"],
                env=env,
                stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.monotonic() + 30
                while not (root / "server.json").is_file():
                    assert server.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                # one attempt: a torn response must surface, not be retried
                answer = ServiceClient(root, attempts=1).request("POST", "/drain")
                assert answer == (202, {"draining": True})
                assert server.wait(timeout=60) == 0
            finally:
                if server.poll() is None:
                    server.kill()
                    server.wait()
