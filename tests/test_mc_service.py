"""Tests for ``mc`` jobs on the campaign service: spec validation,
end-to-end execution through the worker pool, the per-kind status
counters, and restart recovery of terminal mc jobs.  Kill-and-resume
mid-shard lives in tests/test_service_chaos.py (the chaos mix now
includes an mc job).
"""

import time

import pytest

from repro.canonical import from_data, to_data
from repro.mc import MCCell, MCPlan, MCSettings, run_plan
from repro.service import (
    CampaignService,
    JobSpec,
    JobStore,
    SpecError,
    deterministic_blob,
)
from repro.service.server import mc_result_payload


def small_plan(**overrides):
    base = dict(
        cells=(
            MCCell(radix=4, num_node_faults=1, num_link_faults=1),
            MCCell(radix=4, num_node_faults=1, num_link_faults=2, policy="ft"),
        ),
        settings=MCSettings(
            half_width=0.05, shard_size=20, max_shards=6, min_shards=2
        ),
        master_seed=1234,
    )
    base.update(overrides)
    return MCPlan(**base)


def mc_payload(label="mc-test", **overrides):
    return {"kind": "mc", "mc": to_data(small_plan(**overrides)), "label": label}


#: ``(mutation of mc_payload(), what the SpecError must say)``
BAD_MC_PAYLOADS = [
    (lambda p: p.pop("mc"), "mc"),
    (lambda p: p.update(mc="not-a-dict"), "mc"),
    (lambda p: p.update(rates=[0.004]), "rates"),
    (lambda p: p.update(config={"radix": 8}), "config"),
    (
        lambda p: p.update(campaign={"events": []}),
        "campaign",
    ),
    (lambda p: p.update(trace=True), "trace"),
    # the plan is decoded, not coerced, and its unknown keys are refused
    (lambda p: p["mc"].update(cells="abc"), "bad mc plan: cells: expected list, got str"),
    (lambda p: p["mc"]["cells"][0].update(radix=8.9), r"cells\[0\]\.radix: expected int, got float"),
    (lambda p: p["mc"]["cells"][0].update(bogus=1), r"cells\[0\]\.bogus: unknown field"),
    (lambda p: p["mc"]["settings"].update(bogus=1), r"settings\.bogus: unknown field"),
]


def wait_terminal(record, timeout=120):
    deadline = time.monotonic() + timeout
    while not record.terminal and time.monotonic() < deadline:
        time.sleep(0.02)
    return record


class TestMCSpec:
    def test_round_trip_and_stable_id(self):
        spec = JobSpec.from_payload(mc_payload())
        again = from_data(JobSpec, to_data(spec))
        assert again == spec
        assert again.job_id() == spec.job_id()

    def test_no_static_tasks_but_a_budget(self):
        spec = JobSpec.from_payload(mc_payload())
        assert spec.build_tasks() == []
        # progress denominator: the shard-budget ceiling, not zero
        assert spec.task_total() == 2 * 6

    def test_describe_names_the_cells(self):
        assert "2 cell(s)" in JobSpec.from_payload(mc_payload()).describe()

    @pytest.mark.parametrize("mutate, message", BAD_MC_PAYLOADS)
    def test_bad_mc_payloads_raise_spec_error(self, mutate, message):
        payload = mc_payload()
        mutate(payload)
        with pytest.raises(SpecError, match=message):
            JobSpec.from_payload(payload)

    def test_bad_plan_rejected_at_admission(self):
        payload = mc_payload()
        payload["mc"] = dict(payload["mc"])
        cells = [dict(c) for c in payload["mc"]["cells"]]
        cells[0]["policy"] = "no-such-policy"
        payload["mc"]["cells"] = cells
        with pytest.raises(SpecError, match="bad mc plan"):
            JobSpec.from_payload(payload)

    def test_non_mc_jobs_cannot_carry_a_plan(self):
        from repro.sim import SimulationConfig

        payload = {
            "kind": "sweep",
            "config": SimulationConfig(
                topology="torus", radix=6, dims=2, rate=0.004
            ).to_canonical(),
            "rates": [0.004],
            "mc": to_data(small_plan()),
        }
        with pytest.raises(SpecError, match="only mc jobs"):
            JobSpec.from_payload(payload)


class TestMCService:
    def test_runs_to_done_and_matches_direct_run(self, tmp_path):
        service = CampaignService(tmp_path, jobs=2)
        try:
            record, created = service.submit(mc_payload())
            assert created is True
            wait_terminal(record)
            assert record.state == "done"

            result = service.job_store.load_result(record.job_id)
            # ground truth: the same plan run inline, no service at all
            direct = run_plan(small_plan(), jobs=1)
            expected = mc_result_payload(record.job_id, direct)
            assert deterministic_blob(result) == deterministic_blob(expected)

            # the tally log is the job's durable progress record
            assert service.job_store.tally_log_path(record.job_id).is_file()
            status = service.status()
            assert status["job_kinds"]["mc"]["done"] == 1
            assert status["stats"]["task_kinds"]["mc-shard"]["done"] > 0
        finally:
            service.stop()
            service.wait_drained(timeout=120)

    def test_resubmit_is_idempotent(self, tmp_path):
        service = CampaignService(tmp_path, jobs=1)
        try:
            record, _ = service.submit(mc_payload())
            wait_terminal(record)
            again, created = service.submit(mc_payload(label="other-label"))
            assert created is False
            assert again is record
        finally:
            service.stop()
            service.wait_drained(timeout=120)

    def test_restart_recovers_terminal_mc_job(self, tmp_path):
        first = CampaignService(tmp_path, jobs=1)
        try:
            record, _ = first.submit(mc_payload())
            wait_terminal(record)
            blob = deterministic_blob(first.job_store.load_result(record.job_id))
        finally:
            first.stop()
            first.wait_drained(timeout=120)

        second = CampaignService(tmp_path, jobs=1)
        try:
            recovered = second.get(record.job_id)
            assert recovered is not None
            assert recovered.state == "done"
            assert deterministic_blob(
                second.job_store.load_result(record.job_id)
            ) == blob
        finally:
            second.stop()
            second.wait_drained(timeout=120)

    def test_status_counts_kinds_separately(self, tmp_path):
        from repro.sim import SimulationConfig

        service = CampaignService(tmp_path, jobs=1)
        try:
            sweep = {
                "kind": "sweep",
                "config": SimulationConfig(
                    topology="torus",
                    radix=6,
                    dims=2,
                    rate=0.004,
                    warmup_cycles=100,
                    measure_cycles=200,
                    fault_percent=1,
                ).to_canonical(),
                "rates": [0.004],
            }
            record_a, _ = service.submit(sweep)
            record_b, _ = service.submit(mc_payload())
            wait_terminal(record_a)
            wait_terminal(record_b)
            kinds = service.status()["job_kinds"]
            assert kinds["sweep"]["done"] == 1
            assert kinds["mc"]["done"] == 1
        finally:
            service.stop()
            service.wait_drained(timeout=120)


class TestJobStoreTallyLog:
    def test_tally_log_path_lives_in_the_job_dir(self, tmp_path):
        store = JobStore(tmp_path)
        job_id = "a" * 64
        path = store.tally_log_path(job_id)
        assert path.name == "mc.tallies.jsonl"
        assert path.parent == store.job_dir(job_id)
