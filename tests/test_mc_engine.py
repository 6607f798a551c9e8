"""Tests for the MC engine: determinism, early stopping, and the
exact-enumeration acceptance gate.

The load-bearing property: an estimate is a pure function of
(master seed, cell, settings) — the same bits whether shards ran
serially, in parallel waves, or across a crash/resume boundary.
"""

import pytest

from repro.canonical import from_data, to_data
from repro.mc import (
    MCCell,
    MCPlan,
    MCSettings,
    MCShardTask,
    ShardTally,
    TallyLog,
    exact_classification,
    run_cell,
    run_plan,
)

CELL = MCCell(radix=4, num_node_faults=1, num_link_faults=1)
SETTINGS = MCSettings(half_width=0.05, shard_size=50, max_shards=8, min_shards=2)


class TestCellAndPlan:
    def test_cell_key_stable(self):
        assert CELL.key() == "torus4d2:n1:l1:p=-:ov0:cdg0"

    def test_cell_payload_roundtrip(self):
        assert from_data(MCCell, to_data(CELL)) == CELL

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            MCCell(radix=4, policy="no-such-policy").validate()

    def test_out_of_range_faults_rejected(self):
        with pytest.raises(ValueError):
            MCCell(radix=4, num_node_faults=17).validate()
        with pytest.raises(ValueError):
            MCCell(radix=4, num_link_faults=10**6).validate()

    def test_plan_rejects_duplicate_cells(self):
        with pytest.raises(ValueError):
            MCPlan(cells=(CELL, CELL)).validate()

    def test_plan_rejects_empty(self):
        with pytest.raises(ValueError):
            MCPlan(cells=()).validate()

    def test_settings_validate(self):
        with pytest.raises(ValueError):
            MCSettings(method="wald").validate()
        with pytest.raises(ValueError):
            MCSettings(min_shards=5, max_shards=3).validate()

    def test_plan_payload_roundtrip(self):
        plan = MCPlan(cells=(CELL,), settings=SETTINGS, master_seed=3)
        again = from_data(MCPlan, to_data(plan))
        assert again == plan
        assert again.plan_key() == plan.plan_key()


class TestShardTask:
    def test_checkpoint_key_identifies_the_shard(self):
        a = MCShardTask(cell=CELL, master_seed=7, shard_index=0, shard_size=50)
        b = MCShardTask(cell=CELL, master_seed=7, shard_index=1, shard_size=50)
        c = MCShardTask(cell=CELL, master_seed=8, shard_index=0, shard_size=50)
        assert len({a.checkpoint_key(), b.checkpoint_key(), c.checkpoint_key()}) == 3
        assert a.checkpoint_key() == MCShardTask(
            cell=CELL, master_seed=7, shard_index=0, shard_size=50
        ).checkpoint_key()

    def test_not_cacheable(self):
        # mc tallies must never land in the SimulationConfig result store
        assert MCShardTask.cacheable is False
        assert MCShardTask.kind == "mc-shard"

    def test_execute_covers_exactly_its_indices(self):
        task = MCShardTask(cell=CELL, master_seed=7, shard_index=2, shard_size=10)
        payload = task.execute()
        assert payload["count"] == 10
        assert payload["start"] == 20


class TestDeterminism:
    def test_serial_equals_parallel(self):
        serial = run_cell(CELL, SETTINGS, master_seed=7, jobs=1)
        parallel = run_cell(CELL, SETTINGS, master_seed=7, jobs=3)
        assert serial.to_payload() == parallel.to_payload()
        assert serial.digest() == parallel.digest()

    def test_resume_is_bit_for_bit(self, tmp_path):
        uninterrupted = run_cell(CELL, SETTINGS, master_seed=7, jobs=1)

        # a "crashed" first attempt: only some shards reached the log
        partial = TallyLog(tmp_path / "tallies.jsonl")
        for shard_index in range(2):
            task = MCShardTask(
                cell=CELL,
                master_seed=7,
                shard_index=shard_index,
                shard_size=SETTINGS.shard_size,
                reservoir_cap=SETTINGS.reservoir,
            )
            partial.append(
                task.checkpoint_key(), from_data(ShardTally, task.execute())
            )

        resumed = run_cell(
            CELL,
            SETTINGS,
            master_seed=7,
            jobs=2,
            tally_log=TallyLog(tmp_path / "tallies.jsonl"),
        )
        assert resumed.to_payload() == uninterrupted.to_payload()

    def test_rerun_with_full_log_executes_nothing(self, tmp_path):
        log_path = tmp_path / "tallies.jsonl"
        first = run_cell(CELL, SETTINGS, master_seed=7, tally_log=TallyLog(log_path))
        stats_parts = []
        second = run_cell(
            CELL,
            SETTINGS,
            master_seed=7,
            tally_log=TallyLog(log_path),
            stats_parts=stats_parts,
        )
        assert second.to_payload() == first.to_payload()
        assert stats_parts == []  # every shard served from the log

    def test_seed_changes_the_estimate_stream(self):
        a = run_cell(CELL, SETTINGS, master_seed=7)
        b = run_cell(CELL, SETTINGS, master_seed=8)
        assert a.reservoirs != b.reservoirs or a.counts != b.counts


class TestEarlyStopping:
    def test_stops_before_budget_on_loose_target(self):
        loose = MCSettings(half_width=0.2, shard_size=50, max_shards=8, min_shards=2)
        estimate = run_cell(CELL, loose, master_seed=7)
        assert estimate.early_stopped
        assert estimate.n < loose.max_samples
        assert estimate.half_width <= loose.half_width

    def test_budget_exhaustion_reported(self):
        # a target far below what the budget can reach: no early stop
        tight = MCSettings(half_width=0.001, shard_size=20, max_shards=3)
        estimate = run_cell(CELL, tight, master_seed=7)
        assert not estimate.early_stopped
        assert estimate.n == tight.max_samples

    def test_min_shards_respected(self):
        # half_width=0.2 is met by one shard; min_shards=4 must override
        loose = MCSettings(half_width=0.2, shard_size=50, max_shards=8, min_shards=4)
        estimate = run_cell(CELL, loose, master_seed=7)
        assert estimate.shards_used >= 4

    def test_stop_point_independent_of_wave_size(self):
        for jobs in (1, 2, 5):
            estimate = run_cell(CELL, SETTINGS, master_seed=7, jobs=jobs)
            assert estimate.shards_used == run_cell(
                CELL, SETTINGS, master_seed=7, jobs=1
            ).shards_used


class TestExactAgreement:
    """The acceptance gate: on the enumerable 4x4 torus with k <= 2
    total faults, the MC estimate must agree with the exact brute-force
    probability within its reported confidence interval."""

    @pytest.mark.parametrize("nodes,links", [(1, 0), (0, 1), (1, 1), (0, 2), (2, 0)])
    def test_exact_within_ci(self, nodes, links):
        cell = MCCell(radix=4, num_node_faults=nodes, num_link_faults=links)
        exact = exact_classification(cell.network(), nodes, links)
        settings = MCSettings(
            half_width=0.05, shard_size=100, max_shards=10, min_shards=2
        )
        estimate = run_cell(cell, settings, master_seed=7)
        assert estimate.lo - 1e-9 <= exact.p_survive <= estimate.hi + 1e-9, (
            f"exact {exact.p_survive:.4f} outside "
            f"[{estimate.lo:.4f}, {estimate.hi:.4f}] for {cell.key()}"
        )

    def test_exact_distribution_sums_to_one(self):
        exact = exact_classification(CELL.network(), 1, 1)
        assert sum(exact.probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        assert exact.patterns > 0


class TestRunPlan:
    def test_plan_runs_every_cell_and_reports_progress(self, tmp_path):
        plan = MCPlan(
            cells=(
                MCCell(radix=4, num_node_faults=1, num_link_faults=0),
                MCCell(radix=4, num_node_faults=0, num_link_faults=1),
            ),
            settings=MCSettings(half_width=0.1, shard_size=30, max_shards=4),
            master_seed=7,
        )
        events = []
        outcome = run_plan(
            plan, tally_log=tmp_path / "t.jsonl", progress=events.append
        )
        assert len(outcome.estimates) == 2
        assert [e.cell.key() for e in outcome.estimates] == [
            cell.key() for cell in plan.cells
        ]
        assert outcome.shards_executed > 0
        assert any(event.stopped for event in events)
        # the run folded executor stats for every executed shard
        assert outcome.stats.executed == outcome.shards_executed

    def test_plan_resume_via_path(self, tmp_path):
        plan = MCPlan(
            cells=(CELL,),
            settings=MCSettings(half_width=0.1, shard_size=30, max_shards=4),
        )
        first = run_plan(plan, tally_log=tmp_path / "t.jsonl")
        second = run_plan(plan, tally_log=tmp_path / "t.jsonl")
        assert second.shards_executed == 0
        assert second.shards_resumed > 0
        assert second.to_payload() == first.to_payload()

    def test_one_pool_serves_every_cell_and_wave(self, tmp_path):
        """A multi-cell plan at jobs=2 is many waves but spawns exactly
        two workers, and stays bit-for-bit the serial and the
        crash-resumed plan."""
        plan = MCPlan(
            cells=(
                MCCell(radix=4, num_node_faults=1, num_link_faults=0),
                MCCell(radix=4, num_node_faults=0, num_link_faults=1),
                CELL,
            ),
            settings=MCSettings(half_width=0.05, shard_size=30, max_shards=6, min_shards=2),
            master_seed=7,
        )
        serial = run_plan(plan, jobs=1)
        assert not any(serial.stats.pool.values())  # jobs=1 never touches a pool

        log_path = tmp_path / "t.jsonl"
        parallel = run_plan(plan, jobs=2, tally_log=log_path)
        waves = parallel.shards_executed // 2
        assert waves > len(plan.cells)
        assert parallel.stats.pool == {
            "workers": 2,
            "spawned": 2,
            "respawned": 0,
            "tasks_run": parallel.shards_executed,
        }

        # crash after the first cell: its shards are in the log, the rest re-run
        lines = log_path.read_text().splitlines(True)
        log_path.write_text("".join(lines[: serial.estimates[0].shards_used]))
        resumed = run_plan(plan, jobs=2, tally_log=log_path)
        assert resumed.shards_resumed == serial.estimates[0].shards_used
        assert resumed.stats.pool["spawned"] == 2

        digests = [e.digest() for e in serial.estimates]
        assert [e.digest() for e in parallel.estimates] == digests
        assert [e.digest() for e in resumed.estimates] == digests

    def test_caller_owned_pool_outlives_the_plan(self):
        from repro.exec import WorkerPool

        plan = MCPlan(
            cells=(CELL,),
            settings=MCSettings(half_width=0.1, shard_size=30, max_shards=4),
        )
        with WorkerPool() as pool:
            first = run_plan(plan, jobs=2, pool=pool)
            pids = pool.pids()
            second = run_plan(plan, jobs=2, pool=pool)
            assert pool.pids() == pids and len(pids) == 2
        assert second.to_payload() == first.to_payload()
        assert second.stats.pool["spawned"] == 0


class TestCellNetworkMemo:
    def test_cells_of_one_shape_share_one_network(self):
        a = MCCell(radix=4, num_node_faults=1)
        b = MCCell(radix=4, num_link_faults=2, policy="ft")
        assert a.network() is b.network()
        assert a.network() is not MCCell(radix=4, topology="mesh").network()
        assert a.network() is not MCCell(radix=4, dims=3).network()

    def test_memo_is_bounded(self):
        from repro.mc.engine import _cell_network

        for radix in range(3, 12):
            MCCell(radix=radix).network()
        info = _cell_network.cache_info()
        assert info.currsize <= info.maxsize == 4
