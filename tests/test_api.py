"""Tests for the repro.api facade: Experiment construction, ResultSet
semantics, caching behavior, and parity with the deprecated wrappers."""

import json
from collections import Counter

import pytest

from repro.api import Experiment, ResultSet
from repro.exec import ResultStore
from repro.reliability import (
    FaultCampaign,
    FaultEvent,
    ReliabilityConfig,
    ReliableTransport,
    replay_campaign,
)
from repro.sim import SimulationConfig, Simulator


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


class TestConstructors:
    def test_point(self):
        exp = Experiment.point(config(), label="p")
        assert len(exp) == 1 and exp.label == "p"
        assert exp.configs == [config()]

    def test_sweep_orders_rates(self):
        exp = Experiment.sweep(config(), [0.004, 0.008, 0.012])
        assert [c.rate for c in exp.configs] == [0.004, 0.008, 0.012]

    def test_sweep_with_seeds_is_rate_major(self):
        exp = Experiment.sweep(config(), [0.004, 0.008], seeds=[1, 2])
        assert [(c.rate, c.seed) for c in exp.configs] == [
            (0.004, 1),
            (0.004, 2),
            (0.008, 1),
            (0.008, 2),
        ]

    def test_from_configs(self):
        configs = [config(rate=0.004), config(rate=0.02, seed=9)]
        assert Experiment.from_configs(configs).configs == configs

    def test_concatenation(self):
        exp = Experiment.point(config(), label="a") + Experiment.point(
            config(rate=0.02), label="b"
        )
        assert len(exp) == 2 and exp.label == "a+b"


class TestRun:
    def test_run_matches_direct_simulation(self):
        rs = Experiment.sweep(config(), [0.004, 0.012]).run(cache=False)
        direct = [Simulator(c).run() for c in Experiment.sweep(config(), [0.004, 0.012]).configs]
        assert list(rs) == direct
        assert rs.rates == [0.004, 0.012]

    def test_cache_accepts_store_instance(self, tmp_path):
        store = ResultStore(tmp_path)
        exp = Experiment.sweep(config(), [0.004, 0.008])
        cold = exp.run(cache=store)
        warm = exp.run(cache=store)
        assert cold.stats.cache_hits == 0 and cold.stats.executed == 2
        assert warm.stats.cache_hits == 2 and warm.stats.executed == 0
        assert list(cold) == list(warm)

    def test_cache_true_uses_env_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        exp = Experiment.point(config())
        exp.run(cache=True)
        rs = exp.run(cache=True)
        assert rs.stats.cache_hits == 1

    def test_cache_false_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        Experiment.point(config()).run(cache=False)
        assert not (tmp_path / "store").exists()

    def test_each_config_is_hashed_once_per_call(self, tmp_path, monkeypatch):
        """A task's key is derived once per call and serves the
        checkpoint, the store lookup and the store write: a cold run
        hashes each config once more, for its network signature; a warm
        run hashes it once."""
        configs = [
            config(radix=4, rate=0.01 + 0.0001 * i, warmup_cycles=5, measure_cycles=15, seed=i)
            for i in range(100)
        ]
        exp = Experiment.from_configs(configs)
        store = ResultStore(tmp_path / "store")
        calls = []
        content_hash = SimulationConfig.content_hash

        def counted(self, version_tag=""):
            calls.append(version_tag)
            return content_hash(self, version_tag)

        monkeypatch.setattr(SimulationConfig, "content_hash", counted)
        cold = exp.run(jobs=1, store=store, resume=tmp_path / "ckpt")
        assert cold.stats.executed == 100
        assert Counter(calls) == {store.version: 100, "network": 100}
        calls.clear()
        warm = exp.run(jobs=1, store=store, resume=tmp_path / "ckpt")
        assert warm.stats.cache_hits == 100 and list(warm) == list(cold)
        assert calls == [store.version] * 100


class TestResultSet:
    @pytest.fixture(scope="class")
    def rs(self):
        return Experiment.sweep(config(), [0.004, 0.016]).run(cache=False)

    def test_sequence_protocol(self, rs):
        assert len(rs) == 2
        assert rs[0].rate == 0.004 and rs[-1].rate == 0.016
        assert [r.rate for r in rs] == rs.rates

    def test_saturation_and_best(self, rs):
        assert rs.saturation_utilization() == max(r.bisection_utilization for r in rs)
        assert rs.best_throughput() in list(rs)

    def test_serialization_helpers(self, rs):
        dicts = rs.to_dicts()
        assert len(dicts) == 2 and dicts[0]["rate"] == 0.004
        assert json.loads(rs.to_json()) == dicts
        assert len(rs.rows().splitlines()) == 2

    def test_empty(self):
        rs = ResultSet([])
        assert len(rs) == 0 and rs.saturation_utilization() == 0.0

    def test_summary_includes_infra_counters(self, rs):
        summary = rs.summary()
        assert summary["points"] == 2 and summary["executed"] == 2
        for counter in (
            "infra_retries",
            "infra_timeouts",
            "infra_crashes",
            "infra_hung",
            "quarantined",
            "replayed_failures",
        ):
            assert summary[counter] == 0  # a healthy run stays all-zero


class TestCampaignExperiment:
    CAMPAIGN = FaultCampaign([FaultEvent(150, nodes=((3, 3),), label="die")])

    def base(self):
        return config(warmup_cycles=0, measure_cycles=10, rate=0.008)

    def test_matches_direct_replay(self):
        rs = Experiment.campaign(
            self.base(),
            self.CAMPAIGN,
            reliability=ReliabilityConfig(timeout=200),
            settle_cycles=300,
        ).run(cache=False)
        assert len(rs) == 1
        outcome = rs.outcomes[0]

        sim = Simulator(self.base())
        ReliableTransport(sim, ReliabilityConfig(timeout=200))
        direct = replay_campaign(sim, self.CAMPAIGN, settle_cycles=300)
        assert outcome.applied_events == direct.applied_events
        assert outcome.final_cycle == direct.final_cycle
        assert outcome.drained == direct.drained
        assert rs.descriptions[0] == sim.net.describe()

    def test_campaign_runs_through_worker_pool(self):
        rs = Experiment.campaign(self.base(), self.CAMPAIGN, settle_cycles=300).run(
            jobs=2, cache=False
        )
        assert rs.outcomes[0].applied_events == 1
        assert rs[0].delivered > 0


class TestDeprecatedWrappers:
    def test_run_campaign_warns_and_delegates(self):
        from repro.reliability import run_campaign

        campaign = FaultCampaign([FaultEvent(150, nodes=((3, 3),), label="die")])
        sim = Simulator(config(warmup_cycles=0, measure_cycles=10, rate=0.008))
        with pytest.warns(DeprecationWarning, match="replay_campaign"):
            legacy = run_campaign(sim, campaign, settle_cycles=300)

        fresh = Simulator(config(warmup_cycles=0, measure_cycles=10, rate=0.008))
        modern = replay_campaign(fresh, campaign, settle_cycles=300)
        assert legacy.applied_events == modern.applied_events
        assert legacy.final_cycle == modern.final_cycle
