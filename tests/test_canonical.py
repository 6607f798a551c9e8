"""The canonical digest and the key spaces built on it.

The literals below were computed on the commit *before*
``repro.canonical`` existed, when each of these methods spelled out its
own ``sha256(json.dumps(..., sort_keys=True, separators=(",", ":")))``.
They pin the encoding: a result store, a ``--resume`` directory, a
service root and a tally log written by that commit must still be
addressed by this one."""

from repro.canonical import canonical_digest
from repro.exec.executor import CampaignTask
from repro.mc import MCCell, MCPlan, MCSettings
from repro.mc.engine import MCShardTask
from repro.reliability import FaultCampaign, FaultEvent, ReliabilityConfig
from repro.service.jobs import JobSpec
from repro.sim import SimulationConfig

CAMPAIGN = FaultCampaign(
    [
        FaultEvent(cycle=100, nodes=((2, 2),)),
        FaultEvent(cycle=250, links=(((5, 5), 0, 1),), label="link"),
    ]
)
CELL = MCCell(radix=8, num_node_faults=3, policy="ft")


def test_encoding_is_compact_sorted_json():
    assert canonical_digest({"b": [1, 2.5, None], "a": "x"}) == canonical_digest(
        {"a": "x", "b": [1, 2.5, None]}
    )
    # sha256 of b'{"a":1}'
    assert (
        canonical_digest({"a": 1})
        == "015abd7f5cc57a2dd94b7590f04ad8084273905ee33ec5cebeae62276a97f862"
    )


def test_store_key_of_the_default_config():
    assert (
        SimulationConfig().content_hash("sim-v3")
        == "b20d2af0ff7551e5ab6f65a5826eb4ca3556608a4bf1b28736801933622799a7"
    )


def test_service_job_id():
    spec = JobSpec(
        kind="sweep",
        config=SimulationConfig(radix=4, warmup_cycles=10, measure_cycles=20).to_canonical(),
        rates=(0.01, 0.02),
        seeds=(1,),
        label="cosmetic, not part of the id",
    )
    assert spec.job_id() == "f083e55640cc7fe367ee0c1027fe7adb4227305150a550580e4d30136eeae6b1"


def test_campaign_hash_and_campaign_task_key():
    assert (
        CAMPAIGN.content_hash()
        == "e5a1a8d7db851a269091cb0b306cb6f36b1b560c531e8a0e075a02c7d4ebd446"
    )
    task = CampaignTask(
        config=SimulationConfig(radix=8, rate=0.004, seed=3),
        campaign=CAMPAIGN,
        reliability=ReliabilityConfig(),
        settle_cycles=500,
    )
    assert (
        task.checkpoint_key()
        == "b31f8d42ee1d31ebc1fadc911be685329ff822153da907607c5ad71b77844fc0"
    )


def test_mc_shard_key_and_plan_key():
    shard = MCShardTask(cell=CELL, master_seed=7, shard_index=2, shard_size=64)
    assert (
        shard.checkpoint_key()
        == "8366e271f2e47641d54b3db17ada95aa4975265b5799665311ddacebea0bd593"
    )
    plan = MCPlan(cells=(CELL,), settings=MCSettings(), master_seed=7)
    assert plan.plan_key() == "8d926dc40673d2e1"
