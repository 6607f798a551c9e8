"""Monte-Carlo reliability estimation (``repro.mc``).

Estimates R(k) = P(network survives k random faults) by sampling seeded
fault patterns per (topology, fault-count, policy) **cell** and
classifying each through the degraded-mode machinery — routable-as-is,
degradable, or fatal — with confidence-interval-driven early stopping.
A slower simulation tier attaches throughput/latency-degradation
numbers to a deterministic stratified subsample.  See
``docs/reliability_mc.md`` for the estimator math and the
validation-against-enumeration methodology.

Layering: ``sampler`` (index-addressed seeded draws) -> ``classify``
(one pattern, one verdict) -> ``tally`` (mergeable sufficient
statistics + crash-safe log) -> ``engine`` (shard tasks, prefix-exact
early stopping) -> ``exact``/``simulate``/``report`` (validation,
performance tier, artifacts).  The campaign service runs plans as
``mc`` jobs; ``repro-experiments mc`` is the CLI front end.
"""

from .classify import (
    CLASS_LABELS,
    DEGRADED,
    FATAL,
    FATAL_EXCEPTIONS,
    ROUTABLE,
    Classification,
    classify_pattern,
)
from .engine import (
    CellEstimate,
    MCCell,
    MCPlan,
    MCProgress,
    MCRunResult,
    MCSettings,
    MCShardTask,
    run_cell,
    run_plan,
)
from .estimators import (
    INTERVAL_METHODS,
    binomial_interval,
    clopper_pearson_interval,
    half_width,
    samples_for_half_width,
    wilson_interval,
)
from .exact import ExactResult, exact_classification
from .report import curve_chart, curve_csv, curve_table, render_report
from .sampler import PatternSampler, max_link_faults, max_node_faults, pattern_seed
from .simulate import SimTierRow, run_simulation_tier, simulation_configs
from .tally import DEFAULT_RESERVOIR, ShardTally, TallyLog, merge_tallies

__all__ = [
    "CLASS_LABELS",
    "DEGRADED",
    "FATAL",
    "FATAL_EXCEPTIONS",
    "ROUTABLE",
    "Classification",
    "classify_pattern",
    "CellEstimate",
    "MCCell",
    "MCPlan",
    "MCProgress",
    "MCRunResult",
    "MCSettings",
    "MCShardTask",
    "run_cell",
    "run_plan",
    "INTERVAL_METHODS",
    "binomial_interval",
    "clopper_pearson_interval",
    "half_width",
    "samples_for_half_width",
    "wilson_interval",
    "ExactResult",
    "exact_classification",
    "curve_chart",
    "curve_csv",
    "curve_table",
    "render_report",
    "PatternSampler",
    "max_link_faults",
    "max_node_faults",
    "pattern_seed",
    "SimTierRow",
    "run_simulation_tier",
    "simulation_configs",
    "DEFAULT_RESERVOIR",
    "ShardTally",
    "TallyLog",
    "merge_tallies",
]
