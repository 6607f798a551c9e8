"""Legacy high-level drivers, now thin wrappers over :mod:`repro.api`.

Historical note: ``sweep_rates`` used to build one :class:`SimNetwork`
and share it, mutably, across every point of the sweep.  That sharing is
what blocked safe parallelism, so the **network-reuse contract** is now
explicit and enforced by the executor instead:

* a network object may be reused only between runs whose configs have
  equal :meth:`~repro.sim.config.SimulationConfig.network_signature`;
* reuse is per worker process — never across processes, never
  concurrently — with :meth:`SimNetwork.reset` between runs (performed
  by ``Simulator.__init__``);
* campaign replays (runtime faults mutate the network permanently) must
  always build fresh.

Fresh-per-point and reset-reuse are bit-for-bit identical because
network construction is fully determined by the config; the executor
keeps the amortized-build economics by caching one network per signature
inside each worker (:func:`repro.exec.executor._shared_network`).

Either way each point runs on whatever simulation core is configured
(``REPRO_SIM_CORE``; the work-list core by default) — both cores are
bit-for-bit result-identical, so sweep outputs and cache keys are
core-independent (see docs/architecture.md).

New code should use :class:`repro.api.Experiment`; the functions here
emit :class:`DeprecationWarning` and delegate.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, Optional, Sequence

from .config import SimulationConfig
from .engine import Simulator
from .metrics import SimulationResult
from .network import SimNetwork


def run_point(config: SimulationConfig, network: Optional[SimNetwork] = None) -> SimulationResult:
    """Deprecated: use ``Experiment.point(config).run(...)``.

    The ``network`` parameter is honored for compatibility (the caller
    owns the reuse contract in that case)."""
    warnings.warn(
        "run_point is deprecated; use repro.api.Experiment.point(config).run()",
        DeprecationWarning,
        stacklevel=2,
    )
    return Simulator(config, network).run()


def sweep_rates(
    base: SimulationConfig,
    rates: Sequence[float],
    *,
    progress: Optional[Callable[[SimulationResult], None]] = None,
) -> List[SimulationResult]:
    """Deprecated: use ``Experiment.sweep(base, rates).run(...)``, which
    adds worker-pool parallelism and result memoization on top of the
    serial loop this function used to run."""
    warnings.warn(
        "sweep_rates is deprecated; use repro.api.Experiment.sweep(base, rates).run()",
        DeprecationWarning,
        stacklevel=2,
    )
    from ..api import Experiment  # local import: repro.api imports repro.sim

    adapter = (lambda event: progress(event.payload)) if progress is not None else None
    return list(
        Experiment.sweep(base, rates).run(jobs=1, cache=False, progress=adapter)
    )


def saturation_utilization(results: Sequence[SimulationResult]) -> float:
    """Peak bisection utilization over a sweep (the paper's headline
    per-scenario number, e.g. "peak utilization for torus PDR without
    faults is 52%")."""
    return max((r.bisection_utilization for r in results), default=0.0)


def default_rate_grid(topology: str, fault_percent: int) -> List[float]:
    """Load grids that bracket each scenario's saturation point.

    Saturation for uniform traffic is roughly where the offered bisection
    load meets the bisection bandwidth; faulty networks saturate far
    earlier because f-ring channels become hotspots."""
    if fault_percent == 0:
        grid = [0.002, 0.005, 0.008, 0.012, 0.016, 0.020, 0.026, 0.032]
    elif fault_percent == 1:
        grid = [0.002, 0.004, 0.006, 0.009, 0.012, 0.016, 0.020]
    else:
        grid = [0.001, 0.003, 0.005, 0.007, 0.010, 0.014, 0.018]
    if topology == "mesh":
        # the mesh's bisection is half the torus's, but so is the average
        # path pressure; the same grids bracket saturation in practice
        return grid
    return grid
