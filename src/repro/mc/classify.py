"""The fast classification tier: one fault pattern in, one label out.

Every sampled pattern lands in exactly one of three classes:

* ``routable`` — :func:`~repro.faults.generation.degrade_fault_pattern`
  is a no-op: the pattern is already a valid block pattern and the
  network routes around it with zero sacrificed nodes;
* ``degraded`` — degraded mode saves the network by sacrificing healthy
  nodes (blocking-rule expansion, box-filling, region merges); the
  network survives at reduced capacity;
* ``fatal`` — no amount of sacrifice helps: the pattern disconnects the
  healthy nodes, breaks f-ring geometry irreparably, defeats the
  overlap coloring, or the convexification fails to converge.  With a
  ``policy`` attached, a pattern whose scenario the policy cannot build
  a routing relation for is also fatal *for that policy* (plain e-cube
  rejects every non-empty pattern — its R(k) curve is the monolithic
  baseline the paper argues against).

Survival (the R(k) numerator) is ``routable + degraded``.  The optional
``check_cdg`` knob additionally runs the channel-dependency-graph
acyclicity check through a full :class:`~repro.sim.network.SimNetwork`
build — measured at ~0.2 s per pattern on an 8x8 torus and ~5.6 s on
16x16, against ~0.5 ms and ~0.4 ms for the geometric verdict alone (two
to four orders of magnitude) — so it is off by default and exposed as a
CLI flag for audit runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..faults.fault_model import FaultSet
from ..faults.fault_rings import RingGeometryError
from ..faults.generation import FaultGenerationError, degrade_fault_pattern
from ..faults.overlaps import OverlapColoringError
from ..faults.regions import NetworkDisconnectedError
from ..topology import GridNetwork

ROUTABLE = "routable"
DEGRADED = "degraded"
FATAL = "fatal"

#: Tally order — fixed so payload digests are stable.
CLASS_LABELS = (ROUTABLE, DEGRADED, FATAL)

#: The documented-fatal geometries: these exceptions (and only these)
#: may escape the degraded-mode pipeline; anything else is a bug the
#: fuzz suite would surface.
FATAL_EXCEPTIONS = (
    RingGeometryError,
    NetworkDisconnectedError,
    OverlapColoringError,
    FaultGenerationError,
)

__all__ = [
    "ROUTABLE",
    "DEGRADED",
    "FATAL",
    "CLASS_LABELS",
    "FATAL_EXCEPTIONS",
    "Classification",
    "classify_pattern",
]


@dataclass(frozen=True)
class Classification:
    """One pattern's verdict plus the cheap-to-keep detail counters."""

    label: str
    sacrificed: int = 0  #: healthy nodes given up by degraded mode
    merges: int = 0  #: region merges performed
    regions: int = 0  #: fault regions in the final scenario
    reason: str = ""  #: fatal cause (exception name or ``policy-...``)

    @property
    def survives(self) -> bool:
        return self.label != FATAL


def _cdg_reason(network: GridNetwork, faults: FaultSet, policy: str) -> str:
    """Run the full CDG acyclicity check; '' when deadlock-free."""
    from ..analysis import assert_deadlock_free
    from ..sim.config import SimulationConfig
    from ..sim.network import SimNetwork

    config = SimulationConfig(
        topology="torus" if network.wraparound else "mesh",
        radix=network.radix,
        dims=network.dims,
        faults=faults,
        routing_algorithm=policy or "ft",
    )
    try:
        assert_deadlock_free(SimNetwork(config))
    except AssertionError:
        return "cdg-cycle"
    except Exception as exc:  # construction failures count against the policy
        return f"cdg-{type(exc).__name__}"
    return ""


def classify_pattern(
    network: GridNetwork,
    faults: FaultSet,
    *,
    policy: str = "",
    allow_overlapping_rings: bool = False,
    check_cdg: bool = False,
) -> Classification:
    """Classify one raw (not pre-blocked) fault pattern."""
    try:
        scenario, info = degrade_fault_pattern(
            network, faults, allow_overlapping_rings=allow_overlapping_rings
        )
    except FATAL_EXCEPTIONS as exc:
        return Classification(FATAL, reason=type(exc).__name__)
    sacrificed = len(info.degraded_nodes)
    merges = info.merges
    regions = scenario.num_regions
    if policy:
        from ..core.routing_registry import build_routing

        try:
            build_routing(policy, network, scenario, None)
        except Exception as exc:
            return Classification(
                FATAL,
                sacrificed=sacrificed,
                merges=merges,
                regions=regions,
                reason=f"policy-{policy}:{type(exc).__name__}",
            )
    if check_cdg and not faults.empty:
        reason = _cdg_reason(network, faults, policy)
        if reason:
            return Classification(
                FATAL,
                sacrificed=sacrificed,
                merges=merges,
                regions=regions,
                reason=reason,
            )
    label = ROUTABLE if sacrificed == 0 and merges == 0 else DEGRADED
    return Classification(label, sacrificed=sacrificed, merges=merges, regions=regions)
