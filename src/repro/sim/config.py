"""Simulation configuration.

Defaults reproduce the paper's setup (Section 6): 16x16 networks, uniform
traffic with geometric interarrival, fixed 20-flit messages, four virtual
channels per physical channel in tori / two in meshes, depth-4 flit
buffers, pipelined routers (3-cycle header / 2-cycle data delays), and an
injection limit of two outstanding messages per node.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional

from ..canonical import canonical_digest
from ..core.routing_registry import policy_spec
from ..faults import FaultSet
from ..router.timing import PIPELINED, RouterTiming
from ..topology import BiLink

#: config fields that do not influence :class:`~repro.sim.network.SimNetwork`
#: construction — only the simulator's dynamic state.  Used by
#: :meth:`SimulationConfig.network_signature` so executor workers can reuse
#: one built network across every point of a sweep (and across seeds,
#: traffic patterns, and timings) with a reset between runs.
_NON_NETWORK_FIELDS = {
    "timing": PIPELINED,
    "traffic": "uniform",
    "request_reply": False,
    "rate": 0.0,
    "message_length": 2,
    "injection_limit": 1,
    "warmup_cycles": 0,
    "measure_cycles": 0,
    "batches": 1,
    "seed": 0,
    "deadlock_threshold": 2_000,
    "collect_latencies": False,
    "detection_latency": 0,
    "strict_invariants": False,
}


@dataclass
class SimulationConfig:
    """Everything needed to build and run one simulation point."""

    # --- network -------------------------------------------------------
    topology: str = "torus"  #: "torus" or "mesh"
    radix: int = 16
    dims: int = 2

    # --- router organization -------------------------------------------
    router_model: str = "pdr"  #: "pdr" or "crossbar"
    fault_tolerant: bool = True  #: modified PDR organization + FT routing
    #: routing algorithm, validated against
    #: :mod:`repro.core.routing_registry` (run ``repro-experiments arena
    #: --list`` or call ``registered_policies()`` for the names).  None
    #: derives from ``fault_tolerant`` ("ft" or "ecube") — deprecated for
    #: algorithm *selection*; name the algorithm explicitly
    routing_algorithm: Optional[str] = None
    timing: RouterTiming = PIPELINED
    #: virtual channels per physical channel; None = what the routing
    #: scheme requires (4 torus / 2 mesh for FT, 2 / 1 for plain e-cube)
    num_vcs: Optional[int] = None
    buffer_depth: int = 4
    #: let normal messages borrow idle virtual channels on channels that
    #: are not on any f-ring (Section 6's congestion-reducing usage)
    share_idle_vcs: bool = True
    #: "rank" keeps the provably deadlock-free dateline-rank restriction;
    #: "all" is the paper's literal all-classes sharing (matches the
    #: paper's fault-free torus peak exactly but can wedge past
    #: saturation — see EXPERIMENTS.md)
    vc_sharing_mode: str = "rank"
    #: how two-sided misroutes pick their ring orientation (the freedom
    #: the algorithm leaves open): "destination", "shorter-side" or
    #: "balanced" — see :class:`repro.core.FaultTolerantRouting`
    orientation_policy: str = "destination"
    #: independent protocol message classes, each with its own full bank
    #: of virtual channel classes.  The Cray T3D "actually simulates four
    #: virtual channels to handle two distinct classes of messages with
    #: two virtual channels per class" (Section 2); set 2 here plus the
    #: request-reply workload to model that request/response separation.
    protocol_classes: int = 1

    # --- faults ----------------------------------------------------------
    #: one of the paper's named scenarios: 0, 1 or 5 (% links faulty);
    #: ignored when ``faults`` is given explicitly
    fault_percent: int = 0
    faults: Optional[FaultSet] = None
    fault_seed: int = 7
    #: accept fault patterns whose f-rings overlap (share links); layer-1
    #: regions then misroute on a second bank of virtual channel classes
    #: (the extension of the authors' report [8])
    allow_overlapping_rings: bool = False

    # --- traffic ---------------------------------------------------------
    traffic: str = "uniform"  #: "uniform", "transpose", "bit-reversal", "hotspot"
    #: every delivered class-0 message (request) makes its destination
    #: send a class-1 message (reply) back; requires protocol_classes >= 2
    request_reply: bool = False
    #: message generation probability per node per cycle (geometric
    #: interarrival); applied flit load per node = rate * message_length
    rate: float = 0.005
    message_length: int = 20
    injection_limit: int = 2

    # --- measurement -----------------------------------------------------
    warmup_cycles: int = 2_000
    measure_cycles: int = 6_000
    batches: int = 10
    seed: int = 1
    #: cycles of global inactivity (with messages in flight) treated as a
    #: deadlock
    deadlock_threshold: int = 2_000
    #: record raw per-message latencies during measurement (histograms,
    #: percentiles) at a small memory cost
    collect_latencies: bool = False
    #: cycles per hop of fault-report propagation (Section 3's distributed
    #: detection).  0 keeps runtime reconfiguration instantaneous and
    #: global (bit-for-bit the historical behavior); > 0 stages every
    #: runtime fault through a transition window during which nodes route
    #: on stale per-node knowledge and worms that hit an unannounced fault
    #: are truncated (losses for the reliability layer to retransmit)
    detection_latency: int = 0
    #: re-run the channel-dependency-graph acyclicity check after every
    #: runtime reconfiguration (slow; meant for campaign test suites)
    strict_invariants: bool = False

    def __post_init__(self) -> None:
        if self.topology not in ("torus", "mesh"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.router_model not in ("pdr", "crossbar"):
            raise ValueError(f"unknown router model {self.router_model!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate is a per-cycle probability; need 0 <= rate <= 1")
        if self.message_length < 2:
            raise ValueError("messages need at least a header and a tail flit")
        if self.buffer_depth < 1:
            raise ValueError("buffer depth must be positive")
        if self.vc_sharing_mode not in ("rank", "all"):
            raise ValueError("vc_sharing_mode must be 'rank' or 'all'")
        if self.routing_algorithm is not None:
            policy_spec(self.routing_algorithm)  # ValueError lists registered names
        elif not self.fault_tolerant:
            warnings.warn(
                "selecting the routing algorithm via fault_tolerant=False is "
                "deprecated; set routing_algorithm='ecube' explicitly "
                "(fault_tolerant keeps controlling the PDR organization)",
                DeprecationWarning,
                stacklevel=3,
            )
        if self.protocol_classes < 1:
            raise ValueError("need at least one protocol class")
        if self.request_reply and self.protocol_classes < 2:
            raise ValueError(
                "request-reply traffic needs protocol_classes >= 2 (separate "
                "banks are what prevents protocol deadlock)"
            )
        if self.detection_latency < 0:
            raise ValueError("detection_latency must be non-negative")

    @property
    def is_torus(self) -> bool:
        return self.topology == "torus"

    @property
    def effective_routing(self) -> str:
        """The registry name of the active routing policy (the legacy
        ``fault_tolerant`` derivation kept as a shim)."""
        if self.routing_algorithm is not None:
            return self.routing_algorithm
        return "ft" if self.fault_tolerant else "ecube"

    @property
    def effective_sharing(self) -> str:
        """The sharing mode handed to the node models: 'off', 'rank' or
        'all'."""
        return self.vc_sharing_mode if self.share_idle_vcs else "off"

    def required_vcs(self) -> int:
        """Virtual channels per physical channel actually simulated (what
        the registered policy declares, unless ``num_vcs`` overrides)."""
        if self.num_vcs is not None:
            return self.num_vcs
        return policy_spec(self.effective_routing).required_vcs(torus=self.is_torus)

    # ------------------------------------------------------------------
    # canonical serialization and content hashing (the result store's key)
    # ------------------------------------------------------------------
    def to_canonical(self) -> Dict[str, Any]:
        """A JSON-safe dict that captures every configuration field, with
        deterministic ordering for the nested structures.

        Iterates the dataclass fields so a newly added knob automatically
        enters the representation (and therefore the content hash — a new
        field can never silently alias two different configurations)."""
        data: Dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "timing":
                value = {
                    "name": value.name,
                    "header_delay": value.header_delay,
                    "data_delay": value.data_delay,
                    "clock_scale": value.clock_scale,
                }
            elif spec.name == "faults" and value is not None:
                value = {
                    "nodes": sorted(list(c) for c in value.node_faults),
                    "links": sorted(
                        [list(l.u), list(l.v), l.dim] for l in value.link_faults
                    ),
                }
            data[spec.name] = value
        return data

    @classmethod
    def from_canonical(cls, data: Dict[str, Any]) -> "SimulationConfig":
        """Inverse of :meth:`to_canonical`."""
        kwargs = dict(data)
        timing = kwargs.get("timing")
        if isinstance(timing, dict):
            kwargs["timing"] = RouterTiming(**timing)
        faults = kwargs.get("faults")
        if isinstance(faults, dict):
            kwargs["faults"] = FaultSet(
                node_faults=frozenset(tuple(c) for c in faults["nodes"]),
                link_faults=frozenset(
                    BiLink(tuple(u), tuple(v), dim) for u, v, dim in faults["links"]
                ),
            )
        return cls(**kwargs)

    def content_hash(self, version_tag: str = "") -> str:
        """Stable hex digest of the canonical form, optionally salted with
        a code-version tag so simulator-semantics changes invalidate
        memoized results (see :mod:`repro.exec.store`)."""
        return canonical_digest({"config": self.to_canonical(), "version": version_tag})

    def network_signature(self) -> str:
        """Hash over only the fields that determine the built
        :class:`~repro.sim.network.SimNetwork` (topology, faults, routing,
        channel organization).  Two configs with equal signatures can
        safely share one network object across runs, provided it is reset
        between runs — the contract the sweep executor relies on."""
        normalized = replace(self, **_NON_NETWORK_FIELDS)
        return normalized.content_hash("network")
