"""Cycle-driven flit-level wormhole simulator (pipeline façade).

Each cycle has four phases, one stage object per phase (see
:mod:`repro.sim.stages`):

1. **Generation** (:class:`~repro.sim.stages.GenerationStage`) — every
   healthy node generates a message with probability ``rate`` (geometric
   interarrival) for a destination chosen by the traffic pattern;
   generated messages queue at the source.
2. **Injection** (:class:`~repro.sim.stages.InjectionStage`) — a node
   whose queue is non-empty and which has fewer than ``injection_limit``
   previously injected messages still in the node starts transmitting
   the next message on a free injection virtual channel.
3. **Route/VC allocation** (:class:`~repro.sim.stages.AllocationStage`)
   — each router module processes one incoming header (round-robin among
   its input virtual channels holding an eligible header): the routing
   logic picks the output channel and the admissible virtual channel
   classes; the header is allocated the first free one, extending the
   worm.
4. **Flit transfer** (:class:`~repro.sim.stages.TransferStage`) — every
   physical channel moves at most one flit (demand time-multiplexed
   round-robin over its allocated virtual channels whose upstream flit
   is eligible and whose buffer has space).  Flits entering a module
   input buffer become eligible after the router timing delay; flits
   entering a consumption channel are delivered.

The :class:`Simulator` is a thin façade over the stages plus a
:class:`~repro.sim.stats.StatsCollector`.  There is **one adaptive
core, two pinned spellings of it, and one oracle**:

* ``Simulator(config)`` runs the *adaptive* core: sources, modules and
  channels with pending work sit on work-lists, and every cycle the
  transfer stage chooses between the scalar work-list service (few busy
  channels) and the batched numpy pass over the busy set (many — see
  :mod:`repro.sim.stages` for the measured cutoff); allocation is one
  loop for both.  Without numpy the scalar branch runs alone.
* ``core="active"`` / ``core="vector"`` pin that choice to never / always
  batch — the parity matrix forces the batched branch onto networks too
  small to reach the cutoff, numpy-free installs need the scalar one.
* ``core="legacy"`` is the executable reference: the original full-scan
  loops, kept as the oracle every other spelling must match bit for bit
  (``tests/test_engine_parity.py``).

``REPRO_SIM_CORE`` sets the default for a whole process.
docs/architecture.md has the full design.

A watchdog aborts if nothing moves for ``deadlock_threshold`` cycles
while messages are in flight (executable deadlock-freedom check).
"""

from __future__ import annotations

import os
import random
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from ..router.messages import Message
from ..router.modules import Module
from ..topology import Coord, is_bisection_message
from .config import SimulationConfig
from .deadlock import DeadlockError, stuck_worm_snapshot
from .metrics import SimulationResult, batch_means_ci, percentile
from .network import SimNetwork
from .stages import (
    AdaptiveTransferStage,
    AllocationStage,
    GenerationStage,
    InjectionStage,
    TransferStage,
)
from .stats import StatsCollector
from .traffic import make_traffic

#: environment override for the default simulation core
_CORE_ENV = "REPRO_SIM_CORE"
_CORES = ("adaptive", "active", "vector", "legacy")


class Simulator:
    """One simulation run over a static network and fault scenario.

    ``core`` selects the scheduling strategy: ``"adaptive"`` (default)
    picks, per cycle, the scalar work-list service or the batched numpy
    pass; ``"active"`` / ``"vector"`` pin that choice; ``"legacy"`` is the
    full-scan oracle.  All are result-identical; ``REPRO_SIM_CORE`` sets
    the default, and without numpy ``"adaptive"`` runs as ``"active"``.
    """

    def __init__(
        self,
        config: SimulationConfig,
        network: Optional[SimNetwork] = None,
        *,
        core: Optional[str] = None,
    ):
        if core is None:
            core = os.environ.get(_CORE_ENV, "adaptive")
        if core not in _CORES:
            raise ValueError(f"unknown simulation core {core!r}; expected one of {_CORES}")
        if core in ("adaptive", "vector"):
            try:
                import numpy  # noqa: F401
            except ImportError:
                if core == "vector":
                    raise ImportError(
                        'core="vector" needs numpy; install the optional extra '
                        "with `pip install repro[fast]` (or pick core=\"active\")"
                    ) from None
                core = "active"  # the scalar branch alone; same results
        self.core = core
        self.config = config
        if network is not None:
            network.reset()  # drop any worms left over from a previous run
            self.net = network
        else:
            self.net = SimNetwork(config)
        self.gen_rng = random.Random(config.seed)
        self.traffic = make_traffic(
            config.traffic,
            self.net.topology,
            self.net.healthy,
            random.Random(config.seed + 104729),
        )
        self.now = 0
        self._msg_counter = 0
        self.in_flight = 0
        self._last_progress = 0

        self.queues: Dict[Coord, Deque[Message]] = {c: deque() for c in self.net.healthy}
        self.outstanding: Dict[Coord, int] = {c: 0 for c in self.net.healthy}
        self._active_sources: Set[Coord] = set()
        # insertion-ordered (a set of Modules would iterate in id() order,
        # which varies run to run and breaks bit-for-bit determinism of
        # the arbitration when two modules race for one downstream VC)
        self._modules_waiting: Dict[Module, None] = {}

        #: optional end-to-end reliability layer (attached by
        #: :class:`repro.reliability.ReliableTransport`)
        self.reliability = None
        #: called with each consumed Message (after transport processing)
        self.delivery_hooks: List[Callable[[Message], None]] = []
        #: called once per runtime fault event with
        #: ``(report, dead_nodes, killed_messages)``
        self.fault_hooks: List[Callable] = []
        #: called with ``now`` at the start of every cycle
        self.cycle_hooks: List[Callable[[int], None]] = []
        #: optional observability tracer (attached by
        #: :class:`repro.obs.Tracer`); every emission point in the
        #: pipeline is guarded by ``tracer is not None``, so a run
        #: without one pays only the pointer checks
        self.tracer = None

        #: cycle at which measurement started (None until warmup ends);
        #: lets instrumentation divide by the measurement window instead
        #: of the whole run
        self.measure_start_cycle: Optional[int] = None
        #: per-channel transfer counts at the warmup boundary, keyed by
        #: channel identity
        self._measure_transfer_base: Dict[int, int] = {}

        # survivability accounting (cumulative over the whole run, not
        # reset at the warmup boundary: fault events are rare, discrete
        # incidents rather than steady-state samples)
        self.fault_events = 0
        self.killed_in_flight = 0
        self.killed_queued = 0
        #: worms truncated mid-transition-window by the stale-knowledge
        #: fallback (subset of killed_in_flight)
        self.window_losses = 0
        #: cycles each reconfiguration transition window stayed open
        self.detection_cycles: List[int] = []
        #: open transition window (detection_latency > 0 only); None
        #: keeps every staged-reconfiguration branch dormant, preserving
        #: the instantaneous behavior bit-for-bit
        self.reconfig = None
        # degraded-mode accounting, seeded from the static build
        degradation = getattr(self.net, "degradation", None)
        self.degraded_nodes_total = (
            len(degradation.degraded_nodes) if degradation is not None else 0
        )
        self.convexify_steps_total = (
            degradation.convexify_steps if degradation is not None else 0
        )

        #: measurement-window statistics (reset at the warmup boundary)
        self.stats = StatsCollector(config.collect_latencies)

        # the pipeline; transfer first so the upstream stages can register
        # channels on its work-list
        work_lists = core != "legacy"
        if core in ("adaptive", "vector"):
            self.transfer = AdaptiveTransferStage(self, always_batch=core == "vector")
        else:
            self.transfer = TransferStage(self, work_list=work_lists)
        self.allocation = AllocationStage(self, self.transfer)
        self.injection = InjectionStage(self, self.transfer)
        self.generation = GenerationStage(self, block_sampling=work_lists)

    # ------------------------------------------------------------------
    # public driver
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        config = self.config
        for _ in range(config.warmup_cycles):
            self.step()
        self._start_measurement()
        batch_len = max(1, config.measure_cycles // config.batches)
        stats = self.stats
        for cycle_index in range(config.measure_cycles):
            stats.current_batch = min(cycle_index // batch_len, config.batches - 1)
            self.step()
        return self._result()

    def step(self) -> None:
        now = self.now
        if self.reliability is not None:
            self.reliability.on_cycle(now)
        if self.cycle_hooks:
            for hook in self.cycle_hooks:
                hook(now)
        if self.stats.measuring:
            self.stats.on_cycle()
        if self.reconfig is not None:
            self.reconfig.tick(now)
        self.generation.run(now)
        self.injection.run(now)
        progress = self.allocation.run(now)
        progress = self.transfer.run(now) or progress
        if progress:
            self._last_progress = now
        elif self.reconfig is not None:
            # an open transition window resolves stalls on its own at the
            # finalize cycle; don't let the watchdog trip mid-window
            self._last_progress = now
        elif self.in_flight > 0 and now - self._last_progress >= self.config.deadlock_threshold:
            worms, total = stuck_worm_snapshot(self.net.channels)
            tail = self.tracer.recorder.tail() if self.tracer is not None else None
            raise DeadlockError(now, worms=worms, total_busy=total, events=tail)
        self.now = now + 1

    # ------------------------------------------------------------------
    # message entry points
    # ------------------------------------------------------------------
    def _queue_message(
        self,
        src: Coord,
        dst: Coord,
        *,
        length: Optional[int] = None,
        protocol: int = 0,
        tracked: bool = True,
        seq: Optional[int] = None,
        ack_for=None,
        attempt: int = 0,
    ) -> Message:
        """The one way a message enters a source queue: number it, build
        it, queue it, wake the source, and tell the transport (``tracked``
        messages only — fresh flows, not its own ACKs and retransmissions)
        and the tracer."""
        self._msg_counter += 1
        message = Message(
            self._msg_counter,
            src,
            dst,
            length if length is not None else self.config.message_length,
            self.net.routing.initial_state(src, dst),
            self.now,
            is_bisection_message(src, dst, self.net.topology),
            protocol=protocol,
        )
        message.seq = seq
        message.ack_for = ack_for
        message.attempt = attempt
        self.queues[src].append(message)
        self._active_sources.add(src)
        if tracked and self.reliability is not None:
            self.reliability.on_generated(message)
        if self.tracer is not None:
            self.tracer.on_generate(self.now, message)
        return message

    def inject_message(self, src: Coord, dst: Coord) -> Message:
        """Queue one explicit message (used by tests and examples that
        drive the simulator without a stochastic traffic pattern)."""
        return self._queue_message(src, dst)

    def enqueue_message(
        self,
        src: Coord,
        dst: Coord,
        *,
        length: Optional[int] = None,
        protocol: int = 0,
        seq: Optional[int] = None,
        ack_for=None,
        attempt: int = 0,
    ) -> Message:
        """Queue a message on behalf of the transport layer (ACKs and
        retransmissions).  Unlike :meth:`inject_message` it is never
        reported to the reliability tracker as a fresh flow and never
        counted as generated traffic."""
        if src not in self.queues:
            raise ValueError(f"cannot enqueue at faulty node {src}")
        return self._queue_message(
            src,
            dst,
            length=length,
            protocol=protocol,
            tracked=False,
            seq=seq,
            ack_for=ack_for,
            attempt=attempt,
        )

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def _on_consumed(self, message: Message) -> None:
        self.in_flight -= 1
        if self.config.request_reply and message.protocol == 0 and not message.is_control:
            self._send_reply(message)
        if self.reliability is not None:
            self.reliability.on_consumed(message)
        if self.delivery_hooks:
            for hook in self.delivery_hooks:
                hook(message)
        if message.is_control:
            # transport ACKs ride the network but are overhead, not
            # workload: keep them out of the paper's delivered metrics
            return
        if not self.stats.measuring:
            return
        self.stats.on_delivered(message)

    def _send_reply(self, request: Message) -> None:
        """Request-reply protocol: the consumer answers on the reply bank
        (protocol class 1), mirroring the T3D's two message classes."""
        self._queue_message(request.dst, request.src, protocol=1)
        if self.stats.measuring:
            self.stats.generated += 1

    def _start_measurement(self) -> None:
        self.stats.start_measurement(self.config.batches)
        self.measure_start_cycle = self.now
        self._measure_transfer_base = {
            id(channel): channel.transfers for channel in self.net.channels
        }

    # ------------------------------------------------------------------
    # statistics compatibility surface (campaigns, tools and tests read
    # these counters directly off the simulator)
    # ------------------------------------------------------------------
    @property
    def _measuring(self) -> bool:
        return self.stats.measuring

    @property
    def generated(self) -> int:
        return self.stats.generated

    @property
    def injected(self) -> int:
        return self.stats.injected

    @property
    def delivered(self) -> int:
        return self.stats.delivered

    @property
    def delivered_flits(self) -> int:
        return self.stats.delivered_flits

    @property
    def bisection_messages(self) -> int:
        return self.stats.bisection_messages

    @property
    def latency_sum(self) -> float:
        return self.stats.latency_sum

    @property
    def queueing_sum(self) -> float:
        return self.stats.queueing_sum

    @property
    def misrouted_messages(self) -> int:
        return self.stats.misrouted_messages

    @property
    def latency_samples(self) -> List[int]:
        return self.stats.latency_samples

    # ------------------------------------------------------------------
    def _result(self) -> SimulationResult:
        config = self.config
        stats = self.stats
        cycles = config.measure_cycles
        delivered = stats.delivered
        batch_latencies = stats.batch_latencies()
        _mean, latency_ci = batch_means_ci(batch_latencies)
        samples = stats.latency_samples
        return SimulationResult(
            topology=config.topology,
            radix=config.radix,
            dims=config.dims,
            router_model=config.router_model,
            timing_name=config.timing.name,
            fault_percent=config.fault_percent,
            rate=config.rate,
            message_length=config.message_length,
            num_vcs=self.net.num_classes,
            seed=config.seed,
            cycles=cycles,
            generated=stats.generated,
            injected=stats.injected,
            delivered=delivered,
            delivered_flits=stats.delivered_flits,
            bisection_messages=stats.bisection_messages,
            bisection_bandwidth=self.net.bisection_bandwidth,
            avg_latency=stats.latency_sum / delivered if delivered else 0.0,
            latency_ci=latency_ci,
            avg_queueing=stats.queueing_sum / delivered if delivered else 0.0,
            latency_p50=percentile(samples, 50) if samples else 0.0,
            latency_p95=percentile(samples, 95) if samples else 0.0,
            latency_p99=percentile(samples, 99) if samples else 0.0,
            misrouted_messages=stats.misrouted_messages,
            avg_misroute_hops=(
                stats.misroute_hop_sum / stats.misrouted_messages
                if stats.misrouted_messages
                else 0.0
            ),
            final_source_queue=sum(len(q) for q in self.queues.values()),
            in_flight_at_end=self.in_flight,
            batch_flits=stats.normalized_batch_flits(),
            batch_latency=batch_latencies,
            batch_cycles=list(stats.batch_cycles),
            **self._survivability_fields(),
        )

    def _survivability_fields(self) -> dict:
        """Survivability metrics for :class:`SimulationResult` — engine
        counters plus (when a transport is attached) end-to-end delivery
        accounting from the reliability layer."""
        fields = dict(
            fault_events=self.fault_events,
            killed_in_flight=self.killed_in_flight,
            killed_queued=self.killed_queued,
            lost_messages=self.killed_in_flight + self.killed_queued,
            degraded_nodes=self.degraded_nodes_total,
            convexify_steps=self.convexify_steps_total,
            window_losses=self.window_losses,
            detection_cycles=list(self.detection_cycles),
        )
        rel = self.reliability
        if rel is not None:
            stats = rel.stats
            fields.update(
                reliability_enabled=True,
                lost_messages=stats.lost,
                unique_delivered=stats.unique_delivered,
                retransmitted_messages=stats.retransmissions,
                duplicate_messages=stats.duplicates,
                acks_sent=stats.acks_sent,
                timeouts_fired=stats.timeouts,
                recovery_cycles=rel.recovery_times(),
            )
        return fields

    # ------------------------------------------------------------------
    def inject_runtime_fault(self, *, nodes=(), links=()):
        """Fail components mid-simulation and reconfigure; see
        :func:`repro.sim.reconfiguration.apply_runtime_fault`."""
        from .reconfiguration import apply_runtime_fault

        return apply_runtime_fault(self, nodes=nodes, links=links)

    # ------------------------------------------------------------------
    def drain(self, max_cycles: int = 500_000) -> None:
        """Run with generation disabled until every queued/in-flight
        message is delivered — and, when a reliability layer is attached,
        until every tracked flow is acknowledged, aborted or given up
        (pending retransmission timers keep the clock running)."""
        saved_rate = self.config.rate
        self.config.rate = 0.0
        try:
            for _ in range(max_cycles):
                if (
                    self.in_flight == 0
                    and not any(self.queues[c] for c in self._active_sources)
                    and (self.reliability is None or self.reliability.quiescent)
                    and self.reconfig is None
                ):
                    return
                self.step()
            knowledge = self.reconfig.knowledge_lag if self.reconfig is not None else None
            worms, total = stuck_worm_snapshot(self.net.channels, knowledge=knowledge)
            tail = self.tracer.recorder.tail() if self.tracer is not None else None
            raise DeadlockError(self.now, worms=worms, total_busy=total, events=tail)
        finally:
            self.config.rate = saved_rate
