"""End-to-end reliable delivery on top of the lossy wormhole network.

The paper (Section 3) truncates worms caught in transit through a dying
node or link and explicitly leaves recovery to "higher-level protocols".
:class:`ReliableTransport` is that protocol, built entirely on the
existing message machinery:

* **sequence numbers** — every data message gets a per-source sequence
  number at generation time (``Message.seq``);
* **delivery ACKs** — when a data message is consumed, the sink queues a
  short acknowledgement message back to the source (``Message.ack_for``
  names the flow), which travels through the network like any other
  worm;
* **retransmission** — the source keeps an ACK timer per outstanding
  message (exponential backoff, capped); expiry or an explicit
  fault-kill notification from
  :func:`repro.sim.reconfiguration.apply_runtime_fault` re-queues a
  fresh copy;
* **duplicate suppression** — the sink remembers delivered sequence
  numbers per source and suppresses (but re-ACKs) duplicates, so the
  application sees exactly-once delivery;
* **abort** — flows whose source or destination died are unrecoverable
  and are abandoned (counted, never retried), as are flows that exhaust
  ``max_retries``.

The transport holds no randomness of its own: attached to a
deterministic simulator it is itself deterministic.

It drives the engine exclusively through the stable façade surface —
``sim.enqueue_message`` for ACKs/retransmissions, ``reliability.on_*``
callbacks for cycle/generation/consumption/fault events — so it is
agnostic to the engine's scheduling core (active-set or legacy; see
docs/architecture.md).
"""

from __future__ import annotations

import heapq
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..topology import Coord
from .stats import ReliabilityStats

#: a flow is identified by (source coordinate, per-source sequence number)
FlowKey = Tuple[Coord, int]


@dataclass
class ReliabilityConfig:
    """Tuning knobs for the end-to-end transport."""

    #: flits per acknowledgement message (>= 2: header + tail)
    ack_length: int = 2
    #: cycles to wait for an ACK before the first retransmission
    timeout: int = 400
    #: exponential backoff factor applied per retransmission
    backoff: float = 2.0
    #: upper bound on the backed-off timeout, in cycles
    max_timeout: int = 8_000
    #: retransmissions per flow before giving up
    max_retries: int = 10
    #: cycles between a fault-kill notification and the fast retransmit
    retransmit_delay: int = 2
    #: protocol class (virtual channel bank) for ACKs; None = the highest
    #: configured bank, so with ``protocol_classes >= 2`` ACKs ride a
    #: separate bank like the T3D's reply class
    ack_protocol: Optional[int] = None

    def __post_init__(self) -> None:
        if self.ack_length < 2:
            raise ValueError("ACKs need at least a header and a tail flit")
        if self.timeout < 1:
            raise ValueError("timeout must be at least one cycle")
        if self.backoff < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


class _PendingFlow:
    """Source-side record of one unacknowledged message."""

    __slots__ = ("src", "dst", "seq", "length", "protocol", "attempt", "deadline", "fault_kick")

    def __init__(self, src, dst, seq, length, protocol, deadline):
        self.src = src
        self.dst = dst
        self.seq = seq
        self.length = length
        self.protocol = protocol
        self.attempt = 0
        self.deadline = deadline
        #: True while an early retransmission scheduled by a fault-kill
        #: notification is pending (vs. a plain ACK timeout)
        self.fault_kick = False


@dataclass
class FaultRecoveryTrack:
    """Recovery progress for the flows one fault event killed."""

    cycle: int
    killed_flows: int
    pending_keys: Set[FlowKey] = field(default_factory=set)
    #: cycle at which the last killed flow reached a terminal state
    #: (re-delivered, acknowledged, aborted or given up); None while
    #: recovery is still in progress
    recovered_cycle: Optional[int] = None

    @property
    def time_to_recover(self) -> Optional[int]:
        if self.recovered_cycle is None:
            return None
        return self.recovered_cycle - self.cycle


class ReliableTransport:
    """Attach end-to-end reliable delivery to a live simulator.

    Construction registers the transport with the simulator
    (``sim.reliability``); the engine then reports every generated and
    consumed message and every runtime fault event back to it.
    """

    def __init__(self, sim, config: Optional[ReliabilityConfig] = None):
        if sim.reliability is not None:
            raise ValueError("simulator already has a reliability layer attached")
        # a weak proxy, as the tracer holds: no cycle with the simulator
        self.sim = weakref.proxy(sim)
        self.config = config or ReliabilityConfig()
        self.stats = ReliabilityStats()
        self._next_seq: Dict[Coord, int] = {}
        self._pending: Dict[FlowKey, _PendingFlow] = {}
        #: (deadline, key) min-heap; entries whose deadline no longer
        #: matches the flow's are stale and skipped
        self._timers: List[Tuple[int, FlowKey]] = []
        #: sink-side delivered sequence numbers, per source
        self._delivered: Dict[Coord, Set[int]] = {}
        #: one recovery track per runtime fault event, in injection order
        self.fault_events: List[FaultRecoveryTrack] = []
        sim.reliability = self

    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """True when no flow is awaiting acknowledgement (used by
        :meth:`Simulator.drain` to know when reliable delivery is done)."""
        return not self._pending

    @property
    def pending_flows(self) -> int:
        return len(self._pending)

    def recovery_times(self) -> List[int]:
        """Time-to-recover (cycles) of every fault event whose recovery
        completed, in injection order."""
        return [
            track.time_to_recover
            for track in self.fault_events
            if track.recovered_cycle is not None
        ]

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def on_generated(self, message) -> None:
        """A fresh data message was queued at its source: assign its
        sequence number and arm the ACK timer."""
        if message.ack_for is not None:
            return
        src = message.src
        seq = self._next_seq.get(src, 0)
        self._next_seq[src] = seq + 1
        message.seq = seq
        flow = _PendingFlow(
            src,
            message.dst,
            seq,
            message.length,
            message.protocol,
            self.sim.now + self.config.timeout,
        )
        self._pending[(src, seq)] = flow
        heapq.heappush(self._timers, (flow.deadline, (src, seq)))
        self.stats.tracked_generated += 1

    def on_cycle(self, now: int) -> None:
        """Fire expired ACK timers (called by the engine every cycle)."""
        timers = self._timers
        while timers and timers[0][0] <= now:
            deadline, key = heapq.heappop(timers)
            flow = self._pending.get(key)
            if flow is None or flow.deadline != deadline:
                continue  # acknowledged or rescheduled since
            self._retransmit(flow, now, timed_out=not flow.fault_kick)

    def on_consumed(self, message) -> None:
        """A message reached a consumption channel: process ACKs, dedup
        and acknowledge data."""
        now = self.sim.now
        if message.ack_for is not None:
            self.stats.acks_delivered += 1
            key = tuple(message.ack_for)
            if self._pending.pop(key, None) is not None:
                self._resolve(key, now)
            return
        if message.seq is None:
            return  # generated before the transport attached
        key = (message.src, message.seq)
        delivered = self._delivered.setdefault(message.src, set())
        if message.seq in delivered:
            self.stats.duplicates += 1
        else:
            delivered.add(message.seq)
            self.stats.unique_delivered += 1
            self._resolve(key, now)
        if message.src in self.sim.queues:
            # acknowledge (duplicates too: the previous ACK may be lost)
            self.stats.acks_sent += 1
            self.sim.enqueue_message(
                message.dst,
                message.src,
                length=self.config.ack_length,
                protocol=self._ack_protocol(),
                ack_for=key,
            )
        else:
            # the source died after sending: nobody is waiting for an ACK
            self._pending.pop(key, None)

    def on_fault(self, report, dead_nodes, killed) -> None:
        """A runtime fault event truncated worms / dropped queued
        messages: abort unrecoverable flows, fast-retransmit the rest."""
        self.stats.killed_in_flight += report.dropped_in_flight
        self.stats.killed_queued += report.dropped_queued
        self.fault_events.append(FaultRecoveryTrack(cycle=report.cycle, killed_flows=0))
        self._recover(killed, dead_nodes)

    def on_window_loss(self, message) -> None:
        """A worm was truncated *during* a reconfiguration transition
        window: a node routing on stale fault knowledge steered it at a
        component that was already dead.  Fast-retransmit it and charge
        the loss to the window's fault event."""
        self.stats.window_losses += 1
        self.stats.killed_in_flight += 1
        self._recover([message])

    def on_window_closed(
        self, dead_nodes, killed, *, dropped_in_flight: int = 0, dropped_queued: int = 0
    ) -> None:
        """A transition window finalized: the condemned components went
        dead and their worms/queues were truncated.  The kills belong to
        the window's last fault event (its ``on_fault`` ran at the event
        cycle, before these losses existed), so they are folded into that
        event's recovery track instead of opening a new one."""
        self.stats.killed_in_flight += dropped_in_flight
        self.stats.killed_queued += dropped_queued
        self._recover(killed, dead_nodes)

    def _recover(self, killed, dead_nodes=()) -> None:
        """The one kill handler behind the three entry points above:
        charge the killed flows to the latest fault event's recovery
        track, abort what cannot be recovered, fast-retransmit the rest."""
        now = self.sim.now
        keys: Set[FlowKey] = set()
        for message in killed:
            if message.ack_for is not None:
                self.stats.acks_killed += 1
            elif message.seq is not None and (message.src, message.seq) in self._pending:
                keys.add((message.src, message.seq))
        track = self.fault_events[-1] if self.fault_events else None
        if track is not None:
            new_keys = keys - track.pending_keys
            if new_keys:
                track.pending_keys |= new_keys
                track.killed_flows += len(new_keys)
                track.recovered_cycle = None

        # flows touching dead endpoints are unrecoverable, whether or not
        # a copy of theirs was in flight just now
        for key, flow in list(self._pending.items()):
            if flow.src in dead_nodes or flow.dst in dead_nodes:
                self._abort(key, now)

        # surviving killed flows: retransmit quickly instead of waiting
        # out the full ACK timeout (the kill notification is this model's
        # stand-in for the fault-status signals of Section 3)
        for key in sorted(keys):
            flow = self._pending.get(key)
            if flow is None:
                continue  # aborted above
            flow.deadline = now + self.config.retransmit_delay
            flow.fault_kick = True
            heapq.heappush(self._timers, (flow.deadline, key))

        if track is not None and not track.pending_keys and track.recovered_cycle is None:
            track.recovered_cycle = now

    # ------------------------------------------------------------------
    def _ack_protocol(self) -> int:
        if self.config.ack_protocol is not None:
            return self.config.ack_protocol
        return self.sim.config.protocol_classes - 1

    def _backoff_timeout(self, attempt: int) -> int:
        config = self.config
        return min(int(config.timeout * config.backoff**attempt), config.max_timeout)

    def _retransmit(self, flow: _PendingFlow, now: int, *, timed_out: bool) -> None:
        key = (flow.src, flow.seq)
        sim = self.sim
        if flow.src not in sim.queues or flow.dst not in sim.queues:
            self._abort(key, now)
            return
        window = getattr(sim, "reconfig", None)
        if window is not None and flow.dst in window.scenario.faults.node_faults:
            # the destination is condemned by an open reconfiguration
            # window: it will be switched off when the window closes, so
            # a retransmitted copy can never be acknowledged
            self._abort(key, now)
            return
        if flow.attempt >= self.config.max_retries:
            del self._pending[key]
            self.stats.gave_up += 1
            self._resolve(key, now)
            return
        flow.attempt += 1
        flow.fault_kick = False
        self.stats.retransmissions += 1
        if timed_out:
            self.stats.timeouts += 1
        else:
            self.stats.fault_retransmissions += 1
        sim.enqueue_message(
            flow.src,
            flow.dst,
            length=flow.length,
            protocol=flow.protocol,
            seq=flow.seq,
            attempt=flow.attempt,
        )
        if sim.tracer is not None:
            sim.tracer.on_retransmit(now, flow.src, flow.dst, flow.seq, flow.attempt)
        flow.deadline = now + self._backoff_timeout(flow.attempt)
        heapq.heappush(self._timers, (flow.deadline, key))

    def _abort(self, key: FlowKey, now: int) -> None:
        if self._pending.pop(key, None) is None:
            return
        self.stats.aborted += 1
        self._resolve(key, now)

    def _resolve(self, key: FlowKey, now: int) -> None:
        """A flow reached a terminal state: update fault-event recovery
        tracks waiting on it."""
        for track in self.fault_events:
            if key in track.pending_keys:
                track.pending_keys.discard(key)
                if not track.pending_keys and track.recovered_cycle is None:
                    track.recovered_cycle = now
