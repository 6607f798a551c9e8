"""The in-flight tracer: lifecycle events, the flight recorder, and the
engine hook protocol.

The engine carries permanent, guarded emission points (``if tracer is
not None: ...``) in its four stages, the reconfiguration machinery and
the reliability transport.  ``Simulator.tracer`` is ``None`` by default,
so a run without a tracer attached pays only the pointer checks —
``benchmarks/perf_smoke.py`` gates that disabled overhead at <= 2%.

Attach with::

    sim = Simulator(config)
    tracer = Tracer(sim, TraceConfig(window=100))
    result = sim.run()
    tracer.events          # full event log (bounded, drop-counted)
    tracer.recorder.tail() # last-N ring buffer for post-mortems
    tracer.series.samples  # windowed time series (see timeseries.py)

Attaching a tracer never changes simulation results: emission points
observe state, they do not mutate it, and the tracer draws no randomness
— ``tests/test_engine_parity.py`` asserts traced runs are bit-for-bit
identical to untraced ones on both engine cores.
"""

from __future__ import annotations

import weakref
from collections import Counter, deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

from .events import (
    BLOCKED,
    DELIVER,
    GENERATE,
    INJECT,
    MISROUTE_ENTER_RING,
    RETRANSMIT,
    TRANSFER,
    TRUNCATE,
    VC_ALLOC,
    TraceEvent,
)
from .timeseries import TimeSeries


@dataclass(frozen=True)
class TraceConfig:
    """What to record and where exporters should put it.

    Frozen and built from primitives so it can ride inside the frozen
    executor tasks across process boundaries (``Experiment(trace=...)``).
    """

    #: cycles per time-series sampling window (0 disables the series)
    window: int = 100
    #: flight-recorder ring-buffer capacity (last-N events kept for
    #: deadlock / window-loss post-mortems)
    capacity: int = 256
    #: record the full event log (the ring buffer always records)
    events: bool = True
    #: cap on the full event log; once reached, further events are
    #: dropped and counted in :attr:`Tracer.dropped_events`
    max_events: int = 200_000
    #: directory exporters write into (used by the Experiment/CLI
    #: plumbing; the Tracer itself never touches the filesystem)
    out_dir: str = "traces"
    #: which exporters the Experiment/CLI plumbing runs:
    #: any of "jsonl", "csv", "chrome"
    formats: Tuple[str, ...] = ("jsonl", "csv", "chrome")

    def __post_init__(self) -> None:
        if self.window < 0:
            raise ValueError("window must be non-negative (0 disables sampling)")
        if self.capacity < 1:
            raise ValueError("the flight recorder needs capacity >= 1")
        unknown = set(self.formats) - {"jsonl", "csv", "chrome"}
        if unknown:
            raise ValueError(f"unknown trace formats: {sorted(unknown)}")


class FlightRecorder:
    """Bounded ring buffer of the most recent events.

    Always on while a tracer is attached (it is the post-mortem story:
    the tail is attached to :class:`~repro.sim.DeadlockError` and to
    window-loss reports), and O(1) per event regardless of run length.
    """

    __slots__ = ("capacity", "_ring", "seen")

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._ring: Deque[TraceEvent] = deque(maxlen=capacity)
        #: total events ever recorded (so consumers can tell how much
        #: history the ring has forgotten)
        self.seen = 0

    def append(self, event: TraceEvent) -> None:
        self.seen += 1
        self._ring.append(event)

    def __len__(self) -> int:
        return len(self._ring)

    def tail(self, limit: Optional[int] = None) -> List[TraceEvent]:
        """The most recent events, oldest first."""
        events = list(self._ring)
        if limit is not None and limit < len(events):
            events = events[-limit:]
        return events

    def tail_for(self, msg_ids, limit: Optional[int] = None) -> List[TraceEvent]:
        """The recent events belonging to the given message ids (e.g. the
        stuck worms of a deadlock snapshot), oldest first."""
        wanted = set(msg_ids)
        events = [e for e in self._ring if e.msg_id in wanted]
        if limit is not None and limit < len(events):
            events = events[-limit:]
        return events


class Tracer:
    """Collects lifecycle events and windowed time series from one
    simulator.  Construction attaches it (``sim.tracer``); the engine's
    guarded emission points then call the ``on_*`` hooks below."""

    def __init__(self, sim, config: Optional[TraceConfig] = None):
        if getattr(sim, "tracer", None) is not None:
            raise ValueError("simulator already has a tracer attached")
        # the simulator holds the tracer; a weak proxy back keeps the pair
        # free of reference cycles, so a dropped simulator is freed at once
        self.sim = sim = weakref.proxy(sim)
        self.config = config or TraceConfig()
        self.events: List[TraceEvent] = []
        #: events the full log refused once ``max_events`` was reached
        #: (the flight recorder and time series keep recording)
        self.dropped_events = 0
        self.recorder = FlightRecorder(self.config.capacity)
        self.series: Optional[TimeSeries] = (
            TimeSeries(sim, window=self.config.window) if self.config.window else None
        )
        #: msg_ids currently misrouting (drives the enter-ring edge event)
        self._on_ring: Set[int] = set()
        sim.tracer = self
        if self.series is not None:
            sim.cycle_hooks.append(self.series.on_cycle)
        sim.delivery_hooks.append(self._on_delivery_hook)

    # ------------------------------------------------------------------
    def counts(self) -> Counter:
        """Event counts by kind over the full log."""
        return Counter(e.kind for e in self.events)

    def _emit(self, event: TraceEvent) -> None:
        self.recorder.append(event)
        if not self.config.events:
            return
        if len(self.events) < self.config.max_events:
            self.events.append(event)
        else:
            self.dropped_events += 1

    # ------------------------------------------------------------------
    # engine hooks (every call site is guarded by ``tracer is not None``)
    # ------------------------------------------------------------------
    def on_generate(self, now: int, message) -> None:
        self._emit(
            TraceEvent(now, GENERATE, message.msg_id, message.src, message.dst,
                       node=message.src, attempt=message.attempt)
        )

    def on_inject(self, now: int, message, channel, vc_class: int) -> None:
        self._emit(
            TraceEvent(now, INJECT, message.msg_id, message.src, message.dst,
                       node=message.src, channel=channel.name or channel.kind.value,
                       vc_class=vc_class, attempt=message.attempt)
        )

    def on_vc_alloc(self, now: int, message, module, channel, vc_class: int) -> None:
        self._emit(
            TraceEvent(now, VC_ALLOC, message.msg_id, message.src, message.dst,
                       node=module.node_coord, channel=channel.name or channel.kind.value,
                       vc_class=vc_class, attempt=message.attempt)
        )
        # edge-detect the detour onto a fault ring: the routing logic
        # flips route.misroute when the header is steered around a block
        misrouted = message.route.is_misrouted
        msg_id = message.msg_id
        if misrouted and msg_id not in self._on_ring:
            self._on_ring.add(msg_id)
            self._emit(
                TraceEvent(now, MISROUTE_ENTER_RING, msg_id, message.src, message.dst,
                           node=module.node_coord,
                           channel=channel.name or channel.kind.value,
                           vc_class=vc_class, attempt=message.attempt)
            )
        elif not misrouted:
            self._on_ring.discard(msg_id)

    def on_blocked(self, now: int, message, module, channel) -> None:
        self._emit(
            TraceEvent(now, BLOCKED, message.msg_id, message.src, message.dst,
                       node=module.node_coord,
                       channel=channel.name or channel.kind.value,
                       attempt=message.attempt)
        )

    def on_transfer(self, now: int, message, channel, vc_class: int) -> None:
        self._emit(
            TraceEvent(now, TRANSFER, message.msg_id, message.src, message.dst,
                       node=channel.dst_node,
                       channel=channel.name or channel.kind.value,
                       vc_class=vc_class, attempt=message.attempt)
        )

    def on_deliver(self, now: int, message) -> None:
        self._on_ring.discard(message.msg_id)
        self._emit(
            TraceEvent(now, DELIVER, message.msg_id, message.src, message.dst,
                       node=message.dst, attempt=message.attempt)
        )

    def on_truncate(self, now: int, message) -> None:
        self._on_ring.discard(message.msg_id)
        self._emit(
            TraceEvent(now, TRUNCATE, message.msg_id, message.src, message.dst,
                       attempt=message.attempt)
        )

    def on_retransmit(self, now: int, src, dst, seq: int, attempt: int) -> None:
        # the retransmitted copy is a *new* Message; the event names the
        # flow by its per-source sequence number so post-mortems can line
        # copies up (msg_id here is the flow's seq, not a message id)
        self._emit(
            TraceEvent(now, RETRANSMIT, seq, src, dst, node=src, attempt=attempt)
        )

    # ------------------------------------------------------------------
    def _on_delivery_hook(self, message) -> None:
        self.on_deliver(self.sim.now, message)
