"""Runtime deadlock detection.

The routing algorithm is provably deadlock-free (Lemma 1); the simulator
still watches for global inactivity as an executable check of that claim
(and as a tripwire for configuration or implementation errors).  If no
flit moves for ``deadlock_threshold`` cycles while messages are in
flight, the run aborts with a diagnostic snapshot of the stuck worms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass(frozen=True)
class StuckWorm:
    """One allocated virtual channel in a deadlock snapshot."""

    channel: str
    vc_class: int
    msg_id: int
    src: tuple
    dst: tuple
    received: int
    sent: int
    length: int
    misrouted: bool
    #: cycles until the worm's current node has complete fault knowledge
    #: (None outside a reconfiguration transition window)
    knowledge_lag: Optional[int] = None

    def describe(self) -> str:
        text = (
            f"  {self.channel} class c{self.vc_class}: "
            f"msg#{self.msg_id} {self.src}->{self.dst} "
            f"(received {self.received}, sent {self.sent} of {self.length}, "
            f"misrouted={self.misrouted})"
        )
        if self.knowledge_lag is not None:
            text += f" [knowledge lag {self.knowledge_lag} cycles]"
        return text


class DeadlockError(RuntimeError):
    """No flit made progress for the configured number of cycles while
    messages were still in flight.

    Carries structured data for programmatic inspection: ``cycle``, the
    ``worms`` snapshot (a list of :class:`StuckWorm` records, possibly
    truncated — compare against ``total_busy``), the formatted
    ``report`` string, and — when a tracer was attached — the flight
    recorder's last events in ``trace_tail`` (oldest first), so the
    post-mortem shows what the stuck worms last did.
    """

    def __init__(
        self,
        cycle: int,
        report: Optional[str] = None,
        *,
        worms: Optional[List[StuckWorm]] = None,
        total_busy: Optional[int] = None,
        events: Optional[list] = None,
    ):
        self.cycle = cycle
        self.worms: List[StuckWorm] = list(worms) if worms else []
        self.total_busy = total_busy if total_busy is not None else len(self.worms)
        #: flight-recorder tail (TraceEvents, oldest first); empty when
        #: the run had no tracer attached
        self.trace_tail: list = list(events) if events else []
        if report is None:
            report = format_stuck_worms(self.worms, self.total_busy)
            if self.trace_tail:
                stuck_ids = {worm.msg_id for worm in self.worms}
                recent = [e for e in self.trace_tail if e.msg_id in stuck_ids][-10:]
                if recent:
                    report += "\n  last recorded events for stuck worms:"
                    for event in recent:
                        report += (
                            f"\n    cycle {event.cycle}: {event.kind} "
                            f"msg#{event.msg_id}"
                            + (f" on {event.channel}" if event.channel else "")
                        )
        self.report = report
        super().__init__(f"network deadlocked by cycle {cycle}:\n{report}")

    @property
    def truncated(self) -> bool:
        """True when the snapshot holds fewer worms than were stuck."""
        return len(self.worms) < self.total_busy


def stuck_worm_snapshot(
    channels, limit: int = 20, *, knowledge=None
) -> Tuple[List[StuckWorm], int]:
    """Collect up to ``limit`` stuck-worm records plus the total number of
    busy virtual channels (so callers can tell whether the snapshot was
    truncated).  ``knowledge`` is an optional ``coord -> lag-in-cycles``
    callable (an open transition window's per-node knowledge age); each
    record then carries the lag of the channel's source node."""
    worms: List[StuckWorm] = []
    total = 0
    for channel in channels:
        store = channel._st
        for vid in store.busy_vids(channel.index):
            message = store.msg[vid]
            if message is None:
                continue
            total += 1
            if len(worms) < limit:
                worms.append(
                    StuckWorm(
                        channel=channel.name or channel.kind.value,
                        vc_class=vid - store.vbase[channel.index],
                        msg_id=message.msg_id,
                        src=message.src,
                        dst=message.dst,
                        received=store.received[vid],
                        sent=store.sent[vid],
                        length=message.length,
                        misrouted=message.route.is_misrouted,
                        knowledge_lag=(
                            knowledge(channel.src_node) if knowledge is not None else None
                        ),
                    )
                )
    return worms, total


def format_stuck_worms(worms: List[StuckWorm], total_busy: int) -> str:
    """Human-readable rendering of a snapshot, noting truncation."""
    if not worms:
        return "  (no busy virtual channels found)"
    lines = [worm.describe() for worm in worms]
    if total_busy > len(worms):
        lines.append(
            f"  ... snapshot truncated: showing {len(worms)} of "
            f"{total_busy} busy VCs total"
        )
    return "\n".join(lines)


def stuck_worm_report(channels, limit: int = 20) -> str:
    """Human-readable snapshot of allocated virtual channels for deadlock
    diagnostics."""
    worms, total = stuck_worm_snapshot(channels, limit)
    return format_stuck_worms(worms, total)
