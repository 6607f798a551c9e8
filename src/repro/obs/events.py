"""Typed lifecycle events for the observability subsystem.

The paper's performance story is dynamic — misrouted worms concentrate
on f-ring channels (Section 6) and deadlock freedom rests on per-type
virtual channel usage (Lemmas 1-2) — so the tracer records the moments
where that dynamics happens: a message entering the network, a header
winning (or failing to win) a virtual channel, a worm detouring onto a
fault ring, a truncation, a retransmission.

One event is one :class:`TraceEvent`: a flat, JSON-safe record with a
``kind`` from :data:`EVENT_KINDS` and the fixed field set of the class.
Exporters (:mod:`repro.obs.export`) write ``repro.canonical.to_data``
and never invent fields of their own, so anything they write reads back
with ``from_data`` and validates with :func:`validate_event`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..canonical import DecodeError, from_data

# ----------------------------------------------------------------------
# the taxonomy
# ----------------------------------------------------------------------

#: a message was generated and queued at its source
GENERATE = "generate"
#: injection started: the message claimed an injection virtual channel
INJECT = "inject"
#: a waiting header was allocated a downstream virtual channel
VC_ALLOC = "vc_alloc"
#: a worm's tail finished crossing a physical channel (one hop done)
TRANSFER = "transfer"
#: the message switched from normal routing to misrouting around a ring
MISROUTE_ENTER_RING = "misroute_enter_ring"
#: a header's first allocation attempt at a node found no free VC
BLOCKED = "blocked"
#: the whole worm reached its destination's consumption channel
DELIVER = "deliver"
#: a reconfiguration (or stale-knowledge window routing) truncated the worm
TRUNCATE = "truncate"
#: the reliability transport re-queued a fresh copy of a lost flow
RETRANSMIT = "retransmit"

EVENT_KINDS = frozenset(
    {
        GENERATE,
        INJECT,
        VC_ALLOC,
        TRANSFER,
        MISROUTE_ENTER_RING,
        BLOCKED,
        DELIVER,
        TRUNCATE,
        RETRANSMIT,
    }
)

#: kinds that terminate a message's lifecycle (close its trace span)
TERMINAL_KINDS = frozenset({DELIVER, TRUNCATE})


@dataclass(frozen=True)
class TraceEvent:
    """One lifecycle event.  ``src``/``dst``/``node`` are coordinate
    tuples; ``channel`` is the physical channel's name; ``vc_class`` the
    absolute virtual channel class index; ``attempt`` the transport
    transmission attempt (0 = original copy)."""

    cycle: int
    kind: str
    msg_id: int
    src: Tuple[int, ...]
    dst: Tuple[int, ...]
    node: Optional[Tuple[int, ...]] = None
    channel: Optional[str] = None
    vc_class: Optional[int] = None
    attempt: int = 0


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------


def _problems(cls: type, kinds: frozenset, minimums: Dict[str, int], data: Any) -> List[str]:
    """What is wrong with ``data`` read as ``cls``: the codec's strict
    read checks field names, types and required fields; the kind set and
    the lower bounds are the two rules an annotation cannot state."""
    try:
        event = from_data(cls, data)
    except DecodeError as exc:
        return [str(exc)]
    problems = []
    if event.kind not in kinds:
        problems.append(f"kind: {event.kind!r} not one of {sorted(kinds)}")
    for name, low in minimums.items():
        value = getattr(event, name)
        if value is not None and value < low:
            problems.append(f"{name}: {value} below minimum {low}")
    return problems


_EVENT_MINIMUMS = {"cycle": 0, "msg_id": 0, "vc_class": 0, "attempt": 0}


def validate_event(data: Any) -> List[str]:
    """Check one event dict as a :class:`TraceEvent`; returns a list of
    problems (empty = valid), each naming its field."""
    return _problems(TraceEvent, EVENT_KINDS, _EVENT_MINIMUMS, data)


# ----------------------------------------------------------------------
# infrastructure (executor) events
# ----------------------------------------------------------------------

#: the task was re-dispatched after an infrastructure failure
TASK_RETRY = "task_retry"
#: a worker exceeded the per-task wall-clock budget and was killed
TASK_TIMEOUT = "task_timeout"
#: a worker process died underneath its task (OOM kill, segfault)
TASK_CRASH = "task_crash"
#: a busy worker stopped heartbeating and was killed by the watchdog
TASK_HUNG = "task_hung"
#: a poison task exhausted its attempts and became a TaskFailure
TASK_QUARANTINE = "task_quarantine"

EXEC_EVENT_KINDS = frozenset(
    {TASK_RETRY, TASK_TIMEOUT, TASK_CRASH, TASK_HUNG, TASK_QUARANTINE}
)


@dataclass(frozen=True)
class ExecEvent:
    """One executor-infrastructure incident (retry, timeout, crash,
    hang, quarantine) — distinct from message-lifecycle
    :class:`TraceEvent`\\ s, which describe the *simulated* network.

    Deliberately carries no wall-clock timestamp: two runs of the same
    sweep that suffer the same incidents produce identical event
    streams, matching the executor's determinism guarantee.  ``key`` is
    the task's checkpoint key when the run was checkpointed.
    """

    kind: str
    task_index: int
    attempt: int
    key: str = ""
    detail: str = ""


_EXEC_EVENT_MINIMUMS = {"task_index": 0, "attempt": 1}


def validate_exec_event(data: Any) -> List[str]:
    """Check one exec-event dict as an :class:`ExecEvent`; returns a list
    of problems (empty = valid), each naming its field."""
    return _problems(ExecEvent, EXEC_EVENT_KINDS, _EXEC_EVENT_MINIMUMS, data)
