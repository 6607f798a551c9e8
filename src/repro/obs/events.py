"""Typed lifecycle events for the observability subsystem.

The paper's performance story is dynamic — misrouted worms concentrate
on f-ring channels (Section 6) and deadlock freedom rests on per-type
virtual channel usage (Lemmas 1-2) — so the tracer records the moments
where that dynamics happens: a message entering the network, a header
winning (or failing to win) a virtual channel, a worm detouring onto a
fault ring, a truncation, a retransmission.

One event is one :class:`TraceEvent`: a flat, JSON-safe record with a
``kind`` from :data:`EVENT_KINDS` and a fixed field set described by
:data:`EVENT_SCHEMA`.  Exporters (:mod:`repro.obs.export`) write
``repro.canonical.to_data`` and never invent fields of their own, so
anything they write reads back with ``from_data`` and validates with
:func:`validate_event`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

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
# the schema exporters are validated against
# ----------------------------------------------------------------------

#: field -> (required, validator description).  Kept as plain data so the
#: trace-export smoke job can validate files without third-party
#: jsonschema dependencies.
EVENT_SCHEMA: Dict[str, Dict[str, Any]] = {
    "cycle": {"required": True, "type": "int", "min": 0},
    "kind": {"required": True, "type": "str", "enum": sorted(EVENT_KINDS)},
    "msg_id": {"required": True, "type": "int", "min": 0},
    "src": {"required": True, "type": "coord"},
    "dst": {"required": True, "type": "coord"},
    "node": {"required": False, "type": "coord"},
    "channel": {"required": False, "type": "str"},
    "vc_class": {"required": False, "type": "int", "min": 0},
    "attempt": {"required": False, "type": "int", "min": 0},
}

_EVENT_FIELDS = {spec.name for spec in fields(TraceEvent)}
assert set(EVENT_SCHEMA) == _EVENT_FIELDS, "schema drifted from TraceEvent"


def _check_type(value: Any, spec: Dict[str, Any]) -> Optional[str]:
    kind = spec["type"]
    if kind == "int":
        if not isinstance(value, int) or isinstance(value, bool):
            return f"expected int, got {type(value).__name__}"
        if "min" in spec and value < spec["min"]:
            return f"{value} below minimum {spec['min']}"
    elif kind == "str":
        if not isinstance(value, str):
            return f"expected str, got {type(value).__name__}"
        if "enum" in spec and value not in spec["enum"]:
            return f"{value!r} not one of {spec['enum']}"
    elif kind == "coord":
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value
        ):
            return "expected a coordinate (list of ints)"
    return None


def _validate(data: Any, schema: Dict[str, Dict[str, Any]]) -> List[str]:
    errors: List[str] = []
    if not isinstance(data, dict):
        return [f"event is not an object: {type(data).__name__}"]
    for name, spec in schema.items():
        if name not in data or data[name] is None:
            if spec["required"]:
                errors.append(f"missing required field {name!r}")
            continue
        problem = _check_type(data[name], spec)
        if problem is not None:
            errors.append(f"field {name!r}: {problem}")
    for name in data:
        if name not in schema:
            errors.append(f"unknown field {name!r}")
    return errors


def validate_event(data: Dict[str, Any]) -> List[str]:
    """Validate one event dict against :data:`EVENT_SCHEMA`; returns a
    list of problems (empty = valid)."""
    return _validate(data, EVENT_SCHEMA)


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


EXEC_EVENT_SCHEMA: Dict[str, Dict[str, Any]] = {
    "kind": {"required": True, "type": "str", "enum": sorted(EXEC_EVENT_KINDS)},
    "task_index": {"required": True, "type": "int", "min": 0},
    "attempt": {"required": True, "type": "int", "min": 1},
    "key": {"required": False, "type": "str"},
    "detail": {"required": False, "type": "str"},
}

_EXEC_EVENT_FIELDS = {spec.name for spec in fields(ExecEvent)}
assert set(EXEC_EVENT_SCHEMA) == _EXEC_EVENT_FIELDS, "schema drifted from ExecEvent"


def validate_exec_event(data: Dict[str, Any]) -> List[str]:
    """Validate one exec-event dict against :data:`EXEC_EVENT_SCHEMA`;
    returns a list of problems (empty = valid)."""
    return _validate(data, EXEC_EVENT_SCHEMA)
