"""Trace exporters: JSONL events, CSV time series, Chrome trace-event
JSON for ``chrome://tracing`` / Perfetto.

Formats:

* **JSONL** — one :class:`~repro.obs.events.TraceEvent` dict per line
  (checked by :func:`repro.obs.events.validate_event`; ``*.exec.jsonl``
  files hold :class:`~repro.obs.events.ExecEvent`\\ s instead).  Streams
  into ``jq``/pandas; round-trips through :func:`read_jsonl`.
* **CSV** — one row per :class:`~repro.obs.timeseries.WindowSample`,
  with one ``c<i>_busy`` column per virtual channel class.
* **Chrome trace JSON** — the ``traceEvents`` array format.  Message
  lifetimes are async spans (``ph b``/``e``, one track per message id),
  point events are instants (``ph i``), and the windowed series become
  counter tracks (``ph C``) — open the file in Perfetto and the f-ring
  hotspot is the tall counter track.  One simulated cycle is exported as
  one microsecond of trace time.

Validation (:func:`validate_chrome_trace`) is schema-driven and
dependency-free, so the CI trace-export smoke job can run it anywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from ..canonical import from_data, to_data
from .events import (
    EVENT_KINDS,
    TERMINAL_KINDS,
    INJECT,
    ExecEvent,
    TraceEvent,
    validate_event,
    validate_exec_event,
)
from .timeseries import TimeSeries
from .tracer import Tracer

# ----------------------------------------------------------------------
# JSONL events
# ----------------------------------------------------------------------


def events_to_jsonl(events: Iterable[Any]) -> str:
    return "".join(json.dumps(to_data(e), sort_keys=True) + "\n" for e in events)


def write_jsonl(events: Iterable[Any], path) -> Path:
    """Write trace events, or executor infra events (retry / timeout /
    crash / hung / quarantine) to a ``<stem>.exec.jsonl`` path — the
    suffix :func:`read_jsonl` and the validator route on."""
    path = Path(path)
    path.write_text(events_to_jsonl(events))
    return path


def read_jsonl(path) -> List[Any]:
    """Parse a JSONL export back into events, validating each line:
    :class:`ExecEvent`\\ s from a ``.exec.jsonl`` file, else
    :class:`TraceEvent`\\ s."""
    path = Path(path)
    if path.name.endswith(".exec.jsonl"):
        cls, validate = ExecEvent, validate_exec_event
    else:
        cls, validate = TraceEvent, validate_event
    events: List[Any] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        data = json.loads(line)
        problems = validate(data)
        if problems:
            raise ValueError(f"{path}:{lineno}: {'; '.join(problems)}")
        events.append(from_data(cls, data))
    return events


# ----------------------------------------------------------------------
# CSV time series
# ----------------------------------------------------------------------


def series_to_csv(series: TimeSeries) -> str:
    classes = max((len(s.vc_occupancy) for s in series.samples), default=0)
    header = [
        "cycle",
        "window",
        "utilization",
        "ring_utilization",
        "other_utilization",
        "ring_channels",
        "other_channels",
        "active_worms",
    ] + [f"c{i}_busy" for i in range(classes)]
    lines = [",".join(header)]
    for s in series.samples:
        row = [
            str(s.cycle),
            str(s.window),
            f"{s.utilization:.6f}",
            f"{s.ring_utilization:.6f}",
            f"{s.other_utilization:.6f}",
            str(s.ring_channels),
            str(s.other_channels),
            str(s.active_worms),
        ] + [str(n) for n in s.vc_occupancy]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def write_csv(series: TimeSeries, path) -> Path:
    path = Path(path)
    path.write_text(series_to_csv(series))
    return path


# ----------------------------------------------------------------------
# Chrome trace-event JSON
# ----------------------------------------------------------------------

#: pid/tid layout of the exported trace: one "process" for message
#: lifecycle, one for counters (Perfetto groups tracks by pid)
_PID_MESSAGES = 1
_PID_COUNTERS = 2


def _event_args(event: TraceEvent) -> Dict[str, Any]:
    args: Dict[str, Any] = {
        "msg_id": event.msg_id,
        "src": list(event.src),
        "dst": list(event.dst),
        "attempt": event.attempt,
    }
    if event.node is not None:
        args["node"] = list(event.node)
    if event.channel is not None:
        args["channel"] = event.channel
    if event.vc_class is not None:
        args["vc_class"] = event.vc_class
    return args


def to_chrome_trace(
    events: Iterable[TraceEvent],
    series: Optional[TimeSeries] = None,
    *,
    label: str = "repro",
) -> Dict[str, Any]:
    """Build the ``chrome://tracing`` / Perfetto payload."""
    trace: List[Dict[str, Any]] = []
    open_spans: set = set()
    for event in events:
        args = _event_args(event)
        if event.kind == INJECT:
            open_spans.add(event.msg_id)
            trace.append(
                {
                    "name": f"msg {event.msg_id}",
                    "cat": "message",
                    "ph": "b",
                    "id": event.msg_id,
                    "pid": _PID_MESSAGES,
                    "tid": 1,
                    "ts": event.cycle,
                    "args": args,
                }
            )
            continue
        if event.kind in TERMINAL_KINDS and event.msg_id in open_spans:
            open_spans.discard(event.msg_id)
            trace.append(
                {
                    "name": f"msg {event.msg_id}",
                    "cat": "message",
                    "ph": "e",
                    "id": event.msg_id,
                    "pid": _PID_MESSAGES,
                    "tid": 1,
                    "ts": event.cycle,
                    "args": {"kind": event.kind},
                }
            )
        trace.append(
            {
                "name": event.kind,
                "cat": "lifecycle",
                "ph": "i",
                "s": "t",
                "pid": _PID_MESSAGES,
                "tid": 1,
                "ts": event.cycle,
                "args": args,
            }
        )
    if series is not None:
        for sample in series.samples:
            trace.append(
                {
                    "name": "channel utilization (flits/cycle)",
                    "ph": "C",
                    "pid": _PID_COUNTERS,
                    "ts": sample.cycle,
                    "args": {
                        "f-ring": round(sample.ring_utilization, 6),
                        "other": round(sample.other_utilization, 6),
                    },
                }
            )
            trace.append(
                {
                    "name": "active worms",
                    "ph": "C",
                    "pid": _PID_COUNTERS,
                    "ts": sample.cycle,
                    "args": {"in_flight": sample.active_worms},
                }
            )
            trace.append(
                {
                    "name": "VC occupancy",
                    "ph": "C",
                    "pid": _PID_COUNTERS,
                    "ts": sample.cycle,
                    "args": {
                        f"c{i}": busy for i, busy in enumerate(sample.vc_occupancy)
                    },
                }
            )
    return {
        "traceEvents": trace,
        "displayTimeUnit": "ms",
        "otherData": {"source": label, "time_unit": "1 cycle = 1 us"},
    }


def write_chrome_trace(
    events: Iterable[TraceEvent],
    series: Optional[TimeSeries],
    path,
    *,
    label: str = "repro",
) -> Path:
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(events, series, label=label)))
    return path


_PHASES = {"b", "e", "i", "C"}


def validate_chrome_trace(payload: Dict[str, Any]) -> List[str]:
    """Structural validation of a Chrome trace payload; an instant
    event's name must also be one of :data:`EVENT_KINDS`.  Returns a
    list of problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not an object with a traceEvents array"]
    trace = payload["traceEvents"]
    if not isinstance(trace, list):
        return ["traceEvents is not an array"]
    for index, entry in enumerate(trace):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: not an object")
            continue
        for required in ("name", "ph", "pid", "ts"):
            if required not in entry:
                errors.append(f"{where}: missing {required!r}")
        ph = entry.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
        ts = entry.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: bad timestamp {ts!r}")
        if ph in ("b", "e") and "id" not in entry:
            errors.append(f"{where}: async event without an id")
        if ph == "i" and entry.get("name") not in EVENT_KINDS:
            errors.append(f"{where}: instant name {entry.get('name')!r} "
                          "is not a known event kind")
        if ph == "C" and not isinstance(entry.get("args"), dict):
            errors.append(f"{where}: counter event without args")
    return errors


# ----------------------------------------------------------------------
# one-call export
# ----------------------------------------------------------------------


def export_trace(tracer: Tracer, out_dir, stem: str, formats=None) -> List[Path]:
    """Write every requested format under ``out_dir`` and return the
    paths: ``<stem>.events.jsonl``, ``<stem>.series.csv``,
    ``<stem>.trace.json``."""
    formats = tuple(formats) if formats is not None else tracer.config.formats
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    if "jsonl" in formats:
        paths.append(write_jsonl(tracer.events, out / f"{stem}.events.jsonl"))
    if "csv" in formats and tracer.series is not None:
        paths.append(write_csv(tracer.series, out / f"{stem}.series.csv"))
    if "chrome" in formats:
        paths.append(
            write_chrome_trace(
                tracer.events, tracer.series, out / f"{stem}.trace.json", label=stem
            )
        )
    return paths
