"""Observability: in-flight tracing, windowed time series, flight
recorder post-mortems, and exporters (JSONL / CSV / Chrome trace JSON).

See ``docs/observability.md`` for the event taxonomy, exporter formats
and overhead numbers.
"""

from .events import (
    BLOCKED,
    DELIVER,
    EVENT_KINDS,
    EXEC_EVENT_KINDS,
    GENERATE,
    INJECT,
    MISROUTE_ENTER_RING,
    RETRANSMIT,
    TERMINAL_KINDS,
    TRANSFER,
    TRUNCATE,
    VC_ALLOC,
    ExecEvent,
    TraceEvent,
    validate_event,
    validate_exec_event,
)
from .export import (
    events_to_jsonl,
    export_trace,
    read_jsonl,
    series_to_csv,
    to_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
    write_csv,
    write_jsonl,
)
from .timeseries import TimeSeries, WindowSample
from .tracer import FlightRecorder, TraceConfig, Tracer

__all__ = [
    "BLOCKED",
    "DELIVER",
    "EVENT_KINDS",
    "EXEC_EVENT_KINDS",
    "GENERATE",
    "INJECT",
    "MISROUTE_ENTER_RING",
    "RETRANSMIT",
    "TERMINAL_KINDS",
    "TRANSFER",
    "TRUNCATE",
    "VC_ALLOC",
    "ExecEvent",
    "FlightRecorder",
    "TimeSeries",
    "TraceConfig",
    "TraceEvent",
    "Tracer",
    "WindowSample",
    "events_to_jsonl",
    "export_trace",
    "read_jsonl",
    "series_to_csv",
    "to_chrome_trace",
    "validate_chrome_trace",
    "validate_event",
    "validate_exec_event",
    "write_chrome_trace",
    "write_csv",
    "write_jsonl",
]
