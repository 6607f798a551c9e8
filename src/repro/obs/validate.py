"""Validate trace exports against the event classes.

CI smoke usage::

    python -m repro.obs.validate traces/*.events.jsonl traces/*.trace.json

``*.jsonl`` files are checked line-by-line with
:func:`repro.obs.events.validate_event` (``*.exec.jsonl`` files — the
executor's infrastructure events — with
:func:`repro.obs.events.validate_exec_event`); ``*.json`` files are
parsed as Chrome trace payloads and checked with
:func:`repro.obs.export.validate_chrome_trace`.  Exit status is non-zero
on the first invalid file, with every problem printed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from .events import validate_event, validate_exec_event
from .export import validate_chrome_trace


def validate_jsonl_file(path: Path) -> List[str]:
    # executor-infrastructure exports hold ExecEvents, routed on the
    # double suffix the exporter always writes
    validator = (
        validate_exec_event if path.name.endswith(".exec.jsonl") else validate_event
    )
    errors: List[str] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc})")
            continue
        errors.extend(f"line {lineno}: {p}" for p in validator(data))
    return errors


def validate_chrome_file(path: Path) -> List[str]:
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        return [f"invalid JSON ({exc})"]
    return validate_chrome_trace(payload)


def validate_file(path: Path) -> List[str]:
    if path.suffix == ".jsonl":
        return validate_jsonl_file(path)
    if path.suffix == ".json":
        return validate_chrome_file(path)
    if path.suffix == ".csv":
        # CSV series files only need a header and rectangular rows
        lines = [l for l in path.read_text().splitlines() if l.strip()]
        if not lines:
            return ["empty CSV"]
        width = len(lines[0].split(","))
        return [
            f"line {i}: expected {width} columns, got {len(line.split(','))}"
            for i, line in enumerate(lines[1:], start=2)
            if len(line.split(",")) != width
        ]
    return [f"unknown trace file type {path.suffix!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Validate JSONL / Chrome-trace / CSV exports against "
        "the trace event classes.",
    )
    parser.add_argument("files", nargs="+", help="trace files to validate")
    args = parser.parse_args(argv)
    failed = 0
    for name in args.files:
        path = Path(name)
        if not path.exists():
            print(f"{path}: missing")
            failed += 1
            continue
        problems = validate_file(path)
        if problems:
            failed += 1
            for problem in problems[:20]:
                print(f"{path}: {problem}")
            if len(problems) > 20:
                print(f"{path}: ... and {len(problems) - 20} more problems")
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
