"""Durable files: the one append-only-log rule and the one atomic writer.

Everything the repo must find intact after a SIGKILL is either a JSONL
log (a checkpoint's ``done.jsonl``, the service journal, the MC tally
log) or a whole file replaced atomically (store entry, checkpoint
manifest, job spec / result, ``server.json``).  Both go through this
module, and the logs follow one rule:

    A record is one ``\\n``-terminated line written by one ``write`` and
    fsynced before the caller proceeds.  A crash leaves at most one
    fragment, at the tail.  Nothing ever truncates or rewrites a log to
    repair it — a log may have several writer processes (the default
    store root is shared by concurrent CLI runs) — so the next append
    starts on a line of its own and readers skip every line that is not
    a record.

A skipped record costs its owner one unit of deterministic rework (see
"Durable files" in ``docs/execution.md``); it never costs correctness.

An atomic write's temp file is named ``<target>.<pid>.<random>.tmp``
from the moment it exists, so whoever finds one left over can tell from
the name alone whether its writer may still be writing it
(:func:`temp_writer_pid`).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import List, Optional


def append_jsonl(path: Path, record: dict) -> None:
    """Append one fsynced JSON line to an append-only log, healing a
    torn tail first: if the file does not end in a newline (a writer was
    killed mid-line) the record starts on a line of its own instead of
    fusing with — and thereby being lost along with — the fragment.
    Readers skip the fragment as an unparsable line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"
    with open(path, "a+b") as handle:  # O_APPEND: writes land at the end
        if handle.seek(0, os.SEEK_END):
            handle.seek(-1, os.SEEK_END)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())


def read_jsonl(path: Path) -> List[dict]:
    """Every record of a log, in file order; a missing file has none.

    Lines are decoded and parsed one by one from the raw bytes, so a
    torn fragment — cut inside a multi-byte character included — or a
    corrupt line hides itself and nothing after it."""
    try:
        raw = path.read_bytes()
    except OSError:
        return []
    records: List[dict] = []
    for line in raw.split(b"\n"):
        try:
            record = json.loads(line.decode("utf-8"))
        except ValueError:  # blank, torn, undecodable or not JSON
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def atomic_write_text(path: Path, text: str) -> None:
    """Replace ``path`` with ``text`` so that a crash at any point
    leaves the complete old file or the complete new one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f"{path.name}.{os.getpid()}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def temp_writer_pid(name: str) -> Optional[int]:
    """The writer pid in the name of a temp file :func:`atomic_write_text`
    made, or None for any other name."""
    parts = name.rsplit(".", 3)
    if len(parts) == 4 and parts[3] == "tmp" and parts[1].isdecimal():
        return int(parts[1])
    return None
