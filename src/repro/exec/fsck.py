"""Integrity checking for the on-disk result store.

The store's writes are atomic, but the machine under it is not: a hard
kill can leave temp files behind, disks corrupt, and a moved or
hand-edited entry can stop matching its content-addressed name.  The
detect/contain discipline the paper applies to router faults applies
here too: :func:`fsck` scans every entry, *quarantines* anything that
does not verify (moved to ``<root>/quarantine/`` — never deleted, so a
surprising result can be inspected), and garbage-collects temp files by
the store's own rule (:meth:`~repro.exec.store.ResultStore.clean_stale`)
with no grace period: every temp but one a live writer is still writing
goes.  A temp's name carries its writer's pid, so a temp whose writer is
dead counts as a dead write — evidence of a crash.

An entry verifies when all of the following hold:

* the file parses as JSON with the ``key``/``version``/``config``/
  ``result`` shape the store writes (else **torn-entry**);
* its filename and fan-out directory match the recorded key (else
  **key-mismatch** / **misplaced**);
* the recorded result rebuilds as a
  :class:`~repro.sim.metrics.SimulationResult` (else **bad-result**);
* the recorded config rebuilds and re-hashes — with the entry's own
  version tag — to the recorded key (else **bad-config** /
  **key-mismatch**), so a corrupted payload can never be served for a
  different configuration.

Run standalone (``python -m repro.exec.fsck [root]``) or via
``repro-experiments fsck``.  Exit status is non-zero when entries had
to be quarantined.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from ..canonical import from_data
from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationResult
from .store import QUARANTINE_DIR, ResultStore, pid_alive

_ENTRY_FIELDS = {"key", "version", "config", "result"}


@dataclass(frozen=True)
class FsckIssue:
    """One entry that failed verification."""

    kind: str  #: torn-entry | key-mismatch | misplaced | bad-result | bad-config
    path: str
    detail: str = ""
    quarantined_to: str = ""  #: empty when fsck ran with ``repair=False``

    def describe(self) -> str:
        where = f" -> {self.quarantined_to}" if self.quarantined_to else ""
        return f"{self.kind}: {self.path} ({self.detail}){where}"


@dataclass
class FsckReport:
    """Everything one :func:`fsck` pass found and did."""

    root: str
    repaired: bool
    scanned: int = 0
    ok: int = 0
    issues: List[FsckIssue] = field(default_factory=list)
    temps_removed: int = 0
    #: temp files whose writer pid is dead — evidence of a crashed
    #: writer (``temps_removed`` counts them among the rest)
    dead_writes: int = 0

    @property
    def clean(self) -> bool:
        """True when the pass found nothing to fix at all."""
        return not self.issues and not self.temps_removed and not self.dead_writes

    def describe(self) -> str:
        lines = [
            f"fsck {self.root}: {self.scanned} entries scanned, {self.ok} ok, "
            f"{len(self.issues)} quarantined, {self.temps_removed} temp file(s) "
            f"removed, {self.dead_writes} dead in-flight write(s)"
        ]
        lines.extend("  " + issue.describe() for issue in self.issues)
        lines.append("store is clean" if self.clean else "store needed repair")
        return "\n".join(lines)


def _verify_entry(path: Path) -> Optional[Tuple[str, str]]:
    """``(kind, detail)`` when the entry fails verification, else None."""
    try:
        entry = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return ("torn-entry", f"unparseable JSON: {exc}")
    if not isinstance(entry, dict) or not _ENTRY_FIELDS <= set(entry):
        return ("torn-entry", "missing entry fields")
    key = entry["key"]
    if not isinstance(key, str) or path.stem != key:
        return ("key-mismatch", f"filename does not match recorded key {key!r:.20}")
    if path.parent.name != key[:2]:
        return ("misplaced", f"expected fan-out directory {key[:2]!r}")
    try:
        SimulationResult.from_dict(entry["result"])
    except Exception as exc:  # any shape problem means the payload is unusable
        return ("bad-result", f"result does not rebuild: {exc}")
    try:
        config = from_data(SimulationConfig, entry["config"])
    except Exception as exc:
        return ("bad-config", f"config does not rebuild: {exc}")
    if config.content_hash(entry["version"]) != key:
        return ("key-mismatch", "content hash does not match recorded key")
    return None


def _quarantine(path: Path, root: Path) -> Path:
    qdir = root / QUARANTINE_DIR
    qdir.mkdir(parents=True, exist_ok=True)
    target = qdir / path.name
    suffix = 0
    while target.exists():
        suffix += 1
        target = qdir / f"{path.name}.{suffix}"
    path.replace(target)
    return target


def fsck(
    store: Union[ResultStore, str, Path], *, repair: bool = True
) -> FsckReport:
    """Verify every entry, quarantine failures, remove the temps no live
    writer owns (``clean_stale(ttl=0.0)``).  With ``repair=False``
    nothing is moved or deleted — the report only describes what a
    repairing pass would do."""
    if not isinstance(store, ResultStore):
        store = ResultStore(store, clean_on_open=False)
    report = FsckReport(root=str(store.root), repaired=repair)
    for path in list(store._entries()):
        report.scanned += 1
        problem = _verify_entry(path)
        if problem is None:
            report.ok += 1
            continue
        kind, detail = problem
        quarantined_to = ""
        if repair:
            try:
                quarantined_to = str(_quarantine(path, store.root))
            except OSError as exc:
                detail = f"{detail}; quarantine failed: {exc}"
        report.issues.append(
            FsckIssue(
                kind=kind,
                path=str(path),
                detail=detail,
                quarantined_to=quarantined_to,
            )
        )
    report.dead_writes = sum(
        1
        for pid in store._writers().values()
        if pid is not None and not pid_alive(pid)
    )
    if repair:
        report.temps_removed = store.clean_stale(ttl=0.0)
    else:
        report.temps_removed = len(store.stale_temps(ttl=0.0))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.fsck",
        description="Verify the on-disk result store: quarantine torn or "
        "mismatched entries, remove orphaned temp files.",
    )
    parser.add_argument(
        "root",
        nargs="?",
        default=None,
        help="store directory (default: $REPRO_RESULT_STORE or "
        "~/.cache/repro/results)",
    )
    parser.add_argument(
        "--dry-run",
        action="store_true",
        help="report problems without quarantining or deleting anything",
    )
    args = parser.parse_args(argv)
    report = fsck(ResultStore(args.root, clean_on_open=False), repair=not args.dry_run)
    print(report.describe())
    return 1 if report.issues else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
