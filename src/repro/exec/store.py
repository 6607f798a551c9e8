"""On-disk memoization of :class:`~repro.sim.metrics.SimulationResult`\\ s.

Every figure in the paper is a latency-vs-load sweep, and campaign
comparisons and ablations re-run largely identical point sets.  The
store keys each result by a *content hash* of the full canonical
:class:`~repro.sim.config.SimulationConfig` plus a code-version tag, so

* re-running a figure only simulates the points whose configuration
  actually changed,
* any config-field change (even a newly added field) produces a new key
  — a stale hit is structurally impossible, and
* bumping :data:`CODE_VERSION` after a simulator-semantics change
  invalidates everything at once.

Entries are one JSON file per result under ``<root>/<hash[:2]>/<hash>.json``
(two-level fan-out keeps directories small).

**Crash safety.**  Every write goes temp file → ``fsync`` →
``os.replace``, bracketed by *begin*/*commit* records appended to a
small write-ahead journal at ``<root>/journal.jsonl`` (an append-only
log under the one rule of :mod:`repro.exec.durable`).  A
reader therefore never sees a torn entry, and after a hard kill
(SIGKILL, OOM, power loss) the store self-heals: opening it garbage
collects temp files whose writing process is provably dead (the journal
records the writer pid) plus any unjournaled temp file older than
:data:`STALE_TEMP_SECONDS`, and :mod:`repro.exec.fsck` can additionally
quarantine entries that do not verify.  The store remains a pure cache:
deleting its directory is always safe.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..canonical import to_data
from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationResult
from .durable import append_jsonl, read_jsonl

#: Bump whenever a change alters simulation outcomes for an unchanged
#: configuration (engine semantics, routing decisions, RNG consumption
#: order, metrics definitions).  Stored results under other tags are
#: simply never matched.
# sim-v2: per-batch throughput normalized by observed batch length, and
# latency tail percentiles added to SimulationResult
# sim-v3: degraded-mode fault acceptance, staged reconfiguration windows
# (detection_latency), and the new survivability fields they report
CODE_VERSION = "sim-v3"

#: Environment variable overriding the default store location.
STORE_ENV = "REPRO_RESULT_STORE"

#: Write-ahead journal kept at the store root.
JOURNAL_NAME = "journal.jsonl"

#: Directory (under the root) where fsck moves entries it cannot trust.
QUARANTINE_DIR = "quarantine"

#: Age after which a temp file with no live journaled writer is
#: considered abandoned and removed on open.
STALE_TEMP_SECONDS = 3600.0


def default_store_root() -> Path:
    """``$REPRO_RESULT_STORE`` if set, else ``~/.cache/repro/results``."""
    env = os.environ.get(STORE_ENV, "")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "results"


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (best-effort, POSIX)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class ResultStore:
    """Content-addressed store of simulation results.

    An entry is addressed by its key, :meth:`key` of the config.
    :meth:`get` and :meth:`put` take that key; :meth:`load` and
    :meth:`store` take the config and hash it first.  A caller that
    touches one entry several times — :func:`~repro.exec.execute` looks
    a task up, writes it and marks it in the checkpoint — derives the
    key once and uses the key-addressed pair.

    Parameters
    ----------
    root:
        Directory holding the entries; created lazily on first write.
    version:
        Code-version tag mixed into every key (default
        :data:`CODE_VERSION`).
    clean_on_open:
        Garbage-collect stale temp files (and compact the journal) when
        the store directory already exists — the self-healing pass that
        makes a hard-killed writer harmless.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        *,
        version: str = CODE_VERSION,
        clean_on_open: bool = True,
    ):
        self.root = Path(root) if root is not None else default_store_root()
        self.version = version
        if clean_on_open and self.root.is_dir():
            try:
                self.clean_stale()
            except OSError:
                pass  # a read-only or racing store must still open

    # ------------------------------------------------------------------
    def key(self, config: SimulationConfig) -> str:
        return config.content_hash(self.version)

    def path_for(self, config: SimulationConfig) -> Path:
        return self._path(self.key(config))

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, config: SimulationConfig) -> bool:
        return self.path_for(config).is_file()

    def load(self, config: SimulationConfig) -> Optional[SimulationResult]:
        """The memoized result for ``config`` (:meth:`get` of its key)."""
        return self.get(self.key(config))

    def get(self, key: str) -> Optional[SimulationResult]:
        """The result stored under ``key``, or None on a miss (a corrupt
        or half-written entry also reads as a miss)."""
        try:
            with open(self._path(key), "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            return SimulationResult.from_dict(entry["result"])
        except (OSError, ValueError, KeyError, TypeError):
            return None

    def store(self, config: SimulationConfig, result: SimulationResult) -> Path:
        """Atomically persist one result (:meth:`put` under its key)."""
        return self.put(self.key(config), config, result)

    def put(self, key: str, config: SimulationConfig, result: SimulationResult) -> Path:
        """Atomically persist ``result`` under ``key``, which must be
        :meth:`key` of ``config``; returns the entry path.

        The temp file is fsynced before the rename and the write is
        bracketed by journal records, so a crash at any point leaves
        either the complete old state or the complete new state — never
        a torn entry — and the leftover temp file is attributable.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "version": self.version,
            "config": to_data(config),
            "result": result.to_dict(),
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        tmp_name = os.path.relpath(tmp, self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                self._journal("begin", key, tmp=tmp_name)
                # one C-encoded string: the same bytes ``json.dump``
                # streams through the pure-Python encoder, at a third
                # of the cost
                handle.write(json.dumps(entry, sort_keys=True))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._journal("commit", key, tmp=tmp_name)
        return path

    # ------------------------------------------------------------------
    # the write-ahead journal
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.root / JOURNAL_NAME

    def _journal(self, op: str, key: str, **extra) -> None:
        record = {"op": op, "key": key, "pid": os.getpid(), "time": time.time()}
        record.update(extra)
        append_jsonl(self.journal_path, record)

    def journal_entries(self) -> List[dict]:
        """The journal's records (:func:`repro.exec.durable.read_jsonl`)."""
        return read_jsonl(self.journal_path)

    def pending_writes(self) -> List[dict]:
        """*begin* records with no matching *commit* — writes that were
        in flight when their process stopped journaling."""
        begins: Dict[str, dict] = {}
        for record in self.journal_entries():
            tmp = record.get("tmp")
            if not isinstance(tmp, str):
                continue
            if record.get("op") == "begin":
                begins[tmp] = record
            elif record.get("op") == "commit":
                begins.pop(tmp, None)
        return list(begins.values())

    # ------------------------------------------------------------------
    # self-healing
    # ------------------------------------------------------------------
    def temp_files(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.tmp"))

    def stale_temps(self, ttl: float = STALE_TEMP_SECONDS) -> List[Path]:
        """The temp files no live writer owns: those the journal
        attributes to a dead pid, and those it knows nothing about that
        are older than ``ttl`` seconds.  A temp a journaled *live* pid
        is writing is never on the list, whatever its age."""
        live_tmps = set()
        dead_tmps = set()
        for record in self.pending_writes():
            tmp = record["tmp"]
            if pid_alive(int(record.get("pid", -1))):
                live_tmps.add(tmp)
            else:
                dead_tmps.add(tmp)
        now = time.time()
        stale = []
        for tmp in self.temp_files():
            rel = os.path.relpath(tmp, self.root)
            if rel in live_tmps:
                continue
            if rel not in dead_tmps:
                try:
                    if now - tmp.stat().st_mtime < ttl:
                        continue
                except OSError:
                    continue
            stale.append(tmp)
        return stale

    def clean_stale(self, *, ttl: float = STALE_TEMP_SECONDS) -> int:
        """Remove :meth:`stale_temps` — the temp files crashed writers
        left behind — and return how many went.  Once no temp file
        remains the journal itself is truncated, keeping it small."""
        removed = 0
        for tmp in self.stale_temps(ttl):
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        if not self.temp_files():
            try:
                if self.journal_path.is_file() and self.journal_path.stat().st_size:
                    self.journal_path.write_text("")
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    def _shards(self) -> Iterator[Path]:
        """Fan-out directories only — two-hex-char names — so the
        quarantine directory and the journal are never mistaken for
        entries."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if shard.is_dir() and len(shard.name) == 2:
                yield shard

    def _entries(self) -> Iterator[Path]:
        for shard in self._shards():
            yield from sorted(shard.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def describe(self) -> str:
        return f"{self.root} ({self.version})"
