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
``os.replace`` through :func:`repro.exec.durable.atomic_write_text`,
whose temp file carries its writer's pid in its name from the moment it
exists.  A reader therefore never sees a torn entry, and after a hard
kill (SIGKILL, OOM, power loss) the store self-heals: opening it garbage
collects temp files whose writing process is provably dead plus any
temp file with no known writer older than :data:`STALE_TEMP_SECONDS`,
and :mod:`repro.exec.fsck` can additionally quarantine entries that do
not verify.  The store remains a pure cache: deleting its directory is
always safe.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from ..canonical import to_data
from ..sim.config import SimulationConfig
from ..sim.metrics import SimulationResult
from .durable import atomic_write_text, read_jsonl, temp_writer_pid

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

#: The write-ahead journal older versions kept at the store root: read
#: for their unfinished writes, never written.
_OLD_JOURNAL = "journal.jsonl"

#: Directory (under the root) where fsck moves entries it cannot trust.
QUARANTINE_DIR = "quarantine"

#: Age after which a temp file with no known writer is considered
#: abandoned and removed on open.
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
        Garbage-collect stale temp files when the store directory
        already exists — the self-healing pass that makes a hard-killed
        writer harmless.
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

        The entry is fsynced before its rename, so a crash at any point
        leaves either the complete old state or the complete new state —
        never a torn entry — and a leftover temp file names its writer.
        """
        path = self._path(key)
        entry = {
            "key": key,
            "version": self.version,
            "config": to_data(config),
            "result": result.to_dict(),
        }
        # one C-encoded string: the same bytes ``json.dump`` streams
        # through the pure-Python encoder, at a third of the cost
        atomic_write_text(path, json.dumps(entry, sort_keys=True))
        return path

    # ------------------------------------------------------------------
    # self-healing
    # ------------------------------------------------------------------
    def temp_files(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*/*.tmp"))

    def _writers(self) -> Dict[Path, Optional[int]]:
        """Each temp file and its writer's pid: the one in its name, else
        the one an unfinished *begin* of an older version's journal
        records, else None."""
        journaled = _journaled_writers(self.root)
        writers: Dict[Path, Optional[int]] = {}
        for tmp in self.temp_files():
            pid = temp_writer_pid(tmp.name)
            if pid is None:
                pid = journaled.get(os.path.relpath(tmp, self.root))
            writers[tmp] = pid
        return writers

    def stale_temps(self, ttl: float = STALE_TEMP_SECONDS) -> List[Path]:
        """The temp files no live writer owns: those whose writer pid is
        dead, and those with no known writer that are older than ``ttl``
        seconds.  A temp a *live* pid is writing is never on the list,
        whatever its age."""
        now = time.time()
        stale = []
        for tmp, pid in self._writers().items():
            if pid is not None:
                if pid_alive(pid):
                    continue
            else:
                try:
                    if now - tmp.stat().st_mtime < ttl:
                        continue
                except OSError:
                    continue
            stale.append(tmp)
        return stale

    def clean_stale(self, *, ttl: float = STALE_TEMP_SECONDS) -> int:
        """Remove :meth:`stale_temps` — the temp files crashed writers
        left behind — and return how many went.  An older version's
        journal is deleted once it names no temp file that is left."""
        removed = 0
        for tmp in self.stale_temps(ttl):
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                pass
        if not any((self.root / tmp).exists() for tmp in _journaled_writers(self.root)):
            try:
                (self.root / _OLD_JOURNAL).unlink()
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    def _shards(self) -> Iterator[Path]:
        """Fan-out directories only — two-hex-char names — so the
        quarantine directory is never mistaken for entries."""
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


def _journaled_writers(root: Path) -> Dict[str, int]:
    """Temp file (relative to ``root``) -> writer pid for every *begin*
    with no *commit* in the journal an older version of the store kept,
    whose temp names did not carry the pid."""
    writers: Dict[str, int] = {}
    for record in read_jsonl(root / _OLD_JOURNAL):
        tmp, pid = record.get("tmp"), record.get("pid")
        if not isinstance(tmp, str):
            continue
        if record.get("op") == "begin":
            writers[tmp] = pid if isinstance(pid, int) else -1
        elif record.get("op") == "commit":
            writers.pop(tmp, None)
    return writers
