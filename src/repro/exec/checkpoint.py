"""Sweep checkpoints: restartable manifests for experiment runs.

A checkpoint pins one sweep's identity — the ordered list of task keys —
and records which of those tasks have already reached a terminal state,
so an interrupted run (Ctrl-C, OOM, SIGKILL of the whole parent) can
restart exactly where it stopped.  It is two files in one directory:

``manifest.json``
    Written atomically once, when the checkpoint is created:
    ``{"format": 1, "version": <store version>, "label": ..., "keys":
    [<task key>, ...]}``.  Reopening with a different task list raises
    :class:`CheckpointMismatch` — a checkpoint never silently applies to
    a different sweep.  :func:`~repro.exec.executor.execute` takes the
    tasks' keys from here (:meth:`SweepCheckpoint.keys_for`): without
    hashing them again for the very tasks :meth:`SweepCheckpoint.for_tasks`
    verified, and checked against a fresh derivation for any others.

``done.jsonl``
    Append-only completion log (the one rule of
    :mod:`repro.exec.durable`), one record per terminal task:
    ``{"key": ..., "status": "ok"}`` or ``{"key": ..., "status":
    "failed", "kind": ..., "message": ..., "attempts": ...}``.  Later
    records override earlier ones, so re-running a previously failed key
    to success upgrades it.

The checkpoint stores *completion*, not payloads: a task marked ``ok``
is served on resume from the content-addressed
:class:`~repro.exec.store.ResultStore` (its key **is** the store key for
point tasks), and simply re-executes — deterministically — if the store
cannot serve it.  Failed marks are replayed as structured
:class:`~repro.exec.executor.TaskFailure` records without re-running the
task, which is what keeps a quarantined poison task from crashing every
resumed run; delete the checkpoint directory to retry it from scratch.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .durable import append_jsonl, atomic_write_text, read_jsonl
from .store import CODE_VERSION

MANIFEST_NAME = "manifest.json"
DONE_NAME = "done.jsonl"
CHECKPOINT_FORMAT = 1


class CheckpointMismatch(RuntimeError):
    """The checkpoint on disk describes a different sweep."""


def task_key(task: Any, version: str = CODE_VERSION) -> str:
    """The stable identity of one task under a code-version tag.

    Tasks may provide ``checkpoint_key(version)``; anything else falls
    back to the content hash of its ``config`` — which matches the
    result-store key, so for cacheable point tasks *checkpoint key ==
    store key* and a completed mark is always servable.
    """
    keyer = getattr(task, "checkpoint_key", None)
    if keyer is not None:
        return keyer(version)
    return task.config.content_hash(version)


class SweepCheckpoint:
    """One sweep's manifest plus completion log (see module docstring)."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self.done_path = self.directory / DONE_NAME
        self._manifest: Optional[dict] = None
        #: the task objects whose keys ``for_tasks`` verified against the
        #: manifest; ``keys_for`` trusts the manifest for these alone
        self._verified: Optional[Tuple[Any, ...]] = None

    # ------------------------------------------------------------------
    # creation / opening
    # ------------------------------------------------------------------
    @property
    def exists(self) -> bool:
        return self.manifest_path.is_file()

    @classmethod
    def create(
        cls,
        directory: Union[str, Path],
        keys: Sequence[str],
        *,
        version: str = CODE_VERSION,
        label: str = "",
    ) -> "SweepCheckpoint":
        checkpoint = cls(directory)
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "version": version,
            "label": label,
            "total": len(keys),
            "keys": list(keys),
        }
        atomic_write_text(checkpoint.manifest_path, json.dumps(manifest, sort_keys=True))
        checkpoint._manifest = manifest
        return checkpoint

    def manifest(self) -> dict:
        if self._manifest is None:
            try:
                self._manifest = json.loads(
                    self.manifest_path.read_text(encoding="utf-8")
                )
            except (OSError, ValueError) as exc:
                raise CheckpointMismatch(
                    f"unreadable checkpoint manifest at {self.manifest_path}: {exc}"
                ) from exc
        return self._manifest

    def keys(self) -> List[str]:
        return list(self.manifest().get("keys", []))

    def keys_for(self, tasks: Sequence[Any], version: str = CODE_VERSION) -> List[str]:
        """The keys of ``tasks`` under ``version``, which must be the
        ones this checkpoint names.

        Given the very task objects :meth:`for_tasks` verified (same
        objects, same order) and the manifest's version, the manifest's
        keys are theirs and nothing is hashed again.  Any other task list is keyed afresh, and a
        list the manifest does not name raises :class:`CheckpointMismatch`
        — completion marks are never served to another sweep's tasks.
        """
        keys = self.keys()
        verified = self._verified
        if (
            verified is not None
            and version == self.manifest().get("version")
            and len(verified) == len(tasks)
            and all(a is b for a, b in zip(verified, tasks))
        ):
            return keys
        derived = [task_key(task, version) for task in tasks]
        if derived != keys:
            raise CheckpointMismatch(
                f"checkpoint at {self.directory} names {len(keys)} task(s) "
                f"other than the {len(tasks)} being run; open it with "
                "SweepCheckpoint.for_tasks"
            )
        return derived

    @classmethod
    def open_or_create(
        cls,
        directory: Union[str, Path],
        keys: Sequence[str],
        *,
        version: str = CODE_VERSION,
        label: str = "",
    ) -> "SweepCheckpoint":
        """Open an existing checkpoint — verifying it describes exactly
        this sweep — or create a fresh one."""
        checkpoint = cls(directory)
        if not checkpoint.exists:
            return cls.create(directory, keys, version=version, label=label)
        manifest = checkpoint.manifest()
        if manifest.get("keys") != list(keys) or manifest.get("version") != version:
            raise CheckpointMismatch(
                f"checkpoint at {checkpoint.directory} describes a different "
                f"sweep ({manifest.get('total')} task(s), version "
                f"{manifest.get('version')!r}) than the one being run "
                f"({len(keys)} task(s), version {version!r}); delete the "
                "directory to start over"
            )
        return checkpoint

    @classmethod
    def for_tasks(
        cls,
        root: Union[str, Path],
        tasks: Sequence[Any],
        *,
        version: str = CODE_VERSION,
        label: str = "",
    ) -> "SweepCheckpoint":
        """The checkpoint for this exact task list, in a subdirectory of
        ``root`` named by the sweep's own hash — so one ``--resume``
        directory serves any number of distinct experiments, and
        re-running the same experiment always finds its own manifest."""
        keys = [task_key(task, version) for task in tasks]
        digest = hashlib.sha256(
            ("\n".join(keys) + "|" + version).encode("utf-8")
        ).hexdigest()
        checkpoint = cls.open_or_create(
            Path(root) / digest[:16], keys, version=version, label=label
        )
        checkpoint._verified = tuple(tasks)
        return checkpoint

    # ------------------------------------------------------------------
    # the completion log
    # ------------------------------------------------------------------
    def completed(self) -> Dict[str, dict]:
        """``key -> latest terminal record``."""
        return {
            record["key"]: record
            for record in read_jsonl(self.done_path)
            if isinstance(record.get("key"), str)
        }

    def _append(self, record: dict) -> None:
        append_jsonl(self.done_path, record)

    def mark_ok(self, key: str) -> None:
        self._append({"key": key, "status": "ok"})

    def mark_failed(
        self,
        key: str,
        *,
        kind: str,
        message: str,
        cycle: Optional[int] = None,
        attempts: int = 1,
    ) -> None:
        self._append(
            {
                "key": key,
                "status": "failed",
                "kind": kind,
                "message": message,
                "cycle": cycle,
                "attempts": attempts,
            }
        )

    # ------------------------------------------------------------------
    def progress(self) -> tuple:
        """(terminal, total) task counts."""
        keys = set(self.keys())
        done = set(self.completed()) & keys
        return len(done), len(keys)

    def discard(self) -> None:
        """Delete the checkpoint files (forgetting completion marks and
        any persisted failure quarantine)."""
        for path in (self.done_path, self.manifest_path):
            try:
                path.unlink()
            except OSError:
                pass
        try:
            self.directory.rmdir()
        except OSError:
            pass
        self._manifest = None

    def describe(self) -> str:
        done, total = self.progress()
        label = self.manifest().get("label") or "sweep"
        return f"checkpoint {self.directory} ({label}): {done}/{total} done"
