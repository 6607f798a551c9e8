"""Mergeable sufficient statistics for Monte-Carlo cells, plus the
crash-safe log that makes a campaign resumable.

A :class:`ShardTally` holds everything the estimators need about one
contiguous run of pattern indices: per-class counts, fatal-cause
counts, the sacrificed-node total, and a small **reservoir** of the
lowest pattern indices seen per class.  Tallies are pure integers with
an associative, commutative :meth:`ShardTally.merged_with`, so any
execution order — serial, parallel waves, or a crash-resumed mixture —
merges to the identical result, and the reservoir rule ("keep the
lowest ``cap`` indices") is itself order-independent, which is what
makes the simulation tier's stratified subsample deterministic.

The :class:`TallyLog` is an append-only log keyed by shard key, under
the one rule of :mod:`repro.exec.durable` like the checkpoint and the
service journal: a SIGKILL can lose at most the in-flight shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple, Union

from ..canonical import DecodeError, canonical_digest, from_data, to_data
from ..exec.durable import append_jsonl, read_jsonl
from .classify import Classification

__all__ = ["ShardTally", "merge_tallies", "TallyLog", "DEFAULT_RESERVOIR"]

#: Lowest pattern indices kept per class — enough to seed the simulation
#: tier's stratified subsample without dragging whole index lists around.
DEFAULT_RESERVOIR = 8


@dataclass
class ShardTally:
    """Sufficient statistics over a set of classified pattern indices."""

    cell_key: str
    start: int  #: lowest pattern index covered (informational)
    count: int = 0  #: patterns tallied
    shards: int = 1  #: shard tallies merged into this one
    counts: Dict[str, int] = field(default_factory=dict)
    reasons: Dict[str, int] = field(default_factory=dict)
    sacrificed: int = 0  #: sum of sacrificed nodes over degraded patterns
    reservoirs: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    reservoir_cap: int = DEFAULT_RESERVOIR

    def record(self, index: int, verdict: Classification) -> None:
        """Fold one classified pattern into the tally."""
        self.count += 1
        self.counts[verdict.label] = self.counts.get(verdict.label, 0) + 1
        if verdict.reason:
            self.reasons[verdict.reason] = self.reasons.get(verdict.reason, 0) + 1
        self.sacrificed += verdict.sacrificed
        pool = list(self.reservoirs.get(verdict.label, ()))
        pool.append(index)
        pool.sort()
        self.reservoirs[verdict.label] = tuple(pool[: self.reservoir_cap])

    # -- algebra --------------------------------------------------------

    def merged_with(self, other: "ShardTally") -> "ShardTally":
        """Associative + commutative merge of two tallies of one cell."""
        if other.cell_key != self.cell_key:
            raise ValueError(
                f"cannot merge tallies of different cells: "
                f"{self.cell_key!r} vs {other.cell_key!r}"
            )
        if other.reservoir_cap != self.reservoir_cap:
            raise ValueError("cannot merge tallies with different reservoir caps")
        counts = dict(self.counts)
        for label, n in other.counts.items():
            counts[label] = counts.get(label, 0) + n
        reasons = dict(self.reasons)
        for reason, n in other.reasons.items():
            reasons[reason] = reasons.get(reason, 0) + n
        reservoirs: Dict[str, Tuple[int, ...]] = {}
        for label in set(self.reservoirs) | set(other.reservoirs):
            pool = sorted(
                set(self.reservoirs.get(label, ()))
                | set(other.reservoirs.get(label, ()))
            )
            reservoirs[label] = tuple(pool[: self.reservoir_cap])
        return ShardTally(
            cell_key=self.cell_key,
            start=min(self.start, other.start),
            count=self.count + other.count,
            shards=self.shards + other.shards,
            counts=counts,
            reasons=reasons,
            sacrificed=self.sacrificed + other.sacrificed,
            reservoirs=reservoirs,
            reservoir_cap=self.reservoir_cap,
        )

    def class_count(self, label: str) -> int:
        return self.counts.get(label, 0)

    @property
    def survivors(self) -> int:
        """The R(k) numerator: routable + degraded."""
        return sum(n for label, n in self.counts.items() if label != "fatal")

    def digest(self) -> str:
        """Content hash of the canonical payload — the bit-for-bit
        determinism witness used by tests and the mc-smoke CI job."""
        return canonical_digest(to_data(self))


def merge_tallies(tallies: Iterable[ShardTally]) -> ShardTally:
    """Merge any number of same-cell tallies (raises on empty input)."""
    merged: Optional[ShardTally] = None
    for tally in tallies:
        merged = tally if merged is None else merged.merged_with(tally)
    if merged is None:
        raise ValueError("merge_tallies needs at least one tally")
    return merged


class TallyLog:
    """Append-only log of ``{key, tally}`` records.

    A record is appended (and fsynced) *before* the shard is considered
    done, so a crash loses at most the shard being written.  Records
    are self-contained and keyed by the shard's content hash: one the
    reader has to skip — torn, or a tally that does not decode — only
    sends that shard through classification again, to the same digest.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.entries: Dict[str, ShardTally] = {}
        for record in read_jsonl(self.path):
            key = record.get("key")
            if isinstance(key, str):
                try:
                    self.entries[key] = from_data(ShardTally, record.get("tally"))
                except DecodeError:
                    pass  # not a record: the shard is classified again

    def get(self, key: str) -> Optional[ShardTally]:
        return self.entries.get(key)

    def append(self, key: str, tally: ShardTally) -> None:
        if key in self.entries:
            return  # idempotent: resumed runs re-offer completed shards
        append_jsonl(self.path, {"key": key, "tally": to_data(tally)})
        self.entries[key] = tally

    def __len__(self) -> int:
        return len(self.entries)
