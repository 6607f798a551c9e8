"""Tests for the mergeable MC tallies and the crash-safe tally log."""

import json
import random

import pytest

from repro.mc import Classification, ShardTally, TallyLog, merge_tallies
from repro.mc.classify import DEGRADED, FATAL, ROUTABLE


def verdict(label, *, sacrificed=0, reason=""):
    return Classification(
        label=label, sacrificed=sacrificed, merges=0, regions=0, reason=reason
    )


def tally_from(indices_labels, *, start=0, cap=4):
    tally = ShardTally(cell_key="cell", start=start, reservoir_cap=cap)
    for index, label in indices_labels:
        tally.record(index, verdict(label))
    return tally


class TestRecord:
    def test_counts_and_survivors(self):
        tally = tally_from(
            [(0, ROUTABLE), (1, DEGRADED), (2, FATAL), (3, DEGRADED)]
        )
        assert tally.count == 4
        assert tally.class_count(ROUTABLE) == 1
        assert tally.class_count(DEGRADED) == 2
        assert tally.survivors == 3

    def test_reasons_and_sacrifices(self):
        tally = ShardTally(cell_key="cell", start=0)
        tally.record(0, verdict(FATAL, reason="fatal-ring"))
        tally.record(1, verdict(FATAL, reason="fatal-ring"))
        tally.record(2, verdict(DEGRADED, sacrificed=3))
        assert tally.reasons == {"fatal-ring": 2}
        assert tally.sacrificed == 3

    def test_reservoir_keeps_lowest_indices(self):
        tally = tally_from([(i, ROUTABLE) for i in (9, 2, 7, 4, 11, 0)], cap=3)
        assert tally.reservoirs[ROUTABLE] == (0, 2, 4)


class TestMergeAlgebra:
    def test_commutative(self):
        a = tally_from([(0, ROUTABLE), (1, FATAL)])
        b = tally_from([(2, DEGRADED)], start=2)
        assert a.merged_with(b).digest() == b.merged_with(a).digest()

    def test_associative(self):
        a = tally_from([(0, ROUTABLE)])
        b = tally_from([(1, DEGRADED)], start=1)
        c = tally_from([(2, FATAL)], start=2)
        left = a.merged_with(b).merged_with(c)
        right = a.merged_with(c.merged_with(b))
        assert left.digest() == right.digest()

    def test_any_shard_order_identical(self):
        """The property the parallel engine rests on: merging the same
        shards in any order yields bit-for-bit identical tallies."""
        rng = random.Random(5)
        labels = [rng.choice([ROUTABLE, DEGRADED, FATAL]) for _ in range(40)]
        shards = [
            tally_from(
                [(i, labels[i]) for i in range(s * 10, s * 10 + 10)],
                start=s * 10,
            )
            for s in range(4)
        ]
        reference = merge_tallies(shards).digest()
        for _ in range(5):
            shuffled = shards[:]
            rng.shuffle(shuffled)
            assert merge_tallies(shuffled).digest() == reference

    def test_mismatched_cells_rejected(self):
        a = tally_from([(0, ROUTABLE)])
        b = ShardTally(cell_key="other", start=0)
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_mismatched_caps_rejected(self):
        a = tally_from([(0, ROUTABLE)], cap=4)
        b = tally_from([(1, ROUTABLE)], cap=8)
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_merge_tallies_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_tallies([])


class TestSerialization:
    def test_roundtrip(self):
        tally = tally_from([(0, ROUTABLE), (1, FATAL), (5, DEGRADED)])
        again = ShardTally.from_payload(tally.to_payload())
        assert again.digest() == tally.digest()

    def test_payload_is_json_safe(self):
        payload = tally_from([(0, ROUTABLE)]).to_payload()
        assert json.loads(json.dumps(payload)) == payload


class TestTallyLog:
    def test_append_get_roundtrip(self, tmp_path):
        log = TallyLog(tmp_path / "t.jsonl")
        tally = tally_from([(0, ROUTABLE), (1, FATAL)])
        log.append("k1", tally)
        assert log.get("k1").digest() == tally.digest()
        assert log.get("missing") is None
        assert len(log) == 1

    def test_reload_serves_appended(self, tmp_path):
        path = tmp_path / "t.jsonl"
        TallyLog(path).append("k1", tally_from([(0, ROUTABLE)]))
        reloaded = TallyLog(path)
        assert reloaded.get("k1") is not None

    def test_append_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        log = TallyLog(path)
        log.append("k1", tally_from([(0, ROUTABLE)]))
        size = path.stat().st_size
        log.append("k1", tally_from([(9, FATAL)]))  # re-offer: ignored
        assert path.stat().st_size == size
        assert log.get("k1").class_count(ROUTABLE) == 1

    def test_torn_tail_healed_by_truncation(self, tmp_path):
        """The name is historical: a torn tail is healed by the next
        append starting on a line of its own — the log is never
        truncated (the one rule, ``repro.exec.durable``)."""
        path = tmp_path / "t.jsonl"
        log = TallyLog(path)
        log.append("k1", tally_from([(0, ROUTABLE)]))
        log.append("k2", tally_from([(1, FATAL)], start=1))
        # SIGKILL mid-write: the last line is torn
        raw = path.read_bytes()
        torn = raw[: len(raw) - 7]
        path.write_bytes(torn)
        healed = TallyLog(path)
        assert healed.get("k1") is not None
        assert healed.get("k2") is None
        assert path.read_bytes() == torn  # opening never rewrites the log
        # appending the lost shard again leaves the fragment in place
        # and is served whole from a fresh open
        healed.append("k2", tally_from([(1, FATAL)], start=1))
        assert path.read_bytes().startswith(torn + b"\n")
        fresh = TallyLog(path)
        assert fresh.get("k1") is not None
        assert fresh.get("k2").digest() == healed.get("k2").digest()

    def test_garbage_line_drops_suffix(self, tmp_path):
        """The name is historical: a corrupt line hides only itself.
        Records are self-contained and keyed by the shard's content
        hash, so nothing after a bad line depends on it — dropping the
        suffix would only re-classify shards that are durably done."""
        path = tmp_path / "t.jsonl"
        log = TallyLog(path)
        log.append("k1", tally_from([(0, ROUTABLE)]))
        with open(path, "ab") as handle:
            handle.write(b"{not json}\n")
        log.append("k2", tally_from([(1, FATAL)], start=1))
        reloaded = TallyLog(path)
        assert reloaded.get("k1") is not None
        assert reloaded.get("k2") is not None
        assert len(reloaded) == 2
