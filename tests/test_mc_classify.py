"""Classifier unit tests plus the fuzz harness.

The fuzz property: ``classify_pattern`` (and beneath it
``degrade_fault_pattern``) must never raise on a random pattern — fatal
geometries are a *verdict*, not an exception — and every surviving
pattern's degraded scenario must itself pass ``validate_fault_pattern``.
"""

import random

import pytest

from repro.faults.fault_model import FaultSet
from repro.faults.generation import degrade_fault_pattern, validate_fault_pattern
from repro.mc import (
    DEGRADED,
    FATAL,
    FATAL_EXCEPTIONS,
    ROUTABLE,
    PatternSampler,
    classify_pattern,
    max_link_faults,
)
from repro.topology import Torus

from .geometry_goldens import (
    GOLDEN_PATH,
    GOLDEN_TOPOLOGIES,
    PINNED_CELLS,
    degrade_record,
    golden_patterns,
    shard_digest,
)

#: patterns per (topology, fault-count) fuzz bucket; the satellite
#: requirement is >= 500 per topology, spread over varying k
FUZZ_PER_BUCKET = 125


def fuzz_patterns(radix, buckets, *, seed=11):
    """Deterministic fuzz stream: ``FUZZ_PER_BUCKET`` seeded draws per
    (node, link) fault-count bucket."""
    network = Torus(radix, 2)
    for bucket_index, (nodes, links) in enumerate(buckets):
        sampler = PatternSampler(
            network,
            nodes,
            links,
            master_seed=seed,
            cell_key=f"fuzz{radix}:{bucket_index}",
        )
        for index in range(FUZZ_PER_BUCKET):
            yield network, sampler.draw(index)


class TestClassifyVerdicts:
    def test_empty_pattern_is_routable(self):
        verdict = classify_pattern(Torus(4, 2), FaultSet())
        assert verdict.label == ROUTABLE
        assert verdict.survives
        assert verdict.sacrificed == 0

    def test_labels_partition_outcomes(self):
        network = Torus(4, 2)
        sampler = PatternSampler(
            network, 1, 1, master_seed=7, cell_key="partition"
        )
        seen = set()
        for index in range(120):
            verdict = classify_pattern(network, sampler.draw(index))
            assert verdict.label in (ROUTABLE, DEGRADED, FATAL)
            assert verdict.survives == (verdict.label != FATAL)
            if verdict.label == FATAL:
                assert verdict.reason
            seen.add(verdict.label)
        assert FATAL in seen  # 4x4 is small enough that some draws disconnect

    def test_degraded_means_sacrifice_or_merge(self):
        network = Torus(8, 2)
        sampler = PatternSampler(network, 2, 2, master_seed=7, cell_key="deg")
        for index in range(150):
            verdict = classify_pattern(network, sampler.draw(index))
            if verdict.label == DEGRADED:
                assert verdict.sacrificed > 0 or verdict.merges > 0
            elif verdict.label == ROUTABLE:
                assert verdict.sacrificed == 0 and verdict.merges == 0

    def test_policy_failures_are_fatal_verdicts(self):
        """ecube accepts no faults at all: under it every non-empty
        pattern classifies fatal (with the policy named in the reason),
        never raises."""
        network = Torus(8, 2)
        sampler = PatternSampler(network, 1, 0, master_seed=7, cell_key="ec")
        verdict = classify_pattern(network, sampler.draw(0), policy="ecube")
        assert verdict.label == FATAL
        assert verdict.reason.startswith("policy-ecube")
        # the same pattern without the policy constraint survives or not
        # on geometry alone — the policy only ever removes survivors
        bare = classify_pattern(network, sampler.draw(0))
        assert bare.label in (ROUTABLE, DEGRADED, FATAL)

    def test_fatal_exceptions_documented(self):
        names = {exc.__name__ for exc in FATAL_EXCEPTIONS}
        assert "NetworkDisconnectedError" in names
        assert "RingGeometryError" in names


def _buckets(radix):
    network = Torus(radix, 2)
    ladder = [(0, 1), (1, 0), (1, 1), (2, 2)]
    # one deliberately nasty bucket near the small network's link budget
    heavy_links = min(6, max_link_faults(network, 2))
    ladder.append((2, heavy_links))
    return ladder


class TestFuzzNeverRaises:
    """Satellite requirement: >= 500 random patterns per topology with
    varying k; the classifier must return a verdict for every one, and
    the degraded scenario of every survivor must re-validate."""

    @pytest.mark.parametrize("radix", [4, 8])
    def test_fuzz_small_radii(self, radix):
        self._fuzz(radix)

    @pytest.mark.slow
    def test_fuzz_16x16(self):
        self._fuzz(16)

    @staticmethod
    def _fuzz(radix):
        total = 0
        survivors = 0
        for network, faults in fuzz_patterns(radix, _buckets(radix)):
            verdict = classify_pattern(network, faults)  # must not raise
            total += 1
            if not verdict.survives:
                continue
            survivors += 1
            # the degraded output must be a *valid* block pattern
            scenario, info = degrade_fault_pattern(network, faults)
            validate_fault_pattern(network, scenario.faults)
            assert scenario.faults.node_faults >= faults.node_faults
            assert len(info.degraded_nodes) == verdict.sacrificed
        assert total >= 500
        assert survivors > 0


class TestFuzzDeterminism:
    def test_fuzz_stream_is_seeded(self):
        a = [faults for _, faults in fuzz_patterns(4, [(1, 1)])]
        b = [faults for _, faults in fuzz_patterns(4, [(1, 1)])]
        assert a == b


#: ``ShardTally.digest()`` of shard 0 (50 patterns, ``master_seed=7``),
#: recorded on the commit before the fault geometry was tabled (PR 13).
#: A geometry refactor that moves one of these has moved R(k).
PINNED_SHARD_DIGESTS = {
    "torus16 1+1 ft": "a3fc32c72ed4e76225ecc4ad350eb4ff8cbc958f95cf371b738747f66e901f2e",
    "torus16 4+10 ft": "ea6d89b686b68d21d07bb4e1bf2bfc2f953bdcf903d03784612caa1ca2a73840",
    "torus8 2+2 adaptive": "f4e577d0c86b563858de70a4e7c34554634fde17aef4018f1bf9b498f69a97bc",
    "torus4x4x4 2+2 ft": "1a076687c155d28a8c814d3780218db3a44739685fc1246cdeaf30778b948f6f",
    "mesh8 1+2 ft": "cb5506ff88082d6ee293283ec451cecda5b551270ef2f2ca7c639f58a0035a44",
    "torus16 4+4 ft overlap": "dbc351cc1ff30c39c5f7162a0a3c6a894db122ae2c4f729d112c352f6272cb02",
}


class TestPinnedClassification:
    """Bit-identical classification across geometry refactors."""

    def test_every_pinned_cell_has_a_digest(self):
        assert set(PINNED_SHARD_DIGESTS) == set(PINNED_CELLS)

    @pytest.mark.parametrize("label", sorted(PINNED_SHARD_DIGESTS))
    def test_pinned_shard_digest(self, label):
        assert shard_digest(PINNED_CELLS[label]) == PINNED_SHARD_DIGESTS[label]

    @pytest.mark.parametrize("name", sorted(GOLDEN_TOPOLOGIES))
    def test_pinned_degrade_results(self, name):
        """200 seeded raw patterns per topology: blocked fault set, region
        intervals and order, layers, sacrificed nodes, merges, passes and
        condemnation rounds all equal the goldens dumped from the
        reference commit (``tests/geometry_goldens.py --dump``)."""
        import json

        want = json.loads(GOLDEN_PATH.read_text())[name]
        got = [degrade_record(*pattern) for pattern in golden_patterns(name)]
        assert len(got) == len(want) == 200
        for index, (have, expected) in enumerate(zip(got, want)):
            assert have == expected, f"{name} pattern {index}"
        # the stream exercises every outcome, not just clean patterns
        assert any("fatal" in r for r in want)
        assert any(r.get("merges") for r in want) or name == "torus4x4x4"
