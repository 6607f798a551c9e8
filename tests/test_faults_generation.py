"""Unit tests for random fault-pattern generation and validation."""

import random
import subprocess
import sys

import pytest

from repro.faults import (
    PAPER_FAULT_COUNTS,
    FaultSet,
    NonConvexFaultError,
    RingGeometryError,
    generate_fault_pattern,
    generate_random_pattern,
    paper_fault_scenario,
    scaled_fault_counts,
    validate_fault_pattern,
)
from repro.topology import Direction, Mesh, Torus


class TestValidation:
    def test_valid_pattern(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(2, 2)], links=[((5, 6), 1, Direction.POS)])
        scenario = validate_fault_pattern(t, fs)
        assert scenario.num_regions == 2

    def test_unblocked_pattern_rejected(self):
        t = Torus(8, 2)
        fs = FaultSet(frozenset({(2, 2), (3, 3)}))
        with pytest.raises(NonConvexFaultError):
            validate_fault_pattern(t, fs)

    def test_allow_blocking_expands(self):
        t = Torus(8, 2)
        fs = FaultSet(frozenset({(2, 2), (3, 3)}))
        scenario = validate_fault_pattern(t, fs, allow_blocking=True)
        assert len(scenario.faults.node_faults) == 4

    def test_overlapping_rings_rejected(self):
        t = Torus(8, 2)
        fs = FaultSet(frozenset({(2, 2), (3, 4)}))
        with pytest.raises(RingGeometryError):
            validate_fault_pattern(t, fs)

    def test_link_on_ring_rejected(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(2, 2)], links=[((1, 1), 0, Direction.POS)])
        with pytest.raises(RingGeometryError):
            validate_fault_pattern(t, fs)

    def test_fault_free(self):
        scenario = validate_fault_pattern(Torus(8, 2), FaultSet())
        assert scenario.num_regions == 0
        assert scenario.link_fault_percent(Torus(8, 2)) == 0.0


class TestGeneration:
    def test_deterministic_for_seed(self):
        t = Torus(16, 2)
        a = generate_fault_pattern(t, 4, 10, random.Random(3))
        b = generate_fault_pattern(t, 4, 10, random.Random(3))
        assert a.faults == b.faults

    def test_different_seeds_differ(self):
        t = Torus(16, 2)
        a = generate_fault_pattern(t, 4, 10, random.Random(3))
        b = generate_fault_pattern(t, 4, 10, random.Random(4))
        assert a.faults != b.faults

    def test_counts_respected(self):
        t = Torus(16, 2)
        scenario = generate_fault_pattern(t, 2, 3, random.Random(0))
        assert len(scenario.faults.node_faults) == 2
        assert len(scenario.faults.link_faults) == 3

    def test_rings_are_disjoint_and_healthy(self):
        t = Torus(16, 2)
        scenario = generate_fault_pattern(t, 4, 10, random.Random(1))
        assert not scenario.ring_index.overlapping_ring_pairs()
        assert scenario.ring_index.rings_healthy(scenario.faults)

    def test_mesh_generation_avoids_boundaries(self):
        m = Mesh(16, 2)
        scenario = generate_fault_pattern(m, 4, 10, random.Random(2))
        for coord in scenario.faults.node_faults:
            assert 0 < coord[0] < 15 and 0 < coord[1] < 15


class TestPaperScenarios:
    def test_counts_table(self):
        assert PAPER_FAULT_COUNTS[1] == (1, 1)
        assert PAPER_FAULT_COUNTS[5] == (4, 10)

    def test_percentages_on_16x16(self):
        t = Torus(16, 2)
        one = paper_fault_scenario(t, 1, random.Random(0))
        five = paper_fault_scenario(t, 5, random.Random(0))
        assert 0.8 < one.link_fault_percent(t) < 1.3
        assert 4.0 < five.link_fault_percent(t) < 6.0

    def test_zero_percent(self):
        t = Torus(16, 2)
        scenario = paper_fault_scenario(t, 0, random.Random(0))
        assert scenario.faults.empty

    def test_unknown_percent(self):
        with pytest.raises(ValueError):
            paper_fault_scenario(Torus(16, 2), 3, random.Random(0))

    def test_scaled_counts_smaller_network(self):
        t = Torus(8, 2)
        nodes, links = scaled_fault_counts(t, 5)
        fs = paper_fault_scenario(t, 5, random.Random(0))
        pct = fs.link_fault_percent(t)
        assert 3.0 < pct < 7.5
        assert nodes >= 0 and links >= 0

    def test_scaled_counts_16x16_match_paper(self):
        assert scaled_fault_counts(Torus(16, 2), 5) == (4, 10)
        assert scaled_fault_counts(Mesh(16, 2), 1) == (1, 1)


class TestScaledCountsEdges:
    def test_zero_percent_is_always_fault_free(self):
        for network in (Torus(4, 2), Torus(8, 2), Torus(16, 2), Mesh(16, 2)):
            assert scaled_fault_counts(network, 0) == (0, 0)

    def test_every_paper_percent_on_16x16(self):
        t = Torus(16, 2)
        for percent, counts in PAPER_FAULT_COUNTS.items():
            assert scaled_fault_counts(t, percent) == counts

    def test_small_networks_scale_down_but_stay_faulty(self):
        # a nonzero percentage must never round away to a fault-free
        # pattern, even on a 4x4 where 1% of 32 links is a fraction
        for radix in (4, 8):
            t = Torus(radix, 2)
            nodes, links = scaled_fault_counts(t, 1)
            assert nodes + links >= 1
            assert nodes * 2 * t.dims + links <= t.num_links()

    def test_link_fraction_tracks_the_target(self):
        t = Torus(8, 2)
        nodes, links = scaled_fault_counts(t, 5)
        implied = nodes * 2 * t.dims + links
        target = 0.05 * t.num_links()
        assert abs(implied - target) <= 2 * t.dims  # one node fault of slack

    def test_non_2d_radix_16_takes_the_scaled_path(self):
        # the paper table is specifically 16x16 (dims=2); a 16-ary
        # 3-cube must scale by its own link count instead
        t3 = Torus(16, 3)
        counts = scaled_fault_counts(t3, 5)
        assert counts != PAPER_FAULT_COUNTS[5]
        nodes, links = counts
        implied = nodes * 2 * t3.dims + links
        assert abs(implied - 0.05 * t3.num_links()) <= 2 * t3.dims


class TestRandomPattern:
    def test_k_zero_draws_the_empty_scenario(self):
        scenario, info = generate_random_pattern(Torus(8, 2), 0, 0, random.Random(1))
        assert scenario.faults.empty
        assert scenario.num_regions == 0
        assert not info.degraded_nodes
        assert info.merges == 0

    def test_k_at_documented_maximum(self):
        # the paper's heaviest scenario (5% on 16x16) must be drawable
        nodes, links = PAPER_FAULT_COUNTS[5]
        scenario, _ = generate_random_pattern(
            Torus(16, 2), nodes, links, random.Random(3)
        )
        # degradation may sacrifice extra nodes but never drops faults
        assert len(scenario.faults.node_faults) >= nodes

    def test_beyond_population_rejected(self):
        t = Torus(4, 2)
        with pytest.raises(ValueError):
            generate_random_pattern(t, t.num_nodes + 1, 0, random.Random(0))

    def test_seed_determinism_in_process(self):
        a, _ = generate_random_pattern(Torus(8, 2), 2, 2, random.Random(42))
        b, _ = generate_random_pattern(Torus(8, 2), 2, 2, random.Random(42))
        assert a.faults == b.faults

    def test_seed_determinism_across_processes(self):
        """random.Random(seed) is stable across interpreters, so the same
        seed must reproduce the same pattern in a fresh process."""
        script = (
            "import random\n"
            "from repro.faults import generate_random_pattern\n"
            "from repro.topology import Torus\n"
            "s, _ = generate_random_pattern(Torus(8, 2), 2, 2, random.Random(42))\n"
            "print(sorted(map(str, s.faults.node_faults)))\n"
            "print(sorted(map(str, s.faults.link_faults)))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        here, _ = generate_random_pattern(Torus(8, 2), 2, 2, random.Random(42))
        expected = (
            f"{sorted(map(str, here.faults.node_faults))}\n"
            f"{sorted(map(str, here.faults.link_faults))}\n"
        )
        assert out == expected


class TestPaperScenarioGoldens:
    """Seed -> fault set of the paper's 1% and 5% scenarios on 16x16,
    recorded on the commit before the fault geometry was tabled: the
    simulator's inputs (every ``fault_percent`` / ``fault_seed`` config,
    every benchmark workload) must not drift with a geometry refactor."""

    GOLDENS = {
        ("torus", 1, 0): {"nodes": [[5, 12]], "links": [[[10, 11], [11, 11], 0]]},
        ("torus", 1, 42): {"nodes": [[9, 3]], "links": [[[3, 0], [3, 15], 1]]},
        ("torus", 5, 0): {
            "nodes": [[0, 6], [2, 4], [4, 13], [10, 2]],
            "links": [
                [[0, 0], [15, 0], 0], [[0, 3], [15, 3], 0], [[2, 0], [3, 0], 0],
                [[4, 6], [5, 6], 0], [[5, 11], [6, 11], 0], [[5, 15], [6, 15], 0],
                [[8, 6], [9, 6], 0], [[11, 10], [12, 10], 0], [[12, 4], [13, 4], 0],
                [[14, 11], [14, 12], 1],
            ],
        },
        ("torus", 5, 42): {
            "nodes": [[5, 2], [10, 11], [10, 12], [15, 11]],
            "links": [
                [[0, 2], [15, 2], 0], [[0, 5], [1, 5], 0], [[0, 9], [1, 9], 0],
                [[1, 1], [2, 1], 0], [[3, 15], [4, 15], 0], [[6, 4], [6, 5], 1],
                [[6, 11], [7, 11], 0], [[9, 6], [10, 6], 0], [[10, 1], [10, 2], 1],
                [[12, 4], [13, 4], 0],
            ],
        },
        ("mesh", 1, 1): {"nodes": [[4, 4]], "links": [[[8, 9], [9, 9], 0]]},
        ("mesh", 5, 1): {
            "nodes": [[2, 14], [6, 11], [11, 9], [13, 2]],
            "links": [
                [[2, 6], [3, 6], 0], [[3, 2], [3, 3], 1], [[4, 14], [5, 14], 0],
                [[5, 3], [6, 3], 0], [[6, 7], [6, 8], 1], [[8, 9], [9, 9], 0],
                [[10, 2], [10, 3], 1], [[10, 5], [10, 6], 1], [[11, 0], [11, 1], 1],
                [[11, 13], [11, 14], 1],
            ],
        },
    }

    @pytest.mark.parametrize("key", sorted(GOLDENS))
    def test_seed_to_fault_set(self, key):
        from .geometry_goldens import paper_scenario_record

        assert paper_scenario_record(*key) == self.GOLDENS[key]
