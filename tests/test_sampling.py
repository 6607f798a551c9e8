"""Edge cases of the stream-exact batched traffic sampler.

The contract under test: for every sequence of per-cycle ``(nodes,
rate)`` parameters — including degenerate rates, mid-block parameter
changes, the switch from the inline prefix to numpy blocks and the
numpy-free fallback — the sampler hands out exactly the hits the inline
per-node loop would, and leaves the shared RNG in the inline loop's
state whenever it is flushed or a block is exhausted.
"""

import random

import pytest

import repro.sim.sampling as sampling
from repro.sim import SimulationConfig, Simulator
from repro.sim.sampling import GeometricSampler

SEED = 1234


def prefix_cycles(nodes):
    """Cycles of ``nodes`` draws a sampler takes inline before its
    first numpy block."""
    return -(-sampling._INLINE_DRAWS // nodes)


def inline_cycle(rng, nodes, rate):
    """The reference per-node loop the sampler must reproduce."""
    return [i for i in range(nodes) if rng.random() < rate]


def assert_stream_exact(schedule, seed=SEED):
    """Run the sampler and the inline loop on the same (nodes, rate)
    schedule and demand identical hits every cycle and identical RNG
    state at the end (after folding back any partial block).  The
    schedule runs twice: behind the inline prefix, and with no prefix,
    so that numpy blocks serve it from its first cycle."""
    for prefix in (sampling._INLINE_DRAWS, 0):
        sampler_rng = random.Random(seed)
        inline_rng = random.Random(seed)
        sampler = GeometricSampler(sampler_rng)
        sampler._inline = prefix
        for nodes, rate in schedule:
            assert sampler.next_cycle(nodes, rate) == inline_cycle(inline_rng, nodes, rate)
        sampler.flush()
        assert sampler_rng.getstate() == inline_rng.getstate()


class TestDegenerateRates:
    def test_rate_one_hits_every_node(self):
        # random() < 1.0 is true for every draw: all-hit blocks
        assert_stream_exact([(7, 1.0)] * 50)

    def test_rate_just_below_one(self):
        assert_stream_exact([(7, 1.0 - 1e-12)] * 50)

    def test_rate_above_one_clamps_to_all_hits(self):
        assert_stream_exact([(5, 1.5)] * 20)

    def test_rate_zero_still_consumes_draws(self):
        # the sampler may only be called with rate > 0 by the engine,
        # but the stream contract holds for 0 too: draws are consumed
        assert_stream_exact([(6, 0.0)] * 20 + [(6, 0.5)] * 20)

    def test_zero_nodes_consumes_nothing(self):
        rng = random.Random(SEED)
        state = rng.getstate()
        sampler = GeometricSampler(rng)
        assert sampler.next_cycle(0, 0.5) == []
        sampler.flush()
        assert rng.getstate() == state


class TestMidBlockChanges:
    def test_rate_change_mid_block_rewinds(self):
        # 3 nodes -> a block spans thousands of cycles; change the rate
        # after 17 cycles, well inside the first block
        schedule = [(3, 0.25)] * 17 + [(3, 0.75)] * 17 + [(3, 0.01)] * 17
        assert_stream_exact(schedule)

    def test_drain_style_rate_drop_then_resume(self):
        schedule = [(4, 0.3)] * 11 + [(4, 0.05)] * 11 + [(4, 0.3)] * 11
        assert_stream_exact(schedule)

    def test_healthy_set_shrink_mid_block(self):
        # a runtime fault removes nodes from the healthy set: the draw
        # count per cycle changes and the block must rewind exactly
        schedule = [(64, 0.1)] * 9 + [(63, 0.1)] * 9 + [(60, 0.1)] * 9
        assert_stream_exact(schedule)

    def test_shrink_and_rate_change_together(self):
        schedule = [(10, 0.2)] * 5 + [(8, 0.9)] * 5 + [(8, 1.0)] * 5 + [(7, 0.001)] * 5
        assert_stream_exact(schedule)

    def test_flush_mid_block_positions_rng_at_first_unconsumed_draw(self):
        sampler_rng = random.Random(SEED)
        inline_rng = random.Random(SEED)
        sampler = GeometricSampler(sampler_rng)
        for _ in range(13):
            assert sampler.next_cycle(5, 0.4) == inline_cycle(inline_rng, 5, 0.4)
        sampler.flush()
        # after the flush both streams must produce the same raw doubles
        assert [sampler_rng.random() for _ in range(32)] == [
            inline_rng.random() for _ in range(32)
        ]

    def test_run_shorter_than_first_block(self):
        # 20 cycles past the inline prefix draw one first-size block and
        # leave it partially consumed; the flush folds back exactly 20
        pytest.importorskip("numpy")
        rng = random.Random(SEED)
        sampler = GeometricSampler(rng)
        inline_rng = random.Random(SEED)
        for _ in range(prefix_cycles(16) + 20):
            assert sampler.next_cycle(16, 0.1) == inline_cycle(inline_rng, 16, 0.1)
        block = sampler._block
        assert (block.cycles, block.used) == (sampling._FIRST_BLOCK_CYCLES, 20)
        sampler.flush()
        assert rng.getstate() == inline_rng.getstate()

    def test_flush_mid_grown_block(self):
        # past the inline prefix, blocks of 32 and 64 cycles are
        # exhausted, the third (128 cycles) is flushed after 10; the
        # stream then resumes exactly
        pytest.importorskip("numpy")
        first = sampling._FIRST_BLOCK_CYCLES
        sampler_rng = random.Random(SEED)
        inline_rng = random.Random(SEED)
        sampler = GeometricSampler(sampler_rng)
        for _ in range(prefix_cycles(5) + 3 * first + 10):
            assert sampler.next_cycle(5, 0.3) == inline_cycle(inline_rng, 5, 0.3)
        block = sampler._block
        assert (block.cycles, block.used) == (4 * first, 10)
        sampler.flush()
        assert sampler_rng.getstate() == inline_rng.getstate()
        for _ in range(first + 7):
            assert sampler.next_cycle(5, 0.3) == inline_cycle(inline_rng, 5, 0.3)
        sampler.flush()
        assert sampler_rng.getstate() == inline_rng.getstate()

    def test_block_exhaustion_commits_end_state(self):
        # 4096 nodes -> _BLOCK_TARGET//4096 = 8 cycles per block: cross
        # several block boundaries and keep exactness throughout
        assert_stream_exact([(4096, 0.003)] * 20)


class TestInlinePrefix:
    def test_short_run_builds_no_numpy_generator(self):
        # a 20-cycle 4x4 run draws 320 values, all inline
        sim = Simulator(
            SimulationConfig(
                topology="torus", radix=4, dims=2, rate=0.01,
                warmup_cycles=5, measure_cycles=15, seed=SEED,
            )
        )
        sim.run()
        assert sim.generation.sampler._rs is None

    @pytest.mark.parametrize("nodes", [16, 7])
    def test_changes_in_the_first_block_after_the_switch(self, nodes):
        # 16 nodes end the prefix on a cycle boundary, 7 overrun it; the
        # rate changes and the healthy set shrinks inside the first
        # numpy block (32 cycles), then the run goes on past it
        pytest.importorskip("numpy")
        schedule = (
            [(nodes, 0.1)] * (prefix_cycles(nodes) + 5)
            + [(nodes, 0.3)] * 5
            + [(nodes - 2, 0.3)] * 5
            + [(nodes - 2, 0.02)] * 60
        )
        assert_stream_exact(schedule)

    def test_prefix_then_blocks(self):
        pytest.importorskip("numpy")
        rng = random.Random(SEED)
        sampler = GeometricSampler(rng)
        inline_rng = random.Random(SEED)
        for _ in range(prefix_cycles(16)):
            assert sampler.next_cycle(16, 0.1) == inline_cycle(inline_rng, 16, 0.1)
        assert sampler._rs is None and sampler._block is None
        assert rng.getstate() == inline_rng.getstate()  # nothing buffered
        assert sampler.next_cycle(16, 0.1) == inline_cycle(inline_rng, 16, 0.1)
        assert sampler._rs is not None and sampler._block.used == 1


class TestNumpyFreeFallback:
    @pytest.fixture
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(sampling, "_np", None)

    def test_fallback_is_stream_exact(self, no_numpy):
        schedule = [(7, 0.3)] * 23 + [(5, 1.0)] * 7 + [(5, 0.0)] * 7
        assert_stream_exact(schedule)

    def test_fallback_never_buffers(self, no_numpy):
        # the fallback draws inline, so the RNG is always current and
        # flush has nothing to fold back
        rng = random.Random(SEED)
        sampler = GeometricSampler(rng)
        sampler.next_cycle(9, 0.5)
        state = rng.getstate()
        sampler.flush()
        assert rng.getstate() == state


class TestStateTransplant:
    def test_numpy_state_round_trip(self):
        pytest.importorskip("numpy")
        rng = random.Random(SEED)
        rng.random()  # advance off the seed state
        state = rng.getstate()
        back = sampling._from_numpy_state(sampling._to_numpy_state(state))
        # the gauss cache (third element) is not carried by numpy; the
        # MT19937 word state and position must survive exactly
        assert back[0] == state[0]
        assert back[1] == state[1]
