"""Stream-exact batched traffic sampling (the geometric skip-ahead).

The generation phase draws one uniform per healthy node per cycle and
generates a message where the draw falls below ``rate`` (geometric
interarrival, Section 6).  At the low-to-moderate rates where the
paper's latency/throughput curves live almost every draw is a miss, yet
the straightforward loop pays a Python-level RNG call for each one.

:class:`GeometricSampler` removes that cost without changing a single
simulation outcome.  It materializes the *identical* Mersenne Twister
stream in blocks — many cycles' worth of draws at once — and hands the
engine only the hit positions, so idle sources never reach Python at
all.  Two implementation paths:

* **numpy block path** — the sampler transplants the ``random.Random``
  state into a ``numpy.random.RandomState`` (both are MT19937 and both
  derive doubles from the same two-word construction, so the streams are
  bit-identical), draws a whole block at C speed, extracts hits with
  ``flatnonzero``, and keeps the generator, whose end state is copied
  back only once the block is exhausted.  The geometric gaps between
  hits are skipped inside the block instead of being simulated draw by
  draw.  A sampler's first block spans 32 cycles and each new one twice
  as many, up to ``_BLOCK_TARGET`` draws, so a run that ends soon after
  the inline prefix draws little more than it consumes.
* **inline path** — a tight per-cycle comprehension over ``rng`` with
  the same consumption order.  Every sampler draws its first
  ``_INLINE_DRAWS`` values this way, because numpy's set-up (a
  generator, two state copies) costs more than a short run's whole
  stream; and when numpy is unavailable the sampler never leaves it.

Exactness contract: for a given ``(nodes, rate)`` the sampler consumes
``nodes`` draws per cycle in node order, exactly like the per-node loop.
If the population size or the rate changes mid-block (a runtime fault
shrank the healthy set; ``drain`` zeroed the rate), the sampler rewinds
the underlying RNG to the first unconsumed draw before re-drawing, so
the stream never skips or repeats a value.  The engine-side rule that
makes this sound: the engine consumes **no** draws while ``rate <= 0``
(matching the legacy loop's early return), and nobody else may draw from
the generation RNG mid-run.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

try:  # the sampler is optional-dependency tolerant by design
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: draws every sampler takes inline before its first numpy block: where
#: the two paths cost the same for a whole run, so no run pays more than
#: about twice its cheaper path.  Sampler time per run on a 2-vCPU Xeon
#: at 16-256 nodes and rates 0.005-0.02, inline over numpy: ~0.4 at
#: 4,096 draws, 0.55-1.0 at 8,192, 0.85-1.0 at 16,384, 1.1-1.9 at 24,576
_INLINE_DRAWS = 16_384
#: target doubles per numpy block draw; bounds both memory (8 bytes per
#: draw) and the cost of a mid-block rewind (a rewind re-materializes at
#: most one block's worth of consumed draws)
_BLOCK_TARGET = 32_768
#: cycles in a sampler's first block; each new block doubles the span up
#: to the ``_BLOCK_TARGET`` draws, so a run a few dozen cycles past the
#: inline prefix draws little more than it consumes
_FIRST_BLOCK_CYCLES = 32


def _to_numpy_state(state):
    """``random.Random.getstate()`` -> ``RandomState.set_state`` tuple."""
    return ("MT19937", _np.asarray(state[1][:-1], dtype=_np.uint32), state[1][-1])


def _from_numpy_state(ns):
    """``RandomState.get_state()`` -> ``random.Random.setstate`` tuple."""
    return (3, tuple(ns[1].tolist()) + (int(ns[2]),), None)


class _Block:
    """One materialized span of the generation stream."""

    __slots__ = ("nodes", "rate", "cycles", "used", "hits", "start_state")

    def __init__(self, nodes: int, rate: float, cycles: int, hits, start_state):
        self.nodes = nodes
        self.rate = rate
        self.cycles = cycles
        #: cycles already handed to the engine
        self.used = 0
        #: cycle offset -> sorted node indices that generate that cycle
        self.hits: Dict[int, List[int]] = hits
        #: python-rng state at the first draw of the block (rewind anchor)
        self.start_state = start_state


class GeometricSampler:
    """Per-cycle generation hits, bit-identical to the per-node loop.

    The sampler owns the pacing of ``rng``: while a block is partially
    consumed the ``random.Random`` object still holds the state of the
    block's *first* draw, and is fast-forwarded (or rewound to the exact
    unconsumed position) whenever the block ends or its parameters stop
    matching.  External code must not draw from ``rng`` between cycles.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        #: draws left before the sampler switches to numpy blocks
        self._inline = _INLINE_DRAWS
        self._block: Optional[_Block] = None
        #: cycles the next block spans (before the per-node cap)
        self._span = _FIRST_BLOCK_CYCLES
        #: the numpy generator every block draws from (made on first use)
        self._rs = None
        #: the ``rng`` state ``_rs`` was last copied into, while the two
        #: are still in step (no block drawn since); else None
        self._in_step = None

    # ------------------------------------------------------------------
    def next_cycle(self, nodes: int, rate: float) -> List[int]:
        """Node indices that generate this cycle (consumes ``nodes``
        draws from the stream, in node order)."""
        if nodes <= 0:
            return []
        if _np is None or self._inline > 0:
            # the prefix draws from ``rng`` itself, so no block is ever
            # outstanding here and the first block copies ``rng``'s state
            self._inline -= nodes
            rng_random = self.rng.random
            return [i for i in range(nodes) if rng_random() < rate]
        block = self._block
        if block is None or block.nodes != nodes or block.rate != rate:
            self._rewind()
            block = self._draw(nodes, rate)
        hits = block.hits.pop(block.used, _EMPTY)
        block.used += 1
        if block.used == block.cycles:
            self._commit()
            self._block = None
        return hits

    def flush(self) -> None:
        """Fold any partially consumed block back into ``rng`` so its
        state is exactly "everything handed out so far".  Call before
        external code inspects or shares the generation RNG."""
        self._rewind()

    # ------------------------------------------------------------------
    def _draw(self, nodes: int, rate: float) -> _Block:
        cycles = min(self._span, max(1, _BLOCK_TARGET // nodes))
        self._span = 2 * cycles
        start_state = self.rng.getstate()
        rs = self._rs
        if rs is None:
            rs = self._rs = _np.random.RandomState()
        if start_state != self._in_step:
            rs.set_state(_to_numpy_state(start_state))
        self._in_step = None
        draws = rs.random_sample(nodes * cycles)
        hits: Dict[int, List[int]] = {}
        for flat in _np.flatnonzero(draws < rate).tolist():
            hits.setdefault(flat // nodes, []).append(flat % nodes)
        block = _Block(nodes, rate, cycles, hits, start_state)
        self._block = block
        return block

    def _commit(self) -> None:
        """Copy the numpy generator's position into ``rng``."""
        state = _from_numpy_state(self._rs.get_state())
        self.rng.setstate(state)
        self._in_step = state

    def _rewind(self) -> None:
        """Reposition ``rng`` at the first unconsumed draw of the current
        block (no-op when no block is outstanding)."""
        block = self._block
        self._block = None
        if block is None or block.used == 0:
            return
        self._rs.set_state(_to_numpy_state(block.start_state))
        self._rs.random_sample(block.used * block.nodes)
        self._commit()


_EMPTY: List[int] = []
