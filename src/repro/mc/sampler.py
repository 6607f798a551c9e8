"""Index-addressed seeded fault-pattern sampling.

The Monte-Carlo engine needs the same determinism contract the traffic
sampler (``sim/sampling.py``) gives the simulator — the sampled stream
must be *stream-exact*: pattern ``i`` of a cell is the same FaultSet
whether it is drawn serially, in a parallel shard, or on a resumed run
on another machine.  Instead of skip-ahead arithmetic on one generator
state we make every pattern **index-addressed**: pattern ``i`` is drawn
from its own :class:`random.Random` seeded by

    sha256(master_seed | cell_key | i)

so "skip-ahead" is O(1) by construction, shards can start anywhere, and
nothing depends on Python's per-process ``hash()`` randomization.  The
draw itself is :func:`repro.faults.generation.draw_fault_set`, the one
the rejection-sampling generators use — faulty nodes sampled without
replacement, faulty links among the links not incident to a faulty node
— but performs **no rejection**:
fatal geometries are a *measured outcome* here, not a redraw, which is
what lets :mod:`repro.mc.exact` enumerate the identical distribution.

Pure stdlib on purpose: the numpy-free CI guard runs the whole MC
classification tier.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Tuple

from ..faults.fault_model import FaultSet
from ..faults.generation import draw_fault_set
from ..topology import GridNetwork

__all__ = [
    "pattern_seed",
    "max_node_faults",
    "max_link_faults",
    "PatternSampler",
]


def pattern_seed(master_seed: int, cell_key: str, index: int) -> int:
    """The 64-bit RNG seed for pattern ``index`` of one cell.  Stable
    across processes and machines (sha256, never ``hash()``)."""
    blob = f"{master_seed}:{cell_key}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big")


def max_node_faults(network: GridNetwork) -> int:
    """The documented maximum node-fault count: every node faulty."""
    return network.num_nodes


def max_link_faults(network: GridNetwork, num_node_faults: int = 0) -> int:
    """The documented maximum link-fault count for a draw with
    ``num_node_faults`` faulty nodes: the guaranteed lower bound on
    candidate links after removing those incident to faulty nodes (each
    node fault claims at most ``2 * dims`` links; shared links only make
    more candidates available, never fewer)."""
    return max(0, network.num_links() - num_node_faults * 2 * network.dims)


class PatternSampler:
    """Draw the ``i``-th random fault pattern of one Monte-Carlo cell.

    The candidate node and link lists are materialized once in the
    network's deterministic iteration order; each draw then costs two
    ``random.Random.sample`` calls plus the incident-link filter.
    """

    def __init__(
        self,
        network: GridNetwork,
        num_node_faults: int,
        num_link_faults: int,
        *,
        master_seed: int,
        cell_key: str,
    ) -> None:
        self.network = network
        self.num_node_faults = int(num_node_faults)
        self.num_link_faults = int(num_link_faults)
        self.master_seed = int(master_seed)
        self.cell_key = str(cell_key)
        self._nodes = list(network.nodes())
        self._links = list(network.links())
        if not 0 <= self.num_node_faults <= len(self._nodes):
            raise ValueError(
                f"num_node_faults={self.num_node_faults} out of range "
                f"[0, {len(self._nodes)}] on {network!r}"
            )
        limit = max_link_faults(network, self.num_node_faults)
        if not 0 <= self.num_link_faults <= limit:
            raise ValueError(
                f"num_link_faults={self.num_link_faults} out of range "
                f"[0, {limit}] with {self.num_node_faults} node fault(s) "
                f"on {network!r}"
            )

    def draw(self, index: int) -> FaultSet:
        """Pattern ``index`` — O(1) skip-ahead: any index, any order."""
        if index < 0:
            raise ValueError(f"pattern index must be >= 0, got {index}")
        rng = random.Random(pattern_seed(self.master_seed, self.cell_key, index))
        return draw_fault_set(
            self._nodes, self._links, self.num_node_faults, self.num_link_faults, rng
        )

    def batch(self, start: int, count: int) -> List[Tuple[int, FaultSet]]:
        """Patterns ``start .. start+count-1`` as ``(index, faults)``."""
        return [(index, self.draw(index)) for index in range(start, start + count)]
