"""Traffic generation.

The paper evaluates the uniform pattern with geometrically distributed
message interarrival times: each node independently generates a message
in a cycle with probability ``rate`` (so interarrival gaps are geometric)
addressed to a destination drawn uniformly among the other healthy nodes.

Classic adversarial patterns (transpose, bit-reversal, hotspot) are also
provided; they stress specific bisection channels and are used by the
extension examples and ablation benchmarks, not by the paper's figures.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence

from ..topology import Coord, GridNetwork


class TrafficPattern:
    """Chooses a destination for a message generated at ``src``.

    ``None`` means the pattern has no destination for this source (e.g.
    the transpose of a node maps to itself or to a faulty node) and no
    message is generated."""

    name = "abstract"

    def __init__(self, network: GridNetwork, healthy: Sequence[Coord], rng: random.Random):
        self.network = network
        self.healthy = list(healthy)
        self.healthy_set = set(healthy)
        self.rng = rng

    def destination(self, src: Coord) -> Optional[Coord]:
        raise NotImplementedError

    def retarget(self, healthy: Sequence[Coord]) -> None:
        """Update the healthy-node view after a runtime fault event so the
        pattern stops targeting dead nodes.  Subclasses with extra state
        derived from the node set override this (calling super())."""
        self.healthy = list(healthy)
        self.healthy_set = set(healthy)


class UniformTraffic(TrafficPattern):
    """Uniform random destinations over the healthy nodes (the paper's
    workload)."""

    name = "uniform"

    def destination(self, src: Coord) -> Optional[Coord]:
        # With few faults a couple of rejection rounds suffice.
        choice = self.rng.choice
        while True:
            dst = choice(self.healthy)
            if dst != src:
                return dst


class TransposeTraffic(TrafficPattern):
    """Matrix-transpose permutation: ``(x0, x1, ...) -> (x1, x0, ...)``
    (first two dimensions swapped)."""

    name = "transpose"

    def destination(self, src: Coord) -> Optional[Coord]:
        dst = (src[1], src[0]) + src[2:]
        if dst == src or dst not in self.healthy_set:
            return None
        return dst


class BitReversalTraffic(TrafficPattern):
    """Bit-reversal permutation on the node id (radix must be a power of
    two)."""

    name = "bit-reversal"

    def __init__(self, network: GridNetwork, healthy: Sequence[Coord], rng: random.Random):
        super().__init__(network, healthy, rng)
        bits = self.address_bits(network.num_nodes)
        if bits is None:
            raise ValueError("bit-reversal traffic needs a power-of-two node count")
        self._bits = bits

    @staticmethod
    def address_bits(num_nodes: int) -> Optional[int]:
        """Bits of a node id, or None when ``num_nodes`` is not a power
        of two (the permutation is then undefined)."""
        bits = (num_nodes - 1).bit_length()
        return bits if 1 << bits == num_nodes else None

    def destination(self, src: Coord) -> Optional[Coord]:
        src_id = self.network.node_id(src)
        rev = int(format(src_id, f"0{self._bits}b")[::-1], 2)
        dst = self.network.coord(rev)
        if dst == src or dst not in self.healthy_set:
            return None
        return dst


class HotspotTraffic(TrafficPattern):
    """Uniform traffic with a fraction of messages redirected to one hot
    node (default: the network center)."""

    name = "hotspot"

    def __init__(
        self,
        network: GridNetwork,
        healthy: Sequence[Coord],
        rng: random.Random,
        *,
        hotspot: Optional[Coord] = None,
        fraction: float = 0.1,
    ):
        super().__init__(network, healthy, rng)
        if hotspot is None:
            hotspot = tuple(network.radix // 2 for _ in range(network.dims))
        if hotspot not in self.healthy_set:
            hotspot = self.healthy[0]
        self.hotspot = hotspot
        self.fraction = fraction

    def retarget(self, healthy: Sequence[Coord]) -> None:
        super().retarget(healthy)
        if self.hotspot not in self.healthy_set and self.healthy:
            self.hotspot = self.healthy[0]

    def destination(self, src: Coord) -> Optional[Coord]:
        if self.rng.random() < self.fraction and src != self.hotspot:
            return self.hotspot
        while True:
            dst = self.rng.choice(self.healthy)
            if dst != src:
                return dst


_PATTERNS = {
    "uniform": UniformTraffic,
    "transpose": TransposeTraffic,
    "bit-reversal": BitReversalTraffic,
    "hotspot": HotspotTraffic,
}


def make_traffic(
    name: str, network: GridNetwork, healthy: Sequence[Coord], rng: random.Random
) -> TrafficPattern:
    try:
        cls = _PATTERNS[name]
    except KeyError:
        raise ValueError(f"unknown traffic pattern {name!r}; known: {sorted(_PATTERNS)}") from None
    return cls(network, healthy, rng)
