"""Bisection of grid networks.

The paper's throughput metric is *bisection utilization*::

    rho_b = (bisection messages delivered / cycle) * message_length
            / bisection_bandwidth

where the bisection bandwidth is "the maximum number of flits that can be
transferred across the bisection in a cycle, and is proportional to the
number of nonfaulty links in the bisection of the network -- for example,
the row links connecting nodes in the middle two columns of a 16x16 mesh".

We cut the network across dimension 0 into two halves of equal size:
positions ``0..k/2-1`` versus ``k/2..k-1``.  In a mesh one column of links
crosses the cut; in a torus the wraparound makes a second column of links
(between positions ``k-1`` and ``0``) cross as well.  Each undirected link
carries one unidirectional physical channel per direction and each channel
moves one flit per cycle, so the fault-free bandwidth in flits/cycle is
``2 * (#undirected bisection links)``.
"""

from __future__ import annotations

from typing import Iterator, List, Set

from .coordinates import Coord, Direction
from .grid import BiLink, GridNetwork

#: Dimension along which the network is bisected.
BISECTION_DIM = 0


def _cut_positions(network: GridNetwork) -> List[int]:
    """Positions ``p`` such that the link ``p -> p+1 (mod k)`` in dimension 0
    crosses the bisection cut.

    For odd radices the cut is the nearest-to-equal partition
    (``ceil(k/2)`` vs ``floor(k/2)`` columns) — a near-bisection that keeps
    the metric defined for every network size."""
    half = (network.radix + 1) // 2
    positions = [half - 1]
    if network.wraparound:
        positions.append(network.radix - 1)
    return positions


def bisection_links(network: GridNetwork) -> Iterator[BiLink]:
    """All undirected links crossing the bisection of the fault-free network."""
    for position in _cut_positions(network):
        for coord in network.nodes():
            if coord[BISECTION_DIM] != position:
                continue
            hop = network.hop(coord, BISECTION_DIM, Direction.POS)
            if hop is not None:
                yield hop[1]


def bisection_bandwidth(network: GridNetwork, faulty_links: Set[BiLink] = frozenset()) -> int:
    """Bisection bandwidth in flits/cycle.

    ``faulty_links`` are excluded, matching the paper's definition that the
    bandwidth is proportional to the number of *nonfaulty* bisection links.
    A link incident on a faulty node must already be present in
    ``faulty_links`` (the fault layer guarantees this).
    """
    healthy = [link for link in bisection_links(network) if link not in faulty_links]
    return 2 * len(healthy)


def side_of_bisection(coord: Coord, network: GridNetwork) -> int:
    """0 for the lower half (positions ``0..ceil(k/2)-1`` in dimension 0),
    1 for the upper half."""
    return 0 if coord[BISECTION_DIM] < (network.radix + 1) // 2 else 1


def is_bisection_message(src: Coord, dst: Coord, network: GridNetwork) -> bool:
    """True if a message from ``src`` to ``dst`` counts as a *bisection
    message* (source and destination on opposite sides of the fault-free
    bisection)."""
    return side_of_bisection(src, network) != side_of_bisection(dst, network)
