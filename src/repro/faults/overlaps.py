"""Overlapping fault rings: the extension of Chalasani & Boppana's
report [8].

Section 7: "To make the length of all links in a given dimension of the
torus the same, often alternate nodes in a given dimension are placed
physically close on the same circuit board.  In this case, the faults on
a board lead to overlapping f-rings, which can be handled using more
virtual channels than in the case of nonoverlapping f-rings."

Two f-rings *overlap* when they share a physical link.  The base scheme
breaks because Lemma 1's disjointness argument assigns each shared ring
link to exactly one message type: with ring A's right column doubling as
ring B's left column, ``DIM0-`` detours around A and ``DIM0+`` detours
around B would share virtual channels and the partial order collapses.

The fix implemented here doubles the misroute classes: every fault
region is assigned a **layer** by properly 2-coloring the *overlap
graph* (regions as vertices, an edge when any of their rings share a
link).  Misroute traffic around a layer-1 region uses a second bank of
virtual channel classes (``c4..c7`` in a torus), so overlapping rings
never share a virtual channel and each layer independently satisfies the
original lemma.  Normal (non-misrouted) traffic keeps using the base
classes.

If the overlap graph is not bipartite (three rings pairwise overlapping)
more layers would be needed; such patterns are rejected, mirroring the
paper's escalation of "more virtual channels".
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Dict, List, Set, Tuple

from .fault_rings import FaultRingIndex


class OverlapColoringError(ValueError):
    """The ring-overlap graph is not 2-colorable: the pattern needs more
    than two misroute layers (out of scope, as in the paper)."""


def ring_overlap_graph(ring_index: FaultRingIndex) -> Dict[int, Set[int]]:
    """Adjacency over region indices: an edge when two regions' rings
    share at least one link."""
    adjacency: Dict[int, Set[int]] = {
        index: set() for index in range(len(ring_index.regions))
    }
    for ring_a, ring_b in ring_index.overlapping_ring_pairs():
        adjacency[ring_a.region_index].add(ring_b.region_index)
        adjacency[ring_b.region_index].add(ring_a.region_index)
    return adjacency


def assign_region_layers(ring_index: FaultRingIndex) -> Dict[int, int]:
    """Layer (0 or 1) per region: a proper 2-coloring of the overlap
    graph.  Isolated regions all get layer 0, so fault patterns without
    overlaps need no extra virtual channels."""
    adjacency = ring_overlap_graph(ring_index)
    layers: Dict[int, int] = {}
    for start in adjacency:
        if start in layers:
            continue
        layers[start] = 0
        queue = deque([start])
        while queue:
            region = queue.popleft()
            for neighbor in adjacency[region]:
                if neighbor not in layers:
                    layers[neighbor] = 1 - layers[region]
                    queue.append(neighbor)
                elif layers[neighbor] == layers[region]:
                    raise OverlapColoringError(
                        f"regions {region} and {neighbor} overlap but cannot "
                        "be separated with two misroute layers (overlap graph "
                        "has an odd cycle); the pattern needs even more "
                        "virtual channels"
                    )
    return layers


def has_overlaps(layers: Dict[int, int]) -> bool:
    """True if any region needed the second layer."""
    return any(layer == 1 for layer in layers.values())


def shared_links_report(ring_index: FaultRingIndex) -> List[Tuple[int, int, int]]:
    """(region_a, region_b, shared link count) triples for diagnostics and
    examples."""
    shared: Dict[Tuple[int, int], int] = {}
    for owners in ring_index.link_owners.values():
        regions = sorted({ring_index.rings[slot].region_index for slot in owners})
        for pair in combinations(regions, 2):
            shared[pair] = shared.get(pair, 0) + 1
    return [(*pair, count) for pair, count in sorted(shared.items())]
