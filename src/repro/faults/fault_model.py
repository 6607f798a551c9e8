"""Fault sets and the local fault knowledge available to routers.

The paper's fault model (Section 3): permanent, non-malicious failures of
nodes and links that do not disconnect the network.  A faulty node stops
driving all of its outgoing channels, so every link incident on a faulty
node is unusable.  Fault detection/isolation is local: each healthy node
knows only the status of the links incident on it and on its neighbors.

:class:`FaultSet` is the global ground truth used to *build* a faulty
network; :class:`LocalFaultView` is the restricted interface handed to the
routing logic, mirroring the paper's locality requirement (a router may ask
only about hops adjacent to the current node).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set, Tuple
from weakref import WeakKeyDictionary

from ..topology import BiLink, Coord, Direction, GridNetwork

#: ``network -> {fault set -> all_faulty_links}``.  Keyed weakly on the
#: network and held outside both objects, so the memo never enters a
#: fault set's equality, hash, canonical form or pickle and dies with
#: the network; at most :data:`FAULTY_LINKS_MEMO` fault sets are kept per
#: network (the memo is dropped wholesale when full).
_faulty_links: "WeakKeyDictionary[GridNetwork, Dict[FaultSet, FrozenSet[BiLink]]]" = WeakKeyDictionary()
FAULTY_LINKS_MEMO = 16


@dataclass(frozen=True)
class FaultSet:
    """An immutable set of faulty nodes and faulty links.

    ``link_faults`` holds *explicitly* failed links; links incident on a
    faulty node are implicitly faulty and are included by
    :meth:`all_faulty_links`.
    """

    node_faults: FrozenSet[Coord] = frozenset()
    link_faults: FrozenSet[BiLink] = frozenset()

    @staticmethod
    def of(
        network: GridNetwork,
        nodes: Iterable[Coord] = (),
        links: Iterable[Tuple[Coord, int, Direction]] = (),
    ) -> "FaultSet":
        """Convenience constructor.

        ``links`` are given as ``(coord, dim, direction)`` hops; both
        unidirectional channels of each named link fail (full-duplex link
        fault).
        """
        node_set = frozenset(tuple(c) for c in nodes)
        link_set = set()
        for coord, dim, direction in links:
            hop = network.hop(tuple(coord), dim, direction)
            if hop is None:
                raise ValueError(f"no link at {coord} dim {dim} dir {direction}")
            link_set.add(hop[1])
        return FaultSet(node_set, frozenset(link_set))

    @property
    def empty(self) -> bool:
        return not self.node_faults and not self.link_faults

    def is_node_faulty(self, coord: Coord) -> bool:
        return coord in self.node_faults

    def all_faulty_links(self, network: GridNetwork) -> FrozenSet[BiLink]:
        """Explicit link faults plus every link incident on a faulty node
        (computed once per fault set and network)."""
        memo = _faulty_links.setdefault(network, {})
        found = memo.get(self)
        if found is None:
            links: Set[BiLink] = set(self.link_faults)
            for coord in self.node_faults:
                links.update(network.incident_links(coord))
            if len(memo) >= FAULTY_LINKS_MEMO:
                memo.clear()
            found = memo[self] = frozenset(links)
        return found

    def is_hop_faulty(self, network: GridNetwork, coord: Coord, dim: int, direction: Direction) -> bool:
        """True if the hop from ``coord`` in ``dim``/``direction`` cannot be
        used: the link is faulty, the far node is faulty, or (mesh) the hop
        falls off the boundary."""
        hop = network.hop(coord, dim, direction)
        return hop is None or hop[1] in self.all_faulty_links(network)

    def faulty_link_fraction(self, network: GridNetwork) -> float:
        """Fraction of the network's links that are faulty (the paper's
        "d% faults" label counts links, with node faults contributing their
        incident links)."""
        return len(self.all_faulty_links(network)) / network.num_links()

    def merged_with(self, other: "FaultSet") -> "FaultSet":
        return FaultSet(
            self.node_faults | other.node_faults,
            self.link_faults | other.link_faults,
        )

    def with_nodes(self, nodes: Iterable[Coord]) -> "FaultSet":
        return FaultSet(self.node_faults | frozenset(nodes), self.link_faults)


@dataclass
class LocalFaultView:
    """The fault knowledge a router is allowed to use.

    The paper requires only that "each non-faulty node knows the status of
    the links incident on it and its neighbors".  The routing logic in
    :mod:`repro.core` receives this view and the precomputed f-ring
    geometry (which, in a real machine, is established by the two-step
    distributed f-ring formation protocol of Section 3; we compute it
    centrally but expose only per-ring information).
    """

    network: GridNetwork
    faults: FaultSet
    _faulty_links: FrozenSet[BiLink] = field(init=False)

    def __post_init__(self) -> None:
        self._faulty_links = self.faults.all_faulty_links(self.network)

    def hop_blocked(self, coord: Coord, dim: int, direction: Direction) -> bool:
        """Whether the next hop from ``coord`` along ``dim``/``direction``
        is unusable (faulty link/neighbor, or mesh boundary)."""
        hop = self.network.hop(coord, dim, direction)
        return hop is None or hop[1] in self._faulty_links

    def node_usable(self, coord: Coord) -> bool:
        return coord not in self.faults.node_faults

    def blocking_fault_target(self, coord: Coord, dim: int, direction: Direction) -> Optional[Coord]:
        """The coordinate the blocked hop leads to (used to locate which
        fault region is responsible), or ``None`` for a mesh-boundary
        block."""
        hop = self.network.hop(coord, dim, direction)
        return None if hop is None else hop[0]
