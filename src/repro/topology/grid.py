"""Base class for (k, n)-grid point-to-point networks (torus and mesh).

The topology layer knows nothing about routers, faults, or traffic; it only
answers structural questions: who is adjacent to whom, which links exist,
which links are wraparound, and what the minimal travel directions are.
Faults are layered on top by :mod:`repro.faults` and routers by
:mod:`repro.router`.

A network is immutable after construction, so its adjacency is tabled:
the first question about a node computes its hops once (from
:meth:`GridNetwork.neighbor`, the coordinate arithmetic) and every later
one is a dict read.  The tables are derived state — filled lazily, never
part of a pickle — so a network nobody asks about costs nothing.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple, Optional, Tuple

from .coordinates import (
    Coord,
    Direction,
    all_coords,
    coord_to_id,
    id_to_coord,
    step,
    torus_distance,
)


class BiLink(NamedTuple):
    """An undirected (full-duplex) link between two adjacent nodes.

    Normalized so that ``u`` has the smaller node id; a link fault disables
    both unidirectional physical channels of the link.  A named tuple:
    links live in sets and dict keys throughout the fault layer, and a
    tuple hashes and compares without entering the interpreter.
    """

    u: Coord
    v: Coord
    dim: int

    @staticmethod
    def between(a: Coord, b: Coord, dim: int, radix: int) -> "BiLink":
        if coord_to_id(a, radix) <= coord_to_id(b, radix):
            return BiLink(a, b, dim)
        return BiLink(b, a, dim)

    @property
    def endpoints(self) -> Tuple[Coord, Coord]:
        return (self.u, self.v)


#: one ``(dim, direction, neighbor)`` entry of a node's adjacency
Hop = Tuple[int, Direction, Coord]


class GridNetwork:
    """Common structure shared by :class:`Torus` and :class:`Mesh`.

    Parameters
    ----------
    radix:
        Number of nodes per dimension (``k``).
    dims:
        Number of dimensions (``n``).
    """

    #: Whether the network has wraparound links (overridden by subclasses).
    wraparound: bool

    def __init__(self, radix: int, dims: int):
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")
        if dims < 1:
            raise ValueError(f"dims must be >= 1, got {dims}")
        self.radix = radix
        self.dims = dims
        self.num_nodes = radix**dims
        self._adjacent: Dict[Coord, Tuple[Hop, ...]] = {}
        self._incident: Dict[Coord, Tuple[BiLink, ...]] = {}
        self._interned: Dict[BiLink, BiLink] = {}

    def __reduce__(self):
        # the tables are derived state: a copy refills its own
        return (type(self), (self.radix, self.dims))

    # ------------------------------------------------------------------
    # node indexing
    # ------------------------------------------------------------------
    def node_id(self, coord: Coord) -> int:
        """Dense integer id of ``coord``."""
        return coord_to_id(coord, self.radix)

    def coord(self, node_id: int) -> Coord:
        """Coordinate tuple of a dense node id."""
        return id_to_coord(node_id, self.radix, self.dims)

    def nodes(self) -> Iterator[Coord]:
        """All node coordinates in id order."""
        return all_coords(self.radix, self.dims)

    # ------------------------------------------------------------------
    # adjacency
    # ------------------------------------------------------------------
    def neighbor(self, coord: Coord, dim: int, direction: Direction) -> Optional[Coord]:
        """Neighbor of ``coord`` in ``dim``/``direction``, or ``None`` if the
        hop falls off a mesh boundary."""
        self._check_dim(dim)
        try:
            return step(coord, dim, direction, self.radix, wrap=self.wraparound)
        except ValueError:
            return None

    def adjacent(self, coord: Coord) -> Tuple[Hop, ...]:
        """All ``(dim, direction, neighbor)`` hops of ``coord``, dimension
        by dimension, POS before NEG."""
        try:
            return self._adjacent[coord]
        except KeyError:
            return self._tabulate(coord)

    def incident_links(self, coord: Coord) -> Tuple[BiLink, ...]:
        """The link of every hop of ``coord``, parallel to
        :meth:`adjacent`.  Links are interned: both directions of a hop
        (and both hops of a radix-2 torus ring) share one object."""
        try:
            return self._incident[coord]
        except KeyError:
            self._tabulate(coord)
            return self._incident[coord]

    def hop(self, coord: Coord, dim: int, direction: Direction) -> Optional[Tuple[Coord, BiLink]]:
        """``(neighbor, link)`` of one hop, or ``None`` off a mesh
        boundary."""
        self._check_dim(dim)
        for (hop_dim, way, other), link in zip(self.adjacent(coord), self.incident_links(coord)):
            if hop_dim == dim and way == direction:
                return other, link
        return None

    def _tabulate(self, coord: Coord) -> Tuple[Hop, ...]:
        """Fill every table entry of ``coord`` — the only caller of the
        arithmetic in :meth:`neighbor` on behalf of the tables."""
        hops, links = [], []
        for dim in range(self.dims):
            for direction in (Direction.POS, Direction.NEG):
                other = self.neighbor(coord, dim, direction)
                if other is not None:
                    link = BiLink.between(coord, other, dim, self.radix)
                    hops.append((dim, direction, other))
                    links.append(self._interned.setdefault(link, link))
        self._incident[coord] = tuple(links)
        self._adjacent[coord] = tuple(hops)
        return self._adjacent[coord]

    def neighbors(self, coord: Coord) -> Iterator[Hop]:
        """All ``(dim, direction, neighbor)`` triples of ``coord``."""
        return iter(self.adjacent(coord))

    def links(self) -> Iterator[BiLink]:
        """All undirected links, each reported once."""
        seen = set()
        for coord in self.nodes():
            for link in self.incident_links(coord):
                if link not in seen:
                    seen.add(link)
                    yield link

    def num_links(self) -> int:
        """Total number of undirected links."""
        per_dim = self.radix if self.wraparound else self.radix - 1
        return self.dims * per_dim * self.radix ** (self.dims - 1)

    def is_wraparound_hop(self, coord: Coord, dim: int, direction: Direction) -> bool:
        """True if the hop from ``coord`` in ``dim``/``direction`` uses a
        wraparound link (always False in a mesh)."""
        if not self.wraparound:
            return False
        if direction is Direction.POS:
            return coord[dim] == self.radix - 1
        return coord[dim] == 0

    # ------------------------------------------------------------------
    # routing-support queries
    # ------------------------------------------------------------------
    def minimal_direction(self, src: int, dst: int) -> Optional[Direction]:
        """Preferred travel direction from ring/line position ``src`` to
        ``dst`` within one dimension, or ``None`` if ``src == dst``.

        In a torus, ties (distance exactly ``k/2``) resolve to ``POS`` so
        that routing is deterministic.
        """
        if src == dst:
            return None
        if not self.wraparound:
            return Direction.POS if dst > src else Direction.NEG
        forward = (dst - src) % self.radix
        backward = self.radix - forward
        return Direction.POS if forward <= backward else Direction.NEG

    def dim_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two positions within one dimension."""
        if not self.wraparound:
            return abs(dst - src)
        return torus_distance(src, dst, self.radix)

    def distance(self, a: Coord, b: Coord) -> int:
        """Minimal hop count between two nodes."""
        return sum(self.dim_distance(a[d], b[d]) for d in range(self.dims))

    def crosses_dateline(self, src: int, dst: int, direction: Direction) -> bool:
        """Whether traveling from ``src`` to ``dst`` in ``direction`` within
        one dimension crosses the wraparound (dateline) link.

        The dateline is the link between positions ``k-1`` and ``0``.  Mesh
        networks never cross it.
        """
        if not self.wraparound or src == dst:
            return False
        if direction is Direction.POS:
            return dst < src  # must pass k-1 -> 0
        return dst > src  # must pass 0 -> k-1

    # ------------------------------------------------------------------
    def _check_dim(self, dim: int) -> None:
        if not 0 <= dim < self.dims:
            raise ValueError(f"dimension {dim} out of range for {self.dims}-D network")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = type(self).__name__
        return f"{kind}(radix={self.radix}, dims={self.dims})"


class Torus(GridNetwork):
    """A (k, n)-torus: every node has exactly two neighbors per dimension."""

    wraparound = True


class Mesh(GridNetwork):
    """A (k, n)-mesh: like a torus but without wraparound links."""

    wraparound = False


def make_network(kind: str, radix: int, dims: int) -> GridNetwork:
    """Factory used by configuration code: ``kind`` is ``"torus"`` or
    ``"mesh"`` (case-insensitive)."""
    lowered = kind.lower()
    if lowered == "torus":
        return Torus(radix, dims)
    if lowered == "mesh":
        return Mesh(radix, dims)
    raise ValueError(f"unknown network kind {kind!r}; expected 'torus' or 'mesh'")
