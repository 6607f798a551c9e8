"""Channel dependency graph (CDG) analysis — mechanized Lemma 1 evidence.

Lemma 1 proves deadlock freedom by exhibiting a partial order on virtual
channels.  Here we check the equivalent graph property directly: build
the dependency graph whose vertices are (physical channel, virtual channel
class) pairs and whose edges connect consecutive channel reservations of
every possible message, then verify it is acyclic (Dally & Seitz).

The walker reuses the *production* resolution logic of the node models,
so interchip channels of the PDR organization — the novel dependency
source this paper is about — appear in the graph exactly as the simulator
exercises them.

Two modes:

* designated classes only (``include_sharing=False``) — the allocation of
  Tables 1/2, matching the Lemma;
* with idle-VC sharing (``include_sharing=True``) — adds every admissible
  class combination on off-ring channels, checking that the parity-rank
  sharing rule preserves acyclicity.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from ..core import RoutingError
from ..router.channels import ChannelKind, PhysicalChannel
from ..router.messages import Message
from ..sim.network import SimNetwork
from ..topology import Coord

#: A CDG vertex: (physical channel, virtual channel class).
Vertex = Tuple[PhysicalChannel, int]
#: The CDG as an adjacency dict: every vertex (sinks included) maps to
#: its successors, both in insertion order (a dict of ``None`` values is
#: an ordered set).
Graph = Dict[Vertex, Dict[Vertex, None]]


def channel_walk(
    net: SimNetwork, src: Coord, dst: Coord, *, share_idle=False
) -> List[Tuple[PhysicalChannel, Tuple[int, ...]]]:
    """The exact sequence of (physical channel, admissible classes) a
    message from ``src`` to ``dst`` reserves, including injection,
    interchip and consumption channels, as resolved by the node models."""
    routing = net.routing
    message = Message(0, src, dst, 2, routing.initial_state(src, dst), 0, False)
    node = net.nodes[src]
    walk: List[Tuple[PhysicalChannel, Tuple[int, ...]]] = [
        (node.injection_channel, tuple(range(net.num_classes)))
    ]
    module = node.injection_module()
    hop_budget = 8 * net.topology.dims * net.topology.radix + 64
    for _ in range(hop_budget):
        resolution = node.resolve(module, message, routing, share_idle)
        channel = resolution.channel
        walk.append((channel, resolution.classes))
        if channel.kind is ChannelKind.CONSUMPTION:
            return walk
        if resolution.commit_decision is not None:
            routing.commit_hop(message.route, node.coord, resolution.commit_decision)
            node = net.nodes[channel.dst_node]
        module = net.feeds[channel.index]
    raise RoutingError(f"channel walk {src}->{dst} exceeded {hop_budget} hops")


def build_cdg(
    net: SimNetwork,
    *,
    include_sharing=False,
    pairs: Optional[Iterable[Tuple[Coord, Coord]]] = None,
) -> Graph:
    """Dependency graph over all (or the given) source/destination pairs.

    ``include_sharing`` may be a bool (legacy: True = 'rank') or one of
    the sharing modes ``'off'``/``'rank'``/``'all'``."""
    graph: Graph = {}
    if pairs is None:
        healthy = net.healthy
        pairs = ((s, d) for s in healthy for d in healthy if s != d)
    for src, dst in pairs:
        walk = channel_walk(net, src, dst, share_idle=include_sharing)
        for (ch_a, classes_a), (ch_b, classes_b) in zip(walk, walk[1:]):
            if include_sharing in (False, "off"):
                classes_a = classes_a[:1]
                classes_b = classes_b[:1]
            for class_a in classes_a:
                for class_b in classes_b:
                    graph.setdefault((ch_a, class_a), {})[(ch_b, class_b)] = None
                    graph.setdefault((ch_b, class_b), {})
    return graph


def _find_cycle(graph: Graph) -> Optional[List[Vertex]]:
    """The first cycle an iterative depth-first search meets (roots and
    successors in insertion order), from the vertex it re-enters on;
    ``None`` if the graph is acyclic.  White vertices are absent from
    ``colour``; a grey one is on ``path``, a black one is finished.
    ``successors[i]`` iterates ``path[i - 1]``'s successors, and
    ``successors[0]`` the roots."""
    grey, black = 1, 2
    colour: Dict[Vertex, int] = {}
    path: List[Vertex] = []
    successors = [iter(graph)]
    while successors:
        for vertex in successors[-1]:
            state = colour.get(vertex)
            if state is None:
                colour[vertex] = grey
                path.append(vertex)
                successors.append(iter(graph[vertex]))
                break
            if state == grey:
                return path[path.index(vertex):]
        else:
            successors.pop()
            if path:
                colour[path.pop()] = black
    return None


def routable_pairs(net: SimNetwork) -> List[Tuple[Coord, Coord]]:
    """Healthy ordered pairs the active routing policy accepts.

    Policies with partial coverage — the table baseline's
    single-intermediate rule, the avoidance heuristic's episode budget —
    raise :class:`RoutingError` from ``initial_state`` for pairs they
    cannot route; everything else routes every healthy pair."""
    routing = net.routing
    pairs: List[Tuple[Coord, Coord]] = []
    for src in net.healthy:
        for dst in net.healthy:
            if src == dst:
                continue
            try:
                routing.initial_state(src, dst)
            except RoutingError:
                continue
            pairs.append((src, dst))
    return pairs


def find_dependency_cycle(
    net: SimNetwork,
    *,
    include_sharing=False,
    pairs: Optional[Iterable[Tuple[Coord, Coord]]] = None,
) -> Optional[List[Vertex]]:
    """``None`` if the CDG is acyclic (deadlock-free allocation), else one
    witness cycle."""
    return _find_cycle(build_cdg(net, include_sharing=include_sharing, pairs=pairs))


def assert_deadlock_free(
    net: SimNetwork,
    *,
    include_sharing=False,
    pairs: Optional[Iterable[Tuple[Coord, Coord]]] = None,
) -> int:
    """Raise if the CDG has a cycle; return the number of graph vertices
    checked (handy for reporting).  ``pairs`` restricts the walk (pass
    :func:`routable_pairs` for partial-coverage policies)."""
    graph = build_cdg(net, include_sharing=include_sharing, pairs=pairs)
    cycle = _find_cycle(graph)
    if cycle is not None:
        witness = ", ".join(f"{channel.name} c{vc_class}" for channel, vc_class in cycle)
        raise AssertionError(f"channel dependency cycle found: [{witness}]")
    return len(graph)


def misroute_statistics(net: SimNetwork) -> Dict[str, float]:
    """Static path statistics over all healthy pairs: how many paths
    misroute, average extra hops versus the fault-free minimal distance."""
    routing = net.routing
    topology = net.topology
    total = 0
    misrouted = 0
    extra_hops = 0
    for src in net.healthy:
        for dst in net.healthy:
            if src == dst:
                continue
            try:
                path = routing.route_path(src, dst)
            except RoutingError:
                # pairs beyond a partial-coverage policy's budget are
                # reported by its coverage metric, not counted as detours
                continue
            total += 1
            extra = (len(path) - 1) - topology.distance(src, dst)
            if extra > 0:
                misrouted += 1
                extra_hops += extra
    return {
        "pairs": total,
        "detoured_pairs": misrouted,
        "detour_fraction": misrouted / total if total else 0.0,
        "avg_extra_hops": extra_hops / misrouted if misrouted else 0.0,
    }
