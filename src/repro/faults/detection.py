"""Distributed fault detection and knowledge propagation (Section 3).

The paper's fault story is local: a node detects faults on its *own*
links through status signals, tells its neighbors, every node applies
the blocking rule to what it has heard so far, and once reports stop
changing the nodes around each block form its f-rings with a two-step
neighbor protocol.  :class:`DetectionProcess` models the timing of that
protocol over simulated cycles:

* **status-signal detection** — the healthy neighbors of an explicitly
  failed node (and the endpoints of a failed link) learn of it one
  report latency ``L`` after the failure;
* **iterated blocking** — a node condemned on round ``r`` of the
  blocking / convexification iteration (see
  :func:`repro.faults.generation.degrade_fault_pattern`) is announced by
  its neighbors ``r`` report rounds later, at ``T + L * (1 + r)``;
* **hop-by-hop propagation** — reports flood the surviving network one
  hop per ``L`` cycles, so a node ``h`` hops from the nearest witness
  has complete knowledge at ``T + L * (1 + h)`` (a multi-source shortest
  path over the target-healthy graph);
* **ring formation** — after its knowledge stops changing, a node takes
  part in the two-step f-ring neighbor identification protocol, adding
  ``2 L`` before the new routing relation is in force everywhere.

The per-node ``ready`` cycle is what
:class:`repro.sim.reconfiguration.TransitionWindow` consults to decide
which routing view (stale or target) a node resolves against, and the
``converge_cycle`` is when the window closes.  ``latency == 0``
collapses everything to the instantaneous global rebuild the simulator
always had.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Tuple

from ..topology import BiLink, Coord, GridNetwork
from .fault_model import FaultSet


class DetectionProcess:
    """Per-node fault-knowledge convergence times for one or more fault
    events, over the target-healthy graph."""

    def __init__(self, network: GridNetwork, latency: int):
        if latency < 0:
            raise ValueError("detection latency must be non-negative")
        self.network = network
        self.latency = latency
        #: coordinate -> earliest cycle with complete knowledge of every
        #: announced event (absent = already complete)
        self.ready: Dict[Coord, int] = {}
        #: cycle at which every surviving node is ready and the two-step
        #: ring-formation protocol has run
        self.converge_cycle = 0

    # ------------------------------------------------------------------
    def announce(
        self,
        now: int,
        *,
        explicit_nodes: Iterable[Coord],
        explicit_links: Iterable[BiLink],
        condemned_rounds: Dict[Coord, int],
        faults: FaultSet,
    ) -> int:
        """Schedule the knowledge wavefront of one fault event.

        ``faults`` is the *target* fault set (after degradation), which
        defines the surviving graph the reports travel on.  Returns the
        updated :attr:`converge_cycle`.
        """
        latency = self.latency
        dead_nodes = faults.node_faults
        dead_links = faults.all_faulty_links(self.network)

        # seed witnesses with the cycle they learn of their piece of the event
        seeds: Dict[Coord, int] = {}

        def witness(coord: Coord, cycle: int) -> None:
            if coord in dead_nodes:
                return
            previous = seeds.get(coord)
            if previous is None or cycle < previous:
                seeds[coord] = cycle

        for node in explicit_nodes:
            for _dim, _direction, other in self.network.neighbors(node):
                witness(other, now + latency)
        for link in explicit_links:
            witness(link.u, now + latency)
            witness(link.v, now + latency)
        for node, round_number in condemned_rounds.items():
            for _dim, _direction, other in self.network.neighbors(node):
                witness(other, now + latency * (1 + round_number))

        if not seeds:
            return self.converge_cycle

        # multi-source shortest completion time over the surviving graph
        finish: Dict[Coord, int] = {}
        heap: List[Tuple[int, Coord]] = [(cycle, coord) for coord, cycle in seeds.items()]
        heapq.heapify(heap)
        while heap:
            cycle, coord = heapq.heappop(heap)
            if coord in finish:
                continue
            finish[coord] = cycle
            for (_dim, _direction, other), link in zip(
                self.network.adjacent(coord), self.network.incident_links(coord)
            ):
                if other in finish or other in dead_nodes or link in dead_links:
                    continue
                heapq.heappush(heap, (cycle + latency, other))

        for coord, cycle in finish.items():
            if cycle > self.ready.get(coord, 0):
                self.ready[coord] = cycle
        event_converged = max(finish.values()) + 2 * latency
        if event_converged > self.converge_cycle:
            self.converge_cycle = event_converged
        return self.converge_cycle

    # ------------------------------------------------------------------
    def node_ready(self, coord: Coord, now: int) -> bool:
        """Whether ``coord`` has complete knowledge of every announced
        event at cycle ``now``."""
        return self.ready.get(coord, 0) <= now

    def knowledge_lag(self, coord: Coord, now: int) -> int:
        """Cycles until ``coord`` has complete fault knowledge (0 when it
        already does)."""
        return max(0, self.ready.get(coord, 0) - now)
