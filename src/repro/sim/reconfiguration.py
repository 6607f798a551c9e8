"""Runtime fault injection, distributed detection, and staged
reconfiguration.

The paper's fault handling story (Section 3) is distributed: components
fail permanently and fail-stop; each node detects faults on its own
links via status signals and reports them to its neighbors; reports
propagate hop by hop; every node applies the local blocking rule to what
it has heard; and once every f-ring node knows its ring neighbors, the
fault-tolerant routing operates on the new fault knowledge.

:func:`apply_runtime_fault` models that transition on a live simulator
at two fidelities, selected by ``SimulationConfig.detection_latency``:

* **instantaneous** (``detection_latency == 0``) — the historical
  omniscient rebuild, bit-for-bit unchanged: victims are truncated, the
  static structures are swapped in one cycle, and every waiting header
  immediately routes on the new fault knowledge.
* **staged** (``detection_latency > 0``) — only the *explicitly* failed
  components die at the event cycle.  A :class:`TransitionWindow` opens:
  per-node knowledge converges over simulated cycles
  (:class:`repro.faults.DetectionProcess`), nodes route on a mixed
  stale/target relation (:class:`repro.core.StagedRoutingView`), nodes
  sacrificed by the blocking/convexification pipeline stay physically
  alive until the window closes, and worms that a stale node steers into
  a missing channel are truncated and surfaced as losses for the
  reliability layer to retransmit.  When the knowledge wavefront has
  converged everywhere (plus the two-step ring-formation protocol), the
  window finalizes: the target scenario is installed exactly as the
  instantaneous path would have.

Arbitrary fault patterns are no longer rejected: the degraded-mode
pipeline (:func:`repro.faults.degrade_fault_pattern`) convexifies any
node/link pattern with the paper's own blocking rule, box-fills
non-convex components, merges overlapping rings into enclosing blocks,
and reports which healthy nodes were sacrificed (``degraded_nodes``,
``convexify_steps``).  Only fatal geometry (disconnection, mesh boundary
faults, torus-spanning regions) still raises — before any state is
touched, so a rejected event leaves the simulation unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..core import StagedRoutingView
from ..core.routing_registry import build_routing, policy_spec
from ..faults import DetectionProcess, FaultSet, RingGeometryError, degrade_fault_pattern
from ..core.message_types import RoutingError
from ..router.channels import ChannelKind, PhysicalChannel
from ..router.messages import Message
from ..topology import BiLink, Coord, Direction, bisection_bandwidth


@dataclass
class ReconfigurationReport:
    """What one runtime fault event did to the network."""

    cycle: int
    new_node_faults: Tuple[Coord, ...]
    new_link_faults: Tuple[BiLink, ...]
    dropped_in_flight: int
    dropped_queued: int
    channels_removed: int
    #: message ids lost in transit (for reliability accounting / retry
    #: layers built on top); each id appears in at most one report even
    #: when several events share a transition window
    lost_message_ids: List[int] = field(default_factory=list)
    #: healthy nodes sacrificed by the degraded-mode pipeline to make the
    #: merged pattern a valid block fault set (beyond the requested ones)
    degraded_nodes: Tuple[Coord, ...] = ()
    #: extra convexification passes the degrade pipeline needed (0 when
    #: the blocked pattern was already convex and non-overlapping)
    convexify_steps: int = 0
    #: report-propagation latency per hop this event was staged with
    #: (0 = instantaneous historical behavior)
    detection_latency: int = 0
    #: cycle the reconfiguration completed (equals ``cycle`` for the
    #: instantaneous path; the window-close cycle for staged events; None
    #: while the transition window is still open)
    completed_cycle: Optional[int] = None
    #: ids of worms truncated *during* the transition window because a
    #: node with stale knowledge steered them into a dead component
    window_lost_ids: List[int] = field(default_factory=list)
    #: flight-recorder events for the worms this event lost (TraceEvents,
    #: oldest first); populated only when a tracer is attached
    trace_tail: List = field(default_factory=list)


def apply_runtime_fault(
    simulator,
    *,
    nodes: Iterable[Coord] = (),
    links: Iterable[Tuple[Coord, int, Direction]] = (),
) -> ReconfigurationReport:
    """Fail components on a running :class:`~repro.sim.engine.Simulator`.

    Fatal fault-model errors (disconnection, unsupported boundary
    geometry) are raised *before* touching any state, so a rejected event
    leaves the simulation unchanged.  Non-convex and overlapping patterns
    are accepted and degraded (see module docstring).
    """
    net = simulator.net
    topology = net.topology
    addition = FaultSet.of(topology, nodes=nodes, links=links)
    if addition.empty:
        raise ValueError("runtime fault event needs at least one node or link")
    window = simulator.reconfig
    base = window.scenario.faults if window is not None else net.scenario.faults
    merged = base.merged_with(addition)
    scenario, info, routing = _resolve_target(simulator, merged)

    latency = getattr(simulator.config, "detection_latency", 0)
    if latency <= 0 and window is None:
        return _apply_instant(simulator, scenario, info, routing)
    return _stage_event(simulator, addition, base, scenario, info, routing, latency)


def _resolve_target(simulator, merged: FaultSet):
    """Degrade the merged pattern and build its routing relation.

    The relation is rebuilt through the registry: the active policy's
    spec names what it reconfigures with — self-healing policies rebuild
    themselves on the new fault knowledge, fault-incapable ones (plain
    e-cube) hand over to the paper's scheme, the historical behavior.

    If the degraded scenario needs a second bank of virtual channel
    classes (layered overlapping rings) that the already-built network
    does not have, re-degrade with overlaps disallowed — the offending
    rings are then merged into one enclosing block instead."""
    net = simulator.net
    config = simulator.config
    target = policy_spec(config.effective_routing).reconfigure_target()
    scenario, info = degrade_fault_pattern(
        net.topology,
        merged,
        allow_overlapping_rings=config.allow_overlapping_rings,
    )
    routing = build_routing(target, net.topology, scenario, config)
    if routing.num_vc_classes > net.base_classes:
        scenario, info = degrade_fault_pattern(
            net.topology, merged, allow_overlapping_rings=False
        )
        routing = build_routing(target, net.topology, scenario, config)
    return scenario, info, routing


# ----------------------------------------------------------------------
# the one fault-event sequence
# ----------------------------------------------------------------------
def _retire(
    simulator, *, unwired, dead_links, doomed, include_misrouted: bool, install=None
) -> Tuple[List[Message], List[Message], int]:
    """Retire components from a live simulator — the one copy of the
    fault-event sequence, in its one safe order: pick the victims,
    truncate them, drop the orphaned queue entries, install the target
    ``(scenario, routing)`` if one is given, unwire, rebuild the transfer
    work-list, forget cached resolutions, and drop the arbitration state
    of removed modules.

    The callers differ only in *scope*: ``unwired`` nodes and
    ``dead_links`` leave the network now; traffic to or from a ``doomed``
    node is lost (a superset of ``unwired`` at a window close, whose
    explicitly failed nodes were unwired at their event cycle);
    ``include_misrouted`` also takes every worm caught mid-misroute (its
    f-ring may have changed under it).  docs/simulator.md tabulates the
    three scopes.

    Returns ``(victims, dropped, channels_removed)``; victims are killed
    and returned in ``msg_id`` order, so the TRUNCATE events of one fault
    event never depend on where the heap put the ``Message`` objects."""
    net = simulator.net
    dying_channels = _dying_channels(net, unwired, dead_links)
    victims = _pick_victims(net, dying_channels, doomed, include_misrouted=include_misrouted)
    for message in victims:
        _kill_worm(simulator, message)
    dropped = _drop_queued(simulator, doomed)
    if install is not None:
        _install_scenario(simulator, *install)
    _unwire(net, dying_channels, unwired)
    # dying channels left the channel list and killed worms freed their
    # VCs wholesale: rebuild the transfer work-list from scratch
    simulator.transfer.resync()
    _clear_cached_resolutions(net)
    # drop stale arbitration state owned by removed modules (dict, not
    # set: arbitration order must stay insertion-ordered / deterministic)
    simulator._modules_waiting = {
        module: None
        for module in simulator._modules_waiting
        if module.waiting and module.node_coord not in doomed
    }
    return victims, dropped, len(dying_channels)


def _open_report(
    simulator, dead_nodes, dead_links, retired, info, *, latency: int, completed_cycle
) -> ReconfigurationReport:
    """The report of one fault event, from what :func:`_retire` returned."""
    victims, dropped, channels_removed = retired
    lost_ids = [message.msg_id for message in victims]
    report = ReconfigurationReport(
        cycle=simulator.now,
        new_node_faults=tuple(sorted(dead_nodes)),
        new_link_faults=tuple(
            sorted(dead_links - _incident_links(simulator.net.topology, dead_nodes))
        ),
        dropped_in_flight=len(victims),
        dropped_queued=len(dropped),
        channels_removed=channels_removed,
        lost_message_ids=lost_ids,
        degraded_nodes=info.degraded_nodes,
        convexify_steps=info.convexify_steps,
        detection_latency=latency,
        completed_cycle=completed_cycle,
    )
    _record_trace_tail(simulator, report, lost_ids)
    return report


def _account_event(simulator, report, info, dead_nodes, retired) -> None:
    """Report one event's damage to the survivability accounting and any
    recovery layer (the paper leaves retransmission to "higher-level
    protocols"; repro.reliability is that protocol)."""
    victims, dropped, _channels_removed = retired
    simulator.fault_events += 1
    simulator.killed_in_flight += len(victims)
    simulator.killed_queued += len(dropped)
    simulator.degraded_nodes_total += len(info.degraded_nodes)
    simulator.convexify_steps_total += info.convexify_steps
    killed = victims + dropped
    if simulator.reliability is not None:
        simulator.reliability.on_fault(report, dead_nodes, killed)
    for hook in simulator.fault_hooks:
        hook(report, dead_nodes, killed)


# ----------------------------------------------------------------------
# instantaneous path (detection_latency == 0): the historical behavior
# ----------------------------------------------------------------------
def _apply_instant(simulator, scenario, info, routing) -> ReconfigurationReport:
    net = simulator.net
    topology = net.topology
    old = net.scenario.faults
    dead_nodes = scenario.faults.node_faults - old.node_faults
    dead_links = scenario.faults.all_faulty_links(topology) - old.all_faulty_links(topology)

    retired = _retire(
        simulator,
        unwired=dead_nodes,
        dead_links=dead_links,
        doomed=dead_nodes,
        include_misrouted=True,
        install=(scenario, routing),
    )
    # the traffic pattern must stop targeting dead nodes
    simulator.traffic.retarget(net.healthy)

    report = _open_report(
        simulator, dead_nodes, dead_links, retired, info, latency=0, completed_cycle=simulator.now
    )
    _account_event(simulator, report, info, dead_nodes, retired)
    _strict_check(simulator)
    return report


# ----------------------------------------------------------------------
# staged path (detection_latency > 0)
# ----------------------------------------------------------------------
class TransitionWindow:
    """One open reconfiguration transition.

    Holds the target scenario the network is converging to, the
    per-node knowledge schedule, and the reports of every fault event
    that landed while the window was open.  Installed as
    ``simulator.reconfig``; the engine ticks it every cycle and the
    allocation stage routes header resolutions through :meth:`resolve`
    so stale-knowledge routing errors become truncations instead of
    crashes."""

    def __init__(self, simulator, latency: int):
        self.sim = simulator
        self.latency = latency
        self.started = simulator.now
        #: the relation every node starts the window with
        self.stale_routing = simulator.net.routing
        self.detection = DetectionProcess(simulator.net.topology, latency)
        #: target of the convergence; replaced if another event lands
        self.scenario = None
        self.target_routing = None
        self.view: Optional[StagedRoutingView] = None
        self.finalize_cycle = simulator.now
        self.reports: List[ReconfigurationReport] = []
        #: explicitly failed nodes already physically removed mid-window
        self.unwired_nodes: Set[Coord] = set()
        #: physical link deaths so far (for mid-window bisection numbers)
        self.unwired_links: Set[BiLink] = set()

    # -- per-node knowledge --------------------------------------------
    def is_ready(self, coord: Coord) -> bool:
        """Whether ``coord`` routes on the target relation.  Condemned
        nodes never converge — they keep stale knowledge until they are
        switched off at the window close."""
        if coord in self.scenario.faults.node_faults:
            return False
        return self.detection.node_ready(coord, self.sim.now)

    def knowledge_lag(self, coord: Coord) -> int:
        """Cycles until ``coord`` has complete fault knowledge."""
        return self.detection.knowledge_lag(coord, self.sim.now)

    # -- allocation-stage fallback --------------------------------------
    def resolve(self, node, module, vc, routing, share_idle):
        """Resolve a waiting header during the window.  A stale node may
        steer a worm at a component that is already gone (RoutingError:
        the output channel was unwired) or at ring geometry that no
        longer resolves; fail-stop semantics truncate the worm.  Returns
        None when the worm was killed."""
        try:
            return node.resolve(module, vc.message, routing, share_idle)
        except (RoutingError, RingGeometryError):
            self.record_loss(vc.message)
            return None

    def record_loss(self, message: Message) -> None:
        sim = self.sim
        _kill_worm(sim, message)
        sim.killed_in_flight += 1
        sim.window_losses += 1
        report = self.reports[-1]
        report.dropped_in_flight += 1
        report.lost_message_ids.append(message.msg_id)
        report.window_lost_ids.append(message.msg_id)
        _record_trace_tail(sim, report, [message.msg_id])
        if sim.reliability is not None:
            sim.reliability.on_window_loss(message)

    # -- lifecycle ------------------------------------------------------
    def tick(self, now: int) -> None:
        if now >= self.finalize_cycle:
            self._finalize(now)

    def _finalize(self, now: int) -> None:
        """Close the window: switch off the condemned components and
        install the target scenario exactly as the instantaneous path
        would have."""
        sim = self.sim
        net = sim.net
        topology = net.topology
        scenario = self.scenario
        stale_faults = net.scenario.faults

        all_dead = scenario.faults.node_faults - stale_faults.node_faults
        dead_links = scenario.faults.all_faulty_links(topology) - stale_faults.all_faulty_links(
            topology
        )
        victims, dropped, _channels_removed = _retire(
            sim,
            unwired=all_dead - self.unwired_nodes,
            dead_links=dead_links,
            doomed=all_dead,
            include_misrouted=True,
            install=(scenario, self.target_routing),
        )
        sim.traffic.retarget(net.healthy)

        # fold the closing kills into the window's last report; every id
        # is counted exactly once (_kill_worm marks and _pick_victims
        # skips already-killed worms)
        lost_ids = [message.msg_id for message in victims]
        report = self.reports[-1]
        report.dropped_in_flight += len(victims)
        report.dropped_queued += len(dropped)
        report.lost_message_ids.extend(lost_ids)
        _record_trace_tail(sim, report, lost_ids)
        for open_report in self.reports:
            open_report.completed_cycle = now

        sim.killed_in_flight += len(victims)
        sim.killed_queued += len(dropped)
        sim.detection_cycles.append(now - self.started)
        sim.reconfig = None

        if sim.reliability is not None:
            sim.reliability.on_window_closed(
                all_dead,
                victims + dropped,
                dropped_in_flight=len(victims),
                dropped_queued=len(dropped),
            )
        _strict_check(sim)


def _stage_event(
    simulator, addition: FaultSet, base: FaultSet, scenario, info, routing, latency: int
) -> ReconfigurationReport:
    net = simulator.net
    topology = net.topology

    window = simulator.reconfig
    fresh = window is None
    if fresh:
        window = TransitionWindow(simulator, latency)

    # ------------------------------------------------------------------
    # only the explicitly failed components die physically now; nodes the
    # degrade pipeline condemned stay alive until the window closes
    # ------------------------------------------------------------------
    explicit_nodes = (
        addition.node_faults - net.scenario.faults.node_faults - window.unwired_nodes
    )
    explicit_links = addition.all_faulty_links(topology)
    retired = _retire(
        simulator,
        unwired=explicit_nodes,
        dead_links=explicit_links,
        doomed=explicit_nodes,
        include_misrouted=False,
    )
    window.unwired_nodes |= explicit_nodes
    window.unwired_links |= explicit_links | _incident_links(topology, explicit_nodes)
    net.healthy = [c for c in net.healthy if c not in explicit_nodes]
    net.bisection_bandwidth = bisection_bandwidth(
        topology,
        net.scenario.faults.all_faulty_links(topology) | window.unwired_links,
    )
    # the workload stops addressing doomed nodes at fault time (placement
    # is an application-level decision); *routing* knowledge stays stale
    simulator.traffic.retarget(
        [c for c in net.healthy if c not in scenario.faults.node_faults]
    )

    # ------------------------------------------------------------------
    # point the window at the (possibly revised) target and schedule the
    # knowledge wavefront of this event
    # ------------------------------------------------------------------
    window.scenario = scenario
    window.target_routing = routing
    if fresh:
        window.view = StagedRoutingView(window.stale_routing, routing, window.is_ready)
        net.routing = window.view
        simulator.reconfig = window
    else:
        window.view.target = routing

    converge = window.detection.announce(
        simulator.now,
        explicit_nodes=explicit_nodes,
        explicit_links=addition.link_faults,
        condemned_rounds=info.condemned_rounds,
        faults=scenario.faults,
    )
    window.finalize_cycle = max(window.finalize_cycle, converge)

    report = _open_report(
        simulator,
        scenario.faults.node_faults - base.node_faults,
        scenario.faults.all_faulty_links(topology) - base.all_faulty_links(topology),
        retired,
        info,
        latency=latency,
        completed_cycle=None,
    )
    window.reports.append(report)
    _account_event(simulator, report, info, frozenset(explicit_nodes), retired)
    return report


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _incident_links(topology, dead_nodes) -> Set[BiLink]:
    links: Set[BiLink] = set()
    for coord in dead_nodes:
        links.update(topology.incident_links(coord))
    return links


def _dying_channels(net, dead_nodes, dead_links) -> List[PhysicalChannel]:
    dying = []
    for channel in net.channels:
        if channel.src_node in dead_nodes or channel.dst_node in dead_nodes:
            dying.append(channel)
        elif channel.kind is ChannelKind.INTERNODE:
            if net.topology.hop(channel.src_node, channel.dim, channel.direction)[1] in dead_links:
                dying.append(channel)
    return dying


def _pick_victims(net, dying_channels, dead_nodes, *, include_misrouted: bool) -> List[Message]:
    """Worms truncated by a (partial) reconfiguration, in ``msg_id``
    order: everything holding a virtual channel on a dying channel,
    everything to or from a dead node, and — for full reconfigurations —
    everything caught mid-misroute (its f-ring may have changed under
    it).  Worms an earlier event in the same window already killed are
    never re-selected (exactly-once loss accounting)."""
    # keyed by id, never a set of Messages: those hash by address, and the
    # kill order (hence the trace) would follow the heap
    victims: Dict[int, Message] = {}
    for channel in dying_channels:
        for vc in list(channel.busy):
            message = vc.message
            if message is not None and not message.killed:
                victims[message.msg_id] = message
    for channel in net.channels:
        for vc in channel.busy:
            message = vc.message
            if message is None or message.killed:
                continue
            if message.dst in dead_nodes or message.src in dead_nodes:
                victims[message.msg_id] = message
            elif include_misrouted and message.route.is_misrouted:
                # conservative: its f-ring may have merged with the new
                # region; restart-from-scratch semantics are simplest and
                # match a fail-stop truncation
                victims[message.msg_id] = message
    return [victims[msg_id] for msg_id in sorted(victims)]


def _install_scenario(simulator, scenario, routing) -> None:
    """Swap the target scenario into the network's static structures."""
    net = simulator.net
    topology = net.topology
    net.scenario = scenario
    net.routing = routing
    net.healthy = [c for c in topology.nodes() if c not in scenario.faults.node_faults]
    net.bisection_bandwidth = bisection_bandwidth(
        topology, scenario.faults.all_faulty_links(topology)
    )

    ring_index = scenario.ring_index
    for channel in net.channels:
        if channel.kind is ChannelKind.INTERNODE:
            link = topology.hop(channel.src_node, channel.dim, channel.direction)[1]
            channel.on_ring = link in ring_index.link_owners
    for coord, node in net.nodes.items():
        node.on_ring = coord in ring_index.node_owners


def _clear_cached_resolutions(net) -> None:
    # stale route resolutions refer to the old fault view
    for module in net.modules:
        for vc in module.waiting:
            vc.cached_resolution = None


def _strict_check(simulator) -> None:
    """Re-verify the channel dependency graph is acyclic after a
    reconfiguration (the ``strict_invariants`` flag; campaign suites turn
    it on)."""
    if not getattr(simulator.config, "strict_invariants", False):
        return
    from ..analysis.cdg import assert_deadlock_free, routable_pairs

    # partial-coverage policies (table, avoid) reject some pairs from
    # initial_state; the acyclicity obligation covers the routable ones
    assert_deadlock_free(
        simulator.net, include_sharing=False, pairs=routable_pairs(simulator.net)
    )


def _record_trace_tail(simulator, report: ReconfigurationReport, msg_ids) -> None:
    """Attach the flight recorder's recent history for the lost worms to
    the report (no-op without a tracer)."""
    if simulator.tracer is None or not msg_ids:
        return
    report.trace_tail.extend(
        simulator.tracer.recorder.tail_for(msg_ids, limit=10 * len(msg_ids))
    )


def _kill_worm(simulator, message: Message) -> None:
    """Truncate and discard a worm: free every virtual channel it holds,
    remove any waiting-header entries, and fix the accounting.
    Idempotent: the ``killed`` mark makes a second kill (back-to-back
    events in one window) a no-op."""
    if message.killed:
        return
    message.killed = True
    if simulator.tracer is not None:
        simulator.tracer.on_truncate(simulator.now, message)
    net = simulator.net
    for channel in net.channels:
        for vc in list(channel.busy):
            if vc.message is message:
                module = channel.dst_module
                if module is not None and vc in module.waiting:
                    module.waiting.remove(vc)
                channel.release(vc)
    if message.injected_cycle is not None and message.consumed_cycle is None:
        simulator.in_flight -= 1
        if not message.exited_source and message.src in simulator.outstanding:
            simulator.outstanding[message.src] -= 1


def _drop_queued(simulator, dead_nodes) -> List[Message]:
    """Drop generated-but-not-injected messages at dead sources and those
    addressed to dead destinations; returns the dropped messages so the
    reliability layer can be told what it must recover."""
    dropped: List[Message] = []
    for coord, queue in simulator.queues.items():
        if coord in dead_nodes:
            dropped.extend(queue)
            queue.clear()
            continue
        keep = [m for m in queue if m.dst not in dead_nodes]
        if len(keep) != len(queue):
            dropped.extend(m for m in queue if m.dst in dead_nodes)
            queue.clear()
            queue.extend(keep)
    for coord in dead_nodes:
        simulator._active_sources.discard(coord)
        simulator.queues.pop(coord, None)
        simulator.outstanding.pop(coord, None)
    return dropped


def _unwire(net, dying_channels, dead_nodes) -> None:
    """Remove dying channels from the simulation and dead nodes from the
    node map (a failed node 'simply stops sending signals on all of its
    outgoing channels')."""
    dying_set = set(map(id, dying_channels))
    for node in net.nodes.values():
        for module in node.modules:
            for key, channel in list(module.outputs.items()):
                if id(channel) in dying_set:
                    del module.outputs[key]
    net.channels = [ch for ch in net.channels if id(ch) not in dying_set]
    net.modules = [
        module
        for module in net.modules
        if module.node_coord not in dead_nodes
    ]
    for coord in list(net.nodes):
        if coord in dead_nodes:
            del net.nodes[coord]
