"""Builds a simulated network: node models wired by physical channels.

Faulty nodes get no router at all and faulty links no channels — a failed
component "simply ceases to work" (Section 3).  Channels whose links lie
on an f-ring are flagged so virtual channel sharing is disabled on them.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from ..core.routing_registry import build_routing
from ..faults import (
    DegradationInfo,
    FaultScenario,
    FaultSet,
    degrade_fault_pattern,
    paper_fault_scenario,
    validate_fault_pattern,
)
from ..router.channels import ChannelKind, PhysicalChannel
from ..router.modules import CrossbarNode, Module, NodeModel, PDRNode
from ..topology import (
    Coord,
    GridNetwork,
    bisection_bandwidth,
    make_network,
)
from .config import SimulationConfig
from .soa import SoAState


class SimNetwork:
    """All static structure of one simulation: topology, fault scenario,
    routing algorithm, node models, and physical channels."""

    def __init__(self, config: SimulationConfig):
        self.config = config
        self.topology: GridNetwork = make_network(config.topology, config.radix, config.dims)
        #: how the requested explicit pattern was degraded into a valid
        #: block pattern (None when no explicit faults were given)
        self.degradation: Optional[DegradationInfo] = None
        self.scenario = self._build_scenario()
        self.routing = self._build_routing()
        #: classes one protocol bank needs (the paper's 4 torus / 2 mesh)
        self.base_classes = max(config.required_vcs(), self.routing.num_vc_classes)
        #: total simulated classes per physical channel (all banks)
        self.num_classes = self.base_classes * config.protocol_classes

        faults = self.scenario.faults
        self.healthy: List[Coord] = [
            c for c in self.topology.nodes() if c not in faults.node_faults
        ]
        self.bisection_bandwidth = bisection_bandwidth(
            self.topology, faults.all_faulty_links(self.topology)
        )

        self.nodes: Dict[Coord, NodeModel] = {}
        #: the live channels, in index order (reconfiguration removes
        #: dead ones)
        self.channels: List[PhysicalChannel] = []
        #: by channel index, every channel ever built (never shrinks)
        self.channel_at: List[PhysicalChannel] = []
        #: by channel index, the router module whose input the channel
        #: feeds (None for consumption channels, which feed the
        #: processor sink).  It lives here, not on the channel, so
        #: modules and channels form no reference cycle and a dropped
        #: network is freed by reference counting alone
        self.feeds: List[Optional[Module]] = []
        self.modules: List[Module] = []
        #: struct-of-arrays store holding the dynamic channel/VC/module
        #: state; the channel/module objects keep no copy of it
        self.store = SoAState()
        #: ``(routing, sharing mode, table)``: header resolutions the
        #: allocation stage memoized for exactly that routing object.  They
        #: depend on static structure only, so the table outlives
        #: ``reset()`` and serves every run that reuses this network
        self.resolution_memo = (None, None, None)
        self._build_nodes()
        self._wire_channels()

    # ------------------------------------------------------------------
    def _build_scenario(self) -> FaultScenario:
        config = self.config
        topology = self.topology
        if config.faults is not None:
            # degraded mode: arbitrary patterns are convexified with the
            # paper's own blocking rule instead of rejected; on an input
            # the validator accepts this returns an identical scenario
            scenario, info = degrade_fault_pattern(
                topology,
                config.faults,
                allow_overlapping_rings=config.allow_overlapping_rings,
            )
            self.degradation = info
            return scenario
        if config.fault_percent == 0:
            return validate_fault_pattern(topology, FaultSet())
        return paper_fault_scenario(
            topology, config.fault_percent, random.Random(config.fault_seed)
        )

    def _build_routing(self):
        return build_routing(
            self.config.effective_routing, self.topology, self.scenario, self.config
        )

    def _build_nodes(self) -> None:
        config = self.config
        for coord in self.healthy:
            if config.router_model == "crossbar":
                node: NodeModel = CrossbarNode(
                    coord, self.topology, self.num_classes, self.base_classes
                )
            else:
                node = PDRNode(
                    coord,
                    self.topology,
                    self.num_classes,
                    self.base_classes,
                    fault_tolerant=config.modified_pdr,
                )
            node.on_ring = coord in self.scenario.ring_index.node_owners
            self.nodes[coord] = node
            for module in node.modules:
                module.adopt(self.store)
            self.modules.extend(node.modules)

    # ------------------------------------------------------------------
    def _new_channel(
        self, kind: ChannelKind, *, feeds: Optional[Module] = None, **kwargs
    ) -> PhysicalChannel:
        channel = PhysicalChannel(
            kind,
            self.num_classes,
            buffer_depth=self.config.buffer_depth,
            store=self.store,
            **kwargs,
        )
        # construction order == store index order == engine service order
        assert channel.index == len(self.channels)
        self.channels.append(channel)
        self.channel_at.append(channel)
        self.feeds.append(feeds)
        return channel

    def _wire_channels(self) -> None:
        faults = self.scenario.faults
        faulty_links = faults.all_faulty_links(self.topology)
        for coord, node in self.nodes.items():
            inject_module = node.injection_module()
            node.injection_channel = self._new_channel(
                ChannelKind.INJECTION,
                src_node=coord,
                dst_node=coord,
                feeds=inject_module,
                name=f"inject@{coord}",
            )
            last_module = node.modules[-1]
            delivery = self._new_channel(
                ChannelKind.CONSUMPTION,
                src_node=coord,
                dst_node=coord,
                name=f"deliver@{coord}",
            )
            last_module.outputs["deliver"] = delivery
            node.delivery_channel = delivery

            if isinstance(node, PDRNode):
                for module in node.modules:
                    for target in node.interchip_targets(module.dim_index):
                        channel = self._new_channel(
                            ChannelKind.INTERCHIP,
                            src_node=coord,
                            dst_node=coord,
                            feeds=node.modules[target],
                            name=f"chip{module.dim_index}->chip{target}@{coord}",
                        )
                        module.outputs[("chip", target)] = channel

        ring_links = self.scenario.ring_index.link_owners
        for coord, node in self.nodes.items():
            for (dim, direction, neighbor), link in zip(
                self.topology.adjacent(coord), self.topology.incident_links(coord)
            ):
                if neighbor in faults.node_faults or link in faulty_links:
                    continue
                dst_node = self.nodes[neighbor]
                dst_module = (
                    dst_node.modules[dim]
                    if isinstance(dst_node, PDRNode)
                    else dst_node.modules[0]
                )
                src_module = (
                    node.modules[dim] if isinstance(node, PDRNode) else node.modules[0]
                )
                channel = self._new_channel(
                    ChannelKind.INTERNODE,
                    src_node=coord,
                    dst_node=neighbor,
                    dim=dim,
                    direction=direction,
                    feeds=dst_module,
                    name=f"{coord}->DIM{dim}{direction.symbol}",
                )
                channel.on_ring = link in ring_links
                src_module.outputs[("node", dim, direction)] = channel

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all dynamic channel/module state (in-flight worms, header
        queues, round-robin pointers) so the network can be reused by a
        fresh :class:`~repro.sim.engine.Simulator` — e.g. across the load
        points of a sweep."""
        self.store.reset_dynamic()
        for module in self.modules:
            module.waiting.clear()

    # ------------------------------------------------------------------
    def describe(self) -> str:
        """One-line summary used by harness logs."""
        faults = self.scenario.faults
        return (
            f"{self.config.topology} {self.config.radix}^{self.config.dims}, "
            f"{self.config.router_model} ({self.config.timing.name}), "
            f"{self.num_classes} VCs, "
            f"{len(faults.node_faults)} node + {len(faults.link_faults)} link faults "
            f"({100 * faults.faulty_link_fraction(self.topology):.1f}% links), "
            f"bisection {self.bisection_bandwidth} flits/cycle"
        )
