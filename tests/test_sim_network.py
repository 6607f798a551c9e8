"""Unit tests for network construction and wiring."""

import re

import pytest

from repro.faults import FaultSet
from repro.router import ChannelKind
from repro.sim import SimulationConfig, SimNetwork
from repro.topology import Torus


def build(**kwargs):
    defaults = dict(topology="torus", radix=8, dims=2)
    defaults.update(kwargs)
    return SimNetwork(SimulationConfig(**defaults))


class TestFaultFreeWiring:
    def test_channel_counts_pdr_torus(self):
        net = build()
        kinds = {}
        for channel in net.channels:
            kinds[channel.kind] = kinds.get(channel.kind, 0) + 1
        assert kinds[ChannelKind.INJECTION] == 64
        assert kinds[ChannelKind.CONSUMPTION] == 64
        assert kinds[ChannelKind.INTERNODE] == 4 * 64  # 2 dims x 2 dirs
        assert kinds[ChannelKind.INTERCHIP] == 2 * 64  # 0->1 and 1->0

    def test_channel_counts_crossbar(self):
        net = build(router_model="crossbar")
        assert all(ch.kind is not ChannelKind.INTERCHIP for ch in net.channels)
        assert len(net.modules) == 64

    def test_pdr_3d_interchip_count(self):
        net = build(radix=4, dims=3)
        interchip = [c for c in net.channels if c.kind is ChannelKind.INTERCHIP]
        assert len(interchip) == 6 * 64  # each of 3 chips drives +1 and +2

    def test_baseline_pdr_chain_only(self):
        net = build(fault_tolerant=False, routing_algorithm="ecube")
        interchip = [c for c in net.channels if c.kind is ChannelKind.INTERCHIP]
        assert len(interchip) == 1 * 64  # only 0 -> 1

    def test_vc_counts(self):
        assert build().num_classes == 4
        assert build(topology="mesh").num_classes == 2
        assert build(fault_tolerant=False, routing_algorithm="ecube").num_classes == 2
        assert (
            build(topology="mesh", fault_tolerant=False, routing_algorithm="ecube").num_classes
            == 1
        )
        assert build(num_vcs=6).num_classes == 6

    def test_bisection_bandwidth(self):
        assert build().bisection_bandwidth == 2 * 2 * 8
        assert build(topology="mesh").bisection_bandwidth == 2 * 8


class TestFaultyWiring:
    def _faulty_net(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(4, 4)])
        return build(faults=fs)

    def test_faulty_node_has_no_router(self):
        net = self._faulty_net()
        assert (4, 4) not in net.nodes
        assert len(net.nodes) == 63

    def test_no_channels_touch_faulty_node(self):
        net = self._faulty_net()
        for channel in net.channels:
            assert channel.src_node != (4, 4)
            assert channel.dst_node != (4, 4)

    def test_ring_channels_flagged(self):
        net = self._faulty_net()
        ring_channels = [c for c in net.channels if c.on_ring]
        # 12 perimeter links (8-node ring), 2 unidirectional channels each
        assert len(ring_channels) == 16
        assert all(c.kind is ChannelKind.INTERNODE for c in ring_channels)

    def test_ring_nodes_flagged(self):
        net = self._faulty_net()
        assert net.nodes[(3, 3)].on_ring
        assert not net.nodes[(0, 0)].on_ring

    def test_faulty_link_removes_both_channels(self):
        t = Torus(8, 2)
        from repro.topology import Direction

        fs = FaultSet.of(t, links=[((2, 2), 0, Direction.POS)])
        net = build(faults=fs)
        for channel in net.channels:
            if channel.kind is ChannelKind.INTERNODE and channel.dim == 0:
                assert {channel.src_node, channel.dst_node} != {(2, 2), (3, 2)}

    def test_bisection_bandwidth_reduced_by_cut_faults(self):
        t = Torus(8, 2)
        from repro.topology import Direction

        fs = FaultSet.of(t, links=[((3, 5), 0, Direction.POS)])  # on the cut
        net = build(faults=fs)
        assert net.bisection_bandwidth == 2 * 2 * 8 - 2

    def test_ecube_with_faults_rejected(self):
        t = Torus(8, 2)
        fs = FaultSet.of(t, nodes=[(4, 4)])
        with pytest.raises(ValueError):
            build(faults=fs, fault_tolerant=False, routing_algorithm="ecube")


def _below_minimum(field, value):
    """``value`` is the greatest one ``field`` cannot run with; one more
    is runnable."""
    return pytest.param(
        {field: value},
        f"{field} must be at least {value + 1}",
        {field: value + 1},
        id=f"{field}-{value}",
    )


#: ``(fields, the start of the error, the nearest runnable fields)``:
#: each config was once admitted and then raised inside a worker
#: (``batches=0`` divided by zero; ``radix=1`` and ``dims=0`` built no
#: network; no traffic pattern, bit-reversal permutation, orientation
#: policy or PDR node could be built for the last four) or "ran" to a
#: cached result with nothing delivered
UNRUNNABLE = [
    _below_minimum("radix", 1),
    _below_minimum("dims", 0),
    _below_minimum("num_vcs", 0),
    _below_minimum("buffer_depth", 0),
    _below_minimum("protocol_classes", 0),
    _below_minimum("message_length", 1),
    _below_minimum("injection_limit", 0),
    _below_minimum("measure_cycles", -1),
    _below_minimum("batches", 0),
    _below_minimum("deadlock_threshold", 0),
    _below_minimum("detection_latency", -1),
    pytest.param(
        {"traffic": "nonsense"}, "traffic must be one of", {"traffic": "hotspot"},
        id="traffic-nonsense",
    ),
    pytest.param(
        {"traffic": "bit-reversal", "radix": 6},
        "traffic 'bit-reversal' needs a power-of-two node count",
        {"traffic": "bit-reversal", "radix": 8},
        id="traffic-bit-reversal-radix-6",
    ),
    pytest.param(
        {"orientation_policy": "sideways"},
        "orientation_policy must be one of",
        {"orientation_policy": "balanced"},
        id="orientation_policy-sideways",
    ),
    pytest.param(
        {"dims": 5},
        "dims 5 is beyond the modified PDR organization",
        {"dims": 5, "router_model": "crossbar"},
        id="dims-5-pdr",
    ),
]

#: the admission cases, ``(fields, the start of the error)``: a served
#: root must answer each with a 400
INADMISSIBLE = [
    pytest.param(*case.values[:2], id=case.id)
    for case in UNRUNNABLE
    if case.id
    in {
        "batches-0",
        "radix-1",
        "traffic-nonsense",
        "traffic-bit-reversal-radix-6",
        "orientation_policy-sideways",
        "dims-5-pdr",
    }
]


class TestConfigValidation:
    def test_unknown_topology(self):
        with pytest.raises(ValueError):
            SimulationConfig(topology="ring")

    def test_unknown_router(self):
        with pytest.raises(ValueError):
            SimulationConfig(router_model="clos")

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            SimulationConfig(rate=1.5)

    def test_tiny_message_rejected(self):
        with pytest.raises(ValueError):
            SimulationConfig(message_length=1)

    @pytest.mark.parametrize("fields, message, runnable", UNRUNNABLE)
    def test_unrunnable_value_names_its_field(self, fields, message, runnable):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            SimulationConfig(**fields)
        SimulationConfig(**runnable)  # the nearest runnable config

    @pytest.mark.parametrize("fields, message", INADMISSIBLE)
    def test_unrunnable_value_refused_at_admission(self, fields, message):
        from repro.service.jobs import JobSpec, SpecError

        payload = {"kind": "sweep", "config": fields, "rates": [0.004]}
        with pytest.raises(SpecError, match=f"^bad config: {re.escape(message)}"):
            JobSpec.from_payload(payload)

    def test_describe_mentions_faults(self):
        net = build(fault_percent=5)
        text = net.describe()
        assert "torus" in text and "faults" in text
