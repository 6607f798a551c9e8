"""SoA store / object-layer consistency.

The struct-of-arrays refactor promises there is exactly ONE copy of the
dynamic state: a virtual channel is a vid, a slot of `SoAState`'s plain
lists, and the static `PhysicalChannel` objects read those lists and
keep no copy.  These tests pin that contract — what injection writes
lands in the fields the transfer loop reads, and what a channel reports
is read from the store without any sync step — plus the id-assignment
invariants the transfer loop's indexing relies on.  Flits move only in
the transfer loop, so the ring tests move them with it
(``tests/channel_helpers.py``).
"""

from repro.router.channels import ChannelKind, PhysicalChannel
from repro.sim import SimulationConfig, Simulator
from repro.sim.soa import BIG, KIND_CONSUMPTION, KIND_INTERNODE, SoAState

from .channel_helpers import allocate, chain, fed_vc, linked_vc, transfer_stage, worm

#: every numeric field of the store
NUMERIC_FIELDS = (
    "received",
    "sent",
    "elig",
    "head_time",
    "upstream",
    "msg_len",
    "ring_base",
    "chan_of",
    "rr",
    "transfers",
    "busy_count",
    "busy_slots",
    "depth",
    "free_mask",
    "vbase",
    "module_rr",
    "is_real",
    "kind_code",
)


def make_channel(store=None, num_classes=2, kind=ChannelKind.INTERNODE):
    return PhysicalChannel(kind, num_classes, name="t", store=store)


def field_types(store):
    return {type(getattr(store, name)) for name in NUMERIC_FIELDS}


def busy_store():
    """A two-channel store with a worm in flight, so the dynamic fields
    hold values other than their reset ones."""
    st = SoAState()
    a = make_channel(st)
    make_channel(st, kind=ChannelKind.CONSUMPTION)
    vid = allocate(a, 1, worm(3))
    st.received[vid] = 2
    st.sent[vid] = 1
    # one buffered flit, flit 1: the ring head is slot ``sent % depth``
    st.elig[st.ring_base[vid] + st.sent[vid] % st.depth[a.index]] = 7
    st.head_time[vid] = 7
    st.rr[a.index] = 5
    return st


def injected(length=6):
    """A 4x4 torus simulator one cycle after injecting one message at
    (0, 0): returns the simulator, the message and its injection VC."""
    cfg = SimulationConfig(topology="torus", radix=4, dims=2, rate=0.0,
                           message_length=length, warmup_cycles=0, measure_cycles=10)
    sim = Simulator(cfg)
    message = sim.inject_message((0, 0), (2, 0))
    sim.step()
    ci = sim.net.nodes[(0, 0)].injection_channel.index
    (vid,) = sim.net.store.busy_vids(ci)
    return sim, message, vid


class TestObjectLayerInvariants:
    """The invariants the engine's index arithmetic relies on."""

    def test_sentinel_slot(self):
        ch = make_channel()
        st = ch._st
        assert st.head_time[0] == BIG
        assert st.upstream[0] == 0
        # the mask-free gather the transfer stage does is safe on the
        # sentinel: head_time[upstream[0]] is BIG, never "ready"
        assert st.head_time[st.upstream[0]] == BIG

    def test_vid_assignment(self):
        st = SoAState()
        a = make_channel(st)
        b = make_channel(st)
        assert b.index == a.index + 1
        # 2 * num_classes slots per channel: real VCs then shadow slots
        assert st.vbase[b.index] - st.vbase[a.index] == 2 * 2
        for channel in (a, b):
            for vc_class in range(st.num_classes):
                vid = st.vbase[channel.index] + vc_class
                assert st.chan_of[vid] == channel.index
                assert vid - st.vbase[st.chan_of[vid]] == vc_class
                assert st.is_real[vid] == 1
                assert st.is_real[vid + st.num_classes] == 0

    def test_message_setter_maintains_free_mask(self):
        """Injection clears the allocated class's free bit and records the
        length; the release at the tail restores both."""
        sim, message, vid = injected()
        st = sim.net.store
        ci = st.chan_of[vid]
        full = (1 << st.num_classes) - 1
        assert st.msg[vid] is message and st.msg_len[vid] == message.length
        assert st.free_mask[ci] == full & ~(1 << (vid - st.vbase[ci]))
        while sim.in_flight:
            sim.step()
        assert st.msg[vid] is None and st.msg_len[vid] == 0
        assert st.free_mask == [full] * len(st.rr)

    def test_eligibility_ring_mirrors_head_time(self):
        st = SoAState()
        feed, drain = chain(st)
        vid = fed_vc(feed, 0, worm(2))
        assert st.head_time[vid] == BIG
        fill = transfer_stage(feed)
        fill.run(4)  # header: eligible at 4 + 3
        fill.run(7)  # data flit: eligible at 7 + 2
        assert st.head_time[vid] == 7
        ring = st.ring_base[vid] + st.sent[vid] % st.depth[feed.index]
        assert st.elig[ring : ring + 2] == [7, 9]
        pull = transfer_stage(drain)
        linked_vc(drain, 0, vid)
        pull.run(7)
        assert st.received[vid] - st.sent[vid] == 1
        assert st.head_time[vid] == 9
        pull.run(9)
        assert st.received[vid] - st.sent[vid] == 0
        assert st.head_time[vid] == BIG

    def test_source_shadow_slot_binding(self):
        """Injection points the VC at its shadow slot, which supplies
        exactly the message's flits and is cleared by the release."""
        sim, message, vid = injected(length=3)
        st = sim.net.store
        shadow = vid + st.num_classes
        assert st.upstream[vid] == shadow
        assert st.msg_len[shadow] == 3
        # the cycle's transfer stage already pulled the header
        assert st.sent[shadow] == st.received[vid] == 1
        assert st.head_time[shadow] == -1  # flits remain: always ready
        sim.step()
        sim.step()
        assert st.sent[shadow] == 3
        assert st.head_time[shadow] == BIG  # exhausted
        while sim.in_flight:
            sim.step()
        assert st.upstream[vid] == 0 and st.sent[shadow] == 0

    def test_busy_list_mirrored_into_slots(self):
        ch = make_channel()
        st = ch._st
        vb = st.vbase[ch.index]
        for vc_class in (1, 0):
            allocate(ch, vc_class, worm(2))
        base = ch.index * st.num_classes
        assert st.busy_count[ch.index] == 2
        # order-preserving: the transfer loop's round-robin walks this
        assert st.busy_slots[base] == vb + 1
        assert st.busy_slots[base + 1] == vb + 0
        st.release(ch.index, vb + 1)
        assert st.busy_count[ch.index] == 1
        assert st.busy_slots[base] == vb + 0
        assert st.busy_vids(ch.index) == [vb + 0]

    def test_kind_codes_mirrored(self):
        st = SoAState()
        a = make_channel(st)
        b = make_channel(st, kind=ChannelKind.CONSUMPTION)
        assert st.kind_code[a.index] == KIND_INTERNODE
        assert st.kind_code[b.index] == KIND_CONSUMPTION


class TestRepresentationSwitch:
    """Every numeric field is a list, before and after a reset."""

    def test_list_backed_after_construction(self):
        st = busy_store()
        assert field_types(st) == {list}
        # every list slot but the object references is a numeric field
        references = {"msg", "res"}
        lists = {
            name
            for name in SoAState.__slots__
            if isinstance(getattr(st, name, None), list) and name not in references
        }
        assert lists == set(NUMERIC_FIELDS)

    def test_list_backed_after_reset(self):
        st = busy_store()
        st.reset_dynamic()
        assert field_types(st) == {list}
        assert st.received == [0] * len(st.received)
        assert st.head_time == [BIG] * len(st.head_time)


class TestStoreAliasing:
    """The channel objects and the store's list fields are one copy."""

    def test_store_fields_see_object_writes(self):
        """What the engine's injection writes is what the transfer loop
        reads: the header has crossed the injection channel."""
        sim, message, vid = injected()
        st = sim.net.store
        ci = st.chan_of[vid]
        channel = sim.net.nodes[(0, 0)].injection_channel
        assert channel.index == ci
        assert st.received[vid] == 1 and st.transfers[ci] == 1 == channel.transfers
        assert message.injected_cycle == 0

    def test_object_reads_see_store_writes(self):
        ch = make_channel()
        st = ch._st
        vb = st.vbase[ch.index]
        st.transfers[ch.index] = 6
        assert ch.transfers == 6
        st.msg[vb] = worm(2)
        assert ch.free_vc((0, 1)) == vb + 1
        st.msg[vb + 1] = worm(2)
        assert ch.free_vc((0, 1)) is None

    def test_reset_vc_restores_numeric_zeros(self):
        ch = make_channel()
        st = ch._st
        vid = allocate(ch, 0, worm(2))
        st.received[vid] = 2
        st.sent[vid] = 1
        st.head_time[vid] = 5
        st.res[vid] = object()
        st.reset_vc(vid)
        assert st.msg[vid] is None
        assert st.received[vid] == 0
        assert st.sent[vid] == 0
        assert st.head_time[vid] == BIG
        assert st.received[vid] - st.sent[vid] == 0
        assert st.res[vid] is None
        assert st.free_mask[ch.index] == 0b11
