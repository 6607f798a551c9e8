"""SoA store / object-layer consistency.

The struct-of-arrays refactor promises there is exactly ONE copy of the
dynamic state: the `VirtualChannel` / `PhysicalChannel` /
`MessageSource` objects keep none of it and read and write `SoAState`
buffers, which are plain lists for the store's whole life.  These tests
pin the aliasing contract from both sides — a write through either
layer must be visible through the other without any sync step — plus
the id-assignment invariants the transfer loop's indexing relies on.
Flits move only in the transfer loop, so the ring tests move them with
it (``tests/channel_helpers.py``).
"""

from repro.router.channels import (
    DEFAULT_BUFFER_DEPTH,
    ChannelKind,
    MessageSource,
    PhysicalChannel,
)
from repro.sim.soa import BIG, KIND_CONSUMPTION, KIND_INTERNODE, SoAState

from .channel_helpers import chain, fed_vc, linked_vc, transfer_stage, worm

#: every numeric field of the store
NUMERIC_FIELDS = (
    "received",
    "sent",
    "elig",
    "elig_head",
    "elig_count",
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


class FakeMessage:
    def __init__(self, length):
        self.length = length


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
    vc = a.vcs[1]
    vc.message = FakeMessage(3)
    a.busy_add(vc)
    vc.received = 2
    vc.sent = 1
    st.elig[st.ring_base[vc._vid]] = 7
    st.elig_count[vc._vid] = 1
    st.head_time[vc._vid] = 7
    a.rr = 5
    return st


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
        for vc in a.vcs + b.vcs:
            assert st.chan_of[vc._vid] == vc.channel.index
            assert st.is_real[vc._vid] == 1
            assert st.is_real[vc._vid + st.num_classes] == 0

    def test_message_setter_maintains_free_mask(self):
        ch = make_channel()
        st = ch._st
        assert st.free_mask[ch.index] == 0b11
        ch.vcs[0].message = FakeMessage(5)
        assert st.free_mask[ch.index] == 0b10
        assert st.msg_len[ch.vcs[0]._vid] == 5
        ch.vcs[0].message = None
        assert st.free_mask[ch.index] == 0b11
        assert st.msg_len[ch.vcs[0]._vid] == 0

    def test_eligibility_ring_mirrors_head_time(self):
        st = SoAState()
        feed, drain = chain(st)
        vc = fed_vc(feed, 0, worm(2))
        vid = vc._vid
        assert st.head_time[vid] == BIG
        fill = transfer_stage(feed)
        fill.run(4)  # header: eligible at 4 + 3
        fill.run(7)  # data flit: eligible at 7 + 2
        assert st.head_time[vid] == 7
        ring = st.ring_base[vid] + st.elig_head[vid]
        assert st.elig[ring : ring + 2] == [7, 9]
        pull = transfer_stage(drain)
        linked_vc(drain, 0, vc)
        pull.run(7)
        assert st.elig_count[vid] == 1
        assert st.head_time[vid] == 9
        pull.run(9)
        assert st.elig_count[vid] == 0
        assert st.head_time[vid] == BIG

    def test_source_shadow_slot_binding(self):
        ch = make_channel()
        vc = ch.vcs[1]
        st, vid = ch._st, vc._vid
        src = MessageSource(3)
        src.sent = 1
        vc.upstream = src
        shadow = vid + st.num_classes
        assert st.upstream[vid] == shadow
        assert st.sent[shadow] == 1
        assert st.head_time[shadow] == -1  # flits remain: always ready
        vc.message = worm(3)
        ch.busy_add(vc)
        stage = transfer_stage(ch)
        stage.run(0)
        stage.run(1)
        assert st.sent[shadow] == 3
        assert st.head_time[shadow] == BIG  # exhausted
        vc.upstream = None
        assert src.sent == 3  # unbind folds the count back onto the source

    def test_busy_list_mirrored_into_slots(self):
        ch = make_channel()
        st = ch._st
        for vc in (ch.vcs[1], ch.vcs[0]):
            vc.message = FakeMessage(2)
            ch.busy_add(vc)
        base = ch.index * 2 * st.num_classes
        assert st.busy_count[ch.index] == 2
        # order-preserving: the transfer loop's round-robin walks this
        assert st.busy_slots[base] == ch.vcs[1]._vid
        assert st.busy_slots[base + 1] == ch.vcs[0]._vid
        ch.release(ch.vcs[1])
        assert st.busy_count[ch.index] == 1
        assert st.busy_slots[base] == ch.vcs[0]._vid
        assert [vc.vc_class for vc in ch.busy] == [0]

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
        # every list slot but the object mirrors is a numeric field
        mirrors = {"msg", "res", "src_bind", "vc_obj", "channels"}
        lists = {
            name
            for name in SoAState.__slots__
            if isinstance(getattr(st, name, None), list) and name not in mirrors
        }
        assert lists == set(NUMERIC_FIELDS)

    def test_list_backed_after_reset(self):
        st = busy_store()
        st.reset_dynamic()
        assert field_types(st) == {list}
        assert st.received == [0] * len(st.received)
        assert st.head_time == [BIG] * len(st.head_time)


class TestStoreAliasing:
    """The object views and the store's list fields are one copy."""

    def test_store_fields_see_object_writes(self):
        ch = make_channel()
        vc = ch.vcs[0]
        st = ch._st
        vc.received = 4
        vc.sent = 1
        vc.message = worm(6)
        assert st.received[vc._vid] == 4
        assert st.sent[vc._vid] == 1
        assert st.msg_len[vc._vid] == 6

    def test_object_reads_see_store_writes(self):
        ch = make_channel()
        vc = ch.vcs[0]
        st = ch._st
        st.received[vc._vid] = 6
        st.sent[vc._vid] = 2
        assert vc.received == 6
        assert vc.sent == 2
        assert vc.received - vc.sent == 4  # buffered flits

    def test_reset_vc_restores_numeric_zeros(self):
        ch = make_channel()
        vc = ch.vcs[0]
        st, vid = ch._st, vc._vid
        vc.message = FakeMessage(2)
        vc.received = 2
        vc.sent = 1
        st.elig_count[vid], st.head_time[vid] = 1, 5
        st.res[vid] = object()
        st.reset_vc(vid)
        assert vc.message is None
        assert st.received[vid] == 0
        assert st.sent[vid] == 0
        assert st.head_time[vid] == BIG
        assert st.elig_count[vid] == 0
        assert st.res[vid] is None
        assert st.free_mask[ch.index] == 0b11
