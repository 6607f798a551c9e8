"""Unit tests for virtual/physical channel mechanics.

A virtual channel is its vid, a slot of the SoA store.  Flits move only
inside the engine's transfer loop, so these tests move them with it
(``tests/channel_helpers.py``) and read the store fields that loop
reads."""

from repro.router import ChannelKind, PhysicalChannel
from repro.sim.soa import BIG, SoAState

from .channel_helpers import allocate, chain, fed_vc, linked_vc, transfer_stage, worm


def make_channel(num_classes=4, depth=4):
    return PhysicalChannel(ChannelKind.INTERNODE, num_classes, buffer_depth=depth)


class TestVirtualChannel:
    def test_initial_state(self):
        channel = make_channel()
        st = channel._st
        vid = st.vbase[channel.index]
        assert st.msg[vid] is None and st.received[vid] == st.sent[vid] == 0
        assert st.received[vid] - st.sent[vid] == 0
        # the pull check the transfer loop makes: nothing is ever ready
        assert st.head_time[vid] > 100

    def test_space_respects_depth(self):
        st = SoAState()
        feed, drain = chain(st, depth=2)
        message = worm(4)
        vid = fed_vc(feed, 0, message)
        fill = transfer_stage(feed)
        for now in range(3):
            fill.run(now)
        # two flits fill the depth-2 buffer; the third is refused
        assert (st.received[vid], st.sent[vid]) == (2, 0)
        linked_vc(drain, 0, vid)
        transfer_stage(drain).run(3)  # the header is eligible at 0 + 3
        assert st.sent[vid] == 1
        fill.run(4)
        assert st.received[vid] == 3

    def test_eligibility_ordering(self):
        st = SoAState()
        feed, drain = chain(st)
        up = fed_vc(feed, 1, worm(2))
        fill = transfer_stage(feed)
        fill.run(7)  # header: eligible at 7 + 3
        fill.run(10)  # data flit: eligible at 10 + 2
        assert st.received[up] - st.sent[up] == 2
        assert st.head_time[up] == 10
        down = linked_vc(drain, 1, up)
        pull = transfer_stage(drain)
        pull.run(9)
        assert (st.received[down], st.sent[up]) == (0, 0)
        pull.run(10)
        assert (st.received[down], st.sent[up]) == (1, 1)
        assert st.head_time[up] == 12
        pull.run(11)
        assert (st.received[down], st.sent[up]) == (1, 1)
        pull.run(12)
        assert st.received[down] == 2
        # the tail left: the drained VC is released
        assert st.msg[up] is None and st.head_time[up] == BIG

    def test_reset_clears_everything(self):
        channel = make_channel()
        st = channel._st
        vid = fed_vc(channel, 2, worm(5))
        shadow = st.upstream[vid]
        st.received[vid], st.sent[vid], st.sent[shadow] = 5, 3, 5
        st.head_time[vid] = 1
        st.res[vid] = object()
        st.reset_vc(vid)
        assert st.msg[vid] is None and st.received[vid] == st.sent[vid] == 0
        assert st.received[vid] - st.sent[vid] == 0 and st.head_time[vid] == BIG
        assert st.res[vid] is None and st.upstream[vid] == 0
        # the shadow slot stops supplying flits
        assert st.head_time[shadow] == BIG and st.sent[shadow] == 0


class TestMessageSource:
    def test_supplies_exactly_length_flits(self):
        feed = make_channel()
        vid = fed_vc(feed, 0, worm(3))
        st = feed._st
        shadow = st.upstream[vid]
        assert shadow == vid + st.num_classes
        assert st.head_time[shadow] <= 0  # ready at once
        stage = transfer_stage(feed)
        for now in range(5):
            stage.run(now)
        assert st.received[vid] == 3
        assert st.sent[shadow] == 3
        assert st.head_time[shadow] == BIG  # exhausted


class TestPhysicalChannel:
    def test_one_vc_per_class(self):
        channel = make_channel(num_classes=4)
        st = channel._st
        vb = st.vbase[channel.index]
        # class c is vid vbase + c: every class is one store slot
        assert [channel.free_vc((c,)) - vb for c in range(4)] == [0, 1, 2, 3]
        assert all(st.chan_of[vb + c] == channel.index for c in range(4))

    def test_free_vc_preference_order(self):
        channel = make_channel()
        vb = channel._st.vbase[channel.index]
        assert channel.free_vc((2, 0)) == vb + 2
        allocate(channel, 2, worm(2))
        assert channel.free_vc((2, 0)) == vb + 0
        allocate(channel, 0, worm(2))
        assert channel.free_vc((2, 0)) is None

    def test_release_removes_from_busy(self):
        channel = make_channel()
        st, ci = channel._st, channel.index
        vid = allocate(channel, 1, worm(2))
        assert st.busy_vids(ci) == [vid]
        st.release(ci, vid)
        assert st.msg[vid] is None and vid not in st.busy_vids(ci)
        assert channel.free_vc((1,)) == vid

    def test_release_idempotent(self):
        channel = make_channel()
        st, ci = channel._st, channel.index
        vid = st.vbase[ci] + 1
        st.release(ci, vid)
        st.release(ci, vid)
        assert vid not in st.busy_vids(ci)
