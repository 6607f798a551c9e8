"""Unit tests for virtual/physical channel mechanics.

Flits move only inside the engine's transfer loop, so these tests move
them with it (``tests/channel_helpers.py``) and read the store fields
that loop reads."""

from repro.router import ChannelKind, MessageSource, PhysicalChannel
from repro.router.channels import VirtualChannel
from repro.sim.soa import BIG, SoAState

from .channel_helpers import chain, fed_vc, linked_vc, transfer_stage, worm


def make_channel(num_classes=4, depth=4):
    return PhysicalChannel(ChannelKind.INTERNODE, num_classes, buffer_depth=depth)


class TestVirtualChannel:
    def test_initial_state(self):
        vc = make_channel().vcs[0]
        st = vc._st
        assert vc.free and vc.received == vc.sent == 0
        assert st.elig_count[vc._vid] == 0
        # the pull check the transfer loop makes: nothing is ever ready
        assert st.head_time[vc._vid] > 100

    def test_space_respects_depth(self):
        feed, drain = chain(SoAState(), depth=2)
        message = worm(4)
        vc = fed_vc(feed, 0, message)
        fill = transfer_stage(feed)
        for now in range(3):
            fill.run(now)
        # two flits fill the depth-2 buffer; the third is refused
        assert (vc.received, vc.sent) == (2, 0)
        linked_vc(drain, 0, vc)
        transfer_stage(drain).run(3)  # the header is eligible at 0 + 3
        assert vc.sent == 1
        fill.run(4)
        assert vc.received == 3

    def test_eligibility_ordering(self):
        st = SoAState()
        feed, drain = chain(st)
        up = fed_vc(feed, 1, worm(2))
        fill = transfer_stage(feed)
        fill.run(7)  # header: eligible at 7 + 3
        fill.run(10)  # data flit: eligible at 10 + 2
        assert st.elig_count[up._vid] == 2
        assert st.head_time[up._vid] == 10
        down = linked_vc(drain, 1, up)
        pull = transfer_stage(drain)
        pull.run(9)
        assert (down.received, up.sent) == (0, 0)
        pull.run(10)
        assert (down.received, up.sent) == (1, 1)
        assert st.head_time[up._vid] == 12
        pull.run(11)
        assert (down.received, up.sent) == (1, 1)
        pull.run(12)
        assert down.received == 2
        # the tail left: the drained VC is released
        assert up.free and st.head_time[up._vid] == BIG

    def test_reset_clears_everything(self):
        vc = make_channel().vcs[2]
        st, vid = vc._st, vc._vid
        vc.message = worm(5)
        vc.received, vc.sent = 5, 3
        st.elig_count[vid], st.head_time[vid] = 2, 1
        st.res[vid] = object()
        vc.reset()
        assert vc.free and vc.received == vc.sent == 0
        assert st.elig_count[vid] == 0 and st.head_time[vid] == BIG
        assert st.res[vid] is None


class TestMessageSource:
    def test_supplies_exactly_length_flits(self):
        feed = make_channel()
        source = MessageSource(3)
        vc = fed_vc(feed, 0, worm(3), source)
        st = feed._st
        shadow = st.upstream[vc._vid]
        assert st.head_time[shadow] <= 0  # ready at once
        stage = transfer_stage(feed)
        for now in range(5):
            stage.run(now)
        assert vc.received == 3
        assert source.sent == 3
        assert st.head_time[shadow] == BIG  # exhausted


class TestPhysicalChannel:
    def test_one_vc_per_class(self):
        channel = make_channel(num_classes=4)
        assert [vc.vc_class for vc in channel.vcs] == [0, 1, 2, 3]
        assert all(type(vc) is VirtualChannel for vc in channel.vcs)

    def test_free_vc_preference_order(self):
        channel = make_channel()
        assert channel.free_vc((2, 0)).vc_class == 2
        channel.vcs[2].message = object()
        assert channel.free_vc((2, 0)).vc_class == 0
        channel.vcs[0].message = object()
        assert channel.free_vc((2, 0)) is None

    def test_release_removes_from_busy(self):
        channel = make_channel()
        vc = channel.vcs[1]
        vc.message = object()
        channel.busy_add(vc)
        assert channel.busy == [vc]
        channel.release(vc)
        assert vc.free and vc not in channel.busy

    def test_release_idempotent(self):
        channel = make_channel()
        vc = channel.vcs[1]
        channel.release(vc)
        channel.release(vc)
        assert vc not in channel.busy
