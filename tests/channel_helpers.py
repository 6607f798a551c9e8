"""Drive the engine's transfer loop over hand-built channels.

A virtual channel is a vid, a slot of the SoA store: a flit enters a
VC's eligibility ring and leaves it only inside
:meth:`repro.sim.stages.TransferStage.run`.  Channel-level unit tests
therefore allocate VCs by writing the store fields injection and header
allocation write, and move flits with that loop over a few channels
that share one store; the watchdog tests stall a simulation by writing
the store fields that loop reads."""

from types import SimpleNamespace

from repro.router.channels import ChannelKind, PhysicalChannel
from repro.router.timing import PIPELINED
from repro.sim.soa import BIG
from repro.sim.stages import TransferStage


def transfer_stage(*channels):
    """The transfer stage serving exactly ``channels`` (one store, full
    scan), with no module waiting on them, no measurement and no
    tracer; ``run(now)`` moves at most one flit per channel."""
    store = channels[0]._st
    channel_at = [None] * len(store.rr)
    for channel in channels:
        channel_at[channel.index] = channel
    sim = SimpleNamespace(
        net=SimpleNamespace(
            store=store,
            channels=list(channels),
            channel_at=channel_at,
            feeds=[None] * len(store.rr),
        ),
        config=SimpleNamespace(timing=PIPELINED),
        _modules_waiting={},
        _on_consumed=lambda message: None,
        outstanding={},
        _active_sources=set(),
        tracer=None,
        allocation=SimpleNamespace(wake=lambda ci: None, _parked={}),
    )
    return TransferStage(sim, work_list=False)


def worm(length):
    """A message stand-in carrying what the transfer loop reads."""
    return SimpleNamespace(length=length, exited_source=True)


def allocate(channel, vc_class, message):
    """Allocate class ``vc_class`` of ``channel`` to ``message`` and put
    it on the channel's busy list, writing the store fields header
    allocation writes; returns the VC's vid."""
    st, ci = channel._st, channel.index
    vid = st.vbase[ci] + vc_class
    st.msg[vid] = message
    st.msg_len[vid] = message.length
    st.free_mask[ci] &= ~(1 << vc_class)
    st.busy_add(ci, vid)
    return vid


def fed_vc(channel, vc_class, message):
    """Allocate class ``vc_class`` of ``channel`` to ``message`` with the
    processor streaming it in through the VC's shadow slot, as
    injection does; returns the VC's vid."""
    st = channel._st
    vid = allocate(channel, vc_class, message)
    shadow = vid + st.num_classes
    st.sent[shadow] = 0
    st.msg_len[shadow] = message.length
    st.head_time[shadow] = -1
    st.upstream[vid] = shadow
    return vid


def linked_vc(channel, vc_class, upstream_vid):
    """Allocate class ``vc_class`` of ``channel`` to the worm holding VC
    ``upstream_vid`` and link it downstream of that VC, as header
    allocation does; returns the new VC's vid."""
    st = channel._st
    vid = allocate(channel, vc_class, st.msg[upstream_vid])
    st.upstream[vid] = upstream_vid
    return vid


def chain(store, depth=4, num_classes=4):
    """An injection channel feeding an interchip channel, both in
    ``store``."""
    feed = PhysicalChannel(ChannelKind.INJECTION, num_classes, buffer_depth=depth, store=store)
    drain = PhysicalChannel(ChannelKind.INTERCHIP, num_classes, buffer_depth=depth, store=store)
    return feed, drain


def freeze_every_worm(sim):
    """Sabotage: hide every virtual channel's ring head (``head_time``,
    the store field the transfer and allocation loops read), so no flit
    that is already buffered can ever move again."""
    store = sim.net.store
    for channel in sim.net.channels:
        vb = store.vbase[channel.index]
        for vid in range(vb, vb + store.num_classes):
            store.head_time[vid] = BIG
            if store.msg[vid] is not None:
                store.received[vid] = max(store.received[vid], 1)
