"""Drive the engine's transfer loop over hand-built channels.

Virtual channels keep no flit state of their own: a flit enters a VC's
eligibility ring and leaves it only inside
:meth:`repro.sim.stages.TransferStage.run`.  Channel-level unit tests
therefore move flits with that loop, over a few channels that share one
store, instead of through a per-flit API of their own; and the watchdog
tests stall a simulation by writing the store fields that loop reads."""

from types import SimpleNamespace

from repro.router.channels import ChannelKind, MessageSource, PhysicalChannel
from repro.router.timing import PIPELINED
from repro.sim.soa import BIG
from repro.sim.stages import TransferStage


def transfer_stage(*channels):
    """The transfer stage serving exactly ``channels`` (one store, full
    scan), with no module waiting on them, no measurement and no
    tracer; ``run(now)`` moves at most one flit per channel."""
    sim = SimpleNamespace(
        net=SimpleNamespace(store=channels[0]._st, channels=list(channels)),
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


def fed_vc(channel, vc_class, message, source=None):
    """Allocate ``channel.vcs[vc_class]`` to ``message`` and bind
    ``source`` (a fresh :class:`MessageSource` by default) upstream of
    it, as injection does."""
    vc = channel.vcs[vc_class]
    vc.message = message
    vc.upstream = source if source is not None else MessageSource(message.length)
    channel.busy_add(vc)
    return vc


def linked_vc(channel, vc_class, upstream_vc):
    """Allocate ``channel.vcs[vc_class]`` to the worm holding
    ``upstream_vc`` and link it downstream of that VC, as header
    allocation does."""
    vc = channel.vcs[vc_class]
    vc.message = upstream_vc.message
    vc.upstream = upstream_vc
    channel.busy_add(vc)
    return vc


def chain(store, depth=4, num_classes=4):
    """An injection channel feeding an interchip channel, both in
    ``store``."""
    feed = PhysicalChannel(ChannelKind.INJECTION, num_classes, buffer_depth=depth, store=store)
    drain = PhysicalChannel(ChannelKind.INTERCHIP, num_classes, buffer_depth=depth, store=store)
    return feed, drain


def freeze_every_worm(sim):
    """Sabotage: empty every virtual channel's eligibility ring (the
    store fields the transfer and allocation loops read), so no flit can
    ever move again."""
    store = sim.net.store
    for channel in sim.net.channels:
        for vc in channel.vcs:
            store.head_time[vc._vid] = BIG
            store.elig_count[vc._vid] = 0
            if vc.message is not None:
                vc.received = max(vc.received, 1)
