"""Struct-of-arrays storage for all dynamic simulation state.

Every quantity the engine mutates per cycle — virtual-channel flit
counts, eligibility times, wormhole links, round-robin arbiter counters,
per-channel busy lists and transfer counters — lives here, once, in
flat, index-addressed buffers, one per field.  A virtual channel has no
object: it is named by its *vid*, the index of its slot, and the
allocation and transfer loops, injection, reconfiguration, the obs
tracer and the deadlock detector all index these buffers by vid.  The
object layer (:class:`~repro.router.channels.PhysicalChannel`,
:class:`~repro.router.modules.Module`) is static structure only: a
channel knows its index and vid block, a module its arbiter slot, and
the store keeps no mirror of either.  Two pieces of dynamic
state live outside the store because they are ordered work-lists
rather than per-slot values: each module's ``waiting`` list of the
vids whose header awaits a route (membership *is* "this VC waits for a
route"), and the transfer stage's channel work-list with its
per-channel registration flags.

Plain lists, one copy
---------------------

The numeric fields are plain Python lists for the store's whole life:
the loops of :mod:`repro.sim.stages` index them directly, and indexing
a list costs about half as much as indexing an
``array.array``, which boxes every value it hands out.  Readers fetch a
field from the store at the start of each stage call; only
:meth:`SoAState.reset_dynamic` rebinds the fields, between runs.

Id assignment
-------------

* Physical channels get dense indices in construction order (the same
  order :class:`~repro.sim.network.SimNetwork` builds them in, which is
  the engine's service order); the channel count is ``len(rr)``.
* Each channel owns ``2 * num_classes`` consecutive *vid* slots starting
  at its ``vbase``: the first ``num_classes`` are its real virtual
  channels (``vid = vbase + vc_class``, so a vid's class is
  ``vid - vbase[chan_of[vid]]``), the second ``num_classes`` are
  *shadow source slots* — ``vid + num_classes`` is the processor
  streaming a message into injection VC ``vid``: injection sets its
  ``sent`` to 0, its ``msg_len`` to the message length and its
  ``head_time`` to -1, so the transfer stage's pull check is one
  uniform gather (``head_time[upstream[v]] <= now``) regardless of
  whether the supplier is a virtual channel or the processor.
* Slot 0 is a reserved sentinel (``head_time = BIG`` forever); the
  ``upstream`` array stores 0 for "no upstream", which makes the gather
  safe without a mask.

Field catalog (all indexed by vid unless noted)
-----------------------------------------------

``received`` / ``sent``
    flit counts: flits that entered / left the VC's buffer (for a
    shadow slot, ``sent`` is the flits the source has streamed).
``elig`` / ``head_time``
    per-VC eligibility ring of ``buffer_depth`` slots (``ring_base``
    points at each VC's ring): the buffered flits' eligibility times,
    stored flat and indexed by the flit counters — flit ``n`` of the
    worm sits at slot ``n % depth``, so the ring holds flits ``sent``
    .. ``received - 1`` and its head is slot ``sent % depth``.  Only the
    transfer loop pushes and pops it, and its buffer-space check bounds
    ``received - sent`` by the depth, so the ring never overflows.  (A
    consumption VC delivers each flit as it arrives: ``received ==
    sent``, its ring stays empty.)  ``head_time`` caches the ring head
    (``BIG`` when empty) so both the pull check and the allocation
    eligibility check are single loads.  For shadow slots ``head_time``
    is ``-1`` while the source still has flits and ``BIG`` once
    exhausted.
``upstream``
    vid of the flit supplier (0 = none; a shadow vid for sources).
``msg_len``
    length of the allocated message (0 = VC free; for a shadow slot,
    the length of the message being injected).
``chan_of`` / ``is_real``
    static: owning channel index / real-vs-shadow flag.

Per-channel (indexed by channel index): ``rr``, ``transfers``,
``busy_count`` + ``busy_slots`` (the busy list: channel ``ci``'s
allocated vids in allocation order at ``busy_slots[ci * num_classes:]``,
the only copy — :meth:`SoAState.busy_vids` reads it), ``depth``,
``kind_code``, ``free_mask`` (bitmask of free classes), ``vbase``.
Per-module: ``module_rr``.

Object references that cannot be numbers stay in parallel Python lists
indexed the same way: ``msg`` (the allocated ``Message``) and ``res``
(the waiting header's memoized ``Resolution``).
"""

from __future__ import annotations

from typing import List, Optional

#: sentinel eligibility time: "no flit will ever be ready here"
BIG = 1 << 60

#: channel-kind codes mirrored into ``kind_code`` (ChannelKind is an
#: Enum; the transfer loop compares plain integers)
KIND_INTERNODE = 0
KIND_INTERCHIP = 1
KIND_INJECTION = 2
KIND_CONSUMPTION = 3


class SoAState:
    """Flat buffers for one network's dynamic state (or one standalone
    channel's, when tests build a :class:`PhysicalChannel` without a
    network — the channel then owns a private store)."""

    __slots__ = (
        # per-vid dynamic
        "received",
        "sent",
        "elig",
        "head_time",
        "upstream",
        "msg_len",
        # per-vid static
        "ring_base",
        "chan_of",
        "is_real",
        # per-channel
        "rr",
        "transfers",
        "busy_count",
        "busy_slots",
        "depth",
        "kind_code",
        "free_mask",
        "vbase",
        # object references
        "msg",
        "res",
        # per-module
        "module_rr",
        # bookkeeping
        "num_classes",
    )

    def __init__(self) -> None:
        self.received = [0]  # slot 0 = sentinel
        self.sent = [0]
        self.elig = []
        self.head_time = [BIG]
        self.upstream = [0]
        self.msg_len = [0]
        self.ring_base = [0]
        self.chan_of = [-1]
        self.is_real = [0]

        self.rr = []
        self.transfers = []
        self.busy_count = []
        self.busy_slots = []
        self.depth = []
        self.kind_code = []
        self.free_mask = []
        self.vbase = []

        self.msg: List[Optional[object]] = [None]
        self.res: List[Optional[object]] = [None]

        self.module_rr = []

        #: virtual channels per physical channel (uniform within a store;
        #: fixed by the first channel added)
        self.num_classes = 0

    # ------------------------------------------------------------------
    # structural registration
    # ------------------------------------------------------------------
    def add_channel(self, num_classes: int, buffer_depth: int, kind_code: int) -> int:
        """Register a channel; allocates its vid block and returns its
        dense channel index (== position in construction order)."""
        if self.num_classes == 0:
            self.num_classes = num_classes
        elif num_classes != self.num_classes:
            raise ValueError(
                f"one SoA store holds channels of a single VC count; "
                f"got {num_classes} after {self.num_classes}"
            )
        index = len(self.rr)
        vbase = len(self.received)
        slots = 2 * num_classes  # real VCs then shadow source slots
        self.received.extend([0] * slots)
        self.sent.extend([0] * slots)
        self.head_time.extend([BIG] * slots)
        self.upstream.extend([0] * slots)
        self.msg_len.extend([0] * slots)
        ring_start = len(self.elig)
        self.elig.extend([0] * (num_classes * buffer_depth))
        for c in range(num_classes):
            self.ring_base.append(ring_start + c * buffer_depth)
        self.ring_base.extend([0] * num_classes)  # shadows have no ring
        self.chan_of.extend([index] * slots)
        self.is_real.extend([1] * num_classes)
        self.is_real.extend([0] * num_classes)
        self.msg.extend([None] * slots)
        self.res.extend([None] * slots)

        self.rr.append(0)
        self.transfers.append(0)
        self.busy_count.append(0)
        self.busy_slots.extend([0] * num_classes)
        self.depth.append(buffer_depth)
        self.kind_code.append(kind_code)
        self.free_mask.append((1 << num_classes) - 1)
        self.vbase.append(vbase)
        return index

    def add_module(self) -> int:
        """Register a router module; returns its dense module id (its
        round-robin arbiter counter lives in ``module_rr``)."""
        mid = len(self.module_rr)
        self.module_rr.append(0)
        return mid

    # ------------------------------------------------------------------
    # dynamic-state primitives (the engine's release paths, injection
    # and reconfiguration)
    # ------------------------------------------------------------------
    def reset_vc(self, vid: int) -> None:
        """Free real VC ``vid`` and clear its flit state; its shadow
        source slot stops supplying flits."""
        msg = self.msg
        if msg[vid] is not None:
            msg[vid] = None
            ci = self.chan_of[vid]
            self.free_mask[ci] |= 1 << (vid - self.vbase[ci])
        self.msg_len[vid] = 0
        shadow = vid + self.num_classes
        self.head_time[shadow] = BIG
        self.sent[shadow] = 0
        self.upstream[vid] = 0
        self.received[vid] = 0
        self.sent[vid] = 0
        self.head_time[vid] = BIG
        self.res[vid] = None

    def busy_vids(self, ci: int) -> List[int]:
        """Channel ``ci``'s busy list (a copy), in allocation order."""
        base = ci * self.num_classes
        return self.busy_slots[base : base + self.busy_count[ci]]

    def busy_add(self, ci: int, vid: int) -> None:
        base = ci * self.num_classes
        count = self.busy_count[ci]
        self.busy_slots[base + count] = vid
        self.busy_count[ci] = count + 1

    def release(self, ci: int, vid: int) -> None:
        """Free VC ``vid`` of channel ``ci`` and take it off the busy
        list, preserving the order of the rest; releasing a VC that is
        not on the list only resets it (release is idempotent)."""
        self.reset_vc(vid)
        base = ci * self.num_classes
        count = self.busy_count[ci]
        slots = self.busy_slots
        for i in range(base, base + count):
            if slots[i] == vid:
                slots[i : base + count - 1] = slots[i + 1 : base + count]
                self.busy_count[ci] = count - 1
                return

    def reset_dynamic(self) -> None:
        """Clear every dynamic field (network reuse across runs); static
        layout (rings, kinds, depths, vbase) survives."""
        nv = len(self.received)
        self.received = [0] * nv
        self.sent = [0] * nv
        self.upstream = [0] * nv
        self.msg_len = [0] * nv
        self.head_time = [BIG] * nv
        nc = len(self.rr)
        self.rr = [0] * nc
        self.transfers = [0] * nc
        self.busy_count = [0] * nc
        full = (1 << self.num_classes) - 1 if self.num_classes else 0
        self.free_mask = [full] * nc
        self.module_rr = [0] * len(self.module_rr)
        self.msg = [None] * nv
        self.res = [None] * nv
