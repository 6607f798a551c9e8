"""Struct-of-arrays storage for all dynamic simulation state.

Every quantity the engine mutates per cycle — virtual-channel flit
counts, eligibility times, wormhole links, round-robin arbiter counters,
per-channel transfer counters — lives here in flat, index-addressed
buffers (stdlib ``array.array``, one array per field).  The object layer
(:class:`~repro.router.channels.VirtualChannel`,
:class:`~repro.router.channels.PhysicalChannel`,
:class:`~repro.router.channels.MessageSource`,
:class:`~repro.router.modules.Module`) is a set of thin views over these
buffers, so every existing caller — the scalar stages, reconfiguration,
the obs tracer, the deadlock detector, metrics — keeps working
unchanged, while the adaptive core's batched pass (:mod:`repro.sim.vector`)
maps the same buffers as zero-copy numpy arrays and processes the busy set
with batched array ops.

Id assignment
-------------

* Physical channels get dense indices in construction order (the same
  order :class:`~repro.sim.network.SimNetwork` builds them in, which is
  the engine's service order).
* Each channel owns ``2 * num_classes`` consecutive *vid* slots starting
  at its ``vbase``: the first ``num_classes`` are its real virtual
  channels (``vid = vbase + vc_class``), the second ``num_classes`` are
  *shadow source slots* — ``vid + num_classes`` mirrors the
  :class:`MessageSource` feeding ``vid`` while a message is being
  injected, so the transfer stage's pull check is one uniform gather
  (``head_time[upstream[v]] <= now``) regardless of whether the supplier
  is a virtual channel or the processor.
* Slot 0 is a reserved sentinel (``head_time = BIG`` forever); the
  ``upstream`` array stores 0 for "no upstream", which makes the gather
  safe without a mask.

Field catalog (all indexed by vid unless noted)
-----------------------------------------------

``received`` / ``sent``
    flit counts (the wormhole state previously on ``VirtualChannel``).
``elig`` / ``elig_head`` / ``elig_count`` / ``head_time``
    per-VC eligibility ring of ``buffer_depth`` slots (``ring_base``
    points at each VC's ring): the deque of eligibility times, stored
    flat.  ``head_time`` caches the ring head (``BIG`` when empty) so
    both the pull check and the allocation eligibility check are single
    loads.  For shadow slots ``head_time`` is ``-1`` while the source
    still has flits and ``BIG`` once exhausted.
``upstream``
    vid of the flit supplier (0 = none; a shadow vid for sources).
``msg_len``
    length of the allocated message (0 = VC free).
``waiting_route``
    1 while the VC holds an unrouted header.
``chan_of`` / ``is_real``
    static: owning channel index / real-vs-shadow flag.

Per-channel (indexed by channel index): ``rr``, ``transfers``,
``busy_count`` + ``busy_slots`` (the busy list, order-preserving),
``depth``, ``kind_code``, ``free_mask`` (bitmask of free classes),
``vbase``.  Per-module: ``module_rr``.

Object references that cannot be arrays (``Message``, ``Resolution``,
``MessageSource``, the VC views themselves) stay in parallel Python
lists indexed the same way.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

#: sentinel eligibility time: "no flit will ever be ready here"
BIG = 1 << 60

#: channel-kind codes mirrored into ``kind_code`` (ChannelKind is an
#: Enum; the batched pass needs plain integers)
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
        "elig_head",
        "elig_count",
        "head_time",
        "upstream",
        "msg_len",
        "waiting_route",
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
        # object mirrors
        "msg",
        "res",
        "src_bind",
        "vc_obj",
        "channels",
        # per-module
        "module_rr",
        # bookkeeping
        "num_classes",
        "version",
        "_np_cache",
        "_np_version",
    )

    def __init__(self) -> None:
        q = "q"
        self.received = array(q, [0])  # slot 0 = sentinel
        self.sent = array(q, [0])
        self.elig = array(q)
        self.elig_head = array(q, [0])
        self.elig_count = array(q, [0])
        self.head_time = array(q, [BIG])
        self.upstream = array(q, [0])
        self.msg_len = array(q, [0])
        self.waiting_route = array("b", [0])
        self.ring_base = array(q, [0])
        self.chan_of = array(q, [-1])
        self.is_real = array("b", [0])

        self.rr = array(q)
        self.transfers = array(q)
        self.busy_count = array(q)
        self.busy_slots = array(q)
        self.depth = array(q)
        self.kind_code = array("b")
        self.free_mask = array(q)
        self.vbase = array(q)

        self.msg: List[Optional[object]] = [None]
        self.res: List[Optional[object]] = [None]
        self.src_bind: List[Optional[object]] = [None]
        self.vc_obj: List[Optional[object]] = [None]
        self.channels: List[object] = []

        self.module_rr = array(q)

        #: virtual channels per physical channel (uniform within a store;
        #: fixed by the first channel added)
        self.num_classes = 0
        #: bumped on every structural change so numpy views rebuild
        self.version = 0
        self._np_cache = None
        self._np_version = -1

    # ------------------------------------------------------------------
    # structural registration
    # ------------------------------------------------------------------
    def add_channel(self, channel, num_classes: int, buffer_depth: int, kind_code: int) -> int:
        """Register a channel; allocates its vid block and returns its
        dense channel index (== position in construction order)."""
        if self.num_classes == 0:
            self.num_classes = num_classes
        elif num_classes != self.num_classes:
            raise ValueError(
                f"one SoA store holds channels of a single VC count; "
                f"got {num_classes} after {self.num_classes}"
            )
        index = len(self.channels)
        self.channels.append(channel)
        vbase = len(self.received)
        slots = 2 * num_classes  # real VCs then shadow source slots
        self.received.extend([0] * slots)
        self.sent.extend([0] * slots)
        self.elig_head.extend([0] * slots)
        self.elig_count.extend([0] * slots)
        self.head_time.extend([BIG] * slots)
        self.upstream.extend([0] * slots)
        self.msg_len.extend([0] * slots)
        self.waiting_route.extend([0] * slots)
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
        self.src_bind.extend([None] * slots)
        self.vc_obj.extend([None] * slots)

        self.rr.append(0)
        self.transfers.append(0)
        self.busy_count.append(0)
        self.busy_slots.extend([0] * num_classes)
        self.depth.append(buffer_depth)
        self.kind_code.append(kind_code)
        self.free_mask.append((1 << num_classes) - 1)
        self.vbase.append(vbase)
        self.version += 1
        return index

    def add_module(self) -> int:
        """Register a router module; returns its dense module id (its
        round-robin arbiter counter lives in ``module_rr``)."""
        mid = len(self.module_rr)
        self.module_rr.append(0)
        self.version += 1
        return mid

    # ------------------------------------------------------------------
    # dynamic-state primitives (shared by the object views and the
    # batched pass's event replay)
    # ------------------------------------------------------------------
    def reset_vc(self, vid: int) -> None:
        """Equivalent of the old ``VirtualChannel.reset``."""
        msg = self.msg
        if msg[vid] is not None:
            msg[vid] = None
            ci = self.chan_of[vid]
            self.free_mask[ci] |= 1 << (vid - self.vbase[ci])
        self.msg_len[vid] = 0
        src = self.src_bind[vid]
        if src is not None:
            src._unbind()
            self.src_bind[vid] = None
        self.upstream[vid] = 0
        self.received[vid] = 0
        self.sent[vid] = 0
        self.elig_count[vid] = 0
        self.elig_head[vid] = 0
        self.head_time[vid] = BIG
        self.waiting_route[vid] = 0
        self.res[vid] = None

    def busy_add(self, ci: int, vid: int) -> None:
        base = ci * self.num_classes
        count = self.busy_count[ci]
        self.busy_slots[base + count] = vid
        self.busy_count[ci] = count + 1

    def busy_remove(self, ci: int, vid: int) -> bool:
        """Order-preserving removal; tolerates absent vids (release is
        idempotent)."""
        base = ci * self.num_classes
        count = self.busy_count[ci]
        slots = self.busy_slots
        for i in range(count):
            if slots[base + i] == vid:
                for j in range(i, count - 1):
                    slots[base + j] = slots[base + j + 1]
                self.busy_count[ci] = count - 1
                return True
        return False

    def reset_dynamic(self) -> None:
        """Clear every dynamic field (network reuse across runs); static
        layout (rings, kinds, depths, vbase) survives."""
        # unbind sources first so in-flight injection counts are written
        # back to their MessageSource objects (legacy reset kept them)
        for i, src in enumerate(self.src_bind):
            if src is not None:
                src._unbind()
                self.src_bind[i] = None
        nv = len(self.received)
        zero_q = array("q", bytes(8 * nv))
        self.received = array("q", zero_q)
        self.sent = array("q", zero_q)
        self.elig_head = array("q", zero_q)
        self.elig_count = array("q", zero_q)
        self.upstream = array("q", zero_q)
        self.msg_len = array("q", zero_q)
        self.head_time = array("q", [BIG] * nv)
        self.waiting_route = array("b", bytes(nv))
        nc = len(self.channels)
        self.rr = array("q", bytes(8 * nc))
        self.transfers = array("q", bytes(8 * nc))
        self.busy_count = array("q", bytes(8 * nc))
        full = (1 << self.num_classes) - 1 if self.num_classes else 0
        self.free_mask = array("q", [full] * nc)
        self.module_rr = array("q", bytes(8 * len(self.module_rr)))
        self.msg = [None] * nv
        self.res = [None] * nv
        # rebinding replaced the buffers: force numpy views to rebuild
        self.version += 1

    # ------------------------------------------------------------------
    # numpy mapping (batched pass)
    # ------------------------------------------------------------------
    def numpy_views(self):
        """Zero-copy numpy views over the buffers, cached until the next
        structural change.  Raises ImportError when numpy is missing."""
        if self._np_cache is not None and self._np_version == self.version:
            return self._np_cache
        import numpy as np

        def q(a):
            return np.frombuffer(a, dtype=np.int64) if len(a) else np.empty(0, np.int64)

        def b(a):
            return np.frombuffer(a, dtype=np.int8) if len(a) else np.empty(0, np.int8)

        views = {
            "received": q(self.received),
            "sent": q(self.sent),
            "elig": q(self.elig),
            "elig_head": q(self.elig_head),
            "elig_count": q(self.elig_count),
            "head_time": q(self.head_time),
            "upstream": q(self.upstream),
            "msg_len": q(self.msg_len),
            "ring_base": q(self.ring_base),
            "chan_of": q(self.chan_of),
            "is_real": b(self.is_real),
            "rr": q(self.rr),
            "transfers": q(self.transfers),
            "busy_count": q(self.busy_count),
            "busy_slots": q(self.busy_slots),
            "depth": q(self.depth),
            "kind_code": b(self.kind_code),
            "vbase": q(self.vbase),
        }
        self._np_cache = views
        self._np_version = self.version
        return views
