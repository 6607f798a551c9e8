"""The batched branch of the adaptive core: array ops over the busy set.

At saturation nearly every physical channel is busy every cycle, so the
work-list service degenerates to the legacy full scan — the win has to
come from the *representation*, not the work-list.  :func:`transfer`
maps the :class:`~repro.sim.soa.SoAState` buffers as numpy arrays and
evaluates the transfer stage's per-channel decision (drain guard,
upstream eligibility, buffer space, round-robin arbitration) for every
busy channel at once, falling back to scalar code only for the rare
events that must stay sequenced.  The adaptive transfer stage in
:mod:`repro.sim.stages` runs it on the cycles where enough channels are
busy to amortise the ~100 array-op launches it costs, and loads this
module only then.  Only phase 4 is batched: header arbitration (phase 3)
is sequenced by nature and is one loop for every cycle,
:class:`~repro.sim.stages.AllocationStage`.

Parity argument (enforced bit-for-bit by tests/test_engine_parity.py)
---------------------------------------------------------------------

The scalar transfer stage services channels in ascending construction
index and moves at most one flit per channel.  The batched evaluation
computes each channel's pick from the *cycle-start* state, which is
correct unless an earlier channel's move changes a later channel's
inputs.  Enumerating the effects of one move (pop the upstream VC's
eligibility ring + ``sent``, push the receiving ring + ``received``,
possibly release the drained upstream):

* pushes are invisible to other channels' decisions: a pushed flit gets
  eligibility time ``now + delay`` with ``delay >= 1``, so same-cycle
  pull checks (``head_time <= now``) are unaffected whether or not the
  push happened yet (this is asserted at construction; exotic timings
  with zero delay fall back to the scalar core);
* a pop only affects the channel that *owns* the popped VC (each VC has
  exactly one downstream), and only visibly so when that VC's buffer was
  full at cycle start (the pop flips the space check) or the move was a
  tail (the pop is followed by a release that changes the busy list);
* therefore only channels *above* a picking channel that own its
  upstream VC can be mispredicted.  Those are marked **dirty** and
  re-evaluated **exactly** — ascending, before any array mutation — on
  *virtual* state: the cycle-start arrays plus the tracked deltas of the
  final picks below (which upstream VCs were popped, which releases
  shrank a busy list).  A repaired pick whose outcome differs from the
  evaluated one seeds further marks strictly upward, so the pass reaches
  the same fixpoint the scalar order does while touching only channels
  whose inputs actually changed; a spurious mark costs time, never
  correctness, because every repair is exact.
* once every pick is final, the array effects are applied in **one
  batched call**: targets are disjoint (each channel moves one flit and
  each VC has exactly one downstream, so each eligibility ring is popped
  at most once and pushed at most once) and a pop meeting a push on the
  same non-empty ring commutes, so the batch is equivalent to applying
  the picks in the scalar's ascending order.

Python-side effects (module wakeups, tracer events, delivery callbacks,
releases) are replayed in ascending channel order after the batch, so
``module.waiting`` order, ``_modules_waiting`` insertion order and the
observable event stream are identical to the scalar cores.

The replay also carries the allocation stage's wake hook: every release
calls ``AllocationStage.wake`` and a header arrival unparks its module,
exactly as the scalar transfer loop does.
"""

from __future__ import annotations

import bisect
import heapq
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..router.channels import ChannelKind
from .soa import BIG

if TYPE_CHECKING:  # pragma: no cover - annotation-only import cycle guard
    from .engine import Simulator


def transfer(sim: "Simulator", now: int, leave: int) -> Optional[bool]:
    """Phase 4: batched pick evaluation + batched array effects,
    with an ordered Python replay of the rare events.  Returns
    ``None`` — having changed nothing — when fewer than ``leave``
    channels are busy (the caller's cue to drop to the scalar
    branch)."""
    store = sim.net.store
    V = store.numpy_views()
    BL = V["busy_count"]
    busy = np.flatnonzero(BL)  # ascending == scalar service order
    if busy.size < leave:
        return None
    if busy.size == 0:
        return False
    R = V["received"]
    S = V["sent"]
    HT = V["head_time"]
    U = V["upstream"]
    LEN = V["msg_len"]
    EH = V["elig_head"]
    CNT = V["elig_count"]
    ELIG = V["elig"]
    RB = V["ring_base"]
    CH = V["chan_of"]
    REAL = V["is_real"]
    RR = V["rr"]
    TR = V["transfers"]
    BS = V["busy_slots"]
    DEPTH = V["depth"]
    KC = V["kind_code"]
    K = store.num_classes

    # -- evaluate every channel's pick on the cycle-start state -----
    # flat segmented layout: one entry per (channel, scan offset)
    # pair — no padding to the widest busy list — and the first
    # admissible entry of each channel's segment is its pick
    n = BL[busy]
    start = RR[busy] % n
    m = busy.size
    seg_end = np.cumsum(n)
    total = int(seg_end[-1])
    seg_start = seg_end - n
    flat_off = np.arange(total) - np.repeat(seg_start, n)
    ch_rep = np.repeat(busy, n)
    vm = BS[ch_rep * K + (np.repeat(start, n) + flat_off) % np.repeat(n, n)]
    can = (
        (R[vm] < LEN[vm])  # drain guard
        & (HT[U[vm]] <= now)  # upstream flit eligible
        & (((R[vm] - S[vm]) < DEPTH[ch_rep]) | (KC[ch_rep] == 3))  # space
    )
    hits = np.flatnonzero(can)
    if hits.size == 0:
        return False
    idx = np.searchsorted(hits, seg_start)
    idx[idx == hits.size] = 0  # no hit at or past this segment
    first = hits[idx]
    # the first hit at or past the segment start may fall in a later
    # segment (no hit in this one); the range check masks both cases
    has = (first >= seg_start) & (first < seg_end)
    picked_off = np.where(has, flat_off[first], 0)
    picked_v = np.where(has, vm[first], -1)
    pos = np.flatnonzero(has)
    pc = busy[pos]  # picking channels, ascending
    pv = picked_v[pos]
    po = picked_off[pos]
    n_p = n[pos]
    start_p = start[pos]
    pu = U[pv]
    u_real = REAL[pu] != 0
    cons = KC[pc] == 3
    is_header = R[pv] == 0
    is_tail = R[pv] + 1 == LEN[pv]
    # while linked, upstream.sent == vc.received, so the upstream
    # drains exactly when the downstream receives the tail
    drained = u_real & is_tail
    cu = CH[pu]
    u_full = (R[pu] - S[pu]) >= DEPTH[cu]
    # one row per evaluated pick; repaired rows are swapped in below
    # and the apply phase reads columns of the merged table
    P = np.empty((pc.size, 11), dtype=np.int64)
    P[:, 0] = pc
    P[:, 1] = pv
    P[:, 2] = pu
    P[:, 3] = u_real
    P[:, 4] = cons
    P[:, 5] = is_header
    P[:, 6] = is_tail
    P[:, 7] = drained
    P[:, 8] = po
    P[:, 9] = n_p
    P[:, 10] = start_p

    # -- repair pass: channels whose start-state pick may be wrong
    # are re-evaluated *exactly*, in ascending order, on virtual
    # state — the start arrays plus the deltas of the final picks on
    # lower channels (``popped_by``: upstream vid -> popping channel;
    # ``released_on``: channel -> {picking channel: released vid}).
    # Two seed conditions (the distinction keeps the set small at
    # saturation, where nearly every buffer is start-full):
    #   * ORDER: a drained pick below releases a VC from the channel,
    #     remapping its whole round-robin scan;
    #   * SPACE: a pop below frees a start-full VC, which can only
    #     move the pick *earlier* in the scan — and only matters when
    #     the freed VC scans strictly before the evaluated pick (the
    #     scan stops there otherwise).
    # Seeds from evaluated picks that a repair later overturns are at
    # worst spurious (a repair is exact, so an extra mark costs time,
    # never correctness); a repair whose outcome differs from its
    # evaluation seeds marks for the *actual* effects, always on
    # strictly higher channels, so the ascending heap processes every
    # mark after all of its causes are final.
    # eval_off[i]: the evaluated pick offset of busy channel i, or
    # its count when it evaluated to no pick (any freed VC matters)
    eval_off = np.where(picked_v >= 0, picked_off, n)
    heap: List[int] = []
    # channel -> strongest mark kind: 1 = SPACE only (busy list
    # pristine, only seeded slots can differ), 2 = ORDER (full
    # virtual rescan needed)
    in_dirty: Dict[int, int] = {}
    # channel -> [(scan offset, freed vid), ...] for SPACE marks
    space_seeds: Dict[int, List[tuple]] = {}

    def mark(c2: int, kind: int) -> None:
        k0 = in_dirty.get(c2)
        if k0 is None:
            in_dirty[c2] = kind
            heapq.heappush(heap, c2)
        elif kind > k0:
            in_dirty[c2] = kind

    # a drained pick never needs a SPACE seed: its upstream has
    # received its whole worm, so the owning channel drain-guards it
    order_seed = u_real & (cu > pc) & drained & (BL[cu] > 1)
    for cd in cu[order_seed]:
        mark(int(cd), 2)
    space_cand = u_real & (cu > pc) & u_full & ~drained
    if space_cand.any():
        sc_u = pu[space_cand]
        sc_c = cu[space_cand]
        nn2 = BL[sc_c]
        pos2 = np.zeros(sc_u.size, dtype=np.int64)
        for j in range(K):
            # slots beyond the count hold stale vids (removal shifts
            # without clearing the tail) — only match live slots
            pos2 = np.where((j < nn2) & (BS[sc_c * K + j] == sc_u), j, pos2)
        off_u = (pos2 - RR[sc_c] % nn2) % nn2
        vis = off_u < eval_off[np.searchsorted(busy, sc_c)]
        for cd3, o3, u3 in zip(
            sc_c[vis].tolist(), off_u[vis].tolist(), sc_u[vis].tolist()
        ):
            mark(cd3, 1)
            space_seeds.setdefault(cd3, []).append((o3, u3))

    extra: List[tuple] = []
    if heap:
        # deltas start as the evaluated picks and are corrected
        # channel by channel as repairs replace them; an entry from a
        # channel at or above the repair frontier is filtered by the
        # ``< cd`` checks below, so staleness there is harmless
        pc_l = pc.tolist()
        pv_l = pv.tolist()
        pu_l = pu.tolist()
        cu_l = cu.tolist()
        drained_l = drained.tolist()
        eval_l = eval_off.tolist()
        busy_l = busy.tolist()
        popped_by = dict(zip(pu_l, pc_l))
        popped_get = popped_by.get
        released_on: Dict[int, Dict[int, int]] = {}
        for i in np.flatnonzero(drained).tolist():
            released_on.setdefault(cu_l[i], {})[pc_l[i]] = pu_l[i]
        rel_get = released_on.get
        pc_find = bisect.bisect_left
        heappop = heapq.heappop
        n_picks = len(pc_l)
        Rl, Sl, HTl, Ul = R, S, HT, U
        LENl, REALl, CHl = LEN, REAL, CH

        def record(cd2, v2, o2, cnt2, st2, pred_v2, cons3):
            # append the repaired pick and fold its effects into the
            # deltas; when the outcome changed, seed marks for the
            # actual pick's effects (same conditions as the
            # evaluated-pick seeds above) — always strictly upward,
            # so the ascending heap processes them after their cause
            r2 = int(Rl[v2])
            u2 = int(Ul[v2])
            real2 = bool(REALl[u2])
            tail2 = r2 + 1 == int(LENl[v2])
            drained2 = real2 and tail2
            extra.append(
                (cd2, v2, u2, real2, cons3, r2 == 0, tail2, drained2, o2, cnt2, st2)
            )
            popped_by[u2] = cd2
            if drained2:
                released_on.setdefault(int(CHl[u2]), {})[cd2] = u2
            if v2 != pred_v2:
                ct = int(CHl[u2])
                if ct > cd2:
                    if drained2:
                        if BL[ct] > 1:
                            mark(ct, 2)
                    elif (
                        real2
                        and int(Rl[u2]) - int(Sl[u2]) >= int(DEPTH[ct])
                        and in_dirty.get(ct, 1) == 1
                    ):
                        # a target without an ORDER mark has a
                        # pristine busy list (any release onto it
                        # would have marked it), so the start-state
                        # position check is exact
                        cn3 = int(BL[ct])
                        st3 = int(RR[ct]) % cn3
                        slots3 = BS[ct * K : ct * K + cn3].tolist()
                        for o3 in range(cn3):
                            if slots3[(st3 + o3) % cn3] == u2:
                                if o3 < eval_l[pc_find(busy_l, ct)]:
                                    mark(ct, 1)
                                    space_seeds.setdefault(ct, []).append(
                                        (o3, u2)
                                    )
                                break

        while heap:
            cd = heappop(heap)
            # retract this channel's evaluated pick from the deltas;
            # the repair below re-records whatever actually happens
            ip = pc_find(pc_l, cd)
            pred_v = -1
            if ip < n_picks and pc_l[ip] == cd:
                pred_v = pv_l[ip]
                popped_by.pop(pu_l[ip], None)
                if drained_l[ip]:
                    rel_t = rel_get(cu_l[ip])
                    if rel_t is not None:
                        rel_t.pop(cd, None)
            cons2 = int(KC[cd]) == 3
            if in_dirty[cd] == 1:
                # SPACE-only repair: the busy list is pristine, so
                # slots the evaluation rejected stay rejected unless
                # a pop below freed them — and those are exactly the
                # seeds. Drain guard and upstream head time never
                # change from below (only this channel writes
                # ``received`` here, and this ring's only downstream
                # is on this channel), and a freed start-full VC
                # always has space after its pop, so a seed slot
                # qualifies iff drain guard and head time pass. The
                # earliest qualifying seed before the evaluated pick
                # wins the round-robin scan; otherwise the evaluated
                # pick stands.
                best = eval_l[pc_find(busy_l, cd)]
                best_v = pred_v
                for o_f, v_f in space_seeds[cd]:
                    if o_f < best and popped_get(v_f, cd) < cd:
                        if int(Rl[v_f]) >= int(LENl[v_f]):
                            continue
                        if HTl[int(Ul[v_f])] > now:
                            continue
                        best = o_f
                        best_v = v_f
                if best_v >= 0:
                    cnt2 = int(BL[cd])
                    record(cd, best_v, best, cnt2, int(RR[cd]) % cnt2, pred_v, cons2)
                continue
            # ORDER repair: full rescan on the virtual busy list —
            # live start order minus the VCs released by final picks
            # strictly below this channel
            cnt0 = int(BL[cd])
            base_cd = cd * K
            order = BS[base_cd : base_cd + cnt0].tolist()
            rel = rel_get(cd)
            if rel:
                gone = {uv for cp, uv in rel.items() if cp < cd}
                if gone:
                    order = [v for v in order if v not in gone]
            cnt2 = len(order)
            if not cnt2:
                continue
            st2 = int(RR[cd]) % cnt2
            depth2 = int(DEPTH[cd])
            for o2 in range(cnt2):
                v2 = order[(st2 + o2) % cnt2]
                r2 = int(Rl[v2])
                len2 = int(LENl[v2])
                # drain guard: only this channel writes received here
                if r2 >= len2:
                    continue
                u2 = int(Ul[v2])
                if REALl[u2]:
                    # pops below cannot reach this ring (its only
                    # downstream is v2, owned by this channel) and
                    # same-cycle pushes are never eligible, so the
                    # start head time is the virtual head time
                    if HTl[u2] > now:
                        continue
                elif Sl[u2] >= len2:
                    continue
                if not cons2:
                    s_eff = int(Sl[v2]) + (1 if popped_get(v2, cd) < cd else 0)
                    if r2 - s_eff >= depth2:
                        continue
                record(cd, v2, o2, cnt2, st2, pred_v, cons2)
                break  # one flit per channel

    if in_dirty:
        dirty_arr = np.fromiter(in_dirty, dtype=np.int64, count=len(in_dirty))
        dirty_arr.sort()
        # sorted-membership test (np.isin is ~10x slower here)
        slot = np.searchsorted(dirty_arr, pc)
        slot[slot == dirty_arr.size] = 0
        M = P[dirty_arr[slot] != pc]
        if extra:
            # merge the repaired picks back in ascending channel
            # order (both halves are already sorted); a repaired
            # pick's round-robin update uses its *virtual* count and
            # start, exactly as the scalar service would have
            M = np.concatenate([M, np.array(extra, dtype=np.int64)])
            M = M[np.argsort(M[:, 0], kind="stable")]
    else:
        M = P

    if M.shape[0] == 0:
        return False
    bc = M[:, 0]
    bv = M[:, 1]
    bu = M[:, 2]
    b_real = M[:, 3] != 0
    b_cons = M[:, 4] != 0
    b_header = M[:, 5] != 0
    b_tail = M[:, 6] != 0
    b_drained = M[:, 7] != 0
    b_off = M[:, 8]
    b_n = M[:, 9]
    b_start = M[:, 10]
    timing = sim.config.timing
    hd = timing.header_delay
    dd = timing.data_delay

    # -- array effects of all final picks, one batched call.  Targets
    # are disjoint (each channel moves one flit; each VC has exactly
    # one downstream, so each ring is popped at most once and pushed
    # at most once) and a pop meeting a push on the same non-empty
    # ring commute, so the batch is order-independent.
    S[bu] += 1  # pop_flit counts a sent flit for VCs and sources
    ru = bu[b_real]
    if ru.size:
        eh = (EH[ru] + 1) % DEPTH[CH[ru]]
        EH[ru] = eh
        CNT[ru] -= 1
        HT[ru] = np.where(CNT[ru] > 0, ELIG[RB[ru] + eh], BIG)
    so = bu[~b_real]
    if so.size:
        HT[so] = np.where(S[so] >= LEN[so], BIG, HT[so])
    R[bv] += 1
    push = ~b_cons
    pvv = bv[push]
    if pvv.size:
        t = now + np.where(b_header[push], hd, dd)
        cnt0 = CNT[pvv]
        ELIG[RB[pvv] + (EH[pvv] + cnt0) % DEPTH[bc[push]]] = t
        CNT[pvv] = cnt0 + 1
        HT[pvv] = np.where(cnt0 == 0, t, HT[pvv])
    cvv = bv[b_cons]
    if cvv.size:
        S[cvv] += 1  # delivered flits leave the buffer immediately
    TR[bc] += 1
    RR[bc] = (b_start + b_off + 1) % b_n

    # Only headers and tails have Python-side events (wakeups,
    # tracer, delivery, releases); replaying them in ascending
    # channel order reproduces the scalar cores' module wakeup
    # order, tracer stream and delivery order exactly.  Row layout:
    # [channel, vid, upstream, real, cons, header, tail, drained,
    # off, n, start]; per row the scalar code's order is header
    # block, tail block, then the drained upstream's release.
    evrows = M[(M[:, 5] + M[:, 6]) > 0]
    if evrows.shape[0]:
        vc_obj = store.vc_obj
        channels = store.channels
        msg = store.msg
        waiting_route = store.waiting_route
        tracer = sim.tracer
        outstanding = sim.outstanding
        active_sources = sim._active_sources
        modules_waiting = sim._modules_waiting
        on_consumed = sim._on_consumed
        INTERNODE = ChannelKind.INTERNODE
        allocation = sim.allocation
        wake = allocation.wake
        parked_pop = allocation._parked.pop
        # releases split into the object/bit bookkeeping (done in
        # event order, it is what later events and the next stages
        # read) and the numeric ring resets (batched after the loop;
        # nothing reads them before the next cycle).  With a tracer
        # or delivery hooks attached, an observer could read VC
        # state mid-loop, so those runs take the reference
        # channel.release path — same final state either way.
        batch_rel = tracer is None and not sim.delivery_hooks
        rel_vids: List[int] = []
        if batch_rel:
            res_l = store.res
            src_bind = store.src_bind
            fmask = store.free_mask
            vb = store.vbase
            st_busy_remove = store.busy_remove
        for row in evrows.tolist():
            vid = row[1]
            channel = channels[row[0]]
            if row[4]:  # consumption channel: tail == delivery
                if row[6]:
                    message = msg[vid]
                    message.consumed_cycle = now
                    on_consumed(message)
                    if batch_rel:
                        ci = row[0]
                        if msg[vid] is not None:
                            msg[vid] = None
                            fmask[ci] |= 1 << (vid - vb[ci])
                        src = src_bind[vid]
                        if src is not None:
                            src._unbind()
                            src_bind[vid] = None
                        res_l[vid] = None
                        waiting_route[vid] = 0
                        st_busy_remove(ci, vid)
                        channel.busy.remove(vc_obj[vid])
                        rel_vids.append(vid)
                    else:
                        channel.release(vc_obj[vid])
                    wake(row[0])
            else:
                if row[5]:  # header arrived: wake the module
                    module = channel.dst_module
                    if module is not None:
                        module.waiting.append(vc_obj[vid])
                        waiting_route[vid] = 1
                        modules_waiting[module] = None
                        parked_pop(module, None)
                if row[6]:  # tail arrived
                    message = msg[vid]
                    if (
                        not message.exited_source
                        and channel.kind is INTERNODE
                    ):
                        message.exited_source = True
                        outstanding[message.src] -= 1
                        active_sources.add(message.src)
                    if tracer is not None:
                        tracer.on_transfer(now, message, channel, vc_obj[vid])
            if row[7]:  # drained upstream released after the events
                uvid = row[2]
                upstream = vc_obj[uvid]
                up_ch = upstream.channel
                if batch_rel:
                    uci = up_ch.index
                    if msg[uvid] is not None:
                        msg[uvid] = None
                        fmask[uci] |= 1 << (uvid - vb[uci])
                    src = src_bind[uvid]
                    if src is not None:
                        src._unbind()
                        src_bind[uvid] = None
                    res_l[uvid] = None
                    waiting_route[uvid] = 0
                    st_busy_remove(uci, uvid)
                    up_ch.busy.remove(upstream)
                    rel_vids.append(uvid)
                else:
                    up_ch.release(upstream)
                wake(up_ch.index)
        if rel_vids:
            # deferred numeric half of reset_vc for every release
            rv = np.array(rel_vids, dtype=np.int64)
            R[rv] = 0
            S[rv] = 0
            CNT[rv] = 0
            EH[rv] = 0
            HT[rv] = BIG
            U[rv] = 0
            LEN[rv] = 0
    return True
