"""Census of the transfer loop's busy-channel visits.

Every cycle the full scan visits each busy physical channel once.  This
script sorts those visits by what the visit finds, with the tests the
transfer loop applies to each busy virtual channel:

* ``moved``     — the channel moved a flit;
* ``draining``  — every busy VC already received its whole worm;
* ``full``      — every busy VC's buffer holds ``depth`` flits;
* ``drain+full``— every busy VC is one of the two, and both occur;
* ``upstream``  — some VC waits only for its upstream flit to become
  eligible (the case the work-list keeps polling);
* ``parked``    — the work-list core skipped the channel: it is busy but
  off the work-list (``TransferStage._listed``; always 0 under
  ``--core legacy``).

A channel counts as parked ahead of the other classes, so ``draining``,
``full`` and ``drain+full`` are the no-move visits the work-list still
makes.  A second table sorts the same visits, parked ones left out, by
how many busy VCs the channel holds (1 / 2 / 3+): a visit that finds one
takes the loop's one-worm path, without the round robin.  The tests read the state a cycle hook sees, before that cycle's
injection and allocation; transfers earlier in the same cycle can
change what a channel finds, so a handful of visits land in ``other``.
Standard library only; the simulator is driven through
``Simulator.cycle_hooks``.

Usage::

    python tools/transfer_census.py                       # torus16_f5_sat's run
    python tools/transfer_census.py --radix 4 --faults 0 --rate 0.02
    python tools/transfer_census.py --core legacy --measure 1500 --rate 0.002 --faults 0
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import Iterable, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim import SimulationConfig, Simulator  # noqa: E402
from repro.sim.soa import KIND_CONSUMPTION  # noqa: E402

CLASSES = ("moved", "draining", "full", "drain+full", "upstream", "parked", "other")
#: busy VCs a visit finds, the last bucket open-ended
BUSY_VCS = ("1", "2", "3+")


def census(sim: Simulator) -> Tuple[Counter, Counter]:
    """Run ``sim`` to the end; count its busy-channel visits by class,
    and the unparked ones by how many busy VCs they find."""
    store = sim.net.store
    stage = sim.transfer
    counts: Counter = Counter()
    found: Counter = Counter()
    pending = {}  # channel index -> class found at the start of the last cycle
    before = list(store.transfers)

    def settle() -> None:
        # the cycle whose start ``pending`` describes has now run
        transfers = store.transfers
        for ci, moved in enumerate(transfers):
            if moved != before[ci]:
                before[ci] = moved
                pending.pop(ci, None)
                counts["moved"] += 1
        for found in pending.values():
            counts[found] += 1
        pending.clear()

    def visit(now: int) -> None:
        settle()
        listed = stage._listed if stage.active_set else None
        for channel in sim.net.channels:
            ci = channel.index
            vids = store.busy_vids(ci)
            if not vids:
                continue
            if listed is not None and not listed[ci]:
                pending[ci] = "parked"
                continue
            found[BUSY_VCS[min(len(vids), len(BUSY_VCS)) - 1]] += 1
            room = None if store.kind_code[ci] == KIND_CONSUMPTION else store.depth[ci]
            draining = full = upstream = ready = 0
            for vid in vids:
                got = store.received[vid]
                if got >= store.msg_len[vid]:
                    draining += 1
                elif room is not None and got - store.sent[vid] >= room:
                    full += 1
                elif store.head_time[store.upstream[vid]] > now:
                    upstream += 1
                else:
                    ready += 1
            if ready:
                pending[ci] = "other"
            elif upstream:
                pending[ci] = "upstream"
            elif draining and full:
                pending[ci] = "drain+full"
            else:
                pending[ci] = "draining" if draining else "full"

    sim.cycle_hooks.append(visit)
    sim.run()
    settle()
    return counts, found


def table(title: str, names: Iterable[str], counts: Counter, total_label: str) -> None:
    total = sum(counts.values())
    print(f"{title:<12}{'visits':>10}{'share':>9}")
    for name in names:
        share = counts[name] / total if total else 0.0
        print(f"{name:<12}{counts[name]:>10}{share:>9.1%}")
    print(f"{total_label:<12}{total:>10}")


def main(argv: Iterable[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--topology", default="torus", choices=["torus", "mesh"])
    parser.add_argument("--radix", type=int, default=16)
    parser.add_argument("--dims", type=int, default=2)
    parser.add_argument("--faults", type=int, default=5, help="fault percent")
    parser.add_argument("--rate", type=float, default=0.014)
    parser.add_argument("--warmup", type=int, default=300)
    parser.add_argument("--measure", type=int, default=500)
    parser.add_argument("--seed", type=int, default=42, help="traffic and fault seed")
    parser.add_argument("--core", default="active", choices=["active", "legacy"])
    args = parser.parse_args(list(argv))
    config = SimulationConfig(
        topology=args.topology,
        radix=args.radix,
        dims=args.dims,
        fault_percent=args.faults,
        rate=args.rate,
        warmup_cycles=args.warmup,
        measure_cycles=args.measure,
        seed=args.seed,
        fault_seed=args.seed,
    )
    counts, found = census(Simulator(config, core=args.core))
    print(
        f"{args.topology} {args.radix}^{args.dims}, {args.faults}% faults, rate {args.rate}, "
        f"seed {args.seed}, {args.warmup}+{args.measure} cycles, core {args.core}"
    )
    table("class", CLASSES, counts, "busy visits")
    print()
    table("busy VCs", BUSY_VCS, found, "unparked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
