"""Goldens that pin the fault-geometry layer bit for bit.

``topology/`` and ``faults/`` serve adjacency, links and ring membership
from derived tables; every R(k) estimate and every simulator input
depends on those tables reproducing the plain arithmetic exactly, down
to iteration order.  This module defines *what* is pinned (the seeded
pattern streams and the canonical record of one degrade result); the
values live in ``tests/data/degrade_goldens.json`` and in constants of
``test_mc_classify.py`` / ``test_faults_generation.py``.

Regenerate — only ever from a commit whose outputs are the reference —
with::

    PYTHONPATH=src python tests/geometry_goldens.py --dump
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Dict, Iterator, Tuple

from repro.canonical import from_data
from repro.faults import FaultSet, degrade_fault_pattern, paper_fault_scenario
from repro.mc import FATAL_EXCEPTIONS, MCCell, MCShardTask, PatternSampler, ShardTally
from repro.topology import GridNetwork, make_network

GOLDEN_PATH = Path(__file__).parent / "data" / "degrade_goldens.json"

#: shard 0 of these cells (50 patterns, ``master_seed=7``) is pinned by
#: digest: the three ``mc_torus16`` benchmark cells, a 3D cell, a mesh
#: cell and an overlapping-rings cell
PINNED_CELLS: Dict[str, MCCell] = {
    "torus16 1+1 ft": MCCell("torus", 16, 2, 1, 1, "ft"),
    "torus16 4+10 ft": MCCell("torus", 16, 2, 4, 10, "ft"),
    "torus8 2+2 adaptive": MCCell("torus", 8, 2, 2, 2, "adaptive"),
    "torus4x4x4 2+2 ft": MCCell("torus", 4, 3, 2, 2, "ft"),
    "mesh8 1+2 ft": MCCell("mesh", 8, 2, 1, 2, "ft"),
    "torus16 4+4 ft overlap": MCCell("torus", 16, 2, 4, 4, "ft", allow_overlapping_rings=True),
}
PINNED_SEED = 7
PINNED_SHARD = 50

#: ``(kind, radix, dims)`` and the (node, link) fault-count ladder the
#: raw patterns of each golden topology cycle through
GOLDEN_TOPOLOGIES = {
    "torus16": (("torus", 16, 2), [(1, 1), (2, 2), (4, 10), (6, 4), (8, 12)]),
    "torus8": (("torus", 8, 2), [(1, 1), (2, 2), (3, 3), (4, 2)]),
    "mesh16": (("mesh", 16, 2), [(1, 1), (2, 2), (3, 4)]),
    "torus4x4x4": (("torus", 4, 3), [(1, 0), (0, 1), (1, 1)]),
    "torus6x6x6": (("torus", 6, 3), [(1, 1), (2, 2), (3, 2), (4, 4)]),
}
GOLDEN_PATTERNS = 200


def shard_digest(cell: MCCell) -> str:
    """``ShardTally.digest()`` of shard 0 of ``cell``."""
    payload = MCShardTask(cell, PINNED_SEED, 0, PINNED_SHARD).execute()
    return from_data(ShardTally, payload).digest()


def golden_patterns(name: str) -> Iterator[Tuple[GridNetwork, FaultSet, bool]]:
    """The seeded raw patterns of one golden topology, as ``(network,
    faults, allow_overlapping_rings)``; every fourth pattern is degraded
    with overlapping rings allowed."""
    shape, ladder = GOLDEN_TOPOLOGIES[name]
    network = make_network(*shape)
    samplers = [
        PatternSampler(network, nodes, links, master_seed=PINNED_SEED, cell_key=f"golden:{name}:{step}")
        for step, (nodes, links) in enumerate(ladder)
    ]
    for index in range(GOLDEN_PATTERNS):
        sampler = samplers[index % len(samplers)]
        yield network, sampler.draw(index), index % 4 == 3


def _links(links) -> list:
    return sorted([list(link.u), list(link.v), link.dim] for link in links)


def faults_record(faults: FaultSet) -> dict:
    return {"nodes": sorted(map(list, faults.node_faults)), "links": _links(faults.link_faults)}


def degrade_record(network: GridNetwork, faults: FaultSet, allow_overlapping_rings: bool) -> dict:
    """Everything ``degrade_fault_pattern`` returns, canonically: the
    compact summary stored in the fixture plus a digest over the full
    record (blocked fault set, region intervals in region order, layers,
    sacrificed nodes, merge/pass counts, condemnation rounds)."""
    try:
        scenario, info = degrade_fault_pattern(
            network, faults, allow_overlapping_rings=allow_overlapping_rings
        )
    except FATAL_EXCEPTIONS as exc:
        return {"fatal": type(exc).__name__}
    full = {
        "faults": faults_record(scenario.faults),
        "regions": [
            [[iv.start, iv.length, iv.size] for iv in region.intervals]
            for region in scenario.ring_index.regions
        ],
        "region_layers": sorted(scenario.region_layers.items()),
        "degraded_nodes": [list(c) for c in info.degraded_nodes],
        "merges": info.merges,
        "convexify_steps": info.convexify_steps,
        "condemned_rounds": sorted([list(c), r] for c, r in info.condemned_rounds.items()),
    }
    blob = json.dumps(full, sort_keys=True, separators=(",", ":"))
    return {
        "digest": hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16],
        "regions": len(full["regions"]),
        "sacrificed": len(info.degraded_nodes),
        "merges": info.merges,
        "convexify_steps": info.convexify_steps,
    }


def paper_scenario_record(kind: str, percent: int, seed: int) -> dict:
    """The fault set ``paper_fault_scenario`` draws on 16x16 for a seed."""
    network = make_network(kind, 16, 2)
    return faults_record(paper_fault_scenario(network, percent, random.Random(seed)).faults)


def compute_goldens() -> dict:
    return {
        name: [degrade_record(*pattern) for pattern in golden_patterns(name)]
        for name in GOLDEN_TOPOLOGIES
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--dump"]:
        sys.exit(__doc__)
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    # one pattern per line, so a regenerated fixture diffs by pattern
    blocks = [
        f'"{name}": [\n' + ",\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n]"
        for name, records in compute_goldens().items()
    ]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
    for label, cell in PINNED_CELLS.items():
        print(f'    "{label}": "{shard_digest(cell)}",')
    for kind in ("torus", "mesh"):
        for percent in (1, 5):
            for seed in (0, 1, 42):
                print(kind, percent, seed, json.dumps(paper_scenario_record(kind, percent, seed)))
