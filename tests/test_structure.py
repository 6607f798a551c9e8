"""Structural checks: the things this codebase says once stay said once.

Each assertion names a duplication that existed (three copies of the
fault-event sequence, four places a ``Message`` was built, six route
walkers, eight spellings of the canonical digest) and fails when a copy
comes back.  ``ast``, not text search: comments and docstrings may name
these functions freely."""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent


def call_sites(path):
    """``(enclosing function, callee, dotted callee)`` for every call in
    a file: ``callee`` is ``f`` for ``f(...)`` and ``m`` for ``x.m(...)``,
    ``dotted`` is ``"x.m"`` when ``x`` is a plain name; the enclosing
    function is the innermost ``def`` (``"<module>"`` outside any)."""
    sites = []

    def visit(node, holder):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            holder = node.name
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                sites.append((holder, func.id, None, node))
            elif isinstance(func, ast.Attribute):
                owner = func.value.id if isinstance(func.value, ast.Name) else None
                sites.append((holder, func.attr, owner and f"{owner}.{func.attr}", node))
        for child in ast.iter_child_nodes(node):
            visit(child, holder)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return sites


def holders(path, name):
    return sorted(holder for holder, callee, _dotted, _node in call_sites(path) if callee == name)


def test_one_retire_step_in_reconfiguration():
    path = SRC / "sim" / "reconfiguration.py"
    for primitive in (
        "_dying_channels",
        "_pick_victims",
        "_drop_queued",
        "_unwire",
        "_install_scenario",
        "_clear_cached_resolutions",
    ):
        assert holders(path, primitive) == ["_retire"], primitive
    # the sequence, and the single-worm truncation inside a window
    assert holders(path, "_kill_worm") == ["_retire", "record_loss"]


def test_one_message_constructor_call_in_sim():
    sites = [
        (path.name, holder)
        for path in sorted((SRC / "sim").glob("*.py"))
        for holder in holders(path, "Message")
    ]
    assert sites == [("engine.py", "_queue_message")]


def test_one_route_walk_loop_in_core():
    walkers = []
    for path in sorted((SRC / "core").glob("*.py")):
        called = {}
        for holder, callee, _dotted, _node in call_sites(path):
            called.setdefault(holder, set()).add(callee)
        walkers += [
            (path.name, holder)
            for holder, names in called.items()
            if {"next_hop", "commit_hop"} <= names
        ]
    assert walkers == [("message_types.py", "walk_route")]


def test_one_codec_in_src():
    """Values cross files and sockets through ``repro.canonical.to_data``
    / ``from_data``; a hand-written converter is one of these, each
    keeping a reason in its docstring, or a copy coming back."""
    survivors = {
        ("sim/config.py", "SimulationConfig", "to_canonical"),
        ("service/jobs.py", "JobSpec", "from_payload"),
        ("sim/metrics.py", "SimulationResult", "to_dict"),
        ("sim/metrics.py", "SimulationResult", "from_dict"),
        ("exec/executor.py", "ExecutionStats", "to_dict"),
        ("mc/engine.py", "CellEstimate", "to_payload"),
        ("mc/engine.py", "MCRunResult", "to_payload"),
        ("reliability/campaign.py", "FaultCampaign", "to_canonical"),
        ("reliability/campaign.py", "FaultCampaign", "from_canonical"),
    }
    names = {"to_payload", "from_payload", "to_dict", "from_dict", "to_canonical", "from_canonical"}
    converters = set()
    asdict_calls = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for owner in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(owner, ast.ClassDef):
                converters.update(
                    (rel, owner.name, node.name)
                    for node in owner.body
                    if isinstance(node, ast.FunctionDef) and node.name in names
                )
        asdict_calls += [(rel, holder) for holder, callee, _d, _n in call_sites(path) if callee == "asdict"]
    assert converters == survivors
    assert asdict_calls == []


def test_one_canonical_json_hash_in_src():
    compact_dumps = set()
    sha256 = set()
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for holder, _callee, dotted, node in call_sites(path):
            if dotted == "json.dumps" and any(kw.arg == "separators" for kw in node.keywords):
                compact_dumps.add((rel, holder))
            if dotted == "hashlib.sha256":
                sha256.add((rel, holder))
    assert compact_dumps == {("canonical.py", "canonical_digest")}
    # the other two hash no JSON into a key: bytes into a seed, and a
    # newline-joined key list into a directory name
    assert sha256 == {
        ("canonical.py", "canonical_digest"),
        ("mc/sampler.py", "pattern_seed"),
        ("exec/checkpoint.py", "for_tasks"),
    }
