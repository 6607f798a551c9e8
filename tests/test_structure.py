"""Structural checks: the things this codebase says once stay said once.

Each assertion names a duplication that existed (three copies of the
fault-event sequence, four places a ``Message`` was built, six route
walkers, eight spellings of the canonical digest) and fails when a copy
comes back.  ``ast``, not text search: comments and docstrings may name
these functions freely."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_scalar_loops_index_the_soa_buffers():
    """The scalar allocation and transfer loops read the struct-of-arrays
    buffers through local bindings (``received = store.received``), as
    the batched pass does; the property views on virtual and physical
    channels serve reconfiguration, the tracer, metrics and tests, never
    these two loops."""
    views = {
        "eligible",
        "received",
        "sent",
        "upstream",
        "message",
        "cached_resolution",
        "waiting_route",
        "transfers",
    }
    tree = ast.parse((SRC / "sim" / "stages.py").read_text(encoding="utf-8"))
    checked = []
    for owner in tree.body:
        if isinstance(owner, ast.ClassDef) and owner.name in ("AllocationStage", "TransferStage"):
            for method in owner.body:
                if isinstance(method, ast.FunctionDef) and method.name == "run":
                    checked.append(owner.name)
                    used = {
                        node.attr
                        for node in ast.walk(method)
                        if isinstance(node, ast.Attribute)
                        and node.attr in views
                        and not (isinstance(node.value, ast.Name) and node.value.id == "store")
                    }
                    assert not used, (owner.name, sorted(used))
    assert sorted(checked) == ["AllocationStage", "TransferStage"]


def test_one_header_arbitration_loop_in_sim():
    """Header arbitration — resolve, memoize, grant, park — is one loop,
    ``AllocationStage.run``, on every core and both transfer branches:
    nothing else in ``repro.sim`` commits a hop or consults the
    resolution memo, which only ``SimNetwork.__init__`` sets up
    besides."""
    commits, reads, writes = set(), set(), set()

    def visit(node, rel, holder):
        if isinstance(node, ast.ClassDef):
            holder = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            holder = f"{holder}.{node.name}" if holder else node.name
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "commit_hop":
                commits.add((rel, holder))
        elif isinstance(node, ast.Attribute) and node.attr == "resolution_memo":
            (writes if isinstance(node.ctx, ast.Store) else reads).add((rel, holder))
        for child in ast.iter_child_nodes(node):
            visit(child, rel, holder)

    for path in sorted((SRC / "sim").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name, "")
    loop = ("stages.py", "AllocationStage.run")
    assert commits == {loop}
    assert reads == {loop}
    assert writes == {loop, ("network.py", "SimNetwork.__init__")}


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"), reason="needs Python >= 3.10")
def test_src_imports_stdlib_and_optional_numpy_only():
    """``pip install .`` pulls in no dependency: every absolute import is
    the standard library, ``repro`` itself or numpy (``repro[fast]``),
    and numpy only in the simulation cores, which gate it."""
    foreign = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            else:
                continue
            foreign += [
                (rel, top)
                for top in tops
                if top not in sys.stdlib_module_names
                and top != "repro"
                and not (top == "numpy" and rel.startswith("sim/"))
            ]
    assert foreign == []


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"), reason="needs Python >= 3.10")
def test_cli_runs_on_the_standard_library_alone(tmp_path):
    """As after a clean ``pip install .``: with every import outside the
    standard library refused, the MC report imports and
    ``repro-experiments tables`` runs its Lemma 1 check."""
    code = (
        "import sys\n"
        "class StdlibOnly:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        top = name.partition('.')[0]\n"
        "        if top not in sys.stdlib_module_names and top != 'repro':\n"
        "            raise ModuleNotFoundError(f'not installed: {name}', name=name)\n"
        "sys.meta_path.insert(0, StdlibOnly())\n"
        "import repro.mc.report\n"
        "from repro.experiments.cli import main\n"
        "main(['tables', '--no-cache'])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "REPRO_RESULT_STORE": str(tmp_path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "Lemma 1 evidence: channel dependency graphs are acyclic" in done.stdout
