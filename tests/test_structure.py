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
            compact = any(kw.arg == "separators" for kw in node.keywords)
            if dotted in ("json.dumps", "json.JSONEncoder") and compact:
                compact_dumps.add((rel, holder))
            if dotted == "hashlib.sha256":
                sha256.add((rel, holder))
    # canonical_digest's one encoder, built when canonical.py is imported
    assert compact_dumps == {("canonical.py", "<module>")}
    # the other two hash no JSON into a key: bytes into a seed, and a
    # newline-joined key list into a directory name
    assert sha256 == {
        ("canonical.py", "canonical_digest"),
        ("mc/sampler.py", "pattern_seed"),
        ("exec/checkpoint.py", "for_tasks"),
    }


def test_no_shared_queue_in_exec():
    """Each pool worker has its own pipe; no ``multiprocessing`` queue,
    whose one process-shared write lock a killed worker can leave held,
    and none of the workarounds that lock needed (holding CPython's
    private ``_wlock`` across a kill, cancelling a feeder thread's
    exit-time join)."""
    found = []
    for path in sorted((SRC / "exec").glob("*.py")):
        for holder, callee, _dotted, _node in call_sites(path):
            if callee.endswith("Queue"):
                found.append((path.name, holder, callee))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in ("_wlock", "cancel_join_thread"):
                found.append((path.name, node.attr))
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names if alias.name == "queue"]
            elif isinstance(node, ast.ImportFrom) and node.module == "queue":
                found.append((path.name, "queue"))
    assert found == []


def test_no_event_schema_beside_the_codec_in_obs():
    """A trace or exec event is checked by ``from_data`` of its class
    plus the rules no annotation states; a module-level ``*_SCHEMA``
    table is a second copy of the field list, free to drift."""
    found = []
    for path in sorted((SRC / "obs").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            found += [
                (path.name, target.id)
                for target in targets
                if isinstance(target, ast.Name) and target.id.endswith("_SCHEMA")
            ]
    assert found == []


def test_run_counters_are_read_from_stats_only():
    """The run counters live in ``sim.stats``; a ``Simulator`` property
    whose body only returns ``self.stats.<name>`` is a second way in."""
    tree = ast.parse((SRC / "sim" / "engine.py").read_text(encoding="utf-8"))
    (simulator,) = [
        node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Simulator"
    ]
    forwards = []
    for node in simulator.body:
        if not isinstance(node, ast.FunctionDef) or not any(
            isinstance(d, ast.Name) and d.id == "property" for d in node.decorator_list
        ):
            continue
        body = [
            stmt
            for stmt in node.body
            if not (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        ]
        value = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Attribute)
            and value.value.attr == "stats"
            and isinstance(value.value.value, ast.Name)
            and value.value.value.id == "self"
        ):
            forwards.append(node.name)
    assert forwards == []


def test_scalar_loops_index_the_soa_buffers():
    """The allocation and transfer loops read the struct-of-arrays
    buffers through local bindings (``received = store.received``); the
    property views on virtual and physical channels serve
    reconfiguration, the tracer, metrics and tests, never these two
    loops."""
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


def test_numpy_only_in_the_sampler():
    """numpy serves one thing: block sampling of message generation
    (``sim/sampling.py``, which falls back to the standard library).  No
    other module imports it, and the store's array-mode switch
    (``numpy_views`` / ``to_lists``) stays gone: the store is lists for
    its whole life."""
    importers, switches = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                tops = [node.module.split(".")[0]]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in ("numpy_views", "to_lists"):
                    switches.append((rel, node.name))
                continue
            else:
                continue
            if "numpy" in tops:
                importers.append(rel)
    assert importers == ["sim/sampling.py"]
    assert switches == []


def test_channels_keep_no_copy_of_the_store():
    """Dynamic simulation state lives once, in the struct-of-arrays
    store, and a virtual channel is its vid there: the router package
    defines no virtual-channel or message-source object, a message
    carries no flit supplier, the store keeps no reference back to the
    object layer, no channel object carries a busy list, a work-list
    flag or an eligibility ring of its own, and no module keeps a per-VC
    "waiting for a route" flag — membership in ``module.waiting`` is
    that fact."""
    import repro.router as router
    from repro.router.channels import PhysicalChannel
    from repro.router.messages import Message
    from repro.sim.soa import SoAState

    defined = {
        name
        for module in (router, *(getattr(router, m) for m in ("channels", "messages", "modules")))
        for name in vars(module)
    }
    assert not {"VirtualChannel", "MessageSource"} & defined
    assert not {"vc_obj", "src_bind", "channels"} & set(SoAState.__slots__)
    assert "source" not in Message.__slots__
    assert not {"busy", "active", "eligible", "vcs"} & set(PhysicalChannel.__slots__)
    named = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name == "waiting_route":
                named.append(path.relative_to(SRC).as_posix())
    assert named == []


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(topology="torus", radix=16, dims=2, fault_percent=5, fault_seed=42),
        dict(topology="torus", radix=4, dims=2, fault_percent=5),
        dict(topology="mesh", radix=6, dims=2, fault_percent=5),
        dict(topology="torus", radix=4, dims=3),
    ],
    ids=["torus16-f5", "torus4-f5", "mesh6-f5", "torus4x3"],
)
def test_a_dropped_network_is_freed_without_the_cycle_collector(kwargs):
    """A network's object graph holds no reference cycle: modules point
    at the channels they drive, and the module a channel feeds is
    ``SimNetwork.feeds[index]``, not a channel attribute.  So dropping a
    network frees it at once, and peak memory does not wait on a
    generation-2 collection (the benchmark builds and drops several
    16x16 networks in setup)."""
    import gc

    from repro.sim import SimulationConfig
    from repro.sim.network import SimNetwork

    config = SimulationConfig(rate=0.01, **kwargs)
    gc.collect()
    gc.disable()
    try:
        net = SimNetwork(config)
        assert net.channels and net.modules
        del net
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_dropped_simulator_is_freed_without_the_cycle_collector():
    """A simulator and its stages hold no reference cycle: the stages
    reach the simulator through a weak proxy, and so do an attached
    tracer and reliable transport.  So a sweep that runs one simulator
    per point on a kept network frees each one as soon as it is dropped,
    messages, queues and all."""
    import gc

    from repro.obs import TraceConfig, Tracer
    from repro.reliability import ReliableTransport
    from repro.sim import SimulationConfig, Simulator
    from repro.sim.network import SimNetwork

    config = SimulationConfig(
        radix=16, fault_percent=5, rate=0.01, warmup_cycles=10, measure_cycles=40
    )
    net = SimNetwork(config)
    attachments = {
        "nothing": lambda sim: None,
        "a tracer": lambda sim: Tracer(sim, TraceConfig(window=10)),
        "a transport": ReliableTransport,
    }
    for attached, attach in attachments.items():
        gc.collect()
        gc.disable()
        try:
            sim = Simulator(config, net)
            attach(sim)
            assert sim.run().delivered
            del sim
            assert gc.collect() == 0, f"with {attached} attached"
        finally:
            gc.enable()


def test_one_header_arbitration_loop_in_sim():
    """Header arbitration — resolve, memoize, grant, park — is one loop,
    ``AllocationStage.run``, on both cores: nothing else in ``repro.sim`` commits a hop or consults the
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
    and numpy only in the simulator package, which gates it (see
    :func:`test_numpy_only_in_the_sampler`)."""
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
