"""Smoke tests for the routing-policy arena harness."""

import importlib

import pytest

from repro.experiments import ArenaResult, FigureResult, arena
from repro.experiments.settings import ExperimentScale

# the package re-exports the arena() function under the module's name,
# so resolve the module itself for monkeypatching
arena_module = importlib.import_module("repro.experiments.arena")

# A miniature scale so the tournament finishes in test time.  Radix 6 is
# the smallest even torus with room for f-rings.
TINY = ExperimentScale(
    name="quick",
    radix=6,
    warmup_cycles=100,
    measure_cycles=300,
    rate_grids={
        0: [0.008, 0.016],
        1: [0.006, 0.012],
        5: [0.005, 0.010],
    },
)


@pytest.fixture
def tiny_scale(monkeypatch):
    monkeypatch.setattr(arena_module, "get_scale", lambda name="": TINY)


def run_tiny(**kwargs):
    kwargs.setdefault("topologies", ("torus",))
    kwargs.setdefault("fault_percents", (0,))
    kwargs.setdefault("policies", ("ft", "ecube"))
    return arena("quick", **kwargs)


@pytest.fixture(scope="module")
def default_roster_result():
    """The default-roster tournament over the fault-free and 1% rows,
    run once for the tests that only read it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arena_module, "get_scale", lambda name="": TINY)
        return run_tiny(fault_percents=(0, 1), policies=None)


class TestArena:
    def test_table_renders(self, tiny_scale):
        result = run_tiny()
        assert isinstance(result, ArenaResult)
        assert isinstance(result, FigureResult)  # --json compatibility
        text = result.render()
        assert "static verification" in text
        assert "tournament (load sweeps" in text
        assert "ft" in text and "ecube" in text
        assert "rho_b %" in text

    def test_cells_and_sweeps_consistent(self, default_roster_result):
        result = default_roster_result
        assert result.cells, "tournament produced no cells"
        for cell in result.cells:
            assert cell.swept == (cell.coverage == 1.0)
            assert (cell.label in result.sweeps) == cell.swept
            assert cell.cdg_vertices > 0
            if cell.swept:
                # one result per rate in the thinned grid
                expected = len(TINY.rate_grids[cell.fault_percent][::2])
                assert len(result.sweeps[cell.label]) == expected
        # plain e-cube joins the default roster only in fault-free rows
        assert result.cell("ecube", "torus", 0)
        with pytest.raises(KeyError):
            result.cell("ecube", "torus", 1)

    def test_rerun_is_bit_identical(self, tiny_scale):
        first = run_tiny().render()
        second = run_tiny().render()
        assert first == second

    def test_partial_coverage_cells_are_noted(self, default_roster_result):
        result = default_roster_result
        skipped = [cell for cell in result.cells if not cell.swept]
        for cell in skipped:
            assert any(cell.label in note for note in result.notes)

    def test_cli_registration(self):
        from repro.experiments.cli import _COMMANDS, _DESCRIPTIONS, build_parser

        assert "arena" in _COMMANDS
        assert "arena" in _DESCRIPTIONS
        args = build_parser().parse_args(["arena", "--scale", "quick"])
        assert args.experiment == "arena"


class TestRuntimeFaultCells:
    def test_default_roster_replays_runtime_cells(self, tiny_scale):
        """With the default roster the arena also ranks policies under
        staged mid-run reconfiguration (the PR 7 follow-up)."""
        result = run_tiny(fault_percents=(0,), policies=None)
        assert [c.policy for c in result.runtime_cells] == list(
            arena_module.RUNTIME_FAULT_POLICIES
        )
        events, _start, _interval, latency = arena_module._RUNTIME_SHAPE["quick"]
        for cell in result.runtime_cells:
            assert cell.topology == "torus"
            assert cell.events == events
            assert cell.detection_latency == latency
            if cell.survived:
                assert 0 <= cell.applied_events <= cell.events
            else:
                assert cell.error
        text = result.render()
        assert "runtime-fault tournament" in text
        assert any("runtime-fault cells replayed" in note for note in result.notes)

    def test_explicit_roster_skips_runtime_cells(self, tiny_scale):
        """Explicit rosters (the CI smoke's cold/warm cache assertion)
        must never trigger the non-cacheable campaign replays."""
        result = run_tiny()
        assert result.runtime_cells == []
        assert "runtime-fault tournament" not in result.render()
