"""Tests for the experiment harnesses and CLI (at a tiny custom scale so
they run in seconds)."""

import pytest

import repro.experiments.figures as figures_module
from repro.experiments import (
    PAPER,
    QUICK,
    get_scale,
    lemma1_evidence,
    table1,
    table2,
)
from repro.experiments.cli import build_parser, main
from repro.experiments.settings import ExperimentScale

TINY = ExperimentScale(
    name="tiny",
    radix=6,
    warmup_cycles=200,
    measure_cycles=600,
    rate_grids={
        0: [0.01, 0.03],
        1: [0.01, 0.02],
        5: [0.008, 0.016],
    },
)


@pytest.fixture()
def tiny_scale(monkeypatch):
    monkeypatch.setattr(figures_module, "get_scale", lambda name="": TINY)
    return TINY


class TestScales:
    def test_named_scales(self):
        assert get_scale("quick") is QUICK
        assert get_scale("paper") is PAPER

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert get_scale() is PAPER

    def test_default_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() is QUICK

    def test_unknown(self):
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_grids_cover_all_scenarios(self):
        for scale in (QUICK, PAPER):
            assert set(scale.rate_grids) == {0, 1, 5}


class TestFigureHarnesses:
    def test_fig8_structure(self, tiny_scale):
        result = figures_module.fig8()
        assert set(result.sweeps) == {"0% faults", "1% faults", "5% faults"}
        assert result.peak_utilization("0% faults") > 0
        text = result.render()
        assert "fig8" in text and "rho_b" in text and "peak rho_b" in text

    def test_fig9_structure(self, tiny_scale):
        result = figures_module.fig9()
        assert result.name == "fig9"
        assert "mesh" in result.title

    def test_fig10_structure(self, tiny_scale):
        result = figures_module.fig10()
        assert set(result.sweeps) == {"pipelined", "unpipelined"}
        assert any("1.3x" in note or "clock" in note for note in result.notes)

    def test_throughput_summary(self, tiny_scale):
        text = figures_module.throughput_summary()
        assert "torus" in text and "mesh" in text


class TestTableHarnesses:
    def test_table1_text(self):
        text = table1()
        assert "DIM0+, DIM0-" in text
        assert "DIM2-DIM0" in text
        assert "c2" in text

    def test_table2_text(self):
        text = table2(max_dims=4)
        assert "A(3,0)" in text
        assert "n=4" in text

    def test_lemma1_evidence(self):
        assert lemma1_evidence(radix=6) == (
            "Lemma 1 evidence: channel dependency graphs are acyclic\n"
            "  torus 6x6, 0% faults: acyclic (318 designated vertices, 720 with idle-VC sharing)\n"
            "  torus 6x6, 1% faults: acyclic (328 designated vertices, 714 with idle-VC sharing)\n"
            "  torus 6x6, 5% faults: acyclic (328 designated vertices, 697 with idle-VC sharing)\n"
            "  mesh 6x6, 0% faults: acyclic (228 designated vertices, 420 with idle-VC sharing)\n"
            "  mesh 6x6, 5% faults: acyclic (253 designated vertices, 403 with idle-VC sharing)"
        )


class TestExt3d:
    def test_ext3d_runs_small(self, monkeypatch):
        import repro.experiments.extension3d as ext_module

        monkeypatch.setattr(ext_module, "get_scale", lambda name="": TINY)
        text = ext_module.ext3d()
        assert "cube fault" in text and "peak rho_b" in text


class TestChaosHarness:
    def test_chaos_report_runs_quick(self):
        from repro.experiments import chaos_report
        from repro.experiments.context import RunContext

        text = chaos_report("quick", ctx=RunContext(scale_name="quick"))
        assert "Chaos campaign" in text
        assert "degraded mode:" in text
        assert "transition window" in text


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig8", "--scale", "quick"])
        assert args.experiment == "fig8" and args.scale == "quick"

    def test_every_subcommand_accepts_shared_flags(self):
        """The same --jobs/--no-cache/--seed/--out flags parse on every
        subcommand (defined once as shared argparse parents)."""
        parser = build_parser()
        from repro.experiments.cli import _COMMANDS

        for name in sorted(_COMMANDS) + ["all"]:
            args = parser.parse_args(
                [name, "--jobs", "2", "--no-cache", "--seed", "7", "--out", "r.txt"]
            )
            assert args.jobs == 2
            assert args.cache is False
            assert args.seed == 7
            assert args.out == "r.txt"

    def test_cache_flag_default_on(self):
        args = build_parser().parse_args(["tables"])
        assert args.cache is True and args.jobs == 1 and args.seed is None

    def test_main_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 2" in out

    def test_main_writes_out_file(self, tmp_path, capsys, tiny_scale, monkeypatch):
        import repro.experiments.cli as cli_module

        monkeypatch.setitem(
            cli_module._COMMANDS, "fig8", lambda ctx: figures_module.fig8().render()
        )
        out_file = tmp_path / "report.txt"
        assert main(["fig8", "--out", str(out_file)]) == 0
        assert "fig8" in out_file.read_text()

    def test_main_reports_cache_accounting(self, tmp_path, capsys, tiny_scale, monkeypatch):
        """Two identical invocations: the second is served from the store."""
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        cold = main(["fig8", "--jobs", "1"])
        cold_err = capsys.readouterr().err
        warm = main(["fig8", "--jobs", "1"])
        warm_err = capsys.readouterr().err
        assert cold == warm == 0
        assert "cache: 0 hits" in cold_err
        assert ", 0 executed" in warm_err

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_resume_checkpoints_and_serves_on_rerun(
        self, tmp_path, capsys, tiny_scale, monkeypatch
    ):
        """--resume DIR: the first run writes a checkpoint under DIR;
        the identical re-run executes nothing."""
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        ckpt = tmp_path / "ckpt"
        cold = main(["fig8", "--jobs", "1", "--resume", str(ckpt)])
        cold_out = capsys.readouterr()
        warm = main(["fig8", "--jobs", "1", "--resume", str(ckpt)])
        warm_out = capsys.readouterr()
        assert cold == warm == 0
        assert "cache: 0 hits" in cold_out.err
        assert ", 0 executed" in warm_out.err
        assert cold_out.out == warm_out.out  # the visible report is identical
        assert list(ckpt.glob("*/manifest.json"))
        assert list(ckpt.glob("*/done.jsonl"))

    def test_resume_requires_the_store(self):
        with pytest.raises(SystemExit, match="--resume needs the result store"):
            main(["fig8", "--resume", "ckpt", "--no-cache"])

    def test_fsck_subcommand(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "store"))
        assert main(["fsck"]) == 0
        out = capsys.readouterr().out
        assert "fsck" in out and "store is clean" in out

    def test_policy_flags_build_an_exec_policy(self):
        from repro.exec import ExecPolicy
        from repro.experiments.cli import _make_context

        ctx = _make_context(build_parser().parse_args(["fig8"]))
        assert ctx.policy is None  # defaults stay with the executor
        ctx = _make_context(
            build_parser().parse_args(
                ["fig8", "--task-timeout", "1.5", "--retries", "5"]
            )
        )
        assert ctx.policy == ExecPolicy(task_timeout=1.5, max_attempts=5)
        ctx = _make_context(
            build_parser().parse_args(["fig8", "--task-timeout", "2.0"])
        )
        assert ctx.policy.task_timeout == 2.0
        assert ctx.policy.max_attempts == ExecPolicy().max_attempts

    def test_infra_line_absent_on_healthy_runs(self, capsys):
        assert main(["tables"]) == 0
        assert "[repro] infra:" not in capsys.readouterr().err

    def test_infra_line_reports_retries(self, capsys, monkeypatch):
        """The infra summary appears iff something infra-level happened,
        and result accounting (the cache line CI greps) is untouched."""
        import repro.experiments.cli as cli_module
        from repro.exec import ExecutionStats

        def fake_runner(ctx):
            ctx.totals.infra_retries = 2
            ctx.totals.infra_crashes = 2
            ctx.totals.quarantined = 1
            return "report"

        monkeypatch.setitem(cli_module._COMMANDS, "fig8", fake_runner)
        assert main(["fig8", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "[repro] infra: 2 retries (2 crashes, 0 timeouts, 0 hung), " \
            "1 quarantined" in err
        assert "cache: 0 hits" in err


class TestInfraJson:
    def test_machine_readable_stats_line(self, capsys):
        """Every invocation emits the ExecutionStats JSON twin of the
        human cache/infra lines — same schema the service's /status
        serves."""
        import json as json_module

        assert main(["tables"]) == 0
        err = capsys.readouterr().err
        lines = [l for l in err.splitlines() if l.startswith("[repro] infra-json: ")]
        assert len(lines) == 1
        payload = json_module.loads(lines[0][len("[repro] infra-json: "):])
        for key in (
            "total", "cache_hits", "hit_ratio", "executed",
            "infra_retries", "infra_crashes", "infra_timeouts",
            "infra_hung", "quarantined",
        ):
            assert key in payload
        assert payload["infra_failures"] == (
            payload["infra_crashes"] + payload["infra_timeouts"] + payload["infra_hung"]
        )


class TestServiceForwarding:
    def test_service_subcommands_listed_in_help(self):
        parser = build_parser()
        help_text = parser.format_help()
        for name in ("serve", "submit", "status"):
            assert name in help_text

    def test_forwards_to_service_cli(self, capsys):
        """`repro-experiments status --root <empty>` forwards to
        repro.service and fails cleanly (no server.json there)."""
        import tempfile

        with tempfile.TemporaryDirectory() as empty:
            code = main(["status", "--root", empty, "--attempts", "1"])
        assert code == 2
        assert "repro.service:" in capsys.readouterr().err
