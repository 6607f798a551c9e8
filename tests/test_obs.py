"""Observability subsystem tests: the tracer's event taxonomy, the
flight recorder, the windowed time series, the exporters' schema
round-trips, and the Experiment/CLI trace plumbing.

The non-perturbation contract (traced runs are bit-for-bit identical to
untraced ones on both engine cores) lives in tests/test_engine_parity.py.
"""

import json

import pytest

from repro.analysis import deadlock_report, hotspot_report
from repro.canonical import from_data, to_data
from repro.api import Experiment
from repro.obs import (
    BLOCKED,
    DELIVER,
    EVENT_KINDS,
    EXEC_EVENT_KINDS,
    GENERATE,
    INJECT,
    MISROUTE_ENTER_RING,
    RETRANSMIT,
    TRANSFER,
    TRUNCATE,
    VC_ALLOC,
    ExecEvent,
    FlightRecorder,
    TraceConfig,
    TraceEvent,
    Tracer,
    events_to_jsonl,
    export_trace,
    read_jsonl,
    series_to_csv,
    to_chrome_trace,
    validate_chrome_trace,
    validate_event,
    validate_exec_event,
    write_jsonl,
)
from repro.reliability import ReliabilityConfig, ReliableTransport
from repro.sim import DeadlockError, SimulationConfig, Simulator

from .channel_helpers import freeze_every_worm


def faulty_config(**kwargs):
    defaults = dict(
        topology="torus", radix=8, dims=2, fault_percent=5,
        rate=0.012, warmup_cycles=200, measure_cycles=800, seed=7,
    )
    defaults.update(kwargs)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def traced_faulty_run():
    sim = Simulator(faulty_config())
    tracer = Tracer(sim, TraceConfig(window=100))
    result = sim.run()
    return sim, tracer, result


# ----------------------------------------------------------------------
# event emission
# ----------------------------------------------------------------------


class TestEventEmission:
    def test_lifecycle_kinds_present_on_faulty_run(self, traced_faulty_run):
        _, tracer, result = traced_faulty_run
        counts = tracer.counts()
        for kind in (GENERATE, INJECT, VC_ALLOC, TRANSFER, BLOCKED, DELIVER):
            assert counts[kind] > 0, f"no {kind} events recorded"
        assert counts[DELIVER] >= result.delivered

    def test_misroute_events_on_faulty_run(self, traced_faulty_run):
        _, tracer, result = traced_faulty_run
        assert result.misrouted_messages > 0
        assert tracer.counts()[MISROUTE_ENTER_RING] > 0

    def test_no_misroute_events_without_faults(self):
        sim = Simulator(faulty_config(fault_percent=0, measure_cycles=400))
        tracer = Tracer(sim, TraceConfig(window=0))
        sim.run()
        counts = tracer.counts()
        assert counts[MISROUTE_ENTER_RING] == 0
        assert counts[DELIVER] > 0

    def test_events_validate_against_schema(self, traced_faulty_run):
        _, tracer, _ = traced_faulty_run
        for event in tracer.events[:500]:
            assert validate_event(to_data(event)) == []

    def test_deliver_follows_inject_per_message(self, traced_faulty_run):
        _, tracer, _ = traced_faulty_run
        injected_at = {}
        for event in tracer.events:
            if event.kind == INJECT:
                injected_at.setdefault(event.msg_id, event.cycle)
            elif event.kind == DELIVER and event.msg_id in injected_at:
                assert event.cycle > injected_at[event.msg_id]

    def test_event_log_cap_counts_drops(self):
        sim = Simulator(faulty_config(measure_cycles=400))
        tracer = Tracer(sim, TraceConfig(window=0, max_events=50))
        sim.run()
        assert len(tracer.events) == 50
        assert tracer.dropped_events > 0
        # the flight recorder keeps recording past the cap
        assert tracer.recorder.seen == 50 + tracer.dropped_events

    def test_double_attach_rejected(self):
        sim = Simulator(faulty_config())
        Tracer(sim)
        with pytest.raises(ValueError):
            Tracer(sim)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(window=-1)
        with pytest.raises(ValueError):
            TraceConfig(capacity=0)
        with pytest.raises(ValueError):
            TraceConfig(formats=("jsonl", "parquet"))


class TestTruncateAndRetransmit:
    def run_with_mid_run_fault(self, transport=False):
        sim = Simulator(SimulationConfig(
            topology="torus", radix=8, dims=2, rate=0.0,
            warmup_cycles=0, measure_cycles=10,
        ))
        if transport:
            ReliableTransport(sim, ReliabilityConfig(timeout=400))
        tracer = Tracer(sim, TraceConfig(window=0))
        message = sim.inject_message((0, 0), (5, 0))
        link = None
        store = sim.net.store
        for _ in range(100):
            sim.step()
            for channel in sim.net.channels:
                if channel.kind.value != "internode":
                    continue
                if any(store.msg[vid] is message for vid in store.busy_vids(channel.index)):
                    link = (channel.src_node, channel.dim, int(channel.direction))
                    break
            if link is not None:
                break
        assert link is not None
        report = sim.inject_runtime_fault(links=[link])
        sim.drain()
        return sim, tracer, message, report

    def test_truncate_event_on_runtime_fault_kill(self):
        _, tracer, message, report = self.run_with_mid_run_fault()
        assert message.msg_id in report.lost_message_ids
        truncates = [e for e in tracer.events if e.kind == TRUNCATE]
        assert any(e.msg_id == message.msg_id for e in truncates)

    def test_window_loss_report_carries_trace_tail(self):
        _, _, message, report = self.run_with_mid_run_fault()
        assert report.trace_tail, "lost-message report should carry history"
        assert all(e.msg_id == message.msg_id for e in report.trace_tail)

    def test_retransmit_event_with_transport(self):
        _, tracer, message, _ = self.run_with_mid_run_fault(transport=True)
        retransmits = [e for e in tracer.events if e.kind == RETRANSMIT]
        assert retransmits, "fault kill should trigger a traced retransmit"
        assert retransmits[0].attempt >= 1
        # the retransmitted copy gets a fresh generate/deliver lifecycle
        delivered = [e for e in tracer.events if e.kind == DELIVER]
        assert any(e.attempt >= 1 for e in delivered)


# ----------------------------------------------------------------------
# flight recorder + deadlock post-mortems
# ----------------------------------------------------------------------


class TestFlightRecorder:
    @staticmethod
    def event(cycle, msg_id=1, kind=TRANSFER):
        return TraceEvent(cycle, kind, msg_id, (0, 0), (1, 1))

    def test_bounded_and_ordered(self):
        recorder = FlightRecorder(capacity=4)
        for cycle in range(10):
            recorder.append(self.event(cycle))
        assert len(recorder) == 4
        assert recorder.seen == 10
        assert [e.cycle for e in recorder.tail()] == [6, 7, 8, 9]
        assert [e.cycle for e in recorder.tail(limit=2)] == [8, 9]

    def test_tail_for_filters_by_message(self):
        recorder = FlightRecorder(capacity=8)
        for cycle in range(8):
            recorder.append(self.event(cycle, msg_id=cycle % 2))
        tail = recorder.tail_for([0])
        assert [e.cycle for e in tail] == [0, 2, 4, 6]
        assert [e.cycle for e in recorder.tail_for([0], limit=1)] == [6]

    def stalled_sim(self, tracer=True):
        sim = Simulator(SimulationConfig(
            topology="torus", radix=8, dims=2, rate=0.0,
            warmup_cycles=0, measure_cycles=10, deadlock_threshold=50,
        ))
        if tracer:
            Tracer(sim, TraceConfig(window=0))
        message = sim.inject_message((0, 0), (4, 0))
        sim.step()
        with pytest.raises(DeadlockError) as excinfo:
            for _ in range(200):
                freeze_every_worm(sim)
                sim.step()
        return message, excinfo.value

    def test_deadlock_error_carries_trace_tail(self):
        message, error = self.stalled_sim()
        assert error.trace_tail
        assert any(e.msg_id == message.msg_id for e in error.trace_tail)
        assert "last recorded events for stuck worms" in error.report

    def test_deadlock_report_renders_history(self):
        message, error = self.stalled_sim()
        text = deadlock_report(error)
        assert f"cycle {error.cycle}" in text
        assert "inject" in text or "vc_alloc" in text

    def test_deadlock_report_hints_when_untraced(self):
        _, error = self.stalled_sim(tracer=False)
        assert error.trace_tail == []
        assert "attach a Tracer" in deadlock_report(error)


# ----------------------------------------------------------------------
# time series
# ----------------------------------------------------------------------


class TestTimeSeries:
    def test_samples_at_window_boundaries(self, traced_faulty_run):
        _, tracer, _ = traced_faulty_run
        series = tracer.series
        assert series.samples
        assert all(s.cycle % series.window == 0 for s in series.samples)
        cycles = [s.cycle for s in series.samples]
        assert cycles == sorted(cycles)

    def test_utilization_bounds_and_channel_split(self, traced_faulty_run):
        sim, tracer, _ = traced_faulty_run
        for s in tracer.series.samples:
            assert 0.0 <= s.ring_utilization <= 1.0
            assert 0.0 <= s.other_utilization <= 1.0
            assert s.ring_channels > 0  # 5% faults always build rings
            assert len(s.vc_occupancy) == sim.net.base_classes

    def test_dynamic_gap_matches_static_hotspot(self, traced_faulty_run):
        """The time series must reproduce hotspot_report's story: f-ring
        channels run hotter, and not just in the end-of-run aggregate."""
        sim, tracer, _ = traced_faulty_run
        static = hotspot_report(sim)
        assert static["f-ring"].mean_utilization > static["other"].mean_utilization
        assert tracer.series.mean_ring_gap() > 0

    def test_window_zero_disables_series(self):
        sim = Simulator(faulty_config(measure_cycles=300))
        tracer = Tracer(sim, TraceConfig(window=0))
        sim.run()
        assert tracer.series is None


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_jsonl_round_trip(self, traced_faulty_run, tmp_path):
        _, tracer, _ = traced_faulty_run
        path = write_jsonl(tracer.events, tmp_path / "events.jsonl")
        assert read_jsonl(path) == tracer.events

    def test_jsonl_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = events_to_jsonl([TraceEvent(1, DELIVER, 7, (0, 0), (1, 1))])
        path.write_text(good + '{"cycle": -3, "kind": "warp"}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            read_jsonl(path)

    def test_csv_shape(self, traced_faulty_run):
        sim, tracer, _ = traced_faulty_run
        text = series_to_csv(tracer.series)
        lines = text.strip().splitlines()
        assert len(lines) == len(tracer.series.samples) + 1
        header = lines[0].split(",")
        assert header[:2] == ["cycle", "window"]
        assert header[-sim.net.base_classes:] == [
            f"c{i}_busy" for i in range(sim.net.base_classes)
        ]
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_chrome_trace_validates(self, traced_faulty_run):
        _, tracer, _ = traced_faulty_run
        payload = to_chrome_trace(tracer.events, tracer.series)
        assert validate_chrome_trace(payload) == []
        phases = {entry["ph"] for entry in payload["traceEvents"]}
        assert phases == {"b", "e", "i", "C"}

    def test_chrome_spans_balanced(self, traced_faulty_run):
        _, tracer, _ = traced_faulty_run
        payload = to_chrome_trace(tracer.events)
        opens = [e["id"] for e in payload["traceEvents"] if e["ph"] == "b"]
        closes = [e["id"] for e in payload["traceEvents"] if e["ph"] == "e"]
        assert len(opens) == len(set(opens))
        assert len(closes) == len(set(closes))
        assert set(closes) <= set(opens)

    def test_chrome_validator_catches_problems(self):
        bad = {"traceEvents": [
            {"name": "x", "ph": "z", "pid": 1, "ts": 0},
            {"name": "not-a-kind", "ph": "i", "pid": 1, "ts": 1},
            {"name": "c", "ph": "C", "pid": 2, "ts": -1},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 3
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace({"traceEvents": "nope"})

    def test_export_trace_writes_all_formats(self, traced_faulty_run, tmp_path):
        _, tracer, _ = traced_faulty_run
        paths = export_trace(tracer, tmp_path / "out", "run1")
        names = sorted(p.name for p in paths)
        assert names == [
            "run1.events.jsonl", "run1.series.csv", "run1.trace.json",
        ]
        assert all(p.exists() for p in paths)
        payload = json.loads((tmp_path / "out" / "run1.trace.json").read_text())
        assert validate_chrome_trace(payload) == []

    def test_export_trace_respects_format_subset(self, traced_faulty_run, tmp_path):
        _, tracer, _ = traced_faulty_run
        paths = export_trace(tracer, tmp_path, "sub", formats=("jsonl",))
        assert [p.name for p in paths] == ["sub.events.jsonl"]

    def test_validate_cli_on_exports(self, traced_faulty_run, tmp_path):
        from repro.obs.validate import main

        _, tracer, _ = traced_faulty_run
        paths = export_trace(tracer, tmp_path, "v")
        assert main([str(p) for p in paths]) == 0
        bad = tmp_path / "broken.trace.json"
        bad.write_text('{"traceEvents": [{"ph": "q"}]}')
        assert main([str(bad)]) == 1

    def test_validate_cli_names_the_bad_field(self, traced_faulty_run, tmp_path, capsys):
        from repro.obs.validate import main

        _, tracer, _ = traced_faulty_run
        good = to_data(tracer.events[0])
        bad = tmp_path / "bad.events.jsonl"
        lines = [dict(good, cycle=-1), dict(good, color="red"), dict(good, kind="warp")]
        bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
        capsys.readouterr()
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "line 1: cycle: -1 below minimum 0" in out
        assert "line 2: color: unknown field" in out
        assert "line 3: kind: 'warp' not one of" in out


# ----------------------------------------------------------------------
# Experiment / executor plumbing
# ----------------------------------------------------------------------


class TestExperimentTracing:
    CONFIG = dict(
        topology="torus", radix=8, dims=2, fault_percent=1,
        rate=0.01, warmup_cycles=200, measure_cycles=600, seed=5,
    )

    def test_traced_point_exports_and_matches_untraced(self, tmp_path):
        config = SimulationConfig(**self.CONFIG)
        plain = Experiment.point(config).run(jobs=1, cache=False)
        trace = TraceConfig(out_dir=str(tmp_path / "traces"))
        traced = Experiment.point(config, trace=trace).run(jobs=1, cache=False)
        assert list(plain) == list(traced), "tracing perturbed the results"
        files = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert len(files) == 3
        assert any(name.endswith(".trace.json") for name in files)

    def test_traced_parallel_sweep_exports_per_point(self, tmp_path):
        config = SimulationConfig(**self.CONFIG)
        trace = TraceConfig(out_dir=str(tmp_path / "traces"), events=False)
        sweep = Experiment.sweep(config, [0.006, 0.01], trace=trace)
        results = sweep.run(jobs=2, cache=False)
        assert len(results) == 2
        stems = {p.name.split(".")[0] for p in (tmp_path / "traces").iterdir()}
        assert len(stems) == 2, "each point should export under its own stem"

    def test_traced_tasks_bypass_store_loads(self, tmp_path):
        from repro.exec import ResultStore

        store = ResultStore(tmp_path / "store")
        config = SimulationConfig(**self.CONFIG)
        Experiment.point(config).run(jobs=1, store=store)
        trace = TraceConfig(out_dir=str(tmp_path / "traces"))
        traced = Experiment.point(config, trace=trace).run(jobs=1, store=store)
        assert traced.stats.cache_hits == 0, (
            "a cache-served trace run would produce no trace files"
        )
        assert (tmp_path / "traces").exists()


class TestCliTracing:
    def test_trace_flags_parse(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["fig8", "--trace", "--trace-out", "/tmp/t", "--trace-window", "50"]
        )
        assert args.trace and args.trace_out == "/tmp/t"
        assert args.trace_window == 50

    def test_trace_subcommand_listed(self):
        from repro.experiments.cli import _COMMANDS, _DESCRIPTIONS

        assert "trace" in _COMMANDS
        assert "trace" in _DESCRIPTIONS

    def test_trace_report_runs_and_exports(self, tmp_path, monkeypatch):
        from repro.experiments.context import RunContext
        from repro.experiments.tracecmd import trace_report

        monkeypatch.chdir(tmp_path)
        ctx = RunContext(
            scale_name="quick",
            trace=TraceConfig(out_dir=str(tmp_path / "traces"), window=100),
        )
        text = trace_report(ctx=ctx)
        assert "Event counts" in text
        assert "Hotspot gap" in text
        assert list((tmp_path / "traces").glob("trace-*.trace.json"))


# ----------------------------------------------------------------------
# taxonomy sanity
# ----------------------------------------------------------------------


class TestTaxonomy:
    def test_kind_constants_cover_the_frozen_set(self):
        assert {
            GENERATE, INJECT, VC_ALLOC, TRANSFER, MISROUTE_ENTER_RING,
            BLOCKED, DELIVER, TRUNCATE, RETRANSMIT,
        } == EVENT_KINDS

    def test_validate_event_rejects_unknown_fields(self):
        data = to_data(TraceEvent(1, DELIVER, 2, (0, 0), (1, 1)))
        data["color"] = "red"
        assert any("unknown field" in p for p in validate_event(data))

    @pytest.mark.parametrize(
        "name, value",
        [
            ("cycle", -1),
            ("msg_id", True),  # a bool is not an int
            ("vc_class", -2),
            ("src", 5),  # not a list
            ("node", [0, "1"]),
            ("kind", "warp"),
            ("color", "red"),
        ],
    )
    def test_validate_event_names_the_bad_field(self, name, value):
        data = to_data(TraceEvent(1, DELIVER, 2, (0, 0), (1, 1)))
        data[name] = value
        problems = validate_event(data)
        assert problems and all(p.startswith((f"{name}:", f"{name}[")) for p in problems), problems

    def test_validate_event_requires_required_fields(self):
        assert validate_event({"kind": DELIVER})
        assert any(
            "missing" in p for p in validate_event({"kind": DELIVER})
        )


# ----------------------------------------------------------------------
# executor-infrastructure events
# ----------------------------------------------------------------------


class TestExecEvents:
    def exec_events(self):
        return [
            ExecEvent(kind="task_crash", task_index=3, attempt=1,
                      key="a" * 64, detail="worker exited with code 1"),
            ExecEvent(kind="task_retry", task_index=3, attempt=2,
                      key="a" * 64, detail="retrying after crash"),
            ExecEvent(kind="task_quarantine", task_index=5, attempt=3),
        ]

    def test_kinds_cover_the_frozen_set(self):
        assert EXEC_EVENT_KINDS == {
            "task_retry", "task_timeout", "task_crash", "task_hung",
            "task_quarantine",
        }
        assert EXEC_EVENT_KINDS.isdisjoint(EVENT_KINDS)

    def test_dict_round_trip_validates(self):
        for event in self.exec_events():
            data = to_data(event)
            assert validate_exec_event(data) == []
            assert from_data(ExecEvent, data) == event

    def test_validation_rejects_bad_events(self):
        assert validate_exec_event({"kind": "task_crash"})  # missing fields
        bad_kind = to_data(ExecEvent(kind="task_warp", task_index=0, attempt=1))
        assert validate_exec_event(bad_kind)
        extra = to_data(self.exec_events()[0])
        extra["when"] = 12345  # wall-clock time would break determinism
        assert any("unknown field" in p for p in validate_exec_event(extra))
        zero = to_data(ExecEvent(kind="task_crash", task_index=0, attempt=0))
        assert validate_exec_event(zero) == ["attempt: 0 below minimum 1"]
        negative = to_data(ExecEvent(kind="task_crash", task_index=-1, attempt=1))
        assert validate_exec_event(negative) == ["task_index: -1 below minimum 0"]

    def test_jsonl_round_trip(self, tmp_path):
        events = self.exec_events()
        path = write_jsonl(events, tmp_path / "sweep.exec.jsonl")
        assert read_jsonl(path) == events

    def test_read_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.exec.jsonl"
        write_jsonl(self.exec_events(), path)
        with open(path, "a") as handle:
            handle.write('{"kind": "task_warp", "task_index": 0, "attempt": 1}\n')
        with pytest.raises(ValueError, match="bad.exec.jsonl:4"):
            read_jsonl(path)

    def test_validator_cli_routes_on_double_suffix(self, tmp_path):
        """python -m repro.obs.validate must apply the exec schema to
        *.exec.jsonl and the lifecycle schema to every other *.jsonl."""
        from repro.obs.validate import validate_jsonl_file

        exec_path = write_jsonl(
            self.exec_events(), tmp_path / "sweep.exec.jsonl"
        )
        assert validate_jsonl_file(exec_path) == []
        # the same payload under a lifecycle name must NOT validate
        plain = tmp_path / "sweep.events.jsonl"
        plain.write_text(exec_path.read_text())
        assert validate_jsonl_file(plain)

    def test_validator_main_accepts_exec_exports(self, tmp_path, capsys):
        from repro.obs.validate import main as validate_main

        path = write_jsonl(self.exec_events(), tmp_path / "s.exec.jsonl")
        assert validate_main([str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_experiment_exports_exec_events_when_traced(
        self, tmp_path, monkeypatch
    ):
        """An infra incident during a traced experiment lands in
        <label>.exec.jsonl next to the other trace files."""
        import repro.api as api_module
        from repro.exec import ExecutionStats

        config = SimulationConfig(
            topology="torus", radix=6, dims=2, rate=0.01,
            warmup_cycles=0, measure_cycles=10, seed=1,
        )
        payload = Simulator(config).run()

        def execute_with_incidents(tasks, **kwargs):
            stats = ExecutionStats(total=len(tasks), executed=len(tasks))
            stats.infra_events.extend(self.exec_events())
            return [payload] * len(tasks), stats

        monkeypatch.setattr(api_module, "execute", execute_with_incidents)
        trace = TraceConfig(out_dir=str(tmp_path / "traces"))
        Experiment.point(config, trace=trace).run(jobs=1, cache=False)
        (path,) = (tmp_path / "traces").glob("*.exec.jsonl")
        assert len(read_jsonl(path)) == 3
