"""Tests for wait-for blame attribution (repro.obs.blame).

Covers the parsing helpers, the top-K outlier reservoir, the
conservation invariant on real figure runs with faults enabled, the
serial/parallel absorb byte-identity, SLO monitoring, and the
``python -m repro blame`` CLI surface.
"""

import json
import pickle

import pytest

from repro.__main__ import main
from repro.api import JobConfig, Testbed
from repro.core.figures import run_figure
from repro.core.runners import config_point
from repro.core.sweep import ExperimentSpec, SweepEngine
from repro.obs import (
    JSONL_SCHEMA,
    BlameConfig,
    BlameRecorder,
    Observability,
    SloSpec,
    WaitEdge,
    blame_report_html,
    blame_table,
    format_ns,
    parse_duration_ns,
    trace_jsonl_lines,
    verify_blame_conservation,
    write_trace_jsonl,
)
from repro.obs.blame import DEFAULT_TOP, union_ns
from repro.sim import engine as sim_engine

#: Small-device overrides that force GC within ~2 ms of simulated time
#: (same shape as tests/test_obs_telemetry.py).
GC_OVERRIDES = (
    ("channels", 1),
    ("ways_per_channel", 2),
    ("blocks_per_die", 16),
    ("pages_per_block", 32),
    ("write_buffer_units", 32),
)


def gc_point(io_count=400, key="gc", rw="randwrite", **extra):
    return config_point(
        "ull",
        rw,
        io_count=io_count,
        config_overrides=GC_OVERRIDES,
        want_device=True,
        key=key,
        **extra,
    )


def blame_bundle(**config):
    return Observability(blame=BlameConfig(**config))


def run_small_job(rw="randread", io_count=200):
    """One real stack run; returns (JobResult, sim events executed)."""
    before = sim_engine.events_executed_total
    result, _ = Testbed(device="ull").run_job(
        JobConfig(rw=rw, engine="psync", io_count=io_count), want_device=True
    )
    return result, sim_engine.events_executed_total - before


# ----------------------------------------------------------------------
# Parsing helpers
# ----------------------------------------------------------------------
class TestParseDuration:
    def test_units(self):
        assert parse_duration_ns("150us") == 150_000
        assert parse_duration_ns("1.5ms") == 1_500_000
        assert parse_duration_ns("2s") == 2_000_000_000
        assert parse_duration_ns("500ns") == 500
        assert parse_duration_ns("750") == 750  # bare = ns

    def test_rejects_nonpositive_and_garbage(self):
        for bad in ("0us", "-5ms", "", "fast", "10 parsecs"):
            with pytest.raises(ValueError):
                parse_duration_ns(bad)

    def test_format_round_trips_magnitudes(self):
        assert format_ns(500) == "500ns"
        assert "us" in format_ns(150_000)
        assert "ms" in format_ns(1_500_000)
        assert format_ns(2_000_000_000).endswith("s")


class TestSloSpec:
    def test_parse_full(self):
        spec = SloSpec.parse("read:150us@0.999")
        assert spec.op == "read"
        assert spec.threshold_ns == 150_000
        assert spec.objective == 0.999

    def test_parse_percent_objective(self):
        assert SloSpec.parse("write:1ms@99.5%").objective == pytest.approx(0.995)

    def test_objective_defaults(self):
        assert SloSpec.parse("*:200us").objective == 0.999

    def test_wildcard_matches_everything(self):
        spec = SloSpec.parse("*:200us")
        assert spec.matches("read") and spec.matches("write")
        assert not SloSpec.parse("read:200us").matches("write")

    def test_parse_errors(self):
        for bad in ("read", "read:", ":150us", "read:150us@2", "read:0us"):
            with pytest.raises(ValueError):
                SloSpec.parse(bad)

    def test_equality_and_hash(self):
        a = SloSpec.parse("read:150us@0.999")
        b = SloSpec.parse("read:150us@0.999")
        assert a == b and hash(a) == hash(b)
        assert a != SloSpec.parse("read:151us@0.999")


class TestBlameConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="reservoir"):
            BlameConfig(top=0)
        with pytest.raises(ValueError, match="period"):
            BlameConfig(period_ns=0)

    def test_config_pickles(self):
        config = BlameConfig(slos=(SloSpec.parse("read:150us"),))
        clone = pickle.loads(pickle.dumps(config))
        assert clone.slos == config.slos


# ----------------------------------------------------------------------
# Union / reservoir mechanics
# ----------------------------------------------------------------------
def _edge(start, end, resource="r", holder="h"):
    return WaitEdge(resource, holder, start, end)


class TestUnion:
    def test_disjoint_and_overlapping(self):
        assert union_ns(()) == 0
        assert union_ns((_edge(0, 10),)) == 10
        assert union_ns((_edge(0, 10), _edge(20, 30))) == 20
        assert union_ns((_edge(0, 10), _edge(5, 15))) == 15
        assert union_ns((_edge(0, 30), _edge(5, 15))) == 30


def _trace_stub(recorder, io_id, latency, waits=(), op="read", pid=1):
    """Feed a minimal fake finished trace into a recorder."""

    class Stub:
        pass

    stub = Stub()
    stub.io_id = io_id
    stub.pid = pid
    stub.op = op
    stub.offset = 0
    stub.nbytes = 4096
    stub.start_ns = 0
    stub.end_ns = latency
    stub._waits = list(waits)
    stub.phases = lambda: []
    recorder.observe(stub)


class TestReservoir:
    def test_keeps_exactly_top_k_slowest(self):
        recorder = BlameRecorder(BlameConfig(top=3))
        for io_id, latency in enumerate((50, 10, 90, 30, 70, 20, 60)):
            _trace_stub(recorder, io_id, latency)
        [(key, records)] = recorder.groups()
        assert key == ("sim1", "read")
        assert [r.latency_ns for r in records] == [90, 70, 60]
        assert recorder.observed == 7

    def test_ties_break_on_pid_then_io_id(self):
        recorder = BlameRecorder(BlameConfig(top=2))
        for io_id in (5, 1, 3):
            _trace_stub(recorder, io_id, 40)
        [(_key, records)] = recorder.groups()
        assert [r.io_id for r in records] == [1, 3]

    def test_edges_clamped_to_request_window(self):
        recorder = BlameRecorder(BlameConfig(top=1))
        _trace_stub(
            recorder, 0, 100,
            waits=[_edge(-50, 30), _edge(80, 400), _edge(200, 300)],
        )
        [(_key, [record])] = recorder.groups()
        assert [(e.start_ns, e.end_ns) for e in record.edges] == [(0, 30), (80, 100)]
        assert record.wait_ns == 50
        assert record.service_ns == 50

    def test_blamed_shares_sum_with_service_to_one(self):
        recorder = BlameRecorder(BlameConfig(top=1))
        _trace_stub(
            recorder, 0, 100,
            waits=[_edge(0, 40, "die", "gc"), _edge(20, 60, "ch", "xfer")],
        )
        [(_key, [record])] = recorder.groups()
        shares = record.blamed_shares()
        assert record.wait_ns == 60  # union of [0,40] and [20,60]
        total = sum(share for _r, _h, share in shares)
        assert total == pytest.approx(record.wait_ns / record.latency_ns)
        assert total + record.service_ns / record.latency_ns == pytest.approx(1.0)

    def test_absorb_rebases_pid_and_io_id(self):
        parent = BlameRecorder(BlameConfig(top=4))
        parent.scope.new_sim()
        parent.scope.label_device("ull")
        parent.scope.next_io_id = 7
        _trace_stub(parent, 0, 50)
        worker = BlameRecorder(BlameConfig(top=4))
        worker.scope.new_sim()
        worker.scope.label_device("ull")
        _trace_stub(worker, 0, 80)
        parent.absorb(worker, parent.scope.absorb(worker.scope))
        [(_key, records)] = parent.groups()
        assert [(r.pid, r.io_id) for r in records] == [(2, 7), (1, 0)]
        assert parent.scope.device_labels == {1: "ull", 2: "ull"}
        assert parent.observed == 2


# ----------------------------------------------------------------------
# SLO monitor
# ----------------------------------------------------------------------
class TestSloMonitor:
    def test_attainment_and_burn(self):
        spec = SloSpec.parse("read:60ns@0.9")
        recorder = BlameRecorder(BlameConfig(slos=(spec,), period_ns=100))
        recorder.scope.new_sim()
        for io_id, latency in enumerate((10, 20, 70, 90)):
            _trace_stub(recorder, io_id, latency)
        [row] = recorder.slo_rows()
        assert row["checked"] == 4
        assert row["misses"] == 2
        assert row["attainment"] == pytest.approx(0.5)
        assert not row["met"]
        # All four I/Os land in the first 100ns bucket: burn is the miss
        # fraction over the error budget = 0.5 / 0.1.
        assert row["peak_burn"] == pytest.approx(5.0)

    def test_op_filter(self):
        spec = SloSpec.parse("write:60ns")
        recorder = BlameRecorder(BlameConfig(slos=(spec,)))
        recorder.scope.new_sim()
        _trace_stub(recorder, 0, 500, op="read")
        [row] = recorder.slo_rows()
        assert row["checked"] == 0 and row["met"]

    def test_burn_series_merge_across_absorb(self):
        spec = SloSpec.parse("read:60ns")
        parent = BlameRecorder(BlameConfig(slos=(spec,), period_ns=100))
        parent.scope.new_sim()
        _trace_stub(parent, 0, 70)
        worker = BlameRecorder(BlameConfig(slos=(spec,), period_ns=100))
        worker.scope.new_sim()
        _trace_stub(worker, 0, 90)
        parent.absorb(worker, parent.scope.absorb(worker.scope))
        [row] = parent.slo_rows()
        assert row["checked"] == 2 and row["misses"] == 2
        series = parent.burn_series(0)
        assert {s.pid for s in series} == {1, 2}


# ----------------------------------------------------------------------
# Conservation on a real figure run with faults enabled
# ----------------------------------------------------------------------
class TestConservation:
    def test_fault_figure_conserves_wait_plus_service(self):
        from repro.obs.anatomy import verify_conservation

        with blame_bundle() as obs:
            run_figure("fault-readtail", io_count=300)
        traced = verify_conservation(obs.tracer)
        assert traced > 0
        checked = verify_blame_conservation(obs.blame)
        assert checked > 0
        # The injected NAND read failures must show up as blamed waits.
        resources = {
            (resource, holder)
            for resource, holder, _total, _edges in obs.blame.resource_totals()
        }
        assert any(holder == "ecc_retry" for _r, holder in resources)

    def test_gc_write_workload_blames_device_resources(self):
        with blame_bundle() as obs:
            engine = SweepEngine(jobs=1)
            engine.run(ExperimentSpec(name="blame-gc", points=(gc_point(),)))
        assert verify_blame_conservation(obs.blame) > 0
        rows = obs.blame.resource_totals()
        assert rows, "GC workload recorded no wait edges"
        resources = {resource for resource, _h, _t, _e in rows}
        assert any(r.startswith("ssd.") for r in resources)


# ----------------------------------------------------------------------
# Byte-identity: blame observes, never steers
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_blamed_run_is_identical_to_bare(self):
        bare, bare_events = run_small_job()
        with blame_bundle():
            blamed, blamed_events = run_small_job()
        assert bare_events == blamed_events
        assert bare.latency == blamed.latency
        assert bare.read_latency == blamed.read_latency
        assert bare.duration_ns == blamed.duration_ns
        assert bare.bytes_done == blamed.bytes_done

    def test_disabled_bundle_has_no_blame(self):
        obs = Observability(tracing=False, metrics=False)
        assert obs.blame is None
        assert not obs.enabled

    def test_blame_requires_tracing(self):
        with pytest.raises(ValueError, match="tracing"):
            Observability(tracing=False, metrics=False, blame=True)

    def test_blame_alone_enables_bundle(self):
        obs = blame_bundle()
        assert obs.enabled
        assert obs.tracer.blame is obs.blame


class TestSerialParallelIdentity:
    def run_points(self, jobs):
        obs = Observability(
            blame=BlameConfig(slos=(SloSpec.parse("*:500us@0.99"),))
        )
        with obs:
            engine = SweepEngine(jobs=jobs)
            points = tuple(
                gc_point(io_count=250, key=("gc", qd), iodepth=qd,
                         engine="libaio")
                for qd in (1, 4)
            )
            engine.run(ExperimentSpec(name="blame-det", points=points))
        return obs

    def test_parallel_blame_identical_to_serial(self):
        serial = self.run_points(jobs=1)
        parallel = self.run_points(jobs=4)
        assert blame_table(serial.blame) == blame_table(parallel.blame)
        assert blame_report_html(serial.blame) == blame_report_html(
            parallel.blame
        )
        assert serial.blame.observed == parallel.blame.observed


# ----------------------------------------------------------------------
# Interference workload: the table names the tail's top resource
# ----------------------------------------------------------------------
class TestInterferenceTable:
    def test_randrw_table_names_p999_resource(self):
        with blame_bundle() as obs:
            engine = SweepEngine(jobs=1)
            engine.run(
                ExperimentSpec(
                    name="blame-rw",
                    points=(gc_point(io_count=500, rw="randrw", key="rw"),),
                )
            )
        table = blame_table(obs.blame)
        assert "p99.9 is" in table
        # Reads and writes interfere on device resources; the blamed
        # holder for the tail must be a concrete device-side cause.
        line = next(
            ln for ln in table.splitlines() if ln.strip().startswith("p99.9 is")
        )
        assert "%" in line and "held by" in line


# ----------------------------------------------------------------------
# JSONL structured-event export
# ----------------------------------------------------------------------
class TestJsonlExport:
    def run_traced(self):
        obs = Observability(telemetry=True, blame=True)
        with obs:
            run_small_job(io_count=120)
        return obs

    def test_schema_and_shape(self):
        obs = self.run_traced()
        lines = trace_jsonl_lines(
            obs.tracer, telemetry=obs.telemetry if obs.telemetry.enabled else None
        )
        objects = [json.loads(line) for line in lines]
        assert all(obj["schema"] == JSONL_SCHEMA for obj in objects)
        header = objects[0]
        assert header["type"] == "header"
        assert header["ios"] == sum(1 for o in objects if o["type"] == "io")
        kinds = {obj["type"] for obj in objects}
        assert {"header", "io", "span", "sample"} <= kinds

    def test_wait_edges_exported(self):
        with blame_bundle() as obs:
            run_figure("fault-readtail", io_count=300)
        objects = [json.loads(line) for line in trace_jsonl_lines(obs.tracer)]
        waits = [obj for obj in objects if obj["type"] == "wait"]
        assert waits
        sample = waits[0]
        assert {"resource", "holder", "start_ns", "end_ns", "dur_ns"} <= set(sample)
        assert all(w["dur_ns"] == w["end_ns"] - w["start_ns"] for w in waits)

    def test_deterministic_and_write_counts_lines(self, tmp_path):
        obs = self.run_traced()
        first = trace_jsonl_lines(obs.tracer)
        second = trace_jsonl_lines(obs.tracer)
        assert first == second
        path = tmp_path / "trace.jsonl"
        count = write_trace_jsonl(obs.tracer, str(path))
        text = path.read_text()
        assert count == len(text.splitlines()) == len(first)


# ----------------------------------------------------------------------
# CLI: validators and the blame subcommand
# ----------------------------------------------------------------------
class TestCliValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "fig04a", "--telemetry-period", "0"],
            ["trace", "fig04a", "--telemetry-period", "-5"],
            ["profile", "fig04a", "--top", "0"],
            ["profile", "fig04a", "--period", "-1"],
            ["perf", "--warn-only", "--threshold", "0"],
            ["figures", "fig04a", "--fault-seed", "-1"],
            ["blame", "fig04a", "--top", "0"],
            ["blame", "fig04a", "--slo", "read150us"],
        ],
    )
    def test_bad_flag_values_exit_cleanly(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[2]}:" in err

    def test_fault_seed_zero_is_allowed(self, capsys):
        assert main(
            ["figures", "fault-retry", "--fault-seed", "0", "--scale", "0.2",
             "--no-cache"]
        ) == 0


class TestCliBlame:
    def test_blame_subcommand_prints_conservation_and_table(
        self, capsys, tmp_path
    ):
        out_html = tmp_path / "blame.html"
        trace_out = tmp_path / "trace.jsonl"
        code = main(
            [
                "blame", "fault-readtail", "--scale", "0.3", "--no-cache",
                "--slo", "read:200us@0.99",
                "--blame-out", str(out_html),
                "--trace-out", str(trace_out),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "conservation: OK" in out
        assert "p99.9 is" in out
        assert "SLO attainment" in out
        html = out_html.read_text()
        assert html.startswith("<!DOCTYPE html>")
        first = json.loads(trace_out.read_text().splitlines()[0])
        assert first["type"] == "header" and first["schema"] == JSONL_SCHEMA

    def test_blame_flag_on_figures(self, capsys):
        assert main(
            ["figures", "fault-retry", "--blame", "--scale", "0.2", "--no-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "Blame: tail-latency wait-for attribution" in out

    def test_unknown_figure(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["blame", "fig99"])
        assert excinfo.value.code == 2
        assert "unknown figure 'fig99'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Text table rendering
# ----------------------------------------------------------------------
class TestBlameTable:
    def test_empty_recorder_renders(self):
        recorder = BlameRecorder()
        table = blame_table(recorder)
        assert "I/Os observed: 0" in table

    def test_table_lists_resources_and_slos(self):
        spec = SloSpec.parse("read:60ns@0.9")
        recorder = BlameRecorder(BlameConfig(slos=(spec,)))
        recorder.scope.new_sim()
        recorder.scope.label_device("ull")
        _trace_stub(recorder, 0, 100, waits=[_edge(0, 40, "die0", "gc")])
        _trace_stub(recorder, 1, 50)
        table = blame_table(recorder)
        assert "ull / read" in table
        assert "die0" in table and "gc" in table
        assert "MISSED" in table

    def test_pickle_round_trip(self):
        recorder = BlameRecorder(BlameConfig(slos=(SloSpec.parse("read:60ns"),)))
        recorder.scope.new_sim()
        _trace_stub(recorder, 0, 100, waits=[_edge(0, 40, "die0", "gc")])
        clone = pickle.loads(pickle.dumps(recorder))
        assert blame_table(clone) == blame_table(recorder)

    def test_default_top_is_ten(self):
        assert DEFAULT_TOP == 10
        assert BlameConfig().top == 10
