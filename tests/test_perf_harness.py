"""Tests for the per-figure timing records and the bench-document diff."""

import json

import pytest

from repro.__main__ import main
from repro.core.figures import run_figure
from repro.core.sweep import SweepEngine, default_engine
from repro.perf import (
    SCHEMA,
    BenchRecord,
    PerfSession,
    compare_docs,
    load_bench,
    write_bench,
)
from repro.sim import Simulator


def make_doc(figures):
    """A synthetic bench document: {figure_id: (wall_s, events, points,
    executed)}."""
    return {
        "schema": SCHEMA,
        "date": "2026-01-01",
        "figures": {
            figure_id: BenchRecord(
                figure_id=figure_id,
                wall_s=wall_s,
                sim_events=events,
                points=points,
                executed=executed,
            ).to_dict()
            for figure_id, (wall_s, events, points, executed) in figures.items()
        },
    }


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
class TestBenchRecord:
    def test_cache_states(self):
        def record(points, executed):
            return BenchRecord("f", 1.0, 10, points=points, executed=executed)

        assert record(4, 4).cache == "cold"
        assert record(4, 0).cache == "warm"
        assert record(4, 2).cache == "mixed"
        assert record(0, 0).cache == "none"

    def test_events_per_s(self):
        assert BenchRecord("f", 2.0, 10_000).events_per_s == 5000.0
        assert BenchRecord("f", 0.0, 10_000).events_per_s == 0.0

    def test_dict_round_trip(self):
        record = BenchRecord("fig04a", 1.5, 3000, points=6, executed=6,
                             memo_hits=1, disk_hits=2)
        clone = BenchRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class TestPerfSession:
    def test_measure_counts_sim_events(self):
        session = PerfSession(engine=SweepEngine(jobs=1))
        with session.measure("toy"):
            sim = Simulator()
            for delay in range(25):
                sim.schedule(delay, lambda: None)
            sim.run()
        record = session.records["toy"]
        assert record.sim_events >= 25
        assert record.wall_s > 0

    def test_doc_shape(self):
        session = PerfSession(engine=SweepEngine(jobs=1))
        with session.measure("figX"):
            pass
        doc = session.to_doc(date="2026-01-01", source="test")
        assert doc["schema"] == SCHEMA
        assert doc["date"] == "2026-01-01"
        assert doc["source"] == "test"
        assert set(doc["figures"]) == {"figX"}


# ----------------------------------------------------------------------
# Document I/O
# ----------------------------------------------------------------------
class TestBenchIo:
    def test_write_creates_parents_and_loads_back(self, tmp_path):
        doc = make_doc({"fig04a": (1.0, 1000, 2, 2)})
        target = tmp_path / "nested" / "BENCH_test.json"
        written = write_bench(doc, target)
        assert written == target
        assert load_bench(target)["figures"]["fig04a"]["sim_events"] == 1000

    def test_load_rejects_unknown_schema(self, tmp_path):
        target = tmp_path / "bad.json"
        target.write_text(json.dumps({"schema": 999}))
        with pytest.raises(ValueError):
            load_bench(target)


# ----------------------------------------------------------------------
# Comparison / gating
# ----------------------------------------------------------------------
class TestCompare:
    def test_statuses(self):
        old = make_doc({
            "ok": (10.0, 100, 2, 2),
            "slow": (10.0, 100, 2, 2),
            "fast": (10.0, 100, 2, 2),
            "cachemix": (10.0, 100, 2, 2),
            "gone": (10.0, 100, 2, 2),
        })
        new = make_doc({
            "ok": (11.0, 100, 2, 2),
            "slow": (15.0, 100, 2, 2),
            "fast": (5.0, 100, 2, 2),
            "cachemix": (1.0, 100, 2, 0),  # warm now
            "fresh": (3.0, 100, 2, 2),
        })
        comparison = compare_docs(old, new, threshold=0.30)
        status = {row.figure_id: row.status for row in comparison.rows}
        assert status == {
            "ok": "ok",
            "slow": "slower",
            "fast": "faster",
            "cachemix": "incomparable",
            "gone": "removed",
            "fresh": "added",
        }
        assert not comparison.ok
        assert [row.figure_id for row in comparison.regressions] == ["slow"]

    def test_threshold_is_configurable(self):
        old = make_doc({"f": (10.0, 100, 1, 1)})
        new = make_doc({"f": (14.0, 100, 1, 1)})
        assert not compare_docs(old, new, threshold=0.30).ok
        assert compare_docs(old, new, threshold=0.50).ok

    def test_render_mentions_every_figure(self):
        old = make_doc({"figA": (1.0, 10, 1, 1)})
        new = make_doc({"figA": (1.0, 10, 1, 1), "figB": (2.0, 10, 1, 1)})
        text = compare_docs(old, new).render()
        assert "figA" in text and "figB" in text
        assert "0 regression(s)" in text

    def test_events_per_s_delta(self):
        # Same wall, double the events: throughput doubled (+100%).
        old = make_doc({"f": (10.0, 100, 1, 1)})
        new = make_doc({"f": (10.0, 200, 1, 1)})
        comparison = compare_docs(old, new)
        (row,) = comparison.rows
        assert row.events_delta == pytest.approx(1.0)
        assert "+100%" in comparison.render()

    def test_only_simulating_rows_gate(self):
        # fig08b reuses fig08a's run from the sweep memo: a warm row of a
        # few milliseconds whose ratio is noise.  A cold row still gates.
        old = make_doc({
            "fig08b": (0.0014, 0, 8, 0),
            "table1": (0.0001, 0, 0, 0),
            "fig10": (1.0, 100, 4, 4),
            "fig11": (1.0, 100, 4, 2),
        })
        new = make_doc({
            "fig08b": (0.002, 0, 8, 0),
            "table1": (0.0, 0, 0, 0),
            "fig10": (1.43, 100, 4, 4),
            "fig11": (0.5, 100, 4, 2),
        })
        comparison = compare_docs(old, new)
        rows = {row.figure_id: row for row in comparison.rows}
        assert rows["fig08b"].status == "ok"
        assert rows["fig08b"].note == "warm, not gated"
        assert rows["fig08b"].new_wall_s == 0.002
        assert rows["table1"].status == "ok"
        assert rows["table1"].note == "none, not gated"
        assert rows["fig10"].status == "slower"
        assert rows["fig10"].note == "+43%"
        assert rows["fig11"].status == "faster"
        assert [row.figure_id for row in comparison.regressions] == ["fig10"]

    def test_events_delta_missing_data(self):
        old = make_doc({"f": (10.0, 0, 1, 1)})  # 0 ev/s old: no delta
        new = make_doc({"f": (10.0, 100, 1, 1)})
        (row,) = compare_docs(old, new).rows
        assert row.events_delta is None


# ----------------------------------------------------------------------
# CLI gating
# ----------------------------------------------------------------------
class TestCliGate:
    def write_pair(self, tmp_path, new_wall):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(make_doc({"f": (10.0, 100, 1, 1)})))
        new.write_text(json.dumps(make_doc({"f": (new_wall, 100, 1, 1)})))
        return str(old), str(new)

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        old, new = self.write_pair(tmp_path, new_wall=20.0)
        assert main(["perf", "--compare", old, "--against", new]) == 1
        assert "slower" in capsys.readouterr().out

    def test_warn_only_exits_zero(self, tmp_path):
        old, new = self.write_pair(tmp_path, new_wall=20.0)
        code = main(["perf", "--compare", old, "--against", new, "--warn-only"])
        assert code == 0

    def test_clean_compare_exits_zero(self, tmp_path):
        old, new = self.write_pair(tmp_path, new_wall=10.5)
        assert main(["perf", "--compare", old, "--against", new]) == 0

    def test_warm_row_does_not_fail(self, tmp_path, capsys):
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(make_doc({"fig08b": (0.0014, 0, 8, 0)})))
        new.write_text(json.dumps(make_doc({"fig08b": (0.002, 0, 8, 0)})))
        assert main(["perf", "--compare", str(old), "--against", str(new)]) == 0
        assert "warm, not gated" in capsys.readouterr().out

    def test_against_requires_compare(self, tmp_path, capsys):
        new = tmp_path / "new.json"
        new.write_text(json.dumps(make_doc({})))
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--against", str(new)])
        assert excinfo.value.code == 2
        assert "required: --compare" in capsys.readouterr().err

    def test_perf_without_figures_is_usage_error(self, capsys):
        # perf only diffs documents: it takes no figures, and needs both.
        with pytest.raises(SystemExit) as excinfo:
            main(["perf"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "required: --compare, --against" in err


# ----------------------------------------------------------------------
# The calls benchmarks/suite makes
# ----------------------------------------------------------------------
ROW_KEYS = {
    "figure_id", "wall_s", "sim_events", "events_per_s", "points",
    "executed", "memo_hits", "disk_hits", "cache",
}


def test_suite_calls_write_a_comparable_document(tmp_path):
    """The suite's own tests run apart from tier-1, so its exact use of
    this package is pinned here: child.py meters each figure, run.py's
    write_doc rebuilds the rows and writes the document."""
    # child.py: run_pass
    session = PerfSession(default_engine())
    for figure_id, kwargs in (("table1", {}), ("fig14b", {"io_count": 100})):
        with session.measure(figure_id):
            run_figure(figure_id, **kwargs)
    records = session.records.values()
    sim_events = sum(record.sim_events for record in records)
    points = sum(record.points for record in records)
    figures = session.to_doc()["figures"]
    assert list(figures) == ["fig14b", "table1"]
    assert points >= 4
    for row in figures.values():
        assert set(row) == ROW_KEYS

    # run.py: write_doc
    writer = PerfSession()
    for figure_id, row in figures.items():
        writer.records[figure_id] = BenchRecord.from_dict(row)
    doc = writer.to_doc(scale=0.1, seed=0, suite={"sync-qd1": {"passes": 1}})
    path = write_bench(doc, tmp_path / "suite.json")

    loaded = load_bench(path)
    assert loaded["suite"] == {"sync-qd1": {"passes": 1}}
    # write_doc recomputes events_per_s from the rounded wall_s.
    for figure_id, row in figures.items():
        reread = loaded["figures"][figure_id]
        assert dict(reread, events_per_s=row["events_per_s"]) == row
    assert sum(row["sim_events"] for row in loaded["figures"].values()) == sim_events
    comparison = compare_docs(loaded, load_bench(path))
    assert comparison.ok
    assert [row.figure_id for row in comparison.rows] == ["fig14b", "table1"]
