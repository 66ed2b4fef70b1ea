"""Tests for the wall-clock self-profiling and perf-regression harness."""

import json

import pytest

from repro.__main__ import main
from repro.core.sweep import SweepEngine
from repro.perf import (
    SCHEMA,
    BenchRecord,
    PerfSession,
    bench_filename,
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
        assert "hotspots" not in record.to_dict()  # only when recorded

    def test_hotspots_round_trip(self):
        rows = ({"site": "ssd.device:_write_flow", "events": 9, "share": 0.6},)
        record = BenchRecord("fig04a", 1.5, 3000, hotspots=rows)
        doc = record.to_dict()
        assert doc["hotspots"] == [dict(rows[0])]
        clone = BenchRecord.from_dict(doc)
        assert clone.hotspots == rows


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

    def test_laps_accumulate(self):
        session = PerfSession(engine=SweepEngine(jobs=1))
        mark = session.mark()
        mark = session.lap("f", mark)
        first = session.records["f"].wall_s
        session.lap("f", mark)
        assert session.records["f"].wall_s >= first

    def test_doc_shape(self):
        session = PerfSession(engine=SweepEngine(jobs=1))
        mark = session.mark()
        session.lap("figX", mark)
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

    def test_default_filename_pattern(self):
        name = bench_filename("20260101")
        assert name == "BENCH_20260101.json"

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

    def test_events_delta_missing_data(self):
        old = make_doc({"f": (10.0, 0, 1, 1)})  # 0 ev/s old: no delta
        new = make_doc({"f": (10.0, 100, 1, 1)})
        (row,) = compare_docs(old, new).rows
        assert row.events_delta is None

    def test_hotspots_surface_in_render(self):
        old = make_doc({"f": (10.0, 100, 1, 1)})
        new = make_doc({"f": (10.0, 100, 1, 1)})
        new["figures"]["f"]["hotspots"] = [
            {"site": "ssd.device:_write_flow", "events": 60, "share": 0.6},
            {"site": "nvme.controller:_post_cqe", "events": 40, "share": 0.4},
        ]
        text = compare_docs(old, new).render()
        assert "top hotspot ssd.device:_write_flow (60% of events)" in text

    def test_hotspot_shift_renders_both_sides(self):
        old = make_doc({"f": (10.0, 100, 1, 1)})
        new = make_doc({"f": (10.0, 100, 1, 1)})
        old["figures"]["f"]["hotspots"] = [
            {"site": "ftl.mapping:bind", "events": 90, "share": 0.9},
        ]
        new["figures"]["f"]["hotspots"] = [
            {"site": "sim.engine:run", "events": 50, "share": 0.5},
        ]
        text = compare_docs(old, new).render()
        assert (
            "top hotspot ftl.mapping:bind (90% of events) -> "
            "sim.engine:run (50% of events)" in text
        )

    def test_unchanged_hotspot_renders_once(self):
        old = make_doc({"f": (10.0, 100, 1, 1)})
        new = make_doc({"f": (10.0, 100, 1, 1)})
        spot = [{"site": "sim.engine:run", "events": 50, "share": 0.5}]
        old["figures"]["f"]["hotspots"] = spot
        new["figures"]["f"]["hotspots"] = spot
        text = compare_docs(old, new).render()
        assert text.count("sim.engine:run") == 1


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

    def test_against_requires_compare(self, tmp_path, capsys):
        new = tmp_path / "new.json"
        new.write_text(json.dumps(make_doc({})))
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--against", str(new)])
        assert excinfo.value.code == 2
        assert "--against requires --compare" in capsys.readouterr().err

    def test_perf_without_figures_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["perf"])
        assert excinfo.value.code == 2
