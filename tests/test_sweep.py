"""Tests for the declarative sweep engine (repro.core.sweep).

Covers the ISSUE-2 contract: parallel output identical to serial,
cold/warm persistent-cache round trips (the warm run executes zero
simulations), cache invalidation when the cost table changes, and the
step-aside behavior under an installed observability bundle.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.host.costs as costs_module
from repro.core import sweep
from repro.core.figures import run_figure
from repro.core.runners import sync_point
from repro.core.sweep import (
    ExperimentSpec,
    Measurement,
    Point,
    SweepCache,
    SweepEngine,
    canonical,
    make_point,
    point_cache_key,
)
from repro.obs.blame import BlameConfig
from repro.obs.core import Observability
from repro.obs.prof import ProfilerConfig
from repro.obs.telemetry import TelemetryConfig


def _fresh_engine(**kwargs) -> SweepEngine:
    return SweepEngine(**kwargs)


def _spec(points) -> ExperimentSpec:
    return ExperimentSpec(name="test", points=tuple(points))


SMALL_GRID = lambda: [  # noqa: E731 - tiny factory, not worth a def
    sync_point("ull", rw, method=method, io_count=60)
    for rw in ("randread", "randwrite")
    for method in ("interrupt", "poll")
]


class TestCanonicalization:
    def test_scalars_pass_through(self):
        assert canonical(3) == 3
        assert canonical("x") == "x"
        assert canonical(None) is None

    def test_enums_become_values(self):
        from repro.kstack.completion import CompletionMethod

        assert canonical(CompletionMethod.POLL) == "poll"

    def test_dicts_become_sorted_tuples(self):
        assert canonical({"b": 2, "a": 1}) == (("a", 1), ("b", 2))

    def test_unhashable_rejected(self):
        with pytest.raises(TypeError):
            canonical(object())

    def test_duplicate_point_keys_rejected(self):
        point = make_point("k", "job", device="ull")
        with pytest.raises(ValueError):
            ExperimentSpec(name="dup", points=(point, point))


class TestCacheKeys:
    def test_same_params_same_key(self):
        a = sync_point("ull", "randread", io_count=50)
        b = sync_point("ull", "randread", io_count=50, key="other")
        assert point_cache_key(a) == point_cache_key(b)

    def test_params_change_key(self):
        a = sync_point("ull", "randread", io_count=50)
        b = sync_point("ull", "randread", io_count=51)
        assert point_cache_key(a) != point_cache_key(b)

    def test_device_config_in_key(self):
        plain = make_point("a", "job", device="ull", rw="randread")
        tweaked = make_point(
            "a", "job", device="ull", rw="randread",
            config_overrides=(("map_cache_segments", 0),),
        )
        assert point_cache_key(plain) != point_cache_key(tweaked)

    def test_cost_table_in_key(self, monkeypatch):
        point = sync_point("ull", "randread", io_count=50)
        before = point_cache_key(point)
        patched = dataclasses.replace(
            costs_module.DEFAULT_COSTS,
            user_io_prep=dataclasses.replace(
                costs_module.DEFAULT_COSTS.user_io_prep,
                ns=costs_module.DEFAULT_COSTS.user_io_prep.ns + 100,
            ),
        )
        monkeypatch.setattr(costs_module, "DEFAULT_COSTS", patched)
        assert point_cache_key(point) != before


class TestParallelEqualsSerial:
    def test_engine_results_identical(self):
        points = SMALL_GRID()
        serial = _fresh_engine(jobs=1).run(_spec(points))
        parallel = _fresh_engine(jobs=4).run(_spec(points))
        assert list(serial) == list(parallel)  # same key order
        for key in serial:
            assert serial[key].result.latency == parallel[key].result.latency
            assert serial[key].result.bytes_done == parallel[key].result.bytes_done

    def test_representative_figure_identical(self):
        engine = sweep.default_engine()
        engine.clear_memo()
        engine.jobs = 1
        serial = run_figure("fig04a", io_count=80, depths=(1, 4))
        engine.clear_memo()
        engine.jobs = 4
        parallel = run_figure("fig04a", io_count=80, depths=(1, 4))
        assert serial == parallel


class TestPersistentCache:
    def test_cold_then_warm(self, tmp_path):
        points = SMALL_GRID()
        cache = SweepCache(tmp_path)

        cold = _fresh_engine(cache=cache)
        first = cold.run(_spec(points))
        assert cold.stats.executed == len(points)
        assert cold.stats.disk_hits == 0

        warm = _fresh_engine(cache=cache)  # fresh memo: must hit disk
        second = warm.run(_spec(points))
        assert warm.stats.executed == 0, "warm run must execute no simulations"
        assert warm.stats.disk_hits == len(points)
        for key in first:
            assert first[key].result.latency == second[key].result.latency

    def test_memo_preferred_over_disk(self, tmp_path):
        points = SMALL_GRID()
        engine = _fresh_engine(cache=SweepCache(tmp_path))
        engine.run(_spec(points))
        engine.run(_spec(points))
        assert engine.stats.memo_hits == len(points)
        assert engine.stats.disk_hits == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        point = sync_point("ull", "randread", io_count=40)
        cache = SweepCache(tmp_path)
        engine = _fresh_engine(cache=cache)
        engine.run(_spec([point]))
        path = cache._path(point_cache_key(point))
        path.write_bytes(b"not a pickle")
        fresh = _fresh_engine(cache=cache)
        fresh.run(_spec([point]))
        assert fresh.stats.executed == 1

    def test_cost_change_invalidates(self, tmp_path, monkeypatch):
        point = sync_point("ull", "randread", io_count=40)
        cache = SweepCache(tmp_path)
        engine = _fresh_engine(cache=cache)
        engine.run(_spec([point]))

        patched = dataclasses.replace(
            costs_module.DEFAULT_COSTS,
            user_io_prep=dataclasses.replace(
                costs_module.DEFAULT_COSTS.user_io_prep,
                ns=costs_module.DEFAULT_COSTS.user_io_prep.ns + 100,
            ),
        )
        monkeypatch.setattr(costs_module, "DEFAULT_COSTS", patched)
        fresh = _fresh_engine(cache=cache)
        fresh.run(_spec([point]))
        assert fresh.stats.executed == 1, "changed cost table must re-execute"
        assert fresh.stats.disk_hits == 0


#: Bundles that each enable one recorder: telemetry and the profiler
#: alone, blame beside the tracer it requires.
BUNDLES = {
    "tracing": dict(),
    "telemetry": dict(tracing=False, metrics=False, telemetry=TelemetryConfig(period_ns=5000)),
    "profile": dict(tracing=False, metrics=False, profile=ProfilerConfig(wall=False)),
    "blame": dict(metrics=False, blame=BlameConfig()),
}


class TestTracedRuns:
    @pytest.mark.parametrize("bundle", sorted(BUNDLES))
    def test_traced_run_bypasses_caches(self, tmp_path, bundle):
        point = sync_point("ull", "randread", io_count=40)
        cache = SweepCache(tmp_path)
        engine = _fresh_engine(cache=cache)
        engine.run(_spec([point]))  # populates memo + disk
        cached = sorted(tmp_path.rglob("*.pkl"))

        with Observability(**BUNDLES[bundle]):
            engine.run(_spec([point]))
        assert engine.stats.traced == 1
        assert engine.stats.executed == 2, "a warm cache must not be read"
        assert engine.stats.memo_hits == engine.stats.disk_hits == 0

        # Nor written: the disk holds the untraced entry alone, and a
        # fresh untraced engine is served it.
        assert sorted(tmp_path.rglob("*.pkl")) == cached
        untraced = _fresh_engine(cache=cache)
        untraced.run(_spec([point]))
        assert untraced.stats.disk_hits == 1 and untraced.stats.executed == 0

    def test_parallel_traced_merges_worker_bundles(self):
        points = [
            sync_point("ull", rw, io_count=40) for rw in ("randread", "randwrite")
        ]
        with Observability() as serial_obs:
            _fresh_engine(jobs=1).run(_spec(points))
        with Observability() as parallel_obs:
            _fresh_engine(jobs=2).run(_spec(points))
        assert len(parallel_obs.tracer.finished_ios) == len(
            serial_obs.tracer.finished_ios
        )
        serial_ids = [t.io_id for t in serial_obs.tracer.finished_ios]
        parallel_ids = [t.io_id for t in parallel_obs.tracer.finished_ios]
        assert sorted(parallel_ids) == sorted(serial_ids)
        assert {t.pid for t in parallel_obs.tracer.finished_ios} == {
            t.pid for t in serial_obs.tracer.finished_ios
        }
        serial_counters = {
            m.name: m.value
            for m in serial_obs.registry
            if m.kind == "counter"
        }
        parallel_counters = {
            m.name: m.value
            for m in parallel_obs.registry
            if m.kind == "counter"
        }
        assert parallel_counters == serial_counters


class TestMeasurement:
    def test_value_lookup(self):
        m = Measurement(values=(("a", 1.0),))
        assert m.value("a") == 1.0
        with pytest.raises(KeyError):
            m.value("missing")

    def test_point_kwargs_round_trip(self):
        point = make_point("k", "job", device="ull", io_count=10)
        assert point.kwargs() == {"device": "ull", "io_count": 10}
        assert isinstance(point, Point)


class TestSharedMemo:
    def test_figures_share_measurements(self):
        engine = sweep.default_engine()
        engine.clear_memo()
        engine.jobs = 1
        before = engine.stats.snapshot()
        run_figure("fig04a", io_count=60, depths=(1, 2))
        mid = engine.stats.snapshot()
        run_figure("fig04b", io_count=60, depths=(1, 2))
        after = engine.stats.snapshot()
        assert mid["executed"] - before["executed"] == 16
        assert after["executed"] == mid["executed"], "fig04b reuses fig04a's runs"
        assert after["memo_hits"] - mid["memo_hits"] == 16
