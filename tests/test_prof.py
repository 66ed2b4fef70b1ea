"""Tests for the simulator self-profiler (repro.obs.prof)."""

import json
import pickle
import types

import pytest

from repro.api import JobConfig, Testbed
from repro.core.sweep import ExperimentSpec, SweepEngine
from repro.obs import (
    Observability,
    Profiler,
    ProfilerConfig,
    bench_hotspots,
    hotspot_table,
    queue_report,
    to_collapsed,
    to_speedscope,
    write_speedscope,
)
from repro.obs.prof import (
    SPEEDSCOPE_SCHEMA,
    CallSite,
    _module_from_filename,
    _module_to_site,
)
from repro.sim import engine as sim_engine
from repro.sim.engine import Simulator


def toy_run(obs=None, procs=3, waits=5):
    """A tiny simulation: ``procs`` generators each awaiting ``waits``
    timeouts, all at the same instants (same-tick batches of ``procs``)."""
    sim = Simulator(obs=obs)

    def worker(n):
        for _ in range(n):
            yield sim.timeout(10)

    for _ in range(procs):
        sim.process(worker(waits))
    sim.run()
    return sim


def profiled_bundle(**config):
    return Observability(
        tracing=False, metrics=False, profile=ProfilerConfig(**config)
    )


def run_small_job(rw="randread", io_count=200):
    """One real stack run; returns (JobResult, sim events executed)."""
    before = sim_engine.events_executed_total
    result, _ = Testbed(device="ull").run_job(
        JobConfig(rw=rw, engine="psync", io_count=io_count), want_device=True
    )
    return result, sim_engine.events_executed_total - before


# ----------------------------------------------------------------------
# Config and site mapping
# ----------------------------------------------------------------------
class TestProfilerConfig:
    def test_defaults(self):
        config = ProfilerConfig()
        assert config.wall is True
        assert config.top == 15

    def test_validation(self):
        with pytest.raises(ValueError, match="period"):
            ProfilerConfig(period_ns=0)
        with pytest.raises(ValueError, match="table size"):
            ProfilerConfig(top=0)


class TestSiteMapping:
    def test_repro_module_maps_to_layer_and_component(self):
        site = _module_to_site("repro.ssd.channels", "Channel._xfer", "callback")
        assert site == CallSite("ssd", "ssd.channels", "Channel._xfer", "callback")

    def test_non_repro_module_is_other(self):
        site = _module_to_site("__main__", "worker", "process")
        assert site.layer == "other"
        assert site.component == "__main__"

    def test_module_from_filename(self):
        assert (
            _module_from_filename("/x/src/repro/ftl/gc.py") == "repro.ftl.gc"
        )
        assert (
            _module_from_filename("/x/src/repro/obs/__init__.py")
            == "repro.obs"
        )
        assert _module_from_filename("/tmp/elsewhere.py") == ""


# ----------------------------------------------------------------------
# Attribution and queue introspection on a toy simulation
# ----------------------------------------------------------------------
class TestToySimulation:
    def test_counts_and_attribution(self):
        obs = profiled_bundle(wall=False)
        toy_run(obs=obs, procs=3, waits=5)
        prof = obs.profiler
        # 3 procs x (1 start + 5 resumes) dispatches, all via generators.
        assert prof.dispatches == 18
        assert prof.total_events == 18
        assert prof.inserts == prof.dispatches
        assert prof.trampoline_hops == 18
        assert len(prof.events) == 1
        (site,) = prof.events
        assert site.kind == "process"
        assert site.callsite.endswith("worker")
        assert not prof.wall_ns  # wall sampling was off

    def test_inline_resumes_are_booked_to_the_running_generator(self):
        """A sleep replaced by ``advance_if_next`` has no dispatch; it is
        booked to the generator that moved the clock, as its wake was."""
        obs = profiled_bundle(wall=True)
        sim = Simulator(obs=obs)

        def worker():
            for _ in range(4):
                if not sim.advance_if_next(sim.now + 10):
                    yield sim.sleep(10)
            yield sim.sleep(5)

        sim.process(worker())
        sim.run()
        prof = obs.profiler
        assert sim.now == 45
        # 1 start + 1 wake dispatched; the 4 runs ahead are inline.
        assert prof.dispatches == 2
        assert prof.ahead == 4
        assert prof.total_events == 6
        (site,) = prof.events
        assert site.kind == "process"
        assert site.callsite.endswith("worker")
        assert prof.events[site] == 6
        assert set(prof.wall_ns) == {site}
        assert "4 of them inline resumes" in hotspot_table(prof)
        assert "inline resumes" in queue_report(prof)

    def test_delegated_dispatches_land_on_the_inner_generator(self):
        """A process parked inside ``yield from`` resumes its delegate, so
        the dispatch is charged to the delegate's module, not the
        outermost generator's."""
        inner_module = types.ModuleType("repro.kstack.toy_inner")
        exec(
            "def inner(sim, n):\n"
            "    for _ in range(n):\n"
            "        yield sim.sleep(10)\n",
            inner_module.__dict__,
        )
        obs = profiled_bundle(wall=False)
        sim = Simulator(obs=obs)

        def outer():
            yield from inner_module.inner(sim, 20)

        sim.process(outer())
        sim.run()
        process = {
            site: count
            for site, count in obs.profiler.events.items()
            if site.kind == "process"
        }
        inner_site = CallSite("kstack", "kstack.toy_inner", "inner", "process")
        assert sum(process.values()) == 21  # start + 20 wakes
        assert process[inner_site] / sum(process.values()) >= 0.9

    def test_wall_sampling_records_nanoseconds(self):
        obs = profiled_bundle(wall=True)
        toy_run(obs=obs)
        prof = obs.profiler
        assert sum(prof.wall_ns.values()) > 0
        assert set(prof.wall_ns) <= set(prof.events)

    def test_same_tick_batches(self):
        obs = profiled_bundle(wall=False)
        toy_run(obs=obs, procs=4, waits=3)
        stats = obs.profiler.queue_stats()
        # Each instant dispatches all 4 processes together.
        assert stats["batch_max"] == 4.0
        assert stats["batches"] * 4 == obs.profiler.dispatches
        assert stats["peak_depth"] == 4
        assert stats["sift_cost"] > 0

    def test_interrupt_detaches_so_no_stale_wakeup(self):
        obs = profiled_bundle(wall=False)
        sim = Simulator(obs=obs)

        def sleeper():
            yield sim.timeout(100)

        def interrupter(victim):
            yield sim.timeout(10)
            victim.interrupt()

        victim = sim.process(sleeper())
        sim.process(interrupter(victim))
        sim.run()
        # interrupt() detaches the process from the pending timeout, so
        # its later firing delivers no wakeup at all: zero stales.
        assert obs.profiler.stale_wakeups == 0

    def test_stale_wakeup_still_counted(self):
        obs = profiled_bundle(wall=False)
        sim = Simulator(obs=obs)

        def sleeper():
            ready = sim.event()
            ready.succeed()
            yield ready  # resume rides the microtask ring

        # The interrupt lands between the yield and the queued microtask
        # (same instant), so the ring entry fires against a process that
        # already moved on — the one stale path detach cannot remove.
        victim = sim.process(sleeper())
        sim.schedule(0, victim.interrupt)
        sim.run()
        assert obs.profiler.stale_wakeups == 1

    def test_queue_depth_series_recorded(self):
        obs = profiled_bundle(wall=False, period_ns=10)
        toy_run(obs=obs)
        telemetry = obs.profiler.telemetry
        assert telemetry.get("prof.queue.depth").samples()
        assert telemetry.get("prof.events.dispatched").samples()
        assert telemetry.get("prof.trampoline.hops").samples()

    def test_attributed_share_is_zero_layer_for_test_code(self):
        obs = profiled_bundle(wall=False)
        toy_run(obs=obs)
        # Toy generators live in the test module: named "other", so the
        # named-layer share is 0 — the real-stack test below checks 1.0.
        assert obs.profiler.attributed_share() == 0.0


# ----------------------------------------------------------------------
# Byte-identity: the profiler observes, never steers
# ----------------------------------------------------------------------
class TestByteIdentity:
    def test_profiled_run_is_identical_to_unprofiled(self):
        bare, bare_events = run_small_job()
        with profiled_bundle(wall=True):
            profiled, profiled_events = run_small_job()
        assert bare_events == profiled_events
        assert bare.latency == profiled.latency
        assert bare.read_latency == profiled.read_latency
        assert bare.duration_ns == profiled.duration_ns
        assert bare.bytes_done == profiled.bytes_done

    def test_disabled_bundle_leaves_hot_path_alone(self):
        sim = Simulator()  # NULL_OBS: no profiler sampled
        assert sim._prof is None
        obs = Observability(tracing=False, metrics=False)
        assert obs.profiler is None
        assert not obs.enabled
        assert Simulator(obs=obs)._prof is None

    def test_enabled_profiler_makes_bundle_enabled(self):
        obs = profiled_bundle()
        assert obs.enabled  # sweep engine must step aside (live runs)
        assert Simulator(obs=obs)._prof is obs.profiler


# ----------------------------------------------------------------------
# Real-stack attribution coverage (the >=95% acceptance bar)
# ----------------------------------------------------------------------
class TestRealStackAttribution:
    def test_full_stack_run_attributes_to_named_layers(self):
        obs = profiled_bundle(wall=False)
        with obs:
            run_small_job(io_count=150)
        prof = obs.profiler
        assert prof.total_events > 1000
        assert prof.attributed_share() >= 0.95
        layers = dict(prof.layer_totals())
        assert "ssd" in layers
        # Host-stack resumes are charged to the stack code they run,
        # not to the workload loop that delegates to it.
        kstack = sum(
            count for site, count in prof.events.items()
            if site.kind == "process" and site.layer == "kstack"
        )
        workloads = sum(
            count for site, count in prof.events.items()
            if site.kind == "process" and site.layer == "workloads"
        )
        assert kstack > 10 * workloads
        table = hotspot_table(prof)
        assert "attributed" in table
        assert "layers:" in table
        report = queue_report(prof)
        assert "trampoline hops" in report

    def test_run_ahead_host_path_keeps_its_events_and_wall_time(self):
        """A read's host path runs ahead inside the nvme/ssd callbacks
        that wake it; its inline resumes and their wall time are still
        charged to kstack, not to the callback they run in."""
        obs = profiled_bundle(wall=True)
        with obs:
            _, dispatched = run_small_job(io_count=150)
        prof = obs.profiler
        assert prof.ahead > 0
        assert prof.dispatches == dispatched
        assert prof.total_events == prof.dispatches + prof.ahead
        kstack = [
            site for site in prof.events
            if site.kind == "process" and site.layer == "kstack"
        ]
        assert sum(prof.events[site] for site in kstack) >= prof.ahead * 0.9
        assert all(prof.wall_ns.get(site, 0) > 0 for site in kstack)


# ----------------------------------------------------------------------
# Merging, pickling, and the sweep worker path
# ----------------------------------------------------------------------
class TestAbsorbAndPickle:
    def test_absorb_sums_counts(self):
        a, b = profiled_bundle(wall=False), profiled_bundle(wall=False)
        toy_run(obs=a, procs=2, waits=3)
        toy_run(obs=b, procs=3, waits=4)
        total = a.profiler.dispatches + b.profiler.dispatches
        a.absorb(b)
        assert a.profiler.dispatches == total
        assert a.profiler.total_events == total

    def test_pickle_round_trip_keeps_counts(self):
        obs = profiled_bundle(wall=False)
        toy_run(obs=obs)
        clone = pickle.loads(pickle.dumps(obs.profiler))
        assert clone.events == obs.profiler.events
        assert clone.dispatches == obs.profiler.dispatches
        assert clone._sites == {}  # attribution cache never crosses

    def test_parallel_sweep_counts_match_serial(self):
        from tests.test_obs_telemetry import gc_point

        def run(jobs):
            obs = profiled_bundle(wall=False)
            with obs:
                engine = SweepEngine(jobs=jobs)
                points = tuple(
                    gc_point(io_count=200, key=("gc", qd), iodepth=qd,
                             engine="libaio")
                    for qd in (1, 4)
                )
                engine.run(ExperimentSpec(name="prof-det", points=points))
            return obs.profiler

        serial = run(jobs=1)
        parallel = run(jobs=2)
        assert serial.events == parallel.events
        assert serial.dispatches == parallel.dispatches
        assert serial.trampoline_hops == parallel.trampoline_hops
        assert to_collapsed(serial) == to_collapsed(parallel)


# ----------------------------------------------------------------------
# Export schemas
# ----------------------------------------------------------------------
class TestExports:
    def profiler_with_data(self):
        obs = profiled_bundle(wall=True)
        toy_run(obs=obs)
        return obs.profiler

    def test_collapsed_stack_format(self):
        prof = self.profiler_with_data()
        text = to_collapsed(prof)
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            stack, _, count = line.rpartition(" ")
            assert len(stack.split(";")) == 3
            assert int(count) > 0

    def test_collapsed_weight_validation(self):
        with pytest.raises(ValueError, match="weight"):
            to_collapsed(Profiler(), weight="bogus")

    def test_speedscope_document_schema(self):
        prof = self.profiler_with_data()
        doc = to_speedscope(prof, name="toy")
        assert doc["$schema"] == SPEEDSCOPE_SCHEMA
        assert doc["name"] == "toy"
        frames = doc["shared"]["frames"]
        assert frames and all("name" in frame for frame in frames)
        names = [profile["name"] for profile in doc["profiles"]]
        assert names == ["sim events", "wall time"]
        for profile in doc["profiles"]:
            assert profile["type"] == "sampled"
            assert len(profile["samples"]) == len(profile["weights"])
            assert profile["endValue"] == sum(profile["weights"])
            for stack in profile["samples"]:
                assert all(0 <= index < len(frames) for index in stack)
        events = doc["profiles"][0]
        assert sum(events["weights"]) == prof.total_events
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_speedscope_without_wall_has_one_profile(self):
        obs = profiled_bundle(wall=False)
        toy_run(obs=obs)
        doc = to_speedscope(obs.profiler)
        assert [p["name"] for p in doc["profiles"]] == ["sim events"]

    def test_write_speedscope_parses_back(self, tmp_path):
        prof = self.profiler_with_data()
        path = tmp_path / "profile.speedscope.json"
        write_speedscope(prof, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["$schema"] == SPEEDSCOPE_SCHEMA

    def test_bench_hotspots_rows(self):
        prof = self.profiler_with_data()
        rows = bench_hotspots(prof, top=5)
        assert rows
        for row in rows:
            assert set(row) == {"site", "events", "share"}
        assert rows[0]["events"] == max(row["events"] for row in rows)

    def test_empty_profiler_renders(self):
        prof = Profiler()
        assert hotspot_table(prof) == "(no events profiled)"
        assert to_collapsed(prof) == ""
        doc = to_speedscope(prof)
        assert doc["profiles"][0]["samples"] == []
