"""Worker merges on multi-device sweeps: serial and ``--jobs 2`` agree.

The sweep engine runs every traced point in a fresh bundle and absorbs
it into the installed one in point order, so pids, io ids and device
labels must come out the same however the points were scheduled.  The
other parallel-identity tests run a single device, where a pid that
lands on the wrong label cannot show; these alternate two devices.
"""

import json
import pickle

import pytest

from repro.core.runners import sync_point
from repro.core.sweep import ExperimentSpec, SweepEngine
from repro.sim import Simulator
from repro.obs import (
    BlameReport,
    Observability,
    ProfilerConfig,
    TelemetryConfig,
    blame_table,
    chrome_trace_events,
    metrics_to_csv,
    telemetry_to_csv,
    telemetry_to_text,
    to_collapsed,
    trace_jsonl_lines,
)

#: Two devices, alternated so that a pid rebased by the wrong amount
#: would name the wrong one.
POINTS = tuple(
    sync_point(device, "randread", io_count=40, key=(index, device))
    for index, device in enumerate(("ull", "qlc", "ull"))
)


def run_points(jobs):
    obs = Observability(telemetry=TelemetryConfig(period_ns=10_000))
    with obs:
        SweepEngine(jobs=jobs).run(ExperimentSpec(name="two-device", points=POINTS))
    return obs


@pytest.fixture(scope="module")
def bundles():
    return run_points(jobs=1), run_points(jobs=2)


def process_names(obs):
    return [
        event for event in chrome_trace_events(obs.tracer, obs.telemetry)
        if event["ph"] == "M" and event["name"] == "process_name"
    ]


def jsonl_devices(obs):
    header = json.loads(trace_jsonl_lines(obs.tracer, obs.telemetry)[0])
    assert header["type"] == "header"
    return header["devices"]


def devices_line(obs):
    [line] = [
        line for line in telemetry_to_text(obs.telemetry).splitlines()
        if line.startswith("devices:")
    ]
    return line


def blame_groups(obs):
    return [key for key, _records in BlameReport.from_tracer(obs.tracer).groups()]


def blame_text(obs):
    return blame_table(BlameReport.from_tracer(obs.tracer))


class TestTwoDeviceMerge:
    def test_process_names_name_each_device(self, bundles):
        serial, parallel = bundles
        names = [event["args"]["name"] for event in process_names(serial)]
        assert names == ["sim 1 [ull]", "sim 2 [qlc]", "sim 3 [ull]"]
        assert process_names(parallel) == process_names(serial)

    def test_jsonl_header_devices(self, bundles):
        serial, parallel = bundles
        assert jsonl_devices(serial) == {"1": "ull", "2": "qlc", "3": "ull"}
        assert jsonl_devices(parallel) == jsonl_devices(serial)

    def test_telemetry_devices_line(self, bundles):
        serial, parallel = bundles
        assert devices_line(serial) == "devices: 1:ull, 2:qlc, 3:ull"
        assert devices_line(parallel) == devices_line(serial)

    def test_blame_groups_per_device(self, bundles):
        serial, parallel = bundles
        assert blame_groups(serial) == [("qlc", "read"), ("ull", "read")]
        assert blame_groups(parallel) == blame_groups(serial)
        assert blame_text(parallel) == blame_text(serial)

    def test_metrics_csv(self, bundles):
        serial, parallel = bundles
        assert metrics_to_csv(parallel.registry) == metrics_to_csv(serial.registry)

    def test_io_ids_and_pids(self, bundles):
        serial, parallel = bundles
        ids = [(t.pid, t.io_id) for t in serial.tracer.finished_ios]
        assert ids == [(t.pid, t.io_id) for t in parallel.tracer.finished_ios]
        assert [io_id for _pid, io_id in ids] == list(range(len(ids)))
        assert trace_jsonl_lines(parallel.tracer, parallel.telemetry) == (
            trace_jsonl_lines(serial.tracer, serial.telemetry)
        )


def exports(obs):
    """Every export a bundle feeds, as text."""
    return (
        json.dumps(chrome_trace_events(obs.tracer, obs.telemetry)),
        trace_jsonl_lines(obs.tracer, obs.telemetry),
        telemetry_to_text(obs.telemetry),
        telemetry_to_csv(obs.telemetry),
        blame_text(obs),
        metrics_to_csv(obs.registry),
        to_collapsed(obs.profiler),
        telemetry_to_csv(obs.profiler.telemetry),
    )


class TestPickledBundle:
    """A worker bundle travels home pickled; its recorders must still
    share one scope, and absorbing it must lose nothing."""

    def used_bundle(self):
        obs = Observability(
            telemetry=TelemetryConfig(period_ns=10_000),
            profile=ProfilerConfig(wall=False),
        )
        with obs:
            SweepEngine(jobs=1).run(ExperimentSpec(name="pickled", points=POINTS[:2]))
        return obs

    def test_recorders_share_one_scope(self):
        clone = pickle.loads(pickle.dumps(self.used_bundle()))
        scopes = (
            clone.scope,
            clone.tracer.scope,
            clone.telemetry.scope,
            clone.profiler.telemetry.scope,
        )
        assert all(scope is clone.scope for scope in scopes)
        assert clone.scope.device_labels == {1: "ull", 2: "qlc"}
        assert clone.scope.next_io_id == len(clone.tracer.finished_ios)

    def test_absorbing_a_pickled_bundle_keeps_its_exports(self):
        obs = self.used_bundle()
        clone = pickle.loads(pickle.dumps(obs))
        parent = Observability(**obs.config)
        parent.absorb(clone)
        assert exports(parent) == exports(obs)
        assert parent.scope.sims == obs.scope.sims == 2


class TestScopeAfterAbsorb:
    """A sim that keeps running after its bundle absorbs a worker stamps
    its own pid; the next sim to attach gets the first free one."""

    def test_running_sim_keeps_its_pid(self):
        parent = Observability()
        Simulator(parent)
        worker = Observability()
        Simulator(worker)
        worker.tracer.begin_io("read", 0, 4096, 0).finish(10)
        parent.absorb(worker)
        assert parent.tracer.begin_io("read", 0, 4096, 0).pid == 1
        Simulator(parent)
        assert parent.tracer.begin_io("read", 0, 4096, 0).pid == 3
