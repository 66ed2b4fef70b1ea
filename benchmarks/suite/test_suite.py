"""Checks of the suite benchmark itself: ``python -m pytest benchmarks/suite -q``."""

from __future__ import annotations

import json
import sys
import time

import pytest

import spec

sys.path.insert(0, str(spec.SRC))

import run  # noqa: E402
from child import Probe  # noqa: E402
from repro.core.figures import FIGURES  # noqa: E402
from sampler import OUTSIDE, StackSampler  # noqa: E402

DECLARED = json.loads(run.BENCHMARK.read_text())


def test_workloads_partition_the_figures():
    ids = [figure for figures in spec.WORKLOADS.values() for figure in figures]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(FIGURES)


def test_goldens_cover_every_figure():
    assert set(json.loads(run.GOLDENS.read_text())) == set(FIGURES)


def test_layer_map_covers_every_source_file():
    modules = [
        ".".join(path.relative_to(spec.SRC_REPRO).with_suffix("").parts)
        for path in spec.SRC_REPRO.rglob("*.py")
    ]
    assert len(modules) > 50
    assert [module for module in modules if spec.map_entry(module) is None] == []
    assert spec.map_entry("cxl.link") is None


def test_files_are_charged_to_their_layer():
    classify = spec.layer_of_file
    repro = spec.SRC_REPRO
    assert classify(str(repro / "ssd" / "power.py")) == "ssd.power"
    assert classify(str(repro / "ssd" / "controller.py")) == "ssd"
    assert classify(str(repro / "sim" / "engine.py")) == "sim.engine"
    assert classify(str(repro / "core" / "sweep.py")) == "core"
    assert classify(str(repro / "api.py")) == "core"
    assert classify(str(repro / "spdk" / "stack.py")) is None
    assert classify(str(spec.SRC / "other.py")) is None


def test_scaling_matches_the_cli():
    from repro.__main__ import _scaled_kwargs

    for figure_id, fn in FIGURES.items():
        assert spec.scaled_kwargs(fn) == _scaled_kwargs(figure_id, spec.SCALE)


def _toy_work(until: float) -> int:
    total = 0
    while time.perf_counter() < until:
        total += len(json.dumps(list(range(200))))
        total += sum(sorted(range(300, 0, -1)))
    return total


def test_sampler_charges_stdlib_time_to_its_caller():
    previous = sys.getswitchinterval()
    sys.setswitchinterval(0.001)
    try:
        with StackSampler({__file__: "toy"}.get) as sampler:
            _toy_work(time.perf_counter() + 0.5)
    finally:
        sys.setswitchinterval(previous)
    assert sampler.samples >= 50
    assert sampler.counts["toy"] / sampler.samples >= 0.9
    assert set(sampler.counts) <= {"toy", OUTSIDE}


def _record(**extra):
    record = {
        "wall_s": 2.0, "sim_ios": 1000, "sim_events": 5000, "points": 4,
        "executed": 3, "peak_rss_mb": 100.0, "setup_s": 0.3,
        "spans": [("point", "job", 0.0, 0.5), ("precondition", "", 0.1, 0.2)],
    }
    record.update(extra)
    return record


def test_every_metric_is_declared_with_unit_direction_and_bound():
    end_to_end = run.end_to_end_metrics([_record()], [0.3, 0.4])
    counts = {layer: 1 for layer in spec.LAYERS}
    counts[OUTSIDE] = 1
    per_layer = run.layer_metrics(_record(layer_samples=counts), 1.9)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(end_to_end)
    assert {m["name"] for m in DECLARED["per_layer"]} == set(per_layer)
    for metric in DECLARED["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("higher", "lower")
        assert 0 < metric["bound"] <= 0.25
    for metric in DECLARED["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_failed_figures_counts_errors_violations_and_golden_mismatches():
    record = _record(
        errors={"fig09": "ValueError: x"}, violations={"fig10": "job: 1 of 2"},
        digests={"fig11": "aa", "fig12": "bb"},
    )
    goldens = {"fig11": "aa", "fig12": "cc"}
    assert run.failed_figures(record, goldens) == ["fig09", "fig10", "fig12"]
    assert run.failed_figures(record, None) == ["fig09", "fig10"]


@pytest.mark.parametrize("seed", [0, 3])
def test_wrapped_runner_shifts_seeds_and_counts_ios(seed):
    from repro.core.sweep import Measurement

    seen = {}

    def fake_runner(*, io_count=10, device_seed=42, job_seed=1234, fault_plan=()):
        seen.update(device_seed=device_seed, job_seed=job_seed, fault_plan=fault_plan)
        return Measurement(values=(("erases", 1.0),))

    probe = Probe(seed)
    probe._wrap_runner("fake", fake_runner)(
        job_seed=7, fault_plan=(("nand", ()), ("seed", 5))
    )
    assert seen == {
        "device_seed": 42 + seed,
        "job_seed": 7 + seed,
        "fault_plan": (("nand", ()), ("seed", 5 + seed)),
    }
    assert probe.sim_ios == 10
    assert [span[:2] for span in probe.spans] == [("point", "fake")]
    assert probe.violations == {}
