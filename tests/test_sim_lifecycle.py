"""Finished sweep points are freed by reference counting alone.

Every sweep runner closes its simulator once the measurement is
detached (``Simulator.close``).  Nothing of a finished point may then
be left for the cyclic collector: with the collector off, the
simulator must be dead as soon as the runner returns, and a
``gc.collect()`` right after must find nothing.
"""

import gc
import weakref

import pytest

from repro.core.sweep import _RUNNERS, get_runner
from repro.faults.plan import FaultPlan, NandFaults
from repro.sim.engine import Simulator

_NAND_FAULTS = FaultPlan(seed=7, nand=NandFaults(read_fail_prob=0.05)).to_params()

#: (id, runner name, params): one tiny point per runner, and every host
#: path of the ``job`` runner.
CASES = [
    ("job-psync-interrupt", "job", dict(completion="interrupt")),
    ("job-psync-poll", "job", dict(completion="poll")),
    ("job-psync-hybrid", "job", dict(completion="hybrid")),
    ("job-libaio", "job", dict(rw="randrw", engine="libaio", iodepth=8)),
    ("job-spdk", "job", dict(stack="spdk")),
    ("job-light", "job", dict(rw="randwrite", light=True)),
    ("job-faults", "job", dict(io_count=200, fault_plan=_NAND_FAULTS)),
    (
        "job-device-timeseries",
        "job",
        dict(rw="randwrite", want_device=True, capture_timeseries=True),
    ),
    ("idle", "idle", dict(device="ull", duration_ns=100_000)),
    ("nbd", "nbd", dict(server="kernel-nbd", rw="randread", io_count=20)),
    (
        "gc_policy",
        "gc_policy",
        dict(device="ull", policy="greedy", io_count=200, hot_fraction=0.2),
    ),
    (
        "anatomy",
        "anatomy",
        dict(
            device="ull", stack="kernel", completion="interrupt",
            rw="randread", io_count=20,
        ),
    ),
]

_JOB_DEFAULTS = dict(device="ull", rw="randread", io_count=50)


def _params(name, params):
    return {**_JOB_DEFAULTS, **params} if name == "job" else params


def test_every_registered_runner_is_covered():
    get_runner("job")  # registers the built-in runners
    assert {name for _, name, _ in CASES} == set(_RUNNERS)


@pytest.mark.parametrize(
    "name, params", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_finished_point_is_freed_by_refcount(monkeypatch, name, params):
    run = get_runner(name)
    params = _params(name, params)
    sims = []
    init = Simulator.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sims.append(weakref.ref(self))

    monkeypatch.setattr(Simulator, "__init__", tracking_init)
    gc.collect()
    gc.disable()
    try:
        measurement = run(**params)
        assert sims, "the runner built no simulator"
        alive = [ref for ref in sims if ref() is not None]
        collected = gc.collect()
    finally:
        gc.enable()
    assert measurement is not None
    assert alive == [], "a finished point's simulator outlived its runner"
    assert collected == 0, f"the point left {collected} objects in cycles"
