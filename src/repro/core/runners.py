"""Measurement runners: the execution layer behind the sweep engine.

Each runner is a pure function from canonical parameters to a
:class:`~repro.core.sweep.Measurement` — it builds a fresh simulator,
device, and host stack, runs one job, and returns only detached data
(job summaries, device snapshots, scalars), never live simulator state.
That contract is what lets the engine execute points in worker
processes and persist results across runs.  Each runner closes its
simulator (:meth:`~repro.sim.engine.Simulator.close`) once the
measurement is detached, so the finished point is freed by reference
counting alone.

Runners:

* ``job`` — the universal fio-style measurement: any device (with
  config overrides), any pattern/block size/engine/queue depth, kernel
  (interrupt/poll/hybrid, optionally the NCQ-style light queue) or SPDK
  host path.  Seeds are explicit (``device_seed``/``stack_seed``/
  ``job_seed``) so every figure reproduces its historical numbers.
* ``idle`` — a preconditioned device left alone; reports average power.
* ``nbd`` — fio over ext4 over an NBD client/server pair (Fig. 23).
* ``gc_policy`` — raw skewed-overwrite storm against the device (the
  GC victim-policy ablation; no host stack involved).
* ``anatomy`` — stage-probe run splitting latency into
  submit/device/complete (the ``ext-anatomy`` extension).

The point constructors (:func:`sync_point`, :func:`async_point`, ...)
encode the seed conventions the pre-engine helpers used, so figures
declare grids without repeating them.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

from repro.api import JobConfig, Testbed, device_snapshot
from repro.core.sweep import Measurement, Point, make_point, runner
from repro.faults.plan import FaultPlan, active_plan
from repro.sim.engine import Simulator
from repro.ssd.device import SsdDevice
from repro.ssd.registry import effective_device, resolve_config
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.runner import run_job


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _resolve_config(device: str, config_overrides=()):
    """Any device the registry accepts — preset alias, zoo name, or
    spec path — resolved with overrides applied."""
    return resolve_config(device, tuple(config_overrides))


def _resolve_faults(fault_plan: Tuple) -> Optional[FaultPlan]:
    """An explicit per-point plan wins; otherwise pick up the plan the
    CLI/engine installed ambiently (workers re-install it, so parallel
    runs see the same plan as serial ones)."""
    if fault_plan:
        return FaultPlan.from_params(fault_plan)
    return active_plan()


# ----------------------------------------------------------------------
# The universal job runner
# ----------------------------------------------------------------------
@runner("job")
def job_runner(
    *,
    device: str,
    rw: str,
    engine: str = "psync",
    block_size: int = 4096,
    iodepth: int = 1,
    io_count: int = 1000,
    write_fraction: float = 0.5,
    precondition: float = 1.0,
    stack: str = "kernel",
    completion: str = "interrupt",
    sleep_fraction: Optional[float] = None,
    light: bool = False,
    capture_timeseries: bool = False,
    config_overrides: Tuple = (),
    device_seed: int = 42,
    stack_seed: int = 11,
    job_seed: int = 1234,
    fault_plan: Tuple = (),
    want_device: bool = False,
) -> Measurement:
    """One fio-style measurement on a fresh simulator."""
    testbed = Testbed(
        device=device,
        stack=stack,
        completion=completion,
        precondition=precondition,
        light=light,
        sleep_fraction=sleep_fraction,
        config_overrides=tuple(config_overrides),
        device_seed=device_seed,
        stack_seed=stack_seed,
        faults=_resolve_faults(fault_plan),
    )
    config = JobConfig(
        rw=rw,
        engine=engine,
        block_size=block_size,
        iodepth=iodepth,
        io_count=io_count,
        write_fraction=write_fraction,
        seed=job_seed,
        capture_timeseries=capture_timeseries,
    )
    return testbed.run(config, want_device=want_device)


# ----------------------------------------------------------------------
# Idle power
# ----------------------------------------------------------------------
@runner("idle")
def idle_runner(
    *,
    device: str,
    duration_ns: int = 10_000_000,
    precondition: float = 1.0,
    device_seed: int = 42,
) -> Measurement:
    """A device left alone; reports its average power over the window."""
    sim = Simulator()
    ssd = Testbed(
        device=device, precondition=precondition, device_seed=device_seed,
        faults=active_plan(),
    ).open_device(sim)
    sim.run(until=duration_ns)
    avg_power_w = ssd.power.average_watts(sim.now)
    sim.close()
    return Measurement(values=(("avg_power_w", avg_power_w),))


# ----------------------------------------------------------------------
# Server-client NBD path (Fig. 23)
# ----------------------------------------------------------------------
class FileSystemOverNbd:
    """fio -> ext4 -> NBD client -> network -> server -> ULL SSD.

    Adapts the ext4 model to the ``sync_io`` contract the workload
    engines expect, adding the client's user-space cost per file I/O.
    """

    def __init__(self, sim: Simulator, server, faults=None) -> None:
        from repro.host.accounting import CpuAccounting
        from repro.host.costs import DEFAULT_COSTS
        from repro.kstack.filesystem import Ext4Model
        from repro.net.nbd import NbdSystem

        self.sim = sim
        self.accounting = CpuAccounting()
        self.costs = DEFAULT_COSTS
        self.device = Testbed(device="ull", faults=faults).open_device(sim)
        self.nbd = NbdSystem(
            sim, self.device, server=server, accounting=self.accounting,
            faults=faults,
        )
        self.fs = Ext4Model(
            sim,
            self.accounting,
            self.nbd.sync_io,
            self.device.capacity_bytes,
        )

    @property
    def data_region_bytes(self) -> int:
        """File-data capacity left after the metadata/journal region."""
        return self.device.capacity_bytes - self.fs.data_base

    def sync_io(self, op, offset: int, nbytes: int):
        from repro.host.accounting import ExecMode
        from repro.ssd.device import IoOp

        costs = self.costs
        self.accounting.charge(
            costs.user_io_prep.ns, ExecMode.USER, "fio", "fio_rw",
            loads=costs.user_io_prep.loads, stores=costs.user_io_prep.stores,
        )
        yield self.sim.sleep(costs.user_io_prep.ns)
        if op is IoOp.READ:
            latency = yield from self.fs.read(offset, nbytes)
        else:
            latency = yield from self.fs.write(offset, nbytes)
        return latency + costs.user_io_prep.ns


@runner("nbd")
def nbd_runner(
    *,
    server: str,
    rw: str,
    block_size: int = 4096,
    io_count: int = 800,
    device: str = "ull",
    job_seed: int = 1234,
    fault_plan: Tuple = (),
) -> Measurement:
    """One synchronous file-I/O run over the NBD client/server system."""
    from repro.net.nbd import NbdServerKind

    if device != "ull":
        raise ValueError("the NBD system models the ULL SSD only")
    sim = Simulator()
    stack = FileSystemOverNbd(
        sim, NbdServerKind(server), faults=_resolve_faults(fault_plan)
    )
    job = FioJob(
        name=f"nbd-{server}-{rw}-{block_size}",
        rw=rw,
        block_size=block_size,
        engine=IoEngineKind.PSYNC,
        io_count=io_count,
        seed=job_seed,
        # Keep file data inside the region ext4 reserves for it.
        region_bytes=(stack.data_region_bytes // block_size) * block_size,
    )
    result = run_job(sim, stack, job)
    sim.close()
    return Measurement(result=result)


# ----------------------------------------------------------------------
# GC victim-policy storm (ablation)
# ----------------------------------------------------------------------
@runner("gc_policy")
def gc_policy_runner(
    *,
    device: str,
    policy: str,
    io_count: int,
    hot_fraction: float,
    config_overrides: Tuple = (),
    rng_seed: int = 17,
) -> Measurement:
    """Skewed (80/20) raw overwrites against the device until GC steady
    state; reports write amplification and erase count."""
    import numpy as np

    config = dataclasses.replace(
        _resolve_config(device, config_overrides), gc_policy=policy
    )
    sim = Simulator()
    ssd = SsdDevice(sim, config, faults=active_plan())
    ssd.precondition()
    rng = np.random.default_rng(rng_seed)
    pages = ssd.logical_pages
    hot_pages = max(1, int(pages * hot_fraction))
    for _ in range(io_count):
        if rng.random() < 0.8:
            lpn = int(rng.integers(0, hot_pages))
        else:
            lpn = int(rng.integers(hot_pages, pages))
        ssd.write(lpn * 4096, 4096)
    sim.run()
    measurement = Measurement(
        device=device_snapshot(ssd),
        values=(
            ("write_amplification", ssd.ftl.write_amplification()),
            ("erases", float(ssd.ftl.erases)),
        ),
    )
    sim.close()
    return measurement


# ----------------------------------------------------------------------
# Latency anatomy via stage probes (extension)
# ----------------------------------------------------------------------
@runner("anatomy")
def anatomy_runner(
    *,
    device: str,
    stack: str,
    completion: Optional[str],
    rw: str,
    io_count: int,
    device_seed: int = 42,
) -> Measurement:
    """Mean submit/device/complete stage times of a synchronous run."""
    from repro.workloads.engines import MetricsCollector, SyncJobEngine
    from repro.workloads.patterns import make_pattern

    sim = Simulator()
    ssd, host = Testbed(
        device=device,
        stack=stack,
        completion=completion or "interrupt",
        device_seed=device_seed,
        faults=active_plan(),
    ).build(sim)
    host.stage_log = []
    job = FioJob(
        name=f"anatomy-{stack}", rw=rw, engine=IoEngineKind.PSYNC, io_count=io_count
    )
    pattern = make_pattern(job.rw, job.block_size, ssd.capacity_bytes)
    metrics = MetricsCollector()
    process = sim.process(SyncJobEngine(sim, host, job, pattern, metrics).run())
    sim.run_until_event(process)
    sim.close()
    count = len(host.stage_log)
    sums = [0, 0, 0]
    for start, submitted, cqe, done in host.stage_log:
        sums[0] += submitted - start
        sums[1] += cqe - submitted
        sums[2] += done - cqe
    return Measurement(
        values=(
            ("submit_ns", sums[0] / count),
            ("device_ns", sums[1] / count),
            ("complete_ns", sums[2] / count),
        )
    )


# ----------------------------------------------------------------------
# Point constructors: the seed conventions of the pre-engine helpers
# ----------------------------------------------------------------------
# Each constructor passes its device through
# ``registry.effective_device`` — the CLI's ``--device`` override
# substitutes at *declaration* time, so the override lands in the
# point's canonical parameters (and its cache key) and worker processes
# need no ambient state.  Default point *keys* keep the declared device
# name: figures index and label their series by the grid they declared,
# and overridden grids that collapse onto one device dedup through the
# engine's memo (identical params = one execution).  ``nbd_point`` is
# the one exception: the NBD system models the ULL SSD only.
def sync_point(
    device: str,
    rw: str,
    *,
    block_size: int = 4096,
    method: str = "interrupt",
    stack: str = "kernel",
    io_count: int = 2000,
    key=None,
) -> Point:
    """A synchronous (pvsync2 / SPDK-plugin) measurement.

    One seed (42) drives device, stack, and access pattern alike.
    """
    if key is None:
        key = (device, rw, block_size, method, stack)
    device = effective_device(device)
    return make_point(
        key,
        "job",
        device=device,
        rw=rw,
        engine="psync",
        block_size=block_size,
        io_count=io_count,
        stack=stack,
        completion=method,
        device_seed=42,
        stack_seed=42,
        job_seed=42,
    )


def async_point(
    device: str,
    rw: str,
    *,
    iodepth: int = 1,
    io_count: int = 2000,
    write_fraction: float = 0.5,
    capture_timeseries: bool = False,
    config_overrides: Tuple = (),
    want_device: bool = False,
    key=None,
) -> Point:
    """An asynchronous (libaio, interrupt-completed) measurement.

    Device and pattern are seeded 42, the stack 11.
    """
    if key is None:
        key = (device, rw, iodepth)
    device = effective_device(device)
    return make_point(
        key,
        "job",
        device=device,
        rw=rw,
        engine="libaio",
        iodepth=iodepth,
        io_count=io_count,
        write_fraction=write_fraction,
        capture_timeseries=capture_timeseries,
        config_overrides=config_overrides,
        want_device=want_device,
        device_seed=42,
        stack_seed=11,
        job_seed=42,
    )


def gc_point(device: str, io_count: int, *, key=None) -> Point:
    """Sustained sync QD-1 random overwrites until GC engages, with the
    latency time series and a device snapshot (Figs. 7b/8)."""
    if key is None:
        key = ("gc", device)
    device = effective_device(device)
    return make_point(
        key,
        "job",
        device=device,
        rw="randwrite",
        engine="psync",
        io_count=io_count,
        capture_timeseries=True,
        want_device=True,
        device_seed=42,
        stack_seed=11,
        job_seed=1234,
    )


def config_point(
    device: str,
    rw: str,
    *,
    io_count: int,
    config_overrides: Tuple = (),
    engine: str = "psync",
    iodepth: int = 1,
    write_fraction: float = 0.5,
    completion: str = "interrupt",
    sleep_fraction: Optional[float] = None,
    want_device: bool = False,
    key,
) -> Point:
    """An ablation-style run on a modified device config.

    Mirrors ``ablations._run_on_config``: device seed 42, stack seed 11,
    fio's default pattern seed (1234).
    """
    device = effective_device(device)
    return make_point(
        key,
        "job",
        device=device,
        rw=rw,
        engine=engine,
        iodepth=iodepth,
        io_count=io_count,
        write_fraction=write_fraction,
        completion=completion,
        sleep_fraction=sleep_fraction,
        config_overrides=config_overrides,
        want_device=want_device,
        device_seed=42,
        stack_seed=11,
        job_seed=1234,
    )


def light_point(
    device: str,
    rw: str,
    *,
    light: bool,
    completion: str,
    io_count: int,
    iodepth: int = 1,
    key=None,
) -> Point:
    """A light-queue-vs-NVMe-rings measurement (extension studies)."""
    if key is None:
        key = (device, rw, light, completion, iodepth)
    device = effective_device(device)
    return make_point(
        key,
        "job",
        device=device,
        rw=rw,
        engine="psync" if iodepth == 1 else "libaio",
        iodepth=iodepth,
        io_count=io_count,
        completion=completion,
        light=light,
        device_seed=42,
        stack_seed=11,
        job_seed=1234,
    )


def idle_point(device: str, *, duration_ns: int = 10_000_000, key=None) -> Point:
    """Average power of an idle, preconditioned device."""
    if key is None:
        key = ("idle", device)
    device = effective_device(device)
    return make_point(
        key,
        "idle",
        device=device,
        duration_ns=duration_ns,
    )


def nbd_point(server: str, rw: str, block_size: int, io_count: int, *, key=None) -> Point:
    """One Fig. 23 server-client NBD measurement."""
    return make_point(
        key if key is not None else (server, rw, block_size),
        "nbd",
        device="ull",
        server=server,
        rw=rw,
        block_size=block_size,
        io_count=io_count,
    )


def anatomy_point(
    stack: str, completion: Optional[str], rw: str, io_count: int, *,
    device: str = "ull", seed: int = 42, key=None,
) -> Point:
    """One stage-probe run for the latency-anatomy extension."""
    if key is None:
        key = (stack, completion)
    device = effective_device(device)
    return make_point(
        key,
        "anatomy",
        device=device,
        stack=stack,
        completion=completion,
        rw=rw,
        io_count=io_count,
        device_seed=seed,
    )
