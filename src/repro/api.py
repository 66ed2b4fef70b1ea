"""The stable public facade: build a testbed, describe a job, run it.

This module is the supported way to construct and drive the simulated
I/O stack.  It consolidates the construction keywords that used to be
re-plumbed through ``core/experiment.py``, ``core/runners.py``, and the
figure modules into two frozen dataclasses:

* :class:`Testbed` — *what hardware and host path*: a **named device**
  (registry name like ``"zssd"``, spec-file path, live
  :class:`~repro.ssd.spec.DeviceSpec`, or raw
  :class:`~repro.ssd.config.SsdConfig` — with config overrides), kernel
  vs. SPDK stack, completion method, preconditioning, seeds, and an
  optional :class:`~repro.faults.FaultPlan`;
* :class:`JobConfig` — *what workload*: pattern, engine, block size,
  queue depth, I/O count, pattern seed.

Typical use::

    from repro.api import Testbed, JobConfig, list_devices

    print(list_devices())  # ('intel750', ..., 'qlc', ..., 'zssd')
    testbed = Testbed(device="zssd", completion="poll")
    result = testbed.run_job(JobConfig(rw="randread", io_count=2000))
    print(result.latency.mean_us)

``device`` accepts, in one argument:

* a registry name from :func:`list_devices` (``"zssd"``,
  ``"intel750"``, ``"qlc"``, ...) or a preset alias (``"ull"``,
  ``"nvme"`` — the paper's two devices built by the hand-wired
  presets);
* a path to a ``.toml``/``.json`` spec file
  (:func:`load_device_spec` loads one explicitly);
* a :class:`~repro.ssd.spec.DeviceSpec` or a full
  :class:`~repro.ssd.config.SsdConfig` object.

Everything here is deterministic: the same testbed + job produce
byte-identical results on every run, in any process.  The legacy
helpers ``run_sync_job``/``run_async_job`` in ``repro.core.experiment``
and the ``ull_ssd_config``/``nvme_ssd_config`` preset constructors in
``repro.ssd.presets`` are deprecation shims over this module.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from repro.core.experiment import DeviceKind
from repro.core.sweep import DeviceSnapshot, Measurement
from repro.faults.plan import FaultPlan
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.sim.engine import Simulator
from repro.spdk.stack import SpdkStack
from repro.ssd.config import SsdConfig
from repro.ssd.device import SsdDevice
from repro.ssd.registry import list_devices, load_device_spec, resolve_config
from repro.ssd.spec import DeviceSpec, DeviceSpecError
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.runner import JobResult
from repro.workloads.runner import run_job as _run_job_on

__all__ = [
    "DeviceSpec",
    "DeviceSpecError",
    "JobConfig",
    "Testbed",
    "device_snapshot",
    "list_devices",
    "load_device_spec",
    "open_device",
    "run_job",
]


def _name_of(value: object) -> str:
    """Accept ``"kernel"`` or ``StackKind.KERNEL`` alike."""
    if isinstance(value, enum.Enum):
        return str(value.value)
    return str(value)


def device_snapshot(device: SsdDevice, *, label: str = "") -> DeviceSnapshot:
    """Detach the device-side state figures read after a run.

    ``label`` stamps the snapshot with the registry/spec name the device
    was resolved from; when omitted, the label attached by
    :func:`repro.ssd.registry.resolve_config` (or the config's display
    name) is used.
    """
    from repro.ssd.registry import spec_label

    events = device.stats.gc_events
    return DeviceSnapshot(
        gc_events=len(events),
        first_gc_ns=events[0].start_ns if events else -1,
        write_amplification=device.ftl.write_amplification(),
        erases=int(device.ftl.erases),
        power_series=device.power.series,
        device=label or spec_label(device.config),
    )


# ----------------------------------------------------------------------
# The workload description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobConfig:
    """One fio-style job, independent of the stack that runs it.

    ``engine`` is ``"psync"`` (synchronous) or ``"libaio"``
    (asynchronous, honors ``iodepth``); on an SPDK testbed the engine is
    always the SPDK plugin path regardless.  ``seed`` drives the access
    pattern; ``name`` defaults to a testbed-derived label.
    """

    rw: str
    engine: str = "psync"
    block_size: int = 4096
    iodepth: int = 1
    io_count: int = 1000
    write_fraction: float = 0.5
    seed: int = 1234
    capture_timeseries: bool = False
    name: Optional[str] = None


# ----------------------------------------------------------------------
# The hardware + host-path description
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Testbed:
    """A named device plus the host path that drives it.

    A testbed is a *description* — building it allocates nothing.  Each
    :meth:`run_job`/:meth:`run` call constructs a fresh simulator,
    device, and stack, so runs are independent and reproducible.

    ``device`` names the hardware: a registry name (``"zssd"``,
    ``"intel750"``, ``"qlc"``, ... — see :func:`list_devices`), a preset
    alias (``"ull"``/``"nvme"`` or a
    :class:`~repro.core.experiment.DeviceKind`), a path to a
    ``.toml``/``.json`` spec file, a :class:`DeviceSpec`, or a raw
    :class:`SsdConfig`.  ``config`` substitutes a full
    :class:`SsdConfig` outright (it wins over ``device``), and
    ``config_overrides`` applies ``(field, value)`` pairs on top of
    either.  ``faults`` attaches a :class:`~repro.faults.FaultPlan`,
    threaded to every layer that can inject failures.
    """

    #: Keep pytest from trying to collect this class when imported into
    #: test modules (its name matches the default Test* pattern).
    __test__ = False

    device: Union[str, DeviceKind, DeviceSpec, SsdConfig] = "ull"
    stack: str = "kernel"
    completion: str = "interrupt"
    precondition: float = 1.0
    light: bool = False
    sleep_fraction: Optional[float] = None
    config: Optional[SsdConfig] = None
    config_overrides: Tuple = ()
    queue_depth: int = 1024
    costs: Optional[SoftwareCosts] = None
    device_seed: int = 42
    stack_seed: int = 11
    faults: Optional[FaultPlan] = None

    # ------------------------------------------------------------------
    @property
    def device_name(self) -> str:
        """A short label for the device — registry/spec name, preset
        alias, or the config's model name for raw configs."""
        if isinstance(self.device, DeviceSpec):
            return self.device.name
        if isinstance(self.device, SsdConfig):
            from repro.ssd.registry import spec_label

            return spec_label(self.device)
        return _name_of(self.device)

    @property
    def stack_name(self) -> str:
        return _name_of(self.stack)

    def device_config(self) -> SsdConfig:
        """The fully resolved :class:`SsdConfig` this testbed builds."""
        import dataclasses

        if self.config is not None:
            overrides = dict(self.config_overrides)
            if overrides:
                return dataclasses.replace(self.config, **overrides)
            return self.config
        device = self.device
        if isinstance(device, enum.Enum):
            device = str(device.value)
        return resolve_config(device, self.config_overrides)

    # ------------------------------------------------------------------
    def open_device(self, sim: Simulator) -> SsdDevice:
        """A fresh (optionally preconditioned) device on ``sim``."""
        device = SsdDevice(
            sim, self.device_config(), seed=self.device_seed, faults=self.faults
        )
        if self.precondition > 0:
            device.precondition(self.precondition)
        return device

    def build(self, sim: Simulator) -> Tuple[SsdDevice, Any]:
        """Construct the full path on ``sim``; returns (device, host).

        The construction order matches the historical helpers exactly,
        so results are bit-identical to the pre-facade code.
        """
        device = self.open_device(sim)
        if self.stack_name == "spdk":
            host = SpdkStack(
                sim,
                device,
                costs=self.costs or DEFAULT_COSTS,
                queue_depth=self.queue_depth,
                faults=self.faults,
            )
        else:
            qpair = None
            if self.light:
                from repro.nvme.lightweight import LightQueuePair

                qpair = LightQueuePair(
                    sim,
                    device,
                    interrupts_enabled=(_name_of(self.completion) == "interrupt"),
                )
            host = KernelStack(
                sim,
                device,
                completion=CompletionMethod(_name_of(self.completion)),
                costs=self.costs or DEFAULT_COSTS,
                seed=self.stack_seed,
                queue_depth=self.queue_depth,
                qpair=qpair,
                thin_submit=self.light,
                faults=self.faults,
            )
            if self.sleep_fraction is not None:
                host.engine.sleep_fraction = self.sleep_fraction
        return device, host

    # ------------------------------------------------------------------
    def job(self, config: JobConfig) -> FioJob:
        """Materialize ``config`` as a :class:`FioJob` for this testbed."""
        if self.stack_name == "spdk":
            engine_kind = IoEngineKind.SPDK
        elif config.engine == "libaio":
            engine_kind = IoEngineKind.LIBAIO
        else:
            engine_kind = IoEngineKind.PSYNC
        name = config.name or (
            f"{self.device_name}-{config.rw}-{config.block_size}"
            f"-qd{config.iodepth}"
        )
        return FioJob(
            name=name,
            rw=config.rw,
            block_size=config.block_size,
            engine=engine_kind,
            iodepth=config.iodepth,
            io_count=config.io_count,
            write_fraction=config.write_fraction,
            seed=config.seed,
            capture_timeseries=config.capture_timeseries,
        )

    def run_job(
        self, config: JobConfig, *, want_device: bool = False
    ) -> Union[JobResult, Tuple[JobResult, SsdDevice]]:
        """Run ``config`` on a fresh simulator; returns the
        :class:`JobResult` (with the live device when asked)."""
        sim = Simulator()
        device, host = self.build(sim)
        result = _run_job_on(sim, host, self.job(config))
        if want_device:
            return result, device
        return result

    def run(self, config: JobConfig, *, want_device: bool = False) -> Measurement:
        """Run ``config`` and package the outcome as a detached
        :class:`Measurement` (what sweep runners return).  The simulator
        is closed once the measurement is detached from it."""
        sim = Simulator()
        device, host = self.build(sim)
        result = _run_job_on(sim, host, self.job(config))
        snapshot = device_snapshot(device) if want_device else None
        sim.close()
        return Measurement(result=result, device=snapshot)


# ----------------------------------------------------------------------
# Module-level conveniences
# ----------------------------------------------------------------------
def open_device(
    sim: Simulator,
    device: Union[str, DeviceKind, DeviceSpec, SsdConfig] = "ull",
    **kwargs: Any,
) -> SsdDevice:
    """A fresh device on ``sim`` (keywords as on :class:`Testbed`)."""
    return Testbed(device=device, **kwargs).open_device(sim)


def run_job(
    config: JobConfig, testbed: Optional[Testbed] = None, **kwargs: Any
) -> JobResult:
    """Run one job on ``testbed`` (default: preconditioned ULL over the
    interrupt-driven kernel stack)."""
    if testbed is None:
        testbed = Testbed(**kwargs)
    elif kwargs:
        raise TypeError("pass either a testbed or testbed keywords, not both")
    return testbed.run_job(config)
