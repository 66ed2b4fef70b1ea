"""What the suite benchmark runs and how it names the simulator's layers.

Shared by the parent (``run.py``), the measured child (``child.py``) and
the tests.  Importing it imports nothing from ``repro``.
"""

from __future__ import annotations

import inspect
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
SRC_REPRO = SRC / "repro"

#: The I/O scaling of ``python -m repro <fig> --scale 0.1``: every figure
#: with an ``io_count`` default runs 10% of it, never fewer than 100 I/Os.
#: Figures without one (the GC runs, which must overwrite the drive
#: before GC starts, and table1) run as declared.
SCALE = 0.1
IO_FLOOR = 100

#: Each workload is one closed loop over a figure grid: one figure after
#: another, each point started when the previous one finished.  The four
#: partition ``repro.core.figures.FIGURES``; figures inside a workload
#: share sweep-memo entries exactly as they do in one ``perf --all`` run.
WORKLOADS: Dict[str, Tuple[str, ...]] = {
    # libaio at QD 1-256, reads beside writes: loads the sim kernel,
    # blk-mq and the NVMe SQ/CQ path.
    "async-qd": (
        "table1", "fig04a", "fig04b", "fig05a", "fig05b", "fig06a", "fig06b",
        "fig07a", "abl-suspend", "abl-mapcache", "abl-writebuffer", "zoo-latency",
    ),
    # psync QD1 across interrupt/poll/hybrid completion: many short
    # points, so per-point device set-up is a visible share.
    "sync-qd1": (
        "fig09", "fig10", "fig11", "fig12", "fig13", "fig14a", "fig14b", "fig15",
        "fig16", "abl-hybridsleep", "ext-lightqueue", "ext-lightqueue-depth",
        "ext-anatomy",
    ),
    # SPDK vs kernel up to 1 MB requests plus the NBD path: the per-page
    # device path (power, flash, ftl) dominates and kstack/nvme idle.
    "spdk-server": (
        "fig17", "fig18", "fig19", "fig20", "fig21", "fig22a", "fig22b", "fig23",
        "fault-readtail", "fault-retry", "fault-nbdflap",
    ),
    # Sustained 4 KB random overwrites on full devices: FTL GC engaged,
    # only 8 points, so per-point set-up barely shows.
    "gc-overwrite": (
        "fig07b", "fig08a", "fig08b", "abl-overprovision", "abl-gcpolicy",
    ),
}

#: The layer of each part of ``repro``; a module takes the entry of the
#: longest dotted prefix of its name.  Layers are packages, with the
#: sim kernel and the power meter split out as the two hot modules.
#: Every reported layer does work on every workload, so none reads a
#: constant zero:
#:
#: * ``core`` holds the figures, runners and sweep engine, and also the
#:   facade, front ends and tools, none of which is on a hot path;
#: * ``host`` is almost all ``host.accounting``;
#: * ``None`` charges a package to its caller, as library code is:
#:   ``spdk``, ``net`` and ``faults`` run only on ``spdk-server``, where
#:   each takes under 0.5% of the samples.
LAYER_MAP: Dict[str, Optional[str]] = {
    "sim.engine": "sim.engine",
    "sim": "sim",
    "workloads": "workloads",
    "kstack": "kstack",
    "nvme": "nvme",
    "ssd": "ssd",
    "ssd.power": "ssd.power",
    "ftl": "ftl",
    "flash": "flash",
    "host": "host",
    "stats": "stats",
    "obs": "obs",
    "core": "core",
    "api": "core",
    "__init__": "core",
    "__main__": "core",
    "fio": "core",
    "units": "core",
    "perf": "core",
    "lint": "core",
    "spdk": None,
    "net": None,
    "faults": None,
}

#: The reported layers, in print order.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for layer in LAYER_MAP.values() if layer)
)

#: Runner parameters the benchmark's ``--seed`` is added to.  A point's
#: ``fault_plan`` carries its seed as a ``("seed", n)`` entry, shifted too.
SEED_PARAMS: Tuple[str, ...] = (
    "device_seed", "stack_seed", "job_seed", "rng_seed", "seed",
)


def map_entry(module: str) -> Optional[str]:
    """The ``LAYER_MAP`` key covering a module named relative to
    ``repro`` (``"ssd.power"``, ``"core.figures"``), or ``None``."""
    parts = module.split(".")
    while parts:
        name = ".".join(parts)
        if name in LAYER_MAP:
            return name
        parts.pop()
    return None


def layer_of_module(module: str) -> Optional[str]:
    """The layer a module's samples are charged to; ``None`` passes them
    to the caller."""
    entry = map_entry(module)
    return LAYER_MAP[entry] if entry is not None else None


def layer_of_file(filename: str) -> Optional[str]:
    """The layer of a source file; ``None`` outside ``src/repro``."""
    prefix = f"{SRC_REPRO}/"
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    return layer_of_module(filename[len(prefix):-3].replace("/", "."))


def scaled_kwargs(fn: Callable) -> Dict[str, int]:
    """The ``io_count`` override ``--scale 0.1`` gives figure ``fn``."""
    param = inspect.signature(fn).parameters.get("io_count")
    if param is None or not param.default:
        return {}
    return {"io_count": max(IO_FLOOR, int(param.default * SCALE))}
