"""Parse fio job files into :class:`~repro.workloads.job.FioJob` specs.

The paper's workloads are all fio invocations; this front end lets the
simulator run (the supported subset of) real fio job files unchanged:

    [global]
    rw=randread
    bs=4k
    ioengine=libaio
    iodepth=16

    [job1]
    number_ios=10000

Supported keys: ``rw``, ``bs``/``blocksize``, ``iodepth``, ``ioengine``
(``pvsync2``/``psync``/``sync`` -> sync, ``libaio``, ``spdk``),
``number_ios``/``loops``-free sizing via ``size``, ``rwmixwrite``/
``rwmixread``, ``numjobs``, ``randseed``, ``direct`` (accepted and
ignored — the simulated stacks never have a page cache, matching
O_DIRECT), ``name``.  Unknown keys raise, so a silently-unsupported
option can't skew an experiment.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.patterns import RW_MODES

#: Keys accepted but without simulation effect (documented no-ops).
IGNORED_KEYS = frozenset(
    {"direct", "filename", "group_reporting", "time_based", "thread"}
)

_SIZE_RE = re.compile(r"^(\d+)([kKmMgG]?)[bB]?$")
_SIZE_MULT = {"": 1, "k": 1 << 10, "m": 1 << 20, "g": 1 << 30}

_ENGINE_OF = {
    "pvsync2": IoEngineKind.PSYNC,
    "psync": IoEngineKind.PSYNC,
    "sync": IoEngineKind.PSYNC,
    "libaio": IoEngineKind.LIBAIO,
    "spdk": IoEngineKind.SPDK,
}


class FioFileError(ValueError):
    """A job file could not be interpreted."""


def parse_size(text: str) -> int:
    """``4k`` -> 4096, ``1m`` -> 1048576, plain numbers pass through."""
    match = _SIZE_RE.match(text.strip())
    if not match:
        raise FioFileError(f"unparseable size: {text!r}")
    value, suffix = match.groups()
    return int(value) * _SIZE_MULT[suffix.lower()]


@dataclass
class _Options:
    """Accumulated option state (global + per-job overrides)."""

    values: Dict[str, str]

    def updated(self, overrides: Dict[str, str]) -> "_Options":
        merged = dict(self.values)
        merged.update(overrides)
        return _Options(merged)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        return self.values.get(key, default)


def _build_job(name: str, options: _Options) -> FioJob:
    unknown = (
        set(options.values)
        - {
            "rw", "readwrite", "bs", "blocksize", "iodepth", "ioengine",
            "number_ios", "size", "rwmixwrite", "rwmixread", "numjobs",
            "randseed", "name",
        }
        - IGNORED_KEYS
    )
    if unknown:
        raise FioFileError(f"unsupported fio option(s): {sorted(unknown)}")

    rw = options.get("rw") or options.get("readwrite") or "read"
    if rw not in RW_MODES:
        raise FioFileError(f"unsupported rw: {rw!r}; expected one of {RW_MODES}")
    block_size = parse_size(options.get("bs") or options.get("blocksize") or "4k")
    engine_name = (options.get("ioengine") or "pvsync2").lower()
    try:
        engine = _ENGINE_OF[engine_name]
    except KeyError:
        raise FioFileError(f"unsupported ioengine: {engine_name!r}") from None
    iodepth = int(options.get("iodepth") or 1)
    if engine in (IoEngineKind.PSYNC, IoEngineKind.SPDK):
        iodepth = 1  # fio ignores iodepth for sync engines

    if options.get("number_ios"):
        io_count = int(options.get("number_ios"))
    elif options.get("size"):
        io_count = max(1, parse_size(options.get("size")) // block_size)
    else:
        raise FioFileError(f"job {name!r} needs number_ios= or size=")

    if options.get("rwmixwrite"):
        write_fraction = int(options.get("rwmixwrite")) / 100.0
    elif options.get("rwmixread"):
        write_fraction = 1.0 - int(options.get("rwmixread")) / 100.0
    else:
        write_fraction = 0.5

    return FioJob(
        name=options.get("name") or name,
        rw=rw,
        block_size=block_size,
        iodepth=iodepth,
        engine=engine,
        io_count=io_count,
        write_fraction=write_fraction,
        seed=int(options.get("randseed") or 1234),
    )


def parse_fio_file(text: str) -> List[FioJob]:
    """Parse job-file text; returns one FioJob per job section (times
    ``numjobs``)."""
    parser = configparser.ConfigParser(
        delimiters=("=",), interpolation=None, strict=False,
        allow_no_value=True,
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise FioFileError(f"bad job file: {exc}") from exc
    sections = parser.sections()
    if not sections:
        raise FioFileError("job file defines no sections")
    global_options = _Options(
        dict(parser.items("global")) if "global" in sections else {}
    )
    jobs: List[FioJob] = []
    for section in sections:
        if section == "global":
            continue
        options = global_options.updated(dict(parser.items(section)))
        try:
            replicas = int(options.get("numjobs") or 1)
            base = _build_job(section, options)
        except FioFileError:
            raise
        except ValueError as exc:  # int() of a bad number, FioJob checks
            raise FioFileError(f"job {section!r}: {exc}") from exc
        for replica in range(replicas):
            if replica == 0:
                jobs.append(base)
            else:
                from dataclasses import replace

                jobs.append(
                    replace(
                        base,
                        name=f"{base.name}.{replica}",
                        seed=base.seed + replica,
                    )
                )
    if not jobs:
        raise FioFileError("job file defines no jobs (only [global])")
    return jobs


def load_fio_file(path: str) -> List[FioJob]:
    """Parse a job file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_fio_file(handle.read())
