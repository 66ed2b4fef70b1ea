"""``python -m repro.fio <jobfile> [options]`` — run fio job files.

The simulated counterpart of invoking fio on the paper's testbed:

    python -m repro.fio examples/jobs/sync_latency.fio --device ull \\
        --completion poll

Each job in the file runs on a fresh, preconditioned device and prints a
fio-style summary line.  A missing or malformed job file, or a bad flag,
fails with one ``repro.fio: error: ...`` line and exit status 2.
"""

from __future__ import annotations

import argparse
from typing import Any, List, Optional, Sequence

from repro.api import open_device
from repro.core.cliargs import ArgumentParser
from repro.host.accounting import ExecMode
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.sim.engine import Simulator
from repro.spdk.stack import SpdkStack
from repro.ssd.device import SsdDevice
from repro.ssd.registry import PRESET_NAMES, DeviceLike
from repro.workloads.fiofile import FioFileError, load_fio_file
from repro.workloads.job import FioJob, IoEngineKind
from repro.workloads.runner import JobResult, run_job, run_jobs


def run_jobfile(
    path: str,
    *,
    device: DeviceLike = "ull",
    completion: CompletionMethod = CompletionMethod.INTERRUPT,
    precondition: float = 1.0,
    concurrent: bool = False,
) -> List[JobResult]:
    """Run every job in ``path``; returns the list of JobResults.

    ``concurrent=True`` gives fio's default semantics — all jobs hammer
    one shared device simultaneously, each from its own stack/core.
    The default runs each job on a fresh device (fio's ``stonewall``
    between independent measurements).
    """
    jobs = load_fio_file(path)
    engines = {job.engine is IoEngineKind.SPDK for job in jobs}
    if concurrent and len(engines) > 1:
        raise FioFileError(
            "cannot mix spdk and kernel jobs on one device: SPDK unbinds "
            "the kernel driver"
        )

    def make_stack(
        sim: Simulator, dev: SsdDevice, job: FioJob, seed: int
    ) -> Any:
        if job.engine is IoEngineKind.SPDK:
            return SpdkStack(sim, dev)
        return KernelStack(sim, dev, completion=completion, seed=seed)

    if concurrent:
        sim = Simulator()
        dev = open_device(sim, device, precondition=precondition)
        pairs = [
            (make_stack(sim, dev, job, seed=index + 1), job)
            for index, job in enumerate(jobs)
        ]
        return run_jobs(sim, pairs)
    results: List[JobResult] = []
    for job in jobs:
        sim = Simulator()
        dev = open_device(sim, device, precondition=precondition)
        results.append(run_job(sim, make_stack(sim, dev, job, seed=1), job))
    return results


def _fraction(text: str) -> float:
    """argparse type: a number in [0, 1]."""
    message = f"expected a fraction in [0, 1], got {text!r}"
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(message) from None
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(message)
    return value


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = ArgumentParser(
        prog="repro.fio",
        description="Run a fio job file against a simulated SSD",
    )
    parser.add_argument("jobfile", help="fio-format job file")
    parser.add_argument("--device", choices=PRESET_NAMES, default="ull")
    parser.add_argument(
        "--completion",
        choices=[m.value for m in CompletionMethod],
        default="interrupt",
        help="kernel completion method (ignored for spdk jobs)",
    )
    parser.add_argument(
        "--precondition", type=_fraction, default=1.0,
        help="fraction of the drive written before the run, in [0, 1] "
             "(default 1.0)",
    )
    parser.add_argument(
        "--concurrent", action="store_true",
        help="run all jobs simultaneously on one shared device "
             "(fio's default semantics)",
    )
    args = parser.parse_args(argv)
    try:
        results = run_jobfile(
            args.jobfile,
            device=args.device,
            completion=CompletionMethod(args.completion),
            precondition=args.precondition,
            concurrent=args.concurrent,
        )
    except OSError as exc:
        parser.error(f"cannot read {args.jobfile}: {exc.strerror or exc}")
    except FioFileError as exc:
        parser.error(f"{args.jobfile}: {exc}")
    for result in results:
        summary = result.latency
        print(
            f"{result.job.name}: ({result.job.rw}, bs={result.job.block_size}, "
            f"qd={result.job.iodepth}, {result.job.engine.value})"
        )
        print(
            f"  lat (usec): avg={summary.mean_us:.1f}, p50={summary.p50_ns / 1000:.1f}, "
            f"p99={summary.p99_us:.1f}, p99.999={summary.p99999_us:.1f}"
        )
        print(
            f"  bw={result.bandwidth_mbps:.0f}MB/s, iops={result.iops:.0f}, "
            f"cpu usr={100 * result.cpu_utilization(ExecMode.USER):.1f}% "
            f"sys={100 * result.cpu_utilization(ExecMode.KERNEL):.1f}%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
