"""The devices x workload sweep axis: any figure metric across the zoo.

The paper measures two devices; the registry makes the device a data
axis.  ``zoo_sweep`` is the generic grid — every registered device (plus
the two preset aliases a caller may ask for) crossed with a workload
list — and ``zoo_latency`` is the registered figure built on it: mean
and p99 latency of 4 KB random reads and writes across the whole zoo,
one row per device.

Each (device, workload) cell is an ordinary sweep point, so cells cache
independently under their device's spec-hash identity and fan out
across workers like any other grid.  The CLI's ``--device`` override is
deliberately *not* applied here (the device axis is the figure's
subject, not a default to substitute), which also makes the figure a
cheap whole-zoo validity check: ``python -m repro figures zoo-latency`` builds
and runs every spec in the tree.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.metrics import FigureResult, Series
from repro.core.sweep import Measurement, make_point, sweep


def zoo_points(
    workloads: Sequence[str],
    *,
    io_count: int = 400,
    devices: Sequence[str] = (),
    engine: str = "psync",
    iodepth: int = 1,
):
    """The devices x workload grid as sweep points.

    ``devices`` defaults to every registered spec (the zoo); pass names
    explicitly to include the ``"ull"``/``"nvme"`` preset aliases or to
    narrow the axis.  Keys are ``(device, workload)``.
    """
    from repro.ssd.registry import list_devices

    names = tuple(devices) or list_devices()
    return [
        make_point(
            (device, rw),
            "job",
            device=device,
            rw=rw,
            engine=engine,
            iodepth=iodepth,
            io_count=io_count,
            device_seed=42,
            stack_seed=11,
            job_seed=1234,
        )
        for device in names
        for rw in workloads
    ]


def zoo_sweep(
    workloads: Sequence[str],
    *,
    io_count: int = 400,
    devices: Sequence[str] = (),
    name: str = "zoo",
) -> Dict[Tuple[str, str], Measurement]:
    """Run the devices x workload grid; ``{(device, rw): Measurement}``."""
    points = zoo_points(tuple(workloads), io_count=io_count, devices=devices)
    return sweep(points, name=name)


def zoo_latency(io_count: int = 400) -> FigureResult:
    """Mean and p99 latency of 4KB random I/O across the device zoo."""
    from repro.ssd.registry import list_devices

    devices = list_devices()
    workloads = ("randread", "randwrite")
    data = zoo_sweep(workloads, io_count=io_count, name="zoo_latency")
    series = []
    for rw, short in (("randread", "RndRd"), ("randwrite", "RndWr")):
        for metric, pick in (
            ("mean", lambda s: s.mean_us),
            ("p99", lambda s: s.p99_us),
        ):
            ys = [pick(data[(device, rw)].result.latency) for device in devices]
            series.append(
                Series.from_points(f"{short} {metric}", devices, ys, "us")
            )
    return FigureResult(
        figure_id="zoo-latency",
        title="4KB random-I/O latency across the device zoo",
        x_label="device",
        y_label="latency (us)",
        series=tuple(series),
        notes=(
            f"{io_count} I/Os per cell, psync QD1, kernel interrupt path; "
            "one column per registered device spec"
        ),
    )
