"""Figures 4-8: system-level device characterization (paper Section IV).

All experiments here drive the devices with libaio through the kernel
interrupt path, exactly like the paper's fio setup for this section.
Each figure declares its measurement grid as sweep points and submits
the whole grid at once, so the engine can satisfy it from cache or fan
it out across worker processes.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.display import PAPER_DEVICES, PATTERN_LABELS, PATTERNS, US
from repro.core.metrics import FigureResult, Series
from repro.core.runners import async_point, gc_point, idle_point, sync_point
from repro.core.sweep import sweep


# ----------------------------------------------------------------------
# Figure 4: latency vs. queue depth
# ----------------------------------------------------------------------
def _qd_sweep(io_count: int, depths: Tuple[int, ...]):
    """Shared runs for Figs. 4a/4b: JobResult per (device, rw, depth)."""
    points = [
        async_point(device, rw, iodepth=depth, io_count=io_count)
        for device in PAPER_DEVICES
        for rw in PATTERNS
        for depth in depths
    ]
    data = sweep(points, name="qd_sweep")
    return {key: m.result for key, m in data.items()}


def fig04a(io_count: int = 2000, depths: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)):
    """Average latency vs. queue depth, ULL vs. NVMe (Fig. 4a)."""
    data = _qd_sweep(io_count, tuple(depths))
    series = []
    for device in PAPER_DEVICES:
        for rw in PATTERNS:
            ys = [data[(device, rw, d)].latency.mean_us for d in depths]
            series.append(
                Series.from_points(
                    f"{device.upper()} {PATTERN_LABELS[rw]}", depths, ys, "us"
                )
            )
    return FigureResult(
        figure_id="fig04a",
        title="Average latency vs queue depth (libaio, 4KB)",
        x_label="queue depth",
        y_label="avg latency (us)",
        series=tuple(series),
        notes=f"{io_count} I/Os per point; interrupt completion",
    )


def fig04b(io_count: int = 2000, depths: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)):
    """99.999th-percentile latency vs. queue depth (Fig. 4b)."""
    data = _qd_sweep(io_count, tuple(depths))
    series = []
    for device in PAPER_DEVICES:
        for rw in PATTERNS:
            ys = [data[(device, rw, d)].latency.p99999_us for d in depths]
            series.append(
                Series.from_points(
                    f"{device.upper()} {PATTERN_LABELS[rw]}", depths, ys, "us"
                )
            )
    return FigureResult(
        figure_id="fig04b",
        title="Five-nines latency vs queue depth (libaio, 4KB)",
        x_label="queue depth",
        y_label="99.999th latency (us)",
        series=tuple(series),
        notes=f"{io_count} I/Os per point (empirical tail)",
    )


# ----------------------------------------------------------------------
# Figure 5: normalized bandwidth vs. queue depth
# ----------------------------------------------------------------------
def _io_count_for(device: str, rw: str, depth: int, io_count: int) -> int:
    # Write runs must outlast the DRAM write buffer, or the measurement
    # reports buffered-absorption bandwidth instead of steady state.
    # Sized against the *effective* device so a --device override still
    # reaches steady state.
    from repro.ssd.registry import effective_device, resolve_config

    count = max(io_count, depth * 30)
    if "write" in rw or rw in ("rw", "randrw"):
        config = resolve_config(effective_device(device))
        count = max(count, config.write_buffer_units * 5)
    return count


def _bandwidth_sweep(device: str, depths: Tuple[int, ...], io_count: int):
    points = [
        async_point(
            device, rw, iodepth=depth,
            io_count=_io_count_for(device, rw, depth, io_count),
        )
        for rw in PATTERNS
        for depth in depths
    ]
    data = sweep(points, name="bandwidth_sweep")
    series = {
        rw: [data[(device, rw, d)].result.bandwidth_mbps for d in depths]
        for rw in PATTERNS
    }
    peak = max(max(vals) for vals in series.values())
    return {
        rw: [100.0 * v / peak for v in vals] for rw, vals in series.items()
    }, peak


def _fig05(figure_id: str, device: str, depths: Tuple[int, ...], io_count: int):
    normalized, peak = _bandwidth_sweep(device, tuple(depths), io_count)
    series = tuple(
        Series.from_points(PATTERN_LABELS[rw], depths, normalized[rw], "%")
        for rw in PATTERNS
    )
    return FigureResult(
        figure_id=figure_id,
        title=f"Normalized bandwidth vs queue depth — {device.upper()} SSD",
        x_label="queue depth",
        y_label="% of max bandwidth",
        series=series,
        notes=f"max observed bandwidth {peak:.0f} MB/s (normalization base)",
        extras={"peak_mbps": peak},
    )


def fig05a(io_count: int = 2000, depths: Tuple[int, ...] = (1, 2, 4, 8, 16, 24, 32)):
    """ULL SSD bandwidth utilization (Fig. 5a)."""
    return _fig05("fig05a", "ull", depths, io_count)


def fig05b(io_count: int = 2000, depths: Tuple[int, ...] = (1, 4, 16, 64, 128, 256)):
    """NVMe SSD bandwidth utilization (Fig. 5b)."""
    return _fig05("fig05b", "nvme", depths, io_count)


# ----------------------------------------------------------------------
# Figure 6: read/write interference
# ----------------------------------------------------------------------
def _interference(io_count: int, fractions: Tuple[int, ...], iodepth: int):
    points = []
    for device in PAPER_DEVICES:
        for frac in fractions:
            if frac == 0:
                points.append(
                    async_point(
                        device, "randread", iodepth=iodepth,
                        io_count=io_count, key=(device, frac),
                    )
                )
            else:
                points.append(
                    async_point(
                        device, "randrw", iodepth=iodepth,
                        io_count=io_count, write_fraction=frac / 100.0,
                        key=(device, frac),
                    )
                )
    data = sweep(points, name="interference")
    return {key: m.result for key, m in data.items()}


def _fig06(figure_id: str, metric: str, io_count: int, fractions, iodepth: int):
    data = _interference(io_count, tuple(fractions), iodepth)
    series = []
    for device in PAPER_DEVICES:
        ys = []
        for frac in fractions:
            summary = data[(device, frac)].read_latency
            ys.append(
                summary.mean_us if metric == "mean" else summary.p99999_us
            )
        series.append(
            Series.from_points(f"{device.upper()} SSD", fractions, ys, "us")
        )
    what = "Average" if metric == "mean" else "99.999th"
    return FigureResult(
        figure_id=figure_id,
        title=f"{what} read latency vs write fraction (random, 4KB)",
        x_label="write fraction (%)",
        y_label=f"{what.lower()} read latency (us)",
        series=tuple(series),
        notes=f"{io_count} I/Os per point, libaio QD{iodepth}",
    )


def fig06a(io_count: int = 4000, fractions=(0, 20, 40, 60, 80), iodepth: int = 8):
    """Average read latency under write interference (Fig. 6a)."""
    return _fig06("fig06a", "mean", io_count, fractions, iodepth)


def fig06b(io_count: int = 4000, fractions=(0, 20, 40, 60, 80), iodepth: int = 8):
    """Five-nines read latency under write interference (Fig. 6b)."""
    return _fig06("fig06b", "p99999", io_count, fractions, iodepth)


# ----------------------------------------------------------------------
# Figure 7a: average power
# ----------------------------------------------------------------------
def fig07a(io_count: int = 1500):
    """Average device power, async/sync x pattern + idle (Fig. 7a)."""
    points = []
    for device in PAPER_DEVICES:
        for rw in PATTERNS:
            points.append(
                async_point(
                    device, rw, iodepth=16, io_count=io_count,
                    key=(device, "async", rw),
                )
            )
        for rw in PATTERNS:
            points.append(
                sync_point(
                    device, rw, io_count=max(200, io_count // 4),
                    key=(device, "sync", rw),
                )
            )
        points.append(idle_point(device, key=(device, "idle", None)))
    data = sweep(points, name="fig07a")
    series = []
    for device in PAPER_DEVICES:
        labels, values = [], []
        for rw in PATTERNS:
            labels.append(f"Async {PATTERN_LABELS[rw]}")
            values.append(data[(device, "async", rw)].result.avg_power_w)
        for rw in PATTERNS:
            labels.append(f"Sync {PATTERN_LABELS[rw]}")
            values.append(data[(device, "sync", rw)].result.avg_power_w)
        labels.append("Idle")
        values.append(data[(device, "idle", None)].value("avg_power_w"))
        series.append(
            Series.from_points(f"{device.upper()} SSD", labels, values, "W")
        )
    return FigureResult(
        figure_id="fig07a",
        title="Average power consumption (4KB I/O)",
        x_label="workload",
        y_label="power (W)",
        series=tuple(series),
    )


# ----------------------------------------------------------------------
# Figures 7b and 8: garbage collection time series
# ----------------------------------------------------------------------
#: Default overwrite counts: enough to exhaust each preset's erased pool.
GC_IO_COUNT = {"ull": 30_000, "nvme": 45_000}


def _gc_runs(devices, io_count: int):
    """Sustained random overwrites on a full device until GC engages.

    Synchronous QD-1, matching the paper's time-series methodology: the
    host keeps exactly one 4 KB overwrite outstanding, so latency shows
    the *device's* ability to absorb GC rather than host queueing.
    """
    points = [
        gc_point(device, io_count or GC_IO_COUNT[device])
        for device in devices
    ]
    return sweep(points, name="gc_run")


def fig07b(io_count: int = 0, windows: int = 40):
    """Write latency over time as GC kicks in (Fig. 7b)."""
    data = _gc_runs(PAPER_DEVICES, io_count)
    series = []
    gc_counts = {}
    for device in PAPER_DEVICES:
        measured = data[("gc", device)]
        result = measured.result
        window_ns = max(1, result.duration_ns // windows)
        windowed = result.timeseries.windowed(window_ns)
        xs = [start / 1e6 for start in windowed.starts_ns]  # ms
        ys = [mean / US for mean in windowed.means]
        series.append(
            Series.from_points(f"{device.upper()} SSD", xs, ys, "us")
        )
        gc_counts[f"{device}_gc_events"] = float(measured.device.gc_events)
    return FigureResult(
        figure_id="fig07b",
        title="Write latency over time under sustained random overwrites",
        x_label="time (ms)",
        y_label="write latency (us)",
        series=tuple(series),
        notes="device preconditioned full; GC engages mid-run",
        extras=gc_counts,
    )


def _fig08(figure_id: str, device: str, io_count: int, windows: int):
    measured = _gc_runs((device,), io_count)[("gc", device)]
    result = measured.result
    window_ns = max(1, result.duration_ns // windows)
    latency = result.timeseries.windowed(window_ns)
    power = measured.device.power_series.windowed(window_ns)
    series = (
        Series.from_points(
            "Latency", [s / 1e6 for s in latency.starts_ns],
            [m / US for m in latency.means], "us",
        ),
        Series.from_points(
            "Power", [s / 1e6 for s in power.starts_ns], list(power.means), "W"
        ),
    )
    extras = {
        "gc_events": float(measured.device.gc_events),
        "first_gc_ms": (
            measured.device.first_gc_ns / 1e6
            if measured.device.first_gc_ns >= 0
            else -1.0
        ),
        "write_amplification": measured.device.write_amplification,
    }
    return FigureResult(
        figure_id=figure_id,
        title=f"Power and latency during GC — {device.upper()} SSD",
        x_label="time (ms)",
        y_label="latency (us) / power (W)",
        series=series,
        extras=extras,
    )


def fig08a(io_count: int = 0, windows: int = 40):
    """NVMe SSD power + latency during GC (Fig. 8a)."""
    return _fig08("fig08a", "nvme", io_count, windows)


def fig08b(io_count: int = 0, windows: int = 40):
    """ULL SSD power + latency during GC (Fig. 8b)."""
    return _fig08("fig08b", "ull", io_count, windows)
