#!/usr/bin/env python
"""Garbage collection and read/write interference, ULL vs. NVMe.

Two experiments from the paper's Section IV-D:

1. *Interference* — random reads with an increasing fraction of writes
   mixed in.  On the NVMe SSD a 1.1 ms MLC program blocks every read
   queued behind it; the Z-SSD suspends the program, serves the read in
   ~4 us, and resumes (Fig. 6).
2. *Garbage collection* — overwrite a 100%-full drive until the FTL must
   reclaim blocks.  The NVMe SSD's write latency blows up; the ULL SSD
   stays flat while its power rises (GC running in parallel behind
   suspend/resume — Figs. 7b, 8).

Run:  python examples/gc_interference_study.py
"""

from repro import FioJob, IoEngineKind, Simulator, run_job
from repro.api import JobConfig, Testbed


def interference() -> None:
    print("1) Read latency under write interference (libaio QD8, 4KB)\n")
    print(f"{'write %':>8s} {'ULL read':>10s} {'NVMe read':>11s}")
    for frac in (0, 20, 40, 60, 80):
        row = []
        for device in ("ull", "nvme"):
            testbed = Testbed(device=device)
            rw = "randread" if frac == 0 else "randrw"
            result = testbed.run_job(JobConfig(
                rw=rw, engine="libaio", iodepth=8, io_count=2500,
                write_fraction=frac / 100, seed=42,
            ))
            row.append(result.read_latency.mean_us)
        print(f"{frac:7d}% {row[0]:9.1f}us {row[1]:10.1f}us")
    print()


def garbage_collection(name: str, io_count: int) -> None:
    sim = Simulator()
    device, stack = Testbed(device=name).build(sim)  # preconditioned full
    job = FioJob(
        name="overwrite", rw="randwrite", engine=IoEngineKind.PSYNC,
        io_count=io_count, capture_timeseries=True,
    )
    result = run_job(sim, stack, job)
    windowed = result.timeseries.windowed(max(1, result.duration_ns // 10))
    samples = " ".join(f"{mean / 1000:6.1f}" for mean in windowed.means)
    gc_events = device.stats.gc_events
    print(f"{name.upper():5s} write latency (us) over 10 windows: {samples}")
    print(f"      {len(gc_events)} GC events, "
          f"write amplification {device.ftl.write_amplification():.2f}, "
          f"avg power {device.power.average_watts(sim.now):.2f}W")


def main() -> None:
    interference()
    print("2) Sustained 4KB overwrites on a full drive (pvsync2)\n")
    garbage_collection("ull", 25_000)
    garbage_collection("nvme", 35_000)
    print("\nThe ULL SSD absorbs GC invisibly (suspend/resume + fast Z-NAND +")
    print("deep overprovisioning); the NVMe SSD's writes stall behind 1.1 ms")
    print("programs and 6 ms erases once reclamation starts.")


if __name__ == "__main__":
    main()
