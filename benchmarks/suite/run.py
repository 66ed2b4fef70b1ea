"""Whole-suite benchmark: the host time it takes to regenerate the figures.

Usage, from the repository root::

    python3 benchmarks/suite/run.py [--workload W ...] [--seed S]
        [--seconds N] [--repeat N] [--trace [0|1]] [--json OUT]

Each workload (``spec.WORKLOADS``) is a grid of figures regenerated at
``--scale 0.1``, one pass per fresh child process (``child.py``): serial
sweep engine, no disk cache, empty memo.  A run makes at least
``--repeat`` passes and starts another while one more fits in
``--seconds``.  End-to-end metrics are medians over the passes, and
``setup_s`` over at least five set-ups.  ``--trace 1`` adds one pass
under the stack sampler and reports the per-layer metrics.

Every metric is printed as ``workload metric value unit``.  The last
line for each workload is one JSON object: ``correct``, ``attempted``
and ``failed`` count figure runs, and ``metrics`` holds the end-to-end
metrics of ``BENCHMARK.json``, or with ``--trace 1`` its per-layer ones.
A figure fails when it raises or breaks a per-point invariant; with
seed 0 also when it renders differently from ``goldens.json``.  Any
other seed is added to every point's seeds, so results can be checked
on inputs the goldens were not made from.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import spec
from sampler import OUTSIDE

HERE = Path(__file__).resolve().parent
BENCHMARK = spec.ROOT / "BENCHMARK.json"
GOLDENS = HERE / "goldens.json"

#: Set-ups timed per workload: each pass gives one, set-up-only children
#: the rest.
SETUP_SAMPLES = 5
#: A child running longer than this is hung; a pass takes under 30 s.
CHILD_TIMEOUT_S = 120.0

Record = Dict[str, Any]


def spawn(workload: str, seed: int, flags: Sequence[str] = ()) -> Record:
    """Run ``child.py`` once and return the record it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(spec.SRC), env.get("PYTHONPATH")])
    )
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--spawned-at", str(time.monotonic_ns()), *flags,
    ]
    proc = subprocess.run(
        command, cwd=spec.ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: child exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def failed_figures(record: Record, goldens: Optional[Dict[str, str]]) -> List[str]:
    """Figures of one pass that raised, broke an invariant or, given
    ``goldens``, rendered differently."""
    failed = set(record["errors"]) | set(record["violations"])
    if goldens is not None:
        failed |= {
            figure for figure, digest in record["digests"].items()
            if goldens.get(figure) != digest
        }
    return sorted(failed)


def end_to_end_metrics(passes: List[Record], setups: List[float]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "sim_ios_per_s": statistics.median(p["sim_ios"] / p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setups),
    }


def layer_metrics(traced: Record, untraced_wall_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced pass.

    A layer's self time is its share of the stack samples times the
    pass's wall time; ``untraced_wall_s`` prices the sampler.
    """
    counts = traced["layer_samples"]
    samples = sum(counts.values())
    metrics: Dict[str, float] = {}
    for layer in spec.LAYERS:
        share = counts.get(layer, 0) / samples
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_s"] = share * traced["wall_s"]
    spans = traced["spans"]
    points = sorted(end - start for kind, _, start, end in spans if kind == "point")
    preconditions = [end - start for kind, _, start, end in spans if kind == "precondition"]
    kernel_s = metrics["sim.self_s"] + metrics["sim.engine.self_s"]
    metrics.update({
        "sim.events": traced["sim_events"],
        "sim.host_ns_per_event": kernel_s * 1e9 / traced["sim_events"],
        "workloads.sim_ios": traced["sim_ios"],
        "core.sweep.points": traced["points"],
        "core.sweep.executed": traced["executed"],
        "core.sweep.point_s_p50": statistics.median(points),
        "core.sweep.point_s_max": points[-1],
        "ssd.precondition_calls": len(preconditions),
        "ssd.precondition_s": sum(preconditions),
        "trace.overhead": traced["wall_s"] / untraced_wall_s,
        "trace.samples": samples,
        "trace.outside_share": counts.get(OUTSIDE, 0) / samples,
    })
    return metrics


def median_rows(passes: List[Record]) -> Dict[str, dict]:
    """Per figure, the ``PerfSession`` row of the pass with its median wall time."""
    rows: Dict[str, dict] = {}
    for figure in passes[0]["figures"]:
        candidates = sorted(
            (p["figures"][figure] for p in passes if figure in p["figures"]),
            key=lambda row: row["wall_s"],
        )
        rows[figure] = candidates[(len(candidates) - 1) // 2]
    return rows


def measure(
    workload: str, args: argparse.Namespace, goldens: Optional[Dict[str, str]]
) -> Record:
    """The passes, set-ups and optional traced pass of one workload."""
    started = time.monotonic()
    passes: List[Record] = []
    last_s = 0.0
    while len(passes) < args.repeat or time.monotonic() - started + last_s <= args.seconds:
        begun = time.monotonic()
        passes.append(spawn(workload, args.seed))
        last_s = time.monotonic() - begun
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, args.seed, ["--setup-only"])["setup_s"])
    metrics = end_to_end_metrics(passes, setups)
    runs = list(passes)
    traced = None
    if args.trace:
        traced = spawn(workload, args.seed, ["--trace"])
        runs.append(traced)
        metrics.update(layer_metrics(traced, metrics["wall_s"]))
    return {
        "passes": len(passes),
        "setups": len(setups),
        "attempted": len(runs) * len(spec.WORKLOADS[workload]),
        "failed": [failed_figures(run, goldens) for run in runs],
        "metrics": metrics,
        "figures": median_rows(passes),
        "digests": passes[0]["digests"],
        "spans": traced["spans"] if traced else None,
    }


def write_doc(path: str, seed: int, results: Dict[str, Record]) -> None:
    """Write a ``repro.perf`` bench document: one ``PerfSession`` row per
    figure, so ``python -m repro perf --compare A --against B`` diffs two
    runs; the workloads' metrics, digests and traced spans go in its meta."""
    sys.path.insert(0, str(spec.SRC))
    from repro.perf import BenchRecord, PerfSession, write_bench

    session = PerfSession()
    suite = {}
    for workload, result in results.items():
        for figure, row in result["figures"].items():
            session.records[figure] = BenchRecord.from_dict(row)
        suite[workload] = {key: value for key, value in result.items() if key != "figures"}
    doc = session.to_doc(scale=spec.SCALE, seed=seed, suite=suite)
    print(f"wrote {write_bench(doc, path)}", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    if not (spec.SRC_REPRO / "__init__.py").is_file():
        print(f"error: no repro sources at {spec.SRC_REPRO}", file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS),
                        help="workload to run; repeat for several (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="added to every point's seeds; 0 checks the goldens")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"],
                        help="start another pass while one more fits in this time")
    parser.add_argument("--repeat", type=int, default=1, help="minimum passes")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add a stack-sampled pass")
    parser.add_argument("--json", metavar="OUT", help="write a repro.perf bench document")
    args = parser.parse_args(argv)

    goldens = json.loads(GOLDENS.read_text()) if args.seed == 0 else None
    reported = declared["per_layer"] if args.trace else declared["end_to_end"]
    printed = declared["end_to_end"] + (declared["per_layer"] if args.trace else [])
    results: Dict[str, Record] = {}
    for workload in args.workload or list(spec.WORKLOADS):
        result = results[workload] = measure(workload, args, goldens)
        metrics = result["metrics"]
        failed = sum(len(figures) for figures in result["failed"])
        print(f"# {workload}: {result['passes']} pass(es), {result['setups']} set-ups, "
              f"seed {args.seed}; {failed} of {result['attempted']} figure runs failed "
              f"{sorted(set().union(*result['failed']))}")
        for metric in printed:
            value = metrics[metric["name"]]
            shown = f"{value:.6g}" if isinstance(value, float) else value
            print(f"{workload} {metric['name']} {shown} {metric['unit']}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": result["attempted"],
            "failed": failed,
            "metrics": {
                m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported
            },
        }), flush=True)
    if args.json:
        write_doc(args.json, args.seed, results)
    return 0


if __name__ == "__main__":
    sys.exit(main())
