"""One measured pass over a workload's figures, in a fresh process.

``run.py`` starts this script once per pass; it is not meant to be run
by hand.  It sets up (imports, device registry, runner wrapping), then
regenerates each figure of the workload in order on a serial sweep
engine with no disk cache and an empty memo, and prints one JSON object
on stdout: timings, counters, figure digests and, with ``--trace``, the
stack sampler's per-layer counts.

Everything is measured from outside the program: the benchmark times
calls into public functions (``run_figure``, each registered sweep
runner, ``SsdDevice.precondition``) and reads counters the program
already keeps (``repro.sim.engine.events_executed_total`` and the sweep
engine's stats, through ``repro.perf.PerfSession``).
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import resource
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import spec

#: (kind, name, start, end) with ``time.perf_counter`` seconds.
Span = Tuple[str, str, float, float]


class Probe:
    """Wraps the program's runners and device preconditioning.

    Each point's seeds are shifted by ``seed``; its duration, its
    simulated I/O count and any broken invariant are recorded, the last
    against the figure being regenerated.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.figure = ""
        self.spans: List[Span] = []
        self.sim_ios = 0
        self.violations: Dict[str, str] = {}

    def install(self) -> None:
        from repro.core import runners  # noqa: F401  (registers the runners)
        from repro.core import sweep
        from repro.ssd.device import SsdDevice

        for name, fn in list(sweep._RUNNERS.items()):
            sweep.runner(name)(self._wrap_runner(name, fn))
        precondition = SsdDevice.precondition

        def timed_precondition(device: Any, *args: Any, **kwargs: Any) -> int:
            started = time.perf_counter()
            try:
                return precondition(device, *args, **kwargs)
            finally:
                self.spans.append(("precondition", "", started, time.perf_counter()))

        SsdDevice.precondition = timed_precondition  # type: ignore[method-assign]

    def _wrap_runner(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        params = inspect.signature(fn).parameters

        def timed(**kwargs: Any) -> Any:
            if self.seed:
                self._shift_seeds(kwargs, params)
            started = time.perf_counter()
            measurement = fn(**kwargs)
            self.spans.append(("point", name, started, time.perf_counter()))
            self._account(name, kwargs, params, measurement)
            return measurement

        return timed

    def _shift_seeds(self, kwargs: Dict[str, Any], params: Any) -> None:
        for name in spec.SEED_PARAMS:
            if name in params:
                kwargs[name] = kwargs.get(name, params[name].default) + self.seed
        plan = kwargs.get("fault_plan")
        if plan:
            kwargs["fault_plan"] = tuple(
                (key, value + self.seed if key == "seed" else value)
                for key, value in plan
            )

    def _account(
        self, name: str, kwargs: Dict[str, Any], params: Any, measurement: Any
    ) -> None:
        """Count the point's simulated I/Os and check what it returned.

        A job result must have completed exactly the I/Os asked for;
        value-only runners are credited with their ``io_count`` and must
        return finite values.
        """
        expected = kwargs.get(
            "io_count", params["io_count"].default if "io_count" in params else 0
        )
        result = measurement.result
        if result is not None:
            done = result.latency.count
            if done != expected:
                self.violations[self.figure] = (
                    f"{name}: {done} of {expected} I/Os completed"
                )
            self.sim_ios += done
        else:
            self.sim_ios += expected
        for key, value in measurement.values:
            if not math.isfinite(value):
                self.violations[self.figure] = f"{name}: {key} = {value}"


def run_pass(workload: str, probe: Probe) -> Dict[str, Any]:
    """Regenerate every figure of ``workload`` once; return its record."""
    from repro.core.figures import FIGURES, run_figure
    from repro.core.report import render_figure
    from repro.core.sweep import default_engine
    from repro.perf import PerfSession

    session = PerfSession(default_engine())
    digests: Dict[str, str] = {}
    errors: Dict[str, str] = {}
    started = time.perf_counter()
    for figure_id in spec.WORKLOADS[workload]:
        probe.figure = figure_id
        figure_started = time.perf_counter()
        try:
            with session.measure(figure_id):
                result = run_figure(figure_id, **spec.scaled_kwargs(FIGURES[figure_id]))
            text = render_figure(result)
        except Exception as exc:  # a failed figure is counted, not fatal
            errors[figure_id] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            probe.spans.append(
                ("figure", figure_id, figure_started, time.perf_counter())
            )
        digests[figure_id] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    wall_s = time.perf_counter() - started
    records = session.records.values()
    return {
        "wall_s": wall_s,
        "sim_ios": probe.sim_ios,
        "sim_events": sum(record.sim_events for record in records),
        "points": sum(record.points for record in records),
        "executed": sum(record.executed for record in records),
        "figures": session.to_doc()["figures"],
        "digests": digests,
        "errors": errors,
        "violations": probe.violations,
        "spans": [
            (kind, name, begin - started, end - started)
            for kind, name, begin, end in probe.spans
        ],
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=int, required=True,
                        help="time.monotonic_ns() when the parent started this process")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro.core.figures  # noqa: F401  (every figure and layer)
    from repro.core import sweep
    from repro.ssd import registry

    for name in registry.list_devices():
        registry.get_spec(name)
    sweep.configure(jobs=1, cache_dir=None).clear_memo()
    probe = Probe(args.seed)
    probe.install()
    setup_s = (time.monotonic_ns() - args.spawned_at) / 1e9
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        from sampler import StackSampler

        # The sampler runs only when the main thread yields the GIL.
        sys.setswitchinterval(0.001)
        with StackSampler(spec.layer_of_file) as sampler:
            record = run_pass(args.workload, probe)
        record["layer_samples"] = dict(sampler.counts)
    else:
        record = run_pass(args.workload, probe)
    record["setup_s"] = setup_s
    # ru_maxrss is in KiB on Linux.
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
