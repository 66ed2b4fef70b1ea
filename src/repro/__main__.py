"""Command-line entry point: ``python -m repro <subcommand> [...]``.

Two quality-gate subcommands stand alone (see ``docs/lint.md``):

* ``lint`` — run simlint, the determinism, invariant & unit/dimension
  static analyzer (``SIM000``-``SIM014``; the SIM01x codes come from the
  interprocedural flow pass, :mod:`repro.lint.flow`), over the given
  paths (default ``src tests``); ``--format json``/``sarif`` for
  machine-readable output, ``--baseline``/``--write-baseline`` for
  adopting a dirty tree, non-zero exit on findings.  Full runs are
  served from a content-hash cache (``--no-cache`` bypasses).
* ``check`` — aggregate gate: simlint plus ``ruff`` and strict ``mypy``
  when installed (skipped with a notice otherwise; ``--strict-tools``
  turns a skip into a failure).

Six subcommands share one flag vocabulary:

* ``figures`` — run figure reproductions and print their tables.  The
  historical flat form (``python -m repro fig10 --scale 0.2``) still
  works: a first argument that is not a subcommand is treated as
  ``figures ...``.
* ``sweep`` — execute figures for their measurements only (a cache
  warmer): no tables, just per-figure engine statistics.  ``--clear-cache``
  empties the persistent cache first.
* ``trace`` — run ONE figure under a fresh observability bundle and
  report what the spans say; defaults to the latency-anatomy breakdown
  when no other observability output is selected.
* ``blame`` — run ONE figure under wait-for blame attribution
  (:mod:`repro.obs.blame`): verify the wait/service conservation
  invariant on every traced I/O (printing a machine-checkable
  ``conservation: OK`` line), then the tail-latency blame table —
  which resource held the slowest requests, per (device, op) group —
  plus SLO attainment for each ``--slo`` objective.
* ``perf`` — time figures (wall seconds, sim-events/sec, cache state),
  write a top-level ``BENCH_<date>.json``, and optionally gate against
  a previous document with ``--compare OLD.json`` (``--threshold``
  sets the slowdown gate, ``--warn-only`` reports without failing).
  ``--profile`` runs each figure under the self-profiler and folds the
  per-figure hotspot table into the bench document.
* ``profile`` — run ONE figure under the self-profiler
  (:mod:`repro.obs.prof`): print the hotspot-attribution table and
  event-queue introspection, and optionally export flamegraphs
  (``--profile-out`` speedscope JSON, ``--collapsed`` collapsed-stack
  text) and the queue-depth timeline (``--timeline``, ``.html`` or CSV).

Use ``--scale`` to grow or shrink I/O counts (0.1 = 10 % of the default
samples, 2.0 = double), ``--list`` to enumerate figure ids.

Execution flags configure the sweep engine every figure runs on:

* ``--jobs N`` — fan independent measurements out across N worker
  processes (results are merged by point key, so output is
  bit-identical to serial);
* ``--cache-dir DIR`` — persist measurements on disk (default
  ``~/.cache/repro``; a warm rerun executes zero simulations);
* ``--no-cache`` — keep everything in-process only.

Fault flags install a deterministic :class:`repro.faults.FaultPlan`
around every figure run (workers inherit it, so parallel runs stay
bit-identical to serial):

* ``--faults SPEC`` — e.g. ``--faults nand.read_fail_prob=0.01``,
  repeatable and comma-splittable (``nvme.timeout_prob=1e-3,nvme.max_retries=2``);
* ``--fault-seed N`` — seeds every injector stream; also forwarded to
  figures that take a ``fault_seed`` argument (the ``fault-*`` studies).

Observability flags wrap each figure run in a fresh
:class:`repro.obs.core.Observability` bundle:

* ``--trace-out FILE`` — write a Chrome ``trace_event`` JSON of every
  I/O's spans (load it in Perfetto or ``chrome://tracing``); a
  ``.jsonl`` extension selects the schema-versioned structured-event
  export instead (one JSON object per span/wait-edge/sample);
* ``--metrics`` / ``--metrics-out FILE`` — dump the metrics registry as
  text / CSV;
* ``--anatomy`` — print the span-level latency-anatomy breakdown;
* ``--telemetry`` / ``--telemetry-out FILE`` — record time-series
  telemetry (queue depths, busy fractions, GC/fault activity) and print
  the digest summary / write samples to FILE (``.html`` gets the
  self-contained timeline report, anything else long-format CSV);
  ``--telemetry-period NS`` sets the sample period.  With telemetry on,
  ``--trace-out`` traces also carry counter tracks;
* ``--blame`` / ``--slo SPEC`` / ``--blame-out FILE`` — record wait-for
  blame attribution (``--slo`` and ``--blame-out`` imply ``--blame``):
  print the tail-latency blame table, monitor ``OP:LATENCY[@OBJECTIVE]``
  objectives, and write the report to FILE (``.html`` gets the
  self-contained version).

With several figures selected, file outputs get a per-figure suffix
(``trace.json`` becomes ``trace.fig10.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys
import time

from repro.core.cliargs import ArgumentParser
from repro.core import sweep as sweep_engine
from repro.core.figures import FIGURES, run_figure
from repro.core.report import render_figure

SUBCOMMANDS = (
    "figures", "sweep", "trace", "blame", "perf", "profile", "devices",
    "lint", "check",
)


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer (one clean error line)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive number, got {text!r}"
        )
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type: an integer >= 0 (seeds: 0 is the documented default)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}"
        )
    return value


def _slo_spec(text: str):
    """argparse type: parse OP:LATENCY[@OBJECTIVE] into an SloSpec."""
    from repro.obs.blame import SloSpec

    try:
        return SloSpec.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _scaled_kwargs(figure_id: str, scale: float, seed=None, fault_seed=None) -> dict:
    """Per-figure keyword overrides for ``--scale``/``--seed``/``--fault-seed``.

    Scaling grows as well as shrinks; shrinking keeps a 100-I/O floor so
    percentiles stay meaningful.  Figures that pick their own I/O count
    (``io_count=0`` defaults — the self-scaling GC runs) or take none at
    all ignore ``--scale`` with a note on stderr.
    """
    fn = FIGURES[figure_id]
    params = inspect.signature(fn).parameters
    kwargs = {}
    if seed is not None and "seed" in params:
        kwargs["seed"] = seed
    if fault_seed is not None and "fault_seed" in params:
        kwargs["fault_seed"] = fault_seed
    if scale != 1.0:
        default = (
            params["io_count"].default if "io_count" in params else None
        )
        if not default:
            print(
                f"note: {figure_id} chooses its own I/O count; "
                "--scale has no effect",
                file=sys.stderr,
            )
        else:
            count = int(default * scale)
            if scale < 1.0:
                count = max(100, count)
            kwargs["io_count"] = count
    return kwargs


def _suffixed(path: str, figure_id: str, multi: bool) -> str:
    if not multi:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.{figure_id}{ext}"


def _wants_telemetry(args) -> bool:
    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "telemetry_out", None)
        or getattr(args, "telemetry_period", None)
    )


def _telemetry_config(args):
    from repro.obs.telemetry import DEFAULT_PERIOD_NS, TelemetryConfig

    return TelemetryConfig(
        period_ns=args.telemetry_period or DEFAULT_PERIOD_NS
    )


def _wants_blame(args) -> bool:
    return bool(
        getattr(args, "blame", False)
        or getattr(args, "slo", None)
        or getattr(args, "blame_out", None)
    )


def _blame_config(args):
    from repro.obs.blame import DEFAULT_TOP, BlameConfig

    return BlameConfig(
        top=getattr(args, "top", None) or DEFAULT_TOP,
        slos=tuple(getattr(args, "slo", None) or ()),
    )


def _emit_observability(obs, figure_id: str, args, multi: bool) -> None:
    from repro.obs.anatomy import AnatomyReport
    from repro.obs.export import (
        metrics_to_text,
        telemetry_to_text,
        write_chrome_trace,
        write_metrics_csv,
        write_telemetry_csv,
    )

    if args.anatomy:
        print(AnatomyReport.from_tracer(obs.tracer).render())
        print()
    if args.metrics:
        print(metrics_to_text(obs.registry))
        print()
    if args.telemetry:
        print(telemetry_to_text(obs.telemetry))
        print()
    blame = getattr(obs, "blame", None)
    if blame is not None and (
        getattr(args, "blame", False) or getattr(args, "slo", None)
    ):
        from repro.obs.blame import blame_table

        print(blame_table(blame))
        print()
    if args.trace_out:
        path = _suffixed(args.trace_out, figure_id, multi)
        telemetry = obs.telemetry if obs.telemetry.enabled else None
        if path.endswith(".jsonl"):
            from repro.obs.export import write_trace_jsonl

            count = write_trace_jsonl(obs.tracer, path, telemetry=telemetry)
            print(f"wrote {count} JSONL events to {path}", file=sys.stderr)
        else:
            count = write_chrome_trace(obs.tracer, path, telemetry=telemetry)
            print(f"wrote {count} trace events to {path}", file=sys.stderr)
    if args.metrics_out:
        path = _suffixed(args.metrics_out, figure_id, multi)
        write_metrics_csv(obs.registry, path)
        print(f"wrote metrics to {path}", file=sys.stderr)
    if args.telemetry_out:
        path = _suffixed(args.telemetry_out, figure_id, multi)
        if path.endswith((".html", ".htm")):
            from repro.obs.html import write_telemetry_html

            write_telemetry_html(
                obs.telemetry, path,
                title=f"Telemetry timeline — {figure_id}",
            )
        else:
            write_telemetry_csv(obs.telemetry, path)
        print(f"wrote telemetry to {path}", file=sys.stderr)
    if blame is not None and getattr(args, "blame_out", None):
        from repro.obs.blame import blame_table

        path = _suffixed(args.blame_out, figure_id, multi)
        if path.endswith((".html", ".htm")):
            from repro.obs.html import write_blame_html

            write_blame_html(
                blame, path, title=f"Tail-latency blame — {figure_id}"
            )
        else:
            from repro.obs.export import atomic_write_text

            atomic_write_text(path, blame_table(blame) + "\n")
        print(f"wrote blame report to {path}", file=sys.stderr)


def _add_exec_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device",
        metavar="NAME|PATH",
        default=None,
        help=(
            "run every figure against this device instead of the "
            "paper's presets: a registry name (see `python -m repro "
            "devices list`) or a .toml/.json spec file"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run independent measurements across N worker processes",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist measurements under DIR "
            f"(default {sweep_engine.DEFAULT_CACHE_DIR})"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent measurement cache",
    )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        action="append",
        default=[],
        metavar="SPEC",
        help=(
            "inject faults: layer.field=value "
            "(e.g. nand.read_fail_prob=0.01); repeatable, comma-splittable"
        ),
    )
    parser.add_argument(
        "--fault-seed",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help=(
            "seed for every fault-injector stream (default 0); also passed "
            "to figures that accept a fault_seed argument"
        ),
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write per-I/O spans as Chrome trace_event JSON (Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after each figure",
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry as CSV",
    )
    parser.add_argument(
        "--anatomy",
        action="store_true",
        help="print the span-level latency-anatomy breakdown",
    )
    parser.add_argument(
        "--telemetry",
        action="store_true",
        help="record time-series telemetry and print the digest summary",
    )
    parser.add_argument(
        "--telemetry-out",
        metavar="FILE",
        default=None,
        help=(
            "write telemetry samples to FILE (.html -> self-contained "
            "timeline report, anything else -> long-format CSV)"
        ),
    )
    parser.add_argument(
        "--telemetry-period",
        type=_positive_int,
        default=None,
        metavar="NS",
        help="telemetry sample period in sim nanoseconds (default 10000)",
    )
    parser.add_argument(
        "--blame",
        action="store_true",
        help=(
            "record per-I/O wait-for blame attribution and print the "
            "tail-latency blame table after each figure"
        ),
    )
    parser.add_argument(
        "--slo",
        action="append",
        default=[],
        type=_slo_spec,
        metavar="SPEC",
        help=(
            "monitor a latency SLO: OP:LATENCY[@OBJECTIVE], e.g. "
            "read:150us@0.999 or '*:1ms@99%%'; repeatable; implies --blame"
        ),
    )
    parser.add_argument(
        "--blame-out",
        metavar="FILE",
        default=None,
        help=(
            "write the blame report to FILE (.html -> self-contained "
            "report, anything else -> the text table); implies --blame"
        ),
    )


def _add_select_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("figures", nargs="*", help="figure ids (e.g. fig10 fig18)")
    parser.add_argument("--list", action="store_true", help="list figure ids")
    parser.add_argument("--all", action="store_true", help="run every figure")
    parser.add_argument(
        "--scale",
        type=_positive_float,
        default=1.0,
        help="I/O-count scale factor (default 1.0)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the device seed on figures that accept one",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from 'Faster than Flash' (IISWC'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures",
        help="run figure reproductions and print their tables (default)",
    )
    _add_select_flags(figures)
    _add_exec_flags(figures)
    _add_fault_flags(figures)
    _add_obs_flags(figures)

    warm = sub.add_parser(
        "sweep",
        help="execute figures for their measurements only (cache warmer)",
    )
    _add_select_flags(warm)
    _add_exec_flags(warm)
    _add_fault_flags(warm)
    _add_obs_flags(warm)
    warm.add_argument(
        "--clear-cache",
        action="store_true",
        help="empty the persistent measurement cache before running",
    )

    perf = sub.add_parser(
        "perf",
        help="time benchmark figures; write/compare BENCH_<date>.json",
    )
    perf.add_argument("figures", nargs="*", help="figure ids to time")
    perf.add_argument("--all", action="store_true", help="time every figure")
    perf.add_argument(
        "--scale", type=_positive_float, default=1.0, help="I/O-count scale factor"
    )
    perf.add_argument(
        "--seed", type=int, default=None, help="device-seed override"
    )
    perf.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="bench document path (default ./BENCH_<date>.json)",
    )
    perf.add_argument(
        "--compare",
        metavar="OLD.json",
        default=None,
        help="compare this run (or --against FILE) to a previous document",
    )
    perf.add_argument(
        "--against",
        metavar="NEW.json",
        default=None,
        help="with --compare: diff two existing documents, run nothing",
    )
    perf.add_argument(
        "--threshold",
        type=_positive_float,
        default=None,
        help="slowdown gate as a fraction (default 0.30 = fail past +30%%)",
    )
    perf.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit zero (CI smoke mode)",
    )
    perf.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run each figure under the self-profiler and record its "
            "hotspot table in the bench document (adds overhead: "
            "profiled wall times are not comparable to unprofiled ones)"
        ),
    )
    _add_exec_flags(perf)

    profile = sub.add_parser(
        "profile",
        help="run ONE figure under the self-profiler (repro.obs.prof)",
    )
    profile.add_argument(
        "figures", nargs=1, metavar="figure", help="figure id"
    )
    profile.add_argument(
        "--scale", type=_positive_float, default=1.0, help="I/O-count scale factor"
    )
    profile.add_argument(
        "--seed", type=int, default=None, help="device-seed override"
    )
    profile.add_argument(
        "--profile-out",
        metavar="FILE",
        default=None,
        help="write a speedscope JSON flamegraph (open at speedscope.app)",
    )
    profile.add_argument(
        "--collapsed",
        metavar="FILE",
        default=None,
        help="write collapsed-stack text (FlameGraph tool input)",
    )
    profile.add_argument(
        "--timeline",
        metavar="FILE",
        default=None,
        help=(
            "write the queue-introspection time series "
            "(.html -> timeline report, anything else -> CSV)"
        ),
    )
    profile.add_argument(
        "--no-wall",
        action="store_true",
        help="skip perf_counter wall sampling (exact event counts only)",
    )
    profile.add_argument(
        "--top",
        type=_positive_int,
        default=15,
        metavar="N",
        help="hotspot table size (default 15)",
    )
    profile.add_argument(
        "--period",
        type=_positive_int,
        default=None,
        metavar="NS",
        help="queue-series sample period in sim nanoseconds (default 10000)",
    )
    _add_exec_flags(profile)
    _add_fault_flags(profile)

    # `devices`, `lint`, and `check` are dispatched before this parser
    # runs (their argument vocabulary is their own); the stubs exist so
    # the top-level --help lists them.
    sub.add_parser(
        "devices",
        help="inspect the device registry: list names, show resolved specs",
        add_help=False,
    )
    sub.add_parser(
        "lint",
        help="run simlint, the determinism static analyzer (docs/lint.md)",
        add_help=False,
    )
    sub.add_parser(
        "check",
        help="aggregate gate: simlint + ruff + strict mypy",
        add_help=False,
    )

    trace = sub.add_parser(
        "trace",
        help="run ONE figure under observability (defaults to --anatomy)",
    )
    trace.add_argument("figures", nargs=1, metavar="figure", help="figure id")
    trace.add_argument(
        "--scale", type=_positive_float, default=1.0, help="I/O-count scale factor"
    )
    trace.add_argument(
        "--seed", type=int, default=None, help="device-seed override"
    )
    _add_exec_flags(trace)
    _add_fault_flags(trace)
    _add_obs_flags(trace)

    blame = sub.add_parser(
        "blame",
        help=(
            "run ONE figure under blame attribution: verify wait/service "
            "conservation, print the tail-latency blame table"
        ),
    )
    blame.add_argument("figures", nargs=1, metavar="figure", help="figure id")
    blame.add_argument(
        "--scale", type=_positive_float, default=1.0, help="I/O-count scale factor"
    )
    blame.add_argument(
        "--seed", type=int, default=None, help="device-seed override"
    )
    blame.add_argument(
        "--top",
        type=_positive_int,
        default=None,
        metavar="K",
        help="slowest requests kept per (device, op) group (default 10)",
    )
    _add_exec_flags(blame)
    _add_fault_flags(blame)
    _add_obs_flags(blame)
    return parser


def _fault_context(args):
    """The ambient fault plan requested on the command line (or a no-op)."""
    if not args.faults:
        return contextlib.nullcontext()
    from repro.faults.plan import parse_fault_spec

    plan = parse_fault_spec(args.faults, seed=args.fault_seed or 0)
    return plan.installed()


def _device_context(args):
    """The ambient --device override (or a no-op).

    Validation happens on entry, so a bad name fails before any figure
    runs; the substitution itself lands in each point's declared
    parameters (see :func:`repro.ssd.registry.device_override`).
    """
    device = getattr(args, "device", None)
    if device is None:
        return contextlib.nullcontext()
    from repro.ssd.registry import device_override

    return device_override(device)


def _configure_engine(args) -> "sweep_engine.SweepEngine":
    cache_dir = None if args.no_cache else (
        args.cache_dir or sweep_engine.DEFAULT_CACHE_DIR
    )
    if getattr(args, "clear_cache", False) and cache_dir is not None:
        import shutil
        from pathlib import Path

        root = Path(cache_dir).expanduser()
        if root.is_dir():
            shutil.rmtree(root)
            print(f"cleared measurement cache at {root}", file=sys.stderr)
    return sweep_engine.configure(jobs=args.jobs, cache_dir=cache_dir)


def _select_targets(parser, args):
    if getattr(args, "list", False):
        for figure_id, fn in sorted(FIGURES.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{figure_id:8s} {doc}")
        return None
    targets = sorted(FIGURES) if getattr(args, "all", False) else args.figures
    if not targets:
        parser.print_usage()
        return []
    return targets


def _run_targets(targets, args, *, render: bool, observing: bool) -> int:
    engine = _configure_engine(args)
    multi = len(targets) > 1
    with _fault_context(args), _device_context(args):
        for figure_id in targets:
            if figure_id not in FIGURES:
                print(
                    f"unknown figure {figure_id!r}; try --list", file=sys.stderr
                )
                return 2
            kwargs = _scaled_kwargs(
                figure_id, args.scale, seed=args.seed,
                fault_seed=args.fault_seed,
            )
            started = time.time()
            before = engine.stats.snapshot()
            if observing:
                from repro.obs.core import Observability

                obs = Observability(
                    telemetry=_telemetry_config(args)
                    if _wants_telemetry(args)
                    else None,
                    blame=_blame_config(args) if _wants_blame(args) else None,
                )
                with obs:
                    result = run_figure(figure_id, **kwargs)
            else:
                obs = None
                result = run_figure(figure_id, **kwargs)
            if render:
                print(render_figure(result))
                print(f"   [{time.time() - started:.1f}s]\n")
            after = engine.stats.snapshot()
            delta = {key: after[key] - before[key] for key in after}
            print(
                f"{figure_id}: points={delta['points']} "
                f"executed={delta['executed']} memo={delta['memo_hits']} "
                f"disk={delta['disk_hits']} traced={delta['traced']} "
                f"[{time.time() - started:.1f}s]",
                file=sys.stderr,
            )
            if obs is not None:
                _emit_observability(obs, figure_id, args, multi)
    return 0


def _cmd_blame(parser, args) -> int:
    """``python -m repro blame FIGURE``: blame attribution with a
    machine-checkable conservation line (CI greps for ``conservation: OK``).
    """
    from repro.obs.anatomy import verify_conservation
    from repro.obs.blame import blame_table, verify_blame_conservation
    from repro.obs.core import Observability

    figure_id = args.figures[0]
    if figure_id not in FIGURES:
        print(f"unknown figure {figure_id!r}; try --list", file=sys.stderr)
        return 2
    _configure_engine(args)
    kwargs = _scaled_kwargs(
        figure_id, args.scale, seed=args.seed, fault_seed=args.fault_seed
    )
    obs = Observability(
        telemetry=_telemetry_config(args) if _wants_telemetry(args) else None,
        blame=_blame_config(args),
    )
    started = time.time()
    with _fault_context(args), _device_context(args), obs:
        run_figure(figure_id, **kwargs)
    elapsed = time.time() - started
    traced = verify_conservation(obs.tracer)
    outliers = verify_blame_conservation(obs.blame)
    print(f"conservation: OK ({outliers} outliers over {traced} I/Os)")
    print()
    print(blame_table(obs.blame))
    # The table is printed; leave _emit_observability the file outputs
    # and any other observability flags the caller set.
    args.blame = False
    args.slo = []
    _emit_observability(obs, figure_id, args, multi=False)
    print(f"[{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_perf(parser, args) -> int:
    from repro import perf as perf_harness

    threshold = (
        args.threshold
        if args.threshold is not None
        else perf_harness.DEFAULT_THRESHOLD
    )
    if args.against and not args.compare:
        print("--against requires --compare OLD.json", file=sys.stderr)
        return 2
    # Read the documents before timing anything: a bad path fails at
    # once, with one line.
    try:
        baseline = perf_harness.load_bench(args.compare) if args.compare else None
        against = perf_harness.load_bench(args.against) if args.against else None
    except OSError as exc:
        print(f"error: cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if against is not None:
        comparison = perf_harness.compare_docs(
            baseline, against, threshold=threshold
        )
        print(comparison.render())
        return 0 if (comparison.ok or args.warn_only) else 1

    targets = sorted(FIGURES) if args.all else args.figures
    if not targets:
        parser.print_usage()
        print(
            "perf: name figures to time (or --all), or give "
            "--compare OLD --against NEW",
            file=sys.stderr,
        )
        return 2
    for figure_id in targets:
        if figure_id not in FIGURES:
            print(f"unknown figure {figure_id!r}; try --list", file=sys.stderr)
            return 2
    # Honest timing by default: skip the persistent cache unless the
    # caller explicitly pointed at one (cache state is recorded either
    # way, and comparisons refuse to gate across mismatched states).
    if not args.cache_dir:
        args.no_cache = True
    engine = _configure_engine(args)
    session = perf_harness.PerfSession(engine)
    with _device_context(args):
        for figure_id in targets:
            kwargs = _scaled_kwargs(figure_id, args.scale, seed=args.seed)
            if args.profile:
                from repro.obs.core import Observability
                from repro.obs.prof import ProfilerConfig, bench_hotspots

                # Wall sampling off: the bench already times the whole
                # run, and exact event counts keep the hotspot rows
                # deterministic.
                obs = Observability(
                    tracing=False,
                    metrics=False,
                    profile=ProfilerConfig(wall=False),
                )
                with session.measure(figure_id), obs:
                    run_figure(figure_id, **kwargs)
                session.records[figure_id].hotspots = tuple(
                    bench_hotspots(obs.profiler)
                )
            else:
                with session.measure(figure_id):
                    run_figure(figure_id, **kwargs)
            record = session.records[figure_id]
            print(
                f"{figure_id}: {record.wall_s:.2f}s wall, "
                f"{record.sim_events:,} sim events "
                f"({record.events_per_s:,.0f}/s), cache={record.cache}",
                file=sys.stderr,
            )
    doc = session.to_doc(scale=args.scale)
    path = perf_harness.write_bench(doc, args.out)
    print(f"wrote bench document to {path}", file=sys.stderr)
    if baseline is not None:
        comparison = perf_harness.compare_docs(baseline, doc, threshold=threshold)
        print(comparison.render())
        return 0 if (comparison.ok or args.warn_only) else 1
    return 0


def _cmd_profile(parser, args) -> int:
    from repro.obs.core import Observability
    from repro.obs.prof import (
        ProfilerConfig,
        hotspot_table,
        queue_report,
        write_collapsed,
        write_speedscope,
    )
    from repro.obs.telemetry import DEFAULT_PERIOD_NS

    figure_id = args.figures[0]
    if figure_id not in FIGURES:
        print(f"unknown figure {figure_id!r}; try --list", file=sys.stderr)
        return 2
    _configure_engine(args)
    config = ProfilerConfig(
        wall=not args.no_wall,
        period_ns=args.period or DEFAULT_PERIOD_NS,
        top=args.top,
    )
    kwargs = _scaled_kwargs(
        figure_id, args.scale, seed=args.seed, fault_seed=args.fault_seed
    )
    obs = Observability(tracing=False, metrics=False, profile=config)
    started = time.time()
    with _fault_context(args), _device_context(args), obs:
        run_figure(figure_id, **kwargs)
    elapsed = time.time() - started
    prof = obs.profiler
    print(f"== hotspots: {figure_id} ({elapsed:.1f}s wall) ==")
    print(hotspot_table(prof))
    print()
    print("== event queue ==")
    print(queue_report(prof))
    if args.profile_out:
        write_speedscope(prof, args.profile_out, name=f"repro {figure_id}")
        print(
            f"wrote speedscope profile to {args.profile_out}", file=sys.stderr
        )
    if args.collapsed:
        write_collapsed(prof, args.collapsed)
        print(
            f"wrote collapsed stacks to {args.collapsed}", file=sys.stderr
        )
    if args.timeline:
        if args.timeline.endswith((".html", ".htm")):
            from repro.obs.html import write_telemetry_html

            write_telemetry_html(
                prof.telemetry,
                args.timeline,
                title=f"Sim profiler timeline — {figure_id}",
            )
        else:
            from repro.obs.export import write_telemetry_csv

            write_telemetry_csv(prof.telemetry, args.timeline)
        print(f"wrote queue timeline to {args.timeline}", file=sys.stderr)
    return 0


def _cmd_devices(argv) -> int:
    """``python -m repro devices list|show NAME [--format toml|json]``."""
    from repro.ssd.registry import (
        PRESET_ALIASES,
        PRESET_NAMES,
        get_spec,
        list_devices,
        load_device_spec,
        resolve_spec,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro devices",
        description="Inspect the device registry (see docs/devices.md)",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    sub.add_parser("list", help="one line per registered device")
    show = sub.add_parser(
        "show", help="dump one device's fully resolved spec"
    )
    show.add_argument("name", help="registry name or spec-file path")
    show.add_argument(
        "--format",
        choices=("toml", "json"),
        default="toml",
        help="output format (default toml)",
    )
    args = parser.parse_args(argv)

    if args.action == "list":
        names = list_devices()
        width = max(len(n) for n in names + PRESET_NAMES)
        for name in names:
            spec = get_spec(name)
            print(f"{name:{width}s}  {spec.label}")
        for name, target in PRESET_ALIASES.items():
            print(f"{name:{width}s}  (preset alias; spec twin: {target})")
        return 0

    name = args.name
    if name in PRESET_NAMES:
        # Present the alias as its target's spec under the alias name.
        from repro.ssd.registry import resolve_config
        from repro.ssd.spec import spec_from_config

        spec = spec_from_config(resolve_config(name), name=name)
    elif "/" in name or name.endswith((".toml", ".json")):
        spec = load_device_spec(name)
    else:
        spec = resolve_spec(name)
    if args.format == "json":
        print(spec.to_json())
    else:
        print(spec.to_toml(), end="")
    print(f"# spec_hash: {spec.spec_hash()}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # `devices`/`lint`/`check` own their argument vocabulary and share
    # nothing with the figure runners: dispatch before the
    # figure-oriented parser gets a say.
    if argv and argv[0] == "devices":
        from repro.ssd.spec import DeviceSpecError

        try:
            return _cmd_devices(argv[1:])
        except DeviceSpecError as exc:
            print(f"devices: {exc}", file=sys.stderr)
            return 2
    if argv and argv[0] == "lint":
        from repro.lint.cli import run_lint

        return run_lint(argv[1:])
    if argv and argv[0] == "check":
        from repro.lint.cli import run_check

        return run_check(argv[1:])
    # Back-compat flat form: `python -m repro fig10 --scale 0.2` (and
    # bare option forms like `--list`) are `figures ...`.  Top-level
    # help still reaches the subcommand overview.
    if argv and argv[0] not in SUBCOMMANDS and argv[0] not in ("-h", "--help"):
        argv.insert(0, "figures")
    parser = _build_parser()
    if not argv:
        parser.print_usage()
        return 2
    args = parser.parse_args(argv)

    from repro.ssd.spec import DeviceSpecError

    try:
        return _dispatch(parser, args)
    except DeviceSpecError as exc:
        # The single-error contract: a bad device spec (or --device
        # name) is one message naming file, key path, and value — never
        # a mid-construction traceback.
        print(f"device spec error: {exc}", file=sys.stderr)
        return 2


def _dispatch(parser, args) -> int:
    if args.command == "perf":
        return _cmd_perf(parser, args)

    if args.command == "profile":
        return _cmd_profile(parser, args)

    if args.command == "blame":
        return _cmd_blame(parser, args)

    if args.command == "trace":
        # Observability is the point: fall back to the anatomy report
        # when no output was chosen explicitly.
        if not (
            args.trace_out
            or args.metrics
            or args.metrics_out
            or args.anatomy
            or _wants_telemetry(args)
            or _wants_blame(args)
        ):
            args.anatomy = True
        return _run_targets(args.figures, args, render=True, observing=True)

    targets = _select_targets(parser, args)
    if targets is None:
        return 0
    if not targets:
        return 2
    observing = bool(
        args.trace_out
        or args.metrics
        or args.metrics_out
        or args.anatomy
        or _wants_telemetry(args)
        or _wants_blame(args)
    )
    if args.command == "sweep":
        return _run_targets(targets, args, render=False, observing=observing)
    return _run_targets(targets, args, render=True, observing=observing)


if __name__ == "__main__":
    raise SystemExit(main())
