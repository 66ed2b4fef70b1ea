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

Five subcommands share one flag vocabulary:

* ``figures`` — run figure reproductions and print their tables
  (``python -m repro figures fig10 --scale 0.2``).
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
* ``profile`` — run ONE figure under the self-profiler
  (:mod:`repro.obs.prof`): print the hotspot-attribution table and
  event-queue introspection, and optionally export flamegraphs
  (``--profile-out`` speedscope JSON, ``--collapsed`` collapsed-stack
  text) and the queue-depth timeline (``--timeline``, ``.html`` or CSV).

``devices`` inspects the device registry (``devices list``,
``devices show NAME [--format toml|json]``).

``perf --compare OLD.json --against NEW.json`` diffs two bench documents
(``benchmarks/suite/run.py --json``) figure by figure: wall seconds,
sim-events/sec and cache state (``--threshold`` sets the slowdown gate,
``--warn-only`` reports without failing).

Use ``--scale`` to grow or shrink I/O counts (0.1 = 10 % of the default
samples, 2.0 = double), ``figures --list`` to enumerate figure ids.
Every argument is checked while parsing: a bad value, a figure id or
device that does not exist, or an unreadable ``--compare`` document
fails with one ``prog: error: ...`` line and exit status 2 before
anything runs.

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

from repro import perf as perf_harness
from repro.core import sweep as sweep_engine
from repro.core.cliargs import (
    ArgumentParser,
    add_device_flag,
    checked,
    device,
    number,
)
from repro.core.figures import FIGURES, run_figure
from repro.core.report import render_figure
from repro.faults.plan import parse_fault_spec
from repro.obs.blame import SloSpec

_POSITIVE_INT = number(int, minimum=1)
_SEED = number(int, minimum=0)
# Read while parsing, so a bad document fails with one usage-error line.
_BENCH_DOC = checked(perf_harness.load_bench)


def _figure_id(text: str) -> str:
    """argparse type: a registered figure id."""
    if text not in FIGURES:
        raise argparse.ArgumentTypeError(
            f"unknown figure {text!r}; try figures --list"
        )
    return text


@checked
def _fault_spec(text: str) -> str:
    """argparse type: one ``--faults`` item, checked by the parser that
    later builds the plan from all of them."""
    parse_fault_spec([text])
    return text


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
    return bool(args.telemetry or args.telemetry_out or args.telemetry_period)


def _telemetry_config(args):
    from repro.obs.telemetry import DEFAULT_PERIOD_NS, TelemetryConfig

    return TelemetryConfig(
        period_ns=args.telemetry_period or DEFAULT_PERIOD_NS
    )


def _wants_blame(args) -> bool:
    return bool(args.blame or args.slo or args.blame_out)


def _observing(args) -> bool:
    """Whether any observability output was asked for."""
    return bool(
        args.trace_out
        or args.metrics
        or args.metrics_out
        or args.anatomy
        or _wants_telemetry(args)
        or _wants_blame(args)
    )


def _blame_report(obs, args):
    """The blame view of ``obs``'s traced I/Os, as the flags ask."""
    from repro.obs.blame import DEFAULT_TOP, BlameReport

    return BlameReport.from_tracer(
        obs.tracer,
        top=getattr(args, "top", None) or DEFAULT_TOP,
        slos=tuple(args.slo),
    )


def _emit_observability(obs, figure_id: str, args, multi: bool, report=None) -> None:
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
    if report is None and _wants_blame(args):
        report = _blame_report(obs, args)
    if report is not None and (args.blame or args.slo):
        from repro.obs.blame import blame_table

        print(blame_table(report))
        print()
    if args.trace_out:
        path = _suffixed(args.trace_out, figure_id, multi)
        if path.endswith(".jsonl"):
            from repro.obs.export import write_trace_jsonl

            count = write_trace_jsonl(obs.tracer, path, telemetry=obs.telemetry)
            print(f"wrote {count} JSONL events to {path}", file=sys.stderr)
        else:
            count = write_chrome_trace(obs.tracer, path, telemetry=obs.telemetry)
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
    if report is not None and args.blame_out:
        from repro.obs.blame import blame_table

        path = _suffixed(args.blame_out, figure_id, multi)
        if path.endswith((".html", ".htm")):
            from repro.obs.html import write_blame_html

            write_blame_html(
                report, path, title=f"Tail-latency blame — {figure_id}"
            )
        else:
            from repro.obs.export import atomic_write_text

            atomic_write_text(path, blame_table(report) + "\n")
        print(f"wrote blame report to {path}", file=sys.stderr)


def _flag_groups():
    """The parent parsers the figure-running subcommands are built from;
    each flag is defined here once."""
    many = ArgumentParser(add_help=False)
    many.add_argument(
        "figures", nargs="*", type=_figure_id,
        help="figure ids (e.g. fig10 fig18)",
    )
    many.add_argument("--all", action="store_true", help="every figure")

    one = ArgumentParser(add_help=False)
    one.add_argument(
        "figures", nargs=1, type=_figure_id, metavar="figure", help="figure id"
    )

    run = ArgumentParser(add_help=False)
    run.add_argument(
        "--scale",
        type=number(float, above=0),
        default=1.0,
        help="I/O-count scale factor (default 1.0)",
    )
    run.add_argument(
        "--seed",
        type=_SEED,
        default=None,
        metavar="N",
        help="override the device seed on figures that accept one",
    )
    add_device_flag(
        run,
        default=None,
        help=(
            "run every figure against this device instead of the "
            "paper's presets: a registry name (see `python -m repro "
            "devices list`) or a .toml/.json spec file"
        ),
    )
    run.add_argument(
        "--jobs",
        type=_POSITIVE_INT,
        default=1,
        metavar="N",
        help="run independent measurements across N worker processes",
    )
    run.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help=(
            "persist measurements under DIR "
            f"(default {sweep_engine.DEFAULT_CACHE_DIR})"
        ),
    )
    run.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent measurement cache",
    )

    faults = ArgumentParser(add_help=False)
    faults.add_argument(
        "--faults",
        action="append",
        type=_fault_spec,
        default=[],
        metavar="SPEC",
        help=(
            "inject faults: layer.field=value "
            "(e.g. nand.read_fail_prob=0.01); repeatable, comma-splittable"
        ),
    )
    faults.add_argument(
        "--fault-seed",
        type=_SEED,
        default=None,
        metavar="N",
        help=(
            "seed for every fault-injector stream (default 0); also passed "
            "to figures that accept a fault_seed argument"
        ),
    )

    obs = ArgumentParser(add_help=False)
    obs.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write per-I/O spans as Chrome trace_event JSON (Perfetto)",
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="print the metrics registry after each figure",
    )
    obs.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics registry as CSV",
    )
    obs.add_argument(
        "--anatomy",
        action="store_true",
        help="print the span-level latency-anatomy breakdown",
    )
    obs.add_argument(
        "--telemetry",
        action="store_true",
        help="record time-series telemetry and print the digest summary",
    )
    obs.add_argument(
        "--telemetry-out",
        metavar="FILE",
        default=None,
        help=(
            "write telemetry samples to FILE (.html -> self-contained "
            "timeline report, anything else -> long-format CSV)"
        ),
    )
    obs.add_argument(
        "--telemetry-period",
        type=_POSITIVE_INT,
        default=None,
        metavar="NS",
        help="telemetry sample period in sim nanoseconds (default 10000)",
    )
    obs.add_argument(
        "--blame",
        action="store_true",
        help=(
            "record per-I/O wait-for blame attribution and print the "
            "tail-latency blame table after each figure"
        ),
    )
    obs.add_argument(
        "--slo",
        action="append",
        default=[],
        type=checked(SloSpec.parse),
        metavar="SPEC",
        help=(
            "monitor a latency SLO: OP:LATENCY[@OBJECTIVE], e.g. "
            "read:150us@0.999 or '*:1ms@99%%'; repeatable; implies --blame"
        ),
    )
    obs.add_argument(
        "--blame-out",
        metavar="FILE",
        default=None,
        help=(
            "write the blame report to FILE (.html -> self-contained "
            "report, anything else -> the text table); implies --blame"
        ),
    )
    return many, one, run, faults, obs


def _build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(
        prog="python -m repro",
        description="Reproduce figures from 'Faster than Flash' (IISWC'19)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help, *parents):
        cmd = sub.add_parser(name, help=help, parents=parents)
        # Handlers reject flag combinations through the subcommand's own
        # parser, so every usage error reads the same way.
        cmd.set_defaults(run=handler, error=cmd.error)
        return cmd

    many, one, run, faults, obs = _flag_groups()
    for name, help in (
        ("figures", "run figure reproductions and print their tables"),
        ("sweep", "execute figures for their measurements only (cache warmer)"),
    ):
        command(name, _cmd_figures, help, many, run, faults, obs).add_argument(
            "--list", action="store_true", help="list figure ids"
        )
    sub.choices["sweep"].add_argument(
        "--clear-cache",
        action="store_true",
        help="empty the persistent measurement cache before running",
    )

    perf = command(
        "perf", _cmd_perf,
        "diff two bench documents (benchmarks/suite/run.py --json) "
        "figure by figure",
    )
    perf.add_argument(
        "--compare",
        type=_BENCH_DOC,
        metavar="OLD.json",
        required=True,
        help="the earlier bench document",
    )
    perf.add_argument(
        "--against",
        type=_BENCH_DOC,
        metavar="NEW.json",
        required=True,
        help="the later bench document",
    )
    perf.add_argument(
        "--threshold",
        type=number(float, above=0),
        default=perf_harness.DEFAULT_THRESHOLD,
        help="slowdown gate as a fraction (default 0.30 = fail past +30%%)",
    )
    perf.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit zero",
    )

    profile = command(
        "profile", _cmd_profile,
        "run ONE figure under the self-profiler (repro.obs.prof)",
        one, run, faults,
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
        type=_POSITIVE_INT,
        default=15,
        metavar="N",
        help="hotspot table size (default 15)",
    )
    profile.add_argument(
        "--period",
        type=_POSITIVE_INT,
        default=None,
        metavar="NS",
        help="queue-series sample period in sim nanoseconds (default 10000)",
    )

    command(
        "trace", _cmd_trace,
        "run ONE figure under observability (defaults to --anatomy)",
        one, run, faults, obs,
    )
    blame = command(
        "blame", _cmd_blame,
        "run ONE figure under blame attribution: verify wait/service "
        "conservation, print the tail-latency blame table",
        one, run, faults, obs,
    )
    blame.add_argument(
        "--top",
        type=_POSITIVE_INT,
        default=None,
        metavar="K",
        help="slowest requests kept per (device, op) group (default 10)",
    )

    devices = command(
        "devices", _cmd_devices,
        "inspect the device registry: list names, show resolved specs",
    )
    action = devices.add_subparsers(dest="action", required=True)
    action.add_parser("list", help="one line per registered device")
    show = action.add_parser(
        "show", help="dump one device's fully resolved spec"
    )
    show.add_argument(
        "name", type=device, help="registry name or spec-file path"
    )
    show.add_argument(
        "--format",
        choices=("toml", "json"),
        default="toml",
        help="output format (default toml)",
    )

    # simlint reads its own vocabulary (repro.lint.cli): main() hands it
    # everything after the subcommand name.
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
    return parser


def _fault_context(args):
    """The ambient fault plan requested on the command line (or a no-op)."""
    if not args.faults:
        return contextlib.nullcontext()
    plan = parse_fault_spec(args.faults, seed=args.fault_seed or 0)
    return plan.installed()


def _device_context(args):
    """The ambient --device override (or a no-op); the substitution
    lands in each point's declared parameters (see
    :func:`repro.ssd.registry.device_override`)."""
    if args.device is None:
        return contextlib.nullcontext()
    from repro.ssd.registry import device_override

    return device_override(args.device)


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


def _cmd_figures(args) -> int:
    """``figures`` prints each figure's table; ``sweep`` only executes
    the measurements (a cache warmer)."""
    if args.list:
        for figure_id, fn in sorted(FIGURES.items()):
            doc = (fn.__doc__ or "").strip().splitlines()[0]
            print(f"{figure_id:8s} {doc}")
        return 0
    targets = sorted(FIGURES) if args.all else args.figures
    if not targets:
        args.error("name figures to run, or pass --all or --list")
    return _run_targets(
        targets, args, render=args.command == "figures",
        observing=_observing(args),
    )


def _cmd_trace(args) -> int:
    # Observability is the point: fall back to the anatomy report when
    # no output was chosen explicitly.
    if not _observing(args):
        args.anatomy = True
    return _run_targets(args.figures, args, render=True, observing=True)


def _run_targets(targets, args, *, render: bool, observing: bool) -> int:
    engine = _configure_engine(args)
    multi = len(targets) > 1
    with _fault_context(args), _device_context(args):
        for figure_id in targets:
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


def _cmd_blame(args) -> int:
    """``python -m repro blame FIGURE``: blame attribution with a
    machine-checkable conservation line (CI greps for ``conservation: OK``).
    """
    from repro.obs.anatomy import verify_conservation
    from repro.obs.blame import blame_table, verify_blame_conservation
    from repro.obs.core import Observability

    figure_id = args.figures[0]
    _configure_engine(args)
    kwargs = _scaled_kwargs(
        figure_id, args.scale, seed=args.seed, fault_seed=args.fault_seed
    )
    obs = Observability(
        telemetry=_telemetry_config(args) if _wants_telemetry(args) else None,
    )
    started = time.time()
    with _fault_context(args), _device_context(args), obs:
        run_figure(figure_id, **kwargs)
    elapsed = time.time() - started
    traced = verify_conservation(obs.tracer)
    report = _blame_report(obs, args)
    outliers = verify_blame_conservation(report)
    print(f"conservation: OK ({outliers} outliers over {traced} I/Os)")
    print()
    print(blame_table(report))
    # The table is printed; leave _emit_observability the file outputs
    # and any other observability flags the caller set.
    args.blame = False
    args.slo = []
    _emit_observability(obs, figure_id, args, multi=False, report=report)
    print(f"[{elapsed:.1f}s]", file=sys.stderr)
    return 0


def _cmd_perf(args) -> int:
    comparison = perf_harness.compare_docs(
        args.compare, args.against, threshold=args.threshold
    )
    print(comparison.render())
    return 0 if (comparison.ok or args.warn_only) else 1


def _cmd_profile(args) -> int:
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
    assert prof is not None
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


def _cmd_devices(args) -> int:
    """``python -m repro devices list|show NAME [--format toml|json]``."""
    from repro.ssd.registry import (
        PRESET_ALIASES,
        PRESET_NAMES,
        get_spec,
        list_devices,
        resolve_config,
        resolve_spec,
    )
    from repro.ssd.spec import spec_from_config

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
        spec = spec_from_config(resolve_config(name), name=name)
    else:
        spec = resolve_spec(name)
    if args.format == "json":
        print(spec.to_json())
    else:
        print(spec.to_toml(), end="")
    print(f"# spec_hash: {spec.spec_hash()}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command in ("lint", "check"):
        from repro.lint import cli as lint_cli

        return getattr(lint_cli, f"run_{args.command}")(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
