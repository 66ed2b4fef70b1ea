"""repro.obs.prof — the deterministic self-profiler for the simulator.

The span tracer and telemetry answer *sim-time* questions (where does a
request's latency go); this module answers the *wall-time* question the
ROADMAP's 10-100x speedup item needs: where does the simulator itself
spend its events and its host CPU?  Three views:

* **Hotspot attribution** — every callback dispatched by
  :meth:`repro.sim.engine.Simulator.step` is bucketed by *call site*: a
  ``(layer, component, callsite)`` triple derived from the callback's
  defining module (``repro.ssd.channels`` -> layer ``ssd``, component
  ``ssd.channels``).  Generator-trampoline dispatches — a
  :class:`~repro.sim.process.Process` start, a sleep's wake, or a
  resume from an event it waited on — are attributed to the
  *generator's* code object, so the cost of a ``Process._resume`` (a
  ``sim.sleep()`` ending) lands on the kstack/NVMe/workload coroutine
  it actually drives, not on the sim kernel.  A sleep a process skips by
  moving the clock inline (``Simulator.advance_if_next``) is booked the
  same way, as an *inline resume* of the generator that made the move
  (:meth:`Profiler.note_ahead`).  Event counts are exact (counted on
  the sim clock); wall time is sampled with ``time.perf_counter_ns``
  around each dispatch, and split at each inline move, when
  ``ProfilerConfig.wall`` is on.
* **Event-queue introspection** — insert/dispatch counts, peak and
  time-resolved queue depth, a heap-sift cost proxy (sum of
  ``log2(depth)`` per push/pop — the comparison count a binary heap
  pays), same-tick batch sizes, and generator-trampoline hop counts.
  The time-resolved series are real :class:`~repro.obs.telemetry.
  TimeSeries` objects in a private recorder, so the existing HTML
  timeline and CSV exporters render them unchanged.
* **Flamegraph export** — collapsed-stack text (``layer;component;
  callsite count``, pipe into any FlameGraph tool) and speedscope JSON
  (open at https://www.speedscope.app), one sampled profile weighted by
  exact event counts and, when wall sampling is on, a second weighted
  by nanoseconds.

Determinism contract: the profiler observes, never steers.  With
profiling disabled every hook is a single ``is not None`` check on a
slot the simulator samples at construction, and simulation outputs are
byte-identical to a run without the profiler imported.  With profiling
enabled, event *counts* and attribution are a pure function of the
simulation (parallel sweep workers ship their profilers back over the
worker-bundle path and :meth:`Profiler.absorb` merges them in point
order); only the sampled wall-time varies run to run.  A profiled run
always executes live and never touches the sweep caches (the engine
steps aside under any enabled bundle).
"""

from __future__ import annotations

import json
import time
from types import CodeType, FrameType
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.obs.export import atomic_write_text
from repro.obs.scope import Offsets, RunScope
from repro.obs.telemetry import (
    DEFAULT_PERIOD_NS,
    TailDigest,
    Telemetry,
    TelemetryConfig,
)

#: Layers the attribution report treats as first-class (everything under
#: ``repro.`` is *named*; this tuple only fixes the report's ordering).
KNOWN_LAYERS: Tuple[str, ...] = (
    "flash",
    "ftl",
    "ssd",
    "nvme",
    "kstack",
    "spdk",
    "net",
    "host",
    "workloads",
    "faults",
    "sim",
)

#: Catch-all layer for callbacks defined outside the ``repro`` package
#: (test lambdas, benchmark helpers).
OTHER_LAYER = "other"


class CallSite(NamedTuple):
    """One attribution bucket: where a dispatched callback's code lives."""

    layer: str
    component: str
    callsite: str
    kind: str  # "process" (generator resume) or "callback" (plain fn)


class ProfilerConfig:
    """What the profiler samples and how the table is cut.

    ``wall`` toggles ``perf_counter_ns`` sampling around each dispatch
    (event counts are always exact); ``period_ns`` is the sample period
    of the queue-introspection time series; ``top`` bounds the rendered
    hotspot table (exports always carry every site).
    """

    __slots__ = ("wall", "period_ns", "top")

    def __init__(
        self,
        wall: bool = True,
        period_ns: int = DEFAULT_PERIOD_NS,
        top: int = 15,
    ) -> None:
        if period_ns <= 0:
            raise ValueError("profiler sample period must be positive")
        if top < 1:
            raise ValueError("hotspot table size must be >= 1")
        self.wall = bool(wall)
        self.period_ns = int(period_ns)
        self.top = int(top)


# ----------------------------------------------------------------------
# Attribution helpers
# ----------------------------------------------------------------------
def _module_to_site(module: str, callsite: str, kind: str) -> CallSite:
    if module.startswith("repro."):
        parts = module.split(".")
        layer = parts[1] if len(parts) > 1 else OTHER_LAYER
        component = ".".join(parts[1:]) or layer
        return CallSite(layer, component, callsite, kind)
    return CallSite(OTHER_LAYER, module or "?", callsite, kind)


def _module_from_filename(filename: str) -> str:
    """Best-effort dotted module for a code object whose frame is gone."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    index = norm.rfind(marker)
    if index < 0:
        return ""
    tail = norm[index + 1:]
    if tail.endswith(".py"):
        tail = tail[:-3]
    if tail.endswith("/__init__"):
        tail = tail[: -len("/__init__")]
    return tail.replace("/", ".")


def _process_site(code: CodeType, frame: Optional[FrameType]) -> CallSite:
    """The site of generator code ``code``, named by the module of its
    live ``frame`` (or, once the frame is gone, its file)."""
    module = ""
    if frame is not None:
        module = frame.f_globals.get("__name__", "") or ""
    if not module:
        module = _module_from_filename(code.co_filename)
    name = getattr(code, "co_qualname", None) or code.co_name
    return _module_to_site(module, name, "process")


def _generator_of(callback: Callable[..., Any]) -> Optional[Any]:
    """The innermost generator a dispatched callback will synchronously
    resume: the process's own generator, for the ``Process._resume`` (a
    start or a sleep's wake) and ``Process._on_event`` bound methods the
    kernel dispatches.

    A process whose generator is suspended inside ``yield from`` resumes
    the delegate it is parked in, so the chain is followed through
    ``gi_yieldfrom`` to the generator whose code actually runs: a
    workload loop that delegates to ``KernelStack.sync_io``, which
    delegates to a completion engine, is charged to the engine.

    Duck-typed on ``_generator`` so this module never imports the sim
    kernel (which imports :mod:`repro.obs.core`).
    """
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return None
    generator = getattr(owner, "_generator", None)
    if generator is None:
        return None
    inner = getattr(generator, "gi_yieldfrom", None)
    while inner is not None and hasattr(inner, "gi_code"):
        generator = inner
        inner = getattr(generator, "gi_yieldfrom", None)
    return generator


# ----------------------------------------------------------------------
# The profiler
# ----------------------------------------------------------------------
class Profiler:
    """Event-attribution + queue-introspection recorder.

    One instance profiles every simulator attached to its
    :class:`~repro.obs.core.Observability` bundle; its private telemetry
    recorder shares the bundle's ``scope``, so each simulator's series
    carry that sim's pid.  All counts are exact and deterministic; wall
    nanoseconds are host measurements and vary run to run.
    """

    def __init__(
        self,
        config: Optional[ProfilerConfig] = None,
        scope: Optional[RunScope] = None,
    ) -> None:
        self.config = config or ProfilerConfig()
        #: site -> exact dispatched-event count.
        self.events: Dict[CallSite, int] = {}
        #: site -> sampled wall nanoseconds (empty when wall is off).
        self.wall_ns: Dict[CallSite, int] = {}
        # Queue introspection counters.
        self.inserts = 0
        self.dispatches = 0
        #: Resumes a process made inline (``Simulator.advance_if_next``)
        #: instead of through a dispatched wake; booked in ``events``.
        self.ahead = 0
        self.trampoline_hops = 0
        self.peak_depth = 0
        #: Heap-sift cost proxy: sum of log2(depth) over every push/pop —
        #: proportional to the comparisons a binary heap performs.
        self.sift_cost = 0
        self.batches = 0
        self.batch_sizes = TailDigest()
        # Time-resolved introspection series (rendered by the existing
        # telemetry HTML/CSV exporters unchanged).
        self.telemetry = Telemetry(
            TelemetryConfig(period_ns=self.config.period_ns), scope
        )
        self._wall = self.config.wall
        # Per-sim dispatch state.
        self._tick = -1
        self._batch_n = 0
        # Attribution cache: code object (or plain callable) -> site.
        # Keyed by identity on objects that live for the whole run, so
        # the cache never aliases; dropped on pickle (not serializable).
        self._sites: Dict[Any, CallSite] = {}
        # Wall split of the dispatch in flight: the inline run open since
        # the last ``note_ahead`` (site, start) and the nanoseconds
        # already charged to earlier inline runs of the same dispatch.
        self._run_site: Optional[CallSite] = None
        self._run_start = 0
        self._run_ns = 0

    # ------------------------------------------------------------------
    # Pickling: worker bundles ship whole profilers back to the parent.
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        state = {
            name: getattr(self, name)
            for name in (
                "config",
                "events",
                "wall_ns",
                "inserts",
                "dispatches",
                "ahead",
                "trampoline_hops",
                "peak_depth",
                "sift_cost",
                "batches",
                "batch_sizes",
                "telemetry",
                "_tick",
                "_batch_n",
            )
        }
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._wall = self.config.wall
        self._sites = {}
        self._run_site = None
        self._run_start = 0
        self._run_ns = 0

    # ------------------------------------------------------------------
    # Sim lifecycle
    # ------------------------------------------------------------------
    def start_sim(self) -> None:
        """A fresh simulator attached (the scope already holds its pid):
        seal batch state and open the sim's series."""
        self._flush_batch()
        self._tick = -1
        self._depth_series = self.telemetry.series(
            "prof.queue.depth", "level", "callbacks"
        )
        self._dispatch_series = self.telemetry.series(
            "prof.events.dispatched", "rate", "events"
        )
        self._hop_series = self.telemetry.series(
            "prof.trampoline.hops", "rate", "resumes"
        )

    def _flush_batch(self) -> None:
        if self._batch_n:
            self.batches += 1
            self.batch_sizes.observe(float(self._batch_n))
            self._batch_n = 0

    # ------------------------------------------------------------------
    # Engine hooks (hot path — only reached while profiling is on)
    # ------------------------------------------------------------------
    def note_insert(self, now_ns: int, when_ns: int, depth: int) -> None:
        """A callback was pushed; ``depth`` is the queue length after."""
        self.inserts += 1
        self.sift_cost += depth.bit_length()
        if depth > self.peak_depth:
            self.peak_depth = depth
        self._depth_series.record(now_ns, float(depth))

    def dispatch(
        self,
        when_ns: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...],
        depth: int,
    ) -> None:
        """Attribute and run one popped callback (``depth`` is the queue
        length after the pop)."""
        self.dispatches += 1
        self.sift_cost += depth.bit_length()
        self._depth_series.record(when_ns, float(depth))
        self._dispatch_series.add(when_ns, 1.0)
        if when_ns != self._tick:
            self._flush_batch()
            self._tick = when_ns
        self._batch_n += 1

        site = self._site_of(callback)
        self.events[site] = self.events.get(site, 0) + 1
        if site.kind == "process":
            self.trampoline_hops += 1
            self._hop_series.add(when_ns, 1.0)
        if self._wall:
            self._run_site = None
            self._run_ns = 0
            started = time.perf_counter_ns()
            callback(*args)
            ended = time.perf_counter_ns()
            if self._run_site is not None:
                self._close_run(ended)
            self.wall_ns[site] = (
                self.wall_ns.get(site, 0) + ended - started - self._run_ns
            )
        else:
            callback(*args)

    def note_ahead(self, frame: FrameType) -> None:
        """A process moved the clock inline instead of sleeping
        (:meth:`~repro.sim.engine.Simulator.advance_if_next`), from the
        generator ``frame``.  Book the resume the sleep's wake would
        have been to that generator's site, and the wall time from here
        to the next inline move (or the end of the dispatch) with it, so
        host code that runs ahead inside a device callback is charged to
        the layer whose code it is."""
        code = frame.f_code
        site = self._sites.get(code)
        if site is None:
            site = self._sites[code] = _process_site(code, frame)
        self.ahead += 1
        self.events[site] = self.events.get(site, 0) + 1
        if self._wall:
            now = time.perf_counter_ns()
            if self._run_site is not None:
                self._close_run(now)
            self._run_site = site
            self._run_start = now

    def _close_run(self, now: int) -> None:
        site = self._run_site
        assert site is not None
        spent = now - self._run_start
        self.wall_ns[site] = self.wall_ns.get(site, 0) + spent
        self._run_ns += spent
        self._run_site = None

    # ------------------------------------------------------------------
    # Attribution
    # ------------------------------------------------------------------
    def _site_of(self, callback: Callable[..., Any]) -> CallSite:
        generator = _generator_of(callback)
        if generator is not None:
            code = generator.gi_code
            site = self._sites.get(code)
            if site is None:
                site = _process_site(code, getattr(generator, "gi_frame", None))
                self._sites[code] = site
            return site
        func = getattr(callback, "__func__", callback)
        code = getattr(func, "__code__", None)
        key: Any = code if code is not None else func
        site = self._sites.get(key)
        if site is None:
            module = getattr(func, "__module__", "") or ""
            name = getattr(func, "__qualname__", None) or getattr(
                func, "__name__", type(callback).__name__
            )
            site = _module_to_site(module, name, "callback")
            self._sites[key] = site
        return site

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    @property
    def total_events(self) -> int:
        return sum(self.events.values())

    def attributed_share(self) -> float:
        """Fraction of events (dispatches and inline resumes) attributed
        to a named layer."""
        total = self.total_events
        if total == 0:
            return 0.0
        named = sum(
            count
            for site, count in self.events.items()
            if site.layer != OTHER_LAYER
        )
        return named / total

    def hotspots(self, top: Optional[int] = None) -> List[Dict[str, Any]]:
        """Per-site rows, heaviest first (exact counts; deterministic)."""
        self._flush_batch()
        total_events = self.total_events
        total_wall = sum(self.wall_ns.values())
        rows: List[Dict[str, Any]] = []
        for site in sorted(
            self.events,
            key=lambda s: (-self.events[s], s.layer, s.component, s.callsite),
        ):
            count = self.events[site]
            wall = self.wall_ns.get(site, 0)
            rows.append(
                {
                    "layer": site.layer,
                    "component": site.component,
                    "callsite": site.callsite,
                    "kind": site.kind,
                    "events": count,
                    "share": count / total_events if total_events else 0.0,
                    "wall_ns": wall,
                    "wall_share": wall / total_wall if total_wall else 0.0,
                }
            )
        if top is not None:
            rows = rows[:top]
        return rows

    def layer_totals(self) -> List[Tuple[str, int]]:
        """(layer, events) in report order, heaviest unknown layers last."""
        totals: Dict[str, int] = {}
        for site, count in self.events.items():
            totals[site.layer] = totals.get(site.layer, 0) + count
        order = {layer: index for index, layer in enumerate(KNOWN_LAYERS)}
        return sorted(
            totals.items(),
            key=lambda item: (order.get(item[0], len(order)), item[0]),
        )

    def queue_stats(self) -> Dict[str, Any]:
        """Queue-introspection summary (exact, deterministic counts)."""
        self._flush_batch()
        digest = self.batch_sizes
        return {
            "inserts": self.inserts,
            "dispatches": self.dispatches,
            "ahead": self.ahead,
            "trampoline_hops": self.trampoline_hops,
            "peak_depth": self.peak_depth,
            "sift_cost": self.sift_cost,
            "batches": self.batches,
            "batch_mean": digest.mean,
            "batch_p99": digest.quantile(0.99),
            "batch_max": digest.max if digest.max is not None else 0.0,
        }

    # ------------------------------------------------------------------
    # Merging (sweep worker-bundle path)
    # ------------------------------------------------------------------
    def absorb(self, other: "Profiler", base: Offsets) -> None:
        """Merge a worker profiler, its series' pids moved up by
        ``base.pid``; absorbed in point order by the sweep engine, so
        merged counts equal what a serial run produces."""
        other._flush_batch()
        self._flush_batch()
        for site, count in other.events.items():
            self.events[site] = self.events.get(site, 0) + count
        for site, wall in other.wall_ns.items():
            self.wall_ns[site] = self.wall_ns.get(site, 0) + wall
        self.inserts += other.inserts
        self.dispatches += other.dispatches
        self.ahead += other.ahead
        self.trampoline_hops += other.trampoline_hops
        self.peak_depth = max(self.peak_depth, other.peak_depth)
        self.sift_cost += other.sift_cost
        self.batches += other.batches
        self.batch_sizes.merge(other.batch_sizes)
        self.telemetry.absorb(other.telemetry, base)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def hotspot_table(profiler: Profiler, top: Optional[int] = None) -> str:
    """Aligned text table: heaviest call sites plus a coverage footer."""
    top = top if top is not None else profiler.config.top
    rows = profiler.hotspots(top)
    if not rows:
        return "(no events profiled)"
    total = profiler.total_events
    wall_on = bool(profiler.wall_ns)
    width = max(len(f"{r['component']}:{r['callsite']}") for r in rows)
    width = max(width, len("call site"))
    lines = [
        f"{'call site'.ljust(width)}  {'kind':<8} {'events':>10} {'ev%':>6}"
        + (f" {'wall ms':>9} {'wall%':>6}" if wall_on else "")
    ]
    for row in rows:
        name = f"{row['component']}:{row['callsite']}"
        line = (
            f"{name.ljust(width)}  {row['kind']:<8} "
            f"{row['events']:>10,} {row['share']:>5.1%}"
        )
        if wall_on:
            line += f" {row['wall_ns'] / 1e6:>8.2f}ms {row['wall_share']:>5.1%}"
        lines.append(line)
    shown = sum(row["events"] for row in rows)
    if shown < total:
        lines.append(
            f"{'(other sites)'.ljust(width)}  {'':<8} "
            f"{total - shown:>10,} {(total - shown) / total:>5.1%}"
        )
    layers = "  ".join(
        f"{layer}={count / total:.1%}" for layer, count in profiler.layer_totals()
    )
    lines.append(f"-- layers: {layers}")
    lines.append(
        f"-- attributed {profiler.attributed_share():.1%} of "
        f"{total:,} events to a named layer "
        f"({profiler.ahead:,} of them inline resumes)"
    )
    return "\n".join(lines)


def queue_report(profiler: Profiler) -> str:
    """Event-queue introspection summary as aligned text."""
    stats = profiler.queue_stats()
    lines = [
        f"queue inserts          {stats['inserts']:>12,}",
        f"queue dispatches       {stats['dispatches']:>12,}",
        f"inline resumes         {stats['ahead']:>12,}",
        f"trampoline hops        {stats['trampoline_hops']:>12,}",
        f"peak queue depth       {stats['peak_depth']:>12,}",
        f"heap-sift cost proxy   {stats['sift_cost']:>12,}",
        f"same-tick batches      {stats['batches']:>12,}",
        (
            f"batch size             mean={stats['batch_mean']:.2f} "
            f"p99={stats['batch_p99']:.2f} max={stats['batch_max']:.0f}"
        ),
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Flamegraph exports
# ----------------------------------------------------------------------
def _stack_of(site: CallSite) -> Tuple[str, str, str]:
    return (site.layer, site.component, f"{site.callsite} [{site.kind}]")


def to_collapsed(profiler: Profiler, weight: str = "events") -> str:
    """Brendan-Gregg collapsed-stack text: ``layer;component;callsite N``.

    ``weight`` selects the sample weight: exact ``events`` counts
    (default, deterministic) or sampled ``wall`` nanoseconds.
    """
    if weight not in ("events", "wall"):
        raise ValueError(f"unknown collapsed-stack weight {weight!r}")
    source = profiler.events if weight == "events" else profiler.wall_ns
    lines = []
    for site in sorted(source):
        value = source[site]
        if value:
            lines.append(";".join(_stack_of(site)) + f" {value}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_collapsed(
    profiler: Profiler, path: str, weight: str = "events"
) -> None:
    atomic_write_text(path, to_collapsed(profiler, weight))


SPEEDSCOPE_SCHEMA = "https://www.speedscope.app/file-format-schema.json"


def to_speedscope(profiler: Profiler, name: str = "repro sim profile") -> dict:
    """Speedscope JSON document (sampled profiles over the site stacks).

    Always carries a ``sim events`` profile weighted by exact dispatch
    counts; when wall sampling was on, a second ``wall time`` profile
    weighted in nanoseconds.  Frame and sample order are deterministic.
    """
    frames: List[Dict[str, str]] = []
    frame_index: Dict[str, int] = {}

    def frame_of(label: str) -> int:
        index = frame_index.get(label)
        if index is None:
            index = len(frames)
            frame_index[label] = index
            frames.append({"name": label})
        return index

    sites = sorted(profiler.events)
    stacks = {site: [frame_of(part) for part in _stack_of(site)] for site in sites}

    def profile_for(
        title: str, unit: str, weights_by_site: Dict[CallSite, int]
    ) -> dict:
        samples: List[List[int]] = []
        weights: List[int] = []
        for site in sites:
            weight = weights_by_site.get(site, 0)
            if weight:
                samples.append(stacks[site])
                weights.append(weight)
        return {
            "type": "sampled",
            "name": title,
            "unit": unit,
            "startValue": 0,
            "endValue": sum(weights),
            "samples": samples,
            "weights": weights,
        }

    profiles = [profile_for("sim events", "none", profiler.events)]
    if profiler.wall_ns:
        profiles.append(
            profile_for("wall time", "nanoseconds", profiler.wall_ns)
        )
    return {
        "$schema": SPEEDSCOPE_SCHEMA,
        "exporter": "repro.obs.prof",
        "name": name,
        "activeProfileIndex": 0,
        "shared": {"frames": frames},
        "profiles": profiles,
    }


def write_speedscope(
    profiler: Profiler, path: str, name: str = "repro sim profile"
) -> None:
    atomic_write_text(path, json.dumps(to_speedscope(profiler, name)))
