"""Declarative sweep engine: point grids, parallel execution, caching.

Every figure reproduction is a grid of independent measurements — each
one builds a fresh :class:`~repro.sim.engine.Simulator` with fixed
seeds, so a point's result depends only on its parameters.  This module
turns that fact into infrastructure:

* a figure declares its grid as :class:`Point` objects (a *runner* name
  plus canonical parameters) wrapped in an :class:`ExperimentSpec`;
* a :class:`SweepEngine` executes the grid — serially or fanned out
  across a ``ProcessPoolExecutor`` — and returns ``{point.key:
  Measurement}`` merged deterministically by point key, so parallel
  output is bit-identical to serial;
* results land in an in-process memo (figures share identical points,
  e.g. Figs. 9-16 all reuse the same synchronous runs) and, optionally,
  in a persistent on-disk :class:`SweepCache` keyed by a canonical hash
  of (schema version, point params, device config, cost table) that
  survives across runs;
* while an :class:`~repro.obs.core.Observability` bundle is installed,
  the engine steps aside: every point executes live (a traced run must
  actually run to produce spans), nothing is read from or written to
  either cache, and each point records into a fresh bundle built from
  the installed one's config, which is absorbed into it in point order.
  Plain and traced points share one plan/execute/finish loop and one
  worker entry point.

The actual measurement code lives in :mod:`repro.core.runners`; runners
register themselves by name so worker processes can resolve them after
a fork/spawn.
"""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import os
import pickle
import re
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.core import Observability, current_obs

#: Bump when a change invalidates previously cached measurements
#: (simulator semantics, Measurement layout, runner behavior).
CACHE_SCHEMA = 1

#: Where the CLI persists measurements unless told otherwise.
DEFAULT_CACHE_DIR = Path(
    os.environ.get("REPRO_CACHE_DIR", os.path.join("~", ".cache", "repro"))
).expanduser()


# ----------------------------------------------------------------------
# Canonical parameter values
# ----------------------------------------------------------------------
def canonical(value: Any) -> Any:
    """Normalize a parameter value into the hashable canonical subset.

    Allowed: ``None``, ``bool``, ``int``, ``float``, ``str``, enums
    (replaced by their value), and tuples/lists/dicts of the same
    (dicts become sorted item tuples).  Anything else is rejected so
    cache keys stay well-defined.
    """
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), canonical(v)) for k, v in value.items()))
    raise TypeError(
        f"sweep parameters must be scalars/tuples/dicts, got {type(value).__name__}"
    )


def canonical_params(params: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Sorted, canonicalized ``(name, value)`` pairs."""
    return tuple(sorted((name, canonical(v)) for name, v in params.items()))


# ----------------------------------------------------------------------
# The declarative layer
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Point:
    """One measurement of a grid: a runner name plus its parameters.

    ``key`` identifies the point *within its spec* (figures index the
    result dict by it); ``params`` identify the measurement globally
    (two points with equal runner+params are the same measurement and
    share cache entries, across figures and across runs).
    """

    key: Any
    runner: str
    params: Tuple[Tuple[str, Any], ...]

    def kwargs(self) -> Dict[str, Any]:
        return dict(self.params)


def make_point(key: Any, runner: str, **params: Any) -> Point:
    """A :class:`Point` with canonicalized parameters."""
    return Point(key=key, runner=runner, params=canonical_params(params))


@dataclass(frozen=True)
class ExperimentSpec:
    """A named grid of points (one figure's worth of measurements)."""

    name: str
    points: Tuple[Point, ...]

    def __post_init__(self) -> None:
        keys = [point.key for point in self.points]
        if len(set(keys)) != len(keys):
            dupes = sorted({repr(k) for k in keys if keys.count(k) > 1})
            raise ValueError(f"spec {self.name!r} has duplicate point keys: {dupes}")


# ----------------------------------------------------------------------
# Measurement results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceSnapshot:
    """Device-side state a figure reads after a run, detached from the
    simulator so it can cross process/cache boundaries."""

    gc_events: int = 0
    first_gc_ns: int = -1  # -1: GC never engaged
    write_amplification: float = 0.0
    erases: int = 0
    power_series: Optional[object] = None  # stats.timeseries.Points
    #: Registry/spec name of the device measured ("" for legacy
    #: snapshots unpickled from warm caches).
    device: str = ""


@dataclass(frozen=True)
class Measurement:
    """What one point produced: the job result, optional device-side
    extracts, and runner-specific scalar values."""

    result: Optional[object] = None  # workloads.runner.JobResult
    device: Optional[DeviceSnapshot] = None
    values: Tuple[Tuple[str, float], ...] = ()

    def value(self, name: str) -> float:
        """A named scalar from ``values`` (raises KeyError if absent)."""
        table = dict(self.values)
        return table[name]


# ----------------------------------------------------------------------
# Runner registry
# ----------------------------------------------------------------------
_RUNNERS: Dict[str, Callable[..., Measurement]] = {}


def runner(name: str) -> Callable:
    """Class-level decorator registering a measurement runner by name."""

    def register(fn: Callable[..., Measurement]) -> Callable[..., Measurement]:
        _RUNNERS[name] = fn
        return fn

    return register


def get_runner(name: str) -> Callable[..., Measurement]:
    if name not in _RUNNERS:
        import repro.core.runners  # noqa: F401  (registers the built-ins)
    return _RUNNERS[name]


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _device_identity(params: Dict[str, Any]) -> str:
    """The resolved device identity a point will run against.

    Every device is content-addressed by its canonical spec hash
    (``spec:<name>:<hash>``; a preset alias by its target's).  See
    :func:`repro.ssd.registry.device_identity`.
    """
    device = params.get("device")
    if not device:
        return ""
    from repro.ssd.registry import device_identity

    return device_identity(device, params.get("config_overrides", ()))


def _costs_identity() -> str:
    """The current software cost table (read dynamically so edits and
    monkeypatches to ``repro.host.costs.DEFAULT_COSTS`` invalidate)."""
    from repro.host import costs as costs_module

    return repr(sorted(dataclasses.asdict(costs_module.DEFAULT_COSTS).items()))


def _ambient_fault_params():
    """The ambiently installed fault plan as canonical params, or None.

    Points that carry an explicit ``fault_plan`` parameter are already
    keyed by it; this covers plans installed around a whole run (the
    CLI's ``--faults`` flag), which otherwise would alias fault-free
    cache entries.
    """
    from repro.faults.plan import active_plan

    plan = active_plan()
    return plan.to_params() if plan is not None else None


def point_cache_key(point: Point) -> str:
    """Canonical hash identifying one measurement across runs."""
    return _cache_key(point, _costs_identity(), _ambient_fault_params())


def _cache_key(point: Point, costs_identity: str, ambient_faults: Any) -> str:
    """:func:`point_cache_key` with the run-wide inputs (the cost table
    and the ambient fault plan) computed once by the caller."""
    items = [
        CACHE_SCHEMA,
        point.runner,
        point.params,
        _device_identity(point.kwargs()),
        costs_identity,
    ]
    if ambient_faults is not None:
        # Appended only when a plan is live, so fault-free runs keep
        # their historical keys (and their warm caches).
        items.append(ambient_faults)
    blob = repr(tuple(items))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Persistent cache
# ----------------------------------------------------------------------
def source_digest(package_root: Path) -> str:
    """sha256 over every ``.py`` and ``.toml`` file under ``package_root``
    (relative path and content): the identity of the model code and the
    shipped device specs."""
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*")):
        if path.suffix in (".py", ".toml"):
            data = path.read_bytes()
            name = path.relative_to(package_root).as_posix()
            digest.update(f"{name}\0{len(data)}\0".encode("utf-8"))
            digest.update(data)
    return digest.hexdigest()


#: A namespace directory's name: one :func:`source_digest`.
_NAMESPACE = re.compile(r"[0-9a-f]{64}")
#: The file that marks a namespace as written by :class:`SweepCache`;
#: pruning deletes no directory without it.
_MARKER = ".repro-sweep"


@functools.lru_cache(maxsize=None)
def _code_identity() -> str:
    """:func:`source_digest` of the running ``repro`` package, hashed on
    first use (only a disk cache needs it)."""
    return source_digest(Path(__file__).resolve().parents[1])


class SweepCache:
    """Pickle-per-measurement cache under a root directory.

    Layout: ``<root>/<code>/<hash[:2]>/<hash>.pkl``, where ``<code>`` is
    the sha256 of the package sources (:func:`source_digest`): an edit
    anywhere in the model code starts an empty namespace instead of
    serving measurements the old code made.  The first ``put`` marks its
    namespace and deletes the marked namespaces of other digests, which
    nothing reads again.  Reads
    tolerate missing or corrupt files (a miss); writes are atomic (temp
    file + rename) so parallel runs never observe torn entries.
    """

    def __init__(self, root) -> None:
        self.root = Path(root).expanduser()
        self._pruned = False

    def _prune(self) -> None:
        """Once per cache: mark the current namespace, and delete sibling
        namespaces of other source digests that carry the mark (errors
        leave them in place)."""
        if self._pruned:
            return
        self._pruned = True
        current = _code_identity()
        with contextlib.suppress(OSError):
            namespace = self.root / current
            namespace.mkdir(parents=True, exist_ok=True)
            (namespace / _MARKER).touch()
            for child in self.root.iterdir():
                if (
                    child.name != current
                    and _NAMESPACE.fullmatch(child.name)
                    and (child / _MARKER).is_file()
                ):
                    shutil.rmtree(child, ignore_errors=True)

    def _path(self, key: str) -> Path:
        return self.root / _code_identity() / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Optional[Measurement]:
        try:
            with open(self._path(key), "rb") as fh:
                return pickle.load(fh)
        except (OSError, EOFError, pickle.PickleError, AttributeError, ImportError):
            return None

    def put(self, key: str, measurement: Measurement) -> None:
        self._prune()
        path = self._path(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        except OSError:
            return  # cache dir unusable: run uncached rather than fail
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(measurement, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


# ----------------------------------------------------------------------
# The worker entry point (module-level: must be picklable)
# ----------------------------------------------------------------------
def _execute_point(
    runner_name: str,
    params: Tuple[Tuple[str, Any], ...],
    fault_params: Optional[Tuple[Tuple[str, Any], ...]] = None,
    obs_config: Optional[Dict[str, Any]] = None,
) -> Tuple[Measurement, Optional[Observability]]:
    """Run one point; returns the measurement and the bundle it recorded
    into (``None`` unless ``obs_config`` is given).

    The parent's ambient fault plan and bundle config arrive explicitly:
    worker processes (spawn in particular) don't inherit module state.
    """
    fn = get_runner(runner_name)
    bundle = Observability(**obs_config) if obs_config is not None else None
    with contextlib.ExitStack() as stack:
        if bundle is not None:
            stack.enter_context(bundle)
        if fault_params:
            from repro.faults.plan import FaultPlan

            stack.enter_context(FaultPlan.from_params(fault_params).installed())
        measurement = fn(**dict(params))
    return measurement, bundle


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class SweepStats:
    """Cumulative engine counters (the CLI prints per-figure deltas)."""

    points: int = 0
    executed: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    traced: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


class SweepEngine:
    """Executes :class:`ExperimentSpec` grids with memoization, optional
    persistence, and optional process-pool fan-out."""

    def __init__(self, *, jobs: int = 1, cache: Optional[SweepCache] = None) -> None:
        self.jobs = max(1, jobs)
        self.cache = cache
        self.stats = SweepStats()
        self._memo: Dict[str, Measurement] = {}

    # ------------------------------------------------------------------
    def clear_memo(self) -> None:
        """Drop the in-process memo (the disk cache is untouched)."""
        self._memo.clear()

    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> Dict[Any, Measurement]:
        """Execute every point of ``spec``; returns ``{key: Measurement}``
        in spec point order regardless of execution order.

        Plain and traced runs share three steps:

        * **plan** — with no bundle enabled, points are served from the
          memo or the disk cache and the rest are grouped by cache key,
          so a measurement several points share runs once.  Under an
          enabled bundle every point is its own work item and neither
          cache is read or written;
        * **execute** — :func:`_execute_point`, serially or across a
          process pool; under a bundle each call records into a fresh
          bundle built from ``obs.config`` and returns it;
        * **finish** — bundles are absorbed into ``obs`` in spec order
          (deterministic pids, io ids and metric merge order, so traced
          output is the same serial or parallel: gauge time-weighting in
          particular cannot be merged from aggregates any other way),
          and plain measurements go to the memo and the disk cache.
        """
        self.stats.points += len(spec.points)
        obs = current_obs()
        obs_config = obs.config if isinstance(obs, Observability) and obs.enabled else None

        results: Dict[Any, Measurement] = {}
        fault_params = _ambient_fault_params()
        work: Sequence[Tuple[Optional[str], List[Point]]]
        if obs_config is not None:
            work = [(None, [point]) for point in spec.points]
        else:
            costs_identity = _costs_identity()
            queued: Dict[str, List[Point]] = {}
            for point in spec.points:
                key = _cache_key(point, costs_identity, fault_params)
                measurement = self._memo.get(key)
                if measurement is not None:
                    self.stats.memo_hits += 1
                    results[point.key] = measurement
                    continue
                if self.cache is not None:
                    measurement = self.cache.get(key)
                    if measurement is not None:
                        self.stats.disk_hits += 1
                        self._memo[key] = measurement
                        results[point.key] = measurement
                        continue
                queued.setdefault(key, []).append(point)
            work = list(queued.items())

        calls = [
            (points[0].runner, points[0].params, fault_params, obs_config)
            for _key, points in work
        ]
        if self.jobs > 1 and len(calls) > 1:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(calls))) as pool:
                futures = [pool.submit(_execute_point, *call) for call in calls]
                outcomes = [future.result() for future in futures]
        else:
            outcomes = [_execute_point(*call) for call in calls]

        for (key, points), (measurement, bundle) in zip(work, outcomes):
            self.stats.executed += 1
            if bundle is not None:
                assert isinstance(obs, Observability)
                self.stats.traced += 1
                obs.absorb(bundle)
            else:
                assert key is not None
                self._memo[key] = measurement
                if self.cache is not None:
                    self.cache.put(key, measurement)
            for point in points:
                results[point.key] = measurement

        return {point.key: results[point.key] for point in spec.points}


# ----------------------------------------------------------------------
# The process-default engine
# ----------------------------------------------------------------------
_UNSET = object()
_DEFAULT_ENGINE = SweepEngine()


def default_engine() -> SweepEngine:
    """The engine figure functions submit their grids to."""
    return _DEFAULT_ENGINE


def configure(*, jobs: Optional[int] = None, cache_dir: Any = _UNSET) -> SweepEngine:
    """Reconfigure the default engine (CLI flags, benchmark env vars).

    ``jobs``: worker-process count (1 = serial).  ``cache_dir``: a
    directory to persist measurements under, or ``None`` to disable the
    persistent layer (the in-process memo always stays on).
    """
    engine = _DEFAULT_ENGINE
    if jobs is not None:
        engine.jobs = max(1, int(jobs))
    if cache_dir is not _UNSET:
        engine.cache = SweepCache(cache_dir) if cache_dir else None
    return engine


def sweep(points: Iterable[Point], *, name: str = "adhoc") -> Dict[Any, Measurement]:
    """Run a grid on the default engine; returns ``{key: Measurement}``."""
    spec = ExperimentSpec(name=name, points=tuple(points))
    return default_engine().run(spec)
