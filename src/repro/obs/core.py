"""The observability bundle and its attachment to simulators.

An :class:`Observability` object pairs a span tracer with a metrics
registry.  :class:`~repro.sim.engine.Simulator` looks up the *currently
installed* bundle at construction (``current_obs()``), so enabling
tracing for a whole figure run — which builds its own simulators
internally — is one context manager around the call:

    with Observability() as obs:
        result = run_figure("fig10")
    write_chrome_trace(obs.tracer, "fig10.json")

The default is :data:`NULL_OBS`: a no-op tracer and registry, so
uninstrumented runs pay nothing and stay bit-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Union

from repro.obs.prof import Profiler, ProfilerConfig
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.scope import RunScope
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry, TelemetryConfig
from repro.obs.tracer import NULL_TRACER, NullTracer, SpanTracer

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class Observability:
    """A tracer plus a registry (plus, optionally, telemetry and the
    self-profiler), installable as the process default.

    The bundle owns the :class:`~repro.obs.scope.RunScope` its recorders
    share: it numbers sims (pids) and I/Os and names each pid's device,
    once for all of them.
    """

    def __init__(
        self,
        *,
        tracing: bool = True,
        metrics: bool = True,
        telemetry: Union[bool, TelemetryConfig, None] = None,
        profile: Union[bool, ProfilerConfig, None] = None,
    ) -> None:
        self.scope = RunScope()
        self.tracer: Union[SpanTracer, NullTracer] = (
            SpanTracer(self.scope) if tracing else NULL_TRACER
        )
        self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        # Telemetry and the self-profiler (repro.obs.prof) are opt-in:
        # pass True for defaults, or a config object to tune them.
        # Layers call the tracer, registry and telemetry on hot paths,
        # so those fall back to null objects; the profiler is None when
        # off.  Blame (repro.obs.blame) is a view of the tracer's
        # finished I/Os, built after the run.
        self.telemetry: Union[Telemetry, NullTelemetry] = (
            Telemetry(_config_or_none(telemetry), self.scope)
            if telemetry
            else NULL_TELEMETRY
        )
        self.profiler: Optional[Profiler] = (
            Profiler(_config_or_none(profile), self.scope) if profile else None
        )

    @property
    def config(self) -> Dict[str, Any]:
        """This bundle's configuration as constructor keyword arguments.

        Every value pickles, so a sweep worker process rebuilds an empty
        twin with ``Observability(**obs.config)``, records into it, and
        ships it back to be absorbed.
        """
        return {
            "tracing": self.tracer.enabled,
            "metrics": self.registry.enabled,
            "telemetry": self.telemetry.config,
            "profile": self.profiler.config if self.profiler is not None else None,
        }

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled
            or self.registry.enabled
            or self.telemetry.enabled
            or self.profiler is not None
        )

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Called by each :class:`Simulator` binding itself to this bundle."""
        self.scope.new_sim()
        if self.profiler is not None:
            self.profiler.start_sim()

    def label_device(self, label: str) -> None:
        """Name the device the current sim runs against.

        Called by :class:`~repro.ssd.device.SsdDevice` construction with
        the registry/spec label its config resolved from, so traces,
        telemetry and blame say *which* device a pid measured.
        """
        self.scope.label_device(label)

    def absorb(self, other: "Observability") -> None:
        """Merge a worker bundle (spans, metrics, telemetry, profile).

        The sweep engine ships per-point bundles back from worker
        processes and absorbs them in point order.  The scope offsets
        the worker's pids and io ids past this bundle's and merges its
        device labels; each recorder then appends the worker's records
        at those offsets, so parallel traced runs produce the pids and
        io ids a serial run would.
        """
        base = self.scope.absorb(other.scope)
        if isinstance(self.tracer, SpanTracer) and isinstance(other.tracer, SpanTracer):
            self.tracer.absorb(other.tracer, base)
        if isinstance(self.registry, MetricsRegistry) and isinstance(
            other.registry, MetricsRegistry
        ):
            self.registry.absorb(other.registry)
        if isinstance(self.telemetry, Telemetry) and isinstance(other.telemetry, Telemetry):
            self.telemetry.absorb(other.telemetry, base)
        if self.profiler is not None and other.profiler is not None:
            self.profiler.absorb(other.profiler, base)

    # ------------------------------------------------------------------
    def install(self) -> "Observability":
        """Make this the bundle new simulators pick up."""
        _INSTALLED.append(self)
        return self

    def uninstall(self) -> None:
        _INSTALLED.remove(self)

    def __enter__(self) -> "Observability":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


class _NullObservability:
    """The zero-cost default bundle."""

    tracer = NULL_TRACER
    registry = NULL_REGISTRY
    telemetry = NULL_TELEMETRY
    profiler: Optional[Profiler] = None
    enabled = False

    def attach(self, sim: "Simulator") -> None:
        pass

    def label_device(self, label: str) -> None:
        pass


NULL_OBS = _NullObservability()

_INSTALLED: List[Observability] = []


def current_obs() -> Union[Observability, _NullObservability]:
    """The innermost installed bundle, or the no-op default."""
    return _INSTALLED[-1] if _INSTALLED else NULL_OBS


def _config_or_none(option: Any) -> Any:
    """A config object passed through; ``True`` becomes ``None`` (defaults)."""
    return None if option is True else option
