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

from repro.obs.blame import BlameConfig, BlameRecorder
from repro.obs.prof import NULL_PROFILER, NullProfiler, Profiler, ProfilerConfig
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, SpanTracer
from repro.obs.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry, TelemetryConfig

if TYPE_CHECKING:
    from repro.sim.engine import Simulator


class Observability:
    """A tracer plus a registry (plus, optionally, telemetry),
    installable as the process default."""

    def __init__(
        self,
        *,
        tracing: bool = True,
        metrics: bool = True,
        telemetry: Union[bool, TelemetryConfig, None] = None,
        profile: Union[bool, ProfilerConfig, None] = None,
        blame: Union[bool, BlameConfig, None] = None,
    ) -> None:
        self.tracer = SpanTracer() if tracing else NULL_TRACER
        self.registry = MetricsRegistry() if metrics else NULL_REGISTRY
        # Telemetry, the self-profiler (repro.obs.prof) and blame
        # attribution (repro.obs.blame) are opt-in: pass True for
        # defaults, or a config object to tune them.  Blame rides on the
        # tracer: wait edges live on trace contexts.
        self.telemetry: Union[Telemetry, NullTelemetry] = (
            Telemetry(_config_or_none(telemetry)) if telemetry else NULL_TELEMETRY
        )
        self.profiler: Union[Profiler, NullProfiler] = (
            Profiler(_config_or_none(profile)) if profile else NULL_PROFILER
        )
        self.blame: Optional[BlameRecorder] = (
            BlameRecorder(_config_or_none(blame)) if blame else None
        )
        if self.blame is not None:
            if not self.tracer.enabled:
                raise ValueError(
                    "blame attribution requires tracing "
                    "(wait edges ride on trace contexts)"
                )
            assert isinstance(self.tracer, SpanTracer)
            self.tracer.blame = self.blame

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
            "profile": self.profiler.config,
            "blame": self.blame.config if self.blame is not None else None,
        }

    @property
    def enabled(self) -> bool:
        return (
            self.tracer.enabled
            or self.registry.enabled
            or self.telemetry.enabled
            or self.profiler.enabled
            or self.blame is not None
        )

    # ------------------------------------------------------------------
    def attach(self, sim: "Simulator") -> None:
        """Called by each :class:`Simulator` binding itself to this bundle."""
        self.tracer.new_sim()
        self.telemetry.new_sim()
        self.profiler.new_sim()
        if self.blame is not None:
            self.blame.new_sim()

    def label_device(self, label: str) -> None:
        """Stamp the current sim's spans/series with a device name.

        Called by :class:`~repro.ssd.device.SsdDevice` construction with
        the registry/spec label its config resolved from, so traces and
        telemetry say *which* device a pid measured.
        """
        self.tracer.label_device(label)
        self.telemetry.label_device(label)
        if self.blame is not None:
            self.blame.label_device(label)

    def absorb(self, other: "Observability") -> None:
        """Merge a worker bundle (spans, metrics, telemetry) into this one.

        The sweep engine ships per-point bundles back from worker
        processes and absorbs them in point order, so parallel traced
        runs produce the same pids/io ids a serial run would.
        """
        io_base = getattr(self.tracer, "_next_io_id", 0)
        if self.tracer.enabled and getattr(other.tracer, "enabled", False):
            self.tracer.absorb(other.tracer)
        if self.registry.enabled and getattr(other.registry, "enabled", False):
            self.registry.absorb(other.registry)
        if self.telemetry.enabled and getattr(other.telemetry, "enabled", False):
            self.telemetry.absorb(other.telemetry)
        if self.profiler.enabled and getattr(other.profiler, "enabled", False):
            assert isinstance(self.profiler, Profiler)
            self.profiler.absorb(other.profiler)
        if self.blame is not None and getattr(other, "blame", None) is not None:
            assert other.blame is not None
            self.blame.absorb(other.blame, io_base=io_base)

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
    profiler = NULL_PROFILER
    blame: Optional[BlameRecorder] = None
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
