"""Declarative fault plans: what can break, how often, and how it heals.

A :class:`FaultPlan` is a frozen, purely-declarative description of the
failures a run should experience — per-layer probabilities and recovery
costs, plus one seed that fully determines every injected event.  The
plan itself never draws randomness; layers ask it for a
:class:`~repro.faults.injector.FaultInjector` (a per-layer RNG stream
derived from ``seed`` with :mod:`hashlib`, so streams are stable across
processes and interpreter restarts) and roll against that.

Two delivery paths reach the layers:

* explicitly, as the ``faults=`` constructor argument threaded through
  :class:`~repro.api.Testbed` and the device/stack constructors;
* ambiently, via :func:`install`/:func:`active_plan` — the CLI and the
  sweep engine install a plan around figure execution, and runners pick
  it up when no explicit plan was given (worker processes re-install it
  so parallel runs see the same plan as serial ones).

Determinism contract: a plan with every layer inactive (the default)
must change **nothing** — no RNG stream is created, no extra event is
scheduled, and byte-identical results to a fault-free build are
guaranteed.  Fault streams are separate from the layers' existing RNGs
(device stalls, pattern generation), so enabling one layer's faults
never perturbs another layer's draws.
"""

from __future__ import annotations

import dataclasses
import hashlib
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.faults.injector import FaultInjector

__all__ = [
    "NandFaults",
    "NvmeFaults",
    "KstackFaults",
    "NetFaults",
    "FaultPlan",
    "active_plan",
    "install",
    "uninstall",
    "parse_fault_spec",
]


# ----------------------------------------------------------------------
# Per-layer fault specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NandFaults:
    """Flash-array failures the SSD controller must recover from.

    A failed page read is retried with tuned read-reference voltages
    (one extra array read plus ``ecc_retry_ns`` of soft-decode work per
    attempt, up to ``max_read_retries``, after which the heroic-recovery
    path is modeled as succeeding).  A failed program burns its full
    tPROG, retires the block to the bad-block list, and re-programs the
    data on a fresh block.
    """

    read_fail_prob: float = 0.0
    ecc_retry_ns: int = 40_000
    max_read_retries: int = 3
    program_fail_prob: float = 0.0

    @property
    def active(self) -> bool:
        return self.read_fail_prob > 0.0 or self.program_fail_prob > 0.0


@dataclass(frozen=True)
class NvmeFaults:
    """Lost completions at the NVMe transport.

    With probability ``timeout_prob`` a fetched command's completion is
    dropped; the host's command timer expires ``timeout_ns`` later, the
    command is aborted and re-delivered.  The ``reset_after``-th timeout
    of the same command escalates to a controller reset costing
    ``reset_ns`` before the retry.  After ``max_retries`` timeouts the
    re-delivery is forced through (commands never fail permanently —
    the simulator has no error-return plumbing, only latency).
    """

    timeout_prob: float = 0.0
    timeout_ns: int = 2_000_000
    max_retries: int = 3
    reset_after: int = 2
    reset_ns: int = 5_000_000

    @property
    def active(self) -> bool:
        return self.timeout_prob > 0.0


@dataclass(frozen=True)
class KstackFaults:
    """blk-mq dispatch pressure: ``BLK_STS_RESOURCE`` requeues.

    Each dispatch attempt fails with ``requeue_prob``; the request is
    requeued with exponential backoff (``backoff_base_ns * 2^attempt``,
    capped at ``backoff_max_ns``) up to ``max_requeues`` times, after
    which dispatch is forced through.
    """

    requeue_prob: float = 0.0
    backoff_base_ns: int = 100_000
    backoff_max_ns: int = 1_600_000
    max_requeues: int = 6

    @property
    def active(self) -> bool:
        return self.requeue_prob > 0.0


@dataclass(frozen=True)
class NetFaults:
    """NBD link failures: periodic flaps and per-message drops.

    ``flap_interval_ns > 0`` takes the link down for ``outage_ns``
    starting at every multiple of the interval; transfers arriving
    during an outage wait for the link to return plus ``reconnect_ns``
    of NBD session re-establishment, then resend.  Independently, each
    message is dropped with ``drop_prob`` and resent after a
    ``retransmit_timeout_ns`` detection delay (at most ``max_resends``
    times).
    """

    flap_interval_ns: int = 0
    outage_ns: int = 200_000
    reconnect_ns: int = 50_000
    drop_prob: float = 0.0
    retransmit_timeout_ns: int = 100_000
    max_resends: int = 3

    @property
    def active(self) -> bool:
        return self.flap_interval_ns > 0 or self.drop_prob > 0.0


_LAYERS = ("nand", "nvme", "kstack", "net")
_LAYER_TYPES = {
    "nand": NandFaults,
    "nvme": NvmeFaults,
    "kstack": KstackFaults,
    "net": NetFaults,
}


def _derive_seed(seed: int, layer: str, index: int) -> int:
    """A per-layer-instance RNG seed, stable across processes.

    Python's builtin ``hash`` is salted per interpreter, so the stream
    identity goes through sha256 instead.
    """
    blob = f"repro.faults:{seed}:{layer}:{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")


# ----------------------------------------------------------------------
# The plan
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative schedule of faults for one run."""

    seed: int = 0
    nand: NandFaults = field(default_factory=NandFaults)
    nvme: NvmeFaults = field(default_factory=NvmeFaults)
    kstack: KstackFaults = field(default_factory=KstackFaults)
    net: NetFaults = field(default_factory=NetFaults)

    @property
    def any_enabled(self) -> bool:
        return any(getattr(self, layer).active for layer in _LAYERS)

    # ------------------------------------------------------------------
    def injector(self, layer: str, index: int = 0) -> Optional[FaultInjector]:
        """The seeded injector for one layer instance, or ``None`` when
        that layer's faults are inactive (callers skip all fault code).

        ``index`` separates the streams of sibling instances (multiple
        NVMe queue pairs, multiple links) so their draws never alias.
        """
        spec = getattr(self, layer)
        if not spec.active:
            return None
        return FaultInjector(spec, _derive_seed(self.seed, layer, index))

    # ------------------------------------------------------------------
    # Canonical-params round trip (sweep grids, cache keys, workers)
    # ------------------------------------------------------------------
    def to_params(self) -> Tuple[Tuple[str, Any], ...]:
        """The plan as sorted nested tuples — the sweep engine's
        canonical parameter form, usable directly as a point param."""
        sections: List[Tuple[str, Any]] = [("seed", self.seed)]
        for layer in _LAYERS:
            spec = getattr(self, layer)
            sections.append(
                (
                    layer,
                    tuple(
                        sorted(
                            (f.name, getattr(spec, f.name))
                            for f in dataclasses.fields(spec)
                        )
                    ),
                )
            )
        return tuple(sorted(sections))

    @classmethod
    def from_params(cls, params: Tuple[Tuple[str, Any], ...]) -> "FaultPlan":
        """Inverse of :meth:`to_params` (unknown fields raise)."""
        table = dict(params)
        kwargs: Dict[str, Any] = {"seed": int(table.pop("seed", 0))}
        for layer, items in table.items():
            kwargs[layer] = _LAYER_TYPES[layer](**dict(items))
        return cls(**kwargs)

    # ------------------------------------------------------------------
    # Ambient installation
    # ------------------------------------------------------------------
    def install(self) -> "FaultPlan":
        _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        if _ACTIVE and _ACTIVE[-1] is self:
            _ACTIVE.pop()
            return
        with suppress(ValueError):
            _ACTIVE.remove(self)

    @contextmanager
    def installed(self) -> Iterator["FaultPlan"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


#: Stack of ambiently installed plans (last wins), mirroring
#: ``repro.obs.core``'s bundle stack.
_ACTIVE: List[FaultPlan] = []


def active_plan() -> Optional[FaultPlan]:
    """The innermost installed plan with any layer enabled, else None."""
    for plan in reversed(_ACTIVE):
        if plan.any_enabled:
            return plan
    return None


def install(plan: FaultPlan) -> FaultPlan:
    return plan.install()


def uninstall(plan: FaultPlan) -> None:
    plan.uninstall()


# ----------------------------------------------------------------------
# CLI spec parsing
# ----------------------------------------------------------------------
def parse_fault_spec(items: Iterable[object], *, seed: int = 0) -> FaultPlan:
    """Build a plan from ``layer.field=value`` strings.

    Accepts an iterable of specs, each optionally comma-separated, e.g.
    ``["nand.read_fail_prob=0.01", "nvme.timeout_prob=1e-3,nvme.timeout_ns=2000000"]``.
    Values are cast to the field's declared type (int fields accept
    ``250_000``-style underscores; float fields accept scientific
    notation).  A ``*_prob`` must lie in [0, 1] and an int field must
    be >= 0; any bad item raises ``ValueError`` naming it.
    """
    overrides: Dict[str, Dict[str, Any]] = {}
    for item in items:
        for part in str(item).split(","):
            part = part.strip()
            if not part:
                continue
            try:
                dotted, raw = part.split("=", 1)
                layer, name = dotted.strip().split(".", 1)
            except ValueError:
                raise ValueError(
                    f"fault spec {part!r} is not of the form layer.field=value"
                ) from None
            layer = layer.strip()
            name = name.strip()
            if layer not in _LAYER_TYPES:
                raise ValueError(
                    f"unknown fault layer {layer!r} (expected one of {_LAYERS})"
                )
            spec_fields = {f.name: f for f in dataclasses.fields(_LAYER_TYPES[layer])}
            if name not in spec_fields:
                known = ", ".join(sorted(spec_fields))
                raise ValueError(
                    f"unknown fault field {layer}.{name} (known: {known})"
                )
            # Every int field is a count or a duration; every float
            # field is a ``*_prob``.
            is_int = spec_fields[name].type in ("int", int)
            try:
                value: Any = (
                    int(raw.strip().replace("_", ""), 0)
                    if is_int
                    else float(raw.strip())
                )
            except ValueError:
                value = None
            if value is None or not (value >= 0 if is_int else 0.0 <= value <= 1.0):
                expected = "an integer >= 0" if is_int else "a probability in [0, 1]"
                raise ValueError(
                    f"fault field {layer}.{name} expects {expected}, got {raw!r}"
                )
            overrides.setdefault(layer, {})[name] = value
    kwargs: Dict[str, Any] = {"seed": seed}
    for layer, fields in overrides.items():
        kwargs[layer] = _LAYER_TYPES[layer](**fields)
    return FaultPlan(**kwargs)
