"""The per-layer fault RNG stream.

One :class:`FaultInjector` wraps one layer's spec plus a dedicated
seeded uniform stream (:class:`repro.sim.rng.UniformStream`; see
:func:`repro.faults.plan.FaultPlan.injector`).  Layers hold the
injector they were given and call :meth:`roll` at each potential fault
site; because the stream is separate from every other RNG in the
simulator, the *sequence of fault sites visited* fully determines the
injected schedule — identical runs produce identical faults, and a
disabled layer (injector ``None``) draws nothing at all.
"""

from __future__ import annotations

from typing import Any

from repro.sim.rng import UniformStream


class FaultInjector:
    """A layer's fault spec bound to its seeded random stream."""

    __slots__ = ("spec", "rng")

    def __init__(self, spec: Any, seed: int) -> None:
        #: The layer's spec dataclass (NandFaults, NvmeFaults, ...);
        #: typed loosely because each layer reads its own fields.
        self.spec: Any = spec
        #: Bernoulli rolls are the stream's only draw kind, so it is
        #: block-drawn; a layer that never rolls never seeds it.
        self.rng = UniformStream(seed)

    def roll(self, prob: float) -> bool:
        """One Bernoulli draw from this layer's stream."""
        if prob <= 0.0:
            return False
        return self.rng.random() < prob
