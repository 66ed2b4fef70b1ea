"""Seeded uniform-double streams served from block draws.

A scalar ``Generator.uniform`` or ``Generator.random`` call costs
microseconds, almost all of it call overhead; the device path makes
hundreds of thousands of them per sweep (flash jitter, controller
stalls, fault rolls).  :class:`UniformStream` draws the same doubles in
blocks with ``Generator.random(n)`` and hands them out one by one.

``random(n)`` consumes the bit generator exactly as ``n`` scalar
``random()`` calls do, and :meth:`UniformStream.uniform` maps each
double as numpy's scalar path does (``low + (high - low) * u``), so a
stream yields bit-identical values to the scalar calls it replaces.
That holds only while *every* draw on the generator is a uniform
double: an ``integers`` draw in between would read the bit generator
at a different position than the scalar code did.  Streams that mix
draw kinds keep their scalar ``Generator`` (docs/sim-engine.md).
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

#: Doubles per block draw.  Past ~100 the per-double cost is flat
#: (~30 ns, mostly ``tolist``'s float boxing), while a larger block only
#: adds memory: a boxed block costs 32 bytes per double, and a device
#: holds a stream per die.
_BLOCK = 128


class UniformStream:
    """Uniform doubles in ``[0, 1)`` from ``np.random.default_rng(seed)``.

    The generator itself is created on the first draw, so a stream that
    is never drawn from costs nothing beyond this object.
    """

    __slots__ = ("_seed", "_rng", "_draws")

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng: Optional[np.random.Generator] = None
        self._draws: Iterator[float] = iter(())

    def random(self) -> float:
        """The next double, as ``Generator.random()`` would return it."""
        try:
            return next(self._draws)
        except StopIteration:
            return self._refill()

    def uniform(self, low: float, high: float) -> float:
        """The next double mapped to ``[low, high)``, as
        ``Generator.uniform(low, high)`` would return it."""
        return low + (high - low) * self.random()

    def _refill(self) -> float:
        rng = self._rng
        if rng is None:
            rng = self._rng = np.random.default_rng(self._seed)
        self._draws = iter(rng.random(_BLOCK).tolist())
        return next(self._draws)
