"""Differential tests for the block-drawn uniform stream.

``repro.sim.rng.UniformStream`` replaces scalar ``Generator.uniform`` /
``Generator.random`` calls on the device path.  It is only correct if
it yields bit-identical doubles to those scalar calls, across block
refills and with differently mapped draws interleaved, and if a stream
that is never drawn from stays untouched.
"""

import numpy as np
import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NandFaults, _derive_seed
from repro.flash.chip import FlashDie
from repro.sim.engine import Simulator
from repro.sim.rng import _BLOCK, UniformStream
from repro.ssd.registry import resolve_config

#: Enough draws for several block refills.
DRAWS = 5 * _BLOCK + 17


@pytest.mark.parametrize("seed", [0, 7, 131 * 42 + 31, 2**63 + 12345])
def test_stream_matches_scalar_draws_across_refills(seed):
    # Read and program jitters interleaved with bare random() draws, as
    # a die's reads and programs (and a controller's rolls) interleave.
    zssd = resolve_config("zssd").timing
    intel750 = resolve_config("intel750").timing
    jitters = [
        zssd.read_jitter, zssd.program_jitter,
        intel750.read_jitter, intel750.program_jitter,
    ]
    stream = UniformStream(seed)
    scalar = np.random.default_rng(seed)
    for draw in range(DRAWS):
        if draw % 5 == 4:
            assert stream.random() == scalar.random()
        else:
            jitter = jitters[draw % 5]
            assert stream.uniform(-jitter, jitter) == scalar.uniform(-jitter, jitter)


def _book(die, ops):
    """Book ``ops`` on ``die``; return every interval it booked."""
    sim = die.sim
    intervals = []
    for kind, gap in ops:
        sim.run(until=sim.now + gap)
        intervals.append(getattr(die, kind)(not_before=sim.now))
    return intervals


@pytest.mark.parametrize("device", ["zssd", "intel750"])
def test_die_books_the_same_intervals_as_a_scalar_drawing_die(device):
    timing = resolve_config(device).timing
    suspend = device == "zssd"
    rng = np.random.default_rng(11)
    kinds = rng.choice(
        ["read", "program", "erase"], size=DRAWS, p=[0.6, 0.35, 0.05]
    )
    gaps = rng.integers(0, timing.program_ns, size=DRAWS)
    ops = list(zip(kinds.tolist(), gaps.tolist()))
    seed = 42 * 131 + 3

    block = FlashDie(Simulator(), timing, allow_suspend=suspend, seed=seed)
    reference = FlashDie(Simulator(), timing, allow_suspend=suspend, seed=seed)
    reference._uniform = np.random.default_rng(seed).uniform
    assert _book(block, ops) == _book(reference, ops)
    assert block.suspends == reference.suspends
    if suspend:
        assert block.suspends > 0  # the suspend path was exercised


def test_zero_probability_fault_rolls_draw_nothing():
    injector = FaultInjector(spec=None, seed=99)
    for _ in range(3 * _BLOCK):
        assert injector.roll(0.0) is False
    # The stream is still at its first draw.
    assert injector.rng.random() == np.random.default_rng(99).random()


def test_zero_probability_stall_rolls_draw_nothing():
    from repro.ssd.controller import SsdController

    config = resolve_config("zssd")
    controller = SsdController(Simulator(), config, seed=5)
    for _ in range(3 * _BLOCK):
        assert controller._roll(0.0) is False
    assert controller._rng.random() == np.random.default_rng(5).random()


def test_fault_rolls_match_the_scalar_stream():
    plan = FaultPlan(seed=3, nand=NandFaults(read_fail_prob=0.5))
    reference = np.random.default_rng(_derive_seed(3, "nand", 0))
    injector = plan.injector("nand")
    rolls = [injector.roll(0.5) for _ in range(DRAWS)]
    assert rolls == [bool(reference.random() < 0.5) for _ in range(DRAWS)]
