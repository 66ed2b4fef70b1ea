"""Differential harness for the closed-form power meter.

:class:`repro.ssd.power.PowerMeter` records ``(kind, start, end)``
intervals and integrates power when read.  It claims outputs *bit-equal*
to the event-driven meter it replaced, which scheduled one simulator
event per transition and integrated as the events were dispatched.
That meter is kept here as :class:`EventDrivenMeter`, the oracle.

Scripts interleave ``observe_op`` / ``observe_transfer`` calls — from
outside the engine and from inside its callbacks — with clock advances
and reads.  Reads are taken after ``run(until=...)``, where the oracle
has dispatched every transition due by ``sim.now``: that is the instant
at which "as dispatched" and "as of ``sim.now``" mean the same thing.
``series.times``, ``series.values`` and ``average_watts`` must match
with ``==``, never ``approx``.
"""

import random
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.flash.chip import OpKind
from repro.sim import Simulator
from repro.ssd import power
from repro.ssd.power import PowerMeter, PowerParams


class EventDrivenMeter:
    """The pre-fold meter: two sim events per interval.

    ``instantaneous_watts`` spells the sum out left to right, read →
    program → erase: the old code used ``sum()``, which is that order on
    Python <= 3.11 but compensated summation from 3.12 on.
    """

    def __init__(self, sim, params, *, dies_per_op=1):
        self.sim = sim
        self.params = params
        self.dies_per_op = dies_per_op
        self.active = {OpKind.READ: 0, OpKind.PROGRAM: 0, OpKind.ERASE: 0}
        self.transfers = 0
        self.last_t = 0
        self.last_w = params.idle_w
        self.energy = 0.0
        self.times = []
        self.values = []

    def observe_op(self, kind, start, end):
        if end <= start:
            return
        self.sim.schedule_at(max(start, self.sim.now), self._change, kind, 1)
        self.sim.schedule_at(max(end, self.sim.now), self._change, kind, -1)

    def observe_transfer(self, start, end):
        if end <= start:
            return
        self.sim.schedule_at(max(start, self.sim.now), self._change, None, 1)
        self.sim.schedule_at(max(end, self.sim.now), self._change, None, -1)

    def _change(self, kind, step):
        if kind is None:
            self.transfers += step
            assert self.transfers >= 0
        else:
            self.active[kind] += step
            assert self.active[kind] >= 0
        now = self.sim.now
        self.energy += self.last_w * (now - self.last_t)
        self.last_t = now
        self.last_w = self.instantaneous_watts()
        self.times.append(now)
        self.values.append(self.last_w)

    def instantaneous_watts(self):
        params = self.params
        dynamic = 0
        for kind, per_op in (
            (OpKind.READ, params.read_op_w),
            (OpKind.PROGRAM, params.program_op_w),
            (OpKind.ERASE, params.erase_op_w),
        ):
            dynamic = dynamic + self.active[kind] * per_op * self.dies_per_op
        dynamic += self.transfers * params.transfer_w
        return params.idle_w + dynamic

    def average_watts(self, until_ns):
        if until_ns <= 0:
            return self.last_w
        total = self.energy + self.last_w * max(0, until_ns - self.last_t)
        return total / until_ns


PARAMS = (
    PowerParams(),
    PowerParams(idle_w=3.7, read_op_w=0.013, program_op_w=0.11,
                erase_op_w=0.3, transfer_w=0.07),
)


class Pair:
    """The meter under test and the oracle, each on its own simulator."""

    def __init__(self, params, dies_per_op):
        self.sims = (Simulator(), Simulator())
        self.meter = PowerMeter(self.sims[0], params, dies_per_op=dies_per_op)
        self.oracle = EventDrivenMeter(
            self.sims[1], params, dies_per_op=dies_per_op
        )

    @property
    def now(self):
        return self.sims[0].now

    def observe(self, kind, offset, length, delay):
        """Observe ``[now + offset, now + offset + length)``, measured
        from the clock at call time; ``delay`` > 0 makes the call from a
        callback that many ns ahead, as a device observer would."""
        for sim, meter in zip(self.sims, (self.meter, self.oracle)):
            def call(sim=sim, meter=meter):
                start = sim.now + offset
                if kind is None:
                    meter.observe_transfer(start, start + length)
                else:
                    meter.observe_op(kind, start, start + length)

            if delay:
                sim.schedule(delay, call)
            else:
                call()

    def run(self, until):
        for sim in self.sims:
            sim.run(until=until)

    def check(self):
        """Run both clocks to ``now`` and compare every read, bit for bit."""
        self.run(self.now)
        assert self.sims[0].now == self.sims[1].now
        series = self.meter.series
        expected_t = np.asarray(self.oracle.times, dtype=np.int64)
        expected_w = np.asarray(self.oracle.values, dtype=np.float64)
        assert series.times.tolist() == expected_t.tolist()
        assert series.values.tobytes() == expected_w.tobytes()
        assert series.values.tolist() == expected_w.tolist()
        for until in (0, self.now, self.now + 1, self.now + 977):
            assert self.meter.average_watts(until) == self.oracle.average_watts(until)
        assert self.meter.instantaneous_watts() == self.oracle.instantaneous_watts()


KINDS = (OpKind.READ, OpKind.PROGRAM, OpKind.ERASE, None)

action = st.one_of(
    st.tuples(
        st.just("observe"),
        st.sampled_from(KINDS),
        st.integers(min_value=-60, max_value=60),  # start offset; < 0 clamps
        st.integers(min_value=-3, max_value=80),  # length; <= 0 is ignored
        st.sampled_from((0, 0, 0, 1, 7)),  # call delay
    ),
    st.tuples(st.just("advance"), st.sampled_from((0, 0, 1, 2, 5, 13, 40))),
    st.tuples(st.just("read")),
)


def play(script, params, dies_per_op):
    pair = Pair(params, dies_per_op)
    horizon = 0
    for step in script:
        if step[0] == "observe":
            _, kind, offset, length, delay = step
            pair.observe(kind, offset, length, delay)
            horizon = max(horizon, pair.now + delay + offset + length + 60)
        elif step[0] == "advance":
            pair.run(pair.now + step[1])
        else:
            pair.check()
    # Mid-way through whatever is still booked, then past all of it.
    pair.run(pair.now + max(0, horizon - pair.now) // 2)
    pair.check()
    pair.run(max(horizon, pair.now))
    pair.check()


class TestAgainstEventDrivenMeter:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(action, max_size=80),
        st.sampled_from(PARAMS),
        st.sampled_from((1, 2)),
    )
    def test_property_bit_equal_to_oracle(self, script, params, dies_per_op):
        play(script, params, dies_per_op)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(action, max_size=80),
        st.sampled_from(PARAMS),
        st.sampled_from((1, 2)),
        st.integers(min_value=1, max_value=6),
    )
    def test_property_bit_equal_with_tiny_fold_chunks(
        self, script, params, dies_per_op, chunk
    ):
        """Folds triggered from the recording path, many times a run."""
        with mock.patch.object(power, "_FOLD_CHUNK", chunk):
            play(script, params, dies_per_op)

    def test_more_transitions_than_one_fold_chunk(self):
        rng = random.Random(13)
        pair = Pair(PARAMS[0], 2)
        intervals = 3 * power._FOLD_CHUNK // 2 + 101
        for index in range(intervals):
            kind = KINDS[rng.randrange(len(KINDS))]
            pair.observe(
                kind, rng.randint(-20, 200), rng.randint(0, 400), rng.choice((0, 0, 3))
            )
            if rng.random() < 0.3:
                pair.run(pair.now + rng.randint(0, 9))
            if index % 10_000 == 0:  # reads rarer than size-triggered folds
                pair.check()
        pair.run(pair.now + 1000)
        pair.check()
        assert len(pair.meter.series) > 2 * power._FOLD_CHUNK
        assert pair.sims[0].pending_count == 0

