"""Tests for span tracing: phase marks, clamping, conservation, and
same-tick determinism."""

import pytest

from repro.api import open_device
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.obs import (
    NULL_OBS,
    Observability,
    SpanTracer,
    current_obs,
    verify_conservation,
)
from repro.sim.engine import Simulator
from repro.ssd.device import IoOp


def run_kernel_ios(
    completion=CompletionMethod.INTERRUPT, reads=30, writes=30, seed=42
):
    """A fig10-style QD1 sync run with tracing enabled; returns the obs."""
    obs = Observability()
    with obs:
        sim = Simulator()
        device = open_device(sim, "ull", precondition=0.5, device_seed=seed)
        stack = KernelStack(sim, device, completion=completion)

        def run():
            for index in range(reads):
                offset = (index * 37 % 2000) * 4096
                yield from stack.sync_io(IoOp.READ, offset, 4096)
            for index in range(writes):
                offset = (index * 53 % 2000) * 4096
                yield from stack.sync_io(IoOp.WRITE, offset, 4096)

        sim.process(run())
        sim.run()
    return obs


class TestIoTrace:
    def _trace(self):
        return SpanTracer().begin_io(IoOp.READ, 0, 4096, 1000)

    def test_phases_tile_lifetime(self):
        trace = self._trace()
        trace.phase("submit", 1000)
        trace.phase("ctrl", 1400)
        trace.phase("completion_isr", 2100)
        trace.finish(2500)
        spans = trace.phases()
        assert [s.name for s in spans] == ["submit", "ctrl", "completion_isr"]
        assert spans[0].start_ns == 1000 and spans[-1].end_ns == 2500
        assert sum(s.duration_ns for s in spans) == trace.latency_ns == 1500

    def test_backwards_mark_clamps(self):
        trace = self._trace()
        trace.phase("submit", 1000)
        trace.phase("ctrl", 2000)
        trace.phase("dma", 1500)  # out-of-order component: clamped to 2000
        trace.finish(3000)
        spans = trace.phases()
        assert spans[1].duration_ns == 0 or spans[1].end_ns == 2000
        assert sum(s.duration_ns for s in spans) == trace.latency_ns

    def test_future_marks_are_valid(self):
        # Analytic device paths book future timestamps; the host makes no
        # top-level marks in between, so conservation still holds.
        trace = self._trace()
        trace.phase("submit", 1000)
        trace.phase("flash_read", 5000)
        trace.phase("dma", 9000)
        trace.finish(12000)
        assert sum(s.duration_ns for s in trace.phases()) == 11000

    def test_double_finish_raises(self):
        trace = self._trace()
        trace.finish(2000)
        with pytest.raises(RuntimeError):
            trace.finish(3000)

    def test_relabel(self):
        trace = self._trace()
        trace.phase("write_buffer", 1200)
        trace.relabel("gc_stall")
        trace.finish(2000)
        assert trace.phases()[0].name == "gc_stall"

    def test_nested_spans_do_not_affect_conservation(self):
        trace = self._trace()
        trace.phase("ctrl", 1000)
        trace.annotate("map_fetch", 1100, 1400, lpn=7)
        trace.finish(2000)
        assert sum(s.duration_ns for s in trace.phases()) == 1000
        (nested,) = trace.nested()
        assert nested.depth == 1 and dict(nested.args)["lpn"] == 7


class TestConservation:
    @pytest.mark.parametrize(
        "method",
        [CompletionMethod.INTERRUPT, CompletionMethod.POLL, CompletionMethod.HYBRID],
    )
    def test_kernel_stack_per_io_exact(self, method):
        obs = run_kernel_ios(method)
        assert verify_conservation(obs.tracer) == 60

    def test_spdk_stack_per_io_exact(self):
        from repro.spdk.stack import SpdkStack

        obs = Observability()
        with obs:
            sim = Simulator()
            device = open_device(sim, "ull", precondition=0.5)
            stack = SpdkStack(sim, device)

            def run():
                for index in range(40):
                    yield from stack.sync_io(IoOp.READ, index * 4096, 4096)

            sim.process(run())
            sim.run()
        assert verify_conservation(obs.tracer) == 40


class TestDeterminism:
    def _span_stream(self, obs):
        return [
            (t.io_id, t.op, s.name, s.start_ns, s.end_ns)
            for t in obs.tracer.finished_ios
            for s in t.spans()
        ]

    def test_same_seed_identical_span_stream(self):
        # Same-tick events resolve by FIFO sequence numbers, so two
        # identical runs must yield byte-identical span streams.
        first = self._span_stream(run_kernel_ios(CompletionMethod.POLL))
        second = self._span_stream(run_kernel_ios(CompletionMethod.POLL))
        assert first == second

    def test_tracing_does_not_perturb_timing(self):
        def latencies(obs_enabled):
            ctx = Observability() if obs_enabled else NULL_OBS
            sim = Simulator(obs=ctx if obs_enabled else None)
            device = open_device(sim, "ull", precondition=0.5)
            stack = KernelStack(sim, device, completion=CompletionMethod.INTERRUPT)
            out = []

            def run():
                for index in range(30):
                    lat = yield from stack.sync_io(IoOp.READ, index * 4096, 4096)
                    out.append(lat)

            sim.process(run())
            sim.run()
            return out

        assert latencies(True) == latencies(False)


class TestNullPath:
    def test_default_sim_obs_is_null(self):
        sim = Simulator()
        assert sim.obs is NULL_OBS
        assert not sim.obs.tracer.enabled
        assert sim.obs.tracer.begin_io(IoOp.READ, 0, 4096, 0) is None

    def test_null_tracer_collects_nothing(self):
        sim = Simulator()
        device = open_device(sim, "ull", precondition=0.2)
        stack = KernelStack(sim, device)

        def run():
            yield from stack.sync_io(IoOp.READ, 0, 4096)

        sim.process(run())
        sim.run()
        assert len(sim.obs.tracer.finished_ios) == 0
        assert len(sim.obs.tracer.track_spans) == 0

    def test_install_stack_restores(self):
        assert current_obs() is NULL_OBS
        obs = Observability()
        with obs:
            assert current_obs() is obs
        assert current_obs() is NULL_OBS
