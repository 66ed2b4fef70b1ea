"""Tests for the three completion engines and the kernel stack facade."""


from repro.host.accounting import ExecMode
from repro.kstack import CompletionMethod, KernelStack, make_engine
from repro.kstack.completion import HybridPollEngine, InterruptEngine, PollEngine
from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.ssd.device import IoOp
from tests.test_ssd_device import tiny_config


def make_stack(method: CompletionMethod, **config_overrides):
    sim = Simulator()
    device = SsdDevice(sim, tiny_config(**config_overrides))
    device.precondition(1.0)
    return sim, KernelStack(sim, device, completion=method)


def run_ios(sim, stack, count=30, op=IoOp.READ):
    latencies = []

    def flow():
        for index in range(count):
            latency = yield from stack.sync_io(op, (index % 64) * 4096, 4096)
            latencies.append(latency)

    process = sim.process(flow())
    sim.run_until_event(process)
    assert process.triggered
    return latencies


class TestEngineFactory:
    def test_factory_builds_each_method(self):
        sim = Simulator()
        from repro.host.accounting import CpuAccounting
        from repro.host.costs import DEFAULT_COSTS

        for method, cls in (
            (CompletionMethod.INTERRUPT, InterruptEngine),
            (CompletionMethod.POLL, PollEngine),
            (CompletionMethod.HYBRID, HybridPollEngine),
        ):
            engine = make_engine(method, sim, DEFAULT_COSTS, CpuAccounting())
            assert isinstance(engine, cls)
            assert engine.method is method


class TestRelativeBehavior:
    def test_poll_is_faster_than_interrupt_on_fast_device(self):
        sim_int, stack_int = make_stack(CompletionMethod.INTERRUPT)
        mean_int = sum(run_ios(sim_int, stack_int)) / 30
        sim_poll, stack_poll = make_stack(CompletionMethod.POLL)
        mean_poll = sum(run_ios(sim_poll, stack_poll)) / 30
        assert mean_poll < mean_int
        # The saving is the MSI + ISR + wake-up path: ~1.5-3 us.
        assert 1_000 < mean_int - mean_poll < 4_000

    def test_hybrid_lands_between_interrupt_and_poll(self):
        means = {}
        for method in CompletionMethod:
            sim, stack = make_stack(method)
            means[method] = sum(run_ios(sim, stack, count=60)) / 60
        assert means[CompletionMethod.POLL] <= means[CompletionMethod.HYBRID]
        assert means[CompletionMethod.HYBRID] < means[CompletionMethod.INTERRUPT]

    def test_poll_burns_the_core_interrupt_does_not(self):
        utilizations = {}
        for method in (CompletionMethod.INTERRUPT, CompletionMethod.POLL):
            sim, stack = make_stack(method)
            start = sim.now
            run_ios(sim, stack, count=40)
            elapsed = sim.now - start
            utilizations[method] = stack.accounting.utilization(elapsed)
        assert utilizations[CompletionMethod.POLL] > 0.85
        assert utilizations[CompletionMethod.INTERRUPT] < 0.5

    def test_hybrid_sleep_halves_the_spin(self):
        sim, stack = make_stack(CompletionMethod.HYBRID)
        start = sim.now
        run_ios(sim, stack, count=60)
        elapsed = sim.now - start
        utilization = stack.accounting.utilization(elapsed)
        assert 0.30 < utilization < 0.75

    def test_poll_charges_blk_mq_poll_and_nvme_poll(self):
        sim, stack = make_stack(CompletionMethod.POLL)
        run_ios(sim, stack, count=20)
        functions = stack.accounting.cycles_by_function(ExecMode.KERNEL)
        assert functions["blk_mq_poll"] > functions["nvme_poll"] > 0

    def test_interrupt_charges_isr(self):
        sim, stack = make_stack(CompletionMethod.INTERRUPT)
        run_ios(sim, stack, count=10)
        functions = stack.accounting.cycles_by_function(ExecMode.KERNEL)
        assert functions["nvme_irq"] > 0
        assert "blk_mq_poll" not in functions

    def test_poll_issues_more_memory_instructions(self):
        sim_int, stack_int = make_stack(CompletionMethod.INTERRUPT)
        run_ios(sim_int, stack_int, count=30)
        sim_poll, stack_poll = make_stack(CompletionMethod.POLL)
        run_ios(sim_poll, stack_poll, count=30)
        ratio = (
            stack_poll.accounting.total_loads()
            / stack_int.accounting.total_loads()
        )
        assert 1.5 < ratio < 5.0


class TestHybridEstimator:
    def test_mean_wait_tracks_observations(self):
        sim, stack = make_stack(CompletionMethod.HYBRID)
        run_ios(sim, stack, count=40)
        engine = stack.engine
        assert isinstance(engine, HybridPollEngine)
        # Device wait for 4KB reads on the tiny device is ~5-8 us.
        assert 3_000 < engine.mean_wait_ns < 12_000

    def test_first_io_has_no_sleep_estimate(self):
        sim, stack = make_stack(CompletionMethod.HYBRID)
        engine = stack.engine
        assert engine.mean_wait_ns is None
        run_ios(sim, stack, count=1)
        assert engine.mean_wait_ns is not None


class TestPollTailPenalty:
    def test_long_device_stalls_hurt_poll_more(self):
        """The Fig. 11 mechanism: spins beyond the scheduler grace pay a
        proportional penalty, so stalled requests complete later under
        polling than under interrupts."""
        overrides = dict(read_stall_prob=0.2, read_stall_ns=400_000)
        sim_int, stack_int = make_stack(CompletionMethod.INTERRUPT, **overrides)
        tail_int = max(run_ios(sim_int, stack_int, count=60))
        sim_poll, stack_poll = make_stack(CompletionMethod.POLL, **overrides)
        tail_poll = max(run_ios(sim_poll, stack_poll, count=60))
        assert tail_poll > tail_int

    def test_short_waits_pay_no_penalty(self):
        sim, stack = make_stack(CompletionMethod.POLL)
        run_ios(sim, stack, count=20)
        functions = stack.accounting.cycles_by_function(ExecMode.KERNEL)
        assert "deferred_kernel_work" not in functions


class TestStackFacade:
    def test_hipri_set_only_for_polling(self):
        _, stack_int = make_stack(CompletionMethod.INTERRUPT)
        _, stack_poll = make_stack(CompletionMethod.POLL)
        assert not stack_int.hipri
        assert stack_poll.hipri

    def test_interrupts_disabled_on_polled_qpair(self):
        _, stack_poll = make_stack(CompletionMethod.POLL)
        _, stack_int = make_stack(CompletionMethod.INTERRUPT)
        assert not stack_poll.qpair.interrupts_enabled
        assert stack_int.qpair.interrupts_enabled

    def test_sync_io_returns_wall_latency(self):
        sim, stack = make_stack(CompletionMethod.INTERRUPT)
        latencies = run_ios(sim, stack, count=5)
        assert all(5_000 < lat < 60_000 for lat in latencies)

    def test_async_submit_and_complete(self):
        sim, stack = make_stack(CompletionMethod.INTERRUPT)

        def flow():
            request = yield from stack.submit_async(IoOp.READ, 0, 4096)
            yield request.cqe_event
            delay = stack.async_completion_ns()
            yield sim.sleep(delay)
            stack.complete_async(request)
            return True

        process = sim.process(flow())
        sim.run_until_event(process)
        assert process.value is True
        assert stack.driver.outstanding == 0
