"""Tests for the SPDK stack: hugepages, uio binding, and the fast path."""

import pytest

from repro.host.accounting import ExecMode
from repro.kstack import CompletionMethod, KernelStack
from repro.sim import Simulator
from repro.spdk import DriverBinding, HugePageAllocator, SpdkStack, UioBinding
from repro.spdk.hugepage import HUGEPAGE_BYTES
from repro.ssd import SsdDevice
from repro.ssd.device import IoOp
from tests.test_ssd_device import tiny_config


class TestHugePages:
    def test_pool_size(self):
        allocator = HugePageAllocator(n_pages=4)
        assert allocator.pool_bytes == 4 * HUGEPAGE_BYTES

    def test_allocations_are_aligned_and_disjoint(self):
        allocator = HugePageAllocator(4)
        first = allocator.allocate(5000, "a")
        second = allocator.allocate(100, "b")
        assert first.nbytes == 8192  # rounded to 4 KiB
        assert second.base_addr >= first.end_addr

    def test_exhaustion(self):
        allocator = HugePageAllocator(1)
        allocator.allocate(HUGEPAGE_BYTES, "big")
        with pytest.raises(MemoryError):
            allocator.allocate(4096, "more")

    def test_map_bar(self):
        allocator = HugePageAllocator(1)
        region = allocator.map_bar(16 * 1024)
        assert region.purpose == "pcie-bar"

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            HugePageAllocator(0)
        with pytest.raises(ValueError):
            HugePageAllocator(1).allocate(0, "x")


class TestUioBinding:
    def test_starts_bound_to_kernel(self):
        binding = UioBinding()
        assert binding.binding is DriverBinding.KERNEL_NVME
        assert binding.transitions == 0

    def test_unbind_then_bind_uio(self):
        binding = UioBinding()
        binding.unbind()
        binding.bind_uio()
        assert binding.binding is DriverBinding.UIO
        assert binding.transitions == 2

    def test_direct_rebind_rejected(self):
        binding = UioBinding()
        with pytest.raises(RuntimeError):
            binding.bind_uio()  # must unbind first

    def test_double_unbind_rejected(self):
        binding = UioBinding()
        binding.unbind()
        with pytest.raises(RuntimeError):
            binding.unbind()


def make_spdk():
    sim = Simulator()
    device = SsdDevice(sim, tiny_config())
    device.precondition(1.0)
    return sim, SpdkStack(sim, device)


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


class TestSpdkStack:
    def test_setup_binds_uio_and_maps_bars(self):
        _, stack = make_spdk()
        assert stack.binding.binding is DriverBinding.UIO
        assert stack.bar_region.purpose == "pcie-bar"
        assert not stack.qpair.interrupts_enabled

    def test_everything_runs_in_user_mode(self):
        sim, stack = make_spdk()
        run_ios(sim, stack, count=20)
        assert stack.accounting.busy_ns(ExecMode.KERNEL) == 0
        assert stack.accounting.busy_ns(ExecMode.USER) > 0

    def test_cpu_utilization_is_total(self):
        sim, stack = make_spdk()
        start = sim.now
        run_ios(sim, stack, count=30)
        utilization = stack.accounting.utilization(sim.now - start)
        assert utilization > 0.98

    def test_spdk_beats_kernel_interrupt_latency(self):
        sim_spdk, spdk = make_spdk()
        mean_spdk = sum(run_ios(sim_spdk, spdk)) / 30
        sim_k = Simulator()
        device = SsdDevice(sim_k, tiny_config())
        device.precondition(1.0)
        kernel = KernelStack(sim_k, device, completion=CompletionMethod.INTERRUPT)
        latencies = []

        def flow():
            for index in range(30):
                latency = yield from kernel.sync_io(IoOp.READ, index * 4096, 4096)
                latencies.append(latency)

        process = sim_k.process(flow())
        sim_k.run_until_event(process)
        mean_kernel = sum(latencies) / 30
        assert mean_spdk < mean_kernel
        # Kernel bypass saves the syscall + stack + interrupt overhead.
        assert 2_000 < mean_kernel - mean_spdk < 7_000

    def test_memory_traffic_attributed_to_spdk_functions(self):
        sim, stack = make_spdk()
        run_ios(sim, stack, count=20)
        loads = stack.accounting.loads_by_function()
        assert loads["spdk_nvme_qpair_process_completions"] > 0
        assert loads["nvme_pcie_qpair_process_completions"] > 0
        assert loads["nvme_qpair_check_enabled"] > 0

    def test_check_enabled_charged_on_every_submission(self):
        sim, stack = make_spdk()
        run_ios(sim, stack, count=10)
        profiles = {
            p.function: p for p in stack.accounting.profiles()
        }
        check = profiles["nvme_qpair_check_enabled"]
        # At least one charge per submission plus per spin iteration.
        assert check.loads >= 10 * stack.costs.spdk_check_enabled_iter.loads

    def test_async_submission(self):
        sim, stack = make_spdk()
        pending = stack.submit_async(IoOp.READ, 0, 4096)
        sim.run_until_event(pending.cqe_event)
        assert pending.cqe_ns is not None
