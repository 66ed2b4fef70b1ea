"""Tests for CPU cycle / instruction accounting and the cost table."""

import dataclasses
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import JobConfig, Testbed
from repro.host import CpuAccounting, ExecMode, SoftwareCosts, StepCost
from repro.host.accounting import FunctionProfile
from repro.host.costs import DEFAULT_COSTS
from repro.sim.engine import Simulator
from repro.workloads.runner import run_job


class TestCharging:
    def test_charge_returns_duration(self):
        accounting = CpuAccounting()
        assert accounting.charge(500, ExecMode.KERNEL, "vfs", "syscall") == 500

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CpuAccounting().charge(-1, ExecMode.USER, "fio", "x")

    def test_busy_by_mode(self):
        accounting = CpuAccounting()
        accounting.charge(300, ExecMode.USER, "fio", "rw")
        accounting.charge(700, ExecMode.KERNEL, "vfs", "syscall")
        assert accounting.busy_ns() == 1000
        assert accounting.busy_ns(ExecMode.USER) == 300
        assert accounting.busy_ns(ExecMode.KERNEL) == 700

    def test_utilization(self):
        accounting = CpuAccounting()
        accounting.charge(250, ExecMode.KERNEL, "vfs", "syscall")
        assert accounting.utilization(1000) == 0.25
        assert accounting.utilization(1000, ExecMode.USER) == 0.0
        assert accounting.utilization(0) == 0.0

    def test_utilization_caps_at_one(self):
        accounting = CpuAccounting()
        accounting.charge(5000, ExecMode.KERNEL, "vfs", "syscall")
        assert accounting.utilization(1000) == 1.0


class TestBreakdowns:
    def make_populated(self):
        accounting = CpuAccounting()
        accounting.charge(600, ExecMode.KERNEL, "blk-mq", "blk_mq_poll", loads=60, stores=20)
        accounting.charge(200, ExecMode.KERNEL, "nvme-driver", "nvme_poll", loads=30, stores=10)
        accounting.charge(200, ExecMode.KERNEL, "vfs", "syscall", loads=10, stores=10)
        accounting.charge(100, ExecMode.USER, "fio", "fio_rw", loads=5, stores=5)
        return accounting

    def test_cycles_by_module(self):
        by_module = self.make_populated().cycles_by_module(ExecMode.KERNEL)
        assert by_module == {"blk-mq": 600, "nvme-driver": 200, "vfs": 200}

    def test_cycle_share_by_function(self):
        shares = self.make_populated().cycle_share_by_function(ExecMode.KERNEL)
        assert shares["blk_mq_poll"] == pytest.approx(0.6)
        assert shares["nvme_poll"] == pytest.approx(0.2)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_instruction_totals(self):
        accounting = self.make_populated()
        assert accounting.total_loads() == 105
        assert accounting.total_stores() == 45

    def test_load_share_by_function(self):
        shares = self.make_populated().load_share_by_function()
        assert shares["blk_mq_poll"] == pytest.approx(60 / 105)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_empty_shares(self):
        assert CpuAccounting().cycle_share_by_function() == {}
        assert CpuAccounting().load_share_by_function() == {}

    def test_profiles_sorted_by_cycles(self):
        profiles = self.make_populated().profiles()
        assert profiles[0].function == "blk_mq_poll"
        assert profiles[0].loads == 60


class ThreeDictAccounting:
    """The accounting before its one-cell collapse: three dicts keyed by
    ``(mode, module, function)``.  Kept as the oracle for every view."""

    def __init__(self):
        self._cycles = defaultdict(int)
        self._loads = defaultdict(int)
        self._stores = defaultdict(int)

    def charge(self, ns, mode, module, function, *, loads=0, stores=0):
        if ns < 0 or loads < 0 or stores < 0:
            raise ValueError("charges must be non-negative")
        key = (mode, module, function)
        self._cycles[key] += ns
        self._loads[key] += loads
        self._stores[key] += stores
        return ns

    def busy_ns(self, mode=None):
        return sum(
            ns for (m, _, _), ns in self._cycles.items() if mode is None or m is mode
        )

    def utilization(self, elapsed_ns, mode=None):
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns(mode) / elapsed_ns)

    def cycles_by_module(self, mode=None):
        out = defaultdict(int)
        for (m, module, _), ns in self._cycles.items():
            if mode is None or m is mode:
                out[module] += ns
        return dict(out)

    def cycles_by_function(self, mode=None):
        out = defaultdict(int)
        for (m, _, function), ns in self._cycles.items():
            if mode is None or m is mode:
                out[function] += ns
        return dict(out)

    def cycle_share_by_function(self, mode=None):
        per_function = self.cycles_by_function(mode)
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: ns / total for fn, ns in per_function.items()}

    def total_loads(self):
        return sum(self._loads.values())

    def total_stores(self):
        return sum(self._stores.values())

    def loads_by_function(self):
        out = defaultdict(int)
        for (_, _, function), count in self._loads.items():
            out[function] += count
        return dict(out)

    def stores_by_function(self):
        out = defaultdict(int)
        for (_, _, function), count in self._stores.items():
            out[function] += count
        return dict(out)

    def load_share_by_function(self):
        per_function = self.loads_by_function()
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: count / total for fn, count in per_function.items()}

    def store_share_by_function(self):
        per_function = self.stores_by_function()
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: count / total for fn, count in per_function.items()}

    def profiles(self):
        rows = [
            FunctionProfile(
                mode=mode,
                module=module,
                function=function,
                cycles_ns=ns,
                loads=self._loads.get((mode, module, function), 0),
                stores=self._stores.get((mode, module, function), 0),
            )
            for (mode, module, function), ns in self._cycles.items()
        ]
        rows.sort(key=lambda row: row.cycles_ns, reverse=True)
        return rows


def views(accounting, elapsed_ns):
    """Every read-side view, dicts as item lists so key order counts."""
    out = {
        "total_loads": accounting.total_loads(),
        "total_stores": accounting.total_stores(),
        "loads_by_function": list(accounting.loads_by_function().items()),
        "stores_by_function": list(accounting.stores_by_function().items()),
        "load_share": list(accounting.load_share_by_function().items()),
        "store_share": list(accounting.store_share_by_function().items()),
        "profiles": accounting.profiles(),
    }
    for mode in (None, ExecMode.USER, ExecMode.KERNEL):
        out[("busy_ns", mode)] = accounting.busy_ns(mode)
        out[("utilization", mode)] = accounting.utilization(elapsed_ns, mode)
        out[("by_module", mode)] = list(accounting.cycles_by_module(mode).items())
        out[("by_function", mode)] = list(
            accounting.cycles_by_function(mode).items()
        )
        out[("cycle_share", mode)] = list(
            accounting.cycle_share_by_function(mode).items()
        )
    return out


# Few labels, so charges pile onto the same cells; ties in cycles_ns
# exercise the stable sort in profiles().
_charge = st.tuples(
    st.integers(-2, 5_000),
    st.sampled_from([ExecMode.USER, ExecMode.KERNEL]),
    st.sampled_from(["vfs", "blk-mq", "nvme-driver", "fio"]),
    st.sampled_from(["syscall", "vfs_rw", "blk_mq_poll", "nvme_poll", "fio_rw"]),
    st.integers(-1, 300),
    st.integers(-1, 300),
)


class TestAgainstThreeDictOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        charges=st.lists(_charge, max_size=40),
        elapsed_ns=st.integers(-1, 100_000),
    )
    def test_every_view_matches(self, charges, elapsed_ns):
        cells, oracle = CpuAccounting(), ThreeDictAccounting()
        for ns, mode, module, function, loads, stores in charges:
            results = []
            for accounting in (cells, oracle):
                try:
                    results.append(
                        accounting.charge(
                            ns, mode, module, function, loads=loads, stores=stores
                        )
                    )
                except ValueError:
                    results.append("rejected")
            assert results[0] == results[1]
        assert views(cells, elapsed_ns) == views(oracle, elapsed_ns)

    @settings(max_examples=200, deadline=None)
    @given(charges=st.lists(_charge, max_size=40))
    def test_charge_step_matches_charge(self, charges):
        by_step, by_charge = CpuAccounting(), CpuAccounting()
        for ns, mode, module, function, loads, stores in charges:
            if min(ns, loads, stores) < 0:
                continue
            step = StepCost(ns=ns, loads=loads, stores=stores)
            assert by_step.charge_step(step, mode, module, function) == ns
            by_charge.charge(ns, mode, module, function, loads=loads, stores=stores)
        assert views(by_step, 100_000) == views(by_charge, 100_000)


class TestSoftwareCosts:
    def test_step_cost_validation(self):
        with pytest.raises(ValueError):
            StepCost(ns=-1)
        with pytest.raises(ValueError):
            StepCost(ns=1, loads=-2)

    def test_derived_periods(self):
        costs = SoftwareCosts()
        assert costs.kernel_poll_iter_ns == (
            costs.blk_mq_poll_iter.ns + costs.nvme_poll_iter.ns
        )
        assert costs.spdk_iter_ns == (
            costs.spdk_outer_iter.ns
            + costs.spdk_inner_iter.ns
            + costs.spdk_check_enabled_iter.ns
        )

    def test_submit_path_sums_steps(self):
        costs = SoftwareCosts()
        expected = (
            costs.syscall_entry.ns + costs.vfs_submit.ns + costs.blkmq_submit.ns
            + costs.nvme_driver_submit.ns + costs.doorbell_write.ns
        )
        assert costs.submit_path_ns == expected

    def test_interrupt_completion_includes_wakeup(self):
        costs = SoftwareCosts()
        assert costs.interrupt_completion_ns > costs.irq_delivery_ns

    def test_costs_are_immutable_but_replaceable(self):
        costs = SoftwareCosts()
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.irq_delivery_ns = 0
        variant = dataclasses.replace(costs, irq_delivery_ns=123)
        assert variant.irq_delivery_ns == 123

    def test_spdk_iterates_faster_than_kernel_poll(self):
        """The structural fact behind Fig. 21: the user-space loop is an
        order of magnitude tighter than blk_mq_poll + nvme_poll."""
        costs = SoftwareCosts()
        assert costs.spdk_iter_ns * 5 < costs.kernel_poll_iter_ns


def stage_log(completion, rw, io_count=300):
    """``(start, submitted, cqe, done)`` rows of a ull psync QD1 run."""
    sim = Simulator()
    testbed = Testbed(device="ull", completion=completion)
    _, host = testbed.build(sim)
    host.stage_log = []
    run_job(sim, host, testbed.job(JobConfig(rw=rw, io_count=io_count)))
    sim.close()
    assert len(host.stage_log) == io_count
    return host.stage_log


class TestHostTermsOnTheIoPath:
    """The host side of every QD1 I/O is exactly the cost table's steps:
    the clock advances once per run of CPU steps, never by a different
    amount than the steps of that run sum to."""

    @pytest.mark.parametrize("rw", ["randread", "randwrite"])
    def test_interrupt_terms(self, rw):
        costs = DEFAULT_COSTS
        submit_ns = costs.user_io_prep.ns + costs.submit_path_ns
        assert (submit_ns, costs.interrupt_completion_ns) == (1750, 2750)
        for start, submitted, cqe, done in stage_log("interrupt", rw):
            assert submitted - start == submit_ns
            assert done - cqe == costs.interrupt_completion_ns

    @pytest.mark.parametrize("rw", ["randread", "randwrite"])
    def test_poll_terms(self, rw):
        costs = DEFAULT_COSTS
        complete_ns = (
            costs.kernel_poll_iter_ns + costs.poll_complete.ns + costs.syscall_exit.ns
        )
        assert complete_ns == 650
        for _, _, cqe, done in stage_log("poll", rw):
            assert done - cqe == complete_ns
