"""Tests for the deterministic fault-injection plane (repro.faults)."""

import pytest

from repro.api import JobConfig, Testbed
from repro.core.sweep import ExperimentSpec, SweepEngine, make_point, point_cache_key
from repro.faults.plan import (
    FaultPlan,
    KstackFaults,
    NandFaults,
    NetFaults,
    NvmeFaults,
    active_plan,
    parse_fault_spec,
)


def run_ull(faults=None, *, rw="randread", io_count=250, completion="interrupt"):
    testbed = Testbed(device="ull", completion=completion, faults=faults)
    return testbed.run_job(
        JobConfig(rw=rw, engine="psync", io_count=io_count), want_device=True
    )


class TestFaultPlan:
    def test_default_plan_is_inert(self):
        plan = FaultPlan()
        assert not plan.any_enabled
        for layer in ("nand", "nvme", "kstack", "net"):
            assert plan.injector(layer) is None

    def test_injector_only_for_active_layers(self):
        plan = FaultPlan(nand=NandFaults(read_fail_prob=0.1))
        assert plan.injector("nand") is not None
        assert plan.injector("nvme") is None

    def test_injector_streams_are_stable_and_distinct(self):
        plan = FaultPlan(seed=5, nand=NandFaults(read_fail_prob=0.5))
        a = [plan.injector("nand").rng.random() for _ in range(4)]
        b = [plan.injector("nand").rng.random() for _ in range(4)]
        assert a == b  # same seed/layer/index: same stream, any process
        other = [plan.injector("nand", index=1).rng.random() for _ in range(4)]
        assert a != other  # sibling instances never alias

    def test_params_round_trip(self):
        plan = FaultPlan(
            seed=9,
            nand=NandFaults(read_fail_prob=0.01, max_read_retries=5),
            nvme=NvmeFaults(timeout_prob=1e-3),
            kstack=KstackFaults(requeue_prob=0.02),
            net=NetFaults(flap_interval_ns=1_000_000),
        )
        assert FaultPlan.from_params(plan.to_params()) == plan

    def test_ambient_install_stack(self):
        assert active_plan() is None
        plan = FaultPlan(seed=1, nvme=NvmeFaults(timeout_prob=0.1))
        with plan.installed():
            assert active_plan() is plan
            # An inert plan installed on top does not shadow a live one.
            with FaultPlan().installed():
                assert active_plan() is plan
        assert active_plan() is None

    def test_parse_fault_spec(self):
        plan = parse_fault_spec(
            ["nand.read_fail_prob=0.01,nand.ecc_retry_ns=50_000",
             "nvme.timeout_prob=1e-3"],
            seed=3,
        )
        assert plan.seed == 3
        assert plan.nand.read_fail_prob == 0.01
        assert plan.nand.ecc_retry_ns == 50_000
        assert plan.nvme.timeout_prob == 1e-3

    def test_parse_fault_spec_rejects_garbage(self):
        with pytest.raises(ValueError, match="layer.field=value"):
            parse_fault_spec(["nonsense"])
        with pytest.raises(ValueError, match="unknown fault layer"):
            parse_fault_spec(["disk.fail=1"])
        with pytest.raises(ValueError, match="unknown fault field"):
            parse_fault_spec(["nand.explode_prob=1"])
        # A bad value names its field and its text, never a bare
        # float()/int() error.
        prob, count = "expects a probability in [0, 1]", "expects an integer >= 0"
        for spec, message in (
            ("nand.read_fail_prob=abc", f"nand.read_fail_prob {prob}, got 'abc'"),
            ("nand.read_fail_prob=2", f"nand.read_fail_prob {prob}, got '2'"),
            ("nand.read_fail_prob=-0.1", f"nand.read_fail_prob {prob}"),
            ("nand.read_fail_prob=nan", f"nand.read_fail_prob {prob}"),
            ("nvme.timeout_prob=1.5", f"nvme.timeout_prob {prob}"),
            ("nand.ecc_retry_ns=-5", f"nand.ecc_retry_ns {count}, got '-5'"),
            ("kstack.max_requeues=1.5", f"kstack.max_requeues {count}"),
            ("net.flap_interval_ns=soon", f"net.flap_interval_ns {count}"),
        ):
            with pytest.raises(ValueError) as excinfo:
                parse_fault_spec([spec])
            assert message in str(excinfo.value)
        # The bounds themselves are valid.
        plan = parse_fault_spec(["nand.read_fail_prob=1,nand.ecc_retry_ns=0"])
        assert plan.nand.read_fail_prob == 1.0 and plan.nand.ecc_retry_ns == 0


class TestZeroFaultIdentity:
    """An inert plan must change nothing, byte for byte."""

    def test_inert_plan_matches_no_plan(self):
        bare, _ = run_ull(faults=None)
        inert, _ = run_ull(faults=FaultPlan())
        assert bare.latency.mean_ns == inert.latency.mean_ns
        assert bare.latency.p99999_ns == inert.latency.p99999_ns
        assert bare.duration_ns == inert.duration_ns

    def test_other_layers_unperturbed(self):
        # Enabling NVMe faults must not shift the NAND/pattern streams:
        # with timeout_prob so low no timeout fires, results are identical.
        bare, _ = run_ull(faults=None, io_count=150)
        armed, _ = run_ull(
            faults=FaultPlan(nvme=NvmeFaults(timeout_prob=1e-12)), io_count=150
        )
        assert bare.latency.mean_ns == armed.latency.mean_ns


class TestLayerBehavior:
    def test_nand_read_faults_retry_and_inflate_tail(self):
        plan = FaultPlan(seed=2, nand=NandFaults(read_fail_prob=0.05))
        clean, _ = run_ull()
        faulty, device = run_ull(plan)
        assert device.controller.stats.read_retries > 0
        assert faulty.latency.p99_ns > clean.latency.p99_ns
        assert faulty.latency.mean_ns > clean.latency.mean_ns

    def test_nand_program_faults_retire_blocks(self):
        plan = FaultPlan(seed=2, nand=NandFaults(program_fail_prob=0.02))
        _, device = run_ull(plan, rw="randwrite", io_count=400)
        assert device.controller.stats.program_fails > 0
        assert device.controller.stats.blocks_retired > 0

    def test_nvme_timeouts_cost_the_command_timer(self):
        plan = FaultPlan(seed=2, nvme=NvmeFaults(timeout_prob=0.02))
        clean, _ = run_ull()
        faulty, _ = run_ull(plan)
        assert faulty.latency.p99_ns >= plan.nvme.timeout_ns
        assert faulty.latency.mean_ns > clean.latency.mean_ns

    def test_kstack_requeues_back_off(self):
        plan = FaultPlan(seed=2, kstack=KstackFaults(requeue_prob=0.05))
        clean, _ = run_ull()
        faulty, _ = run_ull(plan)
        assert faulty.latency.p99_ns > clean.latency.p99_ns
        # backoff starts at 100us, far above the clean ~17us p99
        assert faulty.latency.p99_ns > 100_000

    def test_net_flaps_cut_nbd_throughput(self):
        from repro.core.runners import nbd_runner

        clean = nbd_runner(
            server="kernel-nbd", rw="read", block_size=65536, io_count=200
        )
        plan = FaultPlan(seed=2, net=NetFaults(flap_interval_ns=1_000_000))
        flappy = nbd_runner(
            server="kernel-nbd", rw="read", block_size=65536, io_count=200,
            fault_plan=plan.to_params(),
        )
        assert flappy.result.bandwidth_mbps < clean.result.bandwidth_mbps


class TestDeterminism:
    def test_fault_runs_are_bit_identical_across_repeats(self):
        plan = FaultPlan(
            seed=4,
            nand=NandFaults(read_fail_prob=0.02),
            nvme=NvmeFaults(timeout_prob=0.01),
            kstack=KstackFaults(requeue_prob=0.01),
        )

        def one():
            result, device = run_ull(plan, io_count=200)
            return (
                result.latency.mean_ns,
                result.latency.p99999_ns,
                result.duration_ns,
                device.controller.stats.read_retries,
            )

        assert one() == one()

    def test_seed_changes_the_fault_schedule(self):
        a, _ = run_ull(FaultPlan(seed=1, nand=NandFaults(read_fail_prob=0.05)))
        b, _ = run_ull(FaultPlan(seed=2, nand=NandFaults(read_fail_prob=0.05)))
        assert a.latency.mean_ns != b.latency.mean_ns


class TestSweepIntegration:
    def _spec(self, plan):
        points = [
            make_point(
                ("faulty", rate),
                "job",
                device="ull",
                rw="randread",
                engine="psync",
                io_count=150,
                fault_plan=plan.to_params() if rate else (),
            )
            for rate in (0, 1)
        ]
        return ExperimentSpec(name="fault-sweep-test", points=tuple(points))

    def test_parallel_matches_serial(self):
        plan = FaultPlan(seed=3, nand=NandFaults(read_fail_prob=0.05))
        spec = self._spec(plan)
        serial = SweepEngine(jobs=1).run(spec)
        parallel = SweepEngine(jobs=2).run(spec)
        for key in serial:
            assert (
                serial[key].result.latency.mean_ns
                == parallel[key].result.latency.mean_ns
            )
            assert serial[key].result.duration_ns == parallel[key].result.duration_ns

    def test_ambient_plan_reaches_workers(self):
        plan = FaultPlan(seed=3, nand=NandFaults(read_fail_prob=0.08))
        point = make_point(
            "ambient", "job", device="ull", rw="randread",
            engine="psync", io_count=150,
        )
        spec = ExperimentSpec(name="ambient-test", points=(point,))
        clean = SweepEngine(jobs=1).run(spec)["ambient"]
        with plan.installed():
            serial = SweepEngine(jobs=1).run(spec)["ambient"]
            parallel = SweepEngine(jobs=2).run(spec)["ambient"]
        assert serial.result.latency.mean_ns == parallel.result.latency.mean_ns
        assert serial.result.latency.mean_ns > clean.result.latency.mean_ns

    def test_ambient_plan_changes_cache_key(self):
        point = make_point(
            "k", "job", device="ull", rw="randread", engine="psync", io_count=100
        )
        bare = point_cache_key(point)
        with FaultPlan(seed=1, nand=NandFaults(read_fail_prob=0.01)).installed():
            armed = point_cache_key(point)
        # the fault-free key is unchanged (warm caches stay valid)...
        assert point_cache_key(point) == bare
        # ...and a live ambient plan keys its measurements separately.
        assert armed != bare

    def test_explicit_fault_plan_param_changes_cache_key(self):
        plan = FaultPlan(seed=1, nvme=NvmeFaults(timeout_prob=0.01))
        bare = make_point(
            "k", "job", device="ull", rw="randread", engine="psync", io_count=100
        )
        armed = make_point(
            "k", "job", device="ull", rw="randread", engine="psync",
            io_count=100, fault_plan=plan.to_params(),
        )
        assert point_cache_key(bare) != point_cache_key(armed)


class TestObservability:
    def test_faults_surface_as_counters_and_spans(self):
        from repro.obs.core import Observability

        plan = FaultPlan(
            seed=2,
            nand=NandFaults(read_fail_prob=0.05),
            kstack=KstackFaults(requeue_prob=0.05),
        )
        with Observability() as obs:
            result, device = run_ull(plan, io_count=250)
        assert "faults.nand.read_retries" in obs.registry
        retries = obs.registry.get("faults.nand.read_retries").value
        assert retries == device.controller.stats.read_retries > 0
        assert "faults.kstack.requeues" in obs.registry
        assert obs.registry.get("faults.kstack.requeues").value > 0
        fault_spans = [
            s for s in obs.tracer.track_spans if s.track == "faults"
        ]
        names = {s.name for s in fault_spans}
        assert "ecc_retry" in names
        assert "blkmq_requeue" in names

    def test_nvme_timeout_spans_and_counters(self):
        from repro.obs.core import Observability

        plan = FaultPlan(seed=2, nvme=NvmeFaults(timeout_prob=0.02))
        with Observability() as obs:
            run_ull(plan, io_count=250)
        assert obs.registry.get("faults.nvme.timeouts").value > 0
        names = {
            s.name for s in obs.tracer.track_spans if s.track == "faults"
        }
        assert "nvme_timeout" in names

    def test_zero_fault_run_registers_nothing(self):
        from repro.obs.core import Observability

        with Observability() as obs:
            run_ull(FaultPlan(), io_count=120)
        assert "faults.nand.read_retries" not in obs.registry
        assert "faults.nvme.timeouts" not in obs.registry
