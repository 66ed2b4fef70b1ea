"""Tests for the channel fabric and the power meter."""

import pytest

from repro.flash.chip import OpKind
from repro.sim import Simulator
from repro.ssd.channels import ChannelArray
from repro.ssd.power import PowerMeter, PowerParams


class TestChannelArray:
    def test_transfer_time_from_rate(self):
        sim = Simulator()
        channels = ChannelArray(sim, 4, mbps=800)
        # 800 MB/s == 0.8 bytes/ns -> 4096 B = 5120 ns.
        assert channels.transfer_ns(4096) == 5120

    def test_transfers_serialize_per_channel(self):
        sim = Simulator()
        channels = ChannelArray(sim, 2, mbps=1000)
        first = channels.transfer(0, 1000)
        second = channels.transfer(0, 1000)
        other = channels.transfer(1, 1000)
        assert first == (0, 1000)
        assert second == (1000, 2000)
        assert other == (0, 1000)  # independent channel

    def test_channel_of_die_wraps(self):
        channels = ChannelArray(Simulator(), 4, mbps=800)
        assert channels.channel_of_die(5) == 1

    def test_not_before(self):
        channels = ChannelArray(Simulator(), 1, mbps=1000)
        assert channels.transfer(0, 500, not_before=2000) == (2000, 2500)

    def test_transfer_starts_no_earlier_than_now(self):
        sim = Simulator()
        channels = ChannelArray(sim, 1, mbps=1000)
        sim.run(until=3000)
        assert channels.transfer(0, 500) == (3000, 3500)
        assert channels.busy_ns(0) == 500

    def test_observer_called(self):
        sim = Simulator()
        seen = []
        channels = ChannelArray(sim, 1, 1000, observer=lambda s, e: seen.append((s, e)))
        channels.transfer(0, 1000)
        assert seen == [(0, 1000)]

    def test_utilization(self):
        sim = Simulator()
        channels = ChannelArray(sim, 2, mbps=1000)
        channels.transfer(0, 500)
        assert channels.utilization(1000) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelArray(Simulator(), 0, 800)
        with pytest.raises(ValueError):
            ChannelArray(Simulator(), 1, 0)
        with pytest.raises(ValueError):
            ChannelArray(Simulator(), 1, 800).transfer(1, 10)


class TestPowerMeter:
    def make_meter(self, dies_per_op=1):
        sim = Simulator()
        params = PowerParams(
            idle_w=4.0, read_op_w=0.5, program_op_w=1.0, erase_op_w=2.0,
            transfer_w=0.25,
        )
        return sim, PowerMeter(sim, params, dies_per_op=dies_per_op)

    def test_idle_power(self):
        sim, meter = self.make_meter()
        sim.run(until=1000)
        assert meter.average_watts(1000) == pytest.approx(4.0)

    def test_single_read_op(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 500)
        sim.run(until=1000)
        # 500ns at 4.5W, 500ns at 4.0W.
        assert meter.average_watts(1000) == pytest.approx(4.25)

    def test_super_channel_pair_counts_twice(self):
        sim, meter = self.make_meter(dies_per_op=2)
        meter.observe_op(OpKind.PROGRAM, 0, 1000)
        sim.run(until=1000)
        assert meter.average_watts(1000) == pytest.approx(4.0 + 2.0)

    def test_overlapping_ops_add(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 1000)
        meter.observe_op(OpKind.ERASE, 0, 1000)
        meter.observe_transfer(0, 1000)
        sim.run(until=1000)
        assert meter.average_watts(1000) == pytest.approx(4.0 + 0.5 + 2.0 + 0.25)

    def test_instantaneous_power_tracks_transitions(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.PROGRAM, 100, 200)
        sim.run(until=150)
        assert meter.instantaneous_watts() == pytest.approx(5.0)
        sim.run(until=250)
        assert meter.instantaneous_watts() == pytest.approx(4.0)

    def test_zero_length_op_ignored(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 100, 100)
        sim.run()
        assert meter.instantaneous_watts() == pytest.approx(4.0)

    def test_series_records_transitions(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 100)
        sim.run(until=100)
        assert len(meter.series) == 2

    def test_reads_are_as_of_now(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 100, 200)
        sim.run(until=50)
        assert len(meter.series) == 0
        sim.run(until=100)
        assert len(meter.series) == 1
        assert meter.instantaneous_watts() == pytest.approx(4.5)

    def test_observing_schedules_no_events(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 100)
        meter.observe_op(OpKind.PROGRAM, 50, 400)
        meter.observe_transfer(10, 60)
        assert sim.pending_count == 0
        sim.run(until=400)
        assert meter.average_watts(400) == pytest.approx(
            (100 * 0.5 + 350 * 1.0 + 50 * 0.25) / 400 + 4.0
        )
        assert sim.pending_count == 0
