"""The SSD controller: unit-level datapaths and background workers.

Responsibilities (paper Section II-A):

* **Read path** — FTL lookup, write-buffer / read-cache hits, flash array
  read on the owning die (with Z-NAND suspend/resume), channel transfer,
  sequential prefetch staging.
* **Write path** — DRAM write-buffer admission (host sees buffered
  latency); a batcher and per-die flush workers drain the buffer,
  batching units into physical program operations.
* **Garbage collection** — flush workers reclaim blocks on their die when
  the erased pool drops below the watermark: migrate valid pages
  (on-die copyback), erase, release.  GC operations are booked one at a
  time, so arriving host reads can still suspend the in-flight program
  (the mechanism that makes ULL GC nearly invisible, Fig. 7b).

All flash timing is booked on per-die / per-channel timelines; the
controller itself adds fixed firmware latencies (no embedded-CPU
contention is modeled — flash and buses are the scarce resources).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from repro.flash.chip import FlashDie
from repro.ftl.allocator import OutOfSpace
from repro.ftl.core import GcPlan, PageMappedFtl
from repro.sim.engine import Simulator
from repro.sim.resources import TimelineResource
from repro.sim.rng import UniformStream
from repro.ssd.cache import ReadCache, WriteBuffer
from repro.ssd.channels import ChannelArray
from repro.ssd.config import UNIT_SIZE, SsdConfig
from repro.ssd.power import PowerMeter

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace


@dataclass
class GcEvent:
    """One completed block reclamation (for the Fig. 7b/8 time series)."""

    die: int
    start_ns: int
    end_ns: int
    migrated_pages: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class ControllerStats:
    """Run counters surfaced through :class:`repro.ssd.device.SsdDevice`."""

    flash_reads: int = 0
    buffer_read_hits: int = 0
    cache_read_hits: int = 0
    unwritten_reads: int = 0
    read_stalls: int = 0
    write_stalls: int = 0
    map_misses: int = 0
    flush_batches: int = 0
    read_retries: int = 0  # injected ECC read retries (repro.faults)
    program_fails: int = 0  # injected program failures (repro.faults)
    blocks_retired: int = 0  # blocks retired to the bad-block list
    gc_events: List[GcEvent] = field(default_factory=list)


class SsdController:
    """Wires FTL, flash array, caches, channels, and power together."""

    def __init__(
        self,
        sim: Simulator,
        config: SsdConfig,
        *,
        seed: int = 42,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.layout = config.ftl_layout()
        self.ftl = PageMappedFtl(
            self.layout,
            overprovision=config.overprovision,
            gc_watermark_blocks=config.gc_watermark_blocks,
            gc_policy=config.gc_policy,
        )
        self.power = PowerMeter(
            sim, config.power, dies_per_op=config.physical_dies_per_die
        )
        # Telemetry taps ride on the same booking observers the power
        # meter uses; chain them only when a recorder is live so the
        # default path stays a single attribute call.
        telemetry = sim.obs.telemetry
        die_observer = self.power.observe_op
        channel_observer = self.power.observe_transfer
        if telemetry.enabled:
            t_die_busy = telemetry.series(
                "ssd.dies.busy", "busy", unit="frac", scale=config.dies
            )
            t_chan_busy = telemetry.series(
                "ssd.channels.busy", "busy", unit="frac", scale=config.channels
            )

            def die_observer(
                kind: str, start: int, end: int,
                _power: Any = self.power.observe_op,
            ) -> None:
                _power(kind, start, end)
                t_die_busy.add_interval(start, end)

            def channel_observer(
                start: int, end: int,
                _power: Any = self.power.observe_transfer,
            ) -> None:
                _power(start, end)
                t_chan_busy.add_interval(start, end)

        self.dies: List[FlashDie] = [
            FlashDie(
                sim,
                config.timing,
                allow_suspend=config.suspend_resume,
                observer=die_observer,
                seed=seed * 131 + die_index,
            )
            for die_index in range(config.dies)
        ]
        self.channels = ChannelArray(
            sim,
            config.channels,
            config.channel_mbps,
            observer=channel_observer,
        )
        self.pcie = TimelineResource(sim)
        self.write_buffer = WriteBuffer(sim, config.write_buffer_units)
        self.read_cache = ReadCache(config.read_cache_units, config.prefetch_ahead)
        self.stats = ControllerStats()
        # Stall rolls are this stream's only draw kind: block-drawn.
        self._rng = UniformStream(seed)
        self._map_cache: "OrderedDict[int, None]" = OrderedDict()
        #: The batcher's hand-off to the flush workers: batches no die
        #: has taken yet, and the dies waiting for one, longest idle
        #: first (plain data, so a parked die holds no reference).
        self._batches: Deque[List[int]] = deque()
        self._idle_dies: Deque[int] = deque()
        #: Dies currently inside a GC cycle — write stalls that happen
        #: while this is non-zero are attributed to GC, not buffer churn.
        self.gc_active = 0
        registry = sim.obs.registry
        self._m_flash_reads = registry.counter(
            "ssd.read.flash", help="reads served from the flash array"
        )
        self._m_buffer_hits = registry.counter(
            "ssd.read.buffer_hits", help="reads served from the write buffer"
        )
        self._m_cache_hits = registry.counter(
            "ssd.read.cache_hits", help="reads served from the read cache"
        )
        self._m_map_misses = registry.counter(
            "ssd.map.misses", help="mapping-table segment fetches"
        )
        self._m_suspends = registry.counter(
            "ssd.flash.suspends", help="program/erase suspends issued for reads"
        )
        self._m_buffer_occ = registry.gauge(
            "ssd.write_buffer.occupancy", unit="units", help="buffered write units"
        )
        self._m_flush_batches = registry.counter(
            "ssd.flush.batches", help="write-buffer flush batches programmed"
        )
        self._m_gc_invocations = registry.counter(
            "ftl.gc.invocations", help="GC block reclamations"
        )
        self._m_gc_migrated = registry.counter(
            "ftl.gc.migrated_pages", help="valid pages migrated by GC"
        )
        self._m_gc_duration = registry.histogram(
            "ftl.gc.duration_ns", unit="ns", help="per-reclamation GC duration"
        )
        self._t_buffer_occ = telemetry.series(
            "ssd.write_buffer.occupancy", "level", unit="units"
        )
        self._t_gc_active = telemetry.series("ftl.gc.active", "level", unit="cycles")
        self._t_gc_moved = telemetry.series(
            "ftl.gc.moved_pages", "rate", unit="pages"
        )
        self._t_fault_recovery = telemetry.series(
            "faults.nand.recovery", "busy", unit="frac"
        )
        # Fault injection (repro.faults): a dedicated RNG stream, so the
        # zero-fault path draws nothing and existing streams are never
        # perturbed.  Instruments register only when faults are live to
        # keep the namespace clean otherwise.
        self._nand_faults = faults.injector("nand") if faults is not None else None
        if self._nand_faults is not None:
            self._m_read_retries = registry.counter(
                "faults.nand.read_retries",
                help="injected read failures recovered by ECC retry",
            )
            self._m_program_fails = registry.counter(
                "faults.nand.program_fails",
                help="injected program failures (data re-programmed)",
            )
            self._m_blocks_retired = registry.counter(
                "faults.nand.blocks_retired",
                help="blocks retired to the bad-block list",
            )
        # Each stage waits for its first item from the slot where a
        # process started here would: the batcher, then die 0..n-1.
        sim.post(self._batch_take)
        for die_index in range(config.dies):
            sim.post(self._flush_take, die_index)

    # ------------------------------------------------------------------
    # Read datapath (analytic: books timeline reservations, returns the
    # unit's device-internal completion time)
    # ------------------------------------------------------------------
    def read_unit(self, lpn: int, *, trace: "Optional[IoTrace]" = None) -> int:
        """Serve one mapping unit; returns its device-done timestamp."""
        config = self.config
        map_delay = self._map_lookup_delay(lpn)
        start = self.sim.now + config.read_fw_ns + map_delay
        if trace is not None and map_delay:
            trace.annotate("map_fetch", start - map_delay, start, lpn=lpn)
        done = self._serve_read(lpn, start, trace)
        self._maybe_prefetch(lpn)
        return done

    def _map_lookup_delay(self, lpn: int) -> int:
        """Extra stall if the lpn's map segment is outside the cache."""
        config = self.config
        if config.map_cache_segments <= 0:
            return 0
        segment = lpn // config.map_segment_units
        cache = self._map_cache
        if segment in cache:
            cache.move_to_end(segment)
            return 0
        cache[segment] = None
        while len(cache) > config.map_cache_segments:
            cache.popitem(last=False)
        self.stats.map_misses += 1
        self._m_map_misses.inc()
        return config.map_fetch_ns

    def _serve_read(
        self, lpn: int, start: int, trace: "Optional[IoTrace]" = None
    ) -> int:
        config = self.config
        if self.write_buffer.contains(lpn):
            self.stats.buffer_read_hits += 1
            self._m_buffer_hits.inc()
            if trace is not None:
                trace.annotate("buffer_hit", start, start + config.dram_hit_ns)
            return start + config.dram_hit_ns
        cached_ready = self.read_cache.lookup(lpn)
        if cached_ready is not None:
            self.stats.cache_read_hits += 1
            self._m_cache_hits.inc()
            if trace is not None:
                trace.annotate(
                    "cache_hit", start, max(start, cached_ready) + config.dram_hit_ns
                )
            return max(start, cached_ready) + config.dram_hit_ns
        ppa = self.ftl.read_ppa(lpn)
        if ppa is None:
            # Never-written LBA: the controller returns zeros from DRAM.
            self.stats.unwritten_reads += 1
            return start + config.dram_hit_ns
        return self._flash_read(lpn, ppa, start, trace)

    def _flash_read(
        self, lpn: int, ppa: int, start: int, trace: "Optional[IoTrace]" = None
    ) -> int:
        die_index = self.layout.die_of_page(ppa)
        die = self.dies[die_index]
        suspends_before = die.suspends
        flash_start, array_done = die.read(not_before=start)
        suspended = die.suspends > suspends_before
        if suspended:
            self._m_suspends.inc()
        retries = 0
        fi = self._nand_faults
        if fi is not None and fi.spec.read_fail_prob > 0.0:
            # Injected read failure: each retry re-reads the page with
            # tuned reference voltages after an ECC soft-decode pass.
            # The final permitted retry is modeled as succeeding (the
            # heroic-recovery path); errors never propagate to the host.
            retry_start = array_done
            while retries < fi.spec.max_read_retries and fi.roll(
                fi.spec.read_fail_prob
            ):
                retries += 1
                _, array_done = die.read(
                    not_before=array_done + fi.spec.ecc_retry_ns
                )
            if retries:
                self.stats.read_retries += retries
                self._m_read_retries.inc(retries)
                self._t_fault_recovery.add_interval(retry_start, array_done)
                if trace is not None:
                    trace.annotate(
                        "ecc_retry", retry_start, array_done, retries=retries
                    )
                tracer = self.sim.obs.tracer
                if tracer.enabled:
                    tracer.span(
                        "faults",
                        "ecc_retry",
                        retry_start,
                        array_done,
                        die=die_index,
                        lpn=lpn,
                        retries=retries,
                    )
        stall = 0
        if self._roll(self.config.read_stall_prob):
            self.stats.read_stalls += 1
            stall = self.config.read_stall_ns
            array_done += stall
        channel = self.channels.channel_of_die(die_index)
        channel_start, transfer_done = self.channels.transfer(
            channel, UNIT_SIZE, not_before=array_done
        )
        if trace is not None:
            if flash_start > start:
                # The die was busy: a suspend window (Z-NAND preempting a
                # program) or plain die contention.
                trace.phase("suspend_wait" if suspended else "die_wait", start)
                holder = (
                    "program_suspend"
                    if suspended
                    else ("gc" if self.gc_active > 0 else "io")
                )
                trace.wait(f"ssd.die{die_index}", holder, start, flash_start)
            trace.phase("flash_read", flash_start)
            if retries:
                trace.wait(f"ssd.die{die_index}", "ecc_retry", retry_start, array_done - stall)
            if stall:
                trace.annotate("read_stall", array_done - stall, array_done)
            # Channel transfer toward the controller buffer.
            trace.phase("dma", array_done)
            trace.wait(
                f"ssd.ch{channel}", "transfer_backlog", array_done, channel_start
            )
        self.read_cache.insert(lpn, ready_at=transfer_done)
        self.stats.flash_reads += 1
        self._m_flash_reads.inc()
        return transfer_done

    def _roll(self, prob: float) -> bool:
        return prob > 0.0 and self._rng.random() < prob

    def _program_page(self, die_index: int, not_before: int) -> Tuple[int, int]:
        """Book one program op, injecting program failures when live.

        A failed program burns its full tPROG before the fail status is
        seen, the block is retired to the bad-block list (one erased
        block permanently leaves the die's pool), and the data is
        re-programmed — the second attempt is modeled as succeeding.
        """
        die = self.dies[die_index]
        prog_start, programmed = die.program(not_before=not_before)
        fi = self._nand_faults
        if fi is not None and fi.roll(fi.spec.program_fail_prob):
            self.stats.program_fails += 1
            self._m_program_fails.inc()
            retired = self.ftl.allocator.retire_block(die_index)
            if retired is not None:
                self.stats.blocks_retired += 1
                self._m_blocks_retired.inc()
            tracer = self.sim.obs.tracer
            if tracer.enabled:
                tracer.span(
                    "faults",
                    "program_fail",
                    prog_start,
                    programmed,
                    die=die_index,
                    retired_block=-1 if retired is None else retired,
                )
            reprogram_from = programmed
            _, programmed = die.program(not_before=programmed)
            self._t_fault_recovery.add_interval(reprogram_from, programmed)
        return prog_start, programmed

    def roll_write_stall(self) -> int:
        """Housekeeping pause delaying a write completion (0 = none)."""
        if self._roll(self.config.write_stall_prob):
            self.stats.write_stalls += 1
            return self.config.write_stall_ns
        return 0

    def _maybe_prefetch(self, lpn: int) -> None:
        for candidate in self.read_cache.note_access(lpn):
            if candidate >= self.ftl.logical_pages:
                continue
            ppa = self.ftl.read_ppa(candidate)
            if ppa is None or self.write_buffer.contains(candidate):
                continue
            die_index = self.layout.die_of_page(ppa)
            _, array_done = self.dies[die_index].read(not_before=self.sim.now)
            channel = self.channels.channel_of_die(die_index)
            _, transfer_done = self.channels.transfer(
                channel, UNIT_SIZE, not_before=array_done
            )
            self.read_cache.insert(candidate, ready_at=transfer_done)
            self.stats.flash_reads += 1

    # ------------------------------------------------------------------
    # Write datapath (the device's write stages call in here once a unit
    # holds a buffer slot; see SsdDevice._write_unit)
    # ------------------------------------------------------------------
    def admit_unit(
        self, lpn: int, wait_from: int, trace: "Optional[IoTrace]" = None
    ) -> None:
        """Deposit one unit into the buffer slot it was granted;
        ``wait_from`` is when it asked for the slot."""
        now = self.sim.now
        if trace is not None and now > wait_from:
            # The buffer was full; name the wait for what was holding it:
            # an active GC cycle, or plain flush backlog.
            blocked_on = "gc_stall" if self.gc_active > 0 else "buffer_full"
            trace.phase(blocked_on, wait_from)
            trace.phase("write_buffer", now)
            trace.wait(
                "ssd.write_buffer",
                "gc" if self.gc_active > 0 else "flush",
                wait_from,
                now,
            )
        buffer = self.write_buffer
        buffer.insert(lpn)
        self._m_buffer_occ.set(buffer.occupancy, now)
        self._t_buffer_occ.record(now, buffer.occupancy)

    # ------------------------------------------------------------------
    # Write back end: the batcher, one flush worker per die, and GC, as
    # callback stages with no process.  Each stage runs at the tick and
    # in the FIFO slot where a generator process doing the same work
    # would resume (see docs/sim-engine.md): a take that finds its item
    # ready is posted; a put to a parked taker calls it inline; a pause
    # of ``d`` ns is scheduled at now + d; a step that had nothing to
    # wait for runs on inline.
    # ------------------------------------------------------------------
    def _batch_take(self) -> None:
        """Batcher: wait for the first unit of the next batch."""
        self.write_buffer.take_dirty(self._batch_gather)

    def _batch_gather(self, first: int) -> None:
        """Batcher: gather buffered units into a program-sized batch.

        One shared stage between the buffer and the die workers, so
        trickle traffic (e.g. sync QD1 writes) coalesces into full page
        sets instead of each worker burning a whole tPROG per 4 KB unit.
        """
        config = self.config
        batch = [first]
        self.write_buffer.take_ready(batch, config.units_per_program)
        if config.flush_coalesce_ns > 0 and len(batch) < config.units_per_program:
            # Trickle traffic: wait briefly for more units so a
            # program op commits a fuller page set.
            self.sim.schedule_at(
                self.sim.now + config.flush_coalesce_ns, self._batch_top_up, batch
            )
            return
        self._batch_emit(batch)

    def _batch_top_up(self, batch: List[int]) -> None:
        """Batcher: the coalescing wait is over; add what arrived."""
        self.write_buffer.take_ready(batch, self.config.units_per_program)
        self._batch_emit(batch)

    def _batch_emit(self, batch: List[int]) -> None:
        """Batcher: hand the batch to the longest-idle die, which starts
        on it inline, or queue it; then wait for the next one."""
        if self._idle_dies:
            self._flush_reclaim(self._idle_dies.popleft(), batch)
        else:
            self._batches.append(batch)
        self._batch_take()

    def _flush_take(self, die_index: int) -> None:
        """Flush worker: take the oldest queued batch, or go idle."""
        if self._batches:
            self.sim.post(self._flush_reclaim, die_index, self._batches.popleft())
        else:
            self._idle_dies.append(die_index)

    def _flush_reclaim(self, die_index: int, batch: List[int]) -> None:
        """Flush worker: run GC cycles while the die is below its
        watermark (each cycle comes back here), then place the batch."""
        if self.ftl.allocator.free_blocks(die_index) < self.config.gc_watermark_blocks:
            plan = self.ftl.plan_gc(die_index)
            if plan is not None:
                self._gc_start(_GcCycle(die_index, plan, batch, self.sim.now))
                return
        self._flush_place(die_index, batch)

    def _flush_place(self, die_index: int, batch: List[int]) -> None:
        """Flush worker: program the batch, then free its slots once
        the last program completes."""
        # Place every unit, never consuming this die's GC reserve:
        # units that no longer fit here are steered to whichever die
        # still accepts host data (the striping engine's job).
        ftl = self.ftl
        now = self.sim.now
        local: List[int] = []
        overflow: List[int] = []
        for lpn in batch:
            if ftl.allocator.can_host_write(die_index):
                ftl.write_to_die(lpn, die_index)
                local.append(lpn)
            else:
                overflow.append(lpn)
        tracer = self.sim.obs.tracer
        finish_at = now
        if local:
            channel = self.channels.channel_of_die(die_index)
            _, staged = self.channels.transfer(
                channel, len(local) * UNIT_SIZE, not_before=now
            )
            prog_start, programmed = self._program_page(die_index, not_before=staged)
            if tracer.enabled:
                tracer.span(
                    f"die{die_index}",
                    "flash_prog",
                    prog_start,
                    programmed,
                    units=len(local),
                )
            finish_at = max(finish_at, programmed)
        placed = local
        for lpn in overflow:
            try:
                die, stream = ftl.host_write_point()
                ftl.write_to_die(lpn, die, stream)
            except OutOfSpace:
                # Every die is down to its GC reserve: give the unit
                # back to the queue and let GC elsewhere catch up.
                self.write_buffer.requeue(lpn)
                continue
            placed.append(lpn)
            channel = self.channels.channel_of_die(die)
            _, staged = self.channels.transfer(channel, UNIT_SIZE, not_before=now)
            prog_start, programmed = self._program_page(die, not_before=staged)
            if tracer.enabled:
                tracer.span(f"die{die}", "flash_prog", prog_start, programmed, units=1)
            finish_at = max(finish_at, programmed)
        self.stats.flush_batches += 1
        self._m_flush_batches.inc()
        if finish_at > now:
            self.sim.schedule_at(finish_at, self._flush_done, die_index, placed)
        else:
            self._flush_done(die_index, placed)

    def _flush_done(self, die_index: int, placed: List[int]) -> None:
        """Flush worker: the batch is on flash; free its buffer slots
        (each may admit a stalled writer inline) and take the next."""
        buffer = self.write_buffer
        for lpn in placed:
            buffer.flushed(lpn)
        self._m_buffer_occ.set(buffer.occupancy, self.sim.now)
        self._t_buffer_occ.record(self.sim.now, buffer.occupancy)
        self._flush_take(die_index)

    def _gc_start(self, cycle: "_GcCycle") -> None:
        """GC: one block reclamation begins on the cycle's die."""
        self.gc_active += 1
        self._t_gc_active.record(cycle.start_ns, self.gc_active)
        self._gc_scan(cycle)

    def _gc_scan(self, cycle: "_GcCycle") -> None:
        """GC: read the victim's next valid page; once past the last,
        program the partial chunk and erase."""
        plan = cycle.plan
        lpns = plan.victim_lpns
        die = self.dies[cycle.die]
        while cycle.scanned < len(lpns):
            lpn = lpns[cycle.scanned]
            cycle.scanned += 1
            # The host may have overwritten the page since planning.
            if not self.ftl.still_in_block(lpn, plan.victim_block):
                continue
            _, read_done = die.read(not_before=self.sim.now)
            cycle.pending.append(lpn)
            if read_done > self.sim.now:
                self.sim.schedule_at(read_done, self._gc_page_read, cycle)
                return
            if self._gc_chunk_paused(cycle):
                return
        if cycle.pending and self._gc_program(cycle, self._gc_erase):
            return
        self._gc_erase(cycle)

    def _gc_page_read(self, cycle: "_GcCycle") -> None:
        """GC: a page read finished; scan on unless a full chunk's
        program pauses the cycle first."""
        if not self._gc_chunk_paused(cycle):
            self._gc_scan(cycle)

    def _gc_chunk_paused(self, cycle: "_GcCycle") -> bool:
        """Program the pending pages once they fill a page set; True if
        the cycle paused for the program (the scan resumes after it)."""
        if len(cycle.pending) < self.config.units_per_program:
            return False
        return self._gc_program(cycle, self._gc_scan)

    def _gc_program(self, cycle: "_GcCycle", then: Callable[["_GcCycle"], None]) -> bool:
        """GC: one copyback program of the pending pages.  True if it
        paused the cycle: ``then(cycle)`` runs when the program is done.

        Pages the host overwrote between the GC read and this program are
        dropped — relocating them would resurrect stale data; with none
        left there is no program and no pause.
        """
        lpns, cycle.pending = cycle.pending, []
        victim = cycle.plan.victim_block
        survivors = [lpn for lpn in lpns if self.ftl.still_in_block(lpn, victim)]
        if not survivors:
            return False
        for lpn in survivors:
            self.ftl.relocate(lpn, cycle.die)
        cycle.migrated += len(survivors)
        _, programmed = self._program_page(cycle.die, not_before=self.sim.now)
        if programmed > self.sim.now:
            self.sim.schedule_at(programmed, then, cycle)
            return True
        return False

    def _gc_erase(self, cycle: "_GcCycle") -> None:
        """GC: every survivor moved; erase the victim."""
        _, erased = self.dies[cycle.die].erase(not_before=self.sim.now)
        if erased > self.sim.now:
            self.sim.schedule_at(erased, self._gc_end, cycle)
        else:
            self._gc_end(cycle)

    def _gc_end(self, cycle: "_GcCycle") -> None:
        """GC: the victim is erased; release it, record the cycle, and
        go back to the flush worker's watermark check."""
        now = self.sim.now
        migrated = cycle.migrated
        self.gc_active -= 1
        self._t_gc_active.record(now, self.gc_active)
        self._t_gc_moved.add(now, migrated)
        self.ftl.finish_gc(cycle.plan)
        self.stats.gc_events.append(
            GcEvent(
                die=cycle.die,
                start_ns=cycle.start_ns,
                end_ns=now,
                migrated_pages=migrated,
            )
        )
        self._m_gc_invocations.inc()
        self._m_gc_migrated.inc(migrated)
        self._m_gc_duration.observe(now - cycle.start_ns)
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.span(
                f"die{cycle.die}",
                "gc",
                cycle.start_ns,
                now,
                migrated_pages=migrated,
                victim_block=cycle.plan.victim_block,
            )
        self._flush_reclaim(cycle.die, cycle.batch)


class _GcCycle:
    """One GC cycle in flight: its victim, its progress, and the flush
    batch its die places once the reclaiming is done.  Plain data (no
    reference back to the controller), carried through the queue."""

    __slots__ = ("die", "plan", "batch", "start_ns", "scanned", "pending", "migrated")

    def __init__(self, die: int, plan: GcPlan, batch: List[int], start_ns: int) -> None:
        self.die = die
        self.plan = plan
        self.batch = batch
        self.start_ns = start_ns
        #: Victim LPNs looked at so far, and the read ones not yet programmed.
        self.scanned = 0
        self.pending: List[int] = []
        self.migrated = 0
