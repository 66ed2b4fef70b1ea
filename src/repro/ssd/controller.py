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
from repro.ftl.mapping import UNMAPPED
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
        self._pages_per_die = self.layout.blocks_per_die * self.layout.pages_per_block
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
    # request's device-internal completion time)
    # ------------------------------------------------------------------
    def read_units(
        self, first_lpn: int, count: int, trace: "Optional[IoTrace]" = None
    ) -> int:
        """Serve a request's ``count`` mapping units from ``first_lpn``
        on, in LPN order; returns when the last one is ready.

        Per unit: the map-segment cache (a miss stalls ``map_fetch_ns``),
        then a write-buffer hit, a read-cache hit, a never-written LBA,
        or a die read and a channel transfer; on a sequential run the
        prefetcher stages the next units.  What does not change between
        units is looked up once per request.  The RNG streams draw in the
        per-unit order: the die's jitter, the fault plan's retry rolls
        (each retry one more jittered read), the stall roll, then the
        prefetch reads' jitter.
        """
        ftl = self.ftl
        logical_pages = ftl.logical_pages
        if first_lpn < 0 or count < 1 or first_lpn + count > logical_pages:
            raise ValueError(f"units [{first_lpn}, {first_lpn + count}) out of range")
        config = self.config
        stats = self.stats
        now = self.sim.now
        fw_start = now + config.read_fw_ns
        dram_ns = config.dram_hit_ns
        segments = config.map_cache_segments
        segment_units = config.map_segment_units
        fetch_ns = config.map_fetch_ns
        map_cache = self._map_cache
        last_segment = -1
        buffered = self.write_buffer.resident
        read_cache = self.read_cache
        cache_on = read_cache.enabled
        prefetch_on = cache_on and read_cache.prefetch_ahead > 0
        l2p = ftl.mapping.forward_map()
        pages_per_die = self._pages_per_die
        dies = self.dies
        transfer = self.channels.transfer
        n_channels = len(self.channels)
        stall_prob = config.read_stall_prob
        stall_roll = self._rng.random
        fi = self._nand_faults
        read_fail = fi is not None and fi.spec.read_fail_prob > 0.0
        done = flash_reads = prefetched = 0
        for lpn in range(first_lpn, first_lpn + count):
            start = fw_start
            if segments > 0:
                segment = lpn // segment_units
                # The previous unit's segment is the newest entry already.
                if segment != last_segment:
                    last_segment = segment
                    if segment in map_cache:
                        map_cache.move_to_end(segment)
                    else:
                        map_cache[segment] = None
                        while len(map_cache) > segments:
                            map_cache.popitem(last=False)
                        stats.map_misses += 1
                        self._m_map_misses.inc()
                        start += fetch_ns
                        if trace is not None and fetch_ns:
                            trace.annotate("map_fetch", fw_start, start, lpn=lpn)
            if lpn in buffered:
                stats.buffer_read_hits += 1
                self._m_buffer_hits.inc()
                unit_done = start + dram_ns
                if trace is not None:
                    trace.annotate("buffer_hit", start, unit_done)
            else:
                ready = read_cache.lookup(lpn) if cache_on else None
                ppa = l2p[lpn]
                if ready is not None:
                    stats.cache_read_hits += 1
                    self._m_cache_hits.inc()
                    unit_done = (ready if ready > start else start) + dram_ns
                    if trace is not None:
                        trace.annotate("cache_hit", start, unit_done)
                elif ppa == UNMAPPED:
                    # Never-written LBA: the controller returns zeros from DRAM.
                    stats.unwritten_reads += 1
                    unit_done = start + dram_ns
                else:
                    die_index = ppa // pages_per_die
                    die = dies[die_index]
                    suspends_before = die.suspends
                    flash_start, array_done = die.read(start)
                    suspended = die.suspends != suspends_before
                    if suspended:
                        self._m_suspends.inc()
                    retries = 0
                    retry_start = array_done
                    if read_fail:
                        retries, array_done = self._read_retries(
                            die_index, lpn, array_done, trace
                        )
                    stall = 0
                    if stall_prob > 0.0 and stall_roll() < stall_prob:
                        stats.read_stalls += 1
                        stall = config.read_stall_ns
                        array_done += stall
                    channel = die_index % n_channels
                    channel_start, unit_done = transfer(channel, UNIT_SIZE, array_done)
                    if trace is not None:
                        die_name = f"ssd.die{die_index}"
                        if flash_start > start:
                            # The die was busy: a suspend window (Z-NAND
                            # preempting a program) or plain die contention.
                            trace.phase("suspend_wait" if suspended else "die_wait", start)
                            if suspended:
                                holder = "program_suspend"
                            else:
                                holder = "gc" if self.gc_active > 0 else "io"
                            trace.wait(die_name, holder, start, flash_start)
                        trace.phase("flash_read", flash_start)
                        if retries:
                            trace.wait(die_name, "ecc_retry", retry_start, array_done - stall)
                        if stall:
                            trace.annotate("read_stall", array_done - stall, array_done)
                        # Channel transfer toward the controller buffer.
                        trace.phase("dma", array_done)
                        trace.wait(
                            f"ssd.ch{channel}", "transfer_backlog", array_done, channel_start
                        )
                    if cache_on:
                        read_cache.insert(lpn, unit_done)
                    flash_reads += 1
            if prefetch_on:
                for candidate in read_cache.note_access(lpn):
                    if candidate >= logical_pages:
                        continue
                    ppa = l2p[candidate]
                    if ppa == UNMAPPED or candidate in buffered:
                        continue
                    die_index = ppa // pages_per_die
                    _, array_done = dies[die_index].read(now)
                    _, staged = transfer(die_index % n_channels, UNIT_SIZE, array_done)
                    read_cache.insert(candidate, staged)
                    prefetched += 1
            if unit_done > done:
                done = unit_done
        # The stats count prefetch reads as flash reads; the metric
        # counts only the reads that served a request.
        stats.flash_reads += flash_reads + prefetched
        self._m_flash_reads.inc(flash_reads)
        return done

    def _read_retries(
        self, die_index: int, lpn: int, array_done: int, trace: "Optional[IoTrace]"
    ) -> Tuple[int, int]:
        """Injected read failures after a die read that ended at
        ``array_done``: each retry re-reads the page with tuned reference
        voltages after an ECC soft-decode pass.  The final permitted
        retry is modeled as succeeding (the heroic-recovery path); errors
        never propagate to the host.  Returns the retry count and when
        the last read ends."""
        fi = self._nand_faults
        assert fi is not None
        spec = fi.spec
        die = self.dies[die_index]
        retry_start = array_done
        retries = 0
        while retries < spec.max_read_retries and fi.roll(spec.read_fail_prob):
            retries += 1
            _, array_done = die.read(not_before=array_done + spec.ecc_retry_ns)
        if retries:
            self.stats.read_retries += retries
            self._m_read_retries.inc(retries)
            self._t_fault_recovery.add_interval(retry_start, array_done)
            if trace is not None:
                trace.annotate("ecc_retry", retry_start, array_done, retries=retries)
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
        return retries, array_done

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
        can_host_write = ftl.allocator.can_host_write
        write_to_die = ftl.write_to_die
        channels = self.channels
        now = self.sim.now
        local: List[int] = []
        overflow: List[int] = []
        for lpn in batch:
            if can_host_write(die_index):
                write_to_die(lpn, die_index)
                local.append(lpn)
            else:
                overflow.append(lpn)
        tracer = self.sim.obs.tracer
        finish_at = now
        if local:
            channel = channels.channel_of_die(die_index)
            _, staged = channels.transfer(channel, len(local) * UNIT_SIZE, not_before=now)
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
                write_to_die(lpn, die, stream)
            except OutOfSpace:
                # Every die is down to its GC reserve: give the unit
                # back to the queue and let GC elsewhere catch up.
                self.write_buffer.requeue(lpn)
                continue
            placed.append(lpn)
            channel = channels.channel_of_die(die)
            _, staged = channels.transfer(channel, UNIT_SIZE, not_before=now)
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
