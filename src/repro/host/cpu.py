"""CPU cores and topology: the testbed's processor, as a model.

The paper pins fio to one core of a 6-core i7-8700 running at 4.6 GHz
with the ``performance`` cpufreq governor (Section III-B).  This module
models that: cores convert between wall time and cycles at a fixed
frequency, track their busy timelines, and a topology hands cores to
stacks (one core per fio job, like ``taskset``).

The accounting layer (:mod:`repro.host.accounting`) stays in
nanoseconds; cores are the bridge to cycle-denominated results (the
paper quotes "CPU cycles" throughout) and the placement substrate for
concurrent multi-job runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.host.accounting import CpuAccounting, ExecMode
from repro.sim.engine import Simulator
from repro.sim.resources import TimelineResource


@dataclass(frozen=True)
class CpuSpec:
    """Static description of the processor."""

    model: str = "i7-8700"
    cores: int = 6
    frequency_ghz: float = 4.6  # performance governor: pinned at max

    def __post_init__(self) -> None:
        if self.cores < 1 or self.frequency_ghz <= 0:
            raise ValueError("need at least one core and a positive frequency")

    def cycles_of(self, ns: float) -> int:
        """Wall nanoseconds -> CPU cycles at the pinned frequency."""
        return int(round(ns * self.frequency_ghz))

    def ns_of(self, cycles: int) -> float:
        """CPU cycles -> wall nanoseconds."""
        return cycles / self.frequency_ghz


class CpuCore:
    """One core: an accounting sink plus a busy timeline."""

    def __init__(self, sim: Simulator, index: int, spec: CpuSpec) -> None:
        self.sim = sim
        self.index = index
        self.spec = spec
        self.accounting = CpuAccounting()
        self.timeline = TimelineResource(sim)
        self.owner: Optional[str] = None  # pinned job/stack name

    def pin(self, owner: str) -> None:
        """Reserve the core for one job (taskset semantics)."""
        if self.owner is not None:
            raise RuntimeError(
                f"core {self.index} already pinned to {self.owner!r}"
            )
        self.owner = owner

    def unpin(self) -> None:
        self.owner = None

    # ------------------------------------------------------------------
    def busy_cycles(self, mode: Optional[ExecMode] = None) -> int:
        """Attributed busy time in cycles (the paper's unit)."""
        return self.spec.cycles_of(self.accounting.busy_ns(mode))

    def utilization(self, elapsed_ns: int, mode: Optional[ExecMode] = None) -> float:
        return self.accounting.utilization(elapsed_ns, mode)


class CpuTopology:
    """The host's cores, with pin-aware allocation."""

    def __init__(self, sim: Simulator, spec: Optional[CpuSpec] = None) -> None:
        self.sim = sim
        self.spec = spec or CpuSpec()
        self.cores: List[CpuCore] = [
            CpuCore(sim, index, self.spec) for index in range(self.spec.cores)
        ]

    def __len__(self) -> int:
        return len(self.cores)

    def allocate(self, owner: str) -> CpuCore:
        """Pin the lowest-numbered free core to ``owner``.

        Raises when every core is taken — the paper's setup never
        oversubscribes cores, and neither do the experiments here.
        """
        for core in self.cores:
            if core.owner is None:
                core.pin(owner)
                return core
        raise RuntimeError(
            f"no free core for {owner!r}: all {len(self.cores)} pinned"
        )

    def release(self, core: CpuCore) -> None:
        core.unpin()

    # ------------------------------------------------------------------
    def total_utilization(self, elapsed_ns: int, mode: Optional[ExecMode] = None) -> float:
        """Mean busy fraction across all cores (system-wide view)."""
        if elapsed_ns <= 0 or not self.cores:
            return 0.0
        return sum(
            core.utilization(elapsed_ns, mode) for core in self.cores
        ) / len(self.cores)

    def busiest_core(self) -> CpuCore:
        return max(self.cores, key=lambda core: core.accounting.busy_ns())
