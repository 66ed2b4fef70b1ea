"""VTune-style attribution of CPU time and memory instructions.

Every piece of host software work in the simulation is *charged* to a
``(mode, module, function)`` label together with the load/store
instructions it executes.  The experiment harness then renders:

* CPU utilization split user/kernel (Figs. 12, 13, 20) — busy time over
  wall time;
* per-module / per-function cycle breakdowns (Fig. 14);
* normalized load/store counts and per-function instruction breakdowns
  (Figs. 15, 21, 22).

Charging records bookkeeping only; advancing simulated time is the
caller's job.  The stack processes charge every cost-table step through
:meth:`CpuAccounting.charge_step` on its own label, but sum a run of
consecutive pure-CPU steps and yield one ``sim.sleep`` for the whole
run: a run ends right before host code touches state another process
can see (a doorbell, a CQ, the device, the network link, the requeue
injector), tests clock-dependent state (has the CQE landed?), releases
the core (hybrid polling's timer sleep), or appends to a per-I/O trace
list the device may still append to.

Each label owns one ``[ns, loads, stores]`` cell in a single dict, so a
charge hashes its label once.  The views walk that dict in first-charge
order, which fixes the key order of every per-module / per-function
table they return.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.host.costs import StepCost


class ExecMode(enum.Enum):
    """Privilege mode a cycle is spent in."""

    USER = "user"
    KERNEL = "kernel"

    # ``Enum.__hash__`` is a Python-level function (it hashes the
    # member's name) and every charge hashes its mode.  Members are
    # singletons compared by identity, so identity hashing, computed in
    # C, is equivalent.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class FunctionProfile:
    """Aggregate cost attributed to one function."""

    mode: ExecMode
    module: str
    function: str
    cycles_ns: int
    loads: int
    stores: int


class CpuAccounting:
    """Accumulates attributed CPU time and memory instructions."""

    def __init__(self) -> None:
        #: ``(mode, module, function)`` -> ``[ns, loads, stores]``.
        self._cells: Dict[Tuple[ExecMode, str, str], List[int]] = {}

    # ------------------------------------------------------------------
    def charge(
        self,
        ns: int,
        mode: ExecMode,
        module: str,
        function: str,
        *,
        loads: int = 0,
        stores: int = 0,
    ) -> int:
        """Attribute ``ns`` of CPU time (and instructions); returns ``ns``
        so call sites can pass it straight into a sleep."""
        if ns < 0 or loads < 0 or stores < 0:
            raise ValueError("charges must be non-negative")
        key = (mode, module, function)
        cell = self._cells.get(key)
        if cell is None:
            self._cells[key] = [ns, loads, stores]
        else:
            cell[0] += ns
            cell[1] += loads
            cell[2] += stores
        return ns

    def charge_step(
        self, step: StepCost, mode: ExecMode, module: str, function: str
    ) -> int:
        """Attribute one cost-table step; returns its ns so the caller
        can add it to the run it sleeps through."""
        return self.charge(
            step.ns, mode, module, function, loads=step.loads, stores=step.stores
        )

    # ------------------------------------------------------------------
    # Cycle views
    # ------------------------------------------------------------------
    def busy_ns(self, mode: Optional[ExecMode] = None) -> int:
        """Total attributed CPU time, optionally filtered by mode."""
        return sum(
            cell[0]
            for (m, _, _), cell in self._cells.items()
            if mode is None or m is mode
        )

    def utilization(self, elapsed_ns: int, mode: Optional[ExecMode] = None) -> float:
        """Busy fraction of ``elapsed_ns`` (one core)."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns(mode) / elapsed_ns)

    def cycles_by_module(self, mode: Optional[ExecMode] = None) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (m, module, _), cell in self._cells.items():
            if mode is None or m is mode:
                out[module] += cell[0]
        return dict(out)

    def cycles_by_function(self, mode: Optional[ExecMode] = None) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (m, _, function), cell in self._cells.items():
            if mode is None or m is mode:
                out[function] += cell[0]
        return dict(out)

    def cycle_share_by_function(
        self, mode: Optional[ExecMode] = None
    ) -> Dict[str, float]:
        """Fraction of attributed cycles per function (Fig. 14b)."""
        per_function = self.cycles_by_function(mode)
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: ns / total for fn, ns in per_function.items()}

    # ------------------------------------------------------------------
    # Instruction views
    # ------------------------------------------------------------------
    def total_loads(self) -> int:
        return sum(cell[1] for cell in self._cells.values())

    def total_stores(self) -> int:
        return sum(cell[2] for cell in self._cells.values())

    def loads_by_function(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (_, _, function), cell in self._cells.items():
            out[function] += cell[1]
        return dict(out)

    def stores_by_function(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (_, _, function), cell in self._cells.items():
            out[function] += cell[2]
        return dict(out)

    def load_share_by_function(self) -> Dict[str, float]:
        per_function = self.loads_by_function()
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: count / total for fn, count in per_function.items()}

    def store_share_by_function(self) -> Dict[str, float]:
        per_function = self.stores_by_function()
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: count / total for fn, count in per_function.items()}

    # ------------------------------------------------------------------
    def profiles(self) -> List[FunctionProfile]:
        """All function profiles, largest cycle consumers first."""
        rows = [
            FunctionProfile(
                mode=mode,
                module=module,
                function=function,
                cycles_ns=ns,
                loads=loads,
                stores=stores,
            )
            for (mode, module, function), (ns, loads, stores) in self._cells.items()
        ]
        rows.sort(key=lambda row: row.cycles_ns, reverse=True)
        return rows
