"""The run scope: which simulator run is recording, and on which device.

Every recorder stamps what it keeps with the current sim's *pid*, so
back-to-back measurement runs (each restarting its clock at zero) never
alias; the tracer also numbers I/Os.  Those two counters and the
pid -> device-label map live here, once.  An
:class:`~repro.obs.core.Observability` bundle owns one scope and hands
it to each of its recorders; a recorder built on its own makes a
private one.

Merge contract: :meth:`RunScope.absorb` takes a worker bundle's scope,
offsets its pids and io ids past this scope's counters and merges its
labels; each recorder then concatenates the worker's records at those
offsets.  Absorbing worker bundles in point order therefore numbers
everything exactly as a serial run would, and keys never collide.
"""

from __future__ import annotations

from typing import Dict, NamedTuple


class Offsets(NamedTuple):
    """What to add to an absorbed scope's pids and io ids."""

    pid: int
    io: int


class RunScope:
    """Sim counter, current pid, next io id, and the pid -> device-label map."""

    __slots__ = ("sims", "current", "next_io_id", "device_labels")

    def __init__(self) -> None:
        #: Pids handed out so far, to this scope's sims and absorbed ones.
        self.sims = 0
        #: The pid of the sim recording now (0 until the first attaches).
        self.current = 0
        self.next_io_id = 0
        #: pid -> registry/spec name of the device that sim ran against.
        self.device_labels: Dict[int, str] = {}

    @property
    def pid(self) -> int:
        """The current sim's pid (1 until the first sim attaches)."""
        return max(1, self.current)

    def new_sim(self) -> None:
        """A fresh simulator attached: what it records gets the next pid."""
        self.sims += 1
        self.current = self.sims

    def label_device(self, label: str) -> None:
        """Record which device the current sim runs against."""
        if label:
            self.device_labels[self.pid] = label

    def absorb(self, other: "RunScope") -> Offsets:
        """Take a worker's counters and labels; returns their offsets.

        The current pid stays: a sim that keeps recording after the
        absorb still stamps its own pid, and the next sim to attach gets
        the first pid past the absorbed ones.
        """
        offsets = Offsets(self.sims, self.next_io_id)
        for pid, label in other.device_labels.items():
            self.device_labels[pid + offsets.pid] = label
        self.sims += other.sims
        self.next_io_id += other.next_io_id
        return offsets
