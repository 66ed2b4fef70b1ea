"""The sim sanitizer: runtime invariant asserts, off unless asked for.

Static analysis (``repro.lint``) catches determinism hazards it can see in
the source; this module catches the ones only visible at runtime.  Set
``REPRO_SIM_SANITIZE=1`` (CI runs a matrix leg with it) and every
:class:`~repro.sim.engine.Simulator` created afterwards checks:

* **clock monotonicity** — the event queue never hands the engine a
  callback stamped before ``now`` (a corrupted heap entry would otherwise
  silently run the clock backwards);
* **single-engine ownership** — an :class:`~repro.sim.events.Event`
  created on one simulator is never yielded by a process of another.
  Cross-engine waits "work" by accident in unsanitized runs (the
  callback fires on the other engine's clock) and are a classic source
  of phantom latencies;
* **hand-off is last** — a callback that wakes a process with
  :meth:`~repro.sim.engine.Simulator.hand_off` queues nothing after it:
  the woken process may have run ahead, so a later ``schedule`` would
  be stamped from the moved clock.

The checks raise :class:`SimSanitizeError` (an ``AssertionError``
subclass) so a violation fails tests loudly instead of corrupting
results quietly.  Overhead when disabled is one attribute read per
check site.
"""

from __future__ import annotations

import os
from typing import Any

ENV_VAR = "REPRO_SIM_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def enabled() -> bool:
    """True when the current environment asks for sanitized simulation.

    Read at every call (it is only consulted when a ``Simulator`` is
    constructed), so tests can flip the environment variable per-case.
    """
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


class SimSanitizeError(AssertionError):
    """A simulation invariant was violated under REPRO_SIM_SANITIZE=1."""


def check_clock(now: int, when: int) -> None:
    """Assert the next callback's timestamp has not gone backwards."""
    if when < now:
        raise SimSanitizeError(
            f"sim clock would run backwards: queued callback at t={when} "
            f"but clock already at t={now} (corrupted event queue?)"
        )


def check_owner(sim: Any, obj: Any, action: str) -> None:
    """Assert ``obj`` (an Event/Process/resource) belongs to ``sim``."""
    owner = getattr(obj, "sim", None)
    if owner is not None and owner is not sim:
        raise SimSanitizeError(
            f"cross-engine {action}: {obj!r} belongs to simulator "
            f"{id(owner):#x} but is used through simulator {id(sim):#x}; "
            "every event/resource must live and die on one engine"
        )


def check_hand_off(pending_then: int, pending_now: int, now: int) -> None:
    """Assert a callback queued nothing after its ``hand_off``."""
    if pending_now != pending_then:
        raise SimSanitizeError(
            f"callback queued {pending_now - pending_then:+d} callback(s) "
            f"after Simulator.hand_off (clock at t={now}): the woken "
            "process may have run ahead, so hand_off must be the "
            "callback's last act"
        )
