"""Span-based request tracing.

Each traced I/O carries an :class:`IoTrace` context through the stack.
The context records an ordered sequence of *phase marks* — ``(t, name)``
transitions on the request's own timeline — plus optional *nested*
spans for concurrent detail (a suspended program, a PCIe DMA, a map
fetch).  Because phases are transitions, the top-level spans of one I/O
tile its lifetime exactly: their durations always sum to the observed
end-to-end latency, which is what makes the latency-anatomy report
trustworthy (the conservation property the tests assert to the
nanosecond).

Marks may arrive from different components (host process, controller
callbacks, analytic device bookings that compute future timestamps), so
``phase`` clamps each mark to be monotonically non-decreasing; clamping
never breaks conservation, it only shortens the phase that would have
gone backwards.

The module is dependency-free by design: the simulator attaches a
tracer (see :mod:`repro.obs.core`) and every layer reaches it through
``sim.obs`` — no layer imports another layer to trace itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs.scope import Offsets, RunScope

#: Canonical ordering of span names for reports (unknown names follow,
#: alphabetically).  Mirrors a request's journey down and back up.
SPAN_ORDER: Tuple[str, ...] = (
    "submit",
    "blkmq_queue",
    "light_queue",
    "net_send",
    "server",
    "nvme_sq",
    "ctrl",
    "suspend_wait",
    "die_wait",
    "flash_read",
    "flash_prog",
    "dma",
    "write_buffer",
    "buffer_full",
    "gc_stall",
    "write_stall",
    "net_return",
    "cqe_post",
    "completion_isr",
    "completion_poll",
)


@dataclass(frozen=True)
class Span:
    """One named interval of a request (or of a background track)."""

    name: str
    start_ns: int
    end_ns: int
    track: str = "io"
    io_id: Optional[int] = None
    depth: int = 0  # 0 = top-level phase (tiles the request), 1 = detail
    args: Tuple[Tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class WaitEdge(NamedTuple):
    """One wait-for interval of a request: who it waited on, and why.

    ``resource`` names the contended thing (``ssd.die3``, ``nvme.q0``,
    ``net.link``); ``holder`` names what occupied it (``gc``,
    ``timeout_recovery``, ``outage``).  Edges are attribution detail on
    top of the phase timeline — they may overlap each other (a lost
    completion's timeout window can contain a die wait), so the blame
    layer charges wall-clock wait time from the *union* of the edges.
    """

    resource: str
    holder: str
    start_ns: int
    end_ns: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class IoTrace:
    """The per-I/O span context carried through the stack."""

    __slots__ = (
        "tracer",
        "io_id",
        "op",
        "offset",
        "nbytes",
        "start_ns",
        "end_ns",
        "pid",
        "_marks",
        "_nested",
        "_waits",
    )

    def __init__(
        self,
        tracer: "SpanTracer",
        io_id: int,
        op: object,
        offset: int,
        nbytes: int,
        start_ns: int,
        pid: int,
    ) -> None:
        self.tracer = tracer
        self.io_id = io_id
        self.op = str(getattr(op, "value", op))
        self.offset = offset
        self.nbytes = nbytes
        self.start_ns = int(start_ns)
        self.end_ns: Optional[int] = None
        self.pid = pid
        self._marks: List[Tuple[int, str]] = []
        self._nested: List[Span] = []
        self._waits: List[WaitEdge] = []

    # ------------------------------------------------------------------
    def phase(self, name: str, at: int) -> None:
        """Open the top-level phase ``name`` at time ``at``.

        The previously open phase (if any) closes at the same instant.
        ``at`` is clamped to keep marks monotonic, so callers may record
        retroactive transitions (e.g. naming a wait only after it ended)
        as long as they append in order.
        """
        at = int(at)
        floor = self._marks[-1][0] if self._marks else self.start_ns
        if at < floor:
            at = floor
        self._marks.append((at, name))

    def relabel(self, name: str) -> None:
        """Rename the currently open top-level phase."""
        if not self._marks:
            raise RuntimeError("no open phase to relabel")
        at, _old = self._marks[-1]
        self._marks[-1] = (at, name)

    def annotate(self, name: str, start_ns: int, end_ns: int, **args: object) -> None:
        """Record a nested detail span (may overlap phases freely)."""
        self._nested.append(
            Span(
                name=name,
                start_ns=int(start_ns),
                end_ns=int(end_ns),
                track="io",
                io_id=self.io_id,
                depth=1,
                args=tuple(sorted(args.items())),
            )
        )

    def wait(self, resource: str, holder: str, start_ns: int, end_ns: int) -> None:
        """Record a wait-for edge: this I/O sat on ``resource`` because of
        ``holder`` over ``[start_ns, end_ns]``.  Zero/negative intervals
        are dropped so call sites can emit unconditionally.
        """
        start_ns = int(start_ns)
        end_ns = int(end_ns)
        if end_ns > start_ns:
            self._waits.append(WaitEdge(resource, holder, start_ns, end_ns))

    def finish(self, at: int) -> None:
        """Close the trace; the last phase ends here."""
        if self.end_ns is not None:
            raise RuntimeError(f"io {self.io_id} finished twice")
        at = int(at)
        if self._marks and at < self._marks[-1][0]:
            at = self._marks[-1][0]
        self.end_ns = max(at, self.start_ns)
        self.tracer._finished(self)

    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def latency_ns(self) -> int:
        if self.end_ns is None:
            raise RuntimeError(f"io {self.io_id} not finished")
        return self.end_ns - self.start_ns

    def phases(self) -> List[Span]:
        """The top-level spans, tiling ``[start_ns, end_ns]`` exactly."""
        if self.end_ns is None:
            raise RuntimeError(f"io {self.io_id} not finished")
        spans: List[Span] = []
        for index, (at, name) in enumerate(self._marks):
            end = (
                self._marks[index + 1][0]
                if index + 1 < len(self._marks)
                else self.end_ns
            )
            spans.append(
                Span(
                    name=name,
                    start_ns=at,
                    end_ns=end,
                    track="io",
                    io_id=self.io_id,
                    depth=0,
                )
            )
        return spans

    def nested(self) -> List[Span]:
        return list(self._nested)

    def waits(self) -> List[WaitEdge]:
        """The wait-for edges recorded for this I/O, in emission order."""
        return list(self._waits)

    def spans(self) -> List[Span]:
        """Top-level phases followed by nested detail spans."""
        return self.phases() + self._nested


class SpanTracer:
    """Collects per-I/O contexts and background track spans.

    Pids and io ids come from ``scope`` (see :mod:`repro.obs.scope`):
    each simulator's spans land in their own Chrome-trace process, so
    back-to-back runs (each with its own clock starting at zero) do not
    overlap in the viewer.
    """

    enabled = True

    def __init__(self, scope: Optional[RunScope] = None) -> None:
        self.scope = scope if scope is not None else RunScope()
        self.finished_ios: List[IoTrace] = []
        self.track_spans: List[Span] = []

    # ------------------------------------------------------------------
    def begin_io(self, op: object, offset: int, nbytes: int, at: int) -> IoTrace:
        """Open a trace context for one I/O starting at ``at``."""
        scope = self.scope
        io_id = scope.next_io_id
        scope.next_io_id = io_id + 1
        return IoTrace(self, io_id, op, offset, nbytes, at, pid=scope.pid)

    def span(
        self, track: str, name: str, start_ns: int, end_ns: int, **args: object
    ) -> None:
        """Record a background span on a named device track (GC, flush)."""
        self.track_spans.append(
            Span(
                name=name,
                start_ns=int(start_ns),
                end_ns=int(end_ns),
                track=track,
                io_id=None,
                depth=0,
                args=tuple(sorted(args.items())) + (("pid", self.scope.pid),),
            )
        )

    def _finished(self, trace: IoTrace) -> None:
        self.finished_ios.append(trace)

    # ------------------------------------------------------------------
    def absorb(self, other: "SpanTracer", base: Offsets) -> None:
        """Append a worker tracer's spans, its pids and io ids moved up
        by ``base`` (from :meth:`RunScope.absorb`)."""
        for trace in other.finished_ios:
            trace.tracer = self
            trace.io_id += base.io
            trace.pid += base.pid
            if trace._nested:
                trace._nested = [
                    Span(
                        name=span.name,
                        start_ns=span.start_ns,
                        end_ns=span.end_ns,
                        track=span.track,
                        io_id=trace.io_id,
                        depth=span.depth,
                        args=span.args,
                    )
                    for span in trace._nested
                ]
            self.finished_ios.append(trace)
        for span in other.track_spans:
            args = tuple(
                ("pid", value + base.pid) if name == "pid" else (name, value)
                for name, value in span.args
            )
            self.track_spans.append(
                Span(
                    name=span.name,
                    start_ns=span.start_ns,
                    end_ns=span.end_ns,
                    track=span.track,
                    io_id=span.io_id,
                    depth=span.depth,
                    args=args,
                )
            )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.finished_ios)

    def __iter__(self) -> Iterator[IoTrace]:
        return iter(self.finished_ios)


class NullTracer:
    """The zero-cost default: every hook is a no-op.

    ``begin_io`` returns ``None`` so instrumented code can guard with a
    single identity check per I/O; hot paths additionally guard on
    ``enabled`` so no argument tuples are even built.
    """

    enabled = False

    def begin_io(
        self, op: object, offset: int, nbytes: int, at: int
    ) -> Optional[IoTrace]:
        return None

    def span(
        self, track: str, name: str, start_ns: int, end_ns: int, **args: object
    ) -> None:
        pass

    def __len__(self) -> int:
        return 0

    @property
    def finished_ios(self) -> Tuple[IoTrace, ...]:
        return ()

    @property
    def track_spans(self) -> Tuple[Span, ...]:
        return ()


NULL_TRACER = NullTracer()


def sort_span_names(names: Iterable[str]) -> List[str]:
    """Canonical report order: request-journey order, then alphabetical."""
    rank = {name: index for index, name in enumerate(SPAN_ORDER)}
    return sorted(set(names), key=lambda n: (rank.get(n, len(rank)), n))
