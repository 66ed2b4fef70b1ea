"""Blame as a view of the finished traces, checked against the streaming
recorder it replaced.

:meth:`BlameReport.from_tracer` reads a traced run's finished I/Os after
the fact.  Blame used to be a second live recorder instead: the tracer
fed it each trace as it finished, and the bundle merged each sweep
worker's recorder into its own at the scope's pid and io-id offsets.
That recorder lives on here as the oracle, fed by a tracer subclass and
merged by a bundle subclass, and every output of the view must equal
its output exactly: the text table, the HTML report, the SLO rows, the
resource totals, every group's outlier records, the digests and the
burn-rate series, serial and ``--jobs 2``.
"""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import sweep
from repro.core.figures import run_figure
from repro.obs import (
    BlameReport,
    Observability,
    OutlierRecord,
    SloSpec,
    SpanTracer,
    WaitEdge,
    blame_report_html,
    blame_table,
)
from repro.obs.blame import DEFAULT_TOP, union_ns
from repro.obs.scope import Offsets
from repro.obs.telemetry import DEFAULT_PERIOD_NS, TailDigest, TimeSeries

#: (top, slos) pairs every bundle here feeds one oracle each.
CONFIGS = (
    (DEFAULT_TOP, ()),
    (
        3,
        (
            SloSpec.parse("read:200us@0.99"),
            SloSpec.parse("*:1ms@99%"),
            SloSpec.parse("write:20us@0.9"),
            # A stub latency can equal it, so the boundary is checked.
            SloSpec.parse("read:40ns@0.5"),
        ),
    ),
)


def _record_key(record):
    """Reservoir order: slowest first; (pid, io_id) breaks ties."""
    return (-record.latency_ns, record.pid, record.io_id)


class OracleRecorder(BlameReport):
    """The streaming recorder: folds in each trace as it finishes, keeps
    its top-K reservoir by insert-sort-truncate, and merges a worker's
    state at the scope's offsets.  It writes its own state; only the
    read side (the methods the renderers call) is the report's."""

    def __init__(self, top, slos, scope):
        super().__init__(top, slos)
        self.scope = scope

    def observe(self, trace):
        end_ns = trace.end_ns
        start_ns = trace.start_ns
        latency_ns = end_ns - start_ns
        edges = tuple(
            sorted(
                (
                    WaitEdge(
                        e.resource,
                        e.holder,
                        max(e.start_ns, start_ns),
                        min(e.end_ns, end_ns),
                    )
                    for e in trace._waits
                    if min(e.end_ns, end_ns) > max(e.start_ns, start_ns)
                ),
                key=lambda e: (e.start_ns, e.end_ns, e.resource, e.holder),
            )
        )
        device = self.scope.device_labels.get(trace.pid) or f"sim{trace.pid}"
        group_key = (device, trace.op)
        self.observed += 1
        digest = self._digests.get(group_key)
        if digest is None:
            digest = self._digests[group_key] = TailDigest()
        digest.observe(float(latency_ns))
        for edge in edges:
            cell = self._resources.setdefault((edge.resource, edge.holder), [0, 0])
            cell[0] += edge.duration_ns
            cell[1] += 1
        for index, spec in enumerate(self.slos):
            if not spec.matches(trace.op):
                continue
            self._slo_total[index] += 1
            self._burn_series(trace.pid, index, "checked").add(end_ns, 1)
            if latency_ns > spec.threshold_ns:
                self._slo_miss[index] += 1
                self._burn_series(trace.pid, index, "misses").add(end_ns, 1)
        group = self._groups.setdefault(group_key, [])
        if len(group) >= self.top:
            if (-latency_ns, trace.pid, trace.io_id) >= _record_key(group[-1]):
                return
        group.append(
            OutlierRecord(
                io_id=trace.io_id,
                pid=trace.pid,
                device=device,
                op=trace.op,
                offset=trace.offset,
                nbytes=trace.nbytes,
                start_ns=start_ns,
                end_ns=end_ns,
                wait_ns=union_ns(edges),
                phases=tuple(
                    (span.name, span.start_ns, span.end_ns) for span in trace.phases()
                ),
                edges=edges,
            )
        )
        group.sort(key=_record_key)
        del group[self.top:]

    def _burn_series(self, pid, index, which):
        key = (pid, index, which)
        if key not in self._slo_series:
            self._slo_series[key] = TimeSeries(
                f"slo.{self.slos[index].label}.{which}",
                "rate",
                "ios",
                pid=pid,
                period_ns=DEFAULT_PERIOD_NS,
            )
        return self._slo_series[key]

    def absorb(self, other, base):
        for key in sorted(other._groups):
            records = other._groups[key]
            for record in records:
                record.pid += base.pid
                record.io_id += base.io
            mine = self._groups.setdefault(key, [])
            mine.extend(records)
            mine.sort(key=_record_key)
            del mine[self.top:]
        for key in sorted(other._digests):
            digest = self._digests.get(key)
            if digest is None:
                self._digests[key] = other._digests[key]
            else:
                digest.merge(other._digests[key])
        for pair in sorted(other._resources):
            cell = self._resources.setdefault(pair, [0, 0])
            cell[0] += other._resources[pair][0]
            cell[1] += other._resources[pair][1]
        for index in range(len(self.slos)):
            self._slo_total[index] += other._slo_total[index]
            self._slo_miss[index] += other._slo_miss[index]
        for (pid, index, which), series in other._slo_series.items():
            series.pid = pid + base.pid
            key = (series.pid, index, which)
            assert key not in self._slo_series, f"burn series {key} absorbed twice"
            self._slo_series[key] = series
        self.observed += other.observed


class OracleTracer(SpanTracer):
    """Feeds every finished trace to the oracles as it finishes."""

    def __init__(self, scope, oracles):
        super().__init__(scope)
        self.oracles = oracles

    def _finished(self, trace):
        super()._finished(trace)
        for oracle in self.oracles:
            oracle.observe(trace)


class OracleObservability(Observability):
    """A bundle whose tracer feeds one oracle per ``(top, slos)`` pair and
    whose worker merge merges the oracles too."""

    def __init__(self, *, oracles=CONFIGS, **options):
        super().__init__(**options)
        self.oracle_configs = tuple(oracles)
        self.oracles = [OracleRecorder(top, slos, self.scope) for top, slos in oracles]
        self.tracer = OracleTracer(self.scope, self.oracles)

    @property
    def config(self):
        return dict(super().config, oracles=self.oracle_configs)

    def absorb(self, other):
        base = Offsets(self.scope.sims, self.scope.next_io_id)
        super().absorb(other)
        for mine, theirs in zip(self.oracles, other.oracles, strict=True):
            mine.absorb(theirs, base)


def snapshot(report):
    """Everything a blame report shows, as comparable values."""
    groups = report.groups()
    return {
        "table": blame_table(report),
        "html": blame_report_html(report),
        "slo_rows": report.slo_rows(),
        "resource_totals": report.resource_totals(),
        "records": [
            (key, [tuple(getattr(r, slot) for slot in OutlierRecord.__slots__) for r in records])
            for key, records in groups
        ],
        "digests": [report.group_digest(*key).to_dict() for key, _records in groups],
        "burn": [
            [(s.name, s.pid, s.samples()) for s in report.burn_series(index)]
            for index in range(len(report.slos))
        ],
    }


def assert_view_matches_oracles(bundle):
    assert bundle.oracles
    for oracle, (top, slos) in zip(bundle.oracles, bundle.oracle_configs, strict=True):
        assert oracle.observed == len(bundle.tracer.finished_ios)
        view = BlameReport.from_tracer(bundle.tracer, top=top, slos=slos)
        assert snapshot(view) == snapshot(oracle)


# ----------------------------------------------------------------------
# Figure runs, serial and --jobs 2
# ----------------------------------------------------------------------
#: Small-scale figure runs: faults with ECC retries, 48 QD points, and
#: two devices (so a wrong label shows).
FIGURE_RUNS = {
    "fault-readtail": dict(io_count=360),
    "fig04a": dict(io_count=200),
    "zoo-latency": dict(io_count=100),
}


@contextmanager
def engine_jobs(jobs):
    """The default engine at ``jobs`` workers and no disk cache, with
    worker bundles built as oracle bundles."""
    engine = sweep.default_engine()
    saved = engine.jobs, engine.cache
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sweep, "Observability", OracleObservability)
        sweep.configure(jobs=jobs, cache_dir=None)
        try:
            yield
        finally:
            engine.jobs, engine.cache = saved


@pytest.fixture(scope="module")
def figure_bundles():
    bundles = {}
    for figure_id, kwargs in FIGURE_RUNS.items():
        for jobs in (1, 2):
            bundle = OracleObservability()
            with engine_jobs(jobs), bundle:
                run_figure(figure_id, **kwargs)
            bundles[figure_id, jobs] = bundle
    return bundles


@pytest.mark.parametrize("jobs", (1, 2))
@pytest.mark.parametrize("figure_id", sorted(FIGURE_RUNS))
def test_figure_view_equals_streaming_recorder(figure_bundles, figure_id, jobs):
    assert_view_matches_oracles(figure_bundles[figure_id, jobs])


@pytest.mark.parametrize("figure_id", sorted(FIGURE_RUNS))
def test_figure_view_serial_equals_parallel(figure_bundles, figure_id):
    serial = figure_bundles[figure_id, 1]
    parallel = figure_bundles[figure_id, 2]
    for top, slos in CONFIGS:
        assert snapshot(BlameReport.from_tracer(serial.tracer, top=top, slos=slos)) == (
            snapshot(BlameReport.from_tracer(parallel.tracer, top=top, slos=slos))
        )


def test_two_devices_are_both_named(figure_bundles):
    groups = BlameReport.from_tracer(figure_bundles["zoo-latency", 2].tracer).groups()
    assert len({device for (device, _op), _records in groups}) >= 2


# ----------------------------------------------------------------------
# Stub traces: ties, edges across the window, several pids and workers
# ----------------------------------------------------------------------
_edge = st.tuples(
    st.sampled_from(("ssd.die0", "ssd.die1", "nvme.q0")),
    st.sampled_from(("gc", "host", "timeout_recovery")),
    st.integers(-40, 140),
    st.integers(1, 80),
)
_io = st.tuples(
    st.sampled_from(("read", "write")),
    st.integers(0, 200),  # start
    st.sampled_from((0, 10, 40, 40, 100, 150)),  # latency: many ties
    st.lists(_edge, max_size=4),
)
#: One sim: its device label (a parent's may have none) and its I/Os.
_labels = st.sampled_from(("ull", "qlc"))
_parent_sim = st.tuples(st.one_of(st.none(), _labels), st.lists(_io, max_size=8))
_worker_sim = st.tuples(_labels, st.lists(_io, max_size=8))


def _finish_ios(tracer, ios):
    for op, start, latency, edges in ios:
        trace = tracer.begin_io(op, start // 8 * 4096, 4096, start)
        for resource, holder, edge_start, length in edges:
            trace.wait(resource, holder, start + edge_start, start + edge_start + length)
        if latency:
            trace.phase("ctrl", start)
        trace.finish(start + latency)


def _run_sim(bundle, label, ios):
    bundle.scope.new_sim()
    if label is not None:
        bundle.scope.label_device(label)
    _finish_ios(bundle.tracer, ios)


@settings(max_examples=60, deadline=None)
@given(
    parent_sims=st.lists(_parent_sim, max_size=2),
    workers=st.lists(st.lists(_worker_sim, min_size=1, max_size=3), max_size=3),
    after=st.lists(_io, max_size=4),
)
def test_stub_traces_view_equals_streaming_recorder(parent_sims, workers, after):
    parent = OracleObservability()
    for label, ios in parent_sims:
        _run_sim(parent, label, ios)
    for sims in workers:
        worker = OracleObservability()
        for label, ios in sims:
            _run_sim(worker, label, ios)
        parent.absorb(worker)
    # The parent's last sim records on after the absorbs.
    _finish_ios(parent.tracer, after)
    assert_view_matches_oracles(parent)


def test_unlabelled_worker_sim_is_named_by_its_merged_pid():
    """The one deliberate difference from the recorder, which named an
    unlabelled sim by its pid inside the worker (so every worker's first
    sim was ``sim1``): the view names it by the pid it merged under."""
    parent = Observability()
    for _ in range(2):
        worker = Observability()
        worker.scope.new_sim()
        _finish_ios(worker.tracer, [("read", 0, 10, [])])
        parent.absorb(worker)
    groups = BlameReport.from_tracer(parent.tracer).groups()
    assert [key for key, _records in groups] == [("sim1", "read"), ("sim2", "read")]


def test_top_below_one_is_rejected():
    with pytest.raises(ValueError, match="reservoir"):
        BlameReport.from_tracer(SpanTracer(), top=0)
