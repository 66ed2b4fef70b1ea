"""repro.perf — per-figure timing records and their figure-by-figure diff.

``benchmarks/suite`` meters every figure it regenerates through
:class:`PerfSession` (wall seconds, simulated events per second,
sweep-cache state); its ``--json OUT`` document is what
``python -m repro perf`` compares::

    python3 benchmarks/suite/run.py --json A.json     # before
    python3 benchmarks/suite/run.py --json B.json     # after
    python -m repro perf --compare A.json --against B.json

See ``docs/observability.md`` for the record schema.
"""

from repro.perf.harness import (
    DEFAULT_THRESHOLD,
    SCHEMA,
    BenchRecord,
    Comparison,
    CompareRow,
    PerfSession,
    compare_docs,
    load_bench,
    write_bench,
)

__all__ = [
    "BenchRecord",
    "CompareRow",
    "Comparison",
    "PerfSession",
    "compare_docs",
    "load_bench",
    "write_bench",
    "DEFAULT_THRESHOLD",
    "SCHEMA",
]
