"""Shared plumbing of the paper-shape benchmarks (``bench_*.py``).

Every benchmark regenerates one paper table/figure, saves the rendered
rows under ``benchmarks/results/<figure_id>.txt`` plus a
machine-readable ``<figure_id>.json`` (so figure shapes can be diffed
across revisions), prints them (visible with ``pytest -s``), and asserts the
figure's headline shape.  Timing lives in ``benchmarks/suite``, whose
``run.py --json`` document ``python -m repro perf --compare`` diffs.

The sweep engine the figures run on is configurable via environment
variables: ``REPRO_JOBS`` fans measurements out across worker
processes, ``REPRO_CACHE_DIR`` persists them on disk across benchmark
runs.
"""

from __future__ import annotations

import json
import os
import pathlib

from repro.core import sweep
from repro.core.metrics import FigureResult
from repro.core.report import render_figure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

if os.environ.get("REPRO_JOBS") or os.environ.get("REPRO_CACHE_DIR"):
    sweep.configure(
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    )


def emit(result: FigureResult) -> FigureResult:
    """Persist and print a figure reproduction; returns it unchanged."""
    RESULTS_DIR.mkdir(exist_ok=True)
    text = render_figure(result)
    (RESULTS_DIR / f"{result.figure_id}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"{result.figure_id}.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    print()
    print(text)
    return result


def reduction(figure: FigureResult, better: str, worse: str, x) -> float:
    """Fractional latency reduction of ``better`` over ``worse`` at x."""
    return 1.0 - figure.find(*better.split()).value_at(x) / figure.find(
        *worse.split()
    ).value_at(x)
