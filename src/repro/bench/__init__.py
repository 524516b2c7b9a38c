"""Benchmark harness regenerating the paper's tables and figures.

Each experiment of the evaluation (Figures 1 and 9-18, Table I) has a
corresponding function in :mod:`repro.bench.experiments` that builds the
required indexes, runs the workload at a configurable (scaled-down) size and
returns an :class:`~repro.bench.harness.ExperimentResult` whose rows mirror
the series shown in the paper.  The serving-stack experiments (``serving``,
``hotpath``, ``lifecycle``, ``obs``, ...) follow the same shape.  Run them
with ``python -m repro.bench.experiments [names...]`` or the ``repro-bench``
console script (``--list`` names them all; ``--json`` writes the
``BENCH_<name>.json`` snapshots committed at the repository root).
"""

from repro.bench.harness import ExperimentResult, format_table, run_experiment
from repro.bench.metrics import (
    normalized_cumulative_time_ms,
    throughput_per_footprint,
    time_per_lookup_ms,
)
from repro.bench import experiments

__all__ = [
    "ExperimentResult",
    "format_table",
    "run_experiment",
    "throughput_per_footprint",
    "normalized_cumulative_time_ms",
    "time_per_lookup_ms",
    "experiments",
]
