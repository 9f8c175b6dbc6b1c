"""Benchmark-harness utilities: experiment tables and shared metrics."""

from .harness import Experiment, ExperimentTable, fmt
from .sequence import protocol_trace, render_sequence
from .metrics import (
    host_load_imbalance,
    mean_or_nan,
    placement_spread,
    success_rate,
)
from .scale import (
    QueryEngineBench,
    ScaleDatapoint,
    build_report,
    scale_datapoint,
    run_query_engines,
)

__all__ = [
    "Experiment", "ExperimentTable", "fmt",
    "render_sequence", "protocol_trace",
    "success_rate", "mean_or_nan", "placement_spread",
    "host_load_imbalance",
    "ScaleDatapoint", "QueryEngineBench",
    "scale_datapoint", "run_query_engines",
    "build_report",
]
