"""Measurement, analysis, reporting and export helpers."""

from .classify import FlowClassification, classify_flows
from .export import export_results, write_csv
from .report import format_value, render_table
from .stats import OccupancyTracker, percentile, percentiles, tail_percentiles

__all__ = [
    "FlowClassification", "classify_flows",
    "export_results", "write_csv",
    "format_value", "render_table",
    "OccupancyTracker", "percentile", "percentiles", "tail_percentiles",
]
