"""Experiment harness: one module per paper table/figure plus the testbed.

Every experiment here is also a runner *kind*: next to its ``run_*``
function each module carries a ``*_cell(spec, ctx) -> CellResult``
adapter, and ``repro.runner.cells.CELLS`` has one row pointing at it.
So each can run either directly through its ``run_*`` function or
declaratively as an :class:`~repro.runner.spec.ExperimentSpec` cell
inside a sweep.
"""

from .deployment import DeploymentComparison, run_deployment_comparison
from .fct import SCENARIOS, FctResult, run_fct_experiment
from .figures import (
    figure1_attenuation_series, figure2_flow_size_cdfs,
    figure20_consecutive_losses, table1_loss_buckets,
)
from .goodput import GOODPUT_SCHEMES, run_goodput
from .incremental import run_incremental_deployment
from .mechanisms import MECHANISM_VARIANTS, mechanism_spec, mechanism_study
from .multihop import Chain, build_chain, run_multihop_fct
from .rdma_future import RDMA_CASES, run_rdma_case
from .stress import StressResult, run_stress_test
from .testbed import Testbed, build_testbed
from .timeline import TimelineResult, run_timeline

__all__ = [
    "DeploymentComparison", "run_deployment_comparison",
    "SCENARIOS", "FctResult", "run_fct_experiment",
    "figure1_attenuation_series", "figure2_flow_size_cdfs",
    "figure20_consecutive_losses", "table1_loss_buckets",
    "GOODPUT_SCHEMES", "run_goodput",
    "run_incremental_deployment",
    "MECHANISM_VARIANTS", "mechanism_spec", "mechanism_study",
    "Chain", "build_chain", "run_multihop_fct",
    "RDMA_CASES", "run_rdma_case",
    "StressResult", "run_stress_test",
    "Testbed", "build_testbed",
    "TimelineResult", "run_timeline",
]
