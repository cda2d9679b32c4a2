"""CorrOpt re-implementation: traces, checker/optimizer, deployment study."""

from .simulation import (
    DeploymentConfig, DeploymentResult, DeploymentSimulation,
    lg_effective_loss_rate, lg_effective_speed_fraction,
)
from .trace import LOSS_BUCKETS, MTTF_HOURS, sample_loss_rates

__all__ = [
    "DeploymentConfig", "DeploymentResult", "DeploymentSimulation",
    "lg_effective_loss_rate", "lg_effective_speed_fraction",
    "LOSS_BUCKETS", "MTTF_HOURS", "sample_loss_rates",
]
