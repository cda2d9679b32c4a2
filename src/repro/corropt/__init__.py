"""CorrOpt's trace model (Table 1); its checker and optimizer run in
:class:`repro.fleet.controller.FleetController`."""

from .trace import LOSS_BUCKETS, MTTF_HOURS, sample_loss_rates

__all__ = ["LOSS_BUCKETS", "MTTF_HOURS", "sample_loss_rates"]
