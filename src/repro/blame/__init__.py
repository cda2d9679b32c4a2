"""Fleet-scale corruption localization from flow-level evidence (007).

``repro.blame`` localizes the corrupting link *without oracle port
counters*, the way 007 (PAPERS.md) does it — democratically, from what
transport senders already know:

* :mod:`~repro.blame.evidence` — per-flow retransmission reports with a
  configurable telemetry-loss model (each report survives with
  probability ``coverage``), deterministic per flow index;
* :mod:`~repro.blame.paths` — 5-tuple-hashed ECMP path inference over
  the Clos fabric, so every consumer reconstructs the same path;
* :mod:`~repro.blame.voting` — flagged flows split one vote across
  their path links; explain-away ranking into a :class:`BlameReport`,
  scored against ground truth (precision / recall / top-1);
* :mod:`~repro.blame.adapter` — :class:`BlameMonitor` emits the same
  onset/clear signals as counter-based corruptd, so the
  FleetController, lifecycle replay, and the control-plane service run
  with ``evidence="voting"`` unchanged.

Quickstart::

    from repro.blame import BlameEvalSpec, evaluate_blame

    metrics = evaluate_blame(BlameEvalSpec(coverage=0.5, n_trials=20))
    print(metrics["top1_accuracy"], metrics["precision"])
"""

from .adapter import BlameMonitor, decision_signature, run_oracle, run_voting
from .evidence import (
    EvidenceSpec, FlowReport, LossOracle, flow_flag_probability,
    harvest_evidence, iter_reports, parse_flow_report,
)
from .paths import ecmp_path, flow_endpoints
from .voting import (
    BlameEvalSpec, BlameReport, LinkScore, evaluate_blame, invert_flow_loss,
    tally_votes,
)

__all__ = [
    "BlameMonitor", "decision_signature", "run_oracle", "run_voting",
    "EvidenceSpec", "FlowReport", "LossOracle",
    "flow_flag_probability", "harvest_evidence", "iter_reports",
    "parse_flow_report",
    "ecmp_path", "flow_endpoints",
    "BlameEvalSpec", "BlameReport", "LinkScore", "evaluate_blame",
    "invert_flow_loss", "tally_votes",
]
