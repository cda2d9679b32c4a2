#!/usr/bin/env python3
"""Fleet-scale repair planning: CorrOpt alone vs LinkGuardian + CorrOpt.

The paper's §4.8 deployment study: on a Facebook-fabric topology, links
start corrupting following the Appendix D trace model; CorrOpt disables
a corrupting link for repair only when the capacity constraint (minimum
fraction of ToR-to-spine paths) survives.  Links it cannot disable keep
hurting traffic — unless LinkGuardian masks them at a small effective-
speed cost.

This example runs both policies for 120 simulated days on a reduced
fabric and prints the headline numbers behind Figures 15 and 16.

Run:  python examples/datacenter_repair_planning.py
"""

import numpy as np

from repro.experiments.deployment import (
    capacity_decrease, penalty_gain, run_deployment_comparison,
)


def main() -> None:
    for constraint in (0.50, 0.75):
        comparison = run_deployment_comparison(
            capacity_constraint=constraint,
            n_pods=6, tors_per_pod=12, fabrics_per_pod=4, spine_uplinks=12,
            duration_days=120, mttf_hours=2_000,  # accelerated aging
            seed=17,
        )
        gain = penalty_gain(comparison.series())
        decrease = capacity_decrease(comparison.series())
        summary = comparison.summary()
        print(f"capacity constraint {constraint:.0%}  "
              f"({comparison.vanilla.corruption_events} corruption events)")
        print(f"  penalty (mean): CorrOpt {comparison.vanilla.total_penalty.mean():.3e}"
              f"  vs  +LinkGuardian {comparison.combined.total_penalty.mean():.3e}")
        print(f"  gain in total penalty: median {np.median(gain):.1e}, "
              f"p90 {np.percentile(gain, 90):.1e} "
              f"(no gain {summary['fraction_no_gain']:.0%} of the time)")
        print(f"  links blocked from repair: CorrOpt {summary['vanilla_blocked']}, "
              f"combined {summary['combined_blocked']}")
        print(f"  cost: worst-case pod capacity decrease "
              f"{decrease.max():.2f}% (paper: ~0.22%)")
        print(f"  concurrent LinkGuardian links: max {summary['max_lg_links']} "
              f"({summary['max_lg_links_per_pod']} per pod; paper expects 2-4)\n")


if __name__ == "__main__":
    main()
