"""Seeded schedule fuzzing with delta-debugging shrinking.

:func:`run_fuzz` draws random fault scenarios (targeted drops across
every packet class, link flaps, background Gilbert–Elliott bursts,
seqNo spaces seeded next to the 16-bit era wrap, mid-stream NB
switches) and runs each under the invariant checker.  Everything
derives from one seed through named
:class:`~repro.core.rng.RngFactory` streams, so a failing trial is
reproducible from ``(seed, trial)`` alone.

When a trial violates an invariant, :func:`shrink_drops` reduces its
drop schedule to a minimal reproducing set with the classic ddmin
algorithm (Zeller & Hildebrandt, "Simplifying and Isolating
Failure-Inducing Input").  Only the targeted-drop atoms are shrunk;
flaps, background loss, and NB switches are structural context and are
kept fixed.  The result is a canonical-JSON artifact that
:func:`replay_artifact` re-runs and compares byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..core.rng import RngFactory
from ..packets.seqno import SEQ_RANGE
from ..runner import CellResult, ExperimentSpec, RunContext
from ..units import US
from .scenarios import CheckConfig, CheckOutcome, FaultScenario, run_scenario

__all__ = [
    "ARTIFACT_VERSION", "FuzzResult", "ReplayResult",
    "random_scenario", "run_fuzz", "shrink_drops", "build_artifact",
    "canonical_json", "artifact_inputs", "replay_artifact", "checker_cell",
]

ARTIFACT_VERSION = 1

#: default ddmin re-run budget — each probe is a full simulation
DEFAULT_SHRINK_BUDGET = 80


def canonical_json(data: dict) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


@dataclass
class FuzzResult:
    """Outcome of one fuzzing campaign."""

    seed: int
    trials: int
    #: ``{"trial": t, "scenario": ..., "counts": ...}`` per failing trial
    failures: List[Dict] = field(default_factory=list)
    #: shrunk counterexample for the first failure (None when clean)
    artifact: Optional[Dict] = None
    #: total simulations executed (trials + shrink probes)
    runs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "ok": self.ok,
            "failures": self.failures,
            "artifact": self.artifact,
            "runs": self.runs,
        }


@dataclass
class ReplayResult:
    """Outcome of re-running a stored counterexample artifact."""

    outcome: CheckOutcome
    artifact: Dict
    rebuilt: Dict
    byte_identical: bool

    def to_dict(self) -> dict:
        return {
            "byte_identical": self.byte_identical,
            "violations": [v.to_dict() for v in self.outcome.violations],
            "counts": self.outcome.counts,
        }


def random_scenario(rng, config: CheckConfig) -> Tuple[FaultScenario, CheckConfig]:
    """Draw one adversarial scenario + per-trial config tweaks.

    ``rng`` is a ``numpy.random.Generator``; every shape decision comes
    from it so the trial is a pure function of its stream.
    """
    cfg = CheckConfig.from_dict(config.to_dict())
    cfg.n_packets = int(rng.integers(200, 321))
    # Half the trials start the seqNo space just below the wrap so the
    # stream crosses an era boundary while faults are in flight (§3.5).
    if rng.random() < 0.5:
        cfg.seq_start = int(SEQ_RANGE - rng.integers(8, 65))
    cfg.ordered = bool(rng.random() < 0.75)
    if rng.random() < 0.4:
        cfg.control_copies = 2
    lg = dict(cfg.lg)
    if rng.random() < 0.3:
        # Small resume threshold so backpressure actually engages.
        lg["resume_threshold_bytes"] = 2000
    cfg.lg = lg

    drops: List[Dict] = []
    # 0-3 bursts of consecutive original-data drops (corruption bursts).
    for _ in range(int(rng.integers(0, 4))):
        start = int(rng.integers(0, max(1, cfg.n_packets - 8)))
        for offset in range(int(rng.integers(1, 8))):
            drops.append({"kind": "data", "index": start + offset})
    # Boundary targeting: when the stream crosses the era wrap, usually
    # aim a burst at the wrap frame itself — the drop position where the
    # era correction (§3.5) is the only thing keeping the frontier alive.
    if cfg.seq_start and rng.random() < 0.6:
        wrap_index = SEQ_RANGE - cfg.seq_start - 1
        if 0 <= wrap_index < cfg.n_packets:
            start = max(0, wrap_index - int(rng.integers(0, 3)))
            for offset in range(int(rng.integers(1, 5))):
                drops.append({"kind": "data", "index": start + offset})
    if rng.random() < 0.3:
        drops.append({"kind": "retx", "index": int(rng.integers(0, 6))})
    if rng.random() < 0.3:
        drops.append({"kind": "dummy", "index": int(rng.integers(0, 4))})
    if rng.random() < 0.25:
        drops.append({"kind": "notif", "index": int(rng.integers(0, 4))})
    # Dropping pause/resume with control_copies=1 can legitimately wedge
    # the link (the paper relies on duplicated control packets, §3.4),
    # so only drop one of the duplicated copies.
    if cfg.control_copies == 2:
        if rng.random() < 0.2:
            drops.append({"kind": "pause", "index": 0})
        if rng.random() < 0.2:
            drops.append({"kind": "resume", "index": 0})
    # De-duplicate (kind, index) pairs from overlapping bursts.
    unique = {(d["kind"], d["index"]): d for d in drops}
    drops = [unique[key] for key in sorted(unique)]

    flaps: List[Dict] = []
    if rng.random() < 0.2:
        flaps.append({
            "at_frame": int(rng.integers(10, 200)),
            "frames": int(rng.integers(2, 12)),
        })

    nb_switch_ns = None
    if cfg.ordered and rng.random() < 0.2:
        nb_switch_ns = int(rng.integers(5, 31)) * US

    ge = None
    if rng.random() < 0.25:
        ge = {"rate": 5e-4, "mean_burst": 1.35}

    scenario = FaultScenario(
        name="fuzz", drops=drops, flaps=flaps, ge=ge,
        nb_switch_ns=nb_switch_ns,
    )
    return scenario, cfg


def shrink_drops(
    config: CheckConfig,
    scenario: FaultScenario,
    target_invariants: List[str],
    budget: int = DEFAULT_SHRINK_BUDGET,
    on_run: Optional[Callable[[], None]] = None,
) -> Tuple[FaultScenario, int]:
    """ddmin over the drop atoms: smallest subset still violating.

    Returns ``(shrunk_scenario, runs_used)``.  A subset "reproduces"
    when re-running it breaches any invariant in ``target_invariants``.
    """
    targets = set(target_invariants)
    runs = 0

    def reproduces(atoms: List[Tuple[str, int]]) -> bool:
        nonlocal runs
        runs += 1
        if on_run is not None:
            on_run()
        outcome = run_scenario(scenario.with_drops(atoms), config)
        return any(name in targets for name in outcome.counts)

    atoms = scenario.drop_atoms()
    if not atoms:
        return scenario, 0

    granularity = 2
    while len(atoms) >= 2 and runs < budget:
        chunk = max(1, len(atoms) // granularity)
        subsets = [atoms[i:i + chunk] for i in range(0, len(atoms), chunk)]
        reduced = False
        for i, subset in enumerate(subsets):
            if runs >= budget:
                break
            complement = [a for j, s in enumerate(subsets) if j != i for a in s]
            if subset != atoms and reproduces(subset):
                atoms, granularity, reduced = subset, 2, True
                break
            if complement and complement != atoms and reproduces(complement):
                atoms = complement
                granularity, reduced = max(granularity - 1, 2), True
                break
        if not reduced:
            if granularity >= len(atoms):
                break
            granularity = min(len(atoms), granularity * 2)
    # Final pass: single-atom minimum if the budget allows.
    if len(atoms) > 1 and runs < budget:
        for atom in list(atoms):
            if runs >= budget:
                break
            if reproduces([atom]):
                atoms = [atom]
                break
    return scenario.with_drops(atoms), runs


def build_artifact(
    seed: int,
    trial: int,
    config: CheckConfig,
    scenario: FaultScenario,
    outcome: CheckOutcome,
    original_drops: int,
    shrink_runs: int,
) -> Dict:
    return {
        "version": ARTIFACT_VERSION,
        "seed": seed,
        "trial": trial,
        "config": config.to_dict(),
        "scenario": scenario.to_dict(),
        "counts": {
            "original_drops": original_drops,
            "shrunk_drops": len(scenario.drop_atoms()),
            "shrink_runs": shrink_runs,
        },
        "violations": [v.to_dict() for v in outcome.violations],
    }


def run_fuzz(
    seed: int,
    trials: int,
    base: Optional[CheckConfig] = None,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_SHRINK_BUDGET,
    progress: Optional[Callable[[int, bool], None]] = None,
) -> FuzzResult:
    """Run ``trials`` random scenarios; shrink the first failure found."""
    base = base if base is not None else CheckConfig()
    factory = RngFactory(seed)
    result = FuzzResult(seed=seed, trials=trials)
    for trial in range(trials):
        rng = factory.stream(f"checker.trial.{trial}")
        scenario, config = random_scenario(rng, base)
        config.seed = seed * 100003 + trial
        outcome = run_scenario(scenario, config)
        result.runs += 1
        failed = not outcome.ok
        if progress is not None:
            progress(trial, failed)
        if not failed:
            continue
        result.failures.append({
            "trial": trial,
            "scenario": scenario.to_dict(),
            "config": config.to_dict(),
            "counts": outcome.counts,
        })
        if shrink and result.artifact is None:
            shrunk, runs = shrink_drops(
                config, scenario, list(outcome.counts), budget=shrink_budget)
            result.runs += runs
            final = run_scenario(shrunk, config)
            result.runs += 1
            result.artifact = build_artifact(
                seed, trial, config, shrunk, final,
                original_drops=len(scenario.drop_atoms()),
                shrink_runs=runs,
            )
    return result


def artifact_inputs(artifact: Dict) -> Tuple[CheckConfig, FaultScenario]:
    """The config and scenario a stored counterexample re-runs; a foreign
    or malformed artifact raises ``ValueError``."""
    if not isinstance(artifact, dict):
        raise ValueError("a checker artifact is a JSON object")
    if artifact.get("version") != ARTIFACT_VERSION:
        raise ValueError(
            f"unsupported artifact version {artifact.get('version')!r}"
        )
    return (CheckConfig.from_dict(artifact["config"]),
            FaultScenario.from_dict(artifact["scenario"]))


def replay_artifact(artifact: Dict) -> ReplayResult:
    """Re-run a stored counterexample and check byte-identity."""
    config, scenario = artifact_inputs(artifact)
    outcome = run_scenario(scenario, config)
    rebuilt = build_artifact(
        artifact["seed"], artifact["trial"], config, scenario, outcome,
        original_drops=artifact["counts"]["original_drops"],
        shrink_runs=artifact["counts"]["shrink_runs"],
    )
    identical = canonical_json(rebuilt) == canonical_json(artifact)
    return ReplayResult(
        outcome=outcome, artifact=artifact, rebuilt=rebuilt,
        byte_identical=identical,
    )


def checker_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """Conformance checking as a runner cell (the ``("checker", "packet")``
    row of :data:`repro.runner.cells.CELLS`).

    With ``spec.params["scenario"]`` present, runs that one fault
    scenario under the invariant checker; otherwise fuzzes
    ``spec.n_trials`` random scenarios from ``spec.seed``.  Base config
    tweaks ride in ``spec.params["check"]``; ``spec.lg`` overrides the
    LinkGuardian config either way.
    """
    check = dict(spec.params.get("check", {}))
    if spec.lg:
        check["lg"] = {**check.get("lg", {}), **spec.lg}
    check.setdefault("rate_gbps", spec.rate_gbps)
    base = CheckConfig.from_dict(check)

    if "scenario" in spec.params:
        scenario = FaultScenario.from_dict(spec.params["scenario"])
        base.seed = spec.seed
        outcome = run_scenario(scenario, base, obs=ctx.obs)
        metrics = {
            "ok": outcome.ok,
            "completed": outcome.completed,
            "violations": sum(outcome.counts.values()),
            "invariants_breached": len(outcome.counts),
            "n_copies": outcome.n_copies,
        }
        series = {"violations": [v.to_dict() for v in outcome.violations]}
        return CellResult.for_spec(spec, metrics, series)

    fuzz = run_fuzz(
        seed=spec.seed,
        trials=spec.n_trials,
        base=base,
        shrink=bool(spec.params.get("shrink", True)),
    )
    metrics = {
        "ok": fuzz.ok,
        "trials": fuzz.trials,
        "failures": len(fuzz.failures),
        "runs": fuzz.runs,
    }
    series = {"failures": fuzz.failures}
    if fuzz.artifact is not None:
        series["artifact"] = [fuzz.artifact]
    return CellResult.for_spec(spec, metrics, series)
