"""The hybrid splicing backend: analytic between losses, packet windows
around them.

``backend="hybrid"`` sits between ``packet`` (full event-driven
simulation) and ``fastpath`` (closed forms everywhere): flows advance
analytically through the loss-free bulk of a cell, and the packet engine
is instantiated only around the corruption events.  The three
``*_cell`` functions are the ``"hybrid"`` rows of
:data:`repro.runner.cells.CELLS`; unlike the fastpath batch there is no
cross-cell vectorization — each cell's windows are independent engine
runs — so they are ordinary per-cell rows and ride the process pool.
The per-kind split:

* **fct** — per-trial conditioning.  A flow of ``n`` data frames is
  loss-touched with probability ``p_any = 1 - (1-p)**n``; the hybrid
  backend de-noises the episode count (it simulates
  ``round(n_trials * p_any)`` affected trials, the analytic
  expectation) and runs *only those trials* through the real packet
  engine, with the drop placements materialized as
  :class:`~repro.phy.loss.DataFrameLoss` per-flow indices.  Clean
  trials all complete in the engine-measured clean FCT, taken from one
  template trial simulated in the same engine run — so the p50 is
  engine-exact and the tail comes from genuinely simulated recoveries.
  At fig10-style sparse-loss operating points (``p_any ~ 1e-3``) this
  simulates ~1 trial instead of hundreds.

* **stress** — episode windows from a warm snapshot, the only restores
  in the program (:mod:`repro.core.state`).  A template
  :func:`~repro.experiments.stress.stress_world` is warmed to steady
  state, quiesced, and snapshotted once; each sampled loss episode
  builds a fresh world around its own scripted drop (a restore leaves
  loss processes as built), restores that one snapshot into it,
  replays a line-rate injection window around the drop, and harvests
  the empirical retransmission delay and receiver-buffer peak.  Macro
  counters (N, effective loss/speed, event counts) come from the same
  closed forms as the fastpath backend — the windows supply the
  microdynamics the closed forms can only approximate.

* **goodput** — delegated to the fastpath analytic.  A Table-3
  transfer at these loss rates has losses *dense* across the whole
  2.5 MB (there is no loss-free bulk to skip), so windowing degenerates
  to a full packet run; the calibrated analytic model is the right
  middle tier there.

Cells the splicer cannot condition faithfully — the unprotected
``loss`` scenario (drop placements target LinkGuardian-stamped frames,
which a dormant link does not produce) and specs with parameters the
window harness does not model — fall back to a full packet run,
re-tagged ``hybrid``.  The fallback is byte-identical to the packet
backend for the same spec because ``grid_key`` excludes the backend, so
both derive the same per-cell seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.rng import RngFactory
from ..runner import CellResult, ExperimentSpec, RunContext, lg_config
from ..runner.cells import resolve
from ..units import GBPS, MS, MTU_FRAME, gbps, serialization_ns
from . import fct as fctmod
from . import model

__all__ = [
    "conditioned_placements", "fct_cell", "stress_cell", "goodput_cell",
]

#: stress params the window harness models; anything else → packet fallback.
_STRESS_PARAMS = {
    "duration_ms", "target_loss_rate", "recirc_drain_gbps", "mean_burst",
}

#: cap on simulated trials per fct cell: beyond this the conditioning no
#: longer saves work over the packet backend, so fall back honestly.
_MAX_AFFECTED = 512

#: windows sampled per stress cell; consecutive drop indices sweep the
#: drop's phase against the recirculation loop, which is what spreads the
#: engine's retransmission-delay distribution.
_MAX_WINDOWS = 16


# -- conditioned placement drawing ------------------------------------------

def _binomial_at_least_one(n: int, p: float, u: float) -> int:
    """Inverse-CDF draw of ``k ~ Binomial(n, p) | k >= 1``.

    Explicit pmf walk (n is a segment count, tens at most) so the draw
    consumes exactly one uniform — placements stay reproducible even if
    numpy's binomial sampling internals change.
    """
    p_any = -np.expm1(n * np.log1p(-p))
    if p_any <= 0.0:
        return 1
    cumulative = 0.0
    pmf = n * p * (1.0 - p) ** (n - 1)  # k = 1
    for k in range(1, n + 1):
        cumulative += pmf / p_any
        if u < cumulative:
            return k
        pmf *= (n - k) * p / ((k + 1) * (1.0 - p))
    return n


def conditioned_placements(
    n_frames: int,
    loss_rate: float,
    n_trials: int,
    rng: np.random.Generator,
) -> List[np.ndarray]:
    """Drop placements for the affected trials of one fct cell.

    Returns one sorted index array per affected trial — the expected
    (de-noised) number of them, ``round(n_trials * p_any)`` — with each
    trial's loss count drawn from ``Binomial(n, p) | >= 1`` and uniform
    positions among the flow's ``n_frames`` original data frames.
    """
    p = float(np.clip(loss_rate, 0.0, 1.0 - 1e-15))
    if p <= 0.0 or n_frames <= 0:
        return []
    p_any = -np.expm1(n_frames * np.log1p(-p))
    n_affected = min(n_trials, int(round(n_trials * p_any)))
    out = []
    for _ in range(n_affected):
        k = _binomial_at_least_one(n_frames, p, float(rng.random()))
        out.append(np.sort(rng.choice(n_frames, size=k, replace=False)))
    return out


# -- shared plumbing --------------------------------------------------------

def _packet_fallback(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """Run the cell's packet row, re-tagged as hybrid.

    ``grid_key`` excludes the backend, so the spec carries the exact
    seed a packet run of this cell would use — the metrics and series
    are byte-identical to ``backend="packet"``.
    """
    result = resolve(spec.kind, "packet")(spec.with_(backend="packet"), ctx)
    return CellResult.for_spec(spec, result.metrics, result.series)


# -- fct: conditioned trials ------------------------------------------------

def fct_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..analysis.stats import percentile
    from ..experiments.fct import run_fct_experiment
    from ..phy.loss import DataFrameLoss

    if spec.scenario == "loss":
        # Unprotected scenario: DataFrameLoss places drops on
        # LinkGuardian-stamped frames, which a dormant link never
        # produces — no conditioning handle, so simulate in full.
        return _packet_fallback(spec, ctx)

    loss_rate = spec.loss_rate if spec.scenario != "noloss" else 0.0
    n_frames = int(fctmod.segment_count(spec.flow_size, spec.transport))
    rng = RngFactory(spec.seed).stream("hybrid.fct")
    placements = conditioned_placements(
        n_frames, loss_rate, spec.n_trials, rng)
    if len(placements) > _MAX_AFFECTED:
        return _packet_fallback(spec, ctx)

    # Trial 0 (flow_id 1) is the clean template; affected trials follow
    # as flow_ids 2..n_affected+1, each with its conditioned placement.
    per_flow = {
        trial + 2: [int(i) for i in positions]
        for trial, positions in enumerate(placements)
    }
    window = run_fct_experiment(
        transport=spec.transport,
        flow_size=spec.flow_size,
        n_trials=len(placements) + 1,
        scenario=spec.scenario,
        rate_gbps=spec.rate_gbps,
        loss_rate=spec.loss_rate,
        seed=spec.seed,
        lg_config=lg_config(spec),
        loss=DataFrameLoss(per_flow=per_flow, rate=loss_rate),
        obs=ctx.obs,
        phases=ctx.phases,
        **spec.params,
    )
    template = window.records[0]
    if not template.completed:
        # The clean template must complete; if it cannot, the cell is
        # not in the regime the splicer models.
        return _packet_fallback(spec, ctx)

    affected_records = window.records[1:]
    affected_fcts = [
        r.fct_ns / 1e3 for r in affected_records if r.completed]
    n_clean = spec.n_trials - len(placements)
    fcts_us = np.concatenate([
        np.full(n_clean, template.fct_ns / 1e3),
        np.asarray(affected_fcts, dtype=np.float64),
    ])
    metrics = {
        "transport": spec.transport,
        "scenario": spec.scenario,
        "size": spec.flow_size,
        "trials": len(fcts_us),
        **{f"p{q:g}_us": percentile(fcts_us, q)
           for q in (50, 99, 99.9, 99.99)},
        "incomplete": window.incomplete,
        "affected": sum(
            1 for r in affected_records if r.retransmissions or r.timeouts),
        "simulated_trials": len(placements) + 1,
    }
    return CellResult.for_spec(spec, metrics, {"fcts_us": fcts_us.tolist()})


# -- stress: snapshot windows -----------------------------------------------

def _stress_world(spec: ExperimentSpec, config, loss=None):
    """The packet stress harness's world for ``spec``, built dormant:
    activation state rides in the template snapshot for window worlds;
    the template activates explicitly."""
    from ..experiments.stress import stress_world

    return stress_world(
        spec.rate_gbps, spec.scenario != "lgnb", spec.seed, config,
        loss=loss, recirc_drain_gbps=spec.params.get("recirc_drain_gbps"))


def _inject(testbed, spec: ExperimentSpec, n_frames: int, spacing: int):
    """Arm a line-rate MTU injection of ``n_frames`` frames from now."""
    from ..experiments.stress import STRESS_DST
    from ..packets.packet import Packet

    sim = testbed.sim
    state = {"sent": 0}

    def fire():
        if state["sent"] >= n_frames:
            return
        packet = Packet(size=MTU_FRAME, dst=STRESS_DST,
                        flow_id=state["sent"])
        state["sent"] += 1
        testbed.sender_switch.forward(packet)
        sim.schedule(spacing, fire)

    sim.schedule(0, fire)


def _quiesce_stress(testbed, deadline_ns: int = 2 * MS) -> None:
    """Run until the protected link is data-quiescent (snapshot-safe)."""
    sim, plink = testbed.sim, testbed.plink
    deadline = sim.now + deadline_ns
    while sim.now < deadline:
        sim.run(until=sim.now + 50_000)
        sender, receiver = plink.sender, plink.receiver
        if (sender.buffer_packets == 0 and not receiver._missing
                and not receiver._buffer and not receiver._draining):
            return
    raise RuntimeError("stress template failed to quiesce before snapshot")


def _window_drops(loss_rate: float, mean_burst: float, recovery_slots: int,
                  base_index: int, rng: np.random.Generator) -> set:
    """Drop indices for one window: a single loss, extended into a run
    the way the cell's loss process would extend it — geometric runs for
    Gilbert-Elliott, a recovery-window overlap draw for i.i.d. loss."""
    drops = {base_index}
    if mean_burst > 1.0:
        length = int(rng.geometric(1.0 / mean_burst))
        drops.update(base_index + offset for offset in range(length))
    else:
        p_overlap = -np.expm1(recovery_slots * np.log1p(-loss_rate))
        if rng.random() < p_overlap:
            drops.add(base_index + 1 + int(rng.integers(recovery_slots)))
    return drops


def stress_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    from ..analysis.stats import percentile
    from ..phy.loss import DataFrameLoss
    from .grid import _eval_stress

    if set(spec.params) - _STRESS_PARAMS:
        return _packet_fallback(spec, ctx)

    # Macro counters: the same closed forms as the fastpath backend (the
    # loss-free bulk *is* analytic — that is the splice).
    metrics = dict(_eval_stress([spec])[0])
    ordered = spec.scenario != "lgnb"
    loss_rate = spec.loss_rate
    expected_events = metrics["loss_events"]
    if loss_rate <= 0.0 or expected_events < 1.0:
        return CellResult.for_spec(spec, metrics, {"retx_delays_us": []})

    config = lg_config(spec)

    rate_bps = spec.rate_gbps * GBPS
    spacing = serialization_ns(MTU_FRAME, gbps(spec.rate_gbps))
    recovery_ns = float(model.recovery_latency_ns(
        rate_bps, config.recirc_loop_ns)["max"])
    recovery_slots = max(1, int(np.ceil(recovery_ns / spacing)))

    # Template: warm to steady state, quiesce, snapshot once.
    template = _stress_world(spec, config)
    template.plink.activate(loss_rate if loss_rate > 0 else 1e-4)
    warm_frames = max(64, 2 * recovery_slots)
    _inject(template, spec, warm_frames, spacing)
    template.sim.run(until=template.sim.now + warm_frames * spacing)
    _quiesce_stress(template)
    snap = template.plink.snapshot()
    delays_before = len(snap["receiver"]["stats"].retx_delays_ns)

    rng = RngFactory(spec.seed).stream("hybrid.stress")
    n_windows = min(_MAX_WINDOWS, max(6, int(round(expected_events))))
    delays_ns: List[float] = []
    rx_peak = 0.0
    for w in range(n_windows):
        # Consecutive indices sweep the drop's phase against the
        # recirculation loop; the offset keeps the first drops clear of
        # the window's ramp-in.
        base = 8 + w
        drops = _window_drops(
            loss_rate, float(spec.params.get("mean_burst", 1.0)),
            recovery_slots, base, rng)
        world = _stress_world(
            spec, config,
            loss=DataFrameLoss(drop_indices=drops, rate=loss_rate))
        world.plink.restore(snap)
        n_frames = max(drops) + 2 * recovery_slots + 16
        _inject(world, spec, n_frames, spacing)
        world.sim.run(until=world.sim.now + n_frames * spacing
                      + 4 * config.ack_no_timeout_ns + 200_000)
        receiver = world.plink.receiver
        delays_ns.extend(receiver.stats.retx_delays_ns[delays_before:])
        receiver.rx_occupancy.finish(world.sim.now)
        rx_peak = max(rx_peak, receiver.rx_occupancy.summary()["max"])

    delays_us = [d / 1e3 for d in delays_ns]
    if delays_us:
        metrics["retx_min_us"] = min(delays_us)
        metrics["retx_p50_us"] = percentile(delays_us, 50)
        metrics["retx_max_us"] = max(delays_us)
    if ordered and rx_peak > 0.0:
        metrics["rx_buf_max_KB"] = rx_peak / 1e3
    metrics["windows"] = n_windows
    return CellResult.for_spec(spec, metrics, {"retx_delays_us": delays_us})


# -- goodput: analytic delegation -------------------------------------------

def goodput_cell(spec: ExperimentSpec, ctx: RunContext) -> CellResult:
    """Goodput delegates to the fastpath analytic (see module docstring:
    Table-3 transfers have no loss-free bulk to splice across)."""
    from .grid import _eval_goodput

    return CellResult.for_spec(spec, _eval_goodput([spec])[0])
