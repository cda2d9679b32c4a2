"""Batch evaluation: lists of ExperimentSpecs → vectorized cell metrics.

The grid layer is the glue between the runner's per-cell specs and the
array-oriented models in :mod:`~repro.fastpath.model` /
:mod:`~repro.fastpath.fct`.  Its three public functions are the
``"fastpath"`` rows of :data:`repro.runner.cells.CELLS`, all marked
``batch``: each takes every pending cell of its kind at once, groups
them by ``(transport, scenario)``, packs each group's knobs into NumPy
arrays, evaluates the group in one model call, and unpacks the rows
back into :class:`~repro.runner.harness.CellResult` objects whose metric
names mirror the packet backend's — the cross-validation harness and the
report tables never need to know which backend produced a row.  A
thousand-cell sweep is a handful of NumPy calls rather than a process
pool.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..runner import CellResult, ExperimentSpec, RunContext, lg_config
from ..units import GBPS, MTU_FRAME, SEC
from . import fct as fctmod
from . import model

__all__ = ["fct_cells", "goodput_cells", "stress_cells"]


def _config_arrays(specs: Sequence[ExperimentSpec]) -> Dict[str, np.ndarray]:
    configs = [lg_config(s) for s in specs]
    return {
        "recirc_loop_ns": np.array(
            [c.recirc_loop_ns for c in configs], dtype=np.float64),
        "resume_bytes": np.array(
            [c.resume_threshold_bytes for c in configs], dtype=np.float64),
        "pause_bytes": np.array(
            [c.pause_threshold_bytes for c in configs], dtype=np.float64),
        "target": np.array(
            [c.target_loss_rate for c in configs], dtype=np.float64),
        "max_consecutive": np.array(
            [c.max_consecutive_retx for c in configs], dtype=np.float64),
        "dummy_copies": np.array(
            [c.dummy_copies for c in configs], dtype=np.float64),
    }


def _base_arrays(specs: Sequence[ExperimentSpec]) -> Dict[str, np.ndarray]:
    return {
        "loss": np.array([s.loss_rate for s in specs], dtype=np.float64),
        "size": np.array([s.flow_size for s in specs], dtype=np.float64),
        "rate_bps": np.array(
            [s.rate_gbps * GBPS for s in specs], dtype=np.float64),
        "trials": np.array([s.n_trials for s in specs], dtype=np.float64),
    }


def _eval_fct(specs: Sequence[ExperimentSpec]) -> List[Dict]:
    arrays = _base_arrays(specs)
    cfg = _config_arrays(specs)
    transport = specs[0].transport
    scenario = specs[0].scenario
    loss = arrays["loss"] if scenario != "noloss" else np.zeros_like(
        arrays["loss"])
    quantiles = fctmod.fct_quantiles_us(
        arrays["size"], transport, scenario, loss, arrays["rate_bps"],
        cfg["recirc_loop_ns"])
    affected = fctmod.affected_expected(
        arrays["size"], transport, scenario, loss, arrays["trials"])
    rows = []
    for i, spec in enumerate(specs):
        rows.append({
            "transport": transport,
            "scenario": scenario,
            "size": spec.flow_size,
            "trials": spec.n_trials,
            **{name: float(values[i]) for name, values in quantiles.items()},
            "incomplete": 0,
            "affected": float(affected[i]),
        })
    return rows


def _eval_goodput(specs: Sequence[ExperimentSpec]) -> List[Dict]:
    arrays = _base_arrays(specs)
    cfg = _config_arrays(specs)
    scheme = specs[0].scenario
    transfer = np.array(
        [s.params.get("transfer_bytes", 2_500_000) for s in specs],
        dtype=np.float64)
    goodput = fctmod.goodput_gbps(
        scheme, arrays["loss"], arrays["rate_bps"], transfer,
        cfg["recirc_loop_ns"], cfg["resume_bytes"], cfg["pause_bytes"],
        target_loss_rate=cfg["target"])
    expected_losses = arrays["loss"] * np.ceil(transfer / fctmod.TCP_MSS)
    rows = []
    for i, spec in enumerate(specs):
        rows.append({
            "scheme": scheme,
            "loss_rate": spec.loss_rate,
            "goodput_gbps": float(goodput[i]),
            "completed": True,
            "retransmissions": float(expected_losses[i]),
            "timeouts": 0,
        })
    return rows


def _eval_stress(specs: Sequence[ExperimentSpec]) -> List[Dict]:
    arrays = _base_arrays(specs)
    cfg = _config_arrays(specs)
    ordered = specs[0].scenario != "lgnb"
    loss = arrays["loss"]
    rate = arrays["rate_bps"]
    target = cfg["target"]
    duration_ns = np.array(
        [s.params.get("duration_ms", 10.0) * 1e6 for s in specs],
        dtype=np.float64)
    drain = np.array(
        [s.params.get("recirc_drain_gbps", max(s.rate_gbps, 100.0)) * GBPS
         for s in specs], dtype=np.float64)

    n_copies = model.retx_copies(np.where(loss > 0.0, loss, 1e-4), target)
    eff_loss = model.effective_loss(
        loss, n_copies, cfg["max_consecutive"], cfg["dummy_copies"])
    speed = model.effective_speed_fraction(
        loss, n_copies, rate, cfg["recirc_loop_ns"], cfg["resume_bytes"],
        cfg["pause_bytes"], ordered=ordered, recirc_drain_bps=drain)
    buffer = model.reorder_buffer_model(
        rate, loss, cfg["recirc_loop_ns"], cfg["resume_bytes"],
        cfg["pause_bytes"], recirc_drain_bps=drain)
    retx = model.recovery_latency_ns(rate, cfg["recirc_loop_ns"])

    slot_ns = model.ser_ns(MTU_FRAME, rate)
    slots = duration_ns / slot_ns
    # data slots: the line also carries the N copies per loss event.
    injected = slots * (1.0 - n_copies * loss)
    loss_events = loss * injected
    timeouts = eff_loss * injected
    # the sender's retransmit store holds ~one recirculation loop of
    # line rate; calibrated shape factor against the Figure 14 peaks.
    tx_peak = 0.68 * rate / (8.0 * SEC) * cfg["recirc_loop_ns"]

    rows = []
    for i, spec in enumerate(specs):
        rows.append({
            "link": f"{spec.rate_gbps:g}G",
            "loss": spec.loss_rate,
            "mode": "LG" if ordered else "LG_NB",
            "N": int(n_copies[i]),
            "eff_loss(meas)": float(eff_loss[i]),
            "eff_loss(expect)": float(loss[i] ** (n_copies[i] + 1.0)),
            "eff_speed_%": float(100.0 * speed[i]),
            "tx_buf_max_KB": float(tx_peak[i] / 1e3),
            # non-blocking delivery holds nothing: the engine's LG_NB
            # receiver forwards out of order, rx buffer stays empty.
            "rx_buf_max_KB": float(buffer["peak_bytes"][i] / 1e3)
            if ordered else 0.0,
            "injected": float(injected[i]),
            "delivered": float(injected[i] * (1.0 - eff_loss[i])),
            "loss_events": float(loss_events[i]),
            "recovered": float(loss_events[i] - timeouts[i]),
            "timeouts": float(timeouts[i]),
            "retx_min_us": float(retx["min"][i] / 1e3),
            "retx_p50_us": float(retx["p50"][i] / 1e3),
            "retx_max_us": float(retx["max"][i] / 1e3),
            "pause_probability": float(buffer["pause_probability"][i])
            if ordered else 0.0,
        })
    return rows


def _analytic_timeline(result: CellResult) -> dict:
    """A degenerate one-sample timeline for an analytic cell.

    The fastpath has no simulated clock to sample on, so the flight
    recorder collapses to a single snapshot of the cell's scalar metrics
    at t=0 — same schema as the packet backend's recorder, so downstream
    timeline readers need no backend special-casing.
    """
    metrics = {
        name: [int(value) if isinstance(value, bool) else value]
        for name, value in sorted(result.metrics.items())
        if isinstance(value, (int, float))
    }
    return {
        "interval_ns": 1,
        "capacity": 1,
        "sampled": 1,
        "dropped": 0,
        "run": [1],
        "ts_ns": [0],
        "metrics": metrics,
    }


def _batch(evaluate: Callable[[Sequence[ExperimentSpec]], List[Dict]]):
    """Lift a per-group evaluator to a ``batch`` cell function:
    ``cell(specs, ctx) -> [CellResult]`` in input order, one vectorized
    ``evaluate`` call per ``(transport, scenario)`` group."""
    def cells(specs: Sequence[ExperimentSpec],
              ctx: RunContext) -> List[CellResult]:
        groups: Dict[Tuple[str, str], List[int]] = {}
        for index, spec in enumerate(specs):
            groups.setdefault(
                (spec.transport, spec.scenario), []).append(index)
        results: List[CellResult] = [None] * len(specs)  # type: ignore[list-item]
        for indices in groups.values():
            members = [specs[i] for i in indices]
            for index, metrics in zip(indices, evaluate(members)):
                result = CellResult.for_spec(specs[index], metrics)
                if specs[index].obs.get("timeline"):
                    result.artifacts["timeline"] = _analytic_timeline(result)
                results[index] = result
        return results
    return cells


fct_cells = _batch(_eval_fct)
goodput_cells = _batch(_eval_goodput)
stress_cells = _batch(_eval_stress)
