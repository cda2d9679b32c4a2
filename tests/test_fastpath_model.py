"""Anchor regressions for the fastpath analytic models.

Two kinds of pinning keep the vectorized models honest:

* scalar agreement — the array functions must reproduce the repo's
  scalar reference implementations (``repro.units``,
  ``repro.linkguardian.config``) elementwise;
* engine anchors — the clean-path FCT arithmetic and the recovery-delay
  endpoints were calibrated against the packet engine; the calibration
  constants are asserted here so a drive-by edit cannot silently
  decalibrate the backend (the full cross-validation lives in
  ``test_fastpath_validate.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fastpath import fct as fctmod
from repro.fastpath import model
from repro.linkguardian import config as lgconfig
from repro.units import GBPS, MTU_FRAME, serialization_ns

class TestScalarAgreement:
    def test_ser_ns_matches_units(self):
        rng = np.random.default_rng(11)
        frames = rng.integers(1, 9200, size=200)
        rates = rng.choice([10, 25, 40, 100], size=200) * GBPS
        vec = model.ser_ns(frames, rates)
        for frame, rate, got in zip(frames, rates, vec):
            assert got == serialization_ns(int(frame), int(rate))

    def test_retx_copies_matches_config(self):
        rng = np.random.default_rng(12)
        losses = 10.0 ** rng.uniform(-6, np.log10(0.05), size=300)
        for target in (1e-6, 1e-8, 1e-10):
            vec = model.retx_copies(losses, target)
            for p, got in zip(losses, vec):
                assert got == lgconfig.retx_copies(float(p), target)

    def test_retx_copies_degenerate(self):
        vec = model.retx_copies(np.array([0.0, 1e-9, 5e-9]), 1e-8)
        assert vec.tolist() == [1.0, 1.0, 1.0]

    def test_one_implementation(self):
        # Eq. 2 lives in linkguardian.config; the fastpath re-exports it
        assert model.retx_copies is lgconfig.retx_copies
        assert isinstance(lgconfig.retx_copies(1e-3), int)
        for bad in (1.0, 1.5, np.array([1e-3, 1.0])):
            with pytest.raises(ValueError):
                lgconfig.retx_copies(bad)
        for bad_target in (0.0, 1.0):
            with pytest.raises(ValueError):
                lgconfig.retx_copies(1e-3, bad_target)

    @pytest.mark.parametrize("n", [1, 7, 744, 20_000])
    def test_ge_affected_array_call_equals_scalar_calls(self, n):
        """The lifecycle replay evaluates every episode's analytic
        fraction in one array call; the values are golden, so the array
        form must equal the per-episode scalar calls bit for bit."""
        rng = np.random.default_rng(16)
        losses = np.clip(10.0 ** rng.uniform(-8, -1.8, size=n), 1e-7, 1e-2)
        bursts = np.exp(rng.uniform(0.0, np.log(2.0), size=n))
        for packets in (1, 100, 1460):
            vec = model.ge_affected_fraction(
                losses.tolist(), bursts.tolist(), packets).tolist()
            assert vec == [
                float(model.ge_affected_fraction(p, b, packets))
                for p, b in zip(losses.tolist(), bursts.tolist())]

    def test_interp_log_loss_table_is_built_once_and_changes_nothing(self):
        def rebuilt_per_call(loss_rate, points):     # the pre-table body
            p = np.asarray(loss_rate, dtype=np.float64)
            xs = np.log10([x for x, _ in points])
            ys = np.asarray([y for _, y in points], dtype=np.float64)
            safe = np.log10(np.clip(p, 10.0 ** xs[0], 10.0 ** xs[-1]))
            return np.where(p <= 0.0, ys[0], np.interp(safe, xs, ys))

        from repro.fleet.cost import FIG8_POINTS

        rng = np.random.default_rng(17)
        rates = np.concatenate([10.0 ** rng.uniform(-9, 0, size=20_000),
                                [0.0, -1.0, 1.0, 1e-6, 1e-3, 1e-2]])
        for points in (FIG8_POINTS, fctmod.NONE_DEGRADATION,
                       fctmod.LGNB_PENALTY, [[1e-3, 1.0], [1e-2, 0.5]]):
            assert np.array_equal(model.interp_log_loss(rates, points),
                                  rebuilt_per_call(rates, points))
            for rate in rates[:500].tolist() + [0.0, -1.0, 1.0]:
                got = model.interp_log_loss(rate, points)
                want = rebuilt_per_call(rate, points)
                assert got == want and got.shape == want.shape == ()
        hits = model._log_loss_table.cache_info().hits
        model.interp_log_loss(1e-4, FIG8_POINTS)
        assert model._log_loss_table.cache_info().hits == hits + 1

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.lists(st.floats(1e-12, 1.0, exclude_min=True, exclude_max=True),
                   min_size=1, max_size=8),
        target=st.floats(1e-12, 1e-2, exclude_min=True, exclude_max=True),
    )
    def test_scalar_and_array_agree(self, p, target):
        """Eq. 1-2 give the same N and the same residual loss whether a
        cell is priced alone (planner, packet tier) or in a grid."""
        losses = np.asarray(p)
        copies = lgconfig.retx_copies(losses, target)
        residual = lgconfig.expected_effective_loss(losses, copies)
        for loss, n, eff in zip(p, copies, residual):
            scalar_n = lgconfig.retx_copies(loss, target)
            assert scalar_n == n and scalar_n >= 1
            # (libm's scalar pow and NumPy's vector pow may differ by an ulp)
            assert lgconfig.expected_effective_loss(loss, scalar_n) \
                == pytest.approx(eff, rel=1e-12)
            # Eq. 1 holds, and N is the smallest count for which it does
            assert eff <= max(target, loss ** 2) * (1 + 1e-9)
            if scalar_n > 1:
                assert loss ** scalar_n > target * (1 - 1e-9)

    def test_effective_loss_base_term(self):
        """Below the register-overflow regime the correction is tiny and
        Eq. 1 dominates — the documented 2% eff_loss tolerance."""
        rng = np.random.default_rng(13)
        losses = 10.0 ** rng.uniform(-5, np.log10(0.02), size=200)
        copies = model.retx_copies(losses, 1e-8)
        got = model.effective_loss(losses, copies)
        for p, n, value in zip(losses, copies, got):
            base = lgconfig.expected_effective_loss(float(p), int(n))
            # correction only adds loss (modulo one-ulp pow noise)
            assert value >= base * (1.0 - 1e-12)
            assert abs(value - base) / base <= 0.02

    def test_effective_loss_correction_regime(self):
        # A run longer than max_consecutive_retx overflows the registers:
        # the correction term is p**(K+1+D) * (1 - p**N).
        p, n = 0.1, 3.0
        expected = p ** 4 + p ** 7 * (1 - p ** 3)
        assert model.effective_loss(p, n) == pytest.approx(expected)

    def test_effective_loss_monotone_in_loss(self):
        losses = np.linspace(1e-4, 0.05, 50)
        values = model.effective_loss(losses, 2.0)
        assert np.all(np.diff(values) > 0)


class TestEngineAnchors:
    # Engine-measured ReTx delay endpoints (Figure 19 shape): the
    # recovery-delay distribution is U(fixed, fixed + recirc_loop) with
    # fixed = 990 ns + 2 serializations.
    ANCHORS_US = {25.0: (1.976, 3.976, 5.976), 100.0: (1.238, 2.988, 4.738)}

    @pytest.mark.parametrize("rate_gbps", [25.0, 100.0])
    def test_recovery_latency_engine_endpoints(self, rate_gbps):
        recirc = lgconfig.LinkGuardianConfig.for_link_speed(
            rate_gbps).recirc_loop_ns
        rec = model.recovery_latency_ns(rate_gbps * GBPS, recirc)
        lo, mid, hi = self.ANCHORS_US[rate_gbps]
        assert rec["min"] / 1e3 == pytest.approx(lo, rel=1e-3)
        assert rec["p50"] / 1e3 == pytest.approx(mid, rel=1e-3)
        assert rec["max"] / 1e3 == pytest.approx(hi, rel=1e-3)
        assert rec["mean"] == rec["p50"]  # uniform distribution

    def test_recovery_latency_scalar_recomputation(self):
        rng = np.random.default_rng(14)
        rates = rng.choice([10, 25, 40, 100], size=50) * GBPS
        loops = rng.integers(1000, 8000, size=50)
        rec = model.recovery_latency_ns(rates, loops)
        for rate, loop, lo, hi in zip(rates, loops, rec["min"], rec["max"]):
            fixed = model.RETX_PATH_FIXED_NS + 2 * serialization_ns(
                MTU_FRAME, int(rate))
            assert lo == pytest.approx(fixed)
            assert hi == pytest.approx(fixed + loop)

    @pytest.mark.parametrize("transport,rate_gbps", [
        ("dctcp", 25.0), ("dctcp", 100.0), ("rdma", 25.0), ("rdma", 100.0),
    ])
    def test_clean_fct_matches_engine(self, transport, rate_gbps):
        """The exact-arithmetic claim: noloss FCT within 0.3% of the
        engine for single-segment, multi-segment and multi-window flows."""
        from repro.experiments.fct import run_fct_experiment

        for flow_size in (143, 1460, 24_387):
            result = run_fct_experiment(
                transport=transport, flow_size=flow_size, n_trials=3,
                scenario="noloss", rate_gbps=rate_gbps, seed=1)
            engine_us = float(np.median(result.fcts_us))
            model_us = float(fctmod.base_fct_ns(
                flow_size, transport, rate_gbps * GBPS)) / 1e3
            assert model_us == pytest.approx(engine_us, rel=3e-3), (
                f"{transport} {flow_size}B @{rate_gbps:g}G: "
                f"model {model_us:.3f}us vs engine {engine_us:.3f}us")


class TestSpeedAndBuffers:
    def test_effective_speed_monotone_and_bounded(self):
        losses = np.linspace(1e-4, 0.03, 40)
        copies = model.retx_copies(losses)
        cfg = lgconfig.LinkGuardianConfig.for_link_speed(100)
        speed = model.effective_speed_fraction(
            losses, copies, 100 * GBPS, cfg.recirc_loop_ns,
            cfg.resume_threshold_bytes, cfg.pause_threshold_bytes)
        assert np.all((speed > 0.0) & (speed <= 1.0))
        assert np.all(np.diff(speed) < 1e-12)  # non-increasing in p

    def test_nonblocking_skips_pause_deficit(self):
        cfg = lgconfig.LinkGuardianConfig.for_link_speed(100)
        args = (0.02, 4.0, 100 * GBPS, cfg.recirc_loop_ns,
                cfg.resume_threshold_bytes, cfg.pause_threshold_bytes)
        ordered = model.effective_speed_fraction(*args, ordered=True)
        nonblocking = model.effective_speed_fraction(*args, ordered=False)
        assert nonblocking == pytest.approx(1.0 - 4.0 * 0.02)
        assert ordered < nonblocking

    def test_reorder_buffer_quiet_at_25g(self):
        """25G drains through the 100G recirculation: no standing queue,
        no pause duty cycle."""
        cfg = lgconfig.LinkGuardianConfig.for_link_speed(25)
        buf = model.reorder_buffer_model(
            25 * GBPS, 1e-3, cfg.recirc_loop_ns,
            cfg.resume_threshold_bytes, cfg.pause_threshold_bytes)
        assert not bool(buf["standing_regime"])
        assert float(buf["pause_ns_per_event"]) == 0.0

    def test_ge_affected_reduces_to_iid(self):
        rng = np.random.default_rng(15)
        losses = 10.0 ** rng.uniform(-4, -1, size=100)
        sizes = rng.integers(1, 1000, size=100)
        got = model.ge_affected_fraction(losses, 1.0, sizes)
        expected = 1.0 - (1.0 - losses) ** sizes
        assert np.allclose(got, expected, rtol=1e-9)

    def test_interp_log_loss_clamps(self):
        points = [(1e-3, 1.0), (1e-2, 0.5)]
        values = model.interp_log_loss(
            np.array([0.0, 1e-4, 1e-3, 3e-3, 1e-2, 0.5]), points)
        assert values[0] == 1.0       # p <= 0 -> first value
        assert values[1] == 1.0       # below range clamps
        assert values[2] == 1.0
        assert 0.5 < values[3] < 1.0  # log-interpolated
        assert values[4] == 0.5
        assert values[5] == 0.5       # above range clamps
