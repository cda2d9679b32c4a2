"""Tests for the Figure 2 workload distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import (
    ALIBABA_STORAGE, DCTCP_WEB_SEARCH, GOOGLE_ALL_RPC, META_KEY_VALUE,
    WORKLOADS, FlowSizeDistribution,
)


def _rng():
    return np.random.default_rng(7)


class TestDistributions:
    def test_registry_has_all_six_workloads(self):
        assert len(WORKLOADS) == 6

    def test_cdf_monotone_everywhere(self):
        for dist in WORKLOADS.values():
            sizes = np.logspace(0, 7.5, 200)
            values = [dist.cdf(s) for s in sizes]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:])), dist.name

    def test_quantile_inverts_cdf(self):
        for dist in WORKLOADS.values():
            for fraction in (0.1, 0.5, 0.9):
                size = dist.quantile(fraction)
                assert dist.cdf(size) == pytest.approx(fraction, abs=0.02), dist.name

    def test_most_google_rpc_flows_fit_one_packet(self):
        """The paper's central workload fact (§1, §3.2)."""
        assert GOOGLE_ALL_RPC.single_packet_fraction() > 0.8
        assert META_KEY_VALUE.single_packet_fraction() > 0.9

    def test_143b_is_typical_google_rpc(self):
        # 143 B is the most frequent size; the CDF has its largest jump there.
        assert GOOGLE_ALL_RPC.cdf(143) - GOOGLE_ALL_RPC.cdf(100) > 0.3

    def test_alibaba_storage_capped_at_2mb(self):
        assert ALIBABA_STORAGE.max_size == 2_000_000

    def test_dctcp_websearch_median_near_24387(self):
        assert DCTCP_WEB_SEARCH.quantile(0.5) == pytest.approx(24_387, rel=0.01)

    def test_samples_within_support(self):
        for dist in WORKLOADS.values():
            samples = dist.sample(_rng(), 2_000)
            assert samples.min() >= 1
            assert samples.max() <= dist.max_size * 1.01

    def test_sample_distribution_matches_cdf(self):
        dist = DCTCP_WEB_SEARCH
        samples = dist.sample(_rng(), 20_000)
        empirical = (samples <= 24_387).mean()
        assert empirical == pytest.approx(dist.cdf(24_387), abs=0.02)

    def test_invalid_cdf_rejected(self):
        with pytest.raises(ValueError):
            FlowSizeDistribution("bad", ((10, 0.5), (5, 1.0)))
        with pytest.raises(ValueError):
            FlowSizeDistribution("bad", ((10, 0.0), (20, 0.5)))

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_property_quantile_within_support(self, fraction):
        for dist in (GOOGLE_ALL_RPC, DCTCP_WEB_SEARCH):
            value = dist.quantile(fraction)
            assert dist.min_size <= value <= dist.max_size

