import numpy as np
import pytest
from hypothesis import given, strategies as st

from esbsim.ble import render_comparison, sample_latencies, summarize_ble
from esbsim.config import BleConfig


class TestSampling:
    def test_sample_stays_inside_one_interval(self):
        cfg = BleConfig(connection_interval_us=7500.0, transfer_time_us=50.0)
        totals = sample_latencies(cfg, 2000, 1)
        waits = totals - 50.0
        assert ((0.0 <= waits) & (waits < 7500.0)).all()
        assert ((50.0 <= totals) & (totals < 7550.0)).all()

    def test_total_is_wait_plus_transfer(self):
        waits = sample_latencies(BleConfig(transfer_time_us=0.0), 100, 4)
        totals = sample_latencies(BleConfig(transfer_time_us=36.5), 100, 4)
        assert (totals == waits + 36.5).all()

    def test_empirical_mean_is_half_an_interval(self):
        # uniform mean ci/2; 3 sigma of the sample mean ~ 20.5 us at n=1e5
        cfg = BleConfig(connection_interval_us=7500.0, transfer_time_us=10.0)
        totals = sample_latencies(cfg, 100_000, 7)
        assert abs(totals.mean() - (3750.0 + 10.0)) < 3 * 7500 / np.sqrt(12 * 100_000)

    @given(st.integers(0, 2**64 - 1), st.integers(1, 300), st.integers(0, 300))
    def test_vector_and_scalar_paths_share_the_stream(self, seed, m, extra):
        # any shorter sample, down to a single draw, is a prefix of a longer one
        cfg = BleConfig()
        longer = sample_latencies(cfg, m + extra, seed)
        assert np.array_equal(sample_latencies(cfg, m, seed), longer[:m])

    def test_needs_at_least_one_sample(self):
        with pytest.raises(ValueError):
            sample_latencies(BleConfig(), 0, 1)

    def test_worst_case_approaches_a_full_interval(self):
        totals = sample_latencies(BleConfig(), 100_000, 11)
        stats = summarize_ble(totals)
        assert stats.p99_us >= 0.99 * 7500 - 50.0


class TestCompare:
    def test_identical_summaries_have_ratio_one(self):
        stats = summarize_ble(sample_latencies(BleConfig(), 1000, 5))
        assert render_comparison(stats, stats).endswith("mean ratio (ble / broadcast): 1.00")

    def test_ratio_of_means(self):
        esb = summarize_ble(np.full(100, 500.0))
        ble_stats = summarize_ble(np.full(100, 3750.0))
        assert render_comparison(esb, ble_stats).endswith("mean ratio (ble / broadcast): 7.50")

    def test_render_mentions_the_ratio(self):
        stats = summarize_ble(sample_latencies(BleConfig(), 100, 5))
        assert "mean ratio" in render_comparison(stats, stats)


def test_broadcast_tail_stays_far_below_one_connection_interval():
    # even the p99 of the lossy broadcast link is under 1.5 ms, a fifth of
    # the baseline's minimum interval
    from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
    from esbsim.config import ChannelModel, olcfg_preset
    from esbsim.link import run_attempt_series
    from esbsim.sweep import summarize

    pipe = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
    records = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.043), pipe, 5000, seed=21
    )
    stats = summarize(records, ("d0", "d7"))
    assert stats.p99_us < 1500.0 < BleConfig().connection_interval_us
