import math

import numpy as np
import pytest

from esbsim.ble import SAMPLE_PERIODS_US, exact_summary, latency_cdf, render_comparison
from esbsim.config import BleConfig
from esbsim.sweep import SummaryStats

from conftest import summary_of


def _broadcast(mean_us: float, n: int = 100, n_lost: int = 0) -> SummaryStats:
    return SummaryStats(n, n_lost, mean_us, mean_us, 0.0, mean_us, (n,), (mean_us, mean_us + 5.0), (mean_us,))


class TestClosedForm:
    def test_reference_interval(self):
        # the 7.5 ms protocol minimum after the default frame's 36.5 us on air
        mean, median, sd, p99 = exact_summary(BleConfig(connection_interval_us=7500.0, transfer_time_us=36.5))
        assert (mean, median, p99) == (3786.5, 3786.5, 7461.5)
        assert sd == pytest.approx(2165.0635, abs=1e-4)

    @pytest.mark.parametrize("t_us", [-1e9, -1.0, 0.0, 36.5])
    def test_cdf_is_zero_up_to_the_transfer(self, t_us):
        assert latency_cdf(BleConfig(transfer_time_us=36.5), t_us) == 0.0

    @pytest.mark.parametrize("t_us", [7536.5, 7536.6, 1e9])
    def test_cdf_is_one_from_a_full_interval_after_the_transfer(self, t_us):
        assert latency_cdf(BleConfig(transfer_time_us=36.5), t_us) == 1.0

    def test_cdf_is_linear_over_the_interval(self):
        cfg = BleConfig(connection_interval_us=7500.0, transfer_time_us=36.5)
        assert latency_cdf(cfg, 36.5 + 3750.0) == 0.5
        assert [latency_cdf(cfg, t) for t in SAMPLE_PERIODS_US] == pytest.approx([963.5 / 7500, 1963.5 / 7500])


class TestSampling:
    """The closed form against what sampling the waits would give: the
    Monte-Carlo checks draw 1e5 waits here, and each statistic lies within
    5 standard errors of its closed form."""

    CFG = BleConfig(connection_interval_us=7500.0, transfer_time_us=36.5)
    N = 100_000

    @pytest.fixture(scope="class")
    def totals(self):
        waits = np.random.default_rng(2024).random(self.N) * self.CFG.connection_interval_us
        return np.sort(waits + self.CFG.transfer_time_us)

    def test_sample_stays_inside_one_interval(self, totals):
        cdf = [latency_cdf(self.CFG, t) for t in totals]
        assert 0.0 < min(cdf) and max(cdf) < 1.0

    def test_total_is_wait_plus_transfer(self):
        still = exact_summary(BleConfig(transfer_time_us=0.0))
        moved = exact_summary(BleConfig(transfer_time_us=36.5))
        assert [b - a for a, b in zip(still, moved)] == pytest.approx([36.5, 36.5, 0.0, 36.5])

    def test_empirical_mean_is_half_an_interval(self, totals):
        mean, median, sd, _ = exact_summary(self.CFG)
        assert abs(totals.mean() - mean) < 5 * sd / math.sqrt(self.N)
        # a uniform's kurtosis is 9/5, so the sample SD's error is sd * sqrt(0.8 / 4n)
        assert abs(totals.std() - sd) < 5 * sd * math.sqrt(0.8 / (4 * self.N))
        # a quantile's error is sqrt(p (1 - p) / n) over the density 1 / interval
        assert abs(np.median(totals) - median) < 5 * math.sqrt(0.25 / self.N) * self.CFG.connection_interval_us

    def test_worst_case_approaches_a_full_interval(self, totals):
        p99, interval = exact_summary(self.CFG)[3], self.CFG.connection_interval_us
        assert abs(np.percentile(totals, 99) - p99) < 5 * math.sqrt(0.99 * 0.01 / self.N) * interval

    def test_empirical_shares_follow_the_cdf(self, totals):
        for period in SAMPLE_PERIODS_US:
            share = latency_cdf(self.CFG, period)
            error = math.sqrt(share * (1 - share) / self.N)
            assert abs(np.count_nonzero(totals <= period) / self.N - share) < 5 * error


class TestCompare:
    def test_identical_summaries_have_ratio_one(self):
        text = render_comparison(_broadcast(3786.5), [0, 0], BleConfig(transfer_time_us=36.5))
        assert "mean ratio (ble / broadcast): 1.00\n" in text

    def test_ratio_of_means(self):
        text = render_comparison(_broadcast(500.0), [100, 100], BleConfig(transfer_time_us=0.0))
        assert "mean ratio (ble / broadcast): 7.50\n" in text

    def test_render_mentions_the_ratio(self):
        assert "mean ratio" in render_comparison(_broadcast(3786.5), [0, 0], BleConfig())

    def test_the_baseline_column_is_exact(self):
        lines = render_comparison(_broadcast(500.0), [100, 100], BleConfig(transfer_time_us=36.5)).splitlines()
        assert lines[1].split() == ["n", "100", "exact"]
        assert [line.split()[-1] for line in lines[2:6]] == ["3786.50", "3786.50", "2165.06", "7461.50"]

    def test_shares_count_lost_attempts_as_misses(self):
        text = render_comparison(_broadcast(500.0, n=80, n_lost=20), [60, 80], BleConfig(transfer_time_us=36.5))
        assert text.splitlines()[-2:] == [
            "within 1000 us (1000 Hz): broadcast 0.75000 of delivered, 0.60000 of sent; ble 0.12847",
            "within 2000 us (500 Hz): broadcast 1.00000 of delivered, 0.80000 of sent; ble 0.26180",
        ]


def test_broadcast_tail_stays_far_below_one_connection_interval():
    # even the p99 of the lossy broadcast link is under 1.5 ms, a fifth of
    # the baseline's minimum interval
    from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
    from esbsim.config import ChannelModel, olcfg_preset
    from esbsim.link import run_attempt_series

    pipe = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
    records = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.043), pipe, 5000, seed=21
    )
    stats = summary_of(records, ("d0", "d7"))
    assert stats.p99_us < 1500.0 < BleConfig().connection_interval_us
