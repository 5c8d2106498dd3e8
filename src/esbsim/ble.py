"""Connection-interval latency baseline.

A command that misses the current connection event waits for the next one,
so with no application-layer control of timing the wait is uniform over one
interval (7.5 ms at the protocol minimum).  The baseline is that wait plus a
fixed transfer time, in closed form; it deliberately ignores advertising,
connection management, and frequency hopping.
"""

from __future__ import annotations

import math
from typing import Sequence

from .config import BleConfig
from .sweep import SummaryStats

SAMPLE_PERIODS_US = (1000.0, 2000.0)  # of the 1000 Hz and 500 Hz biosignals the broadcast link is for


def exact_summary(ble: BleConfig) -> tuple[float, float, float, float]:
    """Mean, median, SD and p99 of the baseline latency in us."""
    interval, transfer = ble.connection_interval_us, ble.transfer_time_us
    return transfer + interval / 2, transfer + interval / 2, interval / math.sqrt(12), transfer + 0.99 * interval


def latency_cdf(ble: BleConfig, t_us: float) -> float:
    """The share of baseline latencies of at most `t_us`."""
    return min(max((t_us - ble.transfer_time_us) / ble.connection_interval_us, 0.0), 1.0)


def render_comparison(esb: SummaryStats, within: Sequence[int], ble: BleConfig) -> str:
    """The broadcast summary beside the baseline's, the ratio of their means,
    and the share of latencies within each of SAMPLE_PERIODS_US: `within`
    counts the broadcast's delivered attempts per period, a lost one misses."""
    exact = exact_summary(ble)
    labels = ("mean [us]", "median [us]", "sd [us]", "p99 [us]")
    broadcast = (esb.mean_us, esb.median_us, esb.sd_us, esb.p99_us)
    lines = [f"{'':<12} {'broadcast':>12} {'ble':>12}", f"{'n':<12} {esb.n:>12d} {'exact':>12}"]
    lines += [f"{label:<12} {a:>12.2f} {b:>12.2f}" for label, a, b in zip(labels, broadcast, exact)]
    lines.append(f"mean ratio (ble / broadcast): {exact[0] / esb.mean_us:.2f}")
    for period, count in zip(SAMPLE_PERIODS_US, within):
        lines.append(
            f"within {period:.0f} us ({1e6 / period:.0f} Hz): broadcast {count / esb.n:.5f} of delivered, "
            f"{count / (esb.n + esb.n_lost):.5f} of sent; ble {latency_cdf(ble, period):.5f}"
        )
    return "\n".join(lines)
