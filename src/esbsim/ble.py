"""Connection-interval latency baseline.

A command that misses the current connection event waits for the next one,
so with no application-layer control of timing the wait is uniform over one
interval (7.5 ms at the protocol minimum).  The model samples that wait plus
a fixed transfer time; it deliberately ignores advertising, connection
management, and frequency hopping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import BleConfig
from .engine import PURPOSE_BLE_WAIT, block_uniforms
from .sweep import SummaryStats, summarize


class MismatchError(ValueError):
    """Comparison inputs of unequal (or zero) sample counts."""


def sample_latencies(ble_config: BleConfig, n: int, seed: int) -> np.ndarray:
    """Vector of n total latencies: one row of n draws, so the first m
    samples of any longer vector at the same seed are the m-sample vector."""
    if n < 1:
        raise ValueError("need at least one sample")
    waits = block_uniforms(seed, (), 0, PURPOSE_BLE_WAIT, 0, 1, n)[0] * ble_config.connection_interval_us
    return waits + ble_config.transfer_time_us


@dataclass(frozen=True)
class ComparisonReport:
    esb: SummaryStats
    ble: SummaryStats
    mean_ratio: float  # BLE mean over broadcast-link mean


def compare(esb_summary: SummaryStats, ble_summary: SummaryStats) -> ComparisonReport:
    """Side-by-side statistics; requires equal, non-zero sample counts so the
    two columns describe equally powered experiments."""
    if esb_summary.n == 0 or ble_summary.n == 0 or esb_summary.n != ble_summary.n:
        raise MismatchError(
            f"sample counts differ or are empty: {esb_summary.n} vs {ble_summary.n}"
        )
    return ComparisonReport(
        esb=esb_summary,
        ble=ble_summary,
        mean_ratio=ble_summary.mean_us / esb_summary.mean_us,
    )


def summarize_ble(values_us: np.ndarray, bin_width_us: float = 100.0) -> SummaryStats:
    # coarser bins than the broadcast link: the support spans a whole interval
    return summarize(values_us, bin_width_us=bin_width_us, mode_spacing_us=float("inf"))


def render_comparison(report: ComparisonReport) -> str:
    rows = [
        ("n", report.esb.n, report.ble.n),
        ("mean [us]", report.esb.mean_us, report.ble.mean_us),
        ("median [us]", report.esb.median_us, report.ble.median_us),
        ("sd [us]", report.esb.sd_us, report.ble.sd_us),
        ("p99 [us]", report.esb.p99_us, report.ble.p99_us),
    ]
    lines = [f"{'':<12} {'broadcast':>12} {'ble':>12}"]
    for label, a, b in rows:
        if label == "n":
            lines.append(f"{label:<12} {a:>12d} {b:>12d}")
        else:
            lines.append(f"{label:<12} {a:>12.2f} {b:>12.2f}")
    lines.append(f"mean ratio (ble / broadcast): {report.mean_ratio:.2f}")
    return "\n".join(lines)
