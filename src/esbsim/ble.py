"""Connection-interval latency baseline.

A command that misses the current connection event waits for the next one,
so with no application-layer control of timing the wait is uniform over one
interval (7.5 ms at the protocol minimum).  The model samples that wait plus
a fixed transfer time; it deliberately ignores advertising, connection
management, and frequency hopping.
"""

from __future__ import annotations

import numpy as np

from .config import BleConfig
from .engine import PURPOSE_BLE_WAIT, block_uniforms
from .sweep import SummaryStats, summarize

BIN_WIDTH_US = 100.0  # coarser than the broadcast link's: the support spans a whole interval


def sample_latencies(ble_config: BleConfig, n: int, seed: int) -> np.ndarray:
    """Vector of n total latencies: one row of n draws, so the first m
    samples of any longer vector at the same seed are the m-sample vector."""
    if n < 1:
        raise ValueError("need at least one sample")
    waits = block_uniforms(seed, (), 0, PURPOSE_BLE_WAIT, 0, 1, n)[0] * ble_config.connection_interval_us
    return waits + ble_config.transfer_time_us


def summarize_ble(values_us: np.ndarray) -> SummaryStats:
    return summarize(values_us, bin_width_us=BIN_WIDTH_US, mode_spacing_us=float("inf"))


def render_comparison(esb: SummaryStats, ble: SummaryStats) -> str:
    """The two summaries side by side, and the ratio of their means."""
    rows = [
        ("n", esb.n, ble.n),
        ("mean [us]", esb.mean_us, ble.mean_us),
        ("median [us]", esb.median_us, ble.median_us),
        ("sd [us]", esb.sd_us, ble.sd_us),
        ("p99 [us]", esb.p99_us, ble.p99_us),
    ]
    lines = [f"{'':<12} {'broadcast':>12} {'ble':>12}"]
    for label, a, b in rows:
        if label == "n":
            lines.append(f"{label:<12} {a:>12d} {b:>12d}")
        else:
            lines.append(f"{label:<12} {a:>12.2f} {b:>12.2f}")
    lines.append(f"mean ratio (ble / broadcast): {ble.mean_us / esb.mean_us:.2f}")
    return "\n".join(lines)
