"""Acceptance suite: the eight exit criteria, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Several criteria share the two expensive 100k-attempt simulations via
module-scoped fixtures; the stated runtime budgets cover the work a criterion
actually triggers.
"""

import dataclasses
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from esbsim import airtime
from esbsim.analytics import (
    calibrate_pipeline,
    delivered_copy_distribution,
    olcfg_calibration_targets,
)
from esbsim.ble import compare, sample_latencies, summarize_ble
from esbsim.config import BleConfig, ChannelModel, CrcMode, olcfg_preset
from esbsim.engine import PURPOSE_LOSS, block_uniforms
from esbsim.link import RecordBatch, run_attempt_series
from esbsim.sweep import (
    SweepPlan,
    accounting_by_config,
    render_results_csv,
    run_sweep,
    summarize,
)

TRIMODAL_LOSS = 0.2655  # (14/750)^(1/3) from the reference accounting, rounded
REFERENCE_LOSS = 0.043  # reproduces the reference mean-median gap via p * 435


def _criterion(name: str, checks: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in checks)
    detail = "; ".join(f"{label} {'ok' if passed else 'FAILED'}" for label, passed in checks)
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def calibrated():
    return calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())


@pytest.fixture(scope="module")
def trimodal_run(calibrated):
    """100k attempts at the heavy-loss operating point (shared by A2/A7)."""
    t0 = time.perf_counter()
    records = run_attempt_series(
        olcfg_preset(),
        ChannelModel(p_loss=TRIMODAL_LOSS),
        calibrated,
        100_000,
        seed=20260810,
        config_name="olcfg",
    )
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def reference_run(calibrated):
    """100k attempts at the reference loss probability (shared by A3/A6)."""
    records = run_attempt_series(
        olcfg_preset(),
        ChannelModel(p_loss=REFERENCE_LOSS),
        calibrated,
        100_000,
        seed=20260811,
        config_name="olcfg",
    )
    return records


def test_a1_calibration_exactness(calibrated):
    t0 = time.perf_counter()
    quiet = dataclasses.replace(calibrated, jitter_family="off")
    records = run_attempt_series(
        olcfg_preset(), ChannelModel(), quiet, 101, seed=1, config_name="olcfg"
    )
    targets = olcfg_calibration_targets()
    medians = {
        "d0d7": summarize(records, ("d0", "d7")).median_us,
        "d2d5": summarize(records, ("d2", "d5")).median_us,
        "d3d4": summarize(records, ("d3", "d4")).median_us,
    }
    elapsed = time.perf_counter() - t0
    _criterion(
        "A1 calibration exactness",
        [
            (f"d0d7 {medians['d0d7']:.2f} vs 486.30", abs(medians["d0d7"] - targets.d0d7_us) <= 0.1),
            (f"d2d5 {medians['d2d5']:.2f} vs 293.07", abs(medians["d2d5"] - targets.d2d5_us) <= 0.1),
            (f"d3d4 {medians['d3d4']:.2f} vs 185.86", abs(medians["d3d4"] - targets.d3d4_us) <= 0.1),
            (f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0),
        ],
    )


def test_a2_trimodal_structure(trimodal_run):
    records, elapsed = trimodal_run
    stats = summarize(records, ("d0", "d7"))
    checks = [
        (f"{len(stats.modes_us)} modes", len(stats.modes_us) == 3),
        (f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0),
    ]
    spacings = np.diff(stats.modes_us)
    for i, spacing in enumerate(spacings):
        checks.append((f"spacing{i} {spacing:.1f}us", abs(spacing - 435.0) <= 5.0))
    probs, lost_mass = delivered_copy_distribution(TRIMODAL_LOSS, 3)
    expected = np.array(probs) / (1.0 - lost_mass)
    # the share of delivered attempts nearest each mode
    delivered = records.delivered_copy >= 0
    values = (records.probes[delivered, 7] - records.probes[delivered, 0]) / 10
    nearest = np.argmin(np.abs(values[:, None] - np.asarray(stats.modes_us)), axis=1)
    masses = np.bincount(nearest, minlength=len(stats.modes_us)) / nearest.size
    n = stats.n
    for k in range(3):
        sigma = np.sqrt(expected[k] * (1 - expected[k]) / n)
        checks.append(
            (
                f"mass{k} {masses[k]:.4f} vs {expected[k]:.4f}",
                abs(masses[k] - expected[k]) <= 3 * sigma,
            )
        )
    _criterion("A2 tri-modal structure", checks)


def test_a3_mean_median_gap_and_sd(reference_run):
    # calibrated-reproduction check against the reference distribution shape,
    # not an independent validation (the loss probability was fitted to it)
    stats = summarize(reference_run, ("d0", "d7"))
    gap = stats.mean_us - stats.median_us
    _criterion(
        "A3 mean-median gap and SD emergence",
        [
            (f"gap {gap:.2f}us in [14, 24]", 14.0 <= gap <= 24.0),
            (f"sd {stats.sd_us:.2f}us in [80, 115]", 80.0 <= stats.sd_us <= 115.0),
        ],
    )


def test_a4_analytic_oracle_equivalence():
    t0 = time.perf_counter()
    n = 100_000
    batches, batch_size = 200, 500  # 200 x 500 = n
    checks = []
    pairs = itertools.product((0.01, 0.1, 0.25, 0.5), (300.0, 435.0, 600.0))
    for k, (p, delay) in enumerate(pairs):  # each pair draws in a round of its own
        extras = (block_uniforms(404, (), k, PURPOSE_LOSS, 0, 1, n)[0] < p).astype(float) * delay
        # one extra wait of `delay` with probability p: mean p*D, and the mean
        # over m packets has variance p(1-p)D^2/m
        mean_err = abs(extras.mean() - p * delay)
        mean_tol = 3 * np.sqrt(p * (1 - p) * delay**2 / n)
        checks.append((f"mean p={p} d={delay:.0f}", mean_err <= mean_tol))
        # Var[AD] is the variance of the mean extra delay over a batch of
        # packets; batch means estimate it, and the variance of their
        # sample variance is ~ 2 Var^2 / (batches - 1) by near-normality
        batch_means = extras.reshape(batches, batch_size).mean(axis=1)
        var_expected = p * (1 - p) * delay**2 / batch_size
        var_tol = 3 * var_expected * np.sqrt(2 / (batches - 1))
        var_err = abs(batch_means.var(ddof=1) - var_expected)
        checks.append((f"var p={p} d={delay:.0f}", var_err <= var_tol))
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0))
    _criterion("A4 analytic oracle equivalence", checks)


def test_a5_accounting(calibrated):
    t0 = time.perf_counter()
    channel = ChannelModel(p_loss=TRIMODAL_LOSS, p_corrupt=15 / 735)
    crc_off = run_attempt_series(
        olcfg_preset(), channel, calibrated, 750, seed=55, config_name="crc-off"
    )
    crc16_cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
    crc16 = run_attempt_series(crc16_cfg, channel, calibrated, 750, seed=55, config_name="crc16")
    table = accounting_by_config(RecordBatch.concat([crc_off, crc16]))
    rate = table["crc-off"].valid / table["crc-off"].sent  # clean, non-duplicate deliveries
    elapsed = time.perf_counter() - t0
    _criterion(
        "A5 accounting",
        [
            (f"crc-off success rate {rate:.4f} vs 0.9587 +/- 0.02", abs(rate - 0.9587) <= 0.02),
            ("crc16 zero duplicates", table["crc16"].received == table["crc16"].unique),
            ("crc16 zero corrupted deliveries", table["crc16"].valid == table["crc16"].unique),
            (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
        ],
    )


def test_a6_ble_comparison(reference_run):
    t0 = time.perf_counter()
    transfer = airtime.on_air_time_us(olcfg_preset())
    ble_config = BleConfig(connection_interval_us=7500.0, transfer_time_us=transfer)
    totals = sample_latencies(ble_config, 100_000, 606)
    ble_big = summarize_ble(totals)
    esb_stats = summarize(reference_run, ("d0", "d7"))
    ble_matched = summarize_ble(
        sample_latencies(ble_config, esb_stats.n, 607)
    )
    report = compare(esb_stats, ble_matched)
    elapsed = time.perf_counter() - t0
    _criterion(
        "A6 BLE comparison",
        [
            (
                f"mean {ble_big.mean_us:.0f}us in [3700, 3800] + transfer",
                3700.0 + transfer <= ble_big.mean_us <= 3800.0 + transfer,
            ),
            (f"p99 {ble_big.p99_us:.0f}us > 7350", ble_big.p99_us > 7350.0),
            (f"mean ratio {report.mean_ratio:.2f} > 7", report.mean_ratio > 7.0),
            (f"runtime {elapsed:.2f}s < 5s", elapsed < 5.0),
        ],
    )


def test_a7_brute_force_link_oracle(trimodal_run):
    checks = []
    # exact: enumerate every loss pattern with rational arithmetic
    p_exact = Fraction(2655, 10000)
    for copies in (1, 2, 3):
        first_kept = [Fraction(0)] * copies
        lost = Fraction(0)
        for pattern in range(2**copies):
            prob = Fraction(1)
            for k in range(copies):
                prob *= p_exact if pattern >> k & 1 else 1 - p_exact
            for k in range(copies):
                if not pattern >> k & 1:
                    first_kept[k] += prob
                    break
            else:
                lost += prob
        probs, lost_mass = delivered_copy_distribution(float(p_exact), copies)
        exact = all(
            abs(probs[k] - float(first_kept[k])) < 1e-15 for k in range(copies)
        ) and abs(lost_mass - float(lost)) < 1e-15
        checks.append((f"enumeration copies={copies}", exact))

    # statistical: simulated delivered-copy frequencies at n=1e5
    records, _ = trimodal_run
    n = len(records)
    probs, lost_mass = delivered_copy_distribution(TRIMODAL_LOSS, 3)
    counts = dict(zip((-1, 0, 1, 2), np.bincount(records.delivered_copy + 1, minlength=4).tolist()))
    for k in (0, 1, 2):
        sigma = np.sqrt(probs[k] * (1 - probs[k]) / n)
        checks.append(
            (f"sim copy{k} {counts[k] / n:.4f}", abs(counts[k] / n - probs[k]) <= 3 * sigma)
        )
    sigma = np.sqrt(lost_mass * (1 - lost_mass) / n)
    checks.append(
        (f"sim lost {counts[-1] / n:.4f}", abs(counts[-1] / n - lost_mass) <= 3 * sigma)
    )
    _criterion("A7 brute-force link oracle", checks)


def test_a8_determinism(calibrated):
    crc16 = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
    plan = SweepPlan(
        configs=(("olcfg", olcfg_preset()), ("crc16", crc16)),
        rounds=2,
        attempts_per_round=40,
        shuffle=True,
        seed=88,
    )
    channel = ChannelModel(p_loss=0.2, p_corrupt=0.02)
    csv_a = render_results_csv(run_sweep(plan, channel, calibrated, workers=1))
    csv_b = render_results_csv(run_sweep(plan, channel, calibrated, workers=1))
    csv_c = render_results_csv(run_sweep(plan, channel, calibrated, workers=8))
    _criterion(
        "A8 determinism",
        [
            ("identical across runs", csv_a == csv_b),
            ("identical across 1 vs 8 workers", csv_a == csv_c),
        ],
    )
