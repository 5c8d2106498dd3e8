import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from esbsim import airtime
from esbsim.analytics import (
    AccountingRow,
    CalibrationTargets,
    DomainError,
    InfeasibleError,
    calibrate_pipeline,
    delivered_copy_distribution,
    olcfg_calibration_targets,
    retransmission_delay_moments,
)
from esbsim.config import (
    TX_POWER_MAX_DBM,
    TX_POWER_MIN_DBM,
    BitrateMode,
    CrcMode,
    EsbConfig,
    PayloadMode,
    ProtocolMode,
    TxMode,
    olcfg_preset,
)
from esbsim.link import STAGES


def _enumerate_loss_patterns(p: Fraction, copies: int):
    """Brute-force oracle: walk every lost/kept pattern and accumulate the
    probability that copy k is the first kept one."""
    first_kept = [Fraction(0)] * copies
    lost_mass = Fraction(0)
    for pattern in itertools.product([True, False], repeat=copies):
        prob = math.prod(p if lost else 1 - p for lost in pattern)
        for k, lost in enumerate(pattern):
            if not lost:
                first_kept[k] += prob
                break
        else:
            lost_mass += prob
    return first_kept, lost_mass


class TestDeliveredCopyDistribution:
    def test_lossless_channel_delivers_the_first_copy(self):
        probs, lost = delivered_copy_distribution(0.0, 3)
        assert probs == (1.0, 0.0, 0.0)
        assert lost == 0.0

    def test_reference_loss_probability(self):
        probs, lost = delivered_copy_distribution(0.2655, 3)
        assert probs == pytest.approx((0.7345, 0.1950, 0.0518), abs=5e-5)
        assert lost == pytest.approx(0.01872, abs=5e-6)

    @pytest.mark.parametrize("copies", [1, 2, 3, 4])
    def test_exhaustive_enumeration_matches_the_formula(self, copies):
        p = Fraction(2655, 10000)
        expected, lost = _enumerate_loss_patterns(p, copies)
        probs, lost_mass = delivered_copy_distribution(float(p), copies)
        for k in range(copies):
            assert probs[k] == pytest.approx(float(expected[k]), rel=1e-12)
        assert lost_mass == pytest.approx(float(lost), rel=1e-12)

    @given(
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        copies=st.integers(min_value=1, max_value=10),
    )
    def test_masses_sum_to_one(self, p, copies):
        probs, lost = delivered_copy_distribution(p, copies)
        assert sum(probs) + lost == pytest.approx(1.0, abs=1e-12)

    def test_out_of_domain(self):
        with pytest.raises(DomainError):
            delivered_copy_distribution(1.1, 3)
        with pytest.raises(DomainError):
            delivered_copy_distribution(0.5, 0)


class TestRetransmissionDelayMoments:
    def test_matches_direct_moment_computation(self):
        p, delay, copies = 0.043, 435.0, 3
        # independent oracle: moments of the normalized first-kept mixture
        weights = [p**k * (1 - p) for k in range(copies)]
        norm = sum(weights)
        mean = sum(w * k * delay for k, w in enumerate(weights)) / norm
        second = sum(w * (k * delay) ** 2 for k, w in enumerate(weights)) / norm
        sd = math.sqrt(second - mean**2)
        got_mean, got_sd = retransmission_delay_moments(p, delay, copies)
        assert got_mean == pytest.approx(mean, rel=1e-12)
        assert got_sd == pytest.approx(sd, rel=1e-12)
        # the mixture alone accounts for most of the observed ~97 us spread
        assert got_sd == pytest.approx(93.54, abs=0.01)

    def test_total_loss_is_out_of_domain(self):
        with pytest.raises(DomainError):
            retransmission_delay_moments(1.0, 435.0, 3)

    def test_reference_operating_point(self):
        # the paper's first-order rule: one extra 435 us wait with probability
        # p, 0.043 * 435 us = 18.705 us, the scale of the observed mean-median
        # gap; the three-copy mixture mean agrees with it up to O(p^2 D)
        p, delay = 0.043, 435.0
        assert p * delay == pytest.approx(18.705)
        mean, _ = retransmission_delay_moments(p, delay, 3)
        assert abs(mean - p * delay) <= p**2 * delay

    def test_lossless_channel_has_no_delay(self):
        assert retransmission_delay_moments(0.0, 435.0, 3) == (0.0, 0.0)

    @pytest.mark.parametrize("p, copies", [(0.0, 3), (0.5, 1)])
    def test_degenerate_mixture_has_no_spread(self, p, copies):
        # every delivery on copy 0: nothing lost, or no later copy to deliver
        assert retransmission_delay_moments(p, 435.0, copies) == (0.0, 0.0)

    @given(
        p=st.floats(min_value=0.0, max_value=0.99),
        delay=st.floats(min_value=1.0, max_value=10_000.0),
    )
    def test_two_copies_are_a_bernoulli_offset(self, p, delay):
        # copy 1 delivers with probability q = p(1-p) / (1-p^2) = p / (1+p)
        q = p / (1 + p)
        mean, sd = retransmission_delay_moments(p, delay, 2)
        assert mean == pytest.approx(q * delay, rel=1e-9, abs=1e-9)
        assert sd == pytest.approx(delay * math.sqrt(q * (1 - q)), rel=1e-6, abs=1e-6)

    def test_invalid_inputs_rejected(self):
        for p, copies in ((-0.1, 3), (1.1, 3), (0.5, 0)):
            with pytest.raises(DomainError):
                retransmission_delay_moments(p, 435.0, copies)


class TestSuccessRate:
    """The success rate, clean non-duplicate deliveries over attempts, is
    valid / sent by the accounting identities."""

    def test_reference_crc_off_series(self):
        # 735 received with 15 corrupted and 1 duplicate out of 750 sent
        row = AccountingRow(sent=750, received=735, unique=734, valid=719)
        corrupted, duplicates = row.unique - row.valid, row.received - row.unique
        assert (corrupted, duplicates, row.lost) == (15, 1, 16)
        rate = (row.received - corrupted - duplicates) / row.sent
        assert rate == row.valid / row.sent == pytest.approx(0.9587, abs=5e-5)

    def test_clean_run(self):
        from esbsim.config import ChannelModel
        from esbsim.link import run_attempt_series
        from esbsim.sweep import ConfigTally, accounting_by_config

        pipe = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
        records = run_attempt_series(olcfg_preset(), ChannelModel(), pipe, 100, seed=3, config_name="clean")
        tally = ConfigTally()
        tally.add(records)
        row = accounting_by_config(tally)["clean"]
        assert row.valid / row.sent == 1.0
        assert row.lost == 0


class TestCalibratePipeline:
    def test_reference_targets_for_the_optimal_preset(self):
        base = dict(zip(STAGES, calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()).base_us))
        # radio turnaround absorbs d3-d4 minus the 36.5 us on air
        assert base["radio_overhead"] == pytest.approx(185.86 - 36.5)
        assert base["radio_overhead"] == pytest.approx(149.36)
        # radio-stack pair shares d2d5 - d3d4 = 107.21 us
        assert base["tx_esb_stack"] + base["rx_esb_stack"] == pytest.approx(107.21)
        # the four IPC stages share d0d7 - d2d5 = 193.23 us
        outer = base["tx_app_to_ipc"] + base["tx_ipc_to_esb"] + base["rx_to_ipc"] + base["rx_ipc_to_app"]
        assert outer == pytest.approx(193.23)

    def test_symmetric_split(self):
        base = dict(zip(STAGES, calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()).base_us))
        assert base["tx_esb_stack"] == base["rx_esb_stack"]
        assert base["tx_app_to_ipc"] == base["rx_ipc_to_app"]
        assert base["tx_ipc_to_esb"] == base["rx_to_ipc"]

    def test_infeasible_when_frame_exceeds_air_interval(self):
        targets = CalibrationTargets(d0d7_us=100.0, d2d5_us=50.0, d3d4_us=20.0)
        with pytest.raises(InfeasibleError):
            calibrate_pipeline(targets, olcfg_preset())  # on air 36.5 > 20

    def test_targets_must_nest(self):
        with pytest.raises(DomainError):
            CalibrationTargets(d0d7_us=100.0, d2d5_us=120.0, d3d4_us=20.0)


@st.composite
def _calibration_cases(draw):
    config = EsbConfig(
        crc_mode=draw(st.sampled_from(CrcMode)),
        protocol_mode=draw(st.sampled_from(ProtocolMode)),
        bitrate_mode=draw(st.sampled_from(BitrateMode)),
        tx_mode=draw(st.sampled_from(TxMode)),
        tx_power_dbm=draw(st.integers(TX_POWER_MIN_DBM, TX_POWER_MAX_DBM)),
        payload_mode=draw(st.sampled_from(PayloadMode)),
        payload_len_bytes=draw(st.integers(1, 32)),
        retransmit_delay_us=5000.0,
    )
    d3d4 = draw(st.floats(min_value=1.0, max_value=400.0))
    d2d5 = d3d4 + draw(st.floats(min_value=0.01, max_value=400.0))
    d0d7 = d2d5 + draw(st.floats(min_value=0.01, max_value=400.0))
    return CalibrationTargets(d0d7, d2d5, d3d4), config


@given(case=_calibration_cases())
def test_calibration_reproduces_the_targets_or_is_infeasible(case):
    targets, config = case
    on_air = airtime.on_air_time_us(config)
    split = {
        "radio_overhead": targets.d3d4_us - on_air,
        "tx_esb_stack": (targets.d2d5_us - targets.d3d4_us) / 2,
        "rx_esb_stack": (targets.d2d5_us - targets.d3d4_us) / 2,
        **dict.fromkeys(
            ("tx_app_to_ipc", "tx_ipc_to_esb", "rx_to_ipc", "rx_ipc_to_app"), (targets.d0d7_us - targets.d2d5_us) / 4
        ),
    }
    tolerance = dict(rel=1e-9, abs=1e-9)
    try:
        pipe = calibrate_pipeline(targets, config)
    except InfeasibleError:
        # the frame takes longer on air than the d3-d4 target
        assert split["radio_overhead"] < 0
        return
    assert pipe.modifiers_us == {}
    for stage, base in zip(STAGES, pipe.base_us, strict=True):
        assert base == split[stage]
    totals = pipe.stage_totals_us(config)
    assert sum(totals) + on_air == pytest.approx(targets.d0d7_us, **tolerance)
    assert sum(totals[2:5]) + on_air == pytest.approx(targets.d2d5_us, **tolerance)
    assert totals[3] + on_air == pytest.approx(targets.d3d4_us, **tolerance)


def test_stage_names_cover_the_probe_chain():
    assert len(STAGES) == 7  # seven gaps between eight probes


@pytest.fixture(scope="module")
def lossy_run():
    from esbsim.config import ChannelModel
    from esbsim.link import run_attempt_series

    pipe = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
    pipe = dataclasses.replace(pipe, jitter_sigma_us=(0.0,) * len(STAGES))
    records = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.043), pipe, 30_000, seed=14
    )
    delivered = records.delivered_copy >= 0
    return (records.probes[delivered, 7] - records.probes[delivered, 0] - 4863) / 10


class TestSimulationAgreesWithClosedForms:
    """Monte-Carlo cross-checks of the retransmission math against the
    link simulation itself (zero jitter isolates the copy mixture)."""

    def test_mean_extra_delay(self, lossy_run):
        extras = lossy_run
        mix_mean, mix_sd = retransmission_delay_moments(0.043, 435.0, 3)
        assert abs(extras.mean() - mix_mean) <= 3 * mix_sd / np.sqrt(extras.size)
        # for small loss rates the single-event model approximates the
        # three-copy mixture: p*delay = 18.705 vs mixture mean ~19.44
        assert mix_mean == pytest.approx(0.043 * 435.0, abs=0.8)

    def test_mixture_sd(self, lossy_run):
        extras = lossy_run
        mix_mean, mix_sd = retransmission_delay_moments(0.043, 435.0, 3)
        # bootstrap-style bound: SE(s) = sqrt((mu4 - sigma^4) / n) / (2 sigma)
        probs, lost = delivered_copy_distribution(0.043, 3)
        norm = [p / (1 - lost) for p in probs]
        mu4 = sum(w * (k * 435.0 - mix_mean) ** 4 for k, w in enumerate(norm))
        se_sd = np.sqrt((mu4 - mix_sd**4) / extras.size) / (2 * mix_sd)
        assert abs(extras.std() - mix_sd) <= 3 * se_sd

    def test_simulated_crc_off_series_success_rate(self):
        from esbsim.config import ChannelModel
        from esbsim.link import run_attempt_series
        from esbsim.sweep import ConfigTally, accounting_by_config

        pipe = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
        records = run_attempt_series(
            olcfg_preset(),
            ChannelModel(p_loss=0.2655, p_corrupt=15 / 735),
            pipe,
            750,
            seed=16,
            config_name="olcfg",
        )
        tally = ConfigTally()
        tally.add(records)
        row = accounting_by_config(tally)["olcfg"]
        rate = row.valid / row.sent
        assert rate == pytest.approx(0.9587, abs=0.015)
