import dataclasses
import pickle
from collections import Counter
from math import cos, erf, log1p, pi, sin, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esbsim import airtime
from esbsim.analytics import (
    calibrate_pipeline,
    delivered_copy_distribution,
    olcfg_calibration_targets,
)
from esbsim.config import (
    ChannelModel,
    CopySpacing,
    CrcMode,
    PayloadMode,
    ScheduleError,
    olcfg_preset,
    validate,
)
from esbsim.engine import (
    PURPOSE_CORRUPT,
    PURPOSE_JITTER,
    PURPOSE_LOSS,
    block_uniforms,
    us_to_ticks,
)
from esbsim.link import (
    DEFAULT_ATTEMPT_SPACING_US,
    DELIVERED,
    DELIVERED_CORRUPTED,
    LOST,
    OUTCOMES,
    STAGES,
    RecordBatch,
    copy_offsets_ticks,
    draw_series,
    run_attempt_series,
)

LOSSLESS = ChannelModel()


def oracle_series(config, channel, pipeline, n, *, seed, round_index=0, start_attempt=0):
    """The attempt rule, one attempt at a time in Python scalars, applied to
    the draws `run_attempt_series` takes: the first copy that is neither lost
    nor rejected by CRC delivers, and every later surviving copy is
    suppressed or, with CRC off, may escape as a duplicate."""
    draws = draw_series(
        channel, pipeline, config.copies, n,
        seed=seed, round_index=round_index, start_attempt=start_attempt,
    )
    offsets = copy_offsets_ticks(config)
    on_air = airtime.on_air_ticks(config)
    totals = pipeline.stage_totals_us(config)
    crc_on = config.crc_mode is not CrcMode.OFF
    spacing = us_to_ticks(DEFAULT_ATTEMPT_SPACING_US)
    rows = []
    for i in range(n):
        lost, corrupted, escaped, jitter = (column[i].tolist() for column in draws)
        ticks = [max(1, us_to_ticks(base + j)) for base, j in zip(totals, jitter)]
        attempt = start_attempt + i
        probes = [attempt * spacing]
        for stage in ticks[:3]:
            probes.append(probes[-1] + stage)
        delivered = -1
        suppressed = duplicates = 0
        for k in range(config.copies):
            if lost[k] or (crc_on and corrupted[k]):
                continue
            if delivered < 0:
                delivered = k
            elif not crc_on and escaped[k]:
                duplicates += 1
            else:
                suppressed += 1
        if delivered < 0:
            probes += [-1] * 4
            outcome = LOST
        else:
            probes.append(probes[3] + offsets[delivered] + on_air + ticks[3])
            for stage in ticks[4:]:
                probes.append(probes[-1] + stage)
            outcome = DELIVERED_CORRUPTED if corrupted[delivered] else DELIVERED
        rows.append((round_index, attempt, probes, delivered, outcome, suppressed, duplicates))
    columns = [np.array(column, dtype=np.int64) for column in zip(*rows)]
    zeros = np.zeros(n, dtype=np.int64)
    return RecordBatch(("",), (config.digest(),), (seed,), zeros, zeros, *columns)


@pytest.fixture(scope="module")
def pipeline():
    return calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())


@pytest.fixture(scope="module")
def quiet_pipeline(pipeline):
    return dataclasses.replace(pipeline, jitter_family="off")


def one_attempt(config, channel, pipeline, seed):
    """Attempt 0 of round 0, with no namespace."""
    return run_attempt_series(config, channel, pipeline, 1, seed=seed)


def d0d7_ticks(batch):
    """The d0-d7 interval of every row in ticks, meaningful where d7 fired."""
    return batch.probes[:, 7] - batch.probes[:, 0]


def present_probes_increase(probes) -> bool:
    """Whether the probes each row reached (those >= 0) strictly increase."""
    later = probes[:, 1:]
    return bool(np.all((later > np.maximum.accumulate(probes, axis=1)[:, :-1]) | (later < 0)))


def rows(batch, index):
    """The rows `index` picks of `batch`, over the same side tables."""
    return dataclasses.replace(batch, **{f.name: getattr(batch, f.name)[index] for f in dataclasses.fields(batch)[3:]})


class TestScheduleCopies:
    def test_three_copies_at_the_configured_delay(self):
        assert copy_offsets_ticks(olcfg_preset()) == [0, 4350, 8700]

    def test_no_retransmissions(self):
        cfg = dataclasses.replace(olcfg_preset(), retransmit_count=0)
        assert copy_offsets_ticks(cfg) == [0]

    @pytest.mark.parametrize("n", range(16))
    def test_copy_count_is_retransmits_plus_one(self, n):
        cfg = dataclasses.replace(olcfg_preset(), retransmit_count=n)
        assert len(copy_offsets_ticks(cfg)) == n + 1

    def test_end_to_start_spacing_adds_the_frame_time(self):
        cfg = dataclasses.replace(olcfg_preset(), copy_spacing=CopySpacing.END_TO_START)
        assert copy_offsets_ticks(cfg) == [0, 4715, 9430]  # 435 + 36.5 on air

    def test_end_to_start_gap_shorter_than_a_frame(self, quiet_pipeline):
        # the delay is a gap after each frame, so copies cannot overlap
        cfg = dataclasses.replace(
            olcfg_preset(), copy_spacing=CopySpacing.END_TO_START, retransmit_delay_us=10.0
        )
        assert validate(cfg) == cfg
        on_air = airtime.on_air_ticks(cfg)
        step = on_air + 100
        assert copy_offsets_ticks(cfg) == [0, step, 2 * step]
        overhead = round(quiet_pipeline.radio_overhead_us * 10)
        records = run_attempt_series(cfg, ChannelModel(p_loss=0.5), quiet_pipeline, 200, seed=12)
        delivered = records.delivered_copy >= 0
        copy = records.delivered_copy[delivered]
        assert set(copy.tolist()) == {0, 1, 2}
        gap = records.probes[delivered, 4] - records.probes[delivered, 3]
        assert np.array_equal(gap, copy * step + on_air + overhead)


class TestTransmit:
    def test_calibrated_quiet_run_reproduces_the_reference_latency(self, quiet_pipeline):
        rec = one_attempt(olcfg_preset(), LOSSLESS, quiet_pipeline, 1)
        assert d0d7_ticks(rec).tolist() == [4863]  # 486.3 us
        assert rec.outcome.tolist() == [DELIVERED]
        assert rec.delivered_copy.tolist() == [0]

    def test_all_copies_lost(self, quiet_pipeline):
        rec = one_attempt(olcfg_preset(), ChannelModel(p_loss=1.0), quiet_pipeline, 1)
        assert rec.outcome.tolist() == [LOST]
        assert rec.delivered_copy.tolist() == [-1]
        assert rec.probes[0, 4:].tolist() == [-1] * 4  # d4..d7 never fire
        assert (rec.probes[0, :4] >= 0).all()  # the transmit side still ran

    def test_delivery_via_first_retransmission_shifts_d4_by_the_delay(self, quiet_pipeline):
        baseline = one_attempt(olcfg_preset(), LOSSLESS, quiet_pipeline, 1)
        # find a seed whose loss draws kill copy 0 and keep copy 1
        channel = ChannelModel(p_loss=0.5)
        for seed in range(1000):
            lost = block_uniforms(seed, (), 0, PURPOSE_LOSS, 0, 1, 3)[0] < channel.p_loss
            if lost[0] and not lost[1]:
                rec = one_attempt(olcfg_preset(), channel, quiet_pipeline, seed)
                break
        else:
            pytest.fail("no suitable loss pattern found")
        assert rec.delivered_copy.tolist() == [1]
        assert rec.probes[0, 4] - baseline.probes[0, 4] == 4350  # 435 us

    def test_probe_chain_is_strictly_increasing(self, pipeline):
        channel = ChannelModel(p_loss=0.3, p_corrupt=0.1)
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
        assert present_probes_increase(run_attempt_series(cfg, channel, pipeline, 300, seed=3).probes)

    def test_air_interval_identity(self, quiet_pipeline):
        # d4 - d3 = copy offset + on-air time + radio overhead, exactly
        channel = ChannelModel(p_loss=0.45)
        on_air = airtime.on_air_ticks(olcfg_preset())
        overhead = round(quiet_pipeline.radio_overhead_us * 10)
        records = run_attempt_series(olcfg_preset(), channel, quiet_pipeline, 500, seed=11)
        delivered = records.delivered_copy >= 0
        gap = records.probes[delivered, 4] - records.probes[delivered, 3]
        assert np.array_equal(gap, records.delivered_copy[delivered] * 4350 + on_air + overhead)

    def test_crc_rejects_corrupted_copies_entirely(self, quiet_pipeline):
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
        rec = one_attempt(cfg, ChannelModel(p_corrupt=1.0), quiet_pipeline, 5)
        assert rec.outcome.tolist() == [LOST]

    def test_crc_off_delivers_corrupted_payloads(self, quiet_pipeline):
        rec = one_attempt(olcfg_preset(), ChannelModel(p_corrupt=1.0), quiet_pipeline, 5)
        assert rec.outcome.tolist() == [DELIVERED_CORRUPTED]
        assert rec.delivered_copy.tolist() == [0]

    def test_standard_payload_mode_pays_its_modifier(self, quiet_pipeline):
        mods = dict(quiet_pipeline.modifiers_us)
        mods[("payload", "standard")] = 7.27
        pipe = dataclasses.replace(quiet_pipeline, modifiers_us=mods)
        optimized = one_attempt(olcfg_preset(), LOSSLESS, pipe, 1)
        standard_cfg = dataclasses.replace(olcfg_preset(), payload_mode=PayloadMode.STANDARD)
        standard = one_attempt(standard_cfg, LOSSLESS, pipe, 1)
        gap = (d0d7_ticks(standard) - d0d7_ticks(optimized)).tolist()
        assert gap == [73]  # 7.27 us, tick-rounded


class TestDedup:
    """Every copy survives a lossless channel, so copy 0 delivers and the
    other copies are duplicates for the receiver to handle."""

    def _series(self, pipeline, escape_prob, **changes):
        cfg = dataclasses.replace(olcfg_preset(), **changes)
        pipe = dataclasses.replace(pipeline, dedup_escape_prob=escape_prob)
        records = run_attempt_series(cfg, LOSSLESS, pipe, 20, seed=1)
        assert (records.delivered_copy == 0).all()
        return records

    def test_crc_on_suppresses_every_duplicate(self, quiet_pipeline):
        records = self._series(quiet_pipeline, 1.0, crc_mode=CrcMode.CRC16)
        assert (records.duplicates_suppressed == 2).all()
        assert (records.duplicates_delivered == 0).all()

    def test_single_copy_has_nothing_to_suppress(self, quiet_pipeline):
        records = self._series(quiet_pipeline, 1.0, retransmit_count=0)
        assert (records.duplicates_suppressed == 0).all()
        assert (records.duplicates_delivered == 0).all()

    def test_crc_off_with_certain_escape(self, quiet_pipeline):
        records = self._series(quiet_pipeline, 1.0)
        assert (records.duplicates_delivered == 2).all()
        assert (records.duplicates_suppressed == 0).all()

    def test_crc_off_with_no_escape(self, quiet_pipeline):
        records = self._series(quiet_pipeline, 0.0)
        assert (records.duplicates_delivered == 0).all()
        assert (records.duplicates_suppressed == 2).all()

    def test_reference_escape_rate_yields_about_one_duplicate(self, quiet_pipeline):
        # at the reference channel, 750 attempts offer ~917 duplicate
        # candidates; at 1/735 escape probability that is ~1.25 escapes
        records = run_attempt_series(
            olcfg_preset(),
            ChannelModel(p_loss=0.2655),
            quiet_pipeline,
            750,
            seed=20,
            config_name="olcfg",
        )
        total = int(records.duplicates_delivered.sum())
        assert total in range(0, 6)  # Poisson(1.25) mass above 5 is ~0.1%


class TestRunAttemptSeries:
    def test_yields_the_requested_record_count(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), LOSSLESS, quiet_pipeline, 150, seed=1, config_name="olcfg"
        )
        assert len(records) == 150
        assert (records.outcome == DELIVERED).all()

    def test_lossy_series_loses_about_p_cubed(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.2655), quiet_pipeline, 750, seed=2
        )
        lost = int((records.outcome == LOST).sum())
        # expected 750 * 0.2655^3 ~ 14, binomial 3 sigma ~ 11
        assert 2 <= lost <= 26

    def test_attempts_are_spaced_on_the_capture_grid(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), LOSSLESS, quiet_pipeline, 5, seed=3, spacing_us=6000.0
        )
        assert records.probes[:, 0].tolist() == [i * 60000 for i in range(5)]

    def test_overlapping_spacing_rejected(self, quiet_pipeline):
        with pytest.raises(ScheduleError):
            run_attempt_series(
                olcfg_preset(), LOSSLESS, quiet_pipeline, 5, seed=3, spacing_us=900.0
            )

    def test_chunked_execution_reproduces_the_full_series(self, pipeline):
        channel = ChannelModel(p_loss=0.3, p_corrupt=0.05)
        full = run_attempt_series(
            olcfg_preset(), channel, pipeline, 40, seed=9, config_name="olcfg"
        )
        head = run_attempt_series(
            olcfg_preset(), channel, pipeline, 25, seed=9, config_name="olcfg"
        )
        tail = run_attempt_series(
            olcfg_preset(), channel, pipeline, 15, seed=9, config_name="olcfg", start_attempt=25
        )
        assert full == RecordBatch.concat([head, tail])

    def test_records_carry_provenance(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), LOSSLESS, quiet_pipeline, 1, seed=77, config_name="olcfg"
        )
        assert records.names == ("olcfg",)
        assert records.hashes == (olcfg_preset().digest(),)
        assert records.seeds == (77,)
        assert records.config_index.tolist() == records.seed_index.tolist() == [0]

    def test_zero_jitter_support_is_exactly_the_copy_offsets(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.2655), quiet_pipeline, 2000, seed=4
        )
        values = set(d0d7_ticks(records)[records.outcome != LOST].tolist())
        assert values == {4863, 4863 + 4350, 4863 + 8700}  # 486.3 us plus 0, 1 or 2 delays

    def test_copy_frequencies_match_the_closed_form(self, quiet_pipeline):
        p = 0.2655
        n = 20_000
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=p), quiet_pipeline, n, seed=5
        )
        counts = Counter(records.delivered_copy.tolist())
        probs, lost_mass = delivered_copy_distribution(p, 3)
        for k in range(3):
            sigma = (probs[k] * (1 - probs[k]) / n) ** 0.5
            assert abs(counts[k] / n - probs[k]) < 3 * sigma
        sigma = (lost_mass * (1 - lost_mass) / n) ** 0.5
        assert abs(counts[-1] / n - lost_mass) < 3 * sigma

    def test_crc_on_never_delivers_duplicates_or_corruption(self, pipeline):
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
        records = run_attempt_series(
            cfg, ChannelModel(p_loss=0.2655, p_corrupt=0.02), pipeline, 750, seed=6
        )
        assert not records.duplicates_delivered.any()
        assert (records.outcome != DELIVERED_CORRUPTED).all()

    def test_lost_iff_no_delivered_copy_iff_rx_probes_absent(self, pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.6, p_corrupt=0.3), pipeline, 400, seed=8
        )
        lost = records.outcome == LOST
        assert np.array_equal(records.delivered_copy == -1, lost)
        assert np.array_equal(records.probes[:, 4] == -1, lost)
        assert np.array_equal(records.probes[:, 7] == -1, lost)


class TestRecordBatch:
    """The columnar record type: columns, equality, joins and pickling."""

    @pytest.fixture
    def batch(self, pipeline):
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.OFF)
        channel = ChannelModel(p_loss=0.5, p_corrupt=0.2)
        return run_attempt_series(cfg, channel, pipeline, 30, seed=2**64 - 1, config_name="a", round_index=3)

    def test_columns_hold_the_series(self, batch):
        assert len(batch) == 30
        assert (batch.names, batch.seeds) == (("a",), (2**64 - 1,))
        assert not batch.config_index.any() and not batch.seed_index.any()
        assert (batch.round_index == 3).all()
        assert batch.attempt.tolist() == list(range(30))
        assert set(batch.outcome.tolist()) == set(range(len(OUTCOMES)))
        assert np.array_equal(batch.delivered_copy == -1, batch.outcome == LOST)
        assert np.array_equal(batch.probes[:, 4:] == -1, np.repeat((batch.outcome == LOST)[:, None], 4, axis=1))

    def test_equality_sees_every_cell(self, batch):
        assert batch == dataclasses.replace(batch)
        for column in ("round_index", "attempt", "probes", "delivered_copy", "outcome",
                       "duplicates_suppressed", "duplicates_delivered"):
            changed = getattr(batch, column).copy()
            changed.flat[-1] += 1
            assert batch != dataclasses.replace(batch, **{column: changed})
        assert batch != dataclasses.replace(batch, names=("b",))
        assert batch != dataclasses.replace(batch, hashes=("0",))
        assert batch != dataclasses.replace(batch, seeds=(0,))
        assert batch != rows(batch, slice(1, None))

    def test_concat_merges_the_side_tables(self, batch, pipeline):
        other = run_attempt_series(olcfg_preset(), LOSSLESS, pipeline, 5, seed=7, config_name="b")
        joined = RecordBatch.concat([batch, other, batch])
        assert joined.names == ("a", "b") and joined.seeds == (2**64 - 1, 7)
        assert len(joined) == 65
        assert rows(joined, slice(0, 30)) == batch
        assert rows(joined, slice(30, 35)) == other
        assert rows(joined, slice(35, None)) == batch
        assert RecordBatch.concat([joined]) == joined
        assert len(RecordBatch.concat([])) == 0

    def test_a_name_keeps_one_hash(self, batch):
        with pytest.raises(ValueError, match="two hashes"):
            RecordBatch.concat([batch, dataclasses.replace(batch, hashes=("0",))])

    def test_columns_must_agree_in_length(self, batch):
        with pytest.raises(ValueError, match="rows"):
            dataclasses.replace(batch, attempt=batch.attempt[:-1])

    def test_pickles(self, batch):
        assert pickle.loads(pickle.dumps(batch)) == batch


class TestTimelineProperties:
    """The attempt rule, checked against loss and corruption bits re-drawn
    from each attempt's own counter blocks, and against the scalar oracle."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        round_index=st.integers(0, 3),
        crc=st.sampled_from(CrcMode),
        retransmits=st.integers(0, 3),
        p_loss=st.floats(0.0, 1.0),
        p_corrupt=st.floats(0.0, 1.0),
        spacing=st.sampled_from(CopySpacing),
        jitter=st.sampled_from(("off", "normal", "uniform")),
        n=st.integers(2, 8),
        data=st.data(),
    )
    def test_first_surviving_copy_delivers(
        self, pipeline, seed, round_index, crc, retransmits, p_loss, p_corrupt, spacing, jitter, n, data
    ):
        cfg = dataclasses.replace(
            olcfg_preset(), crc_mode=crc, retransmit_count=retransmits, copy_spacing=spacing
        )
        channel = ChannelModel(p_loss=p_loss, p_corrupt=p_corrupt)
        pipe = dataclasses.replace(pipeline, jitter_family=jitter, dedup_escape_prob=0.5)

        def series(count, start=0):
            return run_attempt_series(
                cfg, channel, pipe, count, seed=seed, round_index=round_index, start_attempt=start
            )

        records = series(n)
        crc_on = crc is not CrcMode.OFF
        first, extra = [], []
        for attempt in records.attempt.tolist():
            lost = block_uniforms(seed, (), round_index, PURPOSE_LOSS, attempt, 1, cfg.copies)[0] < p_loss
            corrupted = (
                block_uniforms(seed, (), round_index, PURPOSE_CORRUPT, attempt, 1, cfg.copies)[0]
                < p_corrupt
            )
            surviving = [
                k for k in range(cfg.copies) if not lost[k] and not (crc_on and corrupted[k])
            ]
            first.append(surviving[0] if surviving else -1)
            extra.append(max(len(surviving) - 1, 0))
        assert records.delivered_copy.tolist() == first
        assert (records.duplicates_suppressed + records.duplicates_delivered).tolist() == extra
        if crc_on:
            assert not records.duplicates_delivered.any()
        assert present_probes_increase(records.probes)
        assert (records.probes[:, :4] >= 0).all()
        # d4..d7 all fire, or none does when the attempt is lost
        rx_absent = records.probes[:, 4:] < 0
        assert np.array_equal(rx_absent, np.repeat((records.outcome == LOST)[:, None], 4, axis=1))

        split = data.draw(st.integers(1, n - 1))
        assert RecordBatch.concat([series(split), series(n - split, split)]) == records

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        round_index=st.integers(0, 5),
        start_attempt=st.integers(0, 10**6),
        n=st.integers(1, 12),
        crc=st.sampled_from(CrcMode),
        retransmits=st.integers(0, 5),  # 1..6 copies: one or two counter blocks
        p_loss=st.floats(0.0, 1.0),
        p_corrupt=st.floats(0.0, 1.0),
        escape=st.sampled_from((0.0, 0.5, 1.0)),
        spacing=st.sampled_from(CopySpacing),
        jitter=st.sampled_from(("off", "normal", "uniform")),
        jitter_scale=st.sampled_from((1.0, 30.0)),  # 30x drives stages onto the 1-tick floor
        data=st.data(),
    )
    def test_fast_path_matches_the_scalar_oracle(
        self, pipeline, seed, round_index, start_attempt, n, crc, retransmits, p_loss, p_corrupt,
        escape, spacing, jitter, jitter_scale, data,
    ):
        cfg = dataclasses.replace(
            olcfg_preset(), crc_mode=crc, retransmit_count=retransmits, copy_spacing=spacing
        )
        channel = ChannelModel(p_loss=p_loss, p_corrupt=p_corrupt)
        pipe = dataclasses.replace(
            pipeline,
            jitter_family=jitter,
            jitter_sigma_us=tuple(s * jitter_scale for s in pipeline.jitter_sigma_us),
            dedup_escape_prob=escape,
        )

        def series(count, start):
            return run_attempt_series(
                cfg, channel, pipe, count, seed=seed, round_index=round_index, start_attempt=start
            )

        records = series(n, start_attempt)
        assert records == oracle_series(
            cfg, channel, pipe, n, seed=seed, round_index=round_index, start_attempt=start_attempt
        )
        split = data.draw(st.integers(0, n))
        head = [series(split, start_attempt)] if split else []
        tail = [series(n - split, start_attempt + split)] if split < n else []
        assert RecordBatch.concat(head + tail) == records


class TestDraws:
    """The block-addressed draws and the jitter families built on them."""

    def test_rows_depend_only_on_the_attempt_index(self):
        full = block_uniforms(5, (2,), 3, PURPOSE_LOSS, 10, 9, 6)
        assert full.shape == (9, 6)
        for start, stop in ((0, 4), (4, 5), (5, 9)):
            part = block_uniforms(5, (2,), 3, PURPOSE_LOSS, 10 + start, stop - start, 6)
            assert np.array_equal(part, full[start:stop])

    def test_addresses_select_distinct_draws(self):
        base = block_uniforms(5, (), 1, PURPOSE_LOSS, 0, 4, 3)
        for other in (
            block_uniforms(6, (), 1, PURPOSE_LOSS, 0, 4, 3),
            block_uniforms(5, (1,), 1, PURPOSE_LOSS, 0, 4, 3),
            block_uniforms(5, (), 2, PURPOSE_LOSS, 0, 4, 3),
            block_uniforms(5, (), 1, PURPOSE_CORRUPT, 0, 4, 3),
            block_uniforms(5, (), 1, PURPOSE_LOSS, 4, 4, 3),  # the next four attempts
        ):
            assert not np.isin(other, base).any()

    def test_bad_address_rejected(self):
        with pytest.raises(ValueError):
            block_uniforms(1, (), 0, PURPOSE_LOSS, -1, 2, 3)
        with pytest.raises(ValueError):
            block_uniforms(1, (), 0, PURPOSE_LOSS, 0, 2, 0)
        with pytest.raises(ValueError):
            block_uniforms(1, (), -1, PURPOSE_LOSS, 0, 2, 3)
        with pytest.raises(ValueError):
            block_uniforms(1, (), 0, -1, 0, 2, 3)
        with pytest.raises(ValueError):
            block_uniforms(1, (), 0, PURPOSE_LOSS, 0, -1, 3)
        for seed in (-1, 2**64):  # would alias 2**64 - 1 and 0
            with pytest.raises(ValueError):
                block_uniforms(seed, (), 0, PURPOSE_LOSS, 0, 2, 3)

    @pytest.mark.parametrize("family", ["normal", "uniform"])
    def test_jitter_is_the_documented_transform_of_the_uniforms(self, pipeline, family):
        pipe = dataclasses.replace(pipeline, jitter_family=family)
        jitter = draw_series(LOSSLESS, pipe, 3, 50, seed=8, round_index=2, start_attempt=7).jitter_us
        sigma = pipe.jitter_sigma_us
        width = 8 if family == "normal" else len(STAGES)
        for row, u in zip(jitter, block_uniforms(8, (), 2, PURPOSE_JITTER, 7, 50, width)):
            if family == "uniform":
                expected = [sqrt(3.0) * (2.0 * x - 1.0) for x in u]
            else:
                radius = [sqrt(-2.0 * log1p(-x)) for x in u[:4]]
                angle = [2.0 * pi * x for x in u[4:]]
                expected = [r * cos(a) for r, a in zip(radius, angle)]
                expected += [r * sin(a) for r, a in zip(radius, angle)]
            assert list(row) == pytest.approx([e * s for e, s in zip(expected, sigma)], rel=1e-12, abs=1e-12)

    def test_jitter_off_draws_nothing(self, pipeline):
        jitter = draw_series(LOSSLESS, dataclasses.replace(pipeline, jitter_family="off"), 3, 10, seed=1).jitter_us
        assert jitter.shape == (10, len(STAGES))
        assert not jitter.any()

    @pytest.mark.parametrize("family", ["normal", "uniform"])
    def test_per_stage_jitter_has_the_stage_sd(self, pipeline, family):
        n = 40_000
        sigma = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        pipe = dataclasses.replace(pipeline, jitter_family=family, jitter_sigma_us=tuple(sigma))
        jitter = draw_series(LOSSLESS, pipe, 3, n, seed=21, namespace=(1,)).jitter_us
        # standard errors: sigma/sqrt(n) for the mean; for the SD at most
        # sigma/sqrt(2n) (normal; the uniform's is smaller), so 5 SE bounds
        assert np.all(np.abs(jitter.mean(axis=0)) < 5 * sigma / sqrt(n))
        assert np.all(np.abs(jitter.std(axis=0) - sigma) < 5 * sigma / sqrt(2 * n))
        corr = np.corrcoef(jitter, rowvar=False) - np.eye(len(STAGES))
        assert np.abs(corr).max() < 5 / sqrt(n)
        # Kolmogorov-Smirnov distance of the standardized draws from the
        # family's CDF; sqrt(m) * D exceeds 2.2 with probability ~1e-4
        z = np.sort((jitter / sigma).ravel())
        if family == "uniform":
            assert np.abs(z).max() <= sqrt(3.0)
            cdf = (z + sqrt(3.0)) / (2.0 * sqrt(3.0))
        else:
            cdf = np.array([0.5 * (1.0 + erf(x / sqrt(2.0))) for x in z.tolist()])
        m = z.size
        distance = max((np.arange(1, m + 1) / m - cdf).max(), (cdf - np.arange(m) / m).max())
        assert distance < 2.2 / sqrt(m)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        p_loss=st.floats(0.0, 1.0),
        retransmits=st.integers(0, 5),
        seed=st.integers(0, 2**32),
    )
    def test_delivered_copy_frequencies_match_the_closed_form(
        self, quiet_pipeline, p_loss, retransmits, seed
    ):
        n = 4000
        cfg = dataclasses.replace(olcfg_preset(), retransmit_count=retransmits)
        records = run_attempt_series(cfg, ChannelModel(p_loss=p_loss), quiet_pipeline, n, seed=seed)
        counts = Counter(records.delivered_copy.tolist())
        probs, lost_mass = delivered_copy_distribution(p_loss, cfg.copies)
        # 5 binomial SDs around each expected count; a cell of probability 0
        # or 1 must be exact
        for observed, p in [(counts[k], probs[k]) for k in range(cfg.copies)] + [(counts[-1], lost_mass)]:
            assert abs(observed - n * p) <= 5 * sqrt(n * p * (1 - p)) + 1e-9 * n
