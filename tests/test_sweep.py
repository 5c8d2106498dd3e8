import csv
import dataclasses
import io
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esbsim import __version__, sweep
from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
from esbsim.cli import main
from esbsim.config import ChannelModel, CrcMode, olcfg_preset
from esbsim.engine import RNG_ALGORITHM
from esbsim.link import DELIVERED, DELIVERED_CORRUPTED, LOST, OUTCOMES, PROBES, Outcome, RecordBatch, run_attempt_series
from esbsim.sweep import (
    CSV_COLUMNS,
    DEFAULT_HISTOGRAM_BIN_US,
    DEFAULT_MODE_SPACING_US,
    REPORT_INTERVALS,
    RESULTS_FORMAT,
    EmptyInputError,
    SchemaError,
    SummaryStats,
    SweepPlan,
    accounting_by_config,
    detect_modes,
    parse_results_csv,
    read_results,
    render_report,
    render_results_csv,
    run_sweep,
    shuffle_round_order,
    summarize,
    summarize_by_config,
    write_results,
)


# --- row-wise oracles ------------------------------------------------------------
# The record-at-a-time CSV writer, reader and per-config summary that the
# columnar paths replaced; the fast paths must agree with them exactly.


class Row(NamedTuple):
    """One record as the oracles see it: probe times in ticks, None for a
    probe never reached and for the delivered copy of a lost attempt."""

    config_name: str
    config_hash: str
    round_index: int
    attempt: int
    seed: int
    probes_ticks: tuple
    delivered_copy: int | None
    outcome: Outcome
    duplicates_suppressed: int
    duplicates_delivered: int


def rows_of(batch: RecordBatch) -> list[Row]:
    """The rows of `batch`, with its side tables looked up."""
    columns = (getattr(batch, field.name).tolist() for field in dataclasses.fields(batch)[3:])
    return [
        Row(batch.names[c], batch.hashes[c], r, a, batch.seeds[s], tuple(None if t < 0 else t for t in probes),
            None if copy < 0 else copy, OUTCOMES[o], suppressed, delivered)
        for c, s, r, a, probes, copy, o, suppressed, delivered in zip(*columns)
    ]


def batch_of(records) -> RecordBatch:
    """The batch whose rows are `records`."""
    hashes = {}
    for r in records:
        hashes.setdefault(r.config_name, r.config_hash)
    names = list(hashes)
    seeds = list(dict.fromkeys(r.seed for r in records))

    def column(values):
        return np.array(list(values), dtype=np.int64)

    return RecordBatch(
        names=tuple(names),
        hashes=tuple(hashes.values()),
        seeds=tuple(seeds),
        config_index=column(names.index(r.config_name) for r in records),
        seed_index=column(seeds.index(r.seed) for r in records),
        round_index=column(r.round_index for r in records),
        attempt=column(r.attempt for r in records),
        probes=column([-1 if t is None else t for t in r.probes_ticks] for r in records).reshape(
            -1, len(PROBES)
        ),
        delivered_copy=column(-1 if r.delivered_copy is None else r.delivered_copy for r in records),
        outcome=column(list(Outcome).index(r.outcome) for r in records),
        duplicates_suppressed=column(r.duplicates_suppressed for r in records),
        duplicates_delivered=column(r.duplicates_delivered for r in records),
    )


def oracle_render(records) -> str:
    out = io.StringIO()
    out.write(f"# {RESULTS_FORMAT}\n# tool=esbsim {__version__}\n# rng={RNG_ALGORITHM}\n")
    seeds = sorted({r.seed for r in records})
    if seeds:
        out.write(f"# seed={','.join(map(str, seeds))}\n")
    seen = {}
    for r in records:
        if r.config_name not in seen:
            seen[r.config_name] = r.config_hash
            out.write(f"# config {r.config_name} hash={r.config_hash}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.config_name,
                r.round_index,
                r.attempt,
                r.seed,
                *("" if t is None else f"{t / 10:.1f}" for t in r.probes_ticks),
                "" if r.delivered_copy is None else r.delivered_copy,
                r.outcome.value,
                r.duplicates_suppressed,
                r.duplicates_delivered,
            ]
        )
    return out.getvalue()


def oracle_parse(text: str) -> list[Row]:
    hashes, rows = {}, []
    for line in text.splitlines():
        if not rows and line.startswith("#"):
            if line.startswith("# config "):
                name, sep, config_hash = line.removeprefix("# config ").rpartition(" hash=")
                if sep:
                    hashes[name] = config_hash
        elif line.strip():
            rows.append(line)
    reader = csv.reader(rows)
    assert tuple(next(reader)) == CSV_COLUMNS
    return [
        Row(
            config_name=row[0],
            config_hash=hashes.get(row[0], ""),
            round_index=int(row[1]),
            attempt=int(row[2]),
            seed=int(row[3]),
            probes_ticks=tuple(None if cell == "" else round(float(cell) * 10) for cell in row[4:12]),
            delivered_copy=None if row[12] == "" else int(row[12]),
            outcome=Outcome(row[13]),
            duplicates_suppressed=int(row[14]),
            duplicates_delivered=int(row[15]),
        )
        for row in reader
    ]


def oracle_summarize_by_config(records, intervals=REPORT_INTERVALS) -> dict:
    by_config = {}
    for r in records:
        by_config.setdefault(r.config_name, []).append(r)
    out = {}
    for name, recs in by_config.items():
        out[name] = {}
        for start, end in intervals:
            ticks, lost = [], 0
            for r in recs:
                a, b = r.probes_ticks[PROBES.index(start)], r.probes_ticks[PROBES.index(end)]
                if a is None or b is None:
                    lost += 1
                else:
                    ticks.append(b - a)
            if not ticks:
                continue
            ticks = np.sort(np.asarray(ticks, dtype=np.int64))
            values_us = ticks / 10.0
            width = DEFAULT_HISTOGRAM_BIN_US
            lo = np.floor(values_us[0] / width) * width
            n_bins = max(1, int(round((np.ceil(values_us[-1] / width) * width - lo) / width)))
            counts, edges = np.histogram(values_us, bins=n_bins, range=(lo, lo + n_bins * width))
            out[name][start + end] = SummaryStats(
                n=int(ticks.size),
                n_lost=lost,
                mean_us=float(ticks.mean() / 10.0),
                median_us=float(np.median(ticks) / 10.0),
                sd_us=float(ticks.std() / 10.0),
                p99_us=float(np.percentile(ticks, 99) / 10.0),
                hist_counts=tuple(int(c) for c in counts),
                hist_edges=tuple(float(e) for e in edges),
                modes_us=detect_modes(counts, edges, DEFAULT_MODE_SPACING_US),
            )
    return out


# names hold no line breaks: the format is line-based
NAMES = st.sampled_from(
    ["", "two words", "#hash-led", "comma,name", ' spaced " quote ', "odd hash=name", "100%"]
) | st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)


@st.composite
def record_lists(draw, max_size=20, names=NAMES, min_size=0):
    """Records of up to four configs with arbitrary cells: any probe may be
    absent, seeds span 64 bits, so one file holds several."""
    hashes = draw(st.dictionaries(names, st.text("0123456789abcdef", max_size=12), min_size=1, max_size=4))
    probe = st.none() | st.integers(0, 2**40)
    record = st.builds(
        Row,
        config_name=st.sampled_from(sorted(hashes)),
        config_hash=st.just(""),
        round_index=st.integers(0, 10**4),
        attempt=st.integers(0, 10**9),
        seed=st.integers(0, 2**64 - 1),
        probes_ticks=st.tuples(*[probe] * 8),
        delivered_copy=st.none() | st.integers(0, 15),
        outcome=st.sampled_from(Outcome),
        duplicates_suppressed=st.integers(0, 15),
        duplicates_delivered=st.integers(0, 15),
    )
    records = draw(st.lists(record, min_size=min_size, max_size=max_size))
    return [r._replace(config_hash=hashes[r.config_name]) for r in records]


@pytest.fixture(scope="module")
def pipeline():
    return calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())


@pytest.fixture(scope="module")
def quiet_pipeline(pipeline):
    return dataclasses.replace(pipeline, jitter_family="off")


@pytest.fixture(scope="module")
def small_plan():
    crc16 = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
    return SweepPlan(
        configs=(("olcfg", olcfg_preset()), ("crc16", crc16)),
        rounds=3,
        attempts_per_round=50,
        shuffle=True,
        seed=42,
    )


class TestSweepPlan:
    def test_counts(self, small_plan, quiet_pipeline):
        # every (config, round) series holds attempts_per_round rows
        records = run_sweep(small_plan, ChannelModel(), quiet_pipeline)
        per_series = np.bincount(records.config_index * small_plan.rounds + records.round_index)
        assert per_series.tolist() == [small_plan.attempts_per_round] * len(small_plan.configs) * small_plan.rounds

    def test_protocol_count_arithmetic(self, quiet_pipeline):
        five = SweepPlan(configs=(("a", olcfg_preset()),), rounds=5, attempts_per_round=150)
        three = SweepPlan(configs=(("a", olcfg_preset()),), rounds=3, attempts_per_round=150)
        assert len(run_sweep(five, ChannelModel(), quiet_pipeline)) == 750
        assert len(run_sweep(three, ChannelModel(), quiet_pipeline)) == 450

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan(configs=(("a", olcfg_preset()),), rounds=0)
        with pytest.raises(ValueError):
            SweepPlan(configs=(("a", olcfg_preset()),), attempts_per_round=0)
        with pytest.raises(ValueError):
            SweepPlan(configs=())
        with pytest.raises(ValueError):
            SweepPlan(configs=(("a", olcfg_preset()), ("a", olcfg_preset())))


class TestShuffle:
    def test_single_config_is_identity(self):
        assert shuffle_round_order(1, 0, 1) == [0]

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(1, 40))
    def test_output_is_a_permutation(self, seed, round_index, n):
        assert sorted(shuffle_round_order(seed, round_index, n)) == list(range(n))

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32), st.integers(1, 40))
    def test_deterministic_per_seed_and_round(self, seed, round_index, n):
        assert shuffle_round_order(seed, round_index, n) == shuffle_round_order(seed, round_index, n)

    def test_rounds_give_different_orders(self):
        # 1/10! chance of a false failure
        assert shuffle_round_order(9, 4, 10) != shuffle_round_order(9, 5, 10)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            shuffle_round_order(1, 0, 0)


class TestRunSweep:
    def test_record_counts_per_config(self, small_plan, quiet_pipeline):
        records = run_sweep(small_plan, ChannelModel(), quiet_pipeline)
        assert len(records) == 2 * small_plan.rounds * small_plan.attempts_per_round
        per_config = dict(zip(records.names, np.bincount(records.config_index).tolist()))
        assert per_config == {"olcfg": 150, "crc16": 150}

    def test_lossless_channel_delivers_everything(self, small_plan, quiet_pipeline):
        records = run_sweep(small_plan, ChannelModel(), quiet_pipeline)
        assert (records.outcome == DELIVERED).all()

    def test_shuffling_does_not_change_the_record_multiset(self, small_plan, quiet_pipeline):
        ordered = dataclasses.replace(small_plan, shuffle=False)
        a = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        b = run_sweep(ordered, ChannelModel(p_loss=0.2), quiet_pipeline)
        assert a == b  # canonical output order; randomness is keyed, not ordered

    def test_worker_count_does_not_change_results(self, small_plan, quiet_pipeline):
        serial = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline, workers=1)
        parallel = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline, workers=4)
        assert serial == parallel

    @settings(max_examples=30, deadline=None)
    @given(
        n_configs=st.integers(1, 3),
        rounds=st.integers(1, 3),
        attempts=st.integers(1, 20),
        seed=st.integers(0, 2**64 - 1),
        shuffle=st.booleans(),
        p_loss=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_any_execution_order_gives_the_sweeps_csv(
        self, pipeline, n_configs, rounds, attempts, seed, shuffle, p_loss, data
    ):
        configs = (
            ("olcfg", olcfg_preset()),
            ("crc16", dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)),
            ("single", dataclasses.replace(olcfg_preset(), retransmit_count=0)),
        )[:n_configs]
        plan = SweepPlan(configs=configs, rounds=rounds, attempts_per_round=attempts, shuffle=shuffle, seed=seed)
        channel = ChannelModel(p_loss=p_loss, p_corrupt=0.1)
        tasks = data.draw(st.permutations([(c, r) for c in range(n_configs) for r in range(rounds)]))
        series = {task: sweep.run_series(plan, channel, pipeline, *task, attempts) for task in tasks}
        joined = RecordBatch.concat([series[c, r] for c in range(n_configs) for r in range(rounds)])
        assert render_results_csv(joined) == render_results_csv(run_sweep(plan, channel, pipeline))


class TestSummarize:
    def test_quiet_lossless_run_is_a_point_mass(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 100, seed=1)
        stats = summarize(records, ("d0", "d7"))
        assert stats.mean_us == stats.median_us == 486.3
        assert stats.sd_us == 0.0
        assert stats.n == 100
        assert stats.n_lost == 0

    def test_single_record(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 1, seed=1)
        stats = summarize(records)
        assert stats.n == 1
        assert stats.mean_us == stats.median_us
        assert stats.sd_us == 0.0

    def test_lost_records_counted_separately(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.6), quiet_pipeline, 200, seed=2
        )
        stats = summarize(records)
        lost = int((records.outcome == LOST).sum())
        assert stats.n == 200 - lost
        assert stats.n_lost == lost

    def test_histogram_counts_sum_to_delivered(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.3), quiet_pipeline, 500, seed=3
        )
        stats = summarize(records)
        assert sum(stats.hist_counts) == stats.n

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            summarize([])

    def test_unknown_interval_rejected(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 1, seed=1)
        with pytest.raises(ValueError):
            summarize(records, ("d0", "d9"))

    def test_median_within_range_and_sd_non_negative(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.4), quiet_pipeline, 400, seed=4
        )
        stats = summarize(records)
        delivered = records.delivered_copy >= 0
        values = (records.probes[delivered, 7] - records.probes[delivered, 0]) / 10
        assert values.min() <= stats.median_us <= values.max()
        assert stats.sd_us >= 0


class TestDetectModes:
    def test_single_mode_for_lossless_runs(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 200, seed=5)
        stats = summarize(records)
        assert len(stats.modes_us) == 1

    def test_three_modes_spaced_by_the_retransmit_delay(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.2655), quiet_pipeline, 5000, seed=6
        )
        stats = summarize(records)
        assert len(stats.modes_us) == 3
        spacings = np.diff(stats.modes_us)
        assert np.allclose(spacings, 435.0, atol=5.0)

    def test_bulge_masses_follow_the_copy_distribution(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.2655), quiet_pipeline, 5000, seed=6
        )
        stats = summarize(records)
        delivered = records.delivered_copy >= 0
        values = (records.probes[delivered, 7] - records.probes[delivered, 0]) / 10
        nearest = np.argmin(np.abs(values[:, None] - np.asarray(stats.modes_us)), axis=1)
        # without jitter the delivered copy alone sets the latency: one bulge per copy
        assert np.array_equal(nearest, records.delivered_copy[delivered])
        masses = np.bincount(nearest) / nearest.size
        assert masses[0] > masses[1] > masses[2]

    def test_synthetic_histogram(self):
        counts = [0, 10, 2, 0, 0, 0, 0, 0, 12, 1]
        edges = [float(x) for x in range(0, 55, 5)]
        modes = detect_modes(counts, edges, expected_spacing_us=30.0)
        assert len(modes) == 2
        assert modes[0] < modes[1]

    @pytest.mark.parametrize("p_loss", [0.08, 0.2, 0.35, 0.5])
    def test_mode_spacing_within_one_bin_across_loss_rates(self, quiet_pipeline, p_loss):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=p_loss), quiet_pipeline, 4000, seed=12
        )
        stats = summarize(records)
        assert len(stats.modes_us) >= 2
        for spacing in np.diff(stats.modes_us):
            assert abs(spacing - 435.0) <= 5.0  # one bin

    def test_empty_histogram(self):
        assert detect_modes([], [], 435.0) == ()


class TestAccounting:
    def test_identities_per_mode(self, quiet_pipeline):
        channel = ChannelModel(p_loss=0.2655, p_corrupt=15 / 735)
        by_mode = {}
        for mode in (CrcMode.CRC16, CrcMode.OFF):
            cfg = dataclasses.replace(olcfg_preset(), crc_mode=mode)
            by_mode[mode.value] = run_attempt_series(
                cfg, channel, quiet_pipeline, 750, seed=7, config_name=mode.value
            )
        table = accounting_by_config(RecordBatch.concat(list(by_mode.values())))
        assert list(table) == ["16", "off"]
        for mode, row in table.items():
            series = by_mode[mode]
            assert row.sent == 750
            assert row.received - row.unique == int(series.duplicates_delivered.sum())
            assert row.unique - row.valid == int((series.outcome == DELIVERED_CORRUPTED).sum())
            assert row.lost == row.sent - row.unique == int((series.outcome == LOST).sum())

    def test_crc16_has_no_duplicates_and_no_corruption(self, quiet_pipeline):
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
        records = run_attempt_series(
            cfg, ChannelModel(p_loss=0.2655, p_corrupt=15 / 735), quiet_pipeline, 750, seed=7, config_name="16"
        )
        row = accounting_by_config(records)["16"]
        assert row.received == row.unique
        assert row.valid == row.unique

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists(max_size=40))
    def test_identities_hold_for_arbitrary_batches(self, records):
        table = accounting_by_config(batch_of(records))
        assert list(table) == list(dict.fromkeys(r.config_name for r in records))
        for name, row in table.items():
            rows = [r for r in records if r.config_name == name]
            lost = sum(r.outcome is Outcome.LOST for r in rows)
            corrupted = sum(r.outcome is Outcome.DELIVERED_CORRUPTED for r in rows)
            duplicates = sum(r.duplicates_delivered for r in rows)
            assert row.sent == len(rows) == row.unique + lost
            assert row.lost == lost
            assert row.received == row.unique + duplicates
            assert row.valid == row.unique - corrupted

    @settings(max_examples=60, deadline=None)
    @given(
        crc=st.sampled_from([CrcMode.CRC8, CrcMode.CRC16]),
        retransmits=st.integers(0, 5),
        p_loss=st.floats(0.0, 1.0),
        p_corrupt=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_crc_on_delivers_no_duplicates(self, quiet_pipeline, crc, retransmits, p_loss, p_corrupt, seed):
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=crc, retransmit_count=retransmits)
        pipe = dataclasses.replace(quiet_pipeline, dedup_escape_prob=1.0)
        batch = run_attempt_series(cfg, ChannelModel(p_loss=p_loss, p_corrupt=p_corrupt), pipe, 50, seed=seed)
        assert not batch.duplicates_delivered.any()
        (row,) = accounting_by_config(batch).values()
        assert row.sent == row.unique + int((batch.outcome == LOST).sum())
        assert row.received == row.unique

    def test_no_corruption_means_valid_equals_unique(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.3), quiet_pipeline, 300, seed=8, config_name="off"
        )
        row = accounting_by_config(records)["off"]
        assert row.valid == row.unique


class TestPersistence:
    def test_round_trip_equality(self, small_plan, quiet_pipeline, tmp_path):
        records = run_sweep(small_plan, ChannelModel(p_loss=0.2, p_corrupt=0.05), quiet_pipeline)
        path = tmp_path / "results.csv"
        write_results(records, path)
        assert read_results(path) == records

    def test_header_only_for_empty_record_set(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = RecordBatch.concat([])
        write_results(empty, path)
        text = path.read_text()
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 1  # just the column header
        assert read_results(path) == empty

    def test_provenance_comments(self, quiet_pipeline, tmp_path):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(), quiet_pipeline, 3, seed=9, config_name="olcfg"
        )
        text = render_results_csv(records)
        assert "# seed=9\n" in text
        assert f"# config olcfg hash={olcfg_preset().digest()}" in text
        assert "# rng=" in text

    def test_every_seed_in_the_provenance_header(self, quiet_pipeline):
        records = RecordBatch.concat(
            [
                run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=9, config_name="a"),
                run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=3, config_name="b"),
            ]
        )
        text = render_results_csv(records)
        assert "# seed=3,9\n" in text
        assert parse_results_csv(text) == records

    @pytest.mark.parametrize("name", ["", "two words", "#hash-led", "comma,name", ' spaced " quote ', "odd hash=name"])
    def test_config_name_keeps_its_hash(self, quiet_pipeline, name):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 3, seed=4, config_name=name
        )
        text = render_results_csv(records)
        assert f"# config {name} hash={olcfg_preset().digest()}\n" in text
        parsed = parse_results_csv(text)
        assert parsed == records
        assert parsed.hashes == (olcfg_preset().digest(),)

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "trailing\n", "a\x0bb", "a\x85b", "a\u2028b"])
    def test_config_name_with_a_line_break_is_refused(self, quiet_pipeline, name):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=4, config_name=name)
        with pytest.raises(SchemaError, match="line break"):
            render_results_csv(records)

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    def test_round_trip_of_arbitrary_records(self, records):
        batch = batch_of(records)
        assert parse_results_csv(render_results_csv(batch)) == batch

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    def test_columnar_render_matches_the_row_oracle(self, records):
        assert render_results_csv(batch_of(records)) == oracle_render(records)

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    def test_columnar_parse_matches_the_row_oracle(self, records):
        text = oracle_render(records)
        assert rows_of(parse_results_csv(text)) == oracle_parse(text)

    def test_renders_and_parses_across_chunks(self, quiet_pipeline):
        # more rows than one parse or render chunk, with lost rows between delivered ones
        batch = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 20000, seed=3, config_name="olcfg"
        )
        text = render_results_csv(batch)
        assert text == oracle_render(rows_of(batch))
        assert parse_results_csv(text) == batch

    @pytest.mark.parametrize(
        "line, replacement",
        [
            ("# esbsim-results-v1\n", "# esbsim-results-v9\n"),
            ("# esbsim-results-v1\n", ""),
            (f"# rng={RNG_ALGORITHM}\n", "# rng=mt19937\n"),
            (f"# rng={RNG_ALGORITHM}\n", ""),
        ],
    )
    def test_foreign_format_or_rng_rejected(self, quiet_pipeline, line, replacement):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=9)
        text = render_results_csv(records)
        assert line in text
        with pytest.raises(SchemaError):
            parse_results_csv(text.replace(line, replacement))

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            parse_results_csv("")
        with pytest.raises(SchemaError):
            parse_results_csv("a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError):
            parse_results_csv(f"# esbsim-results-v1\n# rng={RNG_ALGORITHM}\na,b,c\n1,2,3\n")

    def test_report_three_row_interval_table(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(), quiet_pipeline, 20, seed=10, config_name="olcfg"
        )
        text = render_report(records, summarize_by_config(records))
        for label in ("d0-d7", "d2-d5", "d3-d4"):
            assert label in text

    def test_summaries_match_the_row_oracle_under_heavy_loss(self, pipeline):
        shapes = ((CrcMode.OFF, 2), (CrcMode.CRC8, 3), (CrcMode.CRC16, 1), (CrcMode.CRC16, 0))
        configs = tuple(
            (f"crc-{mode.value}-r{n}", dataclasses.replace(olcfg_preset(), crc_mode=mode, retransmit_count=n))
            for mode, n in shapes
        )
        plan = SweepPlan(configs=configs, rounds=3, attempts_per_round=400, seed=11)
        pipe = dataclasses.replace(pipeline, dedup_escape_prob=0.3)
        batch = run_sweep(plan, ChannelModel(p_loss=0.5, p_corrupt=0.1), pipe)
        assert set(batch.outcome.tolist()) == set(range(len(OUTCOMES)))
        # the same configs in the same order, with equal statistics
        assert list(summarize_by_config(batch).items()) == list(oracle_summarize_by_config(rows_of(batch)).items())
        # a config whose every attempt is lost keeps its name and no intervals
        lost = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=1.0), pipeline, 5, seed=1, config_name="x"
        )
        assert summarize_by_config(lost) == oracle_summarize_by_config(rows_of(lost)) == {"x": {}}

    def test_summaries_are_pure_functions_of_the_records(
        self, small_plan, quiet_pipeline, tmp_path
    ):
        records = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        path = tmp_path / "results.csv"
        write_results(records, path)
        direct = summarize_by_config(records)
        reloaded = summarize_by_config(read_results(path))
        assert direct == reloaded


def _valid_results(quiet_pipeline) -> list[str]:
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 4, seed=9, config_name="olcfg"
    )
    return render_results_csv(batch).splitlines()


def _set_cell(column, value):
    def edit(cells):
        cells[CSV_COLUMNS.index(column)] = value
        return cells

    return edit


MALFORMED_ROWS = {
    "unknown outcome": (_set_cell("outcome", "bogus"), "outcome 'bogus'"),
    "non-integer round": (_set_cell("round", "1.5"), "round '1.5'"),
    "empty round": (_set_cell("round", ""), "round ''"),
    "non-ASCII digit": (_set_cell("attempt", "\u0663"), "attempt"),
    "nan probe": (_set_cell("d1", "nan"), "d1 'nan'"),
    "probe off the 0.1 us grid": (_set_cell("d1", "12.34"), "d1 '12.34'"),
    "negative probe": (_set_cell("d2", "-0.1"), "d2 '-0.1'"),
    "probe point without a tenth": (_set_cell("d0", "12."), "d0 '12.'"),
    "seed beyond 64 bits": (_set_cell("seed", str(2**64)), "seed"),
    "missing field": (lambda cells: cells[:-1], "row with 15 fields"),
    "extra field": (lambda cells: cells + ["0"], "17 fields"),
    "broken quoted name": (_set_cell("config_name", '"olcfg'), "config_name"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
def test_malformed_row_is_a_schema_error_at_its_line(quiet_pipeline, tmp_path, capsys, case):
    edit, match = MALFORMED_ROWS[case]
    lines = _valid_results(quiet_pipeline)
    line_no = lines.index(",".join(CSV_COLUMNS)) + 3  # the second data row
    lines[line_no - 1] = ",".join(edit(lines[line_no - 1].split(",")))
    text = "\n".join(lines) + "\n"
    with pytest.raises(SchemaError, match=f"^line {line_no}: ") as err:
        parse_results_csv(text)
    assert match in str(err.value)
    path = tmp_path / "results.csv"
    path.write_text(text)
    assert main(["report", "--file", str(path)]) == 1
    assert f"esbsim: error: line {line_no}: " in capsys.readouterr().err


def test_probe_cells_on_the_grid_parse_exactly(quiet_pipeline):
    lines = _valid_results(quiet_pipeline)
    row = lines.index(",".join(CSV_COLUMNS)) + 1
    cells = lines[row].split(",")
    cells[4:8] = ["12", "12.3", "007.5", "99999999999999.9"]
    lines[row] = ",".join(cells)
    parsed = parse_results_csv("\n".join(lines))
    assert parsed.probes[0, :4].tolist() == [120, 123, 75, 999999999999999]


def test_blank_lines_and_crlf_keep_rows_and_line_numbers(quiet_pipeline):
    lines = _valid_results(quiet_pipeline)
    text = "\n".join(lines) + "\n"
    header = lines.index(",".join(CSV_COLUMNS))
    spaced = lines[: header + 2] + ["", "   "] + lines[header + 2 :]
    assert parse_results_csv("\r\n".join(spaced) + "\r\n\r\n") == parse_results_csv(text)
    spaced[header + 4] = spaced[header + 4].replace("delivered", "bogus", 1).replace("lost", "bogus", 1)
    with pytest.raises(SchemaError, match=f"^line {header + 5}: outcome 'bogus'"):
        parse_results_csv("\n".join(spaced))


# --- reading in blocks ------------------------------------------------------------

# the line ends str.splitlines knows, "\r\n" among them; names cross block edges too
LINE_ENDS = ("\n", "\r\n", "\r", "\v", "\x1c", "\x85", "\u2028")
WIDE_NAMES = st.sampled_from(["名前", "ü,ß", "🎯 target", "é" * 5])


@st.composite
def results_texts(draw):
    """Records and a results file of them put back together from its lines
    with arbitrary line ends and blank or whitespace-only lines between them,
    and whether characters of it were replaced (which may make rows
    malformed)."""
    records = draw(record_lists(max_size=12, names=NAMES | WIDE_NAMES, min_size=1))
    lines = render_results_csv(batch_of(records)).splitlines()
    header = lines.index(",".join(CSV_COLUMNS))
    damages = draw(st.sampled_from([0, 0, 1, 2]))
    for _ in range(damages):  # a row or, last in line, the column header
        row = draw(st.sampled_from(range(len(lines) - 1, header - 1, -1)))
        i = draw(st.integers(0, len(lines[row])))
        lines[row] = lines[row][:i] + draw(st.sampled_from([",", "x", "\r", "\n", "#", "é"])) + lines[row][i + 1 :]
    out = []
    for line in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", " ", "\t", "\x1f"])) + draw(st.sampled_from(LINE_ENDS)))
        out.append(line + draw(st.sampled_from(LINE_ENDS)))
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("".join(LINE_ENDS))
    return records, text, damages > 0


def _parsed(parse):
    """The side tables and rows `parse()` returns, or its SchemaError message."""
    try:
        batch = parse()
    except SchemaError as exc:
        return str(exc)
    return batch.names, batch.hashes, batch.seeds, batch


@settings(max_examples=100, deadline=None)
@given(case=results_texts(), block=st.integers(1, 64), chunk=st.integers(1, 5))
def test_reading_in_blocks_equals_reading_the_whole_text(tmp_path_factory, case, block, chunk):
    records, text, damaged = case
    path = tmp_path_factory.mktemp("blocks") / "results.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(sweep, "_CHUNK_ROWS", chunk):
        with mock.patch.object(sweep, "_BLOCK_CHARS", len(text) + 1):
            whole = _parsed(lambda: parse_results_csv(text))
        if not damaged:
            assert whole[3] == batch_of(records)
        with mock.patch.object(sweep, "_BLOCK_CHARS", block):
            assert _parsed(lambda: parse_results_csv(text)) == whole
            assert _parsed(lambda: read_results(path)) == whole


def test_every_block_size_keeps_the_rows_and_the_line_numbers(quiet_pipeline, tmp_path):
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 6, seed=9, config_name="名前 ü"
    )
    lines = render_results_csv(batch).splitlines()
    text = "\r\n".join(lines[:-2]) + "\r\n\x85 \u2028\r" + "\r\n".join(lines[-2:]) + "\r\n"
    short = text + "名前 ü,0\r\n"
    line_no = len(short.splitlines())
    path = tmp_path / "results.csv"
    for block in range(1, 65):
        with mock.patch.object(sweep, "_BLOCK_CHARS", block):
            assert parse_results_csv(text) == batch
            with pytest.raises(SchemaError, match=f"^line {line_no}: row with 2 fields"):
                parse_results_csv(short)
            path.write_text(short, encoding="utf-8", newline="")
            with pytest.raises(SchemaError, match=f"^line {line_no}: row with 2 fields"):
                read_results(path)


def test_read_results_enters_the_parser_through_the_module_attribute(quiet_pipeline, tmp_path, monkeypatch):
    # a benchmark ends its set-up time at this entry by replacing the attribute
    batch = run_attempt_series(olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 5, seed=2)
    path = tmp_path / "results.csv"
    write_results(batch, path)
    sources = []
    parse = sweep.parse_results_csv
    monkeypatch.setattr(sweep, "parse_results_csv", lambda source: sources.append(source) or parse(source))
    assert read_results(path) == batch
    assert len(sources) == 1 and not isinstance(sources[0], str)


# --- memory -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def large_results(pipeline, tmp_path_factory):
    """A 100k-row results file and the bytes of its columns (128 a row)."""
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.3, p_corrupt=0.05), pipeline, 100_000, seed=5, config_name="olcfg"
    )
    path = tmp_path_factory.mktemp("large") / "results.csv"
    write_results(batch, path)
    return path, sum(column.nbytes for column in vars(batch).values() if isinstance(column, np.ndarray))


def _traced_peak(fn):
    """fn() and the peak of the memory it allocated, numpy's included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_results_takes_the_columns_and_one_chunk(large_results):
    path, column_bytes = large_results
    batch, peak = _traced_peak(lambda: read_results(path))
    assert len(batch) == 100_000
    # at most 1/16 spare rows, plus one chunk of rows and one block of text in flight
    assert peak <= 1.1 * column_bytes + 8 * 2**20


def test_summaries_copy_no_column(large_results):
    path, column_bytes = large_results
    batch = read_results(path)
    report, peak = _traced_peak(lambda: render_report(batch, summarize_by_config(batch)))
    assert "config olcfg" in report
    assert peak <= 0.5 * column_bytes
