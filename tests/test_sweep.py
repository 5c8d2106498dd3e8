import csv
import dataclasses
import io
import json
import math
import os
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from esbsim import __version__, ble, sweep
from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
from esbsim.cli import main
from esbsim.config import ChannelModel, ConfigError, CrcMode, olcfg_preset
from esbsim.engine import RNG_ALGORITHM
from esbsim.link import DELIVERED, DELIVERED_CORRUPTED, LOST, OUTCOMES, PROBES, STAGES, Outcome, RecordBatch, run_attempt_series
from esbsim.sweep import (
    CSV_COLUMNS,
    DEFAULT_HISTOGRAM_BIN_US,
    REPORT_INTERVALS,
    RESULTS_FORMAT,
    ConfigTally,
    SchemaError,
    SummaryStats,
    SweepPlan,
    accounting_by_config,
    parse_results_csv,
    read_results,
    render_report,
    run_sweep,
    summarize_by_config,
    write_results,
)

from conftest import Collected, densified, same_rows, summary_of


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


def join(batches) -> RecordBatch:
    """The rows of `batches` in order, over side tables in order of first
    appearance."""
    return batch_of([row for batch in batches for row in rows_of(batch)])


def tallied(*batches: RecordBatch) -> ConfigTally:
    """A tally of `batches`, added in order."""
    tally = ConfigTally()
    for batch in batches:
        tally.add(batch)
    return tally


def swept(*args, **kwargs) -> RecordBatch:
    """The series `run_sweep` yields, in one batch."""
    return Collected(run_sweep(*args, **kwargs)).batch()


def parse_batch(source) -> RecordBatch:
    """The records `parse_results_csv` reads from `source`, in one batch."""
    return parse_results_csv(source, Collected()).batch()


def read_batch(path) -> RecordBatch:
    """The records `read_results` reads from the file at `path`, in one batch."""
    return read_results(path, Collected()).batch()


def written(*batches: RecordBatch) -> str:
    """The text of the results file `write_results` writes for `batches`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.csv")
        write_results(batches, path)
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()


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
                *("" if t is None else f"{t // 10}.{t % 10}" for t in r.probes_ticks),
                "" if r.delivered_copy is None else r.delivered_copy,
                r.outcome.value,
                r.duplicates_suppressed,
                r.duplicates_delivered,
            ]
        )
    return out.getvalue()


def oracle_parse(text: str) -> list[Row]:
    hashes, rows = {}, []
    for line in text.split("\n"):
        line = line.removesuffix("\r")
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
            probes_ticks=tuple(None if cell == "" else round(Decimal(cell) * 10) for cell in row[4:12]),
            delivered_copy=None if row[12] == "" else int(row[12]),
            outcome=Outcome(row[13]),
            duplicates_suppressed=int(row[14]),
            duplicates_delivered=int(row[15]),
        )
        for row in reader
    ]


def oracle_histogram(ticks) -> tuple[np.ndarray, int]:
    """np.histogram of the rows at `ticks`, in us, over the 5 us bins from
    the one that holds the least to the one that ends at or after the most:
    the counts, and the index k of the first bin, which starts at k * 5 us.
    The rows are first moved by k bins to start in the bin at 0, which
    moves no row to another bin and keeps the floats exact past 2**53."""
    ticks = sorted(ticks)
    first = ticks[0] // 50
    values_us = np.array([t - first * 50 for t in ticks], dtype=np.int64) / 10.0
    n_bins = max(1, int(np.ceil(values_us[-1] / DEFAULT_HISTOGRAM_BIN_US)))
    counts, _ = np.histogram(values_us, bins=n_bins, range=(0.0, n_bins * DEFAULT_HISTOGRAM_BIN_US))
    return counts, first


def oracle_summarize_by_config(records, intervals=REPORT_INTERVALS) -> dict:
    by_config = {}
    for r in records:
        by_config.setdefault(r.config_name, []).append(r)
    out = {}
    for name, recs in by_config.items():
        out[name] = {}
        for start, end in intervals:
            ticks, lost, by_copy = [], 0, {}
            for r in recs:
                a, b = r.probes_ticks[PROBES.index(start)], r.probes_ticks[PROBES.index(end)]
                if a is None or b is None:
                    lost += 1
                else:
                    ticks.append(b - a)
                    if r.delivered_copy is not None:
                        by_copy.setdefault(r.delivered_copy, []).append(b - a)
            if not ticks:
                continue
            # n^2 times the sum of squared deviations from the mean, in integers
            n, total = len(ticks), sum(ticks)
            squares = sum((n * t - total) ** 2 for t in ticks)
            counts, first = oracle_histogram(ticks)
            listed = np.flatnonzero(counts)
            bins = first + listed
            ticks = np.sort(np.asarray(ticks, dtype=np.int64))
            out[name][start + end] = SummaryStats(
                n=int(ticks.size),
                n_lost=lost,
                mean_us=float(ticks.mean() / 10.0),
                median_us=float(np.median(ticks) / 10.0),
                sd_us=math.sqrt(squares / n**3) / 10.0,
                p99_us=float(np.percentile(ticks, 99) / 10.0),
                hist_bins_us=tuple((bins * DEFAULT_HISTOGRAM_BIN_US).tolist()),
                hist_counts=tuple(counts[listed].tolist()),
                copies=oracle_copies(by_copy),
            )
    return out


def oracle_copies(by_copy: dict[int, list[int]]) -> tuple[tuple[int, float, float], ...]:
    """(copy, share, mean_us) of each copy, ascending, from its rows' ticks
    in Python ints: the share and the mean in ticks are fractions rounded
    once, and the mean is then divided by ten ticks a microsecond."""
    delivered = sum(map(len, by_copy.values()))
    shares = {copy: Fraction(len(ticks), delivered) for copy, ticks in by_copy.items()}
    assert not shares or sum(shares.values()) == 1
    return tuple(
        (copy, float(shares[copy]), float(Fraction(sum(ticks), len(ticks))) / 10)
        for copy, ticks in sorted(by_copy.items())
    )


# names hold no "\n", where the parser ends a line, and no "\r", which the csv
# module leaves unquoted; every other character, breaks of str.splitlines too
NAMES = st.sampled_from(
    ["", "two words", "#hash-led", "comma,name", ' spaced " quote ', "odd hash=name", "100%", "a\x85b\u2028"]
) | st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"), max_size=12)

WIDE_NAMES = st.sampled_from(["名前", "ü,ß", "🎯 target", "é" * 5])


@st.composite
def record_lists(draw, max_size=20, names=NAMES, min_size=0, probe=st.none() | st.integers(0, 2**40)):
    """Records of up to four configs with arbitrary cells: any probe may be
    absent, seeds span 64 bits, so one file holds several."""
    hashes = draw(st.dictionaries(names, st.text("0123456789abcdef", max_size=12), min_size=1, max_size=4))
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


# A writer chunk sizes its digit blocks from its largest value: values at
# each change of digit count, up to the parser's 17 digits, in one chunk or
# across chunks, and chunks whose every d4-d7 cell is empty.
WIDTH_EDGES = (0, 9, 10, 99, 100, 10**17 - 1)
WIDE_ROWS = [
    Row("edges", "abc", v, v, v, (v,) * 8, v, Outcome.DELIVERED, v, v)
    for v in WIDTH_EDGES + WIDTH_EDGES[::-1]
]
LOST_ROWS = [
    Row("lost", "abc", 0, a, 1, probes, None, Outcome.LOST, 3, 0)
    for a, probes in enumerate([(1, 2, 3, 10**17 - 1) + (None,) * 4, (None,) * 8] * 3)
]


@pytest.fixture(scope="module")
def pipeline():
    return calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())


@pytest.fixture(scope="module")
def quiet_pipeline(pipeline):
    return dataclasses.replace(pipeline, jitter_sigma_us=(0.0,) * len(STAGES))


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
        records = swept(small_plan, ChannelModel(), quiet_pipeline)
        per_series = np.bincount(records.config_index * small_plan.rounds + records.round_index)
        assert per_series.tolist() == [small_plan.attempts_per_round] * len(small_plan.configs) * small_plan.rounds

    def test_protocol_count_arithmetic(self, quiet_pipeline):
        five = SweepPlan(configs=(("a", olcfg_preset()),), rounds=5, attempts_per_round=150)
        three = SweepPlan(configs=(("a", olcfg_preset()),), rounds=3, attempts_per_round=150)
        assert len(swept(five, ChannelModel(), quiet_pipeline)) == 750
        assert len(swept(three, ChannelModel(), quiet_pipeline)) == 450

    def test_invalid_plans_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan(configs=(("a", olcfg_preset()),), rounds=0)
        with pytest.raises(ValueError):
            SweepPlan(configs=(("a", olcfg_preset()),), attempts_per_round=0)
        with pytest.raises(ValueError):
            SweepPlan(configs=())
        with pytest.raises(ValueError):
            SweepPlan(configs=(("a", olcfg_preset()), ("a", olcfg_preset())))


class TestRunSweep:
    def test_record_counts_per_config(self, small_plan, quiet_pipeline):
        records = swept(small_plan, ChannelModel(), quiet_pipeline)
        assert len(records) == 2 * small_plan.rounds * small_plan.attempts_per_round
        per_config = dict(zip(records.names, np.bincount(records.config_index).tolist()))
        assert per_config == {"olcfg": 150, "crc16": 150}

    def test_lossless_channel_delivers_everything(self, small_plan, quiet_pipeline):
        records = swept(small_plan, ChannelModel(), quiet_pipeline)
        assert (records.outcome == DELIVERED).all()

    def test_shuffling_does_not_change_the_record_multiset(self, small_plan, quiet_pipeline):
        # `shuffle` is still read from experiment files, and has no effect
        ordered = dataclasses.replace(small_plan, shuffle=False)
        a = swept(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        b = swept(ordered, ChannelModel(p_loss=0.2), quiet_pipeline)
        assert same_rows(a, b)  # canonical output order; randomness is keyed, not ordered

    def test_a_sweep_makes_each_series_as_it_is_taken(self, small_plan, quiet_pipeline, monkeypatch):
        made = []
        run_attempt_series = sweep.run_attempt_series

        def counted(config, channel, pipeline, n, **address):
            made.append((address["namespace"][0], address["round_index"], address["start_attempt"], n))
            return run_attempt_series(config, channel, pipeline, n, **address)

        # 50 attempts a series: chunks of 20, 20 and 10
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", 20)
        monkeypatch.setattr(sweep, "run_attempt_series", counted)
        stream = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        assert made == []
        first = next(stream)
        assert made == [(0, 0, 0, 20)] and len(first) == 20
        rest = list(stream)
        chunks = [(0, 20), (20, 20), (40, 10)]
        assert made == [
            (c, r, start, n) for c in range(len(small_plan.configs)) for r in range(small_plan.rounds) for start, n in chunks
        ]
        assert [int(batch.config_index[0]) for batch in [first, *rest]] == [c for c, *_ in made]
        assert [batch.attempt[0] for batch in [first, *rest]] == [start for _, _, start, _ in made]

    @pytest.mark.parametrize("chunk", [1, 7, 50, 64])
    def test_the_chunks_of_a_series_are_the_whole_series(self, small_plan, pipeline, monkeypatch, chunk):
        channel = ChannelModel(p_loss=0.3, p_corrupt=0.05)
        crc16 = small_plan.configs[1][1]
        whole = run_attempt_series(
            crc16, channel, pipeline, 50, seed=small_plan.seed, config_name="crc16", namespace=(1,), round_index=2
        )
        monkeypatch.setattr(sweep, "_CHUNK_ROWS", chunk)
        chunks = list(sweep.run_series(small_plan, channel, pipeline, 1, 2, 50))
        assert [len(batch) for batch in chunks] == [min(chunk, 50 - start) for start in range(0, 50, chunk)]
        assert same_rows(Collected(chunks).batch(), whole)

    def test_tallying_the_stream_equals_tallying_its_join(self, small_plan, pipeline):
        channel = ChannelModel(p_loss=0.3, p_corrupt=0.05)
        tally = ConfigTally()
        streamed = Collected(map(tally.add, run_sweep(small_plan, channel, pipeline)))
        whole = tallied(streamed.batch())
        assert len(tally) == len(whole) and list(tally.configs) == list(whole.configs)
        assert summarize_by_config(tally) == summarize_by_config(whole)
        assert accounting_by_config(tally) == accounting_by_config(whole)

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
        series = {task: list(sweep.run_series(plan, channel, pipeline, *task, attempts)) for task in tasks}
        joined = join([chunk for c in range(n_configs) for r in range(rounds) for chunk in series[c, r]])
        assert written(joined) == written(*run_sweep(plan, channel, pipeline))

    def test_the_sweep_is_the_join_of_its_series_in_canonical_order(self, small_plan, pipeline):
        channel = ChannelModel(p_loss=0.3, p_corrupt=0.05)
        series = [
            chunk
            for c in range(len(small_plan.configs))
            for r in range(small_plan.rounds)
            for chunk in sweep.run_series(small_plan, channel, pipeline, c, r, small_plan.attempts_per_round)
        ]
        joined = join(series)
        streamed = Collected(run_sweep(small_plan, channel, pipeline))
        assert same_rows(streamed.batch(), joined)
        # the chunks of each series, in file order, each over the plan's side tables
        assert len(streamed) == len(series) and all(map(same_rows, streamed, series))
        assert {(b.names, b.hashes, b.seeds) for b in streamed} == {(joined.names, joined.hashes, joined.seeds)}


class TestSummarize:
    def test_quiet_lossless_run_is_a_point_mass(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 100, seed=1)
        stats = summary_of(records, ("d0", "d7"))
        assert stats.mean_us == stats.median_us == 486.3
        assert stats.sd_us == 0.0
        assert stats.n == 100
        assert stats.n_lost == 0

    def test_single_record(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 1, seed=1)
        stats = summary_of(records)
        assert stats.n == 1
        assert stats.mean_us == stats.median_us
        assert stats.sd_us == 0.0

    def test_lost_records_counted_separately(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.6), quiet_pipeline, 200, seed=2
        )
        stats = summary_of(records)
        lost = int((records.outcome == LOST).sum())
        assert stats.n == 200 - lost
        assert stats.n_lost == lost

    def test_histogram_counts_sum_to_delivered(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.3), quiet_pipeline, 500, seed=3
        )
        stats = summary_of(records)
        assert sum(stats.hist_counts) == stats.n

    def test_an_all_lost_config_summarizes_to_no_interval(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(p_loss=1.0), quiet_pipeline, 10, seed=1)
        assert summarize_by_config(tallied(records)) == {"": {}}

    def test_count_within_includes_the_limit_and_no_lost_attempt(self, tmp_path, monkeypatch):
        durations = (9999, 10000, 10001, 20000, 20001)
        rows = [_row("olcfg", k, (0, 0, 0, 0, 0, 0, 0, ticks)) for k, ticks in enumerate(durations)]
        rows.append(_row("olcfg", 5, (0, 0, 0, 0, 0) + (None,) * 3, Outcome.LOST))
        monkeypatch.setattr(sweep, "run_series", lambda *args: iter([batch_of(rows[:4]), batch_of(rows[4:])]))
        compared = []
        render = ble.render_comparison
        monkeypatch.setattr(ble, "render_comparison", lambda *args: compared.append(args[:2]) or render(*args))
        assert main(["compare-ble", "--out", str(tmp_path)]) == 0
        # within 1000 and 2000 us, each limit included
        assert compared == [(summary_of(batch_of(rows)), [2, 4])]

    def test_unknown_interval_rejected(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 1, seed=1)
        with pytest.raises(ValueError):
            summary_of(records, ("d0", "d9"))

    def test_median_within_range_and_sd_non_negative(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.4), quiet_pipeline, 400, seed=4
        )
        stats = summary_of(records)
        delivered = records.delivered_copy >= 0
        values = (records.probes[delivered, 7] - records.probes[delivered, 0]) / 10
        assert values.min() <= stats.median_us <= values.max()
        assert stats.sd_us >= 0


class TestDetectModes:
    """The modes of a latency distribution: the share and mean of each
    delivered copy, and the histogram's non-empty bins."""

    def test_single_mode_for_lossless_runs(self, quiet_pipeline):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 200, seed=5)
        stats = summary_of(records)
        assert len(stats.copies) == 1
        assert stats.copies[0][:2] == (0, 1.0)

    def test_three_modes_spaced_by_the_retransmit_delay(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.2655), quiet_pipeline, 5000, seed=6
        )
        stats = summary_of(records)
        assert [copy for copy, _, _ in stats.copies] == [0, 1, 2]
        spacings = np.diff([mean for _, _, mean in stats.copies])
        assert np.allclose(spacings, 435.0, atol=5.0)

    def test_bulge_masses_follow_the_copy_distribution(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.2655), quiet_pipeline, 5000, seed=6
        )
        stats = summary_of(records)
        delivered = records.delivered_copy >= 0
        values = (records.probes[delivered, 7] - records.probes[delivered, 0]) / 10
        nearest = np.argmin(np.abs(values[:, None] - np.array([mean for _, _, mean in stats.copies])), axis=1)
        # without jitter the delivered copy alone sets the latency: one bulge per copy
        assert np.array_equal(nearest, records.delivered_copy[delivered])
        masses = [share for _, share, _ in stats.copies]
        assert masses == (np.bincount(nearest) / nearest.size).tolist()
        assert masses[0] > masses[1] > masses[2]

    @pytest.mark.parametrize("p_loss", [0.08, 0.2, 0.35, 0.5])
    def test_mode_spacing_within_one_bin_across_loss_rates(self, quiet_pipeline, p_loss):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=p_loss), quiet_pipeline, 4000, seed=12
        )
        stats = summary_of(records)
        assert len(stats.copies) >= 2
        for spacing in np.diff([mean for _, _, mean in stats.copies]):
            assert abs(spacing - 435.0) <= 5.0  # one bin

    @settings(max_examples=150, deadline=None)
    @given(
        copies=st.integers(1, 6),
        p_loss=st.sampled_from([0.0, 0.3, 0.7]) | st.floats(0.0, 0.9),
        n=st.integers(1, 300),
        # the probes are redrawn below `top` ticks, the writer's limit among them
        top=st.sampled_from([50, 10**9, 10**17]) | st.integers(1, 10**17),
        ordered=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        cuts=st.lists(st.integers(0, 300), max_size=4),
        sum_rows=st.sampled_from([1, 3, 1 << 22]),
    )
    @example(copies=4, p_loss=0.3, n=300, top=10**17, ordered=True, seed=0, cuts=[], sum_rows=1 << 22)
    def test_each_copys_share_and_mean_are_exact_in_any_blocks(
        self, pipeline, copies, p_loss, n, top, ordered, seed, cuts, sum_rows
    ):
        config = dataclasses.replace(olcfg_preset(), retransmit_count=copies - 1, retransmit_delay_us=150.0)
        records = run_attempt_series(config, ChannelModel(p_loss=p_loss), pipeline, n, seed=seed, config_name="x")
        # a row's probes are drawn anew where they are present: in order, a d0-d7 duration nears `top`, and
        # a copy's sum of them passes 2**63 in a hundred rows; out of order, a duration may be negative
        drawn = np.random.default_rng(seed).integers(0, top, size=records.probes.shape)
        drawn = np.sort(drawn, axis=1) if ordered else drawn
        records = dataclasses.replace(records, probes=np.where(records.probes >= 0, drawn, -1))
        intervals = [*REPORT_INTERVALS, ("d0", "d3")]  # a lost row has both of d0-d3's probes and no copy
        columns = [field.name for field in dataclasses.fields(RecordBatch)[3:]]
        blocks = [
            dataclasses.replace(records, **{c: getattr(records, c)[rows] for c in columns})
            for rows in np.split(np.arange(n), sorted(cuts))  # zero-row blocks too
        ]
        with mock.patch.object(sweep, "_SUM_ROWS", sum_rows):
            in_blocks, joined = ConfigTally(intervals), ConfigTally(intervals)
            for block in blocks:
                in_blocks.add(block)
            joined.add(records)
        mine, whole = in_blocks.configs["x"], joined.configs["x"]
        assert mine.copies == whole.copies and mine.lost == whole.lost
        assert all(np.array_equal(a, b) for a, b in zip(mine.ticks, whole.ticks))
        summaries = summarize_by_config(in_blocks)["x"]
        assert summaries == summarize_by_config(joined)["x"]
        for start, end in intervals:
            a, b = records.probes[:, PROBES.index(start)], records.probes[:, PROBES.index(end)]
            present = (a >= 0) & (b >= 0)
            by_copy = {}
            for copy, x, y in zip(records.delivered_copy[present].tolist(), a[present].tolist(), b[present].tolist()):
                if copy >= 0:
                    by_copy.setdefault(copy, []).append(y - x)
            assert (summaries[start + end].copies if present.any() else ()) == oracle_copies(by_copy)

    def test_four_copies_150_us_apart_are_four_modes(self, tmp_path, capsys):
        exp = tmp_path / "c150.cfg"
        exp.write_text(
            "[sweep] seed=3 rounds=1 attempts=100000\n"
            "[config c150] crc=16 retransmits=3 retransmit_delay_us=150\n"
            "[channel] p_loss=0.3 p_corrupt=0.02\n"
        )
        assert main(["simulate", "--file", str(exp), "--out", str(tmp_path)]) == 0
        assert "  copies: 0 0.691 at 522.4 us, 1 0.219 at 672.2 us, 2 0.069 at 822.0 us, 3 0.022 at 972.1 us\n" in (
            capsys.readouterr().out
        )
        copies = json.loads((tmp_path / "summary.json").read_text())["c150"]["d0d7"]["copies"]
        assert [copy for copy, _, _ in copies] == [0, 1, 2, 3]
        assert sum(share for _, share, _ in copies) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        ticks=st.lists(st.integers(0, 2_000_000), min_size=1, max_size=200)
        | st.lists(st.sampled_from([1000, 1015, 1025, 5350, 5370, 9705]), min_size=1, max_size=200),
    )
    @example(ticks=(np.arange(31) * 166_330).tolist())
    def test_summary_histogram_and_modes_match_the_oracle(self, ticks):
        stats = sweep._summary(*np.unique(np.array(ticks, dtype=np.int64), return_counts=True), 0, [])
        # 5 us bins are 50 ticks: from the bin that holds the least to the one that ends at or after the most
        lo, hi = min(ticks) // 50, -(-max(ticks) // 50)
        n_bins = max(1, hi - lo)
        counts, edges = np.histogram(np.asarray(ticks) / 10, bins=n_bins, range=(lo * 5.0, (lo + n_bins) * 5.0))
        listed = np.flatnonzero(counts)
        assert stats.hist_bins_us == tuple(float(e) for e in edges[listed])
        assert stats.hist_counts == tuple(int(c) for c in counts[listed])
        assert densified(stats) == (counts.tolist(), edges.tolist())
        assert {type(c) for c in stats.hist_counts} == {int} and {type(e) for e in stats.hist_bins_us} == {float}

    @settings(max_examples=300, deadline=None)
    @given(
        # negative durations, durations on bin edges and spans up to 10**12 ticks
        ticks=st.lists(
            st.integers(-400, 400)
            | st.integers(-200, 200).map(lambda k: 50 * k)
            | st.integers(-(10**12) // 2, 10**12 // 2),
            min_size=1,
            max_size=100,
        ),
    )
    @example(ticks=[0, 10**12])
    @example(ticks=[-100, -50])
    @example(ticks=[50, 50, 100])
    def test_the_listed_bins_are_numpys_non_empty_bins(self, ticks):
        stats = sweep._summary(*np.unique(np.array(ticks, dtype=np.int64), return_counts=True), 0, [])
        # np.histogram over the rows and 5 us bins from the least one's to the one that ends at or
        # after the most.  Its edges are those of each row's bin and the last bin's: the bins
        # between them hold no row, and would be up to 2 * 10**10 empty ones
        rows_us, width = np.asarray(ticks) / 10, DEFAULT_HISTOGRAM_BIN_US
        lo = np.floor(rows_us.min() / width) * width
        hi = max(np.ceil(rows_us.max() / width) * width, lo + width)
        lefts = np.floor(rows_us / width) * width
        edges = np.unique(np.clip(np.concatenate((lefts, lefts + width, [lo, hi - width, hi])), lo, hi))
        counts, edges = np.histogram(rows_us, bins=edges)
        listed = np.flatnonzero(counts)
        assert np.all(np.diff(edges)[listed] == width)
        assert stats.hist_bins_us == tuple(edges[listed].tolist())
        assert stats.hist_counts == tuple(counts[listed].tolist())

    def test_a_wide_span_allocates_only_its_listed_bins(self):
        # 2 * 10**13 bins of 5 us apart; the larger duration is on a bin edge, so it counts in the bin below
        tracemalloc.start()
        try:
            stats = sweep._summary(np.array([0, 10**15], dtype=np.int64), np.ones(2, dtype=np.int64), 0, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (stats.hist_bins_us, stats.hist_counts) == ((0.0, 10**14 - 5.0), (1, 1))

    def test_a_wide_sparse_histogram_takes_no_time_per_bin_and_peak(self):
        # 3001 peaks among 999,600 bins: a scan of every bin per peak took 13 s
        start = time.perf_counter()
        stats = sweep._summary(np.arange(3001, dtype=np.int64) * 16_660, np.ones(3001, dtype=np.int64), 0, [])
        assert time.perf_counter() - start < 2.0
        assert len(stats.hist_counts) == 3001


class TestAccounting:
    def test_identities_per_mode(self, quiet_pipeline):
        channel = ChannelModel(p_loss=0.2655, p_corrupt=15 / 735)
        by_mode = {}
        for mode in (CrcMode.CRC16, CrcMode.OFF):
            cfg = dataclasses.replace(olcfg_preset(), crc_mode=mode)
            by_mode[mode.value] = run_attempt_series(
                cfg, channel, quiet_pipeline, 750, seed=7, config_name=mode.value
            )
        table = accounting_by_config(tallied(join(list(by_mode.values()))))
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
        row = accounting_by_config(tallied(records))["16"]
        assert row.received == row.unique
        assert row.valid == row.unique

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists(max_size=40))
    def test_identities_hold_for_arbitrary_batches(self, records):
        table = accounting_by_config(tallied(batch_of(records)))
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

    @settings(max_examples=150, deadline=None)
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
        (row,) = accounting_by_config(tallied(batch)).values()
        assert row.sent == row.unique + int((batch.outcome == LOST).sum())
        assert row.received == row.unique

    def test_batches_over_any_side_tables_tally_as_their_join(self, quiet_pipeline):
        a = run_attempt_series(olcfg_preset(), ChannelModel(p_loss=0.3), quiet_pipeline, 6, seed=8, config_name="a")
        b = run_attempt_series(olcfg_preset(), ChannelModel(p_loss=0.6), quiet_pipeline, 5, seed=9, config_name="b")
        # a block that adds a config, then one over fewer names, then one whose index 0 is another config
        tally = tallied(a, join([a, b]), a, b)
        whole = tallied(join([a, a, b, a, b]))
        assert b.names == ("b",) and len(tally) == len(whole) == 28
        assert list(tally.configs) == list(whole.configs) == ["a", "b"]
        assert summarize_by_config(tally) == summarize_by_config(whole)
        assert accounting_by_config(tally) == accounting_by_config(whole)
        assert [row.sent for row in accounting_by_config(tally).values()] == [18, 10]

    def test_no_corruption_means_valid_equals_unique(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.3), quiet_pipeline, 300, seed=8, config_name="off"
        )
        row = accounting_by_config(tallied(records))["off"]
        assert row.valid == row.unique


class TestPersistence:
    def test_round_trip_equality(self, small_plan, quiet_pipeline, tmp_path):
        records = swept(small_plan, ChannelModel(p_loss=0.2, p_corrupt=0.05), quiet_pipeline)
        path = tmp_path / "results.csv"
        write_results([records], path)
        assert same_rows(read_batch(path), records)

    def test_header_only_for_empty_record_set(self, tmp_path):
        path = tmp_path / "empty.csv"
        empty = join([])
        write_results([empty], path)
        text = path.read_text()
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 1  # just the column header
        assert same_rows(read_batch(path), empty)

    def test_provenance_comments(self, quiet_pipeline, tmp_path):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(), quiet_pipeline, 3, seed=9, config_name="olcfg"
        )
        text = written(records)
        assert "# seed=9\n" in text
        assert f"# config olcfg hash={olcfg_preset().digest()}" in text
        assert "# rng=" in text

    def test_every_seed_in_the_provenance_header(self, quiet_pipeline):
        records = join(
            [
                run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=9, config_name="a"),
                run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=3, config_name="b"),
            ]
        )
        text = written(records)
        assert "# seed=3,9\n" in text
        assert same_rows(parse_batch(text), records)

    @pytest.mark.parametrize("name", ["", "two words", "#hash-led", "comma,name", ' spaced " quote ', "odd hash=name"])
    def test_config_name_keeps_its_hash(self, quiet_pipeline, name):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 3, seed=4, config_name=name
        )
        text = written(records)
        assert f"# config {name} hash={olcfg_preset().digest()}\n" in text
        parsed = parse_batch(text)
        assert same_rows(parsed, records)
        assert parsed.hashes == (olcfg_preset().digest(),)

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "trailing\n", "trailing\r", "\r\n"])
    def test_config_name_with_a_line_break_is_refused(self, quiet_pipeline, name, tmp_path):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=4, config_name=name)
        with pytest.raises(SchemaError, match="line break"):
            write_results([records], tmp_path / "results.csv")
        assert os.listdir(tmp_path) == []  # neither an empty file nor a temporary one

    @pytest.mark.parametrize("column", ["round_index", "probes", "delivered_copy"])
    def test_a_negative_cell_other_than_minus_one_is_refused(self, quiet_pipeline, tmp_path, column):
        # the format has no sign, and -1 is an empty cell
        batch = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 3, seed=4)
        batch = dataclasses.replace(batch, **{column: np.full_like(getattr(batch, column), -2)})
        with pytest.raises(SchemaError, match="cannot write -2 in a results cell"):
            write_results([batch], tmp_path / "results.csv")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("column", ["attempt", "probes"])
    def test_a_cell_of_more_than_17_digits_is_refused(self, quiet_pipeline, tmp_path, column):
        # the parser reads at most 17 digits a cell; 10**17 - 1 round-trips (WIDE_ROWS)
        batch = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 3, seed=4)
        values = getattr(batch, column).copy()
        values.flat[-1] = 10**17
        message = f"cannot write {10**17} in a results cell: a cell holds at most 17 digits"
        with pytest.raises(SchemaError, match=message):
            write_results([dataclasses.replace(batch, **{column: values})], tmp_path / "results.csv")
        assert os.listdir(tmp_path) == []

    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.integers(-1, 10**17 - 1), min_size=1, max_size=30))
    @example(values=[-1])
    @example(values=[-1, 0, 9, 10, 10**17 - 1])
    def test_each_cell_is_its_text_once_the_unused_bytes_are_dropped(self, values):
        column = np.array(values, dtype=np.int64)
        numbers, times = sweep._number_cells(column), sweep._time_cells(column)
        assert numbers.dtype == times.dtype == np.uint8
        for value, number, time_cell in zip(values, numbers, times):
            number_text, time_text = ("", "") if value < 0 else (f"{value}", f"{value // 10}.{value % 10}")
            assert number[number != 0xFF].tobytes() == number_text.encode()
            assert time_cell[time_cell != 0xFF].tobytes() == time_text.encode()

    def test_the_longest_series_accepted_writes_its_last_attempt(self, small_plan, pipeline, tmp_path):
        # its last attempt starts at 1,666,666,666,666 x 60,000 ticks, 17 digits; one more is refused
        longest = 1_666_666_666_667
        with pytest.raises(ConfigError, match=f"^{longest + 1} attempts are too many"):
            sweep.run_series(small_plan, ChannelModel(), pipeline, 0, 0, longest + 1)
        chunks = sweep.run_series(small_plan, ChannelModel(), pipeline, 0, 0, longest)
        assert len(next(chunks)) == sweep._CHUNK_ROWS
        last = run_attempt_series(olcfg_preset(), ChannelModel(), pipeline, 1, seed=1, start_attempt=longest - 1)
        assert last.probes[0, 0] == 99_999_999_999_960_000
        write_results([last], tmp_path / "results.csv")
        assert same_rows(read_batch(tmp_path / "results.csv"), last)

    def test_the_longest_stages_at_the_latest_start_wrap_no_probe_and_the_writer_refuses_them(
        self, quiet_pipeline, tmp_path
    ):
        # seven stages just under 10**16 ticks each, after the latest start a series accepts
        longest = dataclasses.replace(quiet_pipeline, base_us=(1e15 - 0.1,) * 7)
        last = run_attempt_series(olcfg_preset(), ChannelModel(), longest, 1, seed=1, start_attempt=1_666_666_666_666)
        probes = last.probes[0]
        assert probes[0] == 99_999_999_999_960_000 < 10**17 < probes[1]
        assert (0 < np.diff(probes)).all() and probes[7] - probes[0] < 2**57  # the tally's exactness bound
        with pytest.raises(SchemaError, match=f"cannot write {probes[1]} in a results cell: a cell holds at most 17"):
            write_results([last], tmp_path / "results.csv")
        assert os.listdir(tmp_path) == []

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    @example(records=WIDE_ROWS)
    @example(records=LOST_ROWS)
    def test_round_trip_of_arbitrary_records(self, records):
        batch = batch_of(records)
        assert same_rows(parse_batch(written(batch)), batch)

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists(names=NAMES | WIDE_NAMES), chunk=st.integers(1, 5))
    @example(records=WIDE_ROWS, chunk=1)
    @example(records=WIDE_ROWS, chunk=5)
    @example(records=LOST_ROWS, chunk=2)
    def test_columnar_render_matches_the_row_oracle(self, records, chunk):
        # rows written a few at a time, so digit widths differ across chunks
        with mock.patch.object(sweep, "_CHUNK_ROWS", chunk):
            assert written(batch_of(records)) == oracle_render(records)

    @settings(max_examples=100, deadline=None)
    @given(records=record_lists())
    @example(records=WIDE_ROWS)
    @example(records=LOST_ROWS)
    def test_columnar_parse_matches_the_row_oracle(self, records):
        text = oracle_render(records)
        assert rows_of(parse_batch(text)) == oracle_parse(text)

    def test_renders_and_parses_across_chunks(self, quiet_pipeline):
        # more rows than one parse or render chunk, with lost rows between delivered ones
        batch = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 20000, seed=3, config_name="olcfg"
        )
        text = written(batch)
        assert text == oracle_render(rows_of(batch))
        assert same_rows(parse_batch(text), batch)

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
        text = written(records)
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
        tally = tallied(records)
        text = render_report(tally, summarize_by_config(tally))
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
        batch = swept(plan, ChannelModel(p_loss=0.5, p_corrupt=0.1), pipe)
        assert set(batch.outcome.tolist()) == set(range(len(OUTCOMES)))
        # the same configs in the same order, with equal statistics
        expected = oracle_summarize_by_config(rows_of(batch))
        assert list(summarize_by_config(tallied(batch)).items()) == list(expected.items())
        # a config whose every attempt is lost keeps its name and no intervals
        lost = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=1.0), pipeline, 5, seed=1, config_name="x"
        )
        assert summarize_by_config(tallied(lost)) == oracle_summarize_by_config(rows_of(lost)) == {"x": {}}

    def test_summaries_are_pure_functions_of_the_records(
        self, small_plan, quiet_pipeline, tmp_path
    ):
        records = swept(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        path = tmp_path / "results.csv"
        write_results([records], path)
        direct = summarize_by_config(tallied(records))
        reloaded = summarize_by_config(read_results(path, into=ConfigTally()))
        assert direct == reloaded


def _valid_results(quiet_pipeline) -> list[str]:
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 4, seed=9, config_name="olcfg"
    )
    return written(batch).splitlines()


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
    "probe point without a unit": (_set_cell("d0", ".5"), "d0 '.5'"),
    "seed beyond 64 bits": (_set_cell("seed", str(2**64)), "seed"),
    "18-digit count": (
        _set_cell("attempt", "1" * 18),
        f"attempt '{'1' * 18}' is not a non-negative integer: a cell holds at most 17 digits",
    ),
    "18-digit probe": (
        _set_cell("d3", "1" * 18 + ".5"),
        f"d3 '{'1' * 18}.5' is not a time in us with at most one decimal place: a cell holds at most 17 digits",
    ),
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
    parsed = parse_batch("\n".join(lines))
    assert parsed.probes[0, :4].tolist() == [120, 123, 75, 999999999999999]


def test_blank_lines_and_crlf_keep_rows_and_line_numbers(quiet_pipeline):
    lines = _valid_results(quiet_pipeline)
    text = "\n".join(lines) + "\n"
    header = lines.index(",".join(CSV_COLUMNS))
    spaced = lines[: header + 2] + ["", "   "] + lines[header + 2 :]
    assert same_rows(parse_batch("\r\n".join(spaced) + "\r\n\r\n"), parse_batch(text))
    spaced[header + 4] = spaced[header + 4].replace("delivered", "bogus", 1).replace("lost", "bogus", 1)
    with pytest.raises(SchemaError, match=f"^line {header + 5}: outcome 'bogus'"):
        parse_results_csv("\n".join(spaced))


def test_the_first_malformed_line_is_reported_whatever_the_block_size(quiet_pipeline):
    # a later line failing a check that an earlier malformed line passes
    lines = _valid_results(quiet_pipeline)
    row = lines.index(",".join(CSV_COLUMNS)) + 1  # the first data row, at line row + 1
    lines[row] = ",".join(_set_cell("outcome", "bogus")(lines[row].split(",")))
    lines[row + 2] = lines[row + 2].rpartition(",")[0]  # a row of 15 fields
    text = "\n".join(lines) + "\n"
    for block in (1, 64, len(text) + 1):
        with mock.patch.object(sweep, "_BLOCK_BYTES", block):
            with pytest.raises(SchemaError, match=f"^line {row + 1}: outcome 'bogus'"):
                parse_results_csv(text)


# --- reading in blocks ------------------------------------------------------------

# the line ends the parser knows; line ends, whitespace and names of several
# bytes cross block edges too
LINE_ENDS = ("\n", "\r\n")
# the other line breaks of str.splitlines, which the parser reads as bytes of a cell
DROPPED_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@st.composite
def results_texts(draw):
    """Records and a results file of them put back together from its lines
    with arbitrary line ends and blank or whitespace-only lines between them,
    and whether characters of it were replaced (which may make rows
    malformed)."""
    records = draw(record_lists(max_size=12, names=NAMES | WIDE_NAMES, min_size=1))
    lines = written(batch_of(records)).split("\n")[:-1]
    header = lines.index(",".join(CSV_COLUMNS))
    damages = draw(st.sampled_from([0, 0, 1, 2]))
    for _ in range(damages):  # a row or, last in line, the column header
        row = draw(st.sampled_from(range(len(lines) - 1, header - 1, -1)))
        i = draw(st.integers(0, len(lines[row])))
        replacement = draw(st.sampled_from([",", "x", "\r", "\n", "#", "é", *DROPPED_BREAKS[1:]]))
        lines[row] = lines[row][:i] + replacement + lines[row][i + 1 :]
    out = []
    for line in lines:
        if draw(st.integers(0, 4)) == 0:
            blank = draw(st.sampled_from(["", " ", "\t", "\x1f", "\x85", "\u2028 \v"]))
            out.append(blank + draw(st.sampled_from(LINE_ENDS)))
        out.append(line + draw(st.sampled_from(LINE_ENDS)))
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("".join(LINE_ENDS))
    return records, text, damages > 0


def _parsed(parse):
    """The side tables and rows of the batches `parse()` adds to the
    collector it returns, or its SchemaError message."""
    try:
        batch = parse().batch()
    except SchemaError as exc:
        return str(exc)
    return batch.names, batch.hashes, batch.seeds, batch


def _same_parse(a, b) -> bool:
    """Whether two `_parsed` results agree: the same SchemaError message, or
    the same side tables and rows."""
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a[:3] == b[:3] and same_rows(a[3], b[3])


@settings(max_examples=100, deadline=None)
@given(case=results_texts(), block=st.integers(1, 64) | st.integers(64, 4096))
def test_reading_in_blocks_equals_reading_the_whole_text(tmp_path_factory, case, block):
    # a block is also the rows decoded together, so the first malformed row
    # must not depend on where the blocks end
    records, text, damaged = case
    path = tmp_path_factory.mktemp("blocks") / "results.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(sweep, "_BLOCK_BYTES", len(text.encode()) + 1):
        whole = _parsed(lambda: parse_results_csv(text, Collected()))
    if not damaged:  # the side tables in order of first appearance, too
        expected = batch_of(records)
        assert _same_parse(whole, (expected.names, expected.hashes, expected.seeds, expected))
    with mock.patch.object(sweep, "_BLOCK_BYTES", block):
        assert _same_parse(_parsed(lambda: parse_results_csv(text, Collected())), whole)
        assert _same_parse(_parsed(lambda: read_results(path, Collected())), whole)


def test_every_block_size_keeps_the_rows_and_the_line_numbers(quiet_pipeline, tmp_path):
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 6, seed=9, config_name="名前 ü"
    )
    lines = written(batch).split("\n")[:-1]
    # a blank line and one of multibyte whitespace before the last two rows
    text = "\r\n".join(lines[:-2]) + "\r\n\r\n\x85 \u2028\r\n" + "\r\n".join(lines[-2:]) + "\r\n"
    short = text + "名前 ü,0\r\n"
    line_no = short.count("\n")
    path = tmp_path / "results.csv"
    for block in range(1, 65):
        with mock.patch.object(sweep, "_BLOCK_BYTES", block):
            assert same_rows(parse_batch(text), batch)
            for tail in ("", "\r\n"):  # a last line with and without its line end
                with pytest.raises(SchemaError, match=f"^line {line_no}: row with 2 fields"):
                    parse_results_csv(short.removesuffix(tail))
                path.write_text(short.removesuffix(tail), encoding="utf-8", newline="")
                with pytest.raises(SchemaError, match=f"^line {line_no}: row with 2 fields"):
                    read_results(path, Collected())


@pytest.mark.parametrize("name", [f"a{brk}b" for brk in DROPPED_BREAKS[1:]])
def test_a_config_name_with_another_line_break_round_trips(quiet_pipeline, tmp_path, name):
    batch = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 3, seed=4, config_name=name)
    write_results([batch], tmp_path / "results.csv")
    assert same_rows(read_batch(tmp_path / "results.csv"), batch)


@pytest.mark.parametrize("brk", DROPPED_BREAKS)
def test_another_line_break_is_a_byte_of_its_cell(quiet_pipeline, brk):
    lines = _valid_results(quiet_pipeline)
    line_no = lines.index(",".join(CSV_COLUMNS)) + 3  # the second data row
    edited = lines.copy()
    edited[line_no - 1] = ",".join(_set_cell("attempt", f"1{brk}2")(lines[line_no - 1].split(",")))
    with pytest.raises(SchemaError) as err:
        parse_results_csv("\n".join(edited) + "\n")
    assert str(err.value) == f"line {line_no}: attempt {'1' + brk + '2'!r} is not a non-negative integer"
    # in place of a line end, it makes one line of two rows
    merged = "\n".join(lines[:line_no]) + brk + "\n".join(lines[line_no:]) + "\n"
    with pytest.raises(SchemaError, match=f"^line {line_no}: config_name "):
        parse_results_csv(merged)
    # in a short row or the column header, which the csv module refuses to read with a "\r" outside quotes
    with pytest.raises(SchemaError) as err:
        parse_results_csv("\n".join(lines) + f"\nolcfg{brk}0\n")
    assert str(err.value) == f"line {len(lines) + 1}: row with 1 fields, expected 16"
    header = ",".join(CSV_COLUMNS)
    with pytest.raises(SchemaError) as err:
        parse_results_csv("\n".join(lines).replace(header, header.replace(",", brk, 1)))
    quoting = f"column header {header.replace(',', brk, 1)!r} is badly quoted (" if brk == "\r" else "unexpected columns"
    assert str(err.value).startswith(quoting)


def test_read_results_enters_the_parser_through_the_module_attribute(quiet_pipeline, tmp_path, monkeypatch):
    # a benchmark ends its set-up time at this entry by replacing the attribute,
    # so read_results must have opened the file and read nothing from it yet
    batch = run_attempt_series(olcfg_preset(), ChannelModel(p_loss=0.5), quiet_pipeline, 5, seed=2)
    path = tmp_path / "results.csv"
    write_results([batch], path)
    entries = []
    parse = sweep.parse_results_csv

    read = sweep.read_results
    lengths = []  # the benchmark counts the rows parsed as len() of what the parser returns

    def entered(source, *args, **kwargs):
        entries.append((source, source.mode, source.closed, source.tell()))
        parsed = parse(source, *args, **kwargs)
        lengths.append(len(parsed))
        return parsed

    def read_entered(*args, **kwargs):
        entries.append("read_results")
        return read(*args, **kwargs)

    monkeypatch.setattr(sweep, "parse_results_csv", entered)
    assert same_rows(read_batch(path), batch)
    ((source, mode, closed, position),) = entries
    assert isinstance(source, io.BufferedReader) and os.fspath(source.name) == os.fspath(path)
    assert (mode, closed, position) == ("rb", False, 0)
    assert source.closed  # read_results opened it, so read_results closed it
    # the report command enters both through the module attributes, once each
    entries.clear()
    lengths.clear()
    monkeypatch.setattr(sweep, "read_results", read_entered)
    assert main(["report", "--file", str(path)]) == 0
    assert [entry if isinstance(entry, str) else "parse_results_csv" for entry in entries] == [
        "read_results",
        "parse_results_csv",
    ]
    assert entries[1][1:] == ("rb", False, 0)
    assert lengths == [len(batch)]
    # of a str, len() of what the parser returns is the row count: all a benchmark's check reads of it
    assert len(parse(written(batch))) == len(batch)


def test_the_sweep_command_enters_run_sweep_through_the_module_attribute(tmp_path, monkeypatch):
    # a benchmark ends its set-up time at this entry by replacing the attribute,
    # so the command must have written nothing yet
    entries = []
    run = sweep.run_sweep

    def entered(*args, **kwargs):
        entries.append((args, os.listdir(tmp_path)))
        return run(*args, **kwargs)

    monkeypatch.setattr(sweep, "run_sweep", entered)
    assert main(["sweep", "--set", "sweep.attempts=5", "--out", str(tmp_path)]) == 0
    (((plan, channel, pipeline), listed),) = entries
    assert listed == []
    assert (plan.attempts_per_round, len(plan.configs)) == (5, 1)
    assert same_rows(read_batch(tmp_path / "results.csv"), Collected(run(plan, channel, pipeline)).batch())


# --- reporting block by block ----------------------------------------------------


def _streamed_report(path, block: int, out_dir) -> tuple:
    """Exit code, stdout, stderr and summary.json (None if none) of
    `esbsim report` over `path` read `block` bytes at a time."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch.object(sweep, "_BLOCK_BYTES", block), redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(["report", "--file", str(path), "--out", str(out_dir)])
    summary = out_dir / "summary.json"
    return code, stdout.getvalue(), stderr.getvalue(), json.loads(summary.read_text()) if summary.exists() else None


def _whole_report(batch: RecordBatch) -> tuple:
    """What `_streamed_report` gives for the file of `batch`, from the
    summaries and the report of the whole batch added at once."""
    tally = tallied(batch)
    summaries = summarize_by_config(tally)
    payload = {name: {key: vars(stats) for key, stats in stats.items()} for name, stats in summaries.items()}
    return 0, render_report(tally, summaries) + "\n", "", json.loads(json.dumps(payload))


# probes in a span of a few thousand histogram bins, and now and then one
# that makes an interval span some 2 * 10**10 bins, of which a few hold rows
REPORT_PROBES = st.none() | st.integers(0, 60_000) | st.just(2**40)


@settings(max_examples=100, deadline=None)
@given(records=record_lists(max_size=40, names=NAMES | WIDE_NAMES, probe=REPORT_PROBES), block=st.integers(64, 4096))
def test_reporting_block_by_block_equals_reporting_the_whole_batch(tmp_path_factory, records, block):
    batch = batch_of(records)
    directory = tmp_path_factory.mktemp("report")
    write_results([batch], directory / "results.csv")
    assert _streamed_report(directory / "results.csv", block, directory) == _whole_report(batch)


def _row(name, attempt, probes, outcome=Outcome.DELIVERED):
    lost = outcome is Outcome.LOST
    return Row(name, "abc", 0, attempt, 1, probes, None if lost else 0, outcome, 0, 0)


DELIVERED_PROBES = (0, 100, 200, 300, 4000, 4100, 4200, 4300)
LOST_PROBES = (0, 100, 200, 300, None, None, None, None)


def test_blocks_with_no_data_row_are_reported_as_nothing(tmp_path):
    batch = batch_of([_row("a", k, DELIVERED_PROBES) for k in range(3)])
    lines = written(batch).split("\n")
    header = lines.index(",".join(CSV_COLUMNS))
    # blocks of blank lines before the first row, when no config is known yet
    spaced = "\n".join(lines[: header + 1] + [""] * 200 + lines[header + 1 :])
    (tmp_path / "results.csv").write_text(spaced)
    assert _streamed_report(tmp_path / "results.csv", 64, tmp_path) == _whole_report(batch)
    # a file of no rows: every block, the final one too, is empty
    empty = join([])
    write_results([empty], tmp_path / "results.csv")
    assert _streamed_report(tmp_path / "results.csv", 64, tmp_path) == (0, "\n", "", {})


def test_a_config_first_seen_in_a_later_block_keeps_its_place(tmp_path):
    records = [_row("early", k, DELIVERED_PROBES) for k in range(20)]
    records += [_row("late", k, LOST_PROBES if k % 3 else DELIVERED_PROBES) for k in range(20)]
    records += [_row("early", k, LOST_PROBES) for k in range(20, 25)]
    batch = batch_of(records)
    write_results([batch], tmp_path / "results.csv")
    first_late = written(batch).index("\nlate,")
    assert first_late > 256  # past the first block
    code, stdout, _, summary = _streamed_report(tmp_path / "results.csv", 256, tmp_path)
    assert (code, stdout, "", summary) == _whole_report(batch)
    assert list(summary) == ["early", "late"]
    assert summary["early"]["d0d7"]["n_lost"] == 5 and summary["late"]["d0d7"]["n_lost"] == 13


def test_a_config_whose_every_row_is_lost_has_no_interval(tmp_path):
    records = [_row("gone", k, LOST_PROBES, Outcome.LOST) for k in range(30)]
    records += [_row("kept", k, DELIVERED_PROBES if k % 2 else LOST_PROBES, Outcome.LOST) for k in range(30)]
    batch = batch_of(records)
    write_results([batch], tmp_path / "results.csv")
    code, stdout, _, summary = _streamed_report(tmp_path / "results.csv", 128, tmp_path)
    assert (code, stdout, "", summary) == _whole_report(batch)
    assert summary["gone"] == {}
    assert "config gone\n  sent 30  received 0  unique 0  valid 0  lost 30\n" in stdout
    assert [summary["kept"][key]["n_lost"] for key in ("d0d7", "d2d5", "d3d4")] == [15] * 3


def test_a_wide_interval_in_a_late_block_is_summarized_and_a_later_schema_error_wins(tmp_path):
    records = [_row("c", k, DELIVERED_PROBES) for k in range(30)]
    records.append(_row("c", 30, DELIVERED_PROBES[:7] + (10**15,)))
    batch = batch_of(records)
    path = tmp_path / "results.csv"
    write_results([batch], path)
    code, stdout, stderr, summary = _streamed_report(path, 128, tmp_path)
    assert (code, stdout, stderr, summary) == _whole_report(batch)
    # 2 * 10**13 bins of 5 us span the d0-d7 durations, and two hold them
    assert code == 0 and summary["c"]["d0d7"]["hist_counts"] == [30, 1]
    assert summary["c"]["d0d7"]["hist_bins_us"] == [430.0, (10**15 - 50) / 10]
    text = path.read_text()
    path.write_text(text + "c,0\n")
    code, stdout, stderr, _ = _streamed_report(path, 128, tmp_path)
    assert (code, stdout) == (1, "")
    assert stderr == f"esbsim: error: line {text.count(chr(10)) + 1}: row with 2 fields, expected 16\n"


# --- writing ----------------------------------------------------------------------


def test_a_failed_write_leaves_the_old_file_and_no_temporary_file(tmp_path):
    delivered = Row("olcfg", "abc", 0, 0, 1, tuple(range(8)), 0, Outcome.DELIVERED, 0, 0)
    lost = delivered._replace(attempt=1, probes_ticks=(1, 2, 3, 4) + (None,) * 4, delivered_copy=None,
                              outcome=Outcome.LOST)
    path = tmp_path / "results.csv"
    path.write_text("old\n")

    def failing_in_the_second_batch():
        yield batch_of([delivered, lost])
        assert len(os.listdir(tmp_path)) == 2  # the old file and the one being written
        raise RuntimeError("injected")

    with pytest.raises(RuntimeError, match="injected"):
        write_results(failing_in_the_second_batch(), path)
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["results.csv"]


def test_a_batch_over_other_side_tables_than_the_first_is_refused(tmp_path):
    # the header names the first batch's side tables: a later name would have no hash line
    first = batch_of([_row("a", 0, DELIVERED_PROBES)])
    later = batch_of([_row("a", 1, DELIVERED_PROBES), _row("b", 0, DELIVERED_PROBES)])
    with pytest.raises(ValueError, match="side tables of the first"):
        write_results([first, later], tmp_path / "results.csv")
    assert os.listdir(tmp_path) == []
    # the rows of batches over one set of side tables are written in order, as one batch of them
    assert written(first, first) == written(join([first, first]))
    assert written() == written(join([]))


# ascending distinct ticks and the rows at each
_TICK_COUNTS = st.dictionaries(st.integers(-(2**53), 2**53), st.integers(1, 60), min_size=1, max_size=200).map(
    lambda table: tuple(np.array(column, dtype=np.int64) for column in zip(*sorted(table.items())))
)


@settings(max_examples=300, deadline=None)
@given(table=_TICK_COUNTS)
# a gamma of exactly 0.5, where numpy interpolates from above, and one row,
# whose p99 numpy takes from a virtual index past the last
@example(table=(np.array([0, 1, 7]), np.array([49, 1, 1])))
@example(table=(np.array([5]), np.array([1])))
def test_p99_is_numpys_percentile_bit_for_bit(table):
    values, counts = table
    expected = np.float64(np.percentile(np.repeat(values, counts), 99))
    actual = np.float64(sweep._order_statistics(values, np.cumsum(counts))[1])
    assert actual.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(table=_TICK_COUNTS)
def test_median_is_numpys_median_bit_for_bit(table):
    values, counts = table
    expected = np.float64(np.median(np.repeat(values, counts)))
    actual = np.float64(sweep._order_statistics(values, np.cumsum(counts))[0])
    assert actual.tobytes() == expected.tobytes()


# durations in ticks that repeat within and across batches, zero and negative
# ones (a hand-edited file may hold a probe earlier than the one before it),
# and ones near the largest a results cell holds; None is a row without both
_DURATIONS = st.none() | st.integers(-3, 3) | st.integers(-40, 40) | st.integers(-2_000_000, 2_000_000)
_LARGE_DURATIONS = st.none() | st.integers(10**17 - 3, 10**17 - 1) | st.integers(10**17 - 2_000_000, 10**17 - 1)


@settings(max_examples=200, deadline=None)
@given(
    large=st.booleans(),
    names=st.lists(st.sampled_from("abc"), min_size=1, max_size=300),
    data=st.data(),
)
def test_a_tally_fed_in_blocks_summarizes_the_rows_as_numpy_does(large, names, data):
    # configs interleaved, the later ones first seen in a later batch, and
    # batches cut anywhere, zero-row ones too, each over the names seen so far
    # as the parser's, each over one side table in any order as a sweep's, or
    # each over only the names its rows use, in any order
    durations = data.draw(st.lists(_LARGE_DURATIONS if large else _DURATIONS, min_size=len(names), max_size=len(names)))
    outcomes = data.draw(st.lists(st.sampled_from(Outcome), min_size=len(names), max_size=len(names)))
    records = [
        _row(name, k, (max(0, -t),) + (None,) * 6 + (max(0, -t) + t,) if t is not None else (0,) + (None,) * 7, outcome)
        ._replace(duplicates_delivered=k % 3)
        for k, (name, t, outcome) in enumerate(zip(names, durations, outcomes))
    ]
    whole = batch_of(records)
    side_tables = data.draw(st.sampled_from(["parser", "sweep", "own"]))
    one_table = data.draw(st.permutations(range(len(whole.names))))  # a sweep's, as indices into whole's
    cuts = sorted(data.draw(st.lists(st.integers(0, len(records)), max_size=8)))
    tally = ConfigTally([("d0", "d7")])
    columns = [field.name for field in dataclasses.fields(RecordBatch)[4:]]
    seen = 0
    for rows in np.split(np.arange(len(records)), cuts):
        used = whole.config_index[rows]
        if side_tables == "parser":
            seen = int(whole.config_index[: rows[-1] + 1].max()) + 1 if rows.size else seen
            entries = list(range(seen))
        elif side_tables == "sweep":
            entries = one_table
        else:
            entries = data.draw(st.permutations(np.unique(used).tolist()))
        at = np.zeros(len(whole.names), dtype=np.int64)  # each of whole's configs' index in the batch's table
        at[entries] = np.arange(len(entries))
        tally.add(dataclasses.replace(
            whole,
            names=tuple(whole.names[i] for i in entries),
            hashes=tuple(whole.hashes[i] for i in entries),
            config_index=at[used],
            **{c: getattr(whole, c)[rows] for c in columns},
        ))
    assert len(tally) == len(records) and list(tally.configs) == list(dict.fromkeys(names))
    for name, counts in tally.configs.items():
        rows = [(r, t) for r, t in zip(records, durations) if r.config_name == name]
        ticks = [t for _, t in rows if t is not None]
        # the distinct durations over the rows at each, as np.unique gives them
        expected = np.array(np.unique(np.array(ticks, dtype=np.int64), return_counts=True), dtype=np.int64)
        (table,) = counts.ticks
        assert table.dtype == np.int64 and table.shape == expected.shape and np.array_equal(table, expected)
        assert counts.lost == [len(rows) - len(ticks)]
        assert counts.outcomes.tolist() == [sum(r.outcome is outcome for r, _ in rows) for outcome in Outcome]
        assert counts.duplicates == sum(r.duplicates_delivered for r, _ in rows)
    # numpy on the sorted rows in every field but sd_us, which is the exact
    # integer formula, and past 2**53 mean_us: numpy's float sum rounds there
    expected = oracle_summarize_by_config(records, intervals=[("d0", "d7")])
    for name, stats in expected.items():
        if large and stats:
            ticks = [t for r, t in zip(records, durations) if r.config_name == name and t is not None]
            stats["d0d7"] = dataclasses.replace(stats["d0d7"], mean_us=sum(ticks) / len(ticks) / 10)
    assert summarize_by_config(tally) == expected
    assert summarize_by_config(tally) == expected  # summarizing leaves the tally as it was
    assert accounting_by_config(tally) == accounting_by_config(tallied(whole))


# --- memory -----------------------------------------------------------------------


def _column_bytes(batch: RecordBatch) -> int:
    return sum(column.nbytes for column in vars(batch).values() if isinstance(column, np.ndarray))


class LargeResults(NamedTuple):
    batch: RecordBatch
    path: object
    column_bytes: int


@pytest.fixture(scope="module")
def large_results(pipeline, tmp_path_factory):
    """A 100k-row batch, its results file and the bytes of its columns (128 a row)."""
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.3, p_corrupt=0.05), pipeline, 100_000, seed=5, config_name="olcfg"
    )
    path = tmp_path_factory.mktemp("large") / "results.csv"
    write_results([batch], path)
    return LargeResults(batch, path, _column_bytes(batch))


def _traced_peak(fn):
    """fn() and the peak of the memory it allocated, numpy's included."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class _RowCount:
    """A sink that keeps no more of a batch than its row count."""

    rows = 0

    def add(self, batch: RecordBatch) -> None:
        self.rows += len(batch)


def test_reading_results_takes_a_few_blocks_whatever_the_file_size(large_results):
    counted, peak = _traced_peak(lambda: read_results(large_results.path, _RowCount()))
    assert counted.rows == 100_000
    # a block of text, its offsets and its rows' columns at once, 6.6-6.9 blocks measured
    # with 256 KiB blocks, numpy 2.4: less than the file, or its columns
    bound = 9 * sweep._BLOCK_BYTES
    assert peak <= bound < min(large_results.path.stat().st_size, large_results.column_bytes)


def test_summaries_copy_no_column(large_results):
    def report():
        tally = tallied(large_results.batch)
        return render_report(tally, summarize_by_config(tally))

    text, peak = _traced_peak(report)
    assert "config olcfg" in text
    assert peak <= 0.5 * large_results.column_bytes


def test_the_report_takes_its_durations_and_one_block(large_results, capsys):
    _, path, column_bytes = large_results
    code, peak = _traced_peak(lambda: main(["report", "--file", str(path)]))
    assert code == 0 and "config olcfg" in capsys.readouterr().out
    # the distinct durations and one block in flight, 1.86-1.94 MiB measured with 256 KiB
    # blocks, numpy 2.4, and 0.56 MiB to spare; 24 bytes a delivered row would not fit beside the block
    assert peak <= 2.5 * 2**20


def test_writing_results_takes_one_chunk_beyond_the_columns(large_results, tmp_path):
    # the whole text, or any array over every row, would take 0.25 of the columns or more
    _, peak = _traced_peak(lambda: write_results([large_results.batch], tmp_path / "results.csv"))
    assert (tmp_path / "results.csv").read_bytes() == large_results.path.read_bytes()
    assert peak <= 0.25 * large_results.column_bytes + 2 * 2**20


def test_a_sweep_holds_one_series_whatever_its_rounds(tmp_path, capsys):
    def peak(rounds: int) -> int:
        out = tmp_path / f"rounds-{rounds}"
        argv = ["sweep", "--set", f"sweep.rounds={rounds}", "--set", "sweep.attempts=5000",
                "--set", "channel.p_loss=0.2655", "--set", "channel.p_corrupt=0.0204", "--out", str(out)]
        code, peak = _traced_peak(lambda: main(argv))
        assert code == 0 and len(read_batch(out / "results.csv")) == rounds * 5000
        return peak

    one, ten = peak(1), peak(10)
    # nine more series in memory at once would take 9 x 5000 rows x 128 B = 5.8 MB more
    assert ten <= one + 2**20


def test_a_sweep_holds_no_list_of_its_series_before_its_first_chunk(quiet_pipeline):
    def peak(rounds: int) -> int:
        plan = SweepPlan(configs=(("olcfg", olcfg_preset()),), rounds=rounds, attempts_per_round=1)
        first, peak = _traced_peak(lambda: next(run_sweep(plan, ChannelModel(), quiet_pipeline)))
        assert len(first) == 1 and first.round_index.tolist() == [0]
        return peak

    few, many = peak(10), peak(10**5)
    # a (config, round) pair or a series object per round would take 100 bytes or more each, 10 MB
    assert many <= few + 2 * 2**20


@pytest.mark.parametrize(
    "command, count, printed", [("simulate", "--attempts", "  sent {} "), ("compare-ble", "--samples", "of sent")]
)
def test_a_long_series_takes_the_memory_of_a_short_one(tmp_path, capsys, command, count, printed):
    def peak(n: int) -> int:
        argv = [command, count, str(n), "--set", "channel.p_loss=0.2655", "--out", str(tmp_path / str(n))]
        code, peak = _traced_peak(lambda: main(argv))
        assert code == 0 and printed.format(n) in capsys.readouterr().out
        return peak

    short, long = peak(20_000), peak(200_000)
    # the 180,000 more attempts at once would take 128 B each, 22 MB
    assert long <= short + 2 * 2**20


def test_a_tally_keeps_its_distinct_durations_not_its_rows(pipeline):
    batch = run_attempt_series(
        olcfg_preset(), ChannelModel(p_loss=0.3, p_corrupt=0.05), pipeline, 10_000, seed=5, config_name="olcfg"
    )

    def tally_of(times):
        tally = ConfigTally()
        for _ in range(times):
            tally.add(batch)
        return tally

    bound = 2**20
    for times in (1, 50):
        tally, peak = _traced_peak(lambda: tally_of(times))
        assert len(tally) == times * len(batch)
        assert peak <= bound
    # a duration of 8 bytes a delivered row and interval would not fit in the bound
    delivered = int(np.count_nonzero(batch.outcome != LOST))
    assert 8 * 50 * delivered * len(REPORT_INTERVALS) > 10 * bound
