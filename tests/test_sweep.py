import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
from esbsim.config import ChannelModel, CrcMode, olcfg_preset
from esbsim.engine import RNG_ALGORITHM, RngStream
from esbsim.link import Outcome, TransmissionRecord, run_attempt_series
from esbsim.sweep import (
    EmptyInputError,
    SchemaError,
    SweepPlan,
    bulge_masses,
    crc_accounting_table,
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


@pytest.fixture(scope="module")
def quiet_pipeline():
    return calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()).zero_jitter()


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
    def test_counts(self, small_plan):
        assert small_plan.attempts_per_config == 150

    def test_protocol_count_arithmetic(self):
        five = SweepPlan(configs=(("a", olcfg_preset()),), rounds=5, attempts_per_round=150)
        three = SweepPlan(configs=(("a", olcfg_preset()),), rounds=3, attempts_per_round=150)
        assert five.attempts_per_config == 750
        assert three.attempts_per_config == 450

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
        assert shuffle_round_order(["only"], 0, RngStream(1)) == ["only"]

    def test_output_is_a_permutation(self):
        items = list(range(7))
        out = shuffle_round_order(items, 2, RngStream(3))
        assert sorted(out) == items

    def test_deterministic_per_seed_and_round(self):
        items = list(range(10))
        a = shuffle_round_order(items, 4, RngStream(9))
        b = shuffle_round_order(items, 4, RngStream(9))
        c = shuffle_round_order(items, 5, RngStream(9))
        assert a == b
        assert a != c  # 1/10! chance of a false failure

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            shuffle_round_order([], 0, RngStream(1))


class TestRunSweep:
    def test_record_counts_per_config(self, small_plan, quiet_pipeline):
        records = run_sweep(small_plan, ChannelModel(), quiet_pipeline)
        assert len(records) == 2 * small_plan.attempts_per_config
        per_config = {}
        for r in records:
            per_config[r.config_name] = per_config.get(r.config_name, 0) + 1
        assert per_config == {"olcfg": 150, "crc16": 150}

    def test_lossless_channel_delivers_everything(self, small_plan, quiet_pipeline):
        records = run_sweep(small_plan, ChannelModel(), quiet_pipeline)
        assert all(r.outcome is Outcome.DELIVERED for r in records)

    def test_shuffling_does_not_change_the_record_multiset(self, small_plan, quiet_pipeline):
        ordered = dataclasses.replace(small_plan, shuffle=False)
        a = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        b = run_sweep(ordered, ChannelModel(p_loss=0.2), quiet_pipeline)
        assert a == b  # canonical output order; randomness is keyed, not ordered

    def test_worker_count_does_not_change_results(self, small_plan, quiet_pipeline):
        serial = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline, workers=1)
        parallel = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline, workers=4)
        assert serial == parallel


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
        lost = sum(1 for r in records if r.outcome is Outcome.LOST)
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
        values = [r.interval_us("d0", "d7") for r in records if r.delivered_copy is not None]
        assert min(values) <= stats.median_us <= max(values)
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
        masses = bulge_masses(records, stats.modes_us)
        assert sum(masses) == pytest.approx(1.0)
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
        table = crc_accounting_table(by_mode)
        for mode, row in table.items():
            assert row.sent == 750
            assert row.received == row.unique + row.duplicates
            assert row.unique == row.valid + row.corrupted
            assert row.sent == row.unique + row.lost

    def test_crc16_has_no_duplicates_and_no_corruption(self, quiet_pipeline):
        cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
        records = run_attempt_series(
            cfg, ChannelModel(p_loss=0.2655, p_corrupt=15 / 735), quiet_pipeline, 750, seed=7
        )
        row = crc_accounting_table({"16": records})["16"]
        assert row.received == row.unique
        assert row.valid == row.unique

    def test_no_corruption_means_valid_equals_unique(self, quiet_pipeline):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(p_loss=0.3), quiet_pipeline, 300, seed=8
        )
        row = crc_accounting_table({"off": records})["off"]
        assert row.valid == row.unique


class TestPersistence:
    def test_round_trip_equality(self, small_plan, quiet_pipeline, tmp_path):
        records = run_sweep(small_plan, ChannelModel(p_loss=0.2, p_corrupt=0.05), quiet_pipeline)
        path = tmp_path / "results.csv"
        write_results(records, path)
        assert read_results(path) == records

    def test_header_only_for_empty_record_set(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_results([], path)
        text = path.read_text()
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 1  # just the column header
        assert read_results(path) == []

    def test_provenance_comments(self, quiet_pipeline, tmp_path):
        records = run_attempt_series(
            olcfg_preset(), ChannelModel(), quiet_pipeline, 3, seed=9, config_name="olcfg"
        )
        text = render_results_csv(records)
        assert "# seed=9\n" in text
        assert f"# config olcfg hash={olcfg_preset().digest()}" in text
        assert "# rng=" in text

    def test_every_seed_in_the_provenance_header(self, quiet_pipeline):
        records = [
            *run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=9, config_name="a"),
            *run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=3, config_name="b"),
        ]
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
        assert parsed[0].config_hash == olcfg_preset().digest()

    @pytest.mark.parametrize("name", ["a\nb", "a\rb", "trailing\n", "a\x0bb", "a\x85b", "a\u2028b"])
    def test_config_name_with_a_line_break_is_refused(self, quiet_pipeline, name):
        records = run_attempt_series(olcfg_preset(), ChannelModel(), quiet_pipeline, 2, seed=4, config_name=name)
        with pytest.raises(SchemaError, match="line break"):
            render_results_csv(records)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_round_trip_of_arbitrary_records(self, data):
        # names hold no line breaks: the format is line-based
        names = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12)
        hashes = data.draw(st.dictionaries(names, st.text("0123456789abcdef", max_size=12), min_size=1, max_size=4))
        probe = st.none() | st.integers(0, 2**40)
        record = st.builds(
            TransmissionRecord,
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
        records = [
            dataclasses.replace(r, config_hash=hashes[r.config_name])
            for r in data.draw(st.lists(record, max_size=20))
        ]
        assert parse_results_csv(render_results_csv(records)) == records

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

    def test_summaries_are_pure_functions_of_the_records(
        self, small_plan, quiet_pipeline, tmp_path
    ):
        records = run_sweep(small_plan, ChannelModel(p_loss=0.2), quiet_pipeline)
        path = tmp_path / "results.csv"
        write_results(records, path)
        direct = summarize_by_config(records)
        reloaded = summarize_by_config(read_results(path))
        assert direct == reloaded
