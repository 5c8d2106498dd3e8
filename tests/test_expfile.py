import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from esbsim.analytics import CalibrationTargets, calibrate_pipeline, olcfg_calibration_targets
from esbsim.config import (
    BitrateMode,
    BleConfig,
    ChannelModel,
    CopySpacing,
    CrcMode,
    EsbConfig,
    PayloadMode,
    ProtocolMode,
    TxMode,
    olcfg_preset,
    validate,
)
from esbsim.expfile import (
    _PIPELINE_SECTIONS,
    _SECTIONS,
    ParseError,
    UnknownKeyError,
    apply_override,
    parse_experiment_file,
    parse_pipeline_file,
    render_pipeline_file,
)
from esbsim.cli import main
from esbsim.link import DEFAULT_STAGE_JITTER_SIGMA_US, MODIFIER_STAGE, STAGES, PipelineModel
from esbsim.sweep import SweepPlan

SAMPLE = """\
# reference experiment
[sweep]
seed=42
rounds=5
attempts=150
shuffle=true

[config olcfg]
crc=off
protocol=dynamic
bitrate=2M-ble
txmode=manual
power=0
payload=optimized
payload_len=1
retransmits=2
retransmit_delay_us=435

[config crc16] crc=16 protocol=dynamic bitrate=2M txmode=auto power=0
payload=standard payload_len=8 retransmits=2 retransmit_delay_us=435

[channel]
p_loss=0.2655
p_corrupt=0.020408
"""


class TestParse:
    def test_rounds_times_attempts(self):
        exp = parse_experiment_file(SAMPLE)
        assert exp.plan.rounds == 5
        assert exp.plan.attempts_per_round == 150

    def test_inline_and_multiline_pairs_are_equivalent(self):
        exp = parse_experiment_file(SAMPLE)
        crc16 = dict(exp.plan.configs)["crc16"]
        assert crc16.crc_mode is CrcMode.CRC16
        assert crc16.bitrate_mode is BitrateMode.MBPS2
        assert crc16.tx_mode is TxMode.AUTOMATIC
        assert crc16.payload_len_bytes == 8

    def test_named_config_matches_the_preset(self):
        exp = parse_experiment_file(SAMPLE)
        assert dict(exp.plan.configs)["olcfg"] == olcfg_preset()

    def test_channel_section(self):
        exp = parse_experiment_file(SAMPLE)
        assert exp.channel.p_loss == 0.2655
        assert exp.channel.p_corrupt == 0.020408

    def test_every_parsed_config_validates(self):
        exp = parse_experiment_file(SAMPLE)
        for _, config in exp.plan.configs:
            assert validate(config) == config

    def test_defaults_when_sweep_section_is_absent(self):
        exp = parse_experiment_file("[config a] crc=off retransmit_delay_us=500\n")
        assert exp.plan.rounds == 5
        assert exp.plan.attempts_per_round == 150
        assert exp.plan.shuffle is True
        assert exp.plan.seed == 0

    def test_targets_section(self):
        text = SAMPLE + "[targets] d0d7=486.30 d2d5=293.07 d3d4=185.86\n"
        exp = parse_experiment_file(text)
        assert exp.targets == olcfg_calibration_targets()

    def test_ble_section(self):
        text = SAMPLE + "[ble] connection_interval_us=10000 transfer_us=36.5\n"
        exp = parse_experiment_file(text)
        assert exp.ble.connection_interval_us == 10000.0
        assert exp.ble.transfer_time_us == 36.5


class TestParseErrors:
    def test_empty_file(self):
        with pytest.raises(ParseError):
            parse_experiment_file("")

    def test_comment_only_file(self):
        with pytest.raises(ParseError):
            parse_experiment_file("# nothing here\n")

    def test_unknown_key_names_the_key(self):
        with pytest.raises(UnknownKeyError) as err:
            parse_experiment_file("[sweep] cadence=9\n[config a] crc=off\n")
        assert err.value.name == "cadence"

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key"):
            parse_experiment_file("[sweep] rounds=3 rounds=4\n[config a] crc=off\n")

    def test_duplicate_section(self):
        with pytest.raises(ParseError, match="duplicate section"):
            parse_experiment_file("[sweep] rounds=3\n[sweep] rounds=4\n[config a] crc=off\n")

    def test_duplicate_config_name(self):
        with pytest.raises(ParseError, match="duplicate config"):
            parse_experiment_file("[config a] crc=off\n[config a] crc=16\n")

    def test_bad_enum_value_reports_the_line(self):
        with pytest.raises(ParseError) as err:
            parse_experiment_file("[config a]\ncrc=24\n")
        assert err.value.line_no == 2

    def test_key_without_section(self):
        with pytest.raises(ParseError):
            parse_experiment_file("rounds=3\n")

    def test_no_configs(self):
        with pytest.raises(ParseError, match="no \\[config"):
            parse_experiment_file("[sweep] rounds=3\n")

    def test_out_of_range_values_surface_as_parse_errors(self):
        with pytest.raises(ParseError):
            parse_experiment_file("[config a] crc=off power=99\n")

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ParseError):
            parse_experiment_file(f"[sweep] seed={2**64}\n[config a] crc=off\n")


class TestSchemaTable:
    def test_every_field_is_a_field_of_its_dataclass(self):
        targets = {
            "sweep": SweepPlan,
            "config": EsbConfig,
            "channel": ChannelModel,
            "ble": BleConfig,
            "targets": CalibrationTargets,
            "stages": PipelineModel,
            "jitter": PipelineModel,
            "dedup": PipelineModel,
        }
        tables = {**_SECTIONS, **_PIPELINE_SECTIONS}
        assert set(tables) == set(targets) | {"modifiers"}  # modifier keys are open-ended
        for section, cls in targets.items():
            names = {f.name for f in dataclasses.fields(cls)}
            mapped = [field for field, _ in tables[section].values()]
            assert set(mapped) <= names, section
            assert len(set(mapped)) == len(mapped), section  # one key per field


class TestOverrides:
    def test_sweep_override(self):
        exp = parse_experiment_file(SAMPLE)
        exp = apply_override(exp, "sweep.rounds=3")
        assert exp.plan.rounds == 3

    def test_channel_override(self):
        exp = parse_experiment_file(SAMPLE)
        exp = apply_override(exp, "channel.p_loss=0.1")
        assert exp.channel.p_loss == 0.1

    def test_config_override(self):
        exp = parse_experiment_file(SAMPLE)
        exp = apply_override(exp, "config.olcfg.crc=16")
        assert dict(exp.plan.configs)["olcfg"].crc_mode is CrcMode.CRC16

    def test_unknown_override_path(self):
        exp = parse_experiment_file(SAMPLE)
        with pytest.raises(UnknownKeyError):
            apply_override(exp, "config.olcfg.antenna=big")

    def test_config_names_may_contain_dots(self):
        exp = parse_experiment_file("[config lab.v2] crc=off\n")
        exp = apply_override(exp, "config.lab.v2.crc=16")
        assert dict(exp.plan.configs)["lab.v2"].crc_mode is CrcMode.CRC16

    def test_targets_override_needs_targets(self):
        with pytest.raises(ParseError, match="none defined"):
            apply_override(parse_experiment_file(SAMPLE), "targets.d0d7=500")

    def test_override_of_missing_config(self):
        exp = parse_experiment_file(SAMPLE)
        with pytest.raises(ParseError):
            apply_override(exp, "config.nope.crc=16")


class TestPipelineFile:
    def test_round_trip(self):
        pipe = calibrate_pipeline(
            olcfg_calibration_targets(),
            olcfg_preset(),
            modifiers_us={("crc", "16"): 8.09, ("protocol", "static"): 0.71},
        )
        text = render_pipeline_file(pipe, header="test pipeline")
        assert parse_pipeline_file(text) == pipe

    def test_missing_stage_rejected(self):
        with pytest.raises(ParseError, match="missing"):
            parse_pipeline_file("[stages] tx_app_to_ipc_us=10\n")

    def test_unknown_stage_key(self):
        with pytest.raises(UnknownKeyError):
            parse_pipeline_file("[stages] warp_drive_us=10\n")

    @pytest.mark.parametrize(
        "tail, line_no, match",
        [
            ("[stages] tx_app_to_ipc_us=999\n", 14, "duplicate section \\[stages\\]"),
            ("[jitter] family=off\n", 14, "duplicate section \\[jitter\\]"),
            ("[modifiers] crc.16=1 crc.16=2\n", 14, "duplicate key 'crc.16'"),
        ],
    )
    def test_duplicates_rejected(self, tail, line_no, match):
        text = render_pipeline_file(calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()))
        assert len(text.splitlines()) == line_no - 1
        with pytest.raises(ParseError, match=match) as err:
            parse_pipeline_file(text + tail)
        assert err.value.line_no == line_no

    def test_unknown_modifier_parameter(self):
        with pytest.raises(UnknownKeyError) as err:
            parse_pipeline_file("[modifiers] antenna.big=1\n")
        assert err.value.name == "antenna.big"

    def test_every_modifier_parameter_is_a_config_key(self):
        assert set(MODIFIER_STAGE) <= set(_SECTIONS["config"])

    @pytest.mark.parametrize(
        "key",
        ["crc.banana", "crc.32", "protocol.fast", "bitrate.3M", "txmode.never", "payload.big",
         "power.x", "power.+4", "power.04", "power.11", "power.-71", "power.1.5"],
    )
    def test_modifier_value_no_config_takes(self, key, tmp_path, capsys):
        text = render_pipeline_file(calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()))
        with pytest.raises(ParseError, match=f"bad value for '{key}'") as err:
            parse_pipeline_file(text + f"[modifiers]\n{key}=50\n")
        assert err.value.line_no == len(text.splitlines()) + 2
        path = tmp_path / "pipeline.cfg"
        path.write_text(text + f"[modifiers]\n{key}=50\n")
        assert main(["simulate", "--pipeline", str(path), "--attempts", "2", "--out", str(tmp_path)]) == 1
        assert f"line {err.value.line_no}: bad value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key", ["crc.off", "crc.8", "protocol.static", "bitrate.1M", "txmode.manual-start", "payload.standard",
                "power.-70", "power.0", "power.10"],
    )
    def test_modifier_values_configs_take(self, key):
        param, value = key.split(".", 1)
        pipe = parse_pipeline_file(
            render_pipeline_file(calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()))
            + f"[modifiers]\n{key}=1.5\n"
        )
        assert pipe.modifiers_us == {(param, value): 1.5}

    def test_file_without_sigma_takes_the_model_default(self):
        text = render_pipeline_file(calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()))
        kept = [line for line in text.splitlines() if not line.startswith("sigma_us=")]
        pipe = parse_pipeline_file("\n".join(kept))
        assert pipe.jitter_family == "normal"
        assert pipe.jitter_sigma_us == (DEFAULT_STAGE_JITTER_SIGMA_US,) * len(STAGES)
        assert pipe.jitter_sigma_us == PipelineModel(**{f"{s}_us": 1.0 for s in STAGES}).jitter_sigma_us

    @pytest.mark.parametrize("sigma", [None, "0", "3.5,1,2,3,4,5,6"])
    def test_calibrate_output_parses_unchanged(self, tmp_path, capsys, sigma):
        args = ["calibrate", "--out", str(tmp_path)]
        assert main(args) == 0
        text = (tmp_path / "pipeline.cfg").read_text()
        assert "\nsigma_us=" in text  # calibrate always writes it
        expected = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
        if sigma is not None:
            text = text.replace(f"sigma_us={expected.jitter_sigma_us[0]!r}", f"sigma_us={sigma}")
            sigmas = tuple(float(x) for x in sigma.split(","))
            sigmas = sigmas * len(STAGES) if len(sigmas) == 1 else sigmas
            expected = dataclasses.replace(expected, jitter_sigma_us=sigmas)
        assert parse_pipeline_file(text) == expected


# Every key of a full experiment file, with a value from which any single
# key may be changed to any value its strategy draws: end-to-start spacing
# and a 5 ms delay fit every frame, and the targets stay nested.
FULL = {
    "sweep": {"seed": "42", "rounds": "3", "attempts": "20", "shuffle": "true"},
    "config": {
        "crc": "off",
        "protocol": "dynamic",
        "bitrate": "2M-ble",
        "txmode": "manual",
        "power": "0",
        "payload": "optimized",
        "payload_len": "1",
        "retransmits": "2",
        "retransmit_delay_us": "5000",
        "spacing": "end-to-start",
    },
    "channel": {"p_loss": "0.2655", "p_corrupt": "0.020408"},
    "ble": {"connection_interval_us": "10000", "transfer_us": "36.5"},
    "targets": {"d0d7": "486.3", "d2d5": "293.07", "d3d4": "185.86"},
}


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw).map(repr)


def _values(enum):
    return st.sampled_from([member.value for member in enum])


VALUES = {
    ("sweep", "seed"): st.integers(0, 2**64 - 1).map(str),
    ("sweep", "rounds"): st.integers(1, 100).map(str),
    ("sweep", "attempts"): st.integers(1, 10_000).map(str),
    ("sweep", "shuffle"): st.sampled_from(["true", "false", "yes", "no", "1", "0"]),
    ("config", "crc"): _values(CrcMode),
    ("config", "protocol"): _values(ProtocolMode),
    ("config", "bitrate"): _values(BitrateMode),
    ("config", "txmode"): _values(TxMode),
    ("config", "power"): st.integers(-70, 10).map(str),
    ("config", "payload"): _values(PayloadMode),
    ("config", "payload_len"): st.integers(1, 252).map(str),
    ("config", "retransmits"): st.integers(0, 10).map(str),
    ("config", "retransmit_delay_us"): _floats(0.0, 1e5),
    ("config", "spacing"): _values(CopySpacing),
    ("channel", "p_loss"): _floats(0.0, 1.0),
    ("channel", "p_corrupt"): _floats(0.0, 1.0),
    ("ble", "connection_interval_us"): _floats(7500.0, 1e6),
    ("ble", "transfer_us"): _floats(0.0, 1e4),
    ("targets", "d0d7"): _floats(293.07, 1e4, exclude_min=True),
    ("targets", "d2d5"): _floats(185.86, 486.3, exclude_min=True, exclude_max=True),
    ("targets", "d3d4"): _floats(0.0, 293.07, exclude_min=True, exclude_max=True),
}


def _render(values: dict) -> str:
    lines = []
    for section, pairs in values.items():
        lines.append("[config a]" if section == "config" else f"[{section}]")
        lines.extend(f"{key}={value}" for key, value in pairs.items())
    lines.append("[config b] crc=16")  # an untouched second config
    return "\n".join(lines) + "\n"


class TestOverrideMatchesTheFile:
    def test_every_key_has_a_value_strategy(self):
        assert set(VALUES) == {(section, key) for section, keys in _SECTIONS.items() for key in keys}
        assert {(section, key) for section, keys in FULL.items() for key in keys} == set(VALUES)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), path=st.sampled_from(sorted(VALUES)), with_ble=st.booleans())
    def test_override_equals_parsing_the_file_with_that_key_set(self, data, path, with_ble):
        section, key = path
        value = data.draw(VALUES[path], label="value")
        base = {s: dict(pairs) for s, pairs in FULL.items() if with_ble or s != "ble"}
        changed = {s: dict(pairs) for s, pairs in base.items()}
        changed.setdefault(section, {})[key] = value
        override = f"config.a.{key}={value}" if section == "config" else f"{section}.{key}={value}"
        assert apply_override(parse_experiment_file(_render(base)), override) == parse_experiment_file(
            _render(changed)
        )
