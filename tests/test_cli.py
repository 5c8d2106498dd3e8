import dataclasses
import json
import re

import pytest

from esbsim import airtime, ble, sweep
from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
from esbsim.ble import compare
from esbsim.cli import main
from esbsim.config import olcfg_preset
from esbsim.engine import RNG_ALGORITHM
from esbsim.expfile import parse_experiment_file, parse_pipeline_file, render_pipeline_file
from esbsim.sweep import read_results, summarize

EXPERIMENT = """\
[sweep]
seed=42
rounds=2
attempts=20
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

[channel]
p_loss=0.1
p_corrupt=0.0
"""


# a second and a third config, so that a series address can pick the wrong one
MORE_CONFIGS = """
[config crc16] crc=16 protocol=dynamic bitrate=2M-ble txmode=manual power=0
  payload=optimized payload_len=1 retransmits=2 retransmit_delay_us=435
[config slow] crc=8 protocol=static bitrate=1M txmode=auto power=-8
  payload=standard payload_len=8 retransmits=3 retransmit_delay_us=435
"""


@pytest.fixture()
def exp_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(EXPERIMENT)
    return path


def test_unknown_flag_exits_one_with_usage(capsys):
    assert main(["sweep", "--bogus"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["fly"]) == 1


def test_missing_experiment_file_is_an_io_error(tmp_path, capsys):
    assert main(["sweep", "--file", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2


def test_malformed_experiment_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sweep] rounds=zero\n")
    assert main(["sweep", "--file", str(bad), "--out", str(tmp_path)]) == 1


def test_sweep_is_deterministic_per_seed(exp_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", "--file", str(exp_file), "--seed", "42", "--out", str(out_a)]) == 0
    assert main(["sweep", "--file", str(exp_file), "--seed", "42", "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_seed_flag_overrides_the_file_seed(exp_file, tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["sweep", "--file", str(exp_file), "--out", str(out_a)]) == 0  # file seed 42
    assert main(["sweep", "--file", str(exp_file), "--seed", "7", "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()


def test_worker_count_gives_byte_identical_results(exp_file, tmp_path):
    out_a = tmp_path / "w1"
    out_b = tmp_path / "w8"
    assert main(["sweep", "--file", str(exp_file), "--out", str(out_a), "--workers", "1"]) == 0
    assert main(["sweep", "--file", str(exp_file), "--out", str(out_b), "--workers", "8"]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_calibrate_writes_the_reference_pipeline(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--targets", "486.30,293.07,185.86", "--out", str(out)]) == 0
    text = (out / "pipeline.cfg").read_text()
    pipe = parse_pipeline_file(text)
    assert pipe.radio_overhead_us == pytest.approx(149.36)
    assert "radio_overhead_us=149.36" in capsys.readouterr().out


def test_calibrate_rejects_malformed_targets(tmp_path):
    assert main(["calibrate", "--targets", "1,2", "--out", str(tmp_path)]) == 1
    assert main(["calibrate", "--targets", "100,200,300", "--out", str(tmp_path)]) == 1  # not nested


def test_simulate_then_report_reproduces_the_summary(exp_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--file", str(exp_file), "--attempts", "50", "--out", str(out)]) == 0
    first = capsys.readouterr().out
    assert main(["report", "--file", str(out / "results.csv")]) == 0
    second = capsys.readouterr().out
    assert first.strip() == second.strip()


def test_report_of_a_foreign_rng_file_is_a_validation_error(exp_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--file", str(exp_file), "--attempts", "5", "--out", str(out)]) == 0
    results = out / "results.csv"
    results.write_text(results.read_text().replace(f"# rng={RNG_ALGORITHM}\n", "# rng=mt19937\n"))
    assert main(["report", "--file", str(results)]) == 1
    assert f"rng={RNG_ALGORITHM}'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["results", "experiment", "pipeline"])
def test_a_file_that_is_not_utf8_exits_one_naming_it(exp_file, tmp_path, capsys, monkeypatch, kind):
    monkeypatch.setattr(sweep, "_BLOCK_CHARS", 64)  # the bad byte of a results file lies blocks in
    out = tmp_path / "run"
    assert main(["simulate", "--file", str(exp_file), "--attempts", "5", "--out", str(out)]) == 0
    assert main(["calibrate", "--out", str(out)]) == 0
    path, argv = {
        "results": (out / "results.csv", ["report", "--file"]),
        "experiment": (exp_file, ["sweep", "--out", str(out), "--file"]),
        "pipeline": (out / "pipeline.cfg", ["sweep", "--out", str(out), "--file", str(exp_file), "--pipeline"]),
    }[kind]
    data = path.read_bytes()
    path.write_bytes(data[:-10] + b"\xff" + data[-10:])
    capsys.readouterr()
    assert main([*argv, str(path)]) == 1
    assert capsys.readouterr().err == f"esbsim: error: {path}: not UTF-8 (invalid start byte)\n"


def test_sweep_uses_calibrated_pipeline_file(exp_file, tmp_path):
    cal = tmp_path / "cal"
    assert main(["calibrate", "--targets", "486.30,293.07,185.86", "--out", str(cal)]) == 0
    out = tmp_path / "run"
    assert (
        main(
            [
                "sweep",
                "--file",
                str(exp_file),
                "--pipeline",
                str(cal / "pipeline.cfg"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert (out / "results.csv").exists()
    assert (out / "summary.json").exists()


def test_summary_json_is_machine_readable(exp_file, tmp_path):
    out = tmp_path / "sum"
    assert main(["sweep", "--file", str(exp_file), "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert "olcfg" in payload
    assert {"n", "mean_us", "median_us", "sd_us", "p99_us"} <= payload["olcfg"]["d0d7"].keys()


def test_set_overrides_apply(exp_file, tmp_path):
    out = tmp_path / "ov"
    assert (
        main(
            [
                "sweep",
                "--file",
                str(exp_file),
                "--set",
                "sweep.rounds=1",
                "--set",
                "sweep.attempts=5",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = [
        l
        for l in (out / "results.csv").read_text().splitlines()
        if l and not l.startswith("#")
    ]
    assert len(lines) == 1 + 5  # header plus one round of five attempts


def test_compare_ble_reports_the_ratio(exp_file, tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare-ble",
            "--file",
            str(exp_file),
            "--samples",
            "2000",
            "--set",
            "channel.p_loss=0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    text = (out / "compare.txt").read_text()
    assert "mean ratio" in text


def test_interval_flag_limits_the_report(exp_file, tmp_path, capsys):
    out = tmp_path / "iv"
    assert (
        main(
            ["simulate", "--file", str(exp_file), "--attempts", "10", "--interval", "d3d4", "--out", str(out)]
        )
        == 0
    )
    text = capsys.readouterr().out
    assert "d3-d4" in text
    assert "d0-d7" not in text


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "esbsim" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("simulate", "--workers", "2"),
        ("calibrate", "--workers", "2"),
        ("compare-ble", "--workers", "2"),
        ("report", "--workers", "2"),
        ("calibrate", "--pipeline", "pipeline.cfg"),
        ("report", "--pipeline", "pipeline.cfg"),
        ("calibrate", "--interval", "d0d7"),
        ("compare-ble", "--interval", "d0d7"),
        ("calibrate", "--seed", "3"),
        ("report", "--seed", "3"),
        ("report", "--set", "sweep.rounds=1"),
    ],
)
def test_option_a_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys, command, option, value):
    assert main([command, option, value, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower()
    assert f"unrecognized arguments: {option} {value}" in err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("sweep", "--seed", "-1"),
        ("simulate", "--seed", "18446744073709551616"),
        ("simulate", "--attempts", "-5"),
        ("simulate", "--attempts", "0"),
        ("compare-ble", "--samples", "0"),
        ("simulate", "--config", "nope"),
        ("compare-ble", "--config", "nope"),
        ("sweep", "--workers", "0"),
        ("sweep", "--workers", "-2"),
        ("simulate", "--set", "config.olcfg.retransmit_delay_us=nan"),
        ("simulate", "--set", "config.olcfg.retransmit_delay_us=inf"),
        ("compare-ble", "--set", "ble.transfer_us=nan"),
        ("compare-ble", "--set", "ble.connection_interval_us=inf"),
        ("calibrate", "--targets", "abc,1,2"),
    ],
)
def test_out_of_range_value_exits_one(exp_file, tmp_path, capsys, command, option, value):
    assert main([command, option, value, "--file", str(exp_file), "--out", str(tmp_path / "out")]) == 1
    assert "esbsim: error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", ["olcfg", "crc16", "slow"])
def test_every_command_addresses_a_series_as_the_sweep_does(tmp_path, monkeypatch, config):
    exp = tmp_path / "exp.cfg"
    exp.write_text(EXPERIMENT + MORE_CONFIGS)  # shuffled, 2 rounds of 20 attempts
    n = 13
    assert main(["sweep", "--file", str(exp), "--out", str(tmp_path / "sweep")]) == 0
    swept = read_results(tmp_path / "sweep" / "results.csv")
    picked = (swept.config_index == swept.names.index(config)) & (swept.round_index == 0) & (swept.attempt < n)
    columns = [f.name for f in dataclasses.fields(swept)[3:]]  # the fields after the side tables
    series = dataclasses.replace(swept, **{column: getattr(swept, column)[picked] for column in columns})
    assert len(series) == n

    assert main(["simulate", "--file", str(exp), "--config", config, "--attempts", str(n),
                 "--out", str(tmp_path / "sim")]) == 0
    assert read_results(tmp_path / "sim" / "results.csv") == series

    compared = []
    monkeypatch.setattr(ble, "compare", lambda esb, baseline: compared.append(esb) or compare(esb, baseline))
    assert main(["compare-ble", "--file", str(exp), "--config", config, "--samples", str(n),
                 "--out", str(tmp_path / "cmp")]) == 0
    assert compared == [summarize(series, ("d0", "d7"))]


def _pipeline_file(tmp_path, key: str, value: str) -> str:
    """The reference pipeline file with one key's value replaced."""
    text = render_pipeline_file(calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()))
    text, count = re.subn(rf"^{key}=.*$", f"{key}={value}", text, flags=re.M)
    assert count == 1
    path = tmp_path / "pipeline.cfg"
    path.write_text(text)
    return str(path)


def _experiment_file(tmp_path, extra: str) -> str:
    path = tmp_path / "exp.cfg"
    path.write_text(EXPERIMENT + extra)
    return str(path)


@pytest.mark.parametrize(
    "make_args",
    [
        lambda tmp: ["simulate", "--pipeline", _pipeline_file(tmp, "tx_app_to_ipc_us", "nan")],
        lambda tmp: ["simulate", "--pipeline", _pipeline_file(tmp, "sigma_us", "inf")],
        lambda tmp: ["sweep", "--file", _experiment_file(tmp, "[targets] d0d7=inf d2d5=293.07 d3d4=185.86\n")],
    ],
    ids=["pipeline-stage-nan", "pipeline-sigma-inf", "experiment-targets-inf"],
)
def test_non_finite_value_in_a_file_exits_one(tmp_path, capsys, make_args):
    assert main([*make_args(tmp_path), "--out", str(tmp_path / "out")]) == 1
    assert "esbsim: error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_writes_summary_json_to_an_explicit_out_dot(exp_file, tmp_path, monkeypatch):
    assert main(["simulate", "--file", str(exp_file), "--attempts", "20", "--out", str(tmp_path / "sim")]) == 0
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--file", "sim/results.csv"]) == 0
    assert not (tmp_path / "summary.json").exists()  # no --out: print only
    assert main(["report", "--file", "sim/results.csv", "--out", "."]) == 0
    assert (tmp_path / "summary.json").read_bytes() == (tmp_path / "sim" / "summary.json").read_bytes()


# a plan whose first config is not the built-in preset
NOT_PRESET_FIRST = "[sweep] seed=42 rounds=2 attempts=20\n[channel] p_loss=0.1\n" + MORE_CONFIGS


@pytest.mark.parametrize("targets", ["", "[targets] d0d7=520 d2d5=300 d3d4=190\n"], ids=["reference", "file"])
def test_sweep_calibrates_as_calibrate_does(tmp_path, targets):
    exp = tmp_path / "exp.cfg"
    exp.write_text(NOT_PRESET_FIRST + targets)
    assert main(["calibrate", "--file", str(exp), "--out", str(tmp_path / "cal")]) == 0
    pipeline = tmp_path / "cal" / "pipeline.cfg"
    assert main(["sweep", "--file", str(exp), "--out", str(tmp_path / "implicit")]) == 0
    assert main(["sweep", "--file", str(exp), "--pipeline", str(pipeline), "--out", str(tmp_path / "explicit")]) == 0
    implicit = (tmp_path / "implicit" / "results.csv").read_bytes()
    assert implicit == (tmp_path / "explicit" / "results.csv").read_bytes()


@pytest.mark.parametrize("config", [None, "crc16", "slow"])
def test_calibrate_reference_is_the_named_config_or_the_preset(tmp_path, capsys, config):
    exp = tmp_path / "exp.cfg"
    exp.write_text(NOT_PRESET_FIRST)
    args = ["calibrate", "--file", str(exp), "--out", str(tmp_path / "cal")]
    assert main(args + (["--config", config] if config else [])) == 0
    text = (tmp_path / "cal" / "pipeline.cfg").read_text()
    reference = olcfg_preset() if config is None else dict(parse_experiment_file(NOT_PRESET_FIRST).plan.configs)[config]
    assert f"# reference config={config or 'olcfg'} hash={reference.digest()}\n" in text
    radio_overhead = olcfg_calibration_targets().d3d4_us - airtime.on_air_time_us(reference)
    assert parse_pipeline_file(text).radio_overhead_us == radio_overhead


def test_report_refuses_a_latency_span_too_wide_to_histogram(exp_file, tmp_path, capsys):
    out = tmp_path / "sim"
    assert main(["simulate", "--file", str(exp_file), "--attempts", "3", "--out", str(out)]) == 0
    results = out / "results.csv"
    lines = results.read_text().splitlines()
    row = lines.index(",".join(sweep.CSV_COLUMNS)) + 1
    cells = lines[row].split(",")
    cells[sweep.CSV_COLUMNS.index("d7")] = "99999999999999.9"  # a time the parser accepts
    lines[row] = ",".join(cells)
    results.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["report", "--file", str(results)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("esbsim: error: config 'olcfg', interval d0-d7: latencies from ")
    assert f"more than {sweep.MAX_HISTOGRAM_BINS}" in err
