import json

import pytest

from esbsim.cli import main
from esbsim.engine import RNG_ALGORITHM
from esbsim.expfile import parse_pipeline_file

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
