import concurrent.futures
import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import esbsim
from esbsim import airtime, ble, sweep
from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
from esbsim.cli import main
from esbsim.config import BleConfig, olcfg_preset
from esbsim.engine import RNG_ALGORITHM
from esbsim.expfile import parse_experiment_file, parse_pipeline_file, render_pipeline_file
from esbsim.link import STAGES
from esbsim.sweep import parse_results_csv

from conftest import Collected, same_rows, summary_of

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


def test_a_sweep_starts_no_process_whatever_workers_says(tmp_path, monkeypatch):
    exp = tmp_path / "exp.cfg"
    exp.write_text(EXPERIMENT + MORE_CONFIGS)  # six series

    def started(*args, **kwargs):
        raise AssertionError("a sweep started a process")

    assert main(["sweep", "--file", str(exp), "--workers", "1", "--out", str(tmp_path / "one")]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", started)
    monkeypatch.setattr(os, "fork", started)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert main(["sweep", "--file", str(exp), "--workers", "1000000", "--out", str(tmp_path / "many")]) == 0
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


# --- a report read in two processes -------------------------------------------------

# a results file is read in two processes when its data hold two blocks: at 1 KiB, a part of a 15 KiB file holds seven
SPLIT_BLOCK = 1024


def _swept_results(tmp_path) -> Path:
    """The results file of a sweep of three configs, 120 rows in some 15 KiB."""
    exp = tmp_path / "exp.cfg"
    exp.write_text(EXPERIMENT + MORE_CONFIGS)
    assert main(["sweep", "--file", str(exp), "--out", str(tmp_path / "swept")]) == 0
    return tmp_path / "swept" / "results.csv"


def _second_start(data: bytes) -> int:
    """The offset where a second process starts reading `data`: the first
    line start at or past the middle of the bytes after the column header."""
    data_start = data.index(b"\nconfig_name,") + 1
    data_start = data.index(b"\n", data_start) + 1
    return data.index(b"\n", data_start + (len(data) - data_start) // 2 - 1) + 1


def _no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _forks(monkeypatch) -> list[int]:
    """The pids os.fork returns in this process from now on."""
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(pid := fork()) or pid)
    return forks


def _report(path, cpus: int, monkeypatch, capsys, *options) -> tuple:
    """Exit code, stdout and stderr of `report` over `path` with `cpus`
    usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    capsys.readouterr()
    code = main(["report", "--file", str(path), *options])
    return (code, *capsys.readouterr())


def test_a_report_in_two_processes_prints_and_writes_what_one_and_the_sweep_do(tmp_path, monkeypatch, capsys):
    path = _swept_results(tmp_path)
    swept = path.parent
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    forks = _forks(monkeypatch)
    outputs = []
    for cpus in (1, 2):
        out = tmp_path / f"cpus-{cpus}"
        printed = _report(path, cpus, monkeypatch, capsys, "--out", str(out))
        outputs.append((printed, (out / "summary.json").read_bytes()))
        assert len(forks) == cpus - 1
        _no_child_left()
    assert outputs[0] == outputs[1] == ((0, (swept / "summary.txt").read_text() + "\n", ""),
                                        (swept / "summary.json").read_bytes())


def _spoiled(data: bytes, line_start: int, byte: bytes) -> bytes:
    """`data` with the first byte of the attempt cell of the line at `line_start` replaced by `byte`."""
    at = data.index(b",", data.index(b",", line_start) + 1) + 1
    return data[:at] + byte + data[at + 1 :]


def _line_starts(data: bytes, split: int) -> dict[str, int]:
    """The first and the last data line of each part of `data` read in two."""
    header_end = data.index(b"\n", data.index(b"\nconfig_name,") + 1) + 1
    return {
        "first": header_end,
        "last": data.rindex(b"\n", 0, split - 1) + 1,
        "second-first": split,
        "second-last": data.rindex(b"\n", 0, len(data) - 1) + 1,
    }


@pytest.mark.parametrize("where", ["first", "last", "second-first", "second-last"])
@pytest.mark.parametrize("byte", [b"x", b"\xff"])
def test_a_fault_in_either_part_is_reported_as_one_process_reports_it(tmp_path, monkeypatch, capsys, where, byte):
    data = _swept_results(tmp_path).read_bytes()
    split = _second_start(data)
    path = tmp_path / "spoiled.csv"
    path.write_bytes(_spoiled(data, _line_starts(data, split)[where], byte))
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    forks = _forks(monkeypatch)
    one = _report(path, 1, monkeypatch, capsys)
    assert one[0] == 1 and one[1] == "" and one[2].count("\n") == 1
    assert one[2].startswith("esbsim: error: line " if byte == b"x" else f"esbsim: error: {path}: not UTF-8")
    assert _report(path, 2, monkeypatch, capsys) == one
    assert len(forks) == ((where, byte) != ("first", b"\xff"))  # the first block's bytes are checked before a fork
    _no_child_left()


@pytest.mark.parametrize("first, second", [(b"x", b"x"), (b"x", b"\xff"), (b"\xff", b"x")])
def test_with_a_fault_in_each_part_the_first_parts_is_reported(tmp_path, monkeypatch, capsys, first, second):
    data = _swept_results(tmp_path).read_bytes()
    starts = _line_starts(data, _second_start(data))
    path = tmp_path / "spoiled.csv"
    path.write_bytes(_spoiled(data, starts["last"], first))
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    expected = _report(path, 1, monkeypatch, capsys)  # the first part's fault alone, read in one process
    assert expected[0] == 1
    path.write_bytes(_spoiled(path.read_bytes(), starts["second-first"], second))
    forks = _forks(monkeypatch)
    assert _report(path, 2, monkeypatch, capsys) == expected
    assert len(forks) == 1
    _no_child_left()


def test_a_second_process_that_sends_nothing_is_an_error(tmp_path, monkeypatch, capsys):
    path = _swept_results(tmp_path)
    split = _second_start(path.read_bytes())
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    parent, tally_rows = os.getpid(), sweep._tally_rows

    def dying(*args):
        if os.getpid() != parent:
            os._exit(1)
        return tally_rows(*args)

    monkeypatch.setattr(sweep, "_tally_rows", dying)
    line = path.read_bytes()[:split].count(b"\n") + 1
    assert _report(path, 2, monkeypatch, capsys) == (
        2, "", f"esbsim: i/o error: the process reading lines {line} on exited with code 1 and no result\n"
    )
    _no_child_left()


def test_a_report_that_cannot_fork_reads_in_one_process(tmp_path, monkeypatch, capsys):
    path = _swept_results(tmp_path)
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    one = _report(path, 1, monkeypatch, capsys)

    def no_process():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_process)
    assert _report(path, 2, monkeypatch, capsys) == one
    assert one[0] == 0


def test_the_fork_warning_of_a_process_with_threads_is_not_an_error(tmp_path, monkeypatch, capsys):
    # Python 3.12 warns so on a fork while numpy's OpenBLAS pool runs; the suite turns warnings into errors
    path = _swept_results(tmp_path)
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    one = _report(path, 1, monkeypatch, capsys)
    fork = os.fork

    def warning_fork():
        pid = os.getpid()
        message = f"This process (pid={pid}) is multi-threaded, use of fork() may lead to deadlocks in the child."
        warnings.warn(message, DeprecationWarning, stacklevel=2)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    assert _report(path, 2, monkeypatch, capsys) == one
    _no_child_left()


def test_a_report_of_a_stream_or_a_file_under_two_blocks_starts_no_process(tmp_path, monkeypatch, capsys):
    path = _swept_results(tmp_path)
    data = path.read_bytes()
    one = _report(path, 1, monkeypatch, capsys)

    def started(*args, **kwargs):
        raise AssertionError("a report started a process")

    monkeypatch.setattr(os, "fork", started)
    data_start = data.index(b"\n", data.index(b"\nconfig_name,") + 1) + 1
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", (len(data) - data_start) // 2 + 1)  # a byte short of two blocks
    assert _report(path, 64, monkeypatch, capsys) == one
    monkeypatch.setattr(sweep, "_BLOCK_BYTES", SPLIT_BLOCK)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    assert _report(fifo, 64, monkeypatch, capsys) == one
    writer.join(timeout=60)
    assert not writer.is_alive()


REPORT_ONCE = """\
import os, sys
from esbsim import cli, sweep
sweep._BLOCK_BYTES = {block}
os.sched_getaffinity = lambda pid: {{0, 1}}
forks, fork = [], os.fork
def counted():
    if sys.argv[1] == "stream":
        raise AssertionError("a report of a stream started a process")
    forks.append(1)
    return fork()
os.fork = counted
print("printed before the report")
try:
    code = cli.main(["report", "--file", sys.argv[2]])
finally:
    with open(sys.argv[3], "a") as fh:
        fh.write(f"{{len(forks)}}\\n")
sys.exit(code)
"""


@pytest.mark.parametrize("source", ["file", "stream"])
def test_a_report_is_printed_once_into_a_pipe(tmp_path, source):
    # what the parent printed before the fork is flushed once, and only the parent runs its caller's finally
    path = _swept_results(tmp_path)
    marker = tmp_path / "finally"
    env = dict(os.environ, PYTHONPATH=str(Path(esbsim.__file__).parents[1]))
    script = REPORT_ONCE.format(block=SPLIT_BLOCK)
    argv = [sys.executable, "-c", script, source, str(path) if source == "file" else "/dev/stdin", str(marker)]
    feed = dict(input=path.read_bytes()) if source == "stream" else dict(stdin=subprocess.DEVNULL)
    run = subprocess.run(argv, capture_output=True, env=env, timeout=120, **feed)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == b"printed before the report\n" + (path.parent / "summary.txt").read_bytes() + b"\n"
    assert marker.read_text() == ("1\n" if source == "file" else "0\n")


def test_calibrate_writes_the_reference_pipeline(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calibrate", "--targets", "486.30,293.07,185.86", "--out", str(out)]) == 0
    text = (out / "pipeline.cfg").read_text()
    pipe = parse_pipeline_file(text)
    assert dict(zip(STAGES, pipe.base_us))["radio_overhead"] == pytest.approx(149.36)
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
    out = tmp_path / "run"
    assert main(["simulate", "--file", str(exp_file), "--attempts", "5", "--out", str(out)]) == 0
    assert main(["calibrate", "--out", str(out)]) == 0
    path, argv = {
        "results": (out / "results.csv", ["report", "--file"]),
        "experiment": (exp_file, ["sweep", "--out", str(out), "--file"]),
        "pipeline": (out / "pipeline.cfg", ["sweep", "--out", str(out), "--file", str(exp_file), "--pipeline"]),
    }[kind]
    data = path.read_bytes()
    # a results file is read in blocks, some bytes in: its bad byte falls at every offset from a block edge
    cases = [(block, len(data) - 10 - shift) for block in (7, 64) for shift in range(block)]
    for block, at in cases if kind == "results" else [(None, len(data) - 10)]:
        if block:
            monkeypatch.setattr(sweep, "_BLOCK_BYTES", block)
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        capsys.readouterr()
        assert main([*argv, str(path)]) == 1
        assert capsys.readouterr().err == f"esbsim: error: {path}: not UTF-8 (invalid start byte)\n"
    path.write_bytes(data + "é".encode()[:1])  # a file that ends inside a character
    assert main([*argv, str(path)]) == 1
    assert capsys.readouterr().err == f"esbsim: error: {path}: not UTF-8 (unexpected end of data)\n"


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
    # lossless, the broadcast link delivers every attempt within a millisecond
    transfer = airtime.on_air_time_us(parse_experiment_file(EXPERIMENT).plan.configs[0][1])
    baseline = BleConfig(transfer_time_us=transfer)
    assert text.splitlines()[-2:] == [
        f"within {period:.0f} us ({1e6 / period:.0f} Hz): broadcast 1.00000 of delivered, 1.00000 of sent; "
        f"ble {ble.latency_cdf(baseline, period):.5f}"
        for period in (1000.0, 2000.0)
    ]


def test_compare_ble_takes_any_finite_connection_interval(exp_file, tmp_path):
    # the baseline is closed-form: no histogram of it can outgrow its bins
    out = tmp_path / "cmp"
    overrides = ["--set", "ble.connection_interval_us=1e300", "--set", "ble.transfer_us=36.5"]
    assert main(["compare-ble", "--file", str(exp_file), *overrides, "--samples", "5", "--out", str(out)]) == 0
    lines = (out / "compare.txt").read_text().splitlines()
    assert lines[2].startswith("mean [us]")
    assert lines[2].split()[-1] == f"{36.5 + 1e300 / 2:.2f}"


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


# whole-file errors have no line; an override error names the override
WHOLE_FILES = {"empty.cfg": "# nothing but a comment\n", "no-config.cfg": "[sweep] rounds=2\n"}

_OVERLAP_10 = "retransmit_delay_us=10.0 shorter than one frame on air (36.5 us); copies would overlap"

# (command, option, value) -> the error it prints
OUT_OF_RANGE = {
    ("sweep", "--seed", "-1"): "argument --seed: '-1' is not an unsigned 64-bit integer",
    ("simulate", "--seed", "18446744073709551616"):
        "argument --seed: '18446744073709551616' is not an unsigned 64-bit integer",
    ("simulate", "--attempts", "-5"): "argument --attempts: '-5' is not a positive integer",
    ("simulate", "--attempts", "0"): "argument --attempts: '0' is not a positive integer",
    ("compare-ble", "--samples", "0"): "argument --samples: '0' is not a positive integer",
    ("simulate", "--config", "nope"): "no config named 'nope'",
    ("compare-ble", "--config", "nope"): "no config named 'nope'",
    ("sweep", "--workers", "0"): "argument --workers: '0' is not a positive integer",
    ("sweep", "--workers", "-2"): "argument --workers: '-2' is not a positive integer",
    ("simulate", "--set", "config.olcfg.retransmit_delay_us=nan"):
        "--set 'config.olcfg.retransmit_delay_us=nan': expected a finite number, got 'nan'",
    ("simulate", "--set", "config.olcfg.retransmit_delay_us=inf"):
        "--set 'config.olcfg.retransmit_delay_us=inf': expected a finite number, got 'inf'",
    ("compare-ble", "--set", "ble.transfer_us=nan"):
        "--set 'ble.transfer_us=nan': expected a finite number, got 'nan'",
    ("compare-ble", "--set", "ble.connection_interval_us=inf"):
        "--set 'ble.connection_interval_us=inf': expected a finite number, got 'inf'",
    # nothing delivered to summarize
    ("compare-ble", "--set", "channel.p_loss=1.0"): "no delivered samples to summarize",
    # the last attempt would start later than a results cell can write, in 10**17 ticks
    ("simulate", "--attempts", "2000000000000"):
        "2000000000000 attempts are too many: the last would start at 11999999999994000.0 us, "
        "and a results cell holds at most 17 digits",
    ("compare-ble", "--samples", "1666666666668"):
        "1666666666668 attempts are too many: the last would start at 10000000000002000.0 us, "
        "and a results cell holds at most 17 digits",
    ("sweep", "--set", "sweep.attempts=1666666666668"):
        "1666666666668 attempts are too many: the last would start at 10000000000002000.0 us, "
        "and a results cell holds at most 17 digits",
    # the copy train outruns the attempt window
    ("simulate", "--set", "config.olcfg.retransmits=14"):
        "attempt spacing 6000.0 us overlaps the copy train (6126.5 us)",
    # a delay longer than the window, which no tick count need hold, with the file's two retransmits
    ("simulate", "--set", "config.olcfg.retransmit_delay_us=1e308"):
        "attempt spacing 6000.0 us overlaps the copy train (retransmit_delay_us=1e+308)",
    ("sweep", "--set", "config.olcfg.retransmit_delay_us=1e308"):
        "attempt spacing 6000.0 us overlaps the copy train (retransmit_delay_us=1e+308)",
    ("compare-ble", "--set", "config.olcfg.retransmit_delay_us=1e308"):
        "attempt spacing 6000.0 us overlaps the copy train (retransmit_delay_us=1e+308)",
    # copies closer than one frame on air, refused when the series runs
    ("simulate", "--set", "config.olcfg.retransmit_delay_us=10"): _OVERLAP_10,
    ("sweep", "--set", "config.olcfg.retransmit_delay_us=10"): _OVERLAP_10,
    ("compare-ble", "--set", "config.olcfg.retransmit_delay_us=10"): _OVERLAP_10,
    # 364 ticks, one short of the 36.5 us frame
    ("simulate", "--set", "config.olcfg.retransmit_delay_us=36.44"):
        "retransmit_delay_us=36.44 shorter than one frame on air (36.5 us); copies would overlap",
    ("calibrate", "--targets", "100,50,20"):
        "stage radio_overhead would be -16.5 us: the d3-d4 target 20.0 us is shorter than the frame's on-air time 36.5 us",
    ("calibrate", "--targets", "abc,1,2"):
        "--targets needs three comma-separated medians d0d7,d2d5,d3d4: could not convert string to float: 'abc'",
    ("sweep", "--set", "sweep.rounds=0"): "--set 'sweep.rounds=0': rounds must be >= 1",
    ("sweep", "--set", "sweep.cadence=3"): "--set 'sweep.cadence=3': unknown key 'sweep.cadence'",
    ("simulate", "--set", "config.olcfg.spacing=end-to-start"):
        "--set 'config.olcfg.spacing=end-to-start': unknown key 'config.olcfg.spacing'",
    ("sweep", "--set", "sweep.rounds"): "--set 'sweep.rounds': needs key=value",
    ("sweep", "--set", "config.nope.crc=16"): "--set 'config.nope.crc=16': no config named 'nope' to override",
    ("sweep", "--set", "targets.d0d7=500"): "--set 'targets.d0d7=500': cannot override targets: none defined",
    ("sweep", "--file", "empty.cfg"): "empty experiment file",
    ("sweep", "--file", "no-config.cfg"): "no [config <name>] sections",
}


@pytest.mark.parametrize("command, option, value", list(OUT_OF_RANGE))
def test_out_of_range_value_exits_one(exp_file, tmp_path, capsys, monkeypatch, command, option, value):
    for name, text in WHOLE_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([command, "--file", str(exp_file), option, value, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.endswith(f"esbsim: error: {OUT_OF_RANGE[command, option, value]}\n")
    assert not (tmp_path / "out").exists()


# a config `b` whose copy train no attempt holds -> its copy settings and the error a run of it prints
UNRUNNABLE = {
    "overrun": ("retransmits=14 retransmit_delay_us=435",
                "attempt spacing 6000.0 us overlaps the copy train (6126.5 us)"),
    "overlap": ("retransmits=2 retransmit_delay_us=10", _OVERLAP_10),
}


def _with_unrunnable(tmp_path, case: str) -> Path:
    """EXPERIMENT, whose config runs, and a config `b` that cannot."""
    exp = tmp_path / "two.cfg"
    exp.write_text(EXPERIMENT + "[config b] crc=off protocol=dynamic bitrate=2M-ble txmode=manual power=0"
                   f" payload=optimized payload_len=1 {UNRUNNABLE[case][0]}\n")
    return exp


@pytest.mark.parametrize(
    "workers, case", [("1", "overrun"), ("2", "overrun"), ("1", "overlap")], ids=["1", "2", "overlap"]
)
def test_a_sweep_checks_every_copy_train_before_its_first_row(tmp_path, capsys, monkeypatch, workers, case):
    exp = _with_unrunnable(tmp_path, case)
    monkeypatch.chdir(tmp_path)
    assert main(["sweep", "--file", str(exp), "--workers", workers, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"esbsim: error: {UNRUNNABLE[case][1]}\n"
    assert not (tmp_path / "out").exists()
    assert [path.name for path in tmp_path.rglob("*")] == ["two.cfg"]  # no results, no *.tmp


@pytest.mark.parametrize("case", list(UNRUNNABLE))
def test_a_config_that_cannot_run_stops_no_command_that_does_not_run_it(exp_file, tmp_path, capsys, case):
    exp = _with_unrunnable(tmp_path, case)
    args = ["--file", str(exp), "--config", "olcfg", "--attempts", "20", "--out", str(tmp_path / "sim")]
    assert main(["simulate", *args]) == 0
    assert (tmp_path / "sim" / "results.csv").exists()
    pipelines = []
    for path, out in ((exp, "cal-b"), (exp_file, "cal")):
        assert main(["calibrate", "--file", str(path), "--out", str(tmp_path / out)]) == 0
        pipelines.append((tmp_path / out / "pipeline.cfg").read_bytes())
    assert pipelines[0] == pipelines[1]
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare-ble"])
def test_a_copy_train_of_any_length_is_refused_at_once(exp_file, tmp_path, capsys, command):
    start = time.perf_counter()
    args = ["--file", str(exp_file), "--set", "config.olcfg.retransmits=1000000000000", "--out", str(tmp_path / "out")]
    assert main([command, *args]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        "esbsim: error: attempt spacing 6000.0 us overlaps the copy train (435000000000036.5 us)\n"
    )
    assert not (tmp_path / "out").exists()


def test_copies_one_frame_apart_on_the_tick_grid_run(exp_file, tmp_path, capsys):
    # 36.46 us snaps to 365 ticks, exactly one 36.5 us frame on air
    out = tmp_path / "out"
    args = ["--file", str(exp_file), "--set", "config.olcfg.retransmit_delay_us=36.46", "--out", str(out)]
    assert main(["simulate", *args]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "results.csv").exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare-ble"])
def test_a_single_copy_never_reads_its_delay(exp_file, tmp_path, capsys, command):
    outputs = {}
    for delay in ("435", "1e308", "10"):
        out = tmp_path / delay
        overrides = ["--set", "config.olcfg.retransmits=0", "--set", f"config.olcfg.retransmit_delay_us={delay}"]
        assert main([command, "--file", str(exp_file), *overrides, "--out", str(out)]) == 0
        outputs[delay] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert capsys.readouterr().err == ""
    # the config hash covers the delay, so only the results' `# config` line differs
    hashed = re.compile(rb"(?m)^# config olcfg hash=[0-9a-f]{12}$")
    for delay in ("1e308", "10"):
        for name, data in outputs["435"].items():
            other = outputs[delay][name]
            assert hashed.sub(b"", data) == hashed.sub(b"", other), name
            assert (data != other) == (name == "results.csv"), name
        assert sorted(outputs["435"]) == sorted(outputs[delay])


def _calibrated(tmp_path, targets: str) -> str:
    assert main(["calibrate", "--targets", targets, "--out", str(tmp_path / "cal")]) == 0
    return str(tmp_path / "cal" / "pipeline.cfg")


def _pipeline(tmp_path, **changes) -> str:
    """The reference pipeline with some fields replaced, as a file."""
    pipeline = dataclasses.replace(calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset()), **changes)
    path = tmp_path / "pipeline.cfg"
    path.write_text(render_pipeline_file(pipeline))
    return str(path)


_LONGEST_STAGE = "a stage must take less than 1e+15 us"

# pipelines whose stage delays, base or drawn, the tick clock cannot hold -> the error
OVERSIZE_STAGES = {
    "calibrated-1e308": (
        lambda tmp: _calibrated(tmp, "1e308,1e307,1e306"),
        f"stage tx_app_to_ipc would take 2.25e+307 us in attempt 0: {_LONGEST_STAGE}",
    ),
    "base-1e15": (
        lambda tmp: _pipeline(tmp, base_us=(1.0, 1.0, 1.0, 1e15, 1.0, 1.0, 1.0), jitter_sigma_us=(0.0,) * len(STAGES)),
        f"stage radio_overhead would take 1e+15 us in attempt 0: {_LONGEST_STAGE}",
    ),
    "normal-sigma-1e308": (
        lambda tmp: _pipeline(tmp, jitter_sigma_us=(1e308,) * len(STAGES)),
        f"stage tx_ipc_to_esb would take 1.04746e+308 us in attempt 0: {_LONGEST_STAGE}",
    ),
}


@pytest.mark.parametrize("command", ["simulate", "sweep", "compare-ble"])
@pytest.mark.parametrize("case", list(OVERSIZE_STAGES))
def test_a_stage_the_clock_cannot_hold_exits_one_naming_it(exp_file, tmp_path, capsys, command, case):
    make_pipeline, message = OVERSIZE_STAGES[case]
    pipeline = make_pipeline(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    assert main([command, "--file", str(exp_file), "--pipeline", pipeline, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"esbsim: error: {message}\n"
    assert list(out.glob("*")) == []  # no results


def test_the_longest_stages_the_clock_holds_run_and_read_back(exp_file, tmp_path, capsys):
    # seven stages just under 10**15 us each: d0-d7 takes just under 7 * 10**16 ticks, 17 digits
    pipeline = _pipeline(tmp_path, base_us=(1e15 - 0.1,) * len(STAGES), jitter_sigma_us=(0.0,) * len(STAGES))
    out = tmp_path / "out"
    assert main(["simulate", "--file", str(exp_file), "--pipeline", pipeline, "--out", str(out)]) == 0
    d0d7 = json.loads((out / "summary.json").read_text())["olcfg"]["d0d7"]
    assert d0d7["median_us"] >= 7 * (1e15 - 0.1)
    capsys.readouterr()
    assert main(["report", "--file", str(out / "results.csv"), "--out", str(tmp_path / "reported")]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text() + "\n"
    assert (tmp_path / "reported" / "summary.json").read_bytes() == (out / "summary.json").read_bytes()


@pytest.mark.parametrize("argv", [["simulate", "--attempts", "1000000000000"], ["sweep"]])
def test_running_out_of_memory_exits_one_with_one_line(exp_file, tmp_path, capsys, monkeypatch, argv):
    message = "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64"

    def out_of_memory(*args, **kwargs):  # as numpy's allocation raises, without allocating
        raise MemoryError(message)

    monkeypatch.setattr(sweep, "run_series", out_of_memory)
    assert main([*argv, "--file", str(exp_file), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"esbsim: error: out of memory: {message}\n"


@pytest.mark.parametrize("config", ["olcfg", "crc16", "slow"])
def test_every_command_addresses_a_series_as_the_sweep_does(tmp_path, monkeypatch, config):
    exp = tmp_path / "exp.cfg"
    exp.write_text(EXPERIMENT + MORE_CONFIGS)  # three configs, 2 rounds of 20 attempts
    n = 13
    assert main(["sweep", "--file", str(exp), "--out", str(tmp_path / "sweep")]) == 0
    with open(tmp_path / "sweep" / "results.csv", "rb") as fh:
        swept = parse_results_csv(fh, Collected()).batch()
    picked = (swept.config_index == swept.names.index(config)) & (swept.round_index == 0) & (swept.attempt < n)
    columns = [f.name for f in dataclasses.fields(swept)[3:]]  # the fields after the side tables
    series = dataclasses.replace(swept, **{column: getattr(swept, column)[picked] for column in columns})
    assert len(series) == n

    assert main(["simulate", "--file", str(exp), "--config", config, "--attempts", str(n),
                 "--out", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "sim" / "results.csv", "rb") as fh:
        assert same_rows(parse_results_csv(fh, Collected()).batch(), series)

    compared = []
    render = ble.render_comparison
    monkeypatch.setattr(ble, "render_comparison", lambda *args: compared.append(args[:2]) or render(*args))
    assert main(["compare-ble", "--file", str(exp), "--config", config, "--samples", str(n),
                 "--out", str(tmp_path / "cmp")]) == 0
    delivered = series.delivered_copy >= 0
    d0d7 = series.probes[delivered, 7] - series.probes[delivered, 0]
    within = [int((d0d7 <= 10 * limit).sum()) for limit in (1000, 2000)]
    assert compared == [(summary_of(series, ("d0", "d7")), within)]


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
    assert dict(zip(STAGES, parse_pipeline_file(text).base_us))["radio_overhead"] == radio_overhead


def test_report_summarizes_a_latency_span_too_wide_for_dense_bins_as_the_sweep_does(exp_file, tmp_path, capsys):
    # 2 s of jitter a stage spreads d0-d7 over more than 10**6 bins of 5 us, few of which hold a row
    assert main(["calibrate", "--out", str(tmp_path / "cal")]) == 0
    pipeline = tmp_path / "wide.cfg"
    calibrated = (tmp_path / "cal" / "pipeline.cfg").read_text()
    pipeline.write_text(re.sub(r"(?m)^sigma_us=.*$", "sigma_us=2000000", calibrated))
    out = tmp_path / "swept"
    args = ["--file", str(exp_file), "--pipeline", str(pipeline), "--set", "sweep.attempts=100", "--out", str(out)]
    assert main(["sweep", *args]) == 0
    d0d7 = json.loads((out / "summary.json").read_text())["olcfg"]["d0d7"]
    assert d0d7["hist_bins_us"][-1] - d0d7["hist_bins_us"][0] > 5.0 * 10**6
    assert 0 not in d0d7["hist_counts"] and sum(d0d7["hist_counts"]) == d0d7["n"] > 0
    capsys.readouterr()
    assert main(["report", "--file", str(out / "results.csv"), "--out", str(tmp_path / "reported")]) == 0
    assert capsys.readouterr().out == (out / "summary.txt").read_text() + "\n"
    assert (tmp_path / "reported" / "summary.json").read_bytes() == (out / "summary.json").read_bytes()


# sha256 of the outputs of a fixed sweep: three configs, 9000 rows, more than
# one chunk of the writer and one block of the parser
PINNED_SWEEP = {
    "results.csv": "2f09526eda62bf1c6e3ab3164d1bee04e4437b5e7ea194083e3c51f28dc8d069",
    "summary.json": "fd4f966ea776aaf71fff069258866a9bf44ef24d5eca61679b901f6c09f1b1d4",
    "summary.txt": "6c0598d9c8bdecb0e568f2313ddbf9d7d8560f045c3af4be50eba2bde0cdd688",
}


# sha256 of compare.txt of a lossy link at two seeds, with fewer and with
# more attempts than one chunk of a series
PINNED_COMPARISONS = {
    ("1", "3000"): "4ca50634dcf6ef68008e90588bbc2a059f239c7f55b35d86fc3d976fd77a9b2b",
    ("1", "10000"): "15903c120e632370548edf0e6d2037156063e8791907a6164c43669ec93b7454",
    ("2", "3000"): "cc78892ad8a9a3efbff2e142c01cb589073d36da914dd000fa6451ed820281f7",
    ("2", "10000"): "7843dbf8265b2a759a3049adf7017a57a843df5342e580f996a5eead331dce31",
}


@pytest.mark.parametrize("seed, samples", list(PINNED_COMPARISONS))
def test_compare_ble_writes_the_pinned_bytes(tmp_path, capsys, seed, samples):
    lossy = ["--set", "channel.p_loss=0.3", "--set", "channel.p_corrupt=0.05"]
    assert main(["compare-ble", "--seed", seed, "--samples", samples, *lossy, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "compare.txt").read_bytes()
    assert hashlib.sha256(text).hexdigest() == PINNED_COMPARISONS[seed, samples]
    assert capsys.readouterr().out.encode() == text


def test_a_fixed_sweep_writes_the_pinned_bytes(tmp_path, capsys):
    exp = tmp_path / "exp.cfg"
    exp.write_text(EXPERIMENT + MORE_CONFIGS)
    out = tmp_path / "out"
    overrides = ["sweep.attempts=1500", "channel.p_loss=0.3", "channel.p_corrupt=0.05"]
    assert main(["sweep", "--file", str(exp), "--out", str(out), *(f"--set={o}" for o in overrides)]) == 0
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_SWEEP} == PINNED_SWEEP
    assert sorted(os.listdir(out)) == sorted(PINNED_SWEEP)
    # report reads the results back, with the writer's "\n" line ends or with "\r\n"
    results = (out / "results.csv").read_bytes()
    assert len(results) > sweep._BLOCK_BYTES
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(results.replace(b"\n", b"\r\n"))
    capsys.readouterr()
    for path in (out / "results.csv", crlf):
        reported = tmp_path / f"report-{path.stem}"
        assert main(["report", "--file", str(path), "--out", str(reported)]) == 0
        assert capsys.readouterr().out == (out / "summary.txt").read_text() + "\n"
        assert (reported / "summary.json").read_bytes() == (out / "summary.json").read_bytes()


MODULE_PROBE = """\
import sys
from esbsim.cli import main
module, *commands = sys.argv[1:]
loaded = []
for argv in map(str.split, commands):
    assert main(argv) == 0, argv
    loaded.append(f"{argv[0]} {module in sys.modules}")
print(", ".join(loaded))
"""


def _loaded_after(module: str, *commands: str) -> str:
    """Whether `module` is loaded after each of `commands`, run in turn in one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(esbsim.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", MODULE_PROBE, module, *commands], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def test_no_command_imports_numpy_ma(exp_file, tmp_path):
    # numpy.ma costs every command tens of milliseconds and about a megabyte
    out = tmp_path / "out"
    commands = [
        f"sweep --file {exp_file} --out {out}",
        f"simulate --file {exp_file} --out {out}",
        f"report --file {out / 'results.csv'} --out {out}",
        f"compare-ble --file {exp_file} --out {out}",
        f"calibrate --file {exp_file} --out {out}",
    ]
    assert _loaded_after("numpy.ma", *commands) == (
        "sweep False, simulate False, report False, compare-ble False, calibrate False"
    )


def test_report_loads_no_openssl(exp_file, tmp_path, capsys):
    # hashlib's blake2b loads OpenSSL (_hashlib), several megabytes, which report never hashes with
    out = tmp_path / "out"
    assert main(["simulate", "--file", str(exp_file), "--out", str(out)]) == 0
    assert _loaded_after("_hashlib", f"report --file {out / 'results.csv'} --out {out}") == "report False"


def test_a_config_name_with_a_line_break_exits_one_and_writes_no_results(exp_file, tmp_path, capsys, monkeypatch):
    run_series = sweep.run_series
    monkeypatch.setattr(
        sweep, "run_series", lambda *args: (dataclasses.replace(chunk, names=("a\nb",)) for chunk in run_series(*args))
    )
    out = tmp_path / "out"
    assert main(["simulate", "--file", str(exp_file), "--out", str(out)]) == 1
    assert "line break" in capsys.readouterr().err
    assert os.listdir(out) == []
