"""Command-line front end: simulate, sweep, calibrate, compare-ble, report."""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import airtime, analytics, ble, expfile, sweep
from .config import BleConfig, ConfigError, EsbConfig, olcfg_preset
from .engine import RNG_ALGORITHM, us_to_ticks
from .expfile import Experiment, ParseError
from .link import STAGES, PipelineModel
from .sweep import SchemaError, SweepPlan

INTERVALS = {a + b: (a, b) for a, b in sweep.REPORT_INTERVALS}


class UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 with usage, not argparse's 2
        raise UsageError(message, self)


def _int_in(lo: int, hi: int, what: str):
    """An argparse type: an integer lo <= value < hi."""

    def parse(text: str) -> int:
        try:
            if lo <= int(text) < hi:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_positive = _int_in(1, sys.maxsize, "a positive integer")


def _build_parser() -> _Parser:
    parser = _Parser(prog="esbsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"esbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--file": dict(help="experiment file (defaults to the built-in lowest-latency preset)"),
        "--seed": dict(type=_int_in(0, 2**64, "an unsigned 64-bit integer"), help="override the plan seed"),
        "--out": dict(default=".", help="output directory (default: current directory)"),
        "--workers": dict(
            type=_positive, default=1, help="accepted and validated, and has no effect: a sweep runs in one process"
        ),
        "--set": dict(
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override an experiment value, e.g. channel.p_loss=0.1 (repeatable)",
        ),
        "--pipeline": dict(help="pipeline file from `calibrate` (default: calibrate from targets)"),
        "--interval": dict(choices=sorted(INTERVALS), help="probe interval for summaries (default: all three)"),
    }

    def shared(p: _Parser, *names: str) -> None:
        for name in names:
            p.add_argument(name, **options[name])

    p = sub.add_parser("simulate", help="run one config for a single round")
    shared(p, "--file", "--seed", "--out", "--set", "--pipeline", "--interval")
    p.add_argument("--config", help="config name from the file (default: first)")
    p.add_argument("--attempts", type=_positive, help="attempts to run (default: plan attempts)")

    p = sub.add_parser("sweep", help="run the full rounds x attempts plan")
    shared(p, "--file", "--seed", "--out", "--workers", "--set", "--pipeline", "--interval")

    p = sub.add_parser("calibrate", help="solve stage delays from interval medians")
    shared(p, "--file", "--out", "--set")
    p.add_argument(
        "--config",
        help="calibrate against this config of the plan (default: the built-in preset, also with --file)",
    )
    p.add_argument(
        "--targets",
        help="d0d7,d2d5,d3d4 medians in us (default: [targets] section or the reference medians)",
    )

    p = sub.add_parser("compare-ble", help="broadcast link vs connection-interval baseline")
    shared(p, "--file", "--seed", "--out", "--set", "--pipeline")
    p.add_argument("--config", help="config name to compare (default: first)")
    p.add_argument("--samples", type=_positive, default=10000, help="broadcast attempts to run (default 10000)")

    p = sub.add_parser("report", help="recompute summaries from a results CSV")
    p.add_argument("--file", help="results CSV to summarize")
    p.add_argument("--out", help="directory for summary.json (default: print the report only)")
    shared(p, "--interval")
    return parser


@contextmanager
def _decoding(path):
    """Report a file that is not UTF-8 as a validation error naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from None


def _read_text(path) -> str:
    with _decoding(path):
        return Path(path).read_text(encoding="utf-8")


def _load_experiment(args) -> Experiment:
    if args.file:
        exp = expfile.parse_experiment_file(_read_text(args.file))
    else:
        exp = Experiment(plan=SweepPlan(configs=(("olcfg", olcfg_preset()),)))
    for assignment in args.overrides:
        exp = expfile.apply_override(exp, assignment)
    seed = getattr(args, "seed", None)  # calibrate takes no --seed
    if seed is not None:
        exp = replace(exp, plan=replace(exp.plan, seed=seed))
    return exp


def _calibration(
    exp: Experiment, name: str | None = None, targets: str | None = None
) -> tuple[str, EsbConfig, analytics.CalibrationTargets]:
    """The reference config and the targets a pipeline is calibrated to.

    The reference is the plan config `name`, else the built-in preset.  The
    targets are `targets` ("d0d7,d2d5,d3d4" in us), else the experiment's
    [targets], else the reference medians.
    """
    if name is None:
        config = olcfg_preset()
        name = "olcfg"
    else:
        config = exp.plan.configs[exp.plan.config_index(name)][1]
    if targets is None:
        return name, config, exp.targets or analytics.olcfg_calibration_targets()
    try:
        d0d7, d2d5, d3d4 = map(expfile.finite_float, targets.split(","))
    except ValueError as exc:
        raise ConfigError(f"--targets needs three comma-separated medians d0d7,d2d5,d3d4: {exc}") from None
    return name, config, analytics.CalibrationTargets(d0d7, d2d5, d3d4)


def _resolve_pipeline(args, exp: Experiment) -> PipelineModel:
    """Pipeline file wins; otherwise calibrate as `calibrate` would with no
    --config and no --targets."""
    if args.pipeline:
        return expfile.parse_pipeline_file(_read_text(args.pipeline))
    _, config, targets = _calibration(exp)
    return analytics.calibrate_pipeline(targets, config)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_index(exp: Experiment, name: str | None) -> int:
    return 0 if name is None else exp.plan.config_index(name)


def _intervals(args):
    if args.interval:
        return (INTERVALS[args.interval],)
    return sweep.REPORT_INTERVALS


def _write_summary_json(summaries, out: Path) -> None:
    payload = {
        name: {key: vars(stats) for key, stats in intervals.items()}
        for name, intervals in summaries.items()
    }
    (out / "summary.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _write_outputs(batches, args, out: Path) -> None:
    """results.csv of the rows of `batches` and their summaries: each batch
    is tallied as the writer takes it, so none is kept."""
    tally = sweep.ConfigTally(_intervals(args))
    sweep.write_results(map(tally.add, batches), out / "results.csv")
    summaries = sweep.summarize_by_config(tally)
    report = sweep.render_report(tally, summaries)
    (out / "summary.txt").write_text(report, encoding="utf-8")
    _write_summary_json(summaries, out)
    print(report)


def _cmd_simulate(args) -> int:
    exp = _load_experiment(args)
    pipeline = _resolve_pipeline(args, exp)
    n = args.attempts or exp.plan.attempts_per_round
    chunks = sweep.run_series(exp.plan, exp.channel, pipeline, _config_index(exp, args.config), 0, n)
    _write_outputs(chunks, args, _out_dir(args))
    return 0


def _cmd_sweep(args) -> int:
    exp = _load_experiment(args)
    pipeline = _resolve_pipeline(args, exp)
    # checks every config, then makes each series as the writer takes it
    series = sweep.run_sweep(exp.plan, exp.channel, pipeline)
    _write_outputs(series, args, _out_dir(args))
    return 0


def _cmd_calibrate(args) -> int:
    exp = _load_experiment(args)
    name, config, targets = _calibration(exp, args.config, args.targets)
    pipeline = analytics.calibrate_pipeline(targets, config)
    header = (
        f"esbsim {__version__} pipeline\n"
        f"rng={RNG_ALGORITHM}\n"
        f"reference config={name} hash={config.digest()}\n"
        f"targets d0d7={targets.d0d7_us} d2d5={targets.d2d5_us} d3d4={targets.d3d4_us}"
    )
    out = _out_dir(args)
    path = out / "pipeline.cfg"
    path.write_text(expfile.render_pipeline_file(pipeline, header=header), encoding="utf-8")
    print(f"wrote {path}")
    print(f"radio_overhead_us={dict(zip(STAGES, pipeline.base_us))['radio_overhead']:.6g}")
    return 0


def _cmd_compare_ble(args) -> int:
    exp = _load_experiment(args)
    pipeline = _resolve_pipeline(args, exp)
    index = _config_index(exp, args.config)
    name, config = exp.plan.configs[index]
    tally = sweep.ConfigTally([("d0", "d7")])
    for chunk in sweep.run_series(exp.plan, exp.channel, pipeline, index, 0, args.samples):
        tally.add(chunk)
    (summaries,) = sweep.summarize_by_config(tally).values()
    if not summaries:
        raise sweep.EmptyInputError("no delivered samples to summarize")
    ticks, counts = tally.configs[name].ticks[0]  # the distinct d0-d7 durations, ascending, and the rows at each
    within = [int(counts[: ticks.searchsorted(us_to_ticks(p), side="right")].sum()) for p in ble.SAMPLE_PERIODS_US]
    ble_config = exp.ble or BleConfig(transfer_time_us=airtime.on_air_time_us(config))
    text = ble.render_comparison(summaries["d0d7"], within, ble_config)
    out = _out_dir(args)
    (out / "compare.txt").write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0


def _cmd_report(args) -> int:
    if not args.file:
        raise ConfigError("report needs --file pointing at a results CSV")
    # summarized block by block as it is read: no column of the file is kept
    with _decoding(args.file):
        tally = sweep.read_results(args.file, into=sweep.ConfigTally(_intervals(args)))
    summaries = sweep.summarize_by_config(tally)
    print(sweep.render_report(tally, summaries))
    if args.out is not None:
        _write_summary_json(summaries, _out_dir(args))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "calibrate": _cmd_calibrate,
    "compare-ble": _cmd_compare_ble,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    """Exit codes: 0 success, 1 validation/usage error or out of memory, 2 I/O error."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"esbsim: error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, ParseError, SchemaError, analytics.DomainError, analytics.InfeasibleError) as exc:
        print(f"esbsim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the array it could not allocate
        print(f"esbsim: error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"esbsim: i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
