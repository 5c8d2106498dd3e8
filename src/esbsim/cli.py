"""Command-line front end: simulate, sweep, calibrate, compare-ble, report."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from . import airtime, analytics, ble, expfile, sweep
from .config import BleConfig, ConfigError, olcfg_preset
from .engine import PURPOSE_BLE_WAIT, RNG_ALGORITHM, RngStream
from .expfile import Experiment, ParseError
from .link import PipelineModel
from .sweep import SchemaError, SweepPlan

INTERVALS = {a + b: (a, b) for a, b in sweep.REPORT_INTERVALS}


class UsageError(Exception):
    def __init__(self, message: str, parser: argparse.ArgumentParser):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 with usage, not argparse's 2
        raise UsageError(message, self)


def _build_parser() -> _Parser:
    parser = _Parser(prog="esbsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"esbsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    options = {
        "--file": dict(help="experiment file (defaults to the built-in lowest-latency preset)"),
        "--seed": dict(type=int, help="override the plan seed"),
        "--out": dict(default=".", help="output directory (default: current directory)"),
        "--workers": dict(type=int, default=1, help="parallel workers (default 1)"),
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
    p.add_argument("--attempts", type=int, help="attempts to run (default: plan attempts)")

    p = sub.add_parser("sweep", help="run the full rounds x attempts plan")
    shared(p, "--file", "--seed", "--out", "--workers", "--set", "--pipeline", "--interval")

    p = sub.add_parser("calibrate", help="solve stage delays from interval medians")
    shared(p, "--file", "--out", "--set")
    p.add_argument("--config", help="reference config name (default: built-in preset)")
    p.add_argument(
        "--targets",
        help="d0d7,d2d5,d3d4 medians in us (default: [targets] section or the reference medians)",
    )

    p = sub.add_parser("compare-ble", help="broadcast link vs connection-interval baseline")
    shared(p, "--file", "--seed", "--out", "--set", "--pipeline")
    p.add_argument("--config", help="config name to compare (default: first)")
    p.add_argument("--samples", type=int, default=10000, help="samples per side (default 10000)")

    p = sub.add_parser("report", help="recompute summaries from a results CSV")
    p.add_argument("--file", help="results CSV to summarize")
    shared(p, "--out", "--interval")
    return parser


def _load_experiment(args) -> Experiment:
    if args.file:
        text = Path(args.file).read_text()
        exp = expfile.parse_experiment_file(text)
    else:
        exp = Experiment(plan=SweepPlan(configs=(("olcfg", olcfg_preset()),)))
    for assignment in args.overrides:
        exp = expfile.apply_override(exp, assignment)
    seed = getattr(args, "seed", None)  # calibrate takes no --seed
    if seed is not None:
        exp = replace(exp, plan=replace(exp.plan, seed=seed))
    return exp


def _resolve_pipeline(args, exp: Experiment) -> PipelineModel:
    """Pipeline file wins; otherwise calibrate from the experiment's targets
    (or the reference medians) against the built-in reference config."""
    if args.pipeline:
        return expfile.parse_pipeline_file(Path(args.pipeline).read_text())
    targets = exp.targets or analytics.olcfg_calibration_targets()
    return analytics.calibrate_pipeline(targets, olcfg_preset())


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _pick_config(exp: Experiment, name: str | None):
    if name is None:
        return exp.plan.configs[0]
    return name, exp.plan.config_named(name)


def _intervals(args):
    if args.interval:
        return (INTERVALS[args.interval],)
    return sweep.REPORT_INTERVALS


def _write_summary_json(summaries, out: Path) -> None:
    payload = {
        name: {key: stats.to_dict() for key, stats in intervals.items()}
        for name, intervals in summaries.items()
    }
    (out / "summary.json").write_text(json.dumps(payload, indent=2) + "\n")


def _write_summaries(records, args, out: Path) -> None:
    summaries = sweep.summarize_by_config(records, intervals=_intervals(args))
    report = sweep.render_report(records, summaries)
    (out / "summary.txt").write_text(report)
    _write_summary_json(summaries, out)
    print(report)


def _cmd_simulate(args) -> int:
    exp = _load_experiment(args)
    pipeline = _resolve_pipeline(args, exp)
    name, config = _pick_config(exp, args.config)
    n = args.attempts or exp.plan.attempts_per_round
    index = [c for c, _ in exp.plan.configs].index(name)
    records = sweep.run_attempt_series(
        config,
        exp.channel,
        pipeline,
        n,
        seed=exp.plan.seed,
        config_name=name,
        namespace=(index,),
    )
    out = _out_dir(args)
    sweep.write_results(records, out / "results.csv")
    _write_summaries(records, args, out)
    return 0


def _cmd_sweep(args) -> int:
    exp = _load_experiment(args)
    pipeline = _resolve_pipeline(args, exp)
    records = sweep.run_sweep(exp.plan, exp.channel, pipeline, workers=args.workers)
    out = _out_dir(args)
    sweep.write_results(records, out / "results.csv")
    _write_summaries(records, args, out)
    return 0


def _cmd_calibrate(args) -> int:
    exp = _load_experiment(args)
    if args.targets:
        parts = [float(x) for x in args.targets.split(",")]
        if len(parts) != 3:
            raise ConfigError("--targets needs three comma-separated medians: d0d7,d2d5,d3d4")
        targets = analytics.CalibrationTargets(*parts)
    else:
        targets = exp.targets or analytics.olcfg_calibration_targets()
    if args.config is None and args.file is None:
        name, config = "olcfg", olcfg_preset()
    else:
        name, config = _pick_config(exp, args.config)
    pipeline = analytics.calibrate_pipeline(targets, config)
    header = (
        f"esbsim {__version__} pipeline\n"
        f"rng={RNG_ALGORITHM}\n"
        f"reference config={name} hash={config.digest()}\n"
        f"targets d0d7={targets.d0d7_us} d2d5={targets.d2d5_us} d3d4={targets.d3d4_us}"
    )
    out = _out_dir(args)
    path = out / "pipeline.cfg"
    path.write_text(expfile.render_pipeline_file(pipeline, header=header))
    print(f"wrote {path}")
    print(f"radio_overhead_us={pipeline.radio_overhead_us:.6g}")
    return 0


def _cmd_compare_ble(args) -> int:
    exp = _load_experiment(args)
    pipeline = _resolve_pipeline(args, exp)
    name, config = _pick_config(exp, args.config)
    index = [c for c, _ in exp.plan.configs].index(name)
    n = args.samples
    records = sweep.run_attempt_series(
        config,
        exp.channel,
        pipeline,
        n,
        seed=exp.plan.seed,
        config_name=name,
        namespace=(index,),
    )
    esb_summary = sweep.summarize(records, ("d0", "d7"))
    # one baseline sample per *delivered* attempt keeps the two sides balanced
    ble_config = exp.ble or BleConfig(transfer_time_us=airtime.on_air_time_us(config))
    rng = RngStream(exp.plan.seed, (0, 0, PURPOSE_BLE_WAIT))
    totals = ble.sample_latencies(ble_config, esb_summary.n, rng)
    ble_summary = ble.summarize_ble(totals)
    report = ble.compare(esb_summary, ble_summary)
    text = ble.render_comparison(report)
    out = _out_dir(args)
    (out / "compare.txt").write_text(text + "\n")
    print(text)
    return 0


def _cmd_report(args) -> int:
    if not args.file:
        raise ConfigError("report needs --file pointing at a results CSV")
    records = sweep.read_results(args.file)
    summaries = sweep.summarize_by_config(records, intervals=_intervals(args))
    print(sweep.render_report(records, summaries))
    if args.out != ".":
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
    """Exit codes: 0 success, 1 validation/usage error, 2 I/O error."""
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
    except OSError as exc:
        print(f"esbsim: i/o error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
