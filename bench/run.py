"""esbsim benchmark: times the real `esbsim` command line on generated workloads.

    python3 bench/run.py --workload lab-sweep --seed 1 --seconds 35 --trace 0

Run from anywhere inside a source checkout; the program under test is the
checkout's `src/esbsim`.  The benchmark

* generates the workload from --seed (bench/workloads.py),
* issues the workload's command one at a time from this process (a closed
  loop with one client) until --seconds of command wall time are measured,
* checks every command's outputs (bench/check.py) and that the results CSV
  is byte-identical across all runs of the workload at that seed,
* with --trace 0 prints the end-to-end metrics; with --trace 1 it also
  runs the sweep and report commands once more with spans recorded around
  each layer (bench/child.py) and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Scratch files go under
.bench_run/ in the checkout; the span file and the provenance record of
the last run stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"

MIN_COMMANDS = 3  # medians need a few samples, whatever --seconds says
DEADLINE_S = 165.0  # stop issuing commands so the run ends within 180 s
HELD_OUT_SEED = 90417  # for confirming claims on a seed no change was tuned on

# span name -> per-layer metric of its total (inclusive) time
LAYER_TIMES = {
    "link.series": "link.series_s",
    "engine.dispatch": "engine.dispatch_s",
    "sweep.run_sweep": "sweep.run_sweep_s",
    "sweep.render_csv": "sweep.render_csv_s",
    "sweep.write_results": "sweep.write_results_s",
    "sweep.read_results": "sweep.read_results_s",
    "sweep.parse_csv": "sweep.parse_csv_s",
    "sweep.summarize": "sweep.summarize_s",
    "sweep.detect_modes": "sweep.detect_modes_s",
    "sweep.render_report": "sweep.render_report_s",
    "expfile.parse": "expfile.parse_s",
    "analytics.calibrate": "analytics.calibrate_s",
}


@dataclass
class Command:
    """One finished child process."""

    argv: list[str]
    wall_s: float
    exit_code: int
    start: float
    record: dict | list = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and not self.problems


def _median(values):
    return statistics.median(values) if values else 0.0


class Bench:
    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.dir = work_dir
        self.deadline = time.monotonic() + DEADLINE_S
        self.commands: list[Command] = []
        self.csv_sha256: set[str] = set()
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.exp_file = self.dir / "experiment.cfg"

    # --- processes ---------------------------------------------------------

    def run(self, mode: str, args: list[str], out: Path) -> Command:
        """Run `esbsim args` in a child process; time and reap it."""
        out.mkdir(parents=True, exist_ok=True)
        record_path = out / "record.json"
        argv = [sys.executable, str(BENCH / "child.py"), mode, str(record_path), *args]
        timeout = max(5.0, self.deadline - time.monotonic() + 10.0)
        with open(out / "stdout.txt", "wb") as stdout, open(out / "stderr.txt", "wb") as stderr:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=out, env=self.env,
                                    start_new_session=True)
            # the timer kills the whole group (the command and its pool workers)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                proc.wait()
            finally:
                timer.cancel()
                if proc.returncode is None:  # interrupted: take the command and its workers down
                    _kill_group(proc.pid)
                    proc.wait()
            end = time.monotonic()
        command = Command(argv=args, wall_s=end - start, exit_code=proc.returncode, start=start)
        if command.exit_code != 0:
            command.problems.append(f"exit code {command.exit_code}: "
                                    + (out / "stderr.txt").read_text(errors="replace")[-500:])
        command.record = _read_spans(record_path) if mode == "trace" else _read_stamp(record_path)
        self.commands.append(command)
        return command

    def sweep(self, mode: str, out: Path, workers: int) -> Command:
        command = self.run(mode, ["sweep", "--file", str(self.exp_file), "--workers", str(workers),
                                  "--out", str(out)], out)
        if command.exit_code == 0:
            try:
                command.problems += self.check_sweep(out)
            except OSError as exc:
                command.problems.append(f"outputs unreadable: {exc}")
        return command

    def report(self, mode: str, source: Path, out: Path) -> Command:
        command = self.run(mode, ["report", "--file", str(source / "results.csv"), "--out", str(out)], out)
        if command.exit_code == 0:
            import check

            command.problems += check.check_report(out / "summary.json", out / "stdout.txt", source)
        return command

    def check_sweep(self, out: Path) -> list[str]:
        """Check a sweep's outputs.  Outputs byte-identical to ones already
        checked get the same verdict without parsing them again."""
        import check  # imports esbsim, which _import_checkout put on the path

        csv_sha = hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()
        key = (csv_sha, *(hashlib.sha256((out / name).read_bytes()).hexdigest()
                          for name in ("summary.json", "summary.txt")))
        if key not in self.verdicts:
            self.verdicts[key] = check.check_sweep(self.workload, out / "results.csv", out / "summary.json",
                                                   out / "summary.txt")
        self.csv_sha256.add(csv_sha)
        if len(self.csv_sha256) > 1:
            return self.verdicts[key] + ["results.csv differs between runs of the same seed"]
        return list(self.verdicts[key])

    def time_left(self, estimate_s: float) -> bool:
        return time.monotonic() + estimate_s < self.deadline

    # --- the workload ------------------------------------------------------

    def measure(self, seconds: float) -> tuple[list[Command], Path]:
        """Set up, then issue the measured command until `seconds` are measured.

        Returns the measured commands and the directory of a sweep output
        (the report command's input)."""
        wl = self.workload
        self.exp_file.write_text(wl.experiment_text())
        # The first sweep is untimed: it is the report's input, and it (with
        # the first report) compiles bytecode and warms the file cache, which
        # users do not pay on every run.
        source = self.dir / "source"
        self.setup = self.sweep("stamp", source, wl.workers)
        if wl.measured == "report":
            self.report("stamp", source, self.dir / "warmup")
        measured: list[Command] = []
        while len(measured) < MIN_COMMANDS or sum(c.wall_s for c in measured) < seconds:
            last = measured[-1].wall_s if measured else 0.0
            if measured and not self.time_left(2 * last):
                break
            out = self.dir / f"cmd{len(measured)}"
            if wl.measured == "sweep":
                command = self.sweep("stamp", out, wl.workers)
            else:
                command = self.report("stamp", source, out)
            measured.append(command)
            shutil.rmtree(out)
        return measured, source

    def end_to_end(self, measured: list[Command]) -> dict:
        """Per-command samples of each end-to-end metric; the run reports
        their medians."""
        ok = [c for c in measured if c.ok]
        return {
            "wall_s": ([c.wall_s for c in ok], "s"),
            "records_per_s": ([self.workload.rows / c.wall_s for c in ok], "1/s"),
            "setup_s": ([c.record["setup_end"] - c.start for c in ok], "s"),
            "peak_rss_mb": ([c.record["peak_rss_kb"] / 1024.0 for c in ok], "MB"),
        }

    def traced(self, measured: list[Command], source: Path) -> tuple[dict, list[dict]]:
        """Per-layer metrics from one traced sweep and one traced report.

        Each traced command is paired with an untraced run of the same
        command, so the difference is the tracing overhead."""
        wl = self.workload
        ok = [c for c in measured if c.ok]
        if wl.measured == "sweep":
            untraced_sweep = _median([c.wall_s for c in ok])
            run_sweep_same = self.run_sweep_s(ok)
            untraced_report = self.report("stamp", source, self.dir / "report-untraced").wall_s
        else:
            # not the set-up sweep: that one ran cold
            untraced = self.sweep("stamp", self.dir / "sweep-untraced", wl.workers)
            untraced_sweep = untraced.wall_s
            run_sweep_same = self.run_sweep_s([untraced])
            untraced_report = _median([c.wall_s for c in ok])
        # the same sweep on the other worker count (1 or 2)
        other = self.sweep("stamp", self.dir / "other-workers", 3 - wl.workers)
        run_sweep_other = self.run_sweep_s([other])
        sweep_1, sweep_2 = ((run_sweep_same, run_sweep_other) if wl.workers == 1
                            else (run_sweep_other, run_sweep_same))

        traced_sweep = self.sweep("trace", self.dir / "traced-sweep", wl.workers)
        traced_report = self.report("trace", source, self.dir / "traced-report")
        traced = [traced_sweep, traced_report]

        totals, items, shares, other_s, spans = _analyse(traced)
        series = [s for s in spans if s["name"] == "link.series"]
        attempts = sum(s.get("items", 0) for s in series)
        counts = {k: sum(s.get(k, 0) for s in series) for k in ("rekeys", "digests", "dispatch_s")}
        totals["engine.dispatch"] = counts["dispatch_s"]
        trace_wall = sum(c.wall_s for c in traced)
        metrics = {LAYER_TIMES[name]: (totals.get(name, 0.0), "s") for name in LAYER_TIMES}
        metrics.update({
            "link.series_calls": (len(series), "count"),
            "link.attempts_per_s": (_ratio(attempts, totals.get("link.series")), "1/s"),
            "engine.rekeys_per_attempt": (_ratio(counts["rekeys"], attempts), "count"),
            "config.digests_per_attempt": (_ratio(counts["digests"], attempts), "count"),
            "sweep.orchestration_s": (shares.get("sweep.run_sweep", 0.0), "s"),
            "sweep.parallel_efficiency": (_ratio(sweep_1, 2 * sweep_2), "ratio"),
            "sweep.render_rows_per_s": (_ratio(items.get("sweep.render_csv"),
                                               totals.get("sweep.render_csv")), "1/s"),
            "sweep.parse_rows_per_s": (_ratio(items.get("sweep.parse_csv"),
                                              totals.get("sweep.parse_csv")), "1/s"),
            "cli.other_s": (other_s, "s"),
            "trace.wall_s": (trace_wall, "s"),
            "trace.overhead_s": (trace_wall - untraced_sweep - untraced_report, "s"),
        })
        # run_sweep's self time is sweep.orchestration_s
        metrics.update({f"{name}.self_s": (shares.get(name, 0.0), "s")
                        for name in LAYER_TIMES if name != "sweep.run_sweep"})
        return metrics, spans

    @staticmethod
    def run_sweep_s(commands: list[Command]) -> float:
        return _median([c.record["run_sweep_s"] for c in commands if "run_sweep_s" in c.record])


def _ratio(a, b) -> float:
    return a / b if a and b else 0.0


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _read_stamp(path: Path) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def _read_spans(path: Path) -> list[dict]:
    """Spans of a traced command, with those its pool workers appended to
    `path`.<pid>."""
    lines = []
    for part in sorted(path.parent.glob(path.name + "*")):
        lines += part.read_text().splitlines()
    return [json.loads(line) for line in lines if line]


def _analyse(traced: list[Command]):
    """Totals, work items and self times per span name, over traced commands.

    A layer's self time is the wall time during which it is the innermost
    running span.  When spans run at once in pool workers, each instant is
    split evenly between them, so self times plus the time outside every
    span (`cli.other_s`) add up to the traced wall time exactly.  A series'
    share is split again between engine dispatch and the rest by the
    dispatch time measured inside it."""
    totals: dict[str, float] = defaultdict(float)
    items: dict[str, int] = defaultdict(int)
    shares: dict[str, float] = defaultdict(float)  # by span name
    other = 0.0
    all_spans = []
    for number, command in enumerate(traced):
        spans = command.record if isinstance(command.record, list) else []
        by_id = {s["id"]: s for s in spans}
        events = sorted([(s["start"], 1, s["id"]) for s in spans] + [(s["end"], 0, s["id"]) for s in spans])
        active_children: dict[str, int] = defaultdict(int)
        active, leaves = set(), set()
        span_share: dict[str, float] = defaultdict(float)  # by span id
        prev = command.start
        for t, starting, span_id in events:
            if t > prev:
                if leaves:
                    for leaf in leaves:
                        span_share[leaf] += (t - prev) / len(leaves)
                else:
                    other += t - prev
                prev = t
            parent = by_id[span_id]["parent"]
            parent = parent if parent in by_id else None
            if starting:
                active.add(span_id)
                leaves.add(span_id)
                if parent:
                    active_children[parent] += 1
                    leaves.discard(parent)
            else:
                active.discard(span_id)
                leaves.discard(span_id)
                if parent:
                    active_children[parent] -= 1
                    if active_children[parent] == 0 and parent in active:
                        leaves.add(parent)
        other += command.start + command.wall_s - prev
        for s in spans:
            duration = s["end"] - s["start"]
            totals[s["name"]] += duration
            items[s["name"]] += s.get("items", 0)
            share = span_share[s["id"]]
            dispatch = share * min(1.0, s.get("dispatch_s", 0.0) / duration) if duration > 0 else 0.0
            shares[s["name"]] += share - dispatch
            shares["engine.dispatch"] += dispatch
            all_spans.append({"command": number, "argv": command.argv[0], "name": s["name"],
                              "start": s["start"] - command.start, "end": s["end"] - command.start,
                              "parent": s["parent"], "id": s["id"],
                              **{k: s[k] for k in ("items", "rekeys", "digests", "dispatch_calls",
                                                   "dispatch_s") if k in s}})
    return totals, items, shares, other, all_spans


# --- provenance -----------------------------------------------------------------


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> str | None:
    """HEAD of the checkout, if the checkout is itself a git repository."""
    try:
        result = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = result.stdout.split()
    if result.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, csv_sha256: str | None, source_sha256: str) -> dict:
    import numpy

    return {
        "workload": workload.name,
        "seed": workload.seed,
        "held_out_seed": HELD_OUT_SEED,
        "plan_seed": workload.plan_seed,
        "results_csv_sha256": csv_sha256,
        "git_sha": _git_sha(),
        "source_sha256": source_sha256,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
    }


def _same_as_earlier_runs(workload, sha: str | None, source_sha256: str) -> bool:
    """Compare the results CSV hash with earlier runs of this workload and
    seed on the same sources in this checkout; the first run records it."""
    if sha is None:
        return False
    path = RUN_DIR / "results-sha256.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{workload.name}:{workload.seed}:{workload.rounds}x{workload.attempts}:{source_sha256}"
    known.setdefault(key, sha)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return known[key] == sha


def run_benchmark(workload, seconds: float, trace: bool) -> dict:
    """Run one benchmark run; returns the result object (last output line)."""
    RUN_DIR.mkdir(exist_ok=True)
    work_dir = RUN_DIR / f"{workload.name}-{workload.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir()
    bench = Bench(workload, work_dir)
    try:
        measured, source = bench.measure(seconds)
        samples = bench.end_to_end(measured)
        metrics = {name: (_median(values), unit) for name, (values, unit) in samples.items()}
        if trace:
            metrics, spans = bench.traced(measured, source)
            (RUN_DIR / f"trace-{workload.name}-{workload.seed}.jsonl").write_text(
                "".join(json.dumps(s) + "\n" for s in spans))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    failures = [c for c in bench.commands if not c.ok]
    for command in failures:
        print(f"FAILED {command.argv[0]}: {command.problems[:3]}", file=sys.stderr)
    sha = next(iter(bench.csv_sha256)) if len(bench.csv_sha256) == 1 else None
    source_sha256 = _source_sha256()
    deterministic = _same_as_earlier_runs(workload, sha, source_sha256)
    if not deterministic:
        print("FAILED results.csv differs between runs of the same seed", file=sys.stderr)
    record = provenance(workload, sha, source_sha256)
    record["error_rate"] = f"{len(failures)}/{len(bench.commands)}"
    record["samples"] = {name: values for name, (values, _) in samples.items()}
    (RUN_DIR / f"provenance-{workload.name}-{workload.seed}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"provenance": record}))
    return {
        "correct": not failures and deterministic,
        "attempted": len(bench.commands),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def _import_checkout() -> None:
    """Put the checkout's sources first on the path and refuse any other copy."""
    if not (SRC / "esbsim" / "cli.py").is_file():
        raise SystemExit(f"bench: no esbsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import esbsim

    if Path(esbsim.__file__).resolve().parent != (SRC / "esbsim").resolve():
        raise SystemExit(f"bench: imported esbsim from {esbsim.__file__}, not {SRC}")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SHAPES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through Bench.run, which stops the running command
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    _import_checkout()
    result = run_benchmark(workloads.make(args.workload, args.seed), args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
