"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_bench.py

They run real `esbsim` commands on tiny workloads, so they take several seconds;
they are not part of the project's test suite under tests/.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run._import_checkout()  # check imports esbsim, so the checkout goes on the path first

import check  # noqa: E402
import workloads  # noqa: E402

TINY = {"rounds": 2, "attempts": 30}


@pytest.fixture
def run_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_DIR", tmp_path / "runs")
    return tmp_path / "runs"


@pytest.mark.parametrize("name", sorted(workloads.SHAPES))
def test_each_workload_runs_once_and_passes(name, run_dir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workload = workloads.make(name, 3, **TINY)
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_benchmark(workload, seconds=0, trace=trace)
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[kind]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # self times plus the time outside every span make up the traced wall time
    accounted = metrics["cli.other_s"] + metrics["sweep.orchestration_s"] + sum(
        value for name, value in metrics.items() if name.endswith(".self_s"))
    assert accounted == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["link.series_calls"] > 0 and metrics["sweep.parse_rows_per_s"] > 0
    assert (run_dir / f"trace-{name}-3.jsonl").exists()


def test_same_seed_same_workload_and_different_seed_same_cost():
    a, b, c = (workloads.make("lab-sweep", seed) for seed in (7, 7, 8))
    assert a == b and a.experiment_text() != c.experiment_text()
    shape = lambda w: sorted((cfg.crc, cfg.retransmits) for cfg in w.configs)
    assert shape(a) == shape(c) and (a.rows, a.workers) == (c.rows, c.workers)


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    workload = workloads.make("lab-sweep", 5, **TINY)
    work = tmp_path_factory.mktemp("sweep")
    bench = run.Bench(workload, work)
    bench.exp_file.write_text(workload.experiment_text())
    command = bench.sweep("stamp", work / "out", 1)
    assert command.ok, command.problems
    return workload, work / "out"


def _mutated(tmp_path, out, edit_rows=None, edit_summary=None, edit_report=None):
    """Copy a sweep's outputs, applying edits to the data rows, summary.json
    or summary.txt; returns the paths check.check_sweep takes."""
    lines = (out / "results.csv").read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    header, rows = lines[:first], [line.split(",") for line in lines[first:]]
    if edit_rows:
        edit_rows(rows)
    (tmp_path / "results.csv").write_text("\n".join(header + [",".join(r) for r in rows]) + "\n")
    summary = json.loads((out / "summary.json").read_text())
    if edit_summary:
        edit_summary(summary)
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    report = (out / "summary.txt").read_text()
    (tmp_path / "summary.txt").write_text(edit_report(report) if edit_report else report)
    return tmp_path / "results.csv", tmp_path / "summary.json", tmp_path / "summary.txt"


def _first_delivered(rows):
    return next(row for row in rows if row[13] == "delivered")


def test_checker_passes_untouched_outputs(sweep_output, tmp_path):
    workload, out = sweep_output
    assert check.check_sweep(workload, *_mutated(tmp_path, out)) == []
    assert check.accounting((out / "summary.txt").read_text()).keys() == {c.name for c in workload.configs}


def test_checker_rejects_a_dropped_row(sweep_output, tmp_path):
    workload, out = sweep_output
    problems = check.check_sweep(workload, *_mutated(tmp_path, out, edit_rows=lambda rows: rows.pop(7)))
    assert any("distinct (round, attempt) keys" in p for p in problems)


def test_checker_rejects_an_out_of_order_probe(sweep_output, tmp_path):
    def swap(rows):
        row = _first_delivered(rows)
        row[9], row[10] = row[10], row[9]  # d5 <-> d6

    workload, out = sweep_output
    problems = check.check_sweep(workload, *_mutated(tmp_path, out, edit_rows=swap))
    assert any("do not increase strictly" in p for p in problems)


def test_checker_rejects_a_flipped_outcome(sweep_output, tmp_path):
    def flip(rows):
        _first_delivered(rows)[13] = "lost"

    workload, out = sweep_output
    problems = check.check_sweep(workload, *_mutated(tmp_path, out, edit_rows=flip))
    assert any("outcome lost with delivered_copy" in p for p in problems)


def test_checker_rejects_a_tampered_summary(sweep_output, tmp_path):
    def tamper(summary):
        stats = next(iter(summary.values()))["d0d7"]
        stats["n"] += 1
        stats["median_us"] += 0.1

    workload, out = sweep_output
    results, summary, report = _mutated(tmp_path, out, edit_summary=tamper)
    assert any("does not count" in p for p in check.check_sweep(workload, results, summary, report))
    assert check.check_report(summary, report, out) != []
    assert check.check_report(out / "summary.json", report, out) == []


@pytest.mark.parametrize("field", check.ACCOUNTS)
def test_checker_rejects_a_changed_accounting_count(sweep_output, tmp_path, field):
    def bump(report):
        name, counts = next(iter(check.accounting(report).items()))
        line = "  ".join(f"{k} {v}" for k, v in zip(check.ACCOUNTS, counts))
        changed = "  ".join(f"{k} {v + (k == field)}" for k, v in zip(check.ACCOUNTS, counts))
        assert line in report
        return report.replace(line, changed, 1)

    workload, out = sweep_output
    results, summary, report = _mutated(tmp_path, out, edit_report=bump)
    assert any("differs from the rows" in p for p in check.check_sweep(workload, results, summary, report))
    # a report printing these counts disagrees with the sweep that wrote the CSV
    assert any("differs from the rows" in p for p in check.check_report(out / "summary.json", report, out))


def test_results_hash_is_compared_per_source_tree(run_dir):
    run_dir.mkdir()
    workload = workloads.make("lab-sweep", 4, **TINY)
    assert run._same_as_earlier_runs(workload, "csv-a", "src-1")
    assert run._same_as_earlier_runs(workload, "csv-a", "src-1")
    assert not run._same_as_earlier_runs(workload, "csv-b", "src-1")
    assert run._same_as_earlier_runs(workload, "csv-b", "src-2")  # other sources, other outputs


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it fails without a result."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lab-sweep", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
