"""Output checks for one benchmark command.

The model is calibrated but not validated, so nothing here measures
accuracy.  The checks hold the outputs to what must be true of any correct
run: the documented CSV schema, complete and unique keys, the probe order,
the CRC rules, the closed-form delivered-copy distribution, and summaries
and accounting lines that agree with the rows.

Rows are read with the csv module against the documented columns, so the
checks do not lean on the parser they also exercise.  Each check returns a
list of problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import re
from math import sqrt
from pathlib import Path

from esbsim import analytics, sweep
from workloads import CHANNEL

COLUMNS = (
    "config_name", "round", "attempt", "seed",
    "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7",
    "delivered_copy", "outcome", "duplicates_suppressed", "duplicates_delivered",
)
OUTCOMES = ("delivered", "delivered-corrupted", "lost")

# Half-width of the accepted band around each expected count, in binomial
# standard deviations: a correct run falls outside with probability ~2e-9.
BINOMIAL_Z = 6.0

MAX_PROBLEMS = 20

ACCOUNTS = ("sent", "received", "unique", "valid", "lost")
# the per-config accounting line of sweep.render_report
_ACCOUNT_LINE = re.compile(r"config (\S+)\n  " + "  ".join(rf"{k} (\d+)" for k in ACCOUNTS) + "\n")


class _Problems(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(message)


def _ticks(cell: str) -> int | None:
    return None if cell == "" else round(float(cell) * 10)


def check_sweep(workload, results_path, summary_path, report_path) -> list[str]:
    """Check a sweep's results.csv, summary.json and summary.txt (the
    rendered report) against its workload."""
    problems = _Problems()
    text = Path(results_path).read_text()
    try:
        parsed = len(sweep.parse_results_csv(text))
    except ValueError as exc:
        return [f"results.csv does not parse with sweep.parse_results_csv: {exc}"]

    reader = csv.reader(line for line in text.splitlines() if line and not line.startswith("#"))
    if tuple(next(reader, ())) != COLUMNS:
        return ["results.csv header differs from the documented columns"]
    rows = list(reader)
    if parsed != len(rows):
        problems.add(f"parse_results_csv returned {parsed} records for {len(rows)} rows")

    configs = {c.name: c for c in workload.configs}
    seen: set[tuple[str, int, int]] = set()
    tally = {name: {**dict.fromkeys(ACCOUNTS, 0), "copy": [0] * c.copies}
             for name, c in configs.items()}
    for line_no, row in enumerate(rows, start=2):
        if len(row) != len(COLUMNS):
            problems.add(f"row {line_no}: {len(row)} fields")
            continue
        name, outcome = row[0], row[13]
        config = configs.get(name)
        if config is None:
            problems.add(f"row {line_no}: unknown config {name!r}")
            continue
        key = (name, int(row[1]), int(row[2]))
        if not (0 <= key[1] < workload.rounds and 0 <= key[2] < workload.attempts):
            problems.add(f"row {line_no}: (round, attempt) out of the plan: {key}")
        elif key in seen:
            problems.add(f"row {line_no}: duplicate key {key}")
        seen.add(key)
        if int(row[3]) != workload.plan_seed:
            problems.add(f"row {line_no}: seed {row[3]} is not the plan seed")
        if outcome not in OUTCOMES:
            problems.add(f"row {line_no}: unknown outcome {outcome!r}")
            continue

        probes = [_ticks(cell) for cell in row[4:12]]
        copy = None if row[12] == "" else int(row[12])
        suppressed, escaped = int(row[14]), int(row[15])
        delivered = outcome != "lost"
        if delivered != (copy is not None):
            problems.add(f"row {line_no}: outcome {outcome} with delivered_copy {row[12]!r}")
            continue
        reached, absent = (probes, []) if delivered else (probes[:4], probes[4:])
        if None in reached or any(p is not None for p in absent):
            problems.add(f"row {line_no}: probes present {[p is not None for p in probes]} for {outcome}")
        elif any(b <= a for a, b in zip(reached, reached[1:])):
            problems.add(f"row {line_no}: probes do not increase strictly")
        if delivered and not 0 <= copy < config.copies:
            problems.add(f"row {line_no}: delivered_copy {copy} of {config.copies} copies")
            continue
        if suppressed < 0 or escaped < 0 or suppressed + escaped > (config.copies - 1 if delivered else 0):
            problems.add(f"row {line_no}: duplicate counts {suppressed}+{escaped}")
        if config.crc_on and (escaped or outcome == "delivered-corrupted"):
            problems.add(f"row {line_no}: CRC-{config.crc} config with {outcome} and {escaped} escaped duplicates")

        t = tally[name]
        t["sent"] += 1
        t["lost"] += not delivered
        t["unique"] += delivered
        t["received"] += delivered + escaped
        t["valid"] += outcome == "delivered"
        if delivered:
            t["copy"][copy] += 1

    expected = workload.rounds * workload.attempts
    distinct = {name: 0 for name in configs}
    for name, _, _ in seen:
        distinct[name] += 1
    for name, config in configs.items():
        if distinct[name] != expected:
            problems.add(f"config {name}: {distinct[name]} distinct (round, attempt) keys, expected {expected}")
        problems.extend(_copy_distribution(name, config, tally[name]))

    problems.extend(_summary_agrees(summary_path, tally))
    counted = {name: tuple(t[k] for k in ACCOUNTS) for name, t in tally.items() if t["unique"]}
    problems.extend(_accounting_agrees(report_path, counted))
    return list(problems)


def accounting(report_text: str) -> dict[str, tuple[int, ...]]:
    """Per-config (sent, received, unique, valid, lost) as a report prints them."""
    return {m[1]: tuple(int(v) for v in m.groups()[1:]) for m in _ACCOUNT_LINE.finditer(report_text)}


def _accounting_agrees(report_path, expected: dict[str, tuple[int, ...]]) -> list[str]:
    """The program's accounting lines must equal the counts taken from the
    rows (or another report's lines).  Counts from rows hold unique + lost
    == sent and valid <= unique, so lines that break either differ."""
    try:
        reported = accounting(Path(report_path).read_text())
    except OSError as exc:
        return [f"{Path(report_path).name} unreadable: {exc}"]
    problems = []
    if reported != expected:
        differing = sorted(k for k in set(reported) | set(expected) if reported.get(k) != expected.get(k))
        problems.append(f"{Path(report_path).name}: accounting ({', '.join(ACCOUNTS)}) of configs "
                        f"{differing} differs from the rows: {[reported.get(k) for k in differing]} "
                        f"!= {[expected.get(k) for k in differing]}")
    return problems


def _copy_distribution(name, config, t) -> list[str]:
    problems = []
    # per-copy failure: lost, or (with CRC on) corrupted and rejected
    p_loss, p_corrupt = CHANNEL["p_loss"], CHANNEL["p_corrupt"]
    q = 1 - (1 - p_loss) * (1 - p_corrupt) if config.crc_on else p_loss
    probs, lost_p = analytics.delivered_copy_distribution(q, config.copies)
    n = t["sent"]
    for label, count, p in [*((f"copy {k}", c, pk) for k, (c, pk) in enumerate(zip(t["copy"], probs))),
                            ("lost", t["lost"], lost_p)]:
        band = BINOMIAL_Z * sqrt(n * p * (1 - p)) + 1
        if abs(count - n * p) > band:
            problems.append(f"config {name}: {label} count {count}, expected {n * p:.1f} +- {band:.1f}")
    return problems


def _summary_agrees(summary_path, tally) -> list[str]:
    try:
        summary = json.loads(Path(summary_path).read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    for name, t in tally.items():
        d0d7 = summary.get(name, {}).get("d0d7")
        if t["unique"] and (d0d7 is None or (d0d7["n"], d0d7["n_lost"]) != (t["unique"], t["lost"])):
            problems.append(f"summary.json {name} d0d7 does not count {t['unique']} delivered, {t['lost']} lost")
    if set(summary) - set(tally):
        problems.append(f"summary.json has unknown configs {sorted(set(summary) - set(tally))}")
    return problems


def check_report(summary_path, stdout_path, source_dir) -> list[str]:
    """A report's summary.json must equal the one its source sweep wrote,
    and the accounting it prints must equal that sweep's summary.txt."""
    reference_summary_path = Path(source_dir) / "summary.json"
    problems = _accounting_agrees(stdout_path, accounting((Path(source_dir) / "summary.txt").read_text()))
    try:
        got = json.loads(Path(summary_path).read_text())
        want = json.loads(Path(reference_summary_path).read_text())
    except (OSError, ValueError) as exc:
        return problems + [f"summary.json unreadable: {exc}"]
    if got != want:
        differing = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        problems.append(f"report summary.json differs from the sweep's for configs {differing}")
    return problems
