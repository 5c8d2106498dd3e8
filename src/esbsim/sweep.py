"""Measurement-protocol orchestration: shuffled rounds, statistics, persistence.

Mirrors the lab procedure: every configuration runs rounds x attempts with
the per-round configuration order shuffled, latency statistics are computed
over delivered attempts only (a lost attempt never triggers the downstream
probes), and results round-trip through a CSV whose header comments carry
full provenance (seed, RNG algorithm, config hashes).
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .analytics import AccountingRow
from .config import ChannelModel, EsbConfig, validate
from .engine import PURPOSE_SHUFFLE, RNG_ALGORITHM, RngStream
from .link import (
    Outcome,
    PipelineModel,
    PROBES,
    TransmissionRecord,
    run_attempt_series,
)

DEFAULT_HISTOGRAM_BIN_US = 5.0
DEFAULT_MODE_SPACING_US = 435.0

RESULTS_FORMAT = "esbsim-results-v1"

CSV_COLUMNS = (
    "config_name",
    "round",
    "attempt",
    "seed",
    *PROBES,
    "delivered_copy",
    "outcome",
    "duplicates_suppressed",
    "duplicates_delivered",
)


class EmptyInputError(ValueError):
    """No delivered records to summarize."""


class SchemaError(ValueError):
    """Results file does not match the documented CSV schema."""


@dataclass(frozen=True)
class SweepPlan:
    """Named configs plus the round/attempt protocol and the run seed."""

    configs: tuple[tuple[str, EsbConfig], ...]
    rounds: int = 5
    attempts_per_round: int = 150
    shuffle: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.attempts_per_round < 1:
            raise ValueError("attempts_per_round must be >= 1")
        if not self.configs:
            raise ValueError("plan needs at least one config")
        names = [name for name, _ in self.configs]
        if len(set(names)) != len(names):
            raise ValueError("config names must be unique")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")
        for _, config in self.configs:
            validate(config)

    @property
    def attempts_per_config(self) -> int:
        return self.rounds * self.attempts_per_round

    def config_named(self, name: str) -> EsbConfig:
        for cfg_name, config in self.configs:
            if cfg_name == name:
                return config
        raise KeyError(f"no config named {name!r}")


def shuffle_round_order(configs: Sequence, round_index: int, rng: RngStream) -> list:
    """Deterministic per-(seed, round) permutation of the config list."""
    if not configs:
        raise ValueError("cannot shuffle an empty config list")
    rng.rekey((round_index, 0, PURPOSE_SHUFFLE))
    order = rng.permutation(len(configs))
    return [configs[i] for i in order]


def _run_series_task(args) -> list[TransmissionRecord]:
    plan, channel, pipeline, config_index, round_index = args
    name, config = plan.configs[config_index]
    return run_attempt_series(
        config,
        channel,
        pipeline,
        plan.attempts_per_round,
        seed=plan.seed,
        config_name=name,
        namespace=(config_index,),
        round_index=round_index,
    )


def run_sweep(
    plan: SweepPlan,
    channel: ChannelModel,
    pipeline: PipelineModel,
    workers: int = 1,
) -> list[TransmissionRecord]:
    """Execute the full plan; rounds x attempts records per config.

    Each (config, round) series draws from streams keyed by the plan seed and
    its own indices, so the output is identical for any worker count and any
    execution order.  Records come back sorted by (config, round, attempt).
    The per-round shuffle fixes the execution order, as in the lab protocol;
    it cannot affect record content because series are independent.
    """
    round_tasks: list[tuple[int, int]] = []
    shuffle_rng = RngStream(plan.seed)
    for round_index in range(plan.rounds):
        indices = list(range(len(plan.configs)))
        if plan.shuffle:
            indices = shuffle_round_order(indices, round_index, shuffle_rng)
        round_tasks.extend((config_index, round_index) for config_index in indices)

    args = [(plan, channel, pipeline, c, r) for c, r in round_tasks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_run_series_task, args))
    else:
        chunks = [_run_series_task(a) for a in args]

    records = [record for chunk in chunks for record in chunk]
    name_order = {name: i for i, (name, _) in enumerate(plan.configs)}
    records.sort(key=lambda r: (name_order[r.config_name], r.round_index, r.attempt))
    return records


@dataclass(frozen=True)
class SummaryStats:
    """Latency statistics over delivered attempts for one probe interval."""

    n: int
    n_lost: int
    mean_us: float
    median_us: float
    sd_us: float
    p99_us: float
    hist_counts: tuple[int, ...]
    hist_edges: tuple[float, ...]
    modes_us: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "n_lost": self.n_lost,
            "mean_us": self.mean_us,
            "median_us": self.median_us,
            "sd_us": self.sd_us,
            "p99_us": self.p99_us,
            "hist_counts": list(self.hist_counts),
            "hist_edges": list(self.hist_edges),
            "modes_us": list(self.modes_us),
        }


def detect_modes(
    hist_counts: Sequence[int],
    hist_edges: Sequence[float],
    expected_spacing_us: float = DEFAULT_MODE_SPACING_US,
    rel_height: float = 0.01,
) -> tuple[float, ...]:
    """Locate well-separated peaks of a latency histogram.

    Local maxima at least `rel_height` of the tallest bin are kept greedily
    by height subject to a minimum separation of half the expected spacing;
    each kept peak's position is refined to the count-weighted centroid of
    the bins within a quarter spacing, which pins the mode well below the bin
    width.  Positions return sorted ascending.
    """
    counts = np.asarray(hist_counts, dtype=float)
    if counts.size == 0 or counts.sum() == 0:
        return ()
    edges = np.asarray(hist_edges, dtype=float)
    centers = (edges[:-1] + edges[1:]) / 2.0
    floor = counts.max() * rel_height

    peaks = [
        i
        for i in range(counts.size)
        if counts[i] >= floor
        and (i == 0 or counts[i] >= counts[i - 1])
        and (i == counts.size - 1 or counts[i] > counts[i + 1])
    ]
    peaks.sort(key=lambda i: (-counts[i], i))
    kept: list[int] = []
    min_sep = expected_spacing_us / 2.0
    for i in peaks:
        if all(abs(centers[i] - centers[j]) >= min_sep for j in kept):
            kept.append(i)

    positions = []
    half_window = expected_spacing_us / 4.0
    for i in kept:
        mask = np.abs(centers - centers[i]) <= half_window
        weight = counts[mask].sum()
        positions.append(float((counts[mask] * centers[mask]).sum() / weight))
    return tuple(sorted(positions))


def _interval_ticks(
    records: Iterable[TransmissionRecord], interval: tuple[str, str]
) -> tuple[np.ndarray, int]:
    start, end = interval
    if start not in PROBES or end not in PROBES:
        raise ValueError(f"unknown probe pair {interval!r}")
    i, j = PROBES.index(start), PROBES.index(end)
    values = []
    lost = 0
    for record in records:
        a = record.probes_ticks[i]
        b = record.probes_ticks[j]
        if a is None or b is None:
            lost += 1
        else:
            values.append(b - a)
    return np.sort(np.asarray(values, dtype=np.int64)), lost


def interval_values_us(
    records: Iterable[TransmissionRecord], interval: tuple[str, str]
) -> tuple[np.ndarray, int]:
    """Interval durations for delivered records plus the lost count."""
    ticks, lost = _interval_ticks(records, interval)
    return ticks / 10.0, lost


def _histogram(values_us: np.ndarray, bin_width_us: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.floor(values_us[0] / bin_width_us) * bin_width_us
    hi = np.ceil(values_us[-1] / bin_width_us) * bin_width_us
    n_bins = max(1, int(round((hi - lo) / bin_width_us)))
    return np.histogram(values_us, bins=n_bins, range=(lo, lo + n_bins * bin_width_us))


def summarize_values(
    values_us: np.ndarray,
    n_lost: int = 0,
    bin_width_us: float = DEFAULT_HISTOGRAM_BIN_US,
    mode_spacing_us: float = DEFAULT_MODE_SPACING_US,
) -> SummaryStats:
    """Statistics over an array of latency samples in microseconds."""
    if values_us.size == 0:
        raise EmptyInputError("no delivered samples to summarize")
    values_us = np.sort(np.asarray(values_us, dtype=float))
    counts, edges = _histogram(values_us, bin_width_us)
    return SummaryStats(
        n=int(values_us.size),
        n_lost=n_lost,
        mean_us=float(values_us.mean()),
        median_us=float(np.median(values_us)),
        sd_us=float(values_us.std()),
        p99_us=float(np.percentile(values_us, 99)),
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
        modes_us=detect_modes(counts, edges, mode_spacing_us),
    )


def summarize(
    records: Iterable[TransmissionRecord],
    interval: tuple[str, str] = ("d0", "d7"),
    bin_width_us: float = DEFAULT_HISTOGRAM_BIN_US,
    mode_spacing_us: float = DEFAULT_MODE_SPACING_US,
) -> SummaryStats:
    """Latency statistics for one probe interval over delivered records only;
    lost attempts are counted separately in `n_lost`.

    Statistics are computed in integer tick space and converted, so they are
    exact on the 0.1 us grid (a zero-jitter point mass reports its value
    bit-for-bit) and independent of record order.
    """
    ticks, lost = _interval_ticks(records, interval)
    if ticks.size == 0:
        raise EmptyInputError("no delivered samples to summarize")
    values_us = ticks / 10.0
    counts, edges = _histogram(values_us, bin_width_us)
    return SummaryStats(
        n=int(ticks.size),
        n_lost=lost,
        mean_us=float(ticks.mean() / 10.0),
        median_us=float(np.median(ticks) / 10.0),
        sd_us=float(ticks.std() / 10.0),
        p99_us=float(np.percentile(ticks, 99) / 10.0),
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
        modes_us=detect_modes(counts, edges, mode_spacing_us),
    )


def bulge_masses(
    records: Iterable[TransmissionRecord], modes_us: Sequence[float], interval=("d0", "d7")
) -> tuple[float, ...]:
    """Fraction of delivered attempts nearest each detected mode."""
    values, _ = interval_values_us(records, interval)
    if values.size == 0:
        raise EmptyInputError("no delivered samples")
    modes = np.asarray(modes_us, dtype=float)
    nearest = np.argmin(np.abs(values[:, None] - modes[None, :]), axis=1)
    return tuple(float((nearest == i).sum() / values.size) for i in range(modes.size))


def crc_accounting_table(
    records_by_mode: Mapping[str, Sequence[TransmissionRecord]],
) -> dict[str, AccountingRow]:
    """Sent/received/unique/valid accounting per CRC mode."""
    table = {}
    for mode, records in records_by_mode.items():
        unique = sum(1 for r in records if r.outcome is not Outcome.LOST)
        duplicates = sum(r.duplicates_delivered for r in records)
        corrupted = sum(1 for r in records if r.outcome is Outcome.DELIVERED_CORRUPTED)
        table[mode] = AccountingRow(
            sent=len(records),
            received=unique + duplicates,
            unique=unique,
            valid=unique - corrupted,
        )
    return table


def accounting_for(records: Sequence[TransmissionRecord]) -> AccountingRow:
    return crc_accounting_table({"all": records})["all"]


# --- persistence --------------------------------------------------------------


def _format_probe(ticks: int | None) -> str:
    return "" if ticks is None else f"{ticks / 10:.1f}"


def render_results_csv(records: Sequence[TransmissionRecord]) -> str:
    """Results CSV with provenance header comments; lossless round-trip."""
    out = io.StringIO()
    out.write(f"# {RESULTS_FORMAT}\n")
    out.write(f"# tool=esbsim {__version__}\n")
    out.write(f"# rng={RNG_ALGORITHM}\n")
    seeds = sorted({r.seed for r in records})
    if seeds:
        out.write(f"# seed={','.join(map(str, seeds))}\n")
    seen: dict[str, str] = {}
    for record in records:
        if record.config_name not in seen:
            # the parser splits the file with str.splitlines, so no name may hold a boundary it knows
            if "".join(record.config_name.splitlines()) != record.config_name:
                raise SchemaError(f"config name {record.config_name!r} contains a line break")
            seen[record.config_name] = record.config_hash
            out.write(f"# config {record.config_name} hash={record.config_hash}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in records:
        writer.writerow(
            [
                r.config_name,
                r.round_index,
                r.attempt,
                r.seed,
                *(_format_probe(t) for t in r.probes_ticks),
                "" if r.delivered_copy is None else r.delivered_copy,
                r.outcome.value,
                r.duplicates_suppressed,
                r.duplicates_delivered,
            ]
        )
    return out.getvalue()


def write_results(records: Sequence[TransmissionRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_results_csv(records))


def parse_results_csv(text: str) -> list[TransmissionRecord]:
    """Records of a results CSV written with this format and RNG scheme.

    Comment lines end at the column header, so a data row whose config name
    starts with '#' stays a row.  A config line splits at its last " hash=",
    which keeps the hash of an empty name or a name with spaces.
    """
    hashes: dict[str, str] = {}
    comments = []
    rows = []
    for line in text.splitlines():
        if not rows and line.startswith("#"):
            comments.append(line)
            if line.startswith("# config "):
                name, sep, config_hash = line.removeprefix("# config ").rpartition(" hash=")
                if sep:
                    hashes[name] = config_hash
        elif line.strip():
            rows.append(line)
    for expected in (f"# {RESULTS_FORMAT}", f"# rng={RNG_ALGORITHM}"):
        if expected not in comments:
            raise SchemaError(f"results file lacks the {expected!r} header line")
    if not rows:
        raise SchemaError("no header row in results file")
    reader = csv.reader(rows)
    header = tuple(next(reader))
    if header != CSV_COLUMNS:
        raise SchemaError(f"unexpected columns {header!r}")
    records = []
    for row in reader:
        if len(row) != len(CSV_COLUMNS):
            raise SchemaError(f"row with {len(row)} fields, expected {len(CSV_COLUMNS)}")
        probes = tuple(None if cell == "" else round(float(cell) * 10) for cell in row[4:12])
        records.append(
            TransmissionRecord(
                config_name=row[0],
                config_hash=hashes.get(row[0], ""),
                round_index=int(row[1]),
                attempt=int(row[2]),
                seed=int(row[3]),
                probes_ticks=probes,
                delivered_copy=None if row[12] == "" else int(row[12]),
                outcome=Outcome(row[13]),
                duplicates_suppressed=int(row[14]),
                duplicates_delivered=int(row[15]),
            )
        )
    return records


def read_results(path) -> list[TransmissionRecord]:
    with open(path, newline="") as fh:
        return parse_results_csv(fh.read())


REPORT_INTERVALS = (("d0", "d7"), ("d2", "d5"), ("d3", "d4"))


def summarize_by_config(
    records: Sequence[TransmissionRecord],
    intervals: Sequence[tuple[str, str]] = REPORT_INTERVALS,
    bin_width_us: float = DEFAULT_HISTOGRAM_BIN_US,
    mode_spacing_us: float = DEFAULT_MODE_SPACING_US,
) -> dict[str, dict[str, SummaryStats]]:
    by_config: dict[str, list[TransmissionRecord]] = {}
    for record in records:
        by_config.setdefault(record.config_name, []).append(record)
    out: dict[str, dict[str, SummaryStats]] = {}
    for name, recs in by_config.items():
        out[name] = {}
        for interval in intervals:
            key = interval[0] + interval[1]
            try:
                out[name][key] = summarize(recs, interval, bin_width_us, mode_spacing_us)
            except EmptyInputError:
                continue
    return out


def render_report(
    records: Sequence[TransmissionRecord],
    summaries: Mapping[str, Mapping[str, SummaryStats]],
) -> str:
    """Human-readable summary: per-config interval statistics (as computed by
    `summarize_by_config` over `records`) plus packet accounting.  p99 is an
    extension beyond the mean/median/SD the reference protocol reports; lost
    attempts are excluded from latency statistics and shown as a separate
    count."""
    lines = []
    by_config: dict[str, list[TransmissionRecord]] = {}
    for record in records:
        by_config.setdefault(record.config_name, []).append(record)
    for name, intervals in summaries.items():
        acct = accounting_for(by_config[name])
        lines.append(f"config {name}")
        lines.append(
            f"  sent {acct.sent}  received {acct.received}  unique {acct.unique}  "
            f"valid {acct.valid}  lost {acct.lost}"
        )
        lines.append(f"  {'interval':<8} {'mean [us]':>12} {'sd [us]':>10} {'median [us]':>12} {'p99 [us]':>10}")
        for key, stats in intervals.items():
            label = f"{key[:2]}-{key[2:]}"
            lines.append(
                f"  {label:<8} {stats.mean_us:>12.2f} {stats.sd_us:>10.2f} "
                f"{stats.median_us:>12.2f} {stats.p99_us:>10.2f}"
            )
        d0d7 = intervals.get("d0d7")
        if d0d7 and d0d7.modes_us:
            lines.append("  modes [us]: " + ", ".join(f"{m:.1f}" for m in d0d7.modes_us))
        lines.append("")
    return "\n".join(lines)
