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
from functools import partial
from itertools import chain, compress
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .analytics import AccountingRow
from .config import ChannelModel, ConfigError, EsbConfig, validate
from .engine import PURPOSE_SHUFFLE, RNG_ALGORITHM, TICKS_PER_US, block_uniforms
from .link import (
    DELIVERED_CORRUPTED,
    LOST,
    OUTCOMES,
    PROBES,
    PipelineModel,
    RecordBatch,
    run_attempt_series,
)

DEFAULT_HISTOGRAM_BIN_US = 5.0
DEFAULT_MODE_SPACING_US = 435.0
MODE_FLOOR = 0.01  # a histogram peak below this share of the tallest bin is no mode

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

    def config_index(self, name: str) -> int:
        for index, (cfg_name, _) in enumerate(self.configs):
            if cfg_name == name:
                return index
        raise ConfigError(f"no config named {name!r}")


def shuffle_round_order(seed: int, round_index: int, n: int) -> list[int]:
    """Deterministic per-(seed, round) permutation of range(n): the order
    that sorts one row of n draws."""
    if n < 1:
        raise ValueError("cannot shuffle an empty config list")
    row = block_uniforms(seed, (), round_index, PURPOSE_SHUFFLE, 0, 1, n)[0]
    return np.argsort(row, kind="stable").tolist()


def run_series(
    plan: SweepPlan,
    channel: ChannelModel,
    pipeline: PipelineModel,
    config_index: int,
    round_index: int,
    n: int,
) -> RecordBatch:
    """Attempts 0..n-1 of the plan's (config, round) series.  Every command
    that simulates a config addresses its draws here: the plan seed, the
    config's index as namespace and the round."""
    name, config = plan.configs[config_index]
    return run_attempt_series(
        config,
        channel,
        pipeline,
        n,
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
) -> RecordBatch:
    """Execute the full plan; rounds x attempts records per config.

    Each (config, round) series is a `run_series` call, whose draws are
    addressed by the plan seed and its own indices, so the output is
    identical for any worker count and any execution order.  The series are
    joined in (config, round) order, so the rows come back sorted by
    (config, round, attempt).  The per-round shuffle fixes the execution
    order, as in the lab protocol; it cannot affect record content because
    series are independent.
    """
    n_configs = len(plan.configs)
    tasks = [
        (config_index, round_index)
        for round_index in range(plan.rounds)
        for config_index in (
            shuffle_round_order(plan.seed, round_index, n_configs) if plan.shuffle else range(n_configs)
        )
    ]
    run = partial(run_series, plan, channel, pipeline, n=plan.attempts_per_round)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(run, *zip(*tasks)))
    else:
        chunks = [run(c, r) for c, r in tasks]

    series = dict(zip(tasks, chunks))
    return RecordBatch.concat(
        [series[c, r] for c in range(len(plan.configs)) for r in range(plan.rounds)]
    )


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
) -> tuple[float, ...]:
    """Locate well-separated peaks of a latency histogram.

    Local maxima at least `MODE_FLOOR` of the tallest bin are kept greedily
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
    floor = counts.max() * MODE_FLOOR

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


def _interval_ticks(batch: RecordBatch, interval: tuple[str, str]) -> tuple[np.ndarray, int]:
    """Sorted interval durations in ticks over the rows with both probes, and
    the count of rows without them."""
    start, end = interval
    if start not in PROBES or end not in PROBES:
        raise ValueError(f"unknown probe pair {interval!r}")
    a = batch.probes[:, PROBES.index(start)]
    b = batch.probes[:, PROBES.index(end)]
    present = (a >= 0) & (b >= 0)
    return np.sort(b[present] - a[present]), len(batch) - int(present.sum())


def interval_values_us(batch: RecordBatch, interval: tuple[str, str]) -> tuple[np.ndarray, int]:
    """Interval durations for delivered records plus the lost count."""
    ticks, lost = _interval_ticks(batch, interval)
    return ticks / TICKS_PER_US, lost


def _histogram(values_us: np.ndarray, bin_width_us: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.floor(values_us[0] / bin_width_us) * bin_width_us
    hi = np.ceil(values_us[-1] / bin_width_us) * bin_width_us
    n_bins = max(1, int(round((hi - lo) / bin_width_us)))
    return np.histogram(values_us, bins=n_bins, range=(lo, lo + n_bins * bin_width_us))


def summarize(
    samples: RecordBatch | np.ndarray,
    interval: tuple[str, str] = ("d0", "d7"),
    bin_width_us: float = DEFAULT_HISTOGRAM_BIN_US,
    mode_spacing_us: float = DEFAULT_MODE_SPACING_US,
) -> SummaryStats:
    """Latency statistics of a batch's probe `interval`, or of an array of
    latencies in microseconds (`interval` is then unused).

    A batch is summarized over delivered records only; lost attempts are
    counted separately in `n_lost`.  Its statistics are computed in integer
    tick space and converted, so they are exact on the 0.1 us grid (a
    zero-jitter point mass reports its value bit-for-bit) and independent of
    record order.
    """
    if isinstance(samples, RecordBatch):
        values, n_lost = _interval_ticks(samples, interval)
        scale = TICKS_PER_US
    else:
        values, n_lost, scale = np.sort(np.asarray(samples, dtype=float)), 0, 1.0
    if values.size == 0:
        raise EmptyInputError("no delivered samples to summarize")
    counts, edges = _histogram(values / scale, bin_width_us)
    return SummaryStats(
        n=int(values.size),
        n_lost=n_lost,
        mean_us=float(values.mean() / scale),
        median_us=float(np.median(values) / scale),
        sd_us=float(values.std() / scale),
        p99_us=float(np.percentile(values, 99) / scale),
        hist_counts=tuple(int(c) for c in counts),
        hist_edges=tuple(float(e) for e in edges),
        modes_us=detect_modes(counts, edges, mode_spacing_us),
    )


def bulge_masses(
    batch: RecordBatch, modes_us: Sequence[float], interval=("d0", "d7")
) -> tuple[float, ...]:
    """Fraction of delivered attempts nearest each detected mode."""
    values, _ = interval_values_us(batch, interval)
    if values.size == 0:
        raise EmptyInputError("no delivered samples")
    modes = np.asarray(modes_us, dtype=float)
    nearest = np.argmin(np.abs(values[:, None] - modes[None, :]), axis=1)
    return tuple(float((nearest == i).sum() / values.size) for i in range(modes.size))


def accounting_for(batch: RecordBatch) -> AccountingRow:
    """Sent/received/unique/valid accounting of a batch."""
    outcomes = np.bincount(batch.outcome, minlength=len(OUTCOMES))
    unique = len(batch) - int(outcomes[LOST])
    return AccountingRow(
        sent=len(batch),
        received=unique + int(batch.duplicates_delivered.sum()),
        unique=unique,
        valid=unique - int(outcomes[DELIVERED_CORRUPTED]),
    )


def crc_accounting_table(batches_by_mode: Mapping[str, RecordBatch]) -> dict[str, AccountingRow]:
    """Sent/received/unique/valid accounting per CRC mode."""
    return {mode: accounting_for(batch) for mode, batch in batches_by_mode.items()}


def _config_order(batch: RecordBatch) -> list[int]:
    """Indices of the configs that have rows, in order of first appearance."""
    indices, first = np.unique(batch.config_index, return_index=True)
    return indices[np.argsort(first)].tolist()


def _by_config(batch: RecordBatch) -> dict[str, RecordBatch]:
    """The batch's rows per config name, in order of first appearance."""
    return {batch.names[i]: batch.select(batch.config_index == i) for i in _config_order(batch)}


# --- persistence --------------------------------------------------------------

_CHUNK_ROWS = 8192  # rows rendered or parsed at a time: bounds the objects alive at once


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it in a row of several fields."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((text, ""))
    return line.getvalue()[: -len(",\n")]


def _row_template(batch: RecordBatch, row: int) -> str:
    """The %-template of the CSV rows shaped like `row`: the same config,
    seed and outcome, and the same probes and delivered copy present.

    It takes the round, the attempt, divmod(ticks, 10) of each probe, the
    delivered copy and the two duplicate counts; an absent cell consumes its
    values with %.0s and writes nothing.
    """
    fields = [
        _csv_field(batch.names[batch.config_index[row]]).replace("%", "%%"),
        "%d",
        "%d",
        str(batch.seeds[batch.seed_index[row]]),
        *("%d.%d" if ticks >= 0 else "%.0s%.0s" for ticks in batch.probes[row]),
        "%d" if batch.delivered_copy[row] >= 0 else "%.0s",
        OUTCOMES[batch.outcome[row]].value,
        "%d",
        "%d",
    ]
    return ",".join(fields) + "\n"


def render_results_csv(batch: RecordBatch) -> str:
    """Results CSV with provenance header comments; lossless round-trip.

    Rows sharing a config, seed, outcome and set of present cells share one
    %-template, so the CSV quoting of a name happens once per template.
    """
    out = [f"# {RESULTS_FORMAT}\n", f"# tool=esbsim {__version__}\n", f"# rng={RNG_ALGORITHM}\n"]
    seeds = sorted(batch.seeds[i] for i in np.unique(batch.seed_index).tolist())
    if seeds:
        out.append(f"# seed={','.join(map(str, seeds))}\n")
    for index in _config_order(batch):
        name = batch.names[index]
        # the parser splits the file with str.splitlines, so no name may hold a boundary it knows
        if "".join(name.splitlines()) != name:
            raise SchemaError(f"config name {name!r} contains a line break")
        out.append(f"# config {name} hash={batch.hashes[index]}\n")
    out.append(",".join(CSV_COLUMNS) + "\n")

    present = np.column_stack((batch.probes >= 0, batch.delivered_copy >= 0))
    shape = (batch.config_index * len(batch.seeds) + batch.seed_index) * len(OUTCOMES) + batch.outcome
    shape = shape << present.shape[1] | present @ (1 << np.arange(present.shape[1]))
    _, first, inverse = np.unique(shape, return_index=True, return_inverse=True)
    templates = [_row_template(batch, row) for row in first.tolist()]
    for start in range(0, len(batch), _CHUNK_ROWS):
        rows = slice(start, start + _CHUNK_ROWS)
        whole, tenth = np.divmod(batch.probes[rows], TICKS_PER_US)
        cells = (
            batch.round_index[rows],
            batch.attempt[rows],
            *chain.from_iterable(zip(whole.T, tenth.T)),
            batch.delivered_copy[rows],
            batch.duplicates_suppressed[rows],
            batch.duplicates_delivered[rows],
        )
        values = zip(*(column.tolist() for column in cells))
        out.append("".join(map(str.__mod__, map(templates.__getitem__, inverse[rows].tolist()), values)))
    return "".join(out)


def write_results(batch: RecordBatch, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(render_results_csv(batch))


_OUTCOME_CODES = {outcome.value: code for code, outcome in enumerate(OUTCOMES)}
_MAX_DIGITS = 17  # ten times the value still fits in an int64


def _decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, tenths: bool, empty_ok: bool):
    """The cells buf[starts[i]:ends[i]] of decimal digits as int64, -1 for an
    empty cell.  With `tenths` a cell is a time in microseconds with at most
    one decimal place, and comes back in ticks.  Also returns a mask of the
    malformed cells."""
    width = ends - starts
    value = np.zeros(len(starts), dtype=np.int64)
    bad = np.zeros(len(starts), dtype=bool) if empty_ok else width == 0
    has_point = np.zeros(len(starts), dtype=bool)
    # a longer cell is too long anyway, so the loop need not reach its end
    for k in range(min(int(width.max(initial=0)), _MAX_DIGITS + 1)):
        inside = k < width
        char = buf[np.minimum(starts + k, len(buf) - 1)]
        digit = char - np.uint8(ord("0"))  # wraps round below "0"
        is_digit = inside & (digit < 10)
        value = np.where(is_digit, value * 10 + digit, value)
        if tenths and k > 0:
            # a point sits between a digit and the one digit that ends its cell
            point = (k == width - 2) & (char == ord("."))
            has_point |= point
            is_digit |= point
        bad |= inside & ~is_digit
    bad |= width - has_point > _MAX_DIGITS
    if tenths:
        value = np.where(has_point, value, value * TICKS_PER_US)
    value[width == 0] = -1
    return value, bad


class _Rows:
    """A chunk of data rows, each split at its last 15 commas, so that only
    the config name may hold a comma.  Cells are located by offsets into the
    joined rows; only text cells are cut out as strings."""

    def __init__(self, rows: Sequence[str], line_numbers: Sequence[int]):
        self.rows = rows
        self.line_numbers = line_numbers
        self.text = "\n".join(rows) + "\n"
        # one byte per character: one that latin-1 lacks becomes "?", which no numeric cell accepts
        self.buf = np.frombuffer(self.text.encode("latin-1", "replace"), dtype=np.uint8)
        row_ends = np.flatnonzero(self.buf == ord("\n"))
        commas = np.flatnonzero(self.buf == ord(","))
        commas_before = np.searchsorted(commas, row_ends)
        short = np.diff(commas_before, prepend=0) < len(CSV_COLUMNS) - 1
        if short.any():
            i = int(np.argmax(short))
            fields = len(next(csv.reader([rows[i]])))
            raise self.error(i, f"row with {fields} fields, expected {len(CSV_COLUMNS)}")
        splits = commas[commas_before[:, None] + np.arange(1 - len(CSV_COLUMNS), 0)]
        self.starts = np.column_stack((np.concatenate(([0], row_ends[:-1] + 1)), splits + 1))
        self.ends = np.column_stack((splits, row_ends))

    def error(self, i: int, message: str) -> SchemaError:
        return SchemaError(f"line {self.line_numbers[i]}: {message}")

    def cell(self, i: int, column: int) -> str:
        return self.text[self.starts[i, column] : self.ends[i, column]]

    def codes(self, column: int, codes: dict, new_code) -> np.ndarray:
        """The code of each cell of `column` in `codes`.  A cell not seen
        before gets `new_code(cell)`, so each distinct cell is converted once."""
        bounds = map(slice, self.starts[:, column].tolist(), self.ends[:, column].tolist())
        cells = list(map(self.text.__getitem__, bounds))
        for cell in dict.fromkeys(cells):
            if cell not in codes:
                try:
                    codes[cell] = new_code(cell)
                except ValueError as exc:
                    raise self.error(cells.index(cell), f"{CSV_COLUMNS[column]} {cell!r} {exc}") from None
        return np.fromiter(map(codes.__getitem__, cells), dtype=np.int64, count=len(cells))

    def numbers(self, columns: list[int], tenths: bool = False, empty_ok: bool = False) -> np.ndarray:
        """The numeric `columns`, one array row each."""
        starts, ends = self.starts[:, columns].T.ravel(), self.ends[:, columns].T.ravel()
        values, bad = _decimals(self.buf, starts, ends, tenths, empty_ok)
        if bad.any():
            k, i = divmod(int(np.argmax(bad)), len(self.rows))
            what = "a time in us with at most one decimal place" if tenths else "a non-negative integer"
            raise self.error(i, f"{CSV_COLUMNS[columns[k]]} {self.cell(i, columns[k])!r} is not {what}")
        return values.reshape(len(columns), len(self.rows))


def _decode_name(cell: str) -> str:
    """A config-name cell as the csv module reads it: one field."""
    try:
        fields = next(csv.reader([cell], strict=True)) or [""]
    except csv.Error as exc:
        raise ValueError(f"is badly quoted ({exc})") from None
    if len(fields) != 1:
        raise ValueError(f"makes a row of {len(fields) + len(CSV_COLUMNS) - 1} fields, expected {len(CSV_COLUMNS)}")
    return fields[0]


def _parse_seed(cell: str) -> int:
    if not (cell.isascii() and cell.isdigit()) or int(cell) >= 2**64:
        raise ValueError("is not an unsigned 64-bit integer")
    return int(cell)


def _unknown_outcome(cell: str) -> int:
    raise ValueError(f"is not one of {', '.join(_OUTCOME_CODES)}")


def parse_results_csv(text: str) -> RecordBatch:
    """Records of a results CSV written with this format and RNG scheme.

    Comment lines end at the column header, so a data row whose config name
    starts with '#' stays a row.  A config line splits at its last " hash=",
    which keeps the hash of an empty name or a name with spaces.  Config
    names, seeds and outcomes are converted once per distinct cell and the
    numeric cells a column at a time.  A malformed row raises SchemaError
    with its line number; a probe must be a time on the 0.1 us grid.
    """
    lines = text.splitlines()
    hashes: dict[str, str] = {}
    comments = []
    header_at = len(lines)
    for line_no, line in enumerate(lines):
        if line.startswith("#"):
            comments.append(line)
            if line.startswith("# config "):
                name, sep, config_hash = line.removeprefix("# config ").rpartition(" hash=")
                if sep:
                    hashes[name] = config_hash
        elif line.strip():
            header_at = line_no
            break
    for expected in (f"# {RESULTS_FORMAT}", f"# rng={RNG_ALGORITHM}"):
        if expected not in comments:
            raise SchemaError(f"results file lacks the {expected!r} header line")
    if header_at == len(lines):
        raise SchemaError("no header row in results file")
    header = tuple(next(csv.reader([lines[header_at]])))
    if header != CSV_COLUMNS:
        raise SchemaError(f"unexpected columns {header!r}")

    body = lines[header_at + 1 :]
    rows = list(compress(body, map(str.strip, body)))  # blank lines are skipped
    line_numbers: Sequence[int] = range(header_at + 2, len(lines) + 1)
    if len(rows) != len(body):
        line_numbers = list(compress(line_numbers, map(str.strip, body)))
    names: dict[str, int] = {}
    seeds: dict[int, int] = {}
    name_codes: dict[str, int] = {}
    seed_codes: dict[str, int] = {}
    outcome_codes = dict(_OUTCOME_CODES)
    batches = []
    for first in range(0, len(rows), _CHUNK_ROWS):
        chunk = _Rows(rows[first : first + _CHUNK_ROWS], line_numbers[first : first + _CHUNK_ROWS])
        round_index, attempt, suppressed, delivered = chunk.numbers([1, 2, 14, 15])
        batches.append(
            dict(
                config_index=chunk.codes(0, name_codes, lambda cell: names.setdefault(_decode_name(cell), len(names))),
                seed_index=chunk.codes(3, seed_codes, lambda cell: seeds.setdefault(_parse_seed(cell), len(seeds))),
                round_index=round_index,
                attempt=attempt,
                probes=chunk.numbers(list(range(4, 12)), tenths=True, empty_ok=True).T,
                delivered_copy=chunk.numbers([12], empty_ok=True)[0],
                outcome=chunk.codes(13, outcome_codes, _unknown_outcome),
                duplicates_suppressed=suppressed,
                duplicates_delivered=delivered,
            )
        )
    tables = dict(names=tuple(names), hashes=tuple(hashes.get(name, "") for name in names), seeds=tuple(seeds))
    return RecordBatch.concat([RecordBatch(**tables, **columns) for columns in batches])


def read_results(path) -> RecordBatch:
    with open(path, newline="") as fh:
        return parse_results_csv(fh.read())


REPORT_INTERVALS = (("d0", "d7"), ("d2", "d5"), ("d3", "d4"))


def summarize_by_config(
    batch: RecordBatch,
    intervals: Sequence[tuple[str, str]] = REPORT_INTERVALS,
) -> dict[str, dict[str, SummaryStats]]:
    out: dict[str, dict[str, SummaryStats]] = {}
    for name, rows in _by_config(batch).items():
        out[name] = {}
        for interval in intervals:
            key = interval[0] + interval[1]
            try:
                out[name][key] = summarize(rows, interval)
            except EmptyInputError:
                continue
    return out


def render_report(batch: RecordBatch, summaries: Mapping[str, Mapping[str, SummaryStats]]) -> str:
    """Human-readable summary: per-config interval statistics (as computed by
    `summarize_by_config` over `batch`) plus packet accounting.  p99 is an
    extension beyond the mean/median/SD the reference protocol reports; lost
    attempts are excluded from latency statistics and shown as a separate
    count."""
    lines = []
    by_config = _by_config(batch)
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
