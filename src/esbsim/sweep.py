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
import os
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from typing import Iterator, Mapping, Sequence, TextIO

import numpy as np

from . import __version__
from .analytics import AccountingRow, DomainError
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
MAX_HISTOGRAM_BINS = 10**6  # a latency span wider than this many bins is refused, not allocated

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
        from concurrent.futures import ProcessPoolExecutor  # its import costs every command ~20 ms

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


def _interval_ticks(
    batch: RecordBatch, interval: tuple[str, str], rows: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, int]:
    """Sorted interval durations in ticks over the `rows` (a boolean mask)
    with both probes, and the count of those without them.  Only the two
    probe columns are read."""
    start, end = interval
    if start not in PROBES or end not in PROBES:
        raise ValueError(f"unknown probe pair {interval!r}")
    # a column view, then the mask: numpy's fast 1-D path
    a = batch.probes[:, PROBES.index(start)][rows]
    b = batch.probes[:, PROBES.index(end)][rows]
    present = (a >= 0) & (b >= 0)
    ticks = b[present]
    ticks -= a[present]
    ticks.sort()
    return ticks, len(a) - int(np.count_nonzero(present))


def _histogram(values_us: np.ndarray, bin_width_us: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.floor(values_us[0] / bin_width_us) * bin_width_us
    hi = np.ceil(values_us[-1] / bin_width_us) * bin_width_us
    n_bins = max(1, int(round((hi - lo) / bin_width_us)))
    if n_bins > MAX_HISTOGRAM_BINS:
        raise DomainError(
            f"latencies from {values_us[0]} to {values_us[-1]} us span {n_bins} histogram bins "
            f"of {bin_width_us} us, more than {MAX_HISTOGRAM_BINS}"
        )
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
        return _summary(*_interval_ticks(samples, interval), TICKS_PER_US, bin_width_us, mode_spacing_us)
    return _summary(np.sort(np.asarray(samples, dtype=float)), 0, 1.0, bin_width_us, mode_spacing_us)


def _summary(
    values: np.ndarray,
    n_lost: int,
    scale: float,
    bin_width_us: float = DEFAULT_HISTOGRAM_BIN_US,
    mode_spacing_us: float = DEFAULT_MODE_SPACING_US,
) -> SummaryStats:
    """Statistics of sorted `values`, which are `scale` per microsecond."""
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


def accounting_by_config(batch: RecordBatch) -> dict[str, AccountingRow]:
    """Sent/received/unique/valid accounting of each config's rows, keyed by
    name in side-table order: counts over `config_index`, so no column is
    copied."""
    n_configs = len(batch.names)
    groups = batch.config_index
    outcomes = np.bincount(groups * len(OUTCOMES) + batch.outcome, minlength=n_configs * len(OUTCOMES))
    outcomes = outcomes.reshape(n_configs, len(OUTCOMES)).tolist()
    sent = np.bincount(groups, minlength=n_configs).tolist()
    # the weights are small counts, so their float sums are exact
    duplicates = np.bincount(groups, weights=batch.duplicates_delivered, minlength=n_configs).tolist()
    accounting = {}
    for name, n, counts, dups in zip(batch.names, sent, outcomes, duplicates):
        unique = n - counts[LOST]
        valid = unique - counts[DELIVERED_CORRUPTED]
        accounting[name] = AccountingRow(sent=n, received=unique + int(dups), unique=unique, valid=valid)
    return accounting


def _config_order(batch: RecordBatch) -> list[int]:
    """Indices of the configs that have rows, in order of first appearance."""
    indices, first = np.unique(batch.config_index, return_index=True)
    return indices[np.argsort(first)].tolist()


# --- persistence --------------------------------------------------------------

_CHUNK_ROWS = 4096  # rows rendered or parsed at a time: bounds the objects alive at once
_BLOCK_CHARS = 1 << 16  # characters of a results file read at a time
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # where str.splitlines splits


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
        at = starts + k
        char = buf[np.minimum(at, len(buf) - 1, out=at)]
        digit = char - np.uint8(ord("0"))  # wraps round below "0"
        is_digit = inside & (digit < 10)
        np.multiply(value, 10, out=value, where=is_digit)
        np.add(value, digit, out=value, where=is_digit)
        if tenths and k > 0:
            # a point sits between a digit and the one digit that ends its cell
            point = (k == width - 2) & (char == ord("."))
            has_point |= point
            is_digit |= point
        bad |= inside & ~is_digit
    bad |= width - has_point > _MAX_DIGITS
    if tenths:
        np.multiply(value, TICKS_PER_US, out=value, where=~has_point)
    value[width == 0] = -1
    return value, bad


class _Rows:
    """A chunk of data rows, each split at its last 15 commas, so that only
    the config name may hold a comma.  Cells are located by the offsets of
    the separators that end them in the joined rows; only text cells are
    cut out as strings."""

    def __init__(self, rows: Sequence[str], line_numbers: Sequence[int]):
        self.line_numbers = line_numbers
        self.text = "\n".join(rows) + "\n"
        # one byte per character: one that latin-1 lacks becomes "?", which no numeric cell accepts
        self.buf = np.frombuffer(self.text.encode("latin-1", "replace"), dtype=np.uint8)
        is_separator = self.buf == ord(",")
        is_separator |= self.buf == ord("\n")
        separators = np.flatnonzero(is_separator)
        row_ends = np.flatnonzero(self.buf[separators] == ord("\n"))  # indices into separators
        short = np.diff(row_ends, prepend=-1) < len(CSV_COLUMNS)
        if short.any():
            i = int(np.argmax(short))
            fields = len(next(csv.reader([rows[i]])))
            raise self.error(i, f"row with {fields} fields, expected {len(CSV_COLUMNS)}")
        # ends[i, j]: the comma or line end after cell j of row i
        self.ends = separators[row_ends[:, None] + np.arange(1 - len(CSV_COLUMNS), 1)]
        self.row_starts = np.concatenate(([0], self.ends[:-1, -1] + 1))

    def __len__(self) -> int:
        return len(self.line_numbers)

    def error(self, i: int, message: str) -> SchemaError:
        return SchemaError(f"line {self.line_numbers[i]}: {message}")

    def bounds(self, columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Start and end offsets of the cells of `columns`, one array row each."""
        starts = [self.row_starts if c == 0 else self.ends[:, c - 1] + 1 for c in columns]
        return np.array(starts), self.ends[:, columns].T

    def cell(self, i: int, column: int) -> str:
        starts, ends = self.bounds([column])
        return self.text[starts[0, i] : ends[0, i]]

    def codes(self, column: int, codes: dict, new_code) -> np.ndarray:
        """The code of each cell of `column` in `codes`.  A cell not seen
        before gets `new_code(cell)`, so each distinct cell is converted once."""
        starts, ends = self.bounds([column])
        cells = list(map(self.text.__getitem__, map(slice, starts[0].tolist(), ends[0].tolist())))
        for cell in dict.fromkeys(cells):
            if cell not in codes:
                try:
                    codes[cell] = new_code(cell)
                except ValueError as exc:
                    raise self.error(cells.index(cell), f"{CSV_COLUMNS[column]} {cell!r} {exc}") from None
        return np.fromiter(map(codes.__getitem__, cells), dtype=np.int64, count=len(cells))

    def numbers(self, columns: list[int], tenths: bool = False, empty_ok: bool = False) -> np.ndarray:
        """The numeric `columns`, one array row each."""
        starts, ends = (bounds.ravel() for bounds in self.bounds(columns))
        values, bad = _decimals(self.buf, starts, ends, tenths, empty_ok)
        if bad.any():
            k, i = divmod(int(np.argmax(bad)), len(self))
            what = "a time in us with at most one decimal place" if tenths else "a non-negative integer"
            raise self.error(i, f"{CSV_COLUMNS[columns[k]]} {self.cell(i, columns[k])!r} is not {what}")
        return values.reshape(len(columns), len(self))


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


def _blocks(source: str | TextIO) -> Iterator[str]:
    """`source`, a str or an open text file, _BLOCK_CHARS characters at a time."""
    if isinstance(source, str):
        return (source[i : i + _BLOCK_CHARS] for i in range(0, len(source), _BLOCK_CHARS))
    return iter(partial(source.read, _BLOCK_CHARS), "")


def _line_blocks(source: str | TextIO) -> Iterator[tuple[int, list[str]]]:
    """The lines `str.splitlines` makes of the whole text of `source`, a
    block at a time, each list with the line number of its first line.

    A block's last line waits for the next block unless it ends in a line
    break other than "\r", which may be the first half of a "\r\n".
    """
    carry, line_no = "", 1
    for block in _blocks(source):
        text = carry + block
        lines = text.splitlines()
        end = text[-1]
        if end not in _LINE_BREAKS:  # the last line goes on in the next block
            carry = lines.pop()
        elif end == "\r":  # it may be the first half of a "\r\n"
            carry = lines.pop() + end
        else:
            carry = ""
        yield line_no, lines
        line_no += len(lines)
    if carry:
        yield line_no, carry.splitlines()


def _row_chunks(blocks: Iterator[tuple[int, list[str]]]) -> Iterator[_Rows]:
    """The non-blank lines of `blocks`, _CHUNK_ROWS at a time whatever the
    block size.  A chunk's lines leave the pending list before it is
    yielded, so only its joined text stays alive."""
    rows: list[str] = []
    numbers: list[int] = []
    for first, lines in blocks:
        keep = list(map(str.strip, lines))
        rows += compress(lines, keep)
        numbers += compress(range(first, first + len(lines)), keep)
        while len(rows) >= _CHUNK_ROWS:
            yield _Rows(_cut(rows, _CHUNK_ROWS), _cut(numbers, _CHUNK_ROWS))
    if rows:
        yield _Rows(_cut(rows, len(rows)), numbers)


def _cut(items: list, n: int) -> list:
    """Remove the first n items and return them."""
    head = items[:n]
    del items[:n]
    return head


def _size(source: str | TextIO) -> int:
    """Characters in a str, bytes in a file; 0 when unknown."""
    if isinstance(source, str):
        return len(source)
    try:
        return os.fstat(source.fileno()).st_size
    except (AttributeError, OSError):
        return 0


def _header(blocks: Iterator[tuple[int, list[str]]]) -> tuple[list[str], str | None, Iterator]:
    """The comment lines before the column header, the header (None if
    there is none) and the blocks of the lines after it."""
    comments = []
    for first, lines in blocks:
        for i, line in enumerate(lines):
            if line.startswith("#"):
                comments.append(line)
            elif line.strip():
                return comments, line, chain([(first + i + 1, lines[i + 1 :])], blocks)
    return comments, None, iter(())


_COUNT_COLUMNS = ("round_index", "attempt", "duplicates_suppressed", "duplicates_delivered")
_PARSED_COLUMNS = ("config_index", "seed_index", *_COUNT_COLUMNS, "delivered_copy", "outcome")


def _resize(columns: dict[str, np.ndarray], n: int) -> None:
    """Give every column n rows, in place; the rows kept keep their values."""
    for column in columns.values():
        column.resize((n, *column.shape[1:]), refcheck=False)


def parse_results_csv(source: str | TextIO) -> RecordBatch:
    """Records of a results CSV written with this format and RNG scheme.

    `source` is the text or a text file open for reading with newline="".
    It is read _BLOCK_CHARS characters at a time and split into lines as
    `str.splitlines` splits the whole text; the rows are decoded
    _CHUNK_ROWS at a time.  Beyond the int64 columns (128 bytes a row) it
    holds one block and one chunk at once.  The columns are allocated for
    the row count that the source's size and the rows read so far predict,
    and trimmed to the rows read.

    Comment lines end at the column header, so a data row whose config name
    starts with '#' stays a row.  A config line splits at its last " hash=",
    which keeps the hash of an empty name or a name with spaces.  Config
    names, seeds and outcomes are converted once per distinct cell and the
    numeric cells a column at a time.  A malformed row raises SchemaError
    with its line number; a probe must be a time on the 0.1 us grid.
    """
    comments, header, blocks = _header(_line_blocks(source))
    for expected in (f"# {RESULTS_FORMAT}", f"# rng={RNG_ALGORITHM}"):
        if expected not in comments:
            raise SchemaError(f"results file lacks the {expected!r} header line")
    if header is None:
        raise SchemaError("no header row in results file")
    header_cells = tuple(next(csv.reader([header])))
    if header_cells != CSV_COLUMNS:
        raise SchemaError(f"unexpected columns {header_cells!r}")
    hashes: dict[str, str] = {}
    for line in comments:
        if line.startswith("# config "):
            name, sep, config_hash = line.removeprefix("# config ").rpartition(" hash=")
            if sep:
                hashes[name] = config_hash

    names: dict[str, int] = {}
    seeds: dict[int, int] = {}
    name_codes: dict[str, int] = {}
    seed_codes: dict[str, int] = {}
    outcome_codes = dict(_OUTCOME_CODES)
    columns = {column: np.empty(0, dtype=np.int64) for column in _PARSED_COLUMNS}
    columns["probes"] = np.empty((0, len(PROBES)), dtype=np.int64)
    size, n, chars = _size(source), 0, 0
    for chunk in _row_chunks(blocks):
        part = slice(n, n + len(chunk))
        n, chars = part.stop, chars + len(chunk.text)
        if n > len(columns["attempt"]):
            # room for the rows the size predicts at the density so far, 1/16
            # spare; ndarray.resize reallocates, so no part is copied twice
            predicted = n * size // chars
            _resize(columns, max(n, predicted + predicted // 16))
        for column, values in zip(_COUNT_COLUMNS, chunk.numbers([1, 2, 14, 15])):
            columns[column][part] = values
        columns["config_index"][part] = chunk.codes(
            0, name_codes, lambda cell: names.setdefault(_decode_name(cell), len(names))
        )
        columns["seed_index"][part] = chunk.codes(
            3, seed_codes, lambda cell: seeds.setdefault(_parse_seed(cell), len(seeds))
        )
        columns["probes"][part] = chunk.numbers(list(range(4, 12)), tenths=True, empty_ok=True).T
        columns["delivered_copy"][part] = chunk.numbers([12], empty_ok=True)[0]
        columns["outcome"][part] = chunk.codes(13, outcome_codes, _unknown_outcome)
        del chunk  # free it before the next one is built
    _resize(columns, n)
    return RecordBatch(
        names=tuple(names),
        hashes=tuple(hashes.get(name, "") for name in names),
        seeds=tuple(seeds),
        **columns,
    )


def read_results(path) -> RecordBatch:
    """`parse_results_csv` of the file at `path`, read in blocks."""
    with open(path, newline="", encoding="utf-8") as fh:
        return parse_results_csv(fh)


REPORT_INTERVALS = (("d0", "d7"), ("d2", "d5"), ("d3", "d4"))


def summarize_by_config(
    batch: RecordBatch,
    intervals: Sequence[tuple[str, str]] = REPORT_INTERVALS,
) -> dict[str, dict[str, SummaryStats]]:
    """`summarize` of each interval over each config's rows, configs in order
    of first appearance; an interval no row of a config has is left out.  A
    config's rows are a mask, so no column is copied.  An interval wider
    than MAX_HISTOGRAM_BINS bins raises DomainError naming both."""
    out: dict[str, dict[str, SummaryStats]] = {}
    for index in _config_order(batch):
        rows = batch.config_index == index
        out[batch.names[index]] = stats = {}
        for interval in intervals:
            try:
                stats[interval[0] + interval[1]] = _summary(*_interval_ticks(batch, interval, rows), TICKS_PER_US)
            except EmptyInputError:
                continue
            except DomainError as exc:
                raise DomainError(f"config {batch.names[index]!r}, interval {'-'.join(interval)}: {exc}") from None
    return out


def render_report(batch: RecordBatch, summaries: Mapping[str, Mapping[str, SummaryStats]]) -> str:
    """Human-readable summary: per-config interval statistics (as computed by
    `summarize_by_config` over `batch`) plus packet accounting.  p99 is an
    extension beyond the mean/median/SD the reference protocol reports; lost
    attempts are excluded from latency statistics and shown as a separate
    count."""
    lines = []
    accounting = accounting_by_config(batch)
    for name, intervals in summaries.items():
        acct = accounting[name]
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
