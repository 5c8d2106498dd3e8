"""Measurement-protocol orchestration: shuffled rounds, statistics, persistence.

Mirrors the lab procedure: every configuration runs rounds x attempts with
the per-round configuration order shuffled, latency statistics are computed
over delivered attempts only (a lost attempt never triggers the downstream
probes), and results round-trip through a CSV whose header comments carry
full provenance (seed, RNG algorithm, config hashes).
"""

from __future__ import annotations

import codecs
import csv
import io
import os
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import chain, starmap
from typing import BinaryIO, Iterator, Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


class EmptyInputError(DomainError):
    """No delivered records to summarize: no statistic is defined."""


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
    identical for any worker count and any execution order.  At most
    `workers` processes run the series, and no more than there are series
    or CPUs; one runs them in this process.  The columns
    are allocated once and each series is copied into its (config, round)
    slot as it arrives, so the rows come back sorted by (config, round,
    attempt) and only one series is alive beside them.  The side tables
    are the plan's.  The per-round shuffle fixes the execution order, as in
    the lab protocol; it cannot affect record content because series are
    independent.
    """
    n_configs = len(plan.configs)
    n = plan.attempts_per_round
    tasks = [
        (config_index, round_index)
        for round_index in range(plan.rounds)
        for config_index in (
            shuffle_round_order(plan.seed, round_index, n_configs) if plan.shuffle else range(n_configs)
        )
    ]
    rows = n_configs * plan.rounds * n
    columns = {column: np.empty(rows, dtype=np.int64) for column in _PARSED_COLUMNS}
    columns["probes"] = np.empty((rows, len(PROBES)), dtype=np.int64)

    def fill(results: Iterator[RecordBatch]) -> None:
        for (c, r), series in zip(tasks, results):
            start = (c * plan.rounds + r) * n
            part = slice(start, start + n)
            for column in (*_PARSED_COLUMNS[2:], "probes"):
                columns[column][part] = getattr(series, column)
            columns["config_index"][part] = c
            columns["seed_index"][part] = 0

    run = partial(run_series, plan, channel, pipeline, n=n)
    # a process per series and CPU at most: the pool starts every one at once
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # its import costs every command ~20 ms

        with ProcessPoolExecutor(max_workers=workers) as pool:
            fill(pool.map(run, *zip(*tasks)))
    else:
        fill(map(run, *zip(*tasks)))
    return RecordBatch(
        names=tuple(name for name, _ in plan.configs),
        hashes=tuple(config.digest() for _, config in plan.configs),
        seeds=(plan.seed,),
        **columns,
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
    """Locate well-separated peaks of a latency histogram, whose edges ascend.

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
    # no lower than the bin to the left, higher than the bin to the right
    padded = np.concatenate(([-np.inf], counts, [-np.inf]))
    peaks = np.flatnonzero((counts >= floor) & (counts >= padded[:-2]) & (counts > padded[2:]))
    peaks = peaks[np.argsort(-counts[peaks], kind="stable")]  # tallest first, then leftmost
    # |a - b| grows with the distance between sorted floats, so a peak that
    # keeps clear of the nearest kept centre on each side keeps clear of all
    kept: list[float] = []
    min_sep = expected_spacing_us / 2.0
    for center in centers[peaks].tolist():
        at = bisect_left(kept, center)
        if (at == 0 or center - kept[at - 1] >= min_sep) and (at == len(kept) or kept[at] - center >= min_sep):
            kept.insert(at, center)

    positions = []
    half_window = expected_spacing_us / 4.0
    ascending = centers.tolist()
    for center in kept:
        # the bins within the window, a run of the ascending centers
        lo = bisect_left(ascending, True, key=lambda c: center - c <= half_window)
        hi = bisect_left(ascending, True, lo=lo, key=lambda c: c - center > half_window)
        weight = counts[lo:hi].sum()
        positions.append(float((counts[lo:hi] * centers[lo:hi]).sum() / weight))
    return tuple(sorted(positions))


def _interval_ticks(
    batch: RecordBatch, interval: tuple[str, str], rows: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, int]:
    """Interval durations in ticks over the `rows` (a boolean mask) with
    both probes, in row order, and the count of those without them.  Only
    the two probe columns are read."""
    start, end = interval
    if start not in PROBES or end not in PROBES:
        raise ValueError(f"unknown probe pair {interval!r}")
    # a column view, then the mask: numpy's fast 1-D path
    a = batch.probes[:, PROBES.index(start)][rows]
    b = batch.probes[:, PROBES.index(end)][rows]
    present = (a >= 0) & (b >= 0)
    ticks = b[present]
    ticks -= a[present]
    return ticks, len(a) - int(np.count_nonzero(present))


def _histogram(values_us: np.ndarray, bin_width_us: float) -> tuple[np.ndarray, np.ndarray]:
    lo = np.floor(values_us[0] / bin_width_us) * bin_width_us
    hi = np.ceil(values_us[-1] / bin_width_us) * bin_width_us
    n_bins = max(1, int(round((hi - lo) / bin_width_us)))
    if n_bins > MAX_HISTOGRAM_BINS:
        raise DomainError(
            f"latencies from {values_us[0]} to {values_us[-1]} us span more than "
            f"{MAX_HISTOGRAM_BINS} histogram bins of {bin_width_us} us"
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
    return _summary(np.array(samples, dtype=float), 0, 1.0, bin_width_us, mode_spacing_us)


def _summary(
    values: np.ndarray,
    n_lost: int,
    scale: float,
    bin_width_us: float = DEFAULT_HISTOGRAM_BIN_US,
    mode_spacing_us: float = DEFAULT_MODE_SPACING_US,
) -> SummaryStats:
    """Statistics of `values`, which are `scale` per microsecond; sorts
    them in place."""
    if values.size == 0:
        raise EmptyInputError("no delivered samples to summarize")
    values.sort()
    counts, edges = _histogram(values / scale, bin_width_us)
    return SummaryStats(
        n=int(values.size),
        n_lost=n_lost,
        mean_us=float(values.mean() / scale),
        median_us=float(_median(values) / scale),
        sd_us=float(values.std() / scale),
        p99_us=float(_percentile_99(values) / scale),
        hist_counts=tuple(counts.tolist()),
        hist_edges=tuple(edges.tolist()),
        modes_us=detect_modes(counts, edges, mode_spacing_us),
    )


def _median(values: np.ndarray) -> float:
    """`np.median(values)` of sorted `values`, bit for bit: the mean of the
    middle one or two as np.mean forms it, a float sum that starts from 0.0
    (so -0.0 reads 0.0), over the count.  np.median itself would import
    numpy.ma on float input."""
    middle = values.size // 2
    if values.size % 2:
        return 0.0 + float(values[middle])
    return (0.0 + float(values[middle - 1]) + float(values[middle])) / 2


def _percentile_99(values: np.ndarray):
    """`np.percentile(values, 99)` of sorted `values`, bit for bit: numpy's
    "linear" rule, which interpolates between the neighbours of the virtual
    index (n - 1) * 0.99.  np.percentile itself would import numpy.ma."""
    index = (values.size - 1) * np.true_divide(99, 100)
    if index >= values.size - 1:  # numpy takes the last value twice, a gamma past 1
        below, above, gamma = -1, -1, index + 1
    else:
        below = int(index)
        above, gamma = below + 1, index - below
    a, b = values[below], values[above]
    d = b - a
    return b - d * (1 - gamma) if gamma >= 0.5 else a + d * gamma


def _config_order(batch: RecordBatch) -> list[int]:
    """Indices of the configs that have rows, in order of first appearance."""
    present = np.flatnonzero(np.bincount(batch.config_index)).tolist()
    return sorted(present, key=lambda index: int(np.argmax(batch.config_index == index)))


# --- persistence --------------------------------------------------------------

_BLOCK_BYTES = 1 << 19  # bytes of a results file read at a time; their whole lines are parsed together
_WRITE_ROWS = 2048  # rows rendered and written at a time
_UNUSED = -1  # a byte of a written cell's block that the cell leaves out
_MAX_DIGITS = 17  # digits in a number cell: ten times the value still fits in an int64


def _csv_field(text: str) -> str:
    """`text` as the csv module writes it in a row of several fields."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow((text, ""))
    return line.getvalue()[: -len(",\n")]


def _number_cells(values: np.ndarray, min_digits: int = 1) -> np.ndarray:
    """Each of `values` in digits, at least `min_digits`, right-aligned as wide as the largest needs; -1 is empty."""
    if values.min(initial=-1) < -1:  # it would write no digit, which reads back as -1
        raise SchemaError(f"cannot write {values.min()} in a results cell: only -1, an empty cell, is negative")
    if values.max(initial=0) >= 10**_MAX_DIGITS:  # the parser refuses a longer cell
        raise SchemaError(f"cannot write {values.max()} in a results cell: a cell holds at most {_MAX_DIGITS} digits")
    width = max(min_digits, len(str(int(values.max(initial=0)))))
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    # a place is written from the value's leading digit on, and the last min_digits places always
    lowest = np.where(np.arange(width) < width - min_digits, powers, 0)
    column = values[:, None]
    return np.where(column >= lowest, column // powers % 10 + ord("0"), _UNUSED).astype(np.int16)


def _time_cells(ticks: np.ndarray) -> np.ndarray:
    """Each of `ticks` in microseconds: the tick digits, at least two, with a point before the last."""
    point = np.where(ticks >= 0, ord("."), _UNUSED)
    return np.insert(_number_cells(ticks, min_digits=2), -1, point, axis=1)


def _byte_table(texts: Iterator[str]) -> np.ndarray:
    """The UTF-8 bytes of each of `texts`, left-aligned in its row of a table as wide as the longest."""
    encoded = [text.encode() for text in texts]
    lengths = np.array([len(text) for text in encoded], dtype=np.int64)
    table = np.full((len(encoded), lengths.max(initial=0)), _UNUSED, dtype=np.int16)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return table


def _csv_rows(batch: RecordBatch, rows: slice, names: np.ndarray, seeds: np.ndarray, outcomes: np.ndarray) -> bytes:
    """The CSV lines of `batch`'s `rows`: its cells side by side with their separators, bytes in use in order."""
    cells = [
        names[batch.config_index[rows]],
        _number_cells(batch.round_index[rows]),
        _number_cells(batch.attempt[rows]),
        seeds[batch.seed_index[rows]],
        *map(_time_cells, batch.probes[rows].T),
        _number_cells(batch.delivered_copy[rows]),
        outcomes[batch.outcome[rows]],
        _number_cells(batch.duplicates_suppressed[rows]),
        _number_cells(batch.duplicates_delivered[rows]),
    ]
    comma = np.full((len(cells[0]), 1), ord(","), dtype=np.int16)
    text = np.concatenate([block for cell in cells for block in (cell, comma)], axis=1)
    text[:, -1] = ord("\n")  # the last separator ends the line
    return text[text != _UNUSED].astype(np.uint8).tobytes()


def _write_csv(batch: RecordBatch, fh: io.BufferedIOBase) -> None:
    """The results CSV of `batch` to the binary file `fh`, _WRITE_ROWS rows at a time."""
    fh.write(f"# {RESULTS_FORMAT}\n# tool=esbsim {__version__}\n# rng={RNG_ALGORITHM}\n".encode())
    used = np.bincount(batch.seed_index, minlength=len(batch.seeds))
    seeds = sorted(batch.seeds[i] for i in np.flatnonzero(used).tolist())
    if seeds:
        fh.write(f"# seed={','.join(map(str, seeds))}\n".encode())
    for index in _config_order(batch):
        name = batch.names[index]
        # the parser ends a line at every "\n", and the csv module leaves a "\r" unquoted
        if "\n" in name or "\r" in name:
            raise SchemaError(f"config name {name!r} contains a line break")
        fh.write(f"# config {name} hash={batch.hashes[index]}\n".encode())
    fh.write((",".join(CSV_COLUMNS) + "\n").encode())

    name_table = _byte_table(map(_csv_field, batch.names))
    seed_table = _byte_table(map(str, batch.seeds))
    outcome_table = _byte_table(outcome.value for outcome in OUTCOMES)
    for start in range(0, len(batch), _WRITE_ROWS):
        fh.write(_csv_rows(batch, slice(start, start + _WRITE_ROWS), name_table, seed_table, outcome_table))


def write_results(batch: RecordBatch, path) -> None:
    """Write `batch` to `path` as a results CSV with provenance header
    comments; `read_results` reads its rows back.

    The file appears whole or not at all: it is written to a temporary file
    beside `path`, which replaces `path` once complete and is removed on
    failure.  Beyond the columns it holds one chunk of rows and their text.
    """
    temp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as fh:
            _write_csv(batch, fh)
        os.replace(temp, path)
    except BaseException:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise


_OUTCOME_CODES = {outcome.value.encode(): code for code, outcome in enumerate(OUTCOMES)}
_SEPARATORS = len(CSV_COLUMNS) - 1  # the commas that end a row's cells before its last


def _decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, tenths: bool, empty_ok: bool):
    """The cells buf[starts[i]:ends[i]] of decimal digits as int64, -1 for an
    empty cell.  With `tenths` a cell is a time in microseconds with at most
    one decimal place, and comes back in ticks.  Also returns a mask of the
    malformed cells.

    The cells are read from their last byte back, one place of all of them
    at a time, each digit added at its place value; a cell longer than
    _MAX_DIGITS + 1 is too long anyway, so the loop need not reach its start.
    """
    width = ends - starts
    places = min(int(width.max(initial=0)), _MAX_DIGITS + 1)
    inside_width = np.minimum(width, places).astype(np.uint8)
    value = np.zeros(len(starts), dtype=np.int64)
    bad = np.zeros(len(starts), dtype=bool) if empty_ok else width == 0
    point = np.zeros(len(starts), dtype=bool)
    at = ends - 1  # an offset left of the buffer wraps round, to a byte outside the cell
    for place in range(places):
        char = buf.take(at)
        at -= 1
        digit = char - np.uint8(ord("0"))  # wraps round below "0"
        inside = inside_width > place
        other = digit >= 10
        if tenths and place == 1:
            # a point sits between a digit and the one digit that ends its cell
            point = (char == ord(".")) & (width >= 3)
            other &= ~point
            digit *= ~point
        bad |= inside & other
        digit *= inside > other
        value += digit * np.int64(10**place)
    bad |= width - point > _MAX_DIGITS
    if tenths:
        # ticks, in place: a cell in whole us times ten; a point cell has its
        # tenth at place 0 and its units from place 2, 90 too many per hundred
        units = value // 100
        units *= 90
        np.multiply(value, TICKS_PER_US, out=value, where=~point)
        np.subtract(value, units, out=value, where=point)
    value[width == 0] = -1
    return value, bad


class _Rows:
    """The data rows of a block of lines in the bytes `buf`, each split at
    its last 15 commas, so that only the config name may hold a comma.
    Blank and whitespace-only lines are dropped.  Cells are located by the
    offsets of the separators that end them; only distinct text cells and
    the lines with too few commas are decoded.

    A malformed line leaves its row's values undefined and is recorded in
    `fault` as (line number, message): the first in line order, and on that
    line the first check to fail, so the fault reported does not depend on
    where the blocks end."""

    def __init__(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, first_line: int):
        self.buf = buf
        self.fault: tuple[int, str] | None = None
        commas = np.flatnonzero(buf == ord(","))
        last = np.searchsorted(commas, ends)  # one past each line's last comma
        few = last - np.searchsorted(commas, starts) < _SEPARATORS
        line_numbers = np.arange(first_line, first_line + len(starts))
        for i in np.flatnonzero(few).tolist():  # blank, or a short row
            line = buf[starts[i] : ends[i]].tobytes().decode()
            if line.strip():
                # the csv module would end the record at a "\r", a byte of its cell here
                fields = len(next(csv.reader([line.replace("\r", " ")])))
                self.fail(line_numbers[i], f"row with {fields} fields, expected {len(CSV_COLUMNS)}")
                break
        rows = ~few
        self.line_numbers, self.row_starts, last = line_numbers[rows], starts[rows], last[rows]
        # ends[i, j]: the comma or line end after cell j of row i
        self.ends = np.column_stack((commas[last[:, None] + np.arange(-_SEPARATORS, 0)], ends[rows]))

    def __len__(self) -> int:
        return len(self.line_numbers)

    def fail(self, line: int, message: str) -> None:
        """Record a fault at `line` unless one at an earlier or the same line is."""
        if self.fault is None or line < self.fault[0]:
            self.fault = (int(line), message)

    def bounds(self, columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Start and end offsets of the cells of `columns`, one array row each."""
        starts = [self.row_starts if c == 0 else self.ends[:, c - 1] + 1 for c in columns]
        return np.array(starts), self.ends[:, columns].T

    def codes(self, column: int, codes: dict[bytes, int], new_code) -> np.ndarray:
        """The code of each cell of `column` in `codes`, keyed by the cell's
        bytes.  A cell not seen before gets `new_code` of its text, so each
        distinct cell is decoded and converted once, in order of first
        appearance.  Equal cells are found a width at a time, as equal rows of
        a table of the cells' bytes."""
        (starts,), (ends,) = self.bounds([column])
        widths = ends - starts
        groups = []  # per width: its rows, the distinct cells and the one of each row
        firsts = []  # (row, cell) of the first row of each distinct cell
        for width in np.flatnonzero(np.bincount(widths)).tolist():
            rows = np.flatnonzero(widths == width)
            if width:
                table = sliding_window_view(self.buf, width)[starts[rows]]
                keys = table.view(np.dtype((np.void, width))).ravel()
                distinct, first, index = np.unique(keys, return_index=True, return_inverse=True)
                cells = [key.tobytes() for key in distinct]
            else:  # no bytes to compare: every empty cell is the one cell b""
                cells, first, index = [b""], [0], np.zeros(len(rows), dtype=np.int64)
            groups.append((rows, cells, index))
            firsts += zip(rows[first].tolist(), cells)
        out = np.empty(len(self), dtype=np.int64)
        for row, cell in sorted(firsts):
            if cell not in codes:
                text = cell.decode()
                try:
                    codes[cell] = new_code(text)
                except ValueError as exc:  # the first bad cell of the column
                    self.fail(self.line_numbers[row], f"{CSV_COLUMNS[column]} {text!r} {exc}")
                    return out
        for rows, cells, index in groups:
            out[rows] = np.array([codes[cell] for cell in cells], dtype=np.int64)[index]
        return out

    def numbers(self, columns: list[int], tenths: bool = False, empty_ok: bool = False) -> np.ndarray:
        """The numeric `columns`, one array row each."""
        starts, ends = (bounds.ravel() for bounds in self.bounds(columns))
        values, bad = _decimals(self.buf, starts, ends, tenths, empty_ok)
        bad = bad.reshape(len(columns), len(self))
        if bad.any():  # the first row with a bad cell, and its first bad cell
            i = int(np.argmax(bad.any(axis=0)))
            k = int(np.argmax(bad[:, i]))
            cell = self.buf[starts[k * len(self) + i] : ends[k * len(self) + i]].tobytes().decode()
            what = "a time in us with at most one decimal place" if tenths else "a non-negative integer"
            if len(cell) - ("." in cell) > _MAX_DIGITS:
                what += f": a cell holds at most {_MAX_DIGITS} digits"
            self.fail(self.line_numbers[i], f"{CSV_COLUMNS[columns[k]]} {cell!r} is not {what}")
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
    raise ValueError(f"is not one of {', '.join(outcome.value for outcome in OUTCOMES)}")


def _source_blocks(source: str | BinaryIO) -> Iterator[bytes]:
    """The UTF-8 of `source`, a str or a binary file, _BLOCK_BYTES bytes at a
    time.  The bytes are checked as they are read: a block holding a byte
    that is not UTF-8, or a source that ends inside a character, raises
    UnicodeDecodeError."""
    if isinstance(source, str):
        source = io.BytesIO(source.encode())
    check = codecs.getincrementaldecoder("utf-8")().decode
    for block in iter(partial(source.read, _BLOCK_BYTES), b""):
        check(block)
        yield block
    check(b"", final=True)


def _lines(source: str | BinaryIO) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """The lines of the text of `source`, a block of whole lines at a time:
    the block's bytes, the offsets where each line starts and ends, and the
    number of its first line.  A line ends at "\\n" or at the end of the
    text, and a "\\r" just before its end is dropped.  A block is the last
    one's unended line and the next _BLOCK_BYTES bytes, cut after their
    last "\\n"."""
    carry, line_no = b"", 1
    for block in chain(_source_blocks(source), [b"\n"]):  # the "\n" ends the last line
        data = carry + block
        whole = data.rfind(b"\n") + 1
        carry = data[whole:]
        buf = np.frombuffer(data, dtype=np.uint8, count=whole)
        breaks = np.flatnonzero(buf == ord("\n"))
        # clipped, a "\n" at offset 0 looks at itself, which is no "\r"
        ends = breaks - (np.take(buf, breaks - 1, mode="clip") == ord("\r"))
        yield buf, np.concatenate(([0], breaks + 1))[:-1], ends, line_no
        line_no += len(breaks)


def _header(lines: Iterator) -> tuple[list[str], str | None, Iterator]:
    """The comment lines before the column header, the header (None if
    there is none) and the lines after it."""
    comments = []
    for buf, starts, ends, first in lines:
        for i, (start, end) in enumerate(zip(starts.tolist(), ends.tolist())):
            line = buf[start:end].tobytes().decode()
            if line.startswith("#"):
                comments.append(line)
            elif line.strip():
                return comments, line, chain([(buf, starts[i + 1 :], ends[i + 1 :], first + i + 1)], lines)
    return comments, None, iter(())


_COUNT_COLUMNS = ("round_index", "attempt", "duplicates_suppressed", "duplicates_delivered")
_PARSED_COLUMNS = ("config_index", "seed_index", *_COUNT_COLUMNS, "delivered_copy", "outcome")


def parse_results_csv(source: str | BinaryIO, into: ConfigTally | None = None) -> ConfigTally:
    """The records of a results CSV written with this format and RNG scheme,
    added to `into` a block at a time.

    `source` is the text or a binary file open for reading, whose bytes must
    be UTF-8.  A line ends at "\\n", which the writer writes, or at the end
    of the text, and a "\\r" just before its end is dropped, so "\\r\\n"
    ends a line too; every other byte, another "\\r" among them, is a cell's.
    It is read _BLOCK_BYTES bytes at a time, and the rows of each block of
    whole lines are decoded together, from bytes, into a RecordBatch over
    the side tables read so far, so a name or seed keeps its index from
    block to block.  Each block's batch goes to `into.add`, and `into` is
    returned; `into` may be any object with `add(batch)`.  Beyond what
    `into` keeps, it holds about one block and its cells at once.  Without
    `into` it is a new ConfigTally, whose `len()` is the rows added:
    `bench/check.py` counts the rows of a `str` that way.

    Comment lines end at the column header, so a data row whose config name
    starts with '#' stays a row.  A config line splits at its last " hash=",
    which keeps the hash of an empty name or a name with spaces.  Config
    names, seeds and outcomes are decoded and converted once per distinct
    cell and the numeric cells a column at a time.  The first malformed row
    raises SchemaError with its line number before its block is added; a
    probe must be a time on the 0.1 us grid.
    """
    comments, header, lines = _header(_lines(source))
    for expected in (f"# {RESULTS_FORMAT}", f"# rng={RNG_ALGORITHM}"):
        if expected not in comments:
            raise SchemaError(f"results file lacks the {expected!r} header line")
    if header is None:
        raise SchemaError("no header row in results file")
    try:
        header_cells = tuple(next(csv.reader([header])))
    except csv.Error as exc:  # a "\r" outside quotes
        raise SchemaError(f"column header {header!r} is badly quoted ({exc})") from None
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
    name_codes: dict[bytes, int] = {}
    seed_codes: dict[bytes, int] = {}
    outcome_codes = dict(_OUTCOME_CODES)
    into = ConfigTally() if into is None else into
    for chunk in starmap(_Rows, lines):
        columns = dict(zip(_COUNT_COLUMNS, chunk.numbers([1, 2, 14, 15])))
        columns["config_index"] = chunk.codes(
            0, name_codes, lambda cell: names.setdefault(_decode_name(cell), len(names))
        )
        columns["seed_index"] = chunk.codes(
            3, seed_codes, lambda cell: seeds.setdefault(_parse_seed(cell), len(seeds))
        )
        columns["probes"] = chunk.numbers(list(range(4, 12)), tenths=True, empty_ok=True).T
        columns["delivered_copy"] = chunk.numbers([12], empty_ok=True)[0]
        columns["outcome"] = chunk.codes(13, outcome_codes, _unknown_outcome)
        if chunk.fault:
            raise SchemaError("line {}: {}".format(*chunk.fault))
        names_so_far = tuple(names)
        hashes_so_far = tuple(hashes.get(name, "") for name in names_so_far)
        into.add(RecordBatch(names=names_so_far, hashes=hashes_so_far, seeds=tuple(seeds), **columns))
        del chunk, columns  # free them before the next block is read
    return into


def read_results(path, into: ConfigTally) -> ConfigTally:
    """`parse_results_csv` of the file at `path`, opened in binary and read
    in blocks, into `into`."""
    with open(path, "rb") as fh:
        return parse_results_csv(fh, into)


REPORT_INTERVALS = (("d0", "d7"), ("d2", "d5"), ("d3", "d4"))


class ConfigTally:
    """What the summaries of record batches need, tallied one batch at a
    time, so that a results file is summarized as it is read: per config
    and interval the durations in ticks of the rows with both probes (8
    bytes each) and the count of the rows without, and per config the
    outcome and duplicate counts.  Each batch's side tables extend the last
    one's, as the blocks `parse_results_csv` reads do; `len()` is the rows
    added.  `summarize_by_config` and `accounting_by_config` finish it."""

    def __init__(self, intervals: Sequence[tuple[str, str]] = REPORT_INTERVALS):
        self.intervals = tuple(intervals)
        self.rows = 0
        self.names: tuple[str, ...] = ()
        self.order: list[int] = []  # config indices in order of first appearance
        self.ticks: list[list[list[np.ndarray]]] = []  # [config][interval]: the parts of its durations
        self.lost = np.zeros((0, len(self.intervals)), dtype=np.int64)
        self.outcomes = np.zeros((0, len(OUTCOMES)), dtype=np.int64)
        self.duplicates = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.rows

    def add(self, batch: RecordBatch) -> None:
        if batch.names[: len(self.names)] != self.names:
            raise ValueError(f"config names {batch.names!r} do not extend the tally's {self.names!r}")
        n_configs, new = len(batch.names), len(batch.names) - len(self.names)
        self.names = batch.names
        self.ticks += [[[] for _ in self.intervals] for _ in range(new)]
        self.lost, self.outcomes, self.duplicates = (
            np.concatenate((counts, np.zeros((new, *counts.shape[1:]), dtype=np.int64)))
            for counts in (self.lost, self.outcomes, self.duplicates)
        )
        self.rows += len(batch)

        groups = batch.config_index
        outcomes = np.bincount(groups * len(OUTCOMES) + batch.outcome, minlength=n_configs * len(OUTCOMES))
        self.outcomes += outcomes.reshape(n_configs, len(OUTCOMES))
        # the weights are small counts, so their float sums are exact
        duplicates = np.bincount(groups, weights=batch.duplicates_delivered, minlength=n_configs)
        self.duplicates += duplicates.astype(np.int64)
        present = _config_order(batch)
        self.order += [index for index in present if index not in self.order]
        for index in present:
            rows = groups == index
            for k, interval in enumerate(self.intervals):
                ticks, lost = _interval_ticks(batch, interval, rows)
                self.ticks[index][k].append(ticks)
                self.lost[index, k] += lost


def summarize_by_config(tally: ConfigTally) -> dict[str, dict[str, SummaryStats]]:
    """`summarize` of each of the tally's intervals over each config's rows,
    configs in order of first appearance; an interval no row of a config
    has is left out.  A config's durations are joined and sorted only here,
    after the last batch, and kept joined.  An interval wider than
    MAX_HISTOGRAM_BINS bins raises DomainError naming both."""
    out: dict[str, dict[str, SummaryStats]] = {}
    for index in tally.order:
        out[tally.names[index]] = stats = {}
        for k, interval in enumerate(tally.intervals):
            parts = tally.ticks[index][k]
            parts[:] = [np.concatenate(parts)]
            try:
                stats[interval[0] + interval[1]] = _summary(parts[0], int(tally.lost[index, k]), TICKS_PER_US)
            except EmptyInputError:
                continue
            except DomainError as exc:
                raise DomainError(f"config {tally.names[index]!r}, interval {'-'.join(interval)}: {exc}") from None
    return out


def accounting_by_config(tally: ConfigTally) -> dict[str, AccountingRow]:
    """Sent/received/unique/valid accounting of each config's rows, keyed by
    name in side-table order."""
    accounting = {}
    for name, counts, dups in zip(tally.names, tally.outcomes.tolist(), tally.duplicates.tolist()):
        sent = sum(counts)
        unique = sent - counts[LOST]
        valid = unique - counts[DELIVERED_CORRUPTED]
        accounting[name] = AccountingRow(sent=sent, received=unique + dups, unique=unique, valid=valid)
    return accounting


def render_report(tally: ConfigTally, summaries: Mapping[str, Mapping[str, SummaryStats]]) -> str:
    """Human-readable summary: per-config interval statistics (as computed by
    `summarize_by_config` of `tally`) plus packet accounting.  p99 is an
    extension beyond the mean/median/SD the reference protocol reports; lost
    attempts are excluded from latency statistics and shown as a separate
    count."""
    lines = []
    accounting = accounting_by_config(tally)
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
