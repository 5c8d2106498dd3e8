"""Measurement-protocol orchestration: rounds, statistics, persistence.

Mirrors the lab procedure: every configuration runs rounds x attempts.  A
series is made _CHUNK_ROWS attempts at a time, and the results writer and
the summaries' tally each take a chunk as it is made, so a command's memory
is set by the chunk, not by the series or the plan.  Latency statistics are
computed over delivered attempts only (a lost attempt never triggers the
downstream probes), and results round-trip through a CSV whose header
comments carry full provenance (seed, RNG algorithm, config hashes).
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, starmap
from operator import mul
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import __version__
from .analytics import AccountingRow, DomainError
from .config import ChannelModel, ConfigError, EsbConfig, validate
from .engine import RNG_ALGORITHM, TICKS_PER_US, us_to_ticks
from .link import (
    ATTEMPT_SPACING_US,
    DELIVERED_CORRUPTED,
    LOST,
    OUTCOMES,
    PROBES,
    PipelineModel,
    RecordBatch,
    check_copy_train,
    run_attempt_series,
)

DEFAULT_HISTOGRAM_BIN_US = 5.0
DEFAULT_MODE_SPACING_US = 435.0
MODE_FLOOR = 0.01  # a histogram peak below this share of the tallest bin is no mode
MAX_HISTOGRAM_BINS = 10**6  # a latency span wider than this many bins is refused, not allocated
_CHUNK_ROWS = 4096  # attempts made, and rows rendered and written, at a time

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
    """Named configs plus the round/attempt protocol and the run seed.
    `shuffle` has no effect: series run in file order, which no record depends on."""

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


def run_series(
    plan: SweepPlan,
    channel: ChannelModel,
    pipeline: PipelineModel,
    config_index: int,
    round_index: int,
    n: int,
) -> Iterator[RecordBatch]:
    """Attempts 0..n-1 of the plan's (config, round) series, made _CHUNK_ROWS
    at a time as they are taken.  A series whose copy train outruns the
    attempt spacing, or whose last start is too large for a results cell, is
    refused first.  Every command that simulates a config addresses its
    draws here: the plan seed, the config's index as namespace, the round
    and the attempt."""
    name, config = plan.configs[config_index]
    check_copy_train(config)
    if (last := (n - 1) * us_to_ticks(ATTEMPT_SPACING_US)) >= 10**_MAX_DIGITS:
        raise ConfigError(f"{n} attempts are too many: the last would start at {last // 10}.{last % 10} us, "
                          f"and a results cell holds at most {_MAX_DIGITS} digits")
    address = dict(seed=plan.seed, config_name=name, namespace=(config_index,), round_index=round_index)
    return (
        run_attempt_series(config, channel, pipeline, min(_CHUNK_ROWS, n - start), start_attempt=start, **address)
        for start in range(0, n, _CHUNK_ROWS)
    )


def _listed(run, *args) -> list[RecordBatch]:
    """The chunks of `run(*args)` in a list, which a pool worker can return."""
    return list(run(*args))


def run_sweep(
    plan: SweepPlan,
    channel: ChannelModel,
    pipeline: PipelineModel,
    workers: int = 1,
) -> Iterator[RecordBatch]:
    """The plan's (config, round) series in file order, by config, then by
    round, in chunks made as they are taken and over the plan's side tables.

    Every config's series is checked first, so a plan that cannot run
    fails before a chunk is made.  Each series is a `run_series` call,
    whose draws are addressed by the plan seed and its own indices, so the
    records are identical for any worker count and any execution order.
    At most `workers` processes run the series, and no more than there are
    series or CPUs; one runs them in this process.  With more, a worker
    returns a whole series, and those done before they are taken wait in it.
    """
    run = partial(run_series, plan, channel, pipeline, n=plan.attempts_per_round)
    for c in range(len(plan.configs)):
        run(c, 0)  # checks the config's series, and makes no chunk
    names = tuple(name for name, _ in plan.configs)
    hashes = tuple(config.digest() for _, config in plan.configs)
    tasks = [(c, r) for c in range(len(plan.configs)) for r in range(plan.rounds)]
    # a process per series and CPU at most: the pool starts every one at once
    workers = min(workers, len(tasks), os.cpu_count() or 1)

    def series() -> Iterator[Iterable[RecordBatch]]:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # its import costs every command ~20 ms

            with ProcessPoolExecutor(max_workers=workers) as pool:
                yield from pool.map(partial(_listed, run), *zip(*tasks))
        else:
            yield from map(run, *zip(*tasks))

    return (
        replace(batch, names=names, hashes=hashes, config_index=batch.config_index + c)
        for (c, _), chunks in zip(tasks, series())
        for batch in chunks
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
    expected_spacing_us: float,
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


def _interval_ticks(batch: RecordBatch, interval: tuple[str, str], rows) -> tuple[np.ndarray, int]:
    """Interval durations in ticks over the `rows` (a boolean mask or a
    slice) with both probes, in row order, and the count of those without
    them.  Only the two probe columns are read."""
    start, end = interval
    if start not in PROBES or end not in PROBES:
        raise ValueError(f"unknown probe pair {interval!r}")
    # a column view, then the mask: numpy's fast 1-D path
    a = batch.probes[:, PROBES.index(start)][rows]
    b = batch.probes[:, PROBES.index(end)][rows]
    present = (a >= 0) & (b >= 0)
    return (b - a)[present], len(a) - int(np.count_nonzero(present))


def _histogram(values_us: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    width = DEFAULT_HISTOGRAM_BIN_US
    lo = np.floor(values_us[0] / width) * width
    hi = np.ceil(values_us[-1] / width) * width
    n_bins = max(1, int(round((hi - lo) / width)))
    if n_bins > MAX_HISTOGRAM_BINS:
        raise DomainError(
            f"latencies from {values_us[0]} to {values_us[-1]} us span more than "
            f"{MAX_HISTOGRAM_BINS} histogram bins of {width} us"
        )
    return np.histogram(values_us, bins=n_bins, range=(lo, lo + n_bins * width), weights=counts)


def _summary(values: np.ndarray, counts: np.ndarray, n_lost: int) -> SummaryStats:
    """Statistics of the rows at ascending distinct int64 `values` in
    ticks, `counts` at each: the mean and SD from exact integer sums, the
    rest as numpy gives them over the rows."""
    if values.size == 0:
        raise EmptyInputError("no delivered samples to summarize")
    ticks, weights = values.tolist(), counts.tolist()  # Python ints: the sums are exact
    n = sum(weights)
    s1 = sum(weighted := list(map(mul, weights, ticks)))
    s2 = sum(map(mul, weighted, ticks))
    median, p99 = _order_statistics(values, np.cumsum(counts))
    hist_counts, edges = _histogram(values / TICKS_PER_US, counts)
    return SummaryStats(
        n=n,
        n_lost=n_lost,
        mean_us=s1 / n / TICKS_PER_US,
        median_us=median / TICKS_PER_US,
        sd_us=math.sqrt((n * s2 - s1 * s1) / (n * n)) / TICKS_PER_US,
        p99_us=p99 / TICKS_PER_US,
        hist_counts=tuple(hist_counts.tolist()),
        hist_edges=tuple(edges.tolist()),
        modes_us=detect_modes(hist_counts, edges, DEFAULT_MODE_SPACING_US),
    )


def _order_statistics(values: np.ndarray, cumulative: np.ndarray) -> tuple[float, float]:
    """`np.median` and `np.percentile(rows, 99)` of the rows, bit for bit,
    given their ascending distinct int64 `values` and the running count of
    rows up to each.  The median is the mean of the middle one or two as a
    float64; p99 is numpy's "linear" rule, which interpolates between the
    neighbours of the virtual index (n - 1) * 0.99.  Either numpy function
    would import numpy.ma."""
    n = int(cumulative[-1])
    index = (n - 1) * np.true_divide(99, 100)
    below, gamma = int(index), index - int(index)
    ranks = [(n - 1) // 2, n // 2, below, min(below + 1, n - 1)]
    low, high, a, b = values[np.searchsorted(cumulative, ranks, side="right")]
    d = b - a
    return (float(low) + float(high)) / 2, float(b - d * (1 - gamma) if gamma >= 0.5 else a + d * gamma)


# --- persistence --------------------------------------------------------------

# bytes of a results file read at a time; their whole lines are parsed together, in about seven times as many
# bytes.  Each block also costs ~0.9 ms of numpy calls whatever its rows: for a 200k-row file, 128 KiB blocks
# took ~40% longer to read than 256 KiB, and 512 KiB held 1.2-1.7 MB more (2 vCPUs)
_BLOCK_BYTES = 1 << 18
_UNUSED = 0xFF  # a byte of a written cell's block that the cell leaves out: no UTF-8 text has it
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
    digits = np.empty((len(values), width), dtype=np.uint8)
    quotient = values
    for place in range(width - 1, -1, -1):  # from the last place: one division by 10 a place
        rest = quotient // 10  # numpy divides by a scalar fast, which np.divmod does not
        digits[:, place] = quotient - rest * 10
        quotient = rest
    digits += ord("0")
    return np.where(values[:, None] >= lowest, digits, np.uint8(_UNUSED))


def _time_cells(ticks: np.ndarray) -> np.ndarray:
    """Each of `ticks` in microseconds: the tick digits, at least two, with a point before the last."""
    point = np.where(ticks >= 0, np.uint8(ord(".")), np.uint8(_UNUSED))
    return np.insert(_number_cells(ticks, min_digits=2), -1, point, axis=1)


def _byte_table(texts: Iterator[str]) -> np.ndarray:
    """The UTF-8 bytes of each of `texts`, left-aligned in its row of a table as wide as the longest."""
    encoded = [text.encode() for text in texts]
    lengths = np.array([len(text) for text in encoded], dtype=np.int64)
    table = np.full((len(encoded), lengths.max(initial=0)), _UNUSED, dtype=np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = np.frombuffer(b"".join(encoded), dtype=np.uint8)
    return table


def _csv_rows(batch: RecordBatch, rows: slice, names: np.ndarray, seeds: np.ndarray, outcomes: np.ndarray):
    """The CSV lines of `batch`'s `rows`, uint8: its cells side by side with their separators, bytes in use in order."""
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
    comma = np.full((len(cells[0]), 1), ord(","), dtype=np.uint8)
    text = np.concatenate([block for cell in cells for block in (cell, comma)], axis=1)
    text[:, -1] = ord("\n")  # the last separator ends the line
    return text[text != _UNUSED]


def _csv_header(names: Sequence[str], hashes: Sequence[str], seeds: Sequence[int]) -> bytes:
    """The provenance comments naming the side tables, and the column header."""
    lines = [f"# {RESULTS_FORMAT}", f"# tool=esbsim {__version__}", f"# rng={RNG_ALGORITHM}"]
    lines += [f"# seed={','.join(map(str, sorted(seeds)))}"] if seeds else []
    for name, config_hash in zip(names, hashes):
        # the parser ends a line at every "\n", and the csv module leaves a "\r" unquoted
        if "\n" in name or "\r" in name:
            raise SchemaError(f"config name {name!r} contains a line break")
        lines.append(f"# config {name} hash={config_hash}")
    return "".join(line + "\n" for line in [*lines, ",".join(CSV_COLUMNS)]).encode()


def _write_csv(batches: Iterable[RecordBatch], fh: io.BufferedIOBase) -> None:
    """The results CSV of the rows of `batches` to the binary file `fh`,
    _CHUNK_ROWS rows at a time, under a header that names the side tables
    of the first."""
    tables = None
    for batch in batches:
        if tables is None:
            tables = (batch.names, batch.hashes, batch.seeds)
            fh.write(_csv_header(*tables))
            cell_tables = (
                _byte_table(map(_csv_field, batch.names)),
                _byte_table(map(str, batch.seeds)),
                _byte_table(outcome.value for outcome in OUTCOMES),
            )
        elif (batch.names, batch.hashes, batch.seeds) != tables:
            raise ValueError("every batch of a results file needs the side tables of the first")
        for start in range(0, len(batch), _CHUNK_ROWS):
            fh.write(_csv_rows(batch, slice(start, start + _CHUNK_ROWS), *cell_tables))
    if tables is None:
        fh.write(_csv_header((), (), ()))


def write_results(batches: Iterable[RecordBatch], path) -> None:
    """Write the rows of `batches`, in order, to `path` as a results CSV
    with provenance header comments; `read_results` reads them back.

    The header names the side tables of the first batch, which every batch
    must share.  The file appears whole or not at all: it is written to a
    temporary file beside `path`, which replaces `path` once complete and
    is removed on any failure, one to make a batch too.  Beyond the batch
    in hand it holds one chunk of rows and their text.
    """
    temp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temp, "wb") as fh:
            _write_csv(batches, fh)
        os.replace(temp, path)
    except BaseException:
        try:
            os.remove(temp)
        except OSError:
            pass
        raise


_OUTCOME_CODES = {outcome.value.encode(): code for code, outcome in enumerate(OUTCOMES)}
_SEPARATORS = len(CSV_COLUMNS) - 1  # the commas that end a row's cells before its last


def _decimals(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, tenths: bool):
    """The cells buf[start:end] of the offsets in `starts` and `ends`, two-
    dimensional arrays, of decimal digits, as int64 of their shape, -1 for
    an empty cell.  With `tenths` a cell is a time in microseconds with at
    most one decimal place, and comes back in ticks.  Also returns a mask of
    the malformed cells, whose values are undefined; an empty cell is not
    one.

    The cells are read from their last byte back, one place of all of them
    at a time, each digit added at its place value; a cell longer than
    _MAX_DIGITS + 1 is too long anyway, so the loop need not reach its start.
    """
    width = ends - starts
    places = min(int(width.max(initial=0)), _MAX_DIGITS + 1)
    inside = np.arange(places)[:, None, None] < width  # inside[place]: the cells that reach the place
    value = np.zeros(width.shape, dtype=np.int64)
    worst = np.zeros(width.shape, dtype=np.uint8)  # the largest "digit" of a cell: 10 or more is no digit
    point = np.zeros(width.shape, dtype=bool)
    at = ends - 1  # an offset left of the buffer wraps round, to a byte outside the cell
    for place in range(places):
        digit = buf.take(at) - np.uint8(ord("0"))  # wraps round below "0"
        at -= 1
        digit *= inside[place]
        if tenths and place == 1:
            # a point sits between a digit and the one digit that ends its cell
            point = (digit == np.uint8((ord(".") - ord("0")) % 256)) & (width >= 3)
            digit *= ~point
        np.maximum(worst, digit, out=worst)
        value += digit * np.int64(10**place)
    bad = (worst >= 10) | (width - point > _MAX_DIGITS)
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
    offsets of the separators around them; only distinct text cells and
    the lines with too few commas are decoded.

    A malformed line leaves its row's values undefined and is recorded in
    `fault` as (line number, column, message): the first in line order, and
    on that line the first in column order, a short row before its cells, so
    the fault reported depends neither on where the blocks end nor on the
    order the columns are decoded in."""

    def __init__(self, buf: np.ndarray, starts: np.ndarray, ends: np.ndarray, first_line: int):
        self.buf = buf
        self.fault: tuple[int, int, str] | None = None
        commas = np.flatnonzero(buf == ord(","))
        last = np.searchsorted(commas, ends)  # one past each line's last comma
        few = last - np.searchsorted(commas, starts) < _SEPARATORS
        line_numbers = np.arange(first_line, first_line + len(starts))
        for i in np.flatnonzero(few).tolist():  # blank, or a short row
            line = buf[starts[i] : ends[i]].tobytes().decode()
            if line.strip():
                # the csv module would end the record at a "\r", a byte of its cell here
                fields = len(next(csv.reader([line.replace("\r", " ")])))
                self.fail(line_numbers[i], -1, f"row with {fields} fields, expected {len(CSV_COLUMNS)}")
                break
        rows = ~few
        self.line_numbers, last = line_numbers[rows], last[rows]
        # separators[j, i]: the byte before cell j of row i, and after cell j - 1: a comma, or the line's edge
        self.separators = np.vstack(
            (starts[rows] - 1, commas[np.arange(-_SEPARATORS, 0)[:, None] + last], ends[rows])
        )

    def __len__(self) -> int:
        return len(self.line_numbers)

    def fail(self, line: int, column: int, message: str) -> None:
        """Record a fault at `line` and `column` unless one before it is."""
        if self.fault is None or (line, column) < self.fault[:2]:
            self.fault = (int(line), column, message)

    def bounds(self, columns: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Start and end offsets of the cells of `columns`, one array row each."""
        return self.separators[columns] + 1, self.separators[[c + 1 for c in columns]]

    def codes(self, column: int, codes: dict[bytes, int], new_code) -> np.ndarray:
        """The code of each cell of `column` in `codes`, keyed by the cell's
        bytes.  A cell not seen before gets `new_code` of its text, so each
        distinct cell is decoded and converted once, in order of first
        appearance.  Equal cells are found a width at a time, each cell one
        item of its bytes; a width whose cells are all one needs no sort."""
        (starts,), (ends,) = self.bounds([column])
        widths = ends - starts
        groups = []  # per width: its rows, the distinct cells and the one of each row
        firsts = []  # (row, cell) of the first row of each distinct cell
        for width in np.flatnonzero(np.bincount(widths)).tolist():
            rows = (widths == width).nonzero()[0]
            distinct, first, index = [b""], [0], np.zeros(len(rows), dtype=np.int64)  # one cell, as in most blocks
            if width:  # each cell one item, from a view of the block with an item at every byte
                items = np.ndarray((len(self.buf) - width + 1,), np.dtype((np.void, width)), self.buf, 0, (1,))
                keys = items[starts[rows]]
                distinct = keys[:1]
                if not (keys == keys[0]).all():
                    distinct, first, index = np.unique(keys, return_index=True, return_inverse=True)
            cells = [bytes(key) for key in distinct]
            groups.append((rows, cells, index))
            firsts += zip(rows[first].tolist(), cells)
        out = np.empty(len(self), dtype=np.int64)
        for row, cell in sorted(firsts):
            if cell not in codes:
                text = cell.decode()
                try:
                    codes[cell] = new_code(text)
                except ValueError as exc:  # the first bad cell of the column
                    self.fail(self.line_numbers[row], column, f"{CSV_COLUMNS[column]} {text!r} {exc}")
                    return out
        for rows, cells, index in groups:
            out[rows] = np.array([codes[cell] for cell in cells], dtype=np.int64)[index]
        return out

    def numbers(self, columns: list[int], tenths: bool = False, empty_ok: Sequence[int] = ()) -> np.ndarray:
        """The numeric `columns`, one array row each; a cell of a column in
        `empty_ok` may be empty."""
        starts, ends = self.bounds(columns)
        values, bad = _decimals(self.buf, starts, ends, tenths)
        bad |= (values < 0) & np.array([[c not in empty_ok] for c in columns])
        if bad.any():  # the first row with a bad cell, and its first bad cell
            i = int(np.argmax(bad.any(axis=0)))
            k = int(np.argmax(bad[:, i]))
            cell = self.buf[starts[k, i] : ends[k, i]].tobytes().decode()
            what = "a time in us with at most one decimal place" if tenths else "a non-negative integer"
            if len(cell) - ("." in cell) > _MAX_DIGITS:
                what += f": a cell holds at most {_MAX_DIGITS} digits"
            self.fail(self.line_numbers[i], columns[k], f"{CSV_COLUMNS[columns[k]]} {cell!r} is not {what}")
        return values


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


def _lines(source: str | BinaryIO) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, int]]:
    """The lines of the UTF-8 of `source`, a str or a binary file, a block
    of whole lines at a time: the block's bytes, the offsets where each line
    starts and ends, and the number of its first line.  A line ends at "\\n"
    or at the end of the text, and a "\\r" just before its end is dropped.
    A block is the last one's unended line and the next _BLOCK_BYTES bytes,
    cut after their last "\\n"; only the block's one copy of them is kept.
    The bytes are checked as they are read: a byte that is not UTF-8, or a
    source that ends inside a character, raises UnicodeDecodeError."""
    if isinstance(source, str):
        source = io.BytesIO(source.encode())
    check = codecs.getincrementaldecoder("utf-8")().decode
    carry, line_no, more = b"", 1, True
    while more:
        block = source.read(_BLOCK_BYTES)
        more = bool(block)
        check(block, final=not more)
        data = carry + (block or b"\n")  # the "\n" ends the last line
        del block
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


_COUNT_COLUMNS = ("round_index", "attempt", "delivered_copy", "duplicates_suppressed", "duplicates_delivered")


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
    `into` keeps, it holds one copy of a block's bytes, the offsets of its
    cells and its columns, and decodes at most five columns' cells at once:
    about seven times _BLOCK_BYTES in all.  Without `into` it is a new
    ConfigTally, whose `len()` is the rows added: `bench/check.py` counts
    the rows of a `str` that way.

    Comment lines end at the column header, so a data row whose config name
    starts with '#' stays a row.  A config line splits at its last " hash=",
    which keeps the hash of an empty name or a name with spaces.  Config
    names, seeds and outcomes are decoded and converted once per distinct
    cell and the numeric cells a column at a time.  The first malformed row
    raises SchemaError with its line number and its leftmost bad cell before
    its block is added; a probe must be a time on the 0.1 us grid.
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
        columns = dict(zip(_COUNT_COLUMNS, chunk.numbers([1, 2, 12, 14, 15], empty_ok=[12])))
        columns["config_index"] = chunk.codes(
            0, name_codes, lambda cell: names.setdefault(_decode_name(cell), len(names))
        )
        columns["seed_index"] = chunk.codes(
            3, seed_codes, lambda cell: seeds.setdefault(_parse_seed(cell), len(seeds))
        )
        probes = np.empty((len(PROBES), len(chunk)), dtype=np.int64)
        for half in (slice(0, 4), slice(4, 8)):  # the cells decoded at once set the block's working set
            probes[half] = chunk.numbers(list(range(4, 12)[half]), tenths=True, empty_ok=range(4, 12))
        columns["probes"] = probes.T
        columns["outcome"] = chunk.codes(13, outcome_codes, _unknown_outcome)
        if chunk.fault:
            raise SchemaError("line {}: {}".format(*chunk.fault[::2]))
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
    and interval the distinct durations in ticks of the rows with both
    probes and the rows at each, and the count of the rows without, and per
    config the outcome and duplicate counts.  Each batch's side tables
    extend the last one's, as the blocks `parse_results_csv` reads do;
    `len()` is the rows added.  `add` returns its batch, so that
    `map(tally.add, batches)` tallies a stream as it passes.
    `summarize_by_config` and `accounting_by_config` read it."""

    def __init__(self, intervals: Sequence[tuple[str, str]] = REPORT_INTERVALS):
        self.intervals = tuple(intervals)
        self.rows = 0
        self.names: tuple[str, ...] = ()
        self.order: list[int] = []  # config indices in order of first appearance
        self.ticks: list[list[np.ndarray]] = []  # [config][interval]: distinct ticks, ascending, over their counts
        self.lost = np.zeros((0, len(self.intervals)), dtype=np.int64)
        self.outcomes = np.zeros((0, len(OUTCOMES)), dtype=np.int64)
        self.duplicates = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return self.rows

    def add(self, batch: RecordBatch) -> RecordBatch:
        if batch.names[: len(self.names)] != self.names:
            raise ValueError(f"config names {batch.names!r} do not extend the tally's {self.names!r}")
        n_configs, new = len(batch.names), len(batch.names) - len(self.names)
        self.names = batch.names
        if new:
            self.ticks += [[np.zeros((2, 0), dtype=np.int64) for _ in self.intervals] for _ in range(new)]
            self.lost, self.outcomes, self.duplicates = (
                np.concatenate((counts, np.zeros((new, *counts.shape[1:]), dtype=np.int64)))
                for counts in (self.lost, self.outcomes, self.duplicates)
            )
        self.rows += len(batch)

        groups = batch.config_index
        outcomes = np.bincount(groups * len(OUTCOMES) + batch.outcome, minlength=n_configs * len(OUTCOMES))
        outcomes = outcomes.reshape(n_configs, len(OUTCOMES))
        self.outcomes += outcomes
        # the weights are small counts, so their float sums are exact
        duplicates = np.bincount(groups, weights=batch.duplicates_delivered, minlength=n_configs)
        self.duplicates += duplicates.astype(np.int64)
        present = np.flatnonzero(outcomes.any(axis=1)).tolist()  # every row has an outcome
        if len(present) > 1:  # in order of first appearance; a batch of one config needs no row mask
            present.sort(key=lambda index: int(np.argmax(groups == index)))
        self.order += [index for index in present if index not in self.order]
        for index in present:
            rows = groups == index if len(present) > 1 else slice(None)
            for k, interval in enumerate(self.intervals):
                ticks, lost = _interval_ticks(batch, interval, rows)
                self.ticks[index][k] = _counted_in(self.ticks[index][k], ticks)
                self.lost[index, k] += lost
        return batch


def _counted_in(table: np.ndarray, ticks: np.ndarray) -> np.ndarray:
    """`table`, distinct ticks ascending over the rows at each, with the
    rows of `ticks` added; `ticks` is sorted in place, and `table` is
    updated in place when it holds every one of them."""
    if not len(ticks):
        return table
    ticks.sort()
    runs = np.concatenate(([True], ticks[1:] != ticks[:-1], [True])).nonzero()[0]  # where runs of equal ticks start
    values, counts = ticks[runs[:-1]], runs[1:] - runs[:-1]
    at = np.searchsorted(table[0], values)
    known = table[0].take(at, mode="clip") == values if table.size else np.zeros(len(values), dtype=bool)
    table[1][at[known]] += counts[known]
    if known.all():  # a long series soon has every duration it takes
        return table
    fresh = (~known).nonzero()[0]
    slots = at[fresh] + np.arange(len(fresh))  # where the fresh ticks go among the old ones
    merged = np.empty((2, table.shape[1] + len(fresh)), dtype=np.int64)
    old = np.ones(merged.shape[1], dtype=bool)
    old[slots] = False
    merged[0][old], merged[1][old] = table
    merged[0][slots], merged[1][slots] = values[fresh], counts[fresh]
    return merged


def summarize_by_config(tally: ConfigTally) -> dict[str, dict[str, SummaryStats]]:
    """Latency statistics of each of the tally's intervals over each
    config's rows, configs in order of first appearance; an interval no row
    of a config has is left out, and lost attempts are counted in `n_lost`.
    They are computed in integer ticks and converted, so they are exact on
    the 0.1 us grid and independent of row order.  An interval wider than
    MAX_HISTOGRAM_BINS bins raises DomainError naming both."""
    out: dict[str, dict[str, SummaryStats]] = {}
    for index in tally.order:
        out[tally.names[index]] = stats = {}
        for k, interval in enumerate(tally.intervals):
            try:
                stats[interval[0] + interval[1]] = _summary(*tally.ticks[index][k], int(tally.lost[index, k]))
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
