import dataclasses

import numpy as np

from esbsim.link import RecordBatch
from esbsim.sweep import DEFAULT_HISTOGRAM_BIN_US, ConfigTally, SummaryStats, summarize_by_config


class Collected(list):
    """The batches a results reader adds to it, in order: pass one as `into`
    to compare what was read with a batch."""

    add = list.append

    def batch(self) -> RecordBatch:
        """The rows of every batch added, over the side tables of the last,
        which extend those of each one before."""
        columns = [field.name for field in dataclasses.fields(RecordBatch)[3:]]
        return dataclasses.replace(self[-1], **{c: np.concatenate([getattr(b, c) for b in self]) for c in columns})


def same_rows(a: RecordBatch, b: RecordBatch) -> bool:
    """Whether two batches hold the same rows: every cell agrees once the
    side-table indices are resolved to their entries."""
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(_resolved(a), _resolved(b)))


def _resolved(batch: RecordBatch) -> list[np.ndarray]:
    """Columns with the side-table indices replaced by their entries."""
    looked_up = [
        np.array(table, dtype=object)[index]
        for table, index in (
            (batch.names, batch.config_index),
            (batch.hashes, batch.config_index),
            (batch.seeds, batch.seed_index),
        )
    ]
    return looked_up + [getattr(batch, field.name) for field in dataclasses.fields(RecordBatch)[5:]]


def summary_of(batch: RecordBatch, interval: tuple[str, str] = ("d0", "d7")) -> SummaryStats:
    """The statistics of `interval` over the rows of `batch`, all of one
    config, as the summaries of a tally of the batch give them."""
    tally = ConfigTally([interval])
    tally.add(batch)
    (summaries,) = summarize_by_config(tally).values()
    return summaries[interval[0] + interval[1]]


def densified(stats: SummaryStats) -> tuple[list[int], list[float]]:
    """The histogram of `stats` with its empty bins put back, as np.histogram
    gives it: every bin from the first listed to the last, and the edges."""
    width = DEFAULT_HISTOGRAM_BIN_US
    bins = [round(left / width) for left in stats.hist_bins_us]
    counts = [0] * (bins[-1] - bins[0] + 1)
    for k, count in zip(bins, stats.hist_counts):
        counts[k - bins[0]] = count
    return counts, [(bins[0] + i) * width for i in range(len(counts) + 1)]
