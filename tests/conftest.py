import dataclasses

import numpy as np

from esbsim.link import RecordBatch


class Collected(list):
    """The batches a results reader adds to it, in order: pass one as `into`
    to compare what was read with a batch."""

    add = list.append

    def batch(self) -> RecordBatch:
        """The rows of every batch added, over the side tables of the last,
        which extend those of each one before."""
        columns = [field.name for field in dataclasses.fields(RecordBatch)[3:]]
        return dataclasses.replace(self[-1], **{c: np.concatenate([getattr(b, c) for b in self]) for c in columns})
