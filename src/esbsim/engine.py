"""Integer-tick clock arithmetic and keyed random streams.

Simulated time counts integer tenths of microseconds ("ticks") so that
timestamp arithmetic and comparisons are exact at the 0.1 us resolution the
rest of the toolkit is built around.  Randomness comes from counter-based
Philox generators (Salmon et al., SC'11) keyed by (seed, namespace), which
makes every draw reproducible and lets independent attempts run on parallel
workers without coordinating.

The attempt kernel draws a whole series at once with `block_uniforms`: per
(round, purpose) each attempt owns a fixed run of Philox counter blocks, so
a row of draws depends only on its attempt index, never on how a series is
split into chunks or spread over workers.  `RngStream` serves the few
per-round draws (shuffle order, baseline samples).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

TICKS_PER_US = 10

RNG_ALGORITHM = "philox4x64-v2"

# Stream purposes: the third component of an `RngStream` id and the third
# counter word of a `block_uniforms` address.  Keeping these stable is part
# of the reproducibility contract: output files record only the seed.
PURPOSE_LOSS = 1
PURPOSE_CORRUPT = 2
PURPOSE_JITTER = 3
PURPOSE_ESCAPE = 4
PURPOSE_SHUFFLE = 5
PURPOSE_BLE_WAIT = 6


def us_to_ticks(value_us: float) -> int:
    """Snap a microsecond value to the 0.1 us clock grid."""
    return round(value_us * TICKS_PER_US)


def ticks_to_us(ticks: int) -> float:
    return ticks / TICKS_PER_US


def _stream_key(seed: int, namespace: tuple[int, ...]) -> np.ndarray:
    """Derive a 128-bit Philox key from the run seed and a namespace tuple."""
    packed = struct.pack(f"<Q{len(namespace)}q", seed & 0xFFFFFFFFFFFFFFFF, *namespace)
    digest = hashlib.blake2b(packed, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


# Doubles per Philox4x64 block: one 64-bit output word each.
_DOUBLES_PER_BLOCK = 4


def block_uniforms(
    seed: int,
    namespace: tuple[int, ...],
    round_index: int,
    purpose: int,
    start_attempt: int,
    n: int,
    width: int,
) -> np.ndarray:
    """Uniforms over [0, 1) for attempts start_attempt .. start_attempt+n-1.

    Row i holds `width` draws of attempt start_attempt + i.  Each attempt
    owns `stride = ceil(width / 4)` consecutive counter blocks under the
    counter (attempt * stride, round, purpose, 0), so any split of a series
    draws the same rows.
    """
    if n < 0 or width < 1 or start_attempt < 0 or round_index < 0 or purpose < 0:
        raise ValueError(
            f"bad block address: n={n} width={width} start_attempt={start_attempt} "
            f"round={round_index} purpose={purpose}"
        )
    stride = -(-width // _DOUBLES_PER_BLOCK)
    counter = np.array([start_attempt * stride, round_index, purpose, 0], dtype=np.uint64)
    philox = np.random.Philox(counter=counter, key=_stream_key(seed, namespace))
    return np.random.Generator(philox).random((n, stride * _DOUBLES_PER_BLOCK))[:, :width]


class RngStream:
    """Reproducible random stream addressed by (seed, stream_id).

    The stream id is up to three non-negative integers, conventionally
    (round, attempt, purpose); it selects a disjoint 2^64-draw counter block
    of a Philox generator, so distinct ids are independent by construction.
    An optional namespace tuple (e.g. a config index) is folded into the key
    for runs that need more addressing dimensions.  `rekey` repoints an
    existing instance to another stream id (the sweep reuses one instance
    for every round's shuffle); a rekeyed stream draws exactly the same
    sequence as a freshly constructed one.
    """

    def __init__(
        self,
        seed: int,
        stream_id: tuple[int, ...] = (0, 0, 0),
        namespace: tuple[int, ...] = (),
    ):
        self.seed = seed
        self.namespace = tuple(namespace)
        self._key = _stream_key(seed, self.namespace)
        self._philox = np.random.Philox(key=self._key)
        self._gen = np.random.Generator(self._philox)
        self.rekey(stream_id)

    def rekey(self, stream_id: tuple[int, ...]) -> "RngStream":
        if len(stream_id) > 3 or any(s < 0 for s in stream_id):
            raise ValueError(f"stream id must be up to 3 non-negative ints, got {stream_id!r}")
        counter = np.zeros(4, dtype=np.uint64)
        for i, part in enumerate(stream_id):
            counter[i + 1] = part
        self._philox.state = {
            "bit_generator": "Philox",
            "state": {"counter": counter, "key": self._key},
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        self.stream_id = tuple(stream_id)
        return self

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size: int | None = None):
        """Uniform draw(s) over [lo, hi)."""
        if hi < lo:
            raise ValueError(f"uniform bounds reversed: [{lo}, {hi})")
        return self._gen.uniform(lo, hi, size)

    def bernoulli(self, p: float, size: int | None = None):
        """Boolean draw(s) that are True with probability p."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"bernoulli p out of range: {p}")
        if size is None:
            return bool(self._gen.random() < p)
        return self._gen.random(size) < p

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
