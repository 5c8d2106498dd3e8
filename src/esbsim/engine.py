"""Integer-tick clock arithmetic and block-addressed random draws.

Simulated time counts integer tenths of microseconds ("ticks") so that
timestamp arithmetic and comparisons are exact at the 0.1 us resolution the
rest of the toolkit is built around.  Randomness comes from counter-based
Philox generators (Salmon et al., SC'11) keyed by (seed, namespace), which
makes every draw reproducible and lets attempts be made in any order
without carrying generator state from one to the next.

`block_uniforms` is the only source of random numbers: per (round, purpose)
each attempt owns a fixed run of Philox counter blocks, so a row of draws
depends only on its attempt index, never on how a series is split into
chunks or in what order the series are made.
"""

from __future__ import annotations

import struct

import numpy as np

TICKS_PER_US = 10

RNG_ALGORITHM = "philox4x64-v2"

# Draw purposes: the third counter word of a `block_uniforms` address.
# Keeping these stable is part of the reproducibility contract: output files
# record only the seed.
PURPOSE_LOSS = 1
PURPOSE_CORRUPT = 2
PURPOSE_JITTER = 3
PURPOSE_ESCAPE = 4
# 5 drew the per-round shuffle of the config order, now file order: retired, never to be reused
# 6 drew the BLE baseline's waits, now closed-form: retired, never to be reused


def us_to_ticks(value_us: float) -> int:
    """Snap a microsecond value to the 0.1 us clock grid."""
    return round(value_us * TICKS_PER_US)


def ticks_to_us(ticks: int) -> float:
    return ticks / TICKS_PER_US


def _stream_key(seed: int, namespace: tuple[int, ...]) -> np.ndarray:
    """Derive a 128-bit Philox key from the run seed and a namespace tuple."""
    import hashlib  # loads OpenSSL, which commands that draw nothing should not pay for

    packed = struct.pack(f"<Q{len(namespace)}q", seed, *namespace)
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
    if not 0 <= seed < 2**64 or n < 0 or width < 1 or start_attempt < 0 or round_index < 0 or purpose < 0:
        raise ValueError(
            f"bad block address: seed={seed} n={n} width={width} start_attempt={start_attempt} "
            f"round={round_index} purpose={purpose}"
        )
    stride = -(-width // _DOUBLES_PER_BLOCK)
    counter = np.array([start_attempt * stride, round_index, purpose, 0], dtype=np.uint64)
    philox = np.random.Philox(counter=counter, key=_stream_key(seed, namespace))
    return np.random.Generator(philox).random((n, stride * _DOUBLES_PER_BLOCK))[:, :width]
