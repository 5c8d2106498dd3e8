"""The broadcast attempt timeline over the eight-probe pipeline.

A broadcast attempt walks the instrumented stages D0..D7: command issued on
the sender's application core (D0), handed over IPC to the radio core
(D1, D2), through the radio stack to the antenna (D3), over the air to the
first command in the receiver's radio library (D4), its event handler (D5),
and back up over IPC to the receiver's application core (D6, D7).  Copies are
sent unconditionally (no acknowledgements), each independently subject to
loss and corruption; the receiver deduplicates extra copies so the
application sees one delivery per attempt.  The chain is fixed, so an attempt
is straight-line arithmetic on its draws: seven stage delays plus the choice
of the first surviving copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from math import pi, sqrt
from typing import Mapping, NamedTuple

import numpy as np

from . import airtime
from .config import ChannelModel, ConfigError, CrcMode, EsbConfig, ScheduleError, validate
from .engine import (
    PURPOSE_CORRUPT,
    PURPOSE_ESCAPE,
    PURPOSE_JITTER,
    PURPOSE_LOSS,
    TICKS_PER_US,
    block_uniforms,
    ticks_to_us,
    us_to_ticks,
)

PROBES = ("d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7")

STAGES = (
    "tx_app_to_ipc",   # D0 -> D1
    "tx_ipc_to_esb",   # D1 -> D2
    "tx_esb_stack",    # D2 -> D3
    "radio_overhead",  # D3 -> D4, minus on-air time and copy offset
    "rx_esb_stack",    # D4 -> D5
    "rx_to_ipc",       # D5 -> D6
    "rx_ipc_to_app",   # D6 -> D7
)

# Which stage each config parameter's additive modifier lands on.  This is a
# modeling convention: end-to-end medians constrain only the sums, so the
# placement is chosen by where the work plausibly happens (CRC verification
# on the receive stack, dequeue policy and framing on the transmit stack,
# payload construction on the IPC handover, radio-parameter effects on the
# radio turnaround).
MODIFIER_STAGE = {
    "crc": "rx_esb_stack",
    "protocol": "tx_esb_stack",
    "txmode": "tx_esb_stack",
    "payload": "tx_ipc_to_esb",
    "bitrate": "radio_overhead",
    "power": "radio_overhead",
}

# Stage jitter chosen so the seven independent draws combine to ~25 us total,
# the residual spread left once the retransmission mixture is accounted for.
DEFAULT_TOTAL_JITTER_SIGMA_US = 25.0
DEFAULT_STAGE_JITTER_SIGMA_US = DEFAULT_TOTAL_JITTER_SIGMA_US / sqrt(len(STAGES))

# One escaped duplicate per 735 received payloads in the reference accounting
# with CRC disabled; with CRC enabled dedup is reliable.
DEFAULT_DEDUP_ESCAPE_PROB = 1.0 / 735.0


def stage_modifiers_us(modifiers_us: Mapping[tuple[str, str], float], config: EsbConfig) -> tuple[float, ...]:
    """Per stage, the sum of the modifiers whose (parameter, value) the config
    takes, with values spelled as in experiment files."""
    values = {
        "crc": config.crc_mode.value,
        "protocol": config.protocol_mode.value,
        "bitrate": config.bitrate_mode.value,
        "txmode": config.tx_mode.value,
        "payload": config.payload_mode.value,
        "power": str(config.tx_power_dbm),
    }
    extras = dict.fromkeys(STAGES, 0.0)
    for (param, value), add_us in modifiers_us.items():
        if values.get(param) == value:
            extras[MODIFIER_STAGE[param]] += add_us
    return tuple(extras.values())


@dataclass(frozen=True)
class PipelineModel:
    """Per-stage base delays, jitter spec, and per-parameter modifiers.

    `base_us` holds one base delay per stage, in STAGES order, in
    microseconds at full precision; they snap to the 0.1 us clock grid only
    when an attempt is scheduled.  `modifiers_us` maps (parameter, value)
    pairs - using the experiment-file spellings, e.g. ("crc", "16") - to
    additive microseconds on the stage given by MODIFIER_STAGE.  Jitter is
    normal, drawn per stage and truncated so no stage goes negative;
    `jitter_sigma_us` holds one standard deviation per stage, as `base_us`
    does its base, and a stage at 0 has no jitter.
    """

    base_us: tuple[float, ...]
    jitter_sigma_us: tuple[float, ...] = (DEFAULT_STAGE_JITTER_SIGMA_US,) * len(STAGES)
    modifiers_us: Mapping[tuple[str, str], float] = field(default_factory=dict)
    dedup_escape_prob: float = DEFAULT_DEDUP_ESCAPE_PROB

    def __post_init__(self):
        if len(self.base_us) != len(STAGES):
            raise ValueError(f"expected {len(STAGES)} base delays, got {len(self.base_us)}")
        for stage, base in zip(STAGES, self.base_us):
            if base < 0:
                raise ValueError(f"stage {stage} has negative base delay")
        if len(self.jitter_sigma_us) != len(STAGES):
            raise ValueError(f"expected {len(STAGES)} jitter sigmas, got {len(self.jitter_sigma_us)}")
        if not 0.0 <= self.dedup_escape_prob <= 1.0:
            raise ValueError(f"dedup_escape_prob out of range: {self.dedup_escape_prob}")

    def stage_totals_us(self, config: EsbConfig) -> tuple[float, ...]:
        """Base plus the config's applicable modifiers, per stage."""
        extras = stage_modifiers_us(self.modifiers_us, config)
        return tuple(base + extra for base, extra in zip(self.base_us, extras))


class Outcome(str, Enum):
    DELIVERED = "delivered"
    DELIVERED_CORRUPTED = "delivered-corrupted"
    LOST = "lost"


OUTCOMES = tuple(Outcome)  # RecordBatch.outcome holds an index into this
DELIVERED, DELIVERED_CORRUPTED, LOST = range(len(OUTCOMES))


_COLUMNS = (
    "config_index",
    "seed_index",
    "round_index",
    "attempt",
    "probes",
    "delivered_copy",
    "outcome",
    "duplicates_suppressed",
    "duplicates_delivered",
)


@dataclass(frozen=True, eq=False)
class RecordBatch:
    """Broadcast attempts as int64 columns, one row per attempt.

    Config names and their hashes, and the seeds, sit in side tables that
    `config_index` and `seed_index` point into; a seed may be as large as
    2**64 - 1, which no int64 column holds.  `probes[i]` holds the eight
    probe times in clock ticks (0.1 us), -1 for a probe never reached;
    `delivered_copy` is -1 for a lost attempt, and `outcome` indexes
    OUTCOMES.
    """

    names: tuple[str, ...]
    hashes: tuple[str, ...]
    seeds: tuple[int, ...]
    config_index: np.ndarray
    seed_index: np.ndarray
    round_index: np.ndarray
    attempt: np.ndarray
    probes: np.ndarray
    delivered_copy: np.ndarray
    outcome: np.ndarray
    duplicates_suppressed: np.ndarray
    duplicates_delivered: np.ndarray

    def __post_init__(self):
        if len(self.names) != len(self.hashes):
            raise ValueError("every config name needs one hash")
        n = len(self.attempt)
        for column in _COLUMNS:
            if len(getattr(self, column)) != n:
                raise ValueError(f"column {column} has {len(getattr(self, column))} rows, expected {n}")
        if self.probes.shape != (n, len(PROBES)):
            raise ValueError(f"probes must have shape ({n}, {len(PROBES)}), got {self.probes.shape}")

    def __len__(self) -> int:
        return len(self.attempt)


class SeriesDraws(NamedTuple):
    """Every random draw of an attempt series, one row per attempt."""

    lost: np.ndarray       # bool (n, copies)
    corrupted: np.ndarray  # bool (n, copies)
    escaped: np.ndarray    # bool (n, copies): a surviving duplicate passes dedup
    jitter_us: np.ndarray  # float (n, stages), before tick snapping and the floor


def draw_series(
    channel: ChannelModel,
    pipeline: PipelineModel,
    copies: int,
    n: int,
    *,
    seed: int,
    namespace: tuple[int, ...] = (),
    round_index: int = 0,
    start_attempt: int = 0,
) -> SeriesDraws:
    """Draw loss, corruption and escape bits per copy and jitter per stage.

    Each purpose is one block-addressed draw (`engine.block_uniforms`), so a
    row depends only on its attempt index.  Jitter takes 8 uniforms per
    attempt, turns them into normals by Box-Muller and scales the first 7 by
    each stage's SD.
    """

    def uniforms(purpose: int, width: int) -> np.ndarray:
        return block_uniforms(seed, namespace, round_index, purpose, start_attempt, n, width)

    u = uniforms(PURPOSE_JITTER, 8)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, :4]))
    angle = 2.0 * pi * u[:, 4:]
    normals = np.hstack((radius * np.cos(angle), radius * np.sin(angle)))
    return SeriesDraws(
        lost=uniforms(PURPOSE_LOSS, copies) < channel.p_loss,
        corrupted=uniforms(PURPOSE_CORRUPT, copies) < channel.p_corrupt,
        escaped=uniforms(PURPOSE_ESCAPE, copies) < pipeline.dedup_escape_prob,
        jitter_us=normals[:, :len(STAGES)] * np.asarray(pipeline.jitter_sigma_us),
    )


ATTEMPT_SPACING_US = 6000.0  # one capture window per attempt

# A stage takes fewer ticks than this, so that no probe time wraps int64, no
# interval reaches the tally's 2**57 exactness bound, and a probe time too
# large for a results cell is still refused by the writer.
_MAX_STAGE_TICKS = 10**16


def copy_offsets_ticks(config: EsbConfig) -> list[int]:
    """Start-time offsets of every copy relative to the first, in ticks: each
    copy starts `retransmit_delay_us` after the one before.  Copies are
    unconditional: no acknowledgements exist in broadcast mode, so every copy
    is sent even after a successful delivery.

    A single copy reads no delay.  A train of two or more raises
    ScheduleError if a copy would start before the one before it ends on
    air, judged on the tick grid the copies run on, or if the last copy
    would end after the next attempt starts.  The last copy's end is
    closed-form, so the check costs the same for any number of copies, and a
    delay longer than the whole window is refused before it is converted to
    ticks.
    """
    if config.copies == 1:
        return [0]
    delay_us = config.retransmit_delay_us
    overlaps = f"attempt spacing {ATTEMPT_SPACING_US} us overlaps the copy train"
    if delay_us > ATTEMPT_SPACING_US:
        raise ScheduleError(f"{overlaps} (retransmit_delay_us={delay_us})")
    step = us_to_ticks(delay_us)
    on_air = airtime.on_air_ticks(config)
    if step < on_air:
        raise ScheduleError(f"retransmit_delay_us={delay_us} shorter than one frame on air "
                            f"({ticks_to_us(on_air)} us); copies would overlap")
    end = (config.copies - 1) * step + on_air
    if us_to_ticks(ATTEMPT_SPACING_US) < end:
        raise ScheduleError(f"{overlaps} ({ticks_to_us(end)} us)")
    return [k * step for k in range(config.copies)]


def run_attempt_series(
    config: EsbConfig,
    channel: ChannelModel,
    pipeline: PipelineModel,
    n: int,
    *,
    seed: int,
    config_name: str = "",
    namespace: tuple[int, ...] = (),
    round_index: int = 0,
    start_attempt: int = 0,
) -> RecordBatch:
    """Run `n` attempts with independent randomness, deterministic per seed.

    Attempt starts are spaced ATTEMPT_SPACING_US apart on a per-config timeline,
    and draws are addressed by attempt index, so a record is identical
    whatever order the attempts are made in and however the series is split
    into chunks.  The whole series is laid out at once: stage ticks, the
    first surviving copy and the duplicate counts are array operations over
    its draws.
    """
    if n < 1:
        raise ValueError("need at least one attempt")
    validate(config)
    offsets = copy_offsets_ticks(config)
    on_air = airtime.on_air_ticks(config)
    spacing = us_to_ticks(ATTEMPT_SPACING_US)
    totals = np.asarray(pipeline.stage_totals_us(config))
    crc_on = config.crc_mode is not CrcMode.OFF
    with np.errstate(over="ignore", invalid="ignore"):  # a stage too long for a float is inf, refused below
        draws = draw_series(channel, pipeline, config.copies, n, seed=seed, namespace=namespace,
                            round_index=round_index, start_attempt=start_attempt)
        stage_us = totals + draws.jitter_us
        ticks = np.rint(stage_us * TICKS_PER_US)
    outside = ~(ticks < _MAX_STAGE_TICKS)  # NaN included
    if outside.any():
        row, stage = np.argwhere(outside)[0]
        raise ConfigError(
            f"stage {STAGES[stage]} would take {stage_us[row, stage]:.6g} us in attempt {start_attempt + row}: "
            f"a stage must take less than {ticks_to_us(_MAX_STAGE_TICKS):.0e} us"
        )
    # floor of one tick: jitter never drives a stage negative, and probe
    # timestamps stay strictly increasing
    ticks = np.maximum(1, ticks).astype(np.int64)

    # The first copy that is neither lost nor rejected by CRC delivers; every
    # later surviving copy is suppressed or, with CRC off, may escape as a
    # duplicate.
    rows = np.arange(n)
    surviving = ~draws.lost & ~(draws.corrupted & crc_on)
    reached = surviving.any(axis=1)
    first = surviving.argmax(axis=1)
    later = surviving.copy()
    later[rows, first] = False
    duplicates = (later & draws.escaped & (not crc_on)).sum(axis=1)
    suppressed = later.sum(axis=1) - duplicates
    corrupted_delivery = draws.corrupted[rows, first]

    attempts = start_attempt + rows
    probes = np.empty((n, len(PROBES)), dtype=np.int64)
    probes[:, 0] = attempts * spacing
    probes[:, 1:4] = probes[:, :1] + np.cumsum(ticks[:, :3], axis=1)  # transmit side
    # the receiver sees the delivered copy one on-air time after its start
    probes[:, 4] = probes[:, 3] + np.asarray(offsets)[first] + on_air + ticks[:, 3]
    probes[:, 5:] = probes[:, 4:5] + np.cumsum(ticks[:, 4:], axis=1)
    probes[~reached, 4:] = -1  # d4..d7 never fire

    return RecordBatch(
        names=(config_name,),
        hashes=(config.digest(),),
        seeds=(seed,),
        config_index=np.zeros(n, dtype=np.int64),
        seed_index=np.zeros(n, dtype=np.int64),
        round_index=np.full(n, round_index, dtype=np.int64),
        attempt=attempts,
        probes=probes,
        delivered_copy=np.where(reached, first, -1),
        outcome=np.where(reached, np.where(corrupted_delivery, DELIVERED_CORRUPTED, DELIVERED), LOST),
        duplicates_suppressed=suppressed,
        duplicates_delivered=duplicates,
    )
