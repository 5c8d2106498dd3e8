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
from math import sqrt
from typing import Mapping, Sequence

from . import airtime
from .config import ChannelModel, CrcMode, CopySpacing, EsbConfig, ScheduleError, validate
from .engine import (
    PURPOSE_CORRUPT,
    PURPOSE_ESCAPE,
    PURPOSE_JITTER,
    PURPOSE_LOSS,
    RngStream,
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


def _config_param_values(config: EsbConfig) -> dict[str, str]:
    return {
        "crc": config.crc_mode.value,
        "protocol": config.protocol_mode.value,
        "bitrate": config.bitrate_mode.value,
        "txmode": config.tx_mode.value,
        "payload": config.payload_mode.value,
        "power": str(config.tx_power_dbm),
    }


@dataclass(frozen=True)
class PipelineModel:
    """Per-stage base delays, jitter spec, and per-parameter modifiers.

    Base delays are microseconds at full precision; they snap to the 0.1 us
    clock grid only when an attempt is scheduled.  `modifiers_us` maps
    (parameter, value) pairs - using the experiment-file spellings, e.g.
    ("crc", "16") - to additive microseconds on the stage given by
    MODIFIER_STAGE.  Jitter is drawn per stage and truncated so no stage goes
    negative; `jitter_sigma_us` holds one standard deviation per stage
    ("uniform" family draws with the same SD).
    """

    tx_app_to_ipc_us: float
    tx_ipc_to_esb_us: float
    tx_esb_stack_us: float
    radio_overhead_us: float
    rx_esb_stack_us: float
    rx_to_ipc_us: float
    rx_ipc_to_app_us: float
    jitter_family: str = "normal"  # off | normal | uniform
    jitter_sigma_us: tuple[float, ...] = (DEFAULT_STAGE_JITTER_SIGMA_US,) * len(STAGES)
    modifiers_us: Mapping[tuple[str, str], float] = field(default_factory=dict)
    dedup_escape_prob: float = DEFAULT_DEDUP_ESCAPE_PROB

    def __post_init__(self):
        for stage in STAGES:
            if getattr(self, stage + "_us") < 0:
                raise ValueError(f"stage {stage} has negative base delay")
        if self.jitter_family not in ("off", "normal", "uniform"):
            raise ValueError(f"unknown jitter family {self.jitter_family!r}")
        if len(self.jitter_sigma_us) != len(STAGES):
            raise ValueError(f"expected {len(STAGES)} jitter sigmas, got {len(self.jitter_sigma_us)}")
        if not 0.0 <= self.dedup_escape_prob <= 1.0:
            raise ValueError(f"dedup_escape_prob out of range: {self.dedup_escape_prob}")

    def stage_base_us(self, stage: str) -> float:
        return getattr(self, stage + "_us")

    def stage_totals_us(self, config: EsbConfig) -> tuple[float, ...]:
        """Base plus the config's applicable modifiers, per stage."""
        extras = dict.fromkeys(STAGES, 0.0)
        values = _config_param_values(config)
        for (param, value), add_us in self.modifiers_us.items():
            if values.get(param) == value:
                extras[MODIFIER_STAGE[param]] += add_us
        return tuple(self.stage_base_us(s) + extras[s] for s in STAGES)

    def zero_jitter(self) -> "PipelineModel":
        from dataclasses import replace

        return replace(self, jitter_family="off")


class Outcome(str, Enum):
    DELIVERED = "delivered"
    DELIVERED_CORRUPTED = "delivered-corrupted"
    LOST = "lost"


@dataclass
class TransmissionRecord:
    """One broadcast attempt: probe timestamps and delivery accounting.

    Probe times are absolute clock ticks (0.1 us); entries are None for
    probes never reached.  `delivered_copy` is the index of the copy that
    surfaced to the receiver application, or None when the attempt was lost.
    """

    config_name: str
    config_hash: str
    round_index: int
    attempt: int
    seed: int
    probes_ticks: tuple[int | None, ...]
    delivered_copy: int | None
    outcome: Outcome
    duplicates_suppressed: int = 0
    duplicates_delivered: int = 0

    def probe_us(self, name: str) -> float | None:
        ticks = self.probes_ticks[PROBES.index(name)]
        return None if ticks is None else ticks_to_us(ticks)

    def interval_us(self, start: str, end: str) -> float | None:
        a = self.probes_ticks[PROBES.index(start)]
        b = self.probes_ticks[PROBES.index(end)]
        if a is None or b is None:
            return None
        return ticks_to_us(b - a)


def copy_offsets_ticks(config: EsbConfig) -> list[int]:
    """Start-time offsets of every copy relative to the first, in ticks.
    Copies are unconditional: no acknowledgements exist in broadcast mode, so
    every copy is sent even after a successful delivery."""
    delay = us_to_ticks(config.retransmit_delay_us)
    if config.copy_spacing is CopySpacing.END_TO_START:
        delay += airtime.on_air_ticks(config)
    return [k * delay for k in range(config.copies)]


class AttemptStreams:
    """The four purpose streams one attempt draws from.

    Instances are reusable: `rekey` repoints all purposes at another
    (round, attempt) pair, which the series runner uses to avoid rebuilding
    generators per attempt.
    """

    def __init__(self, seed: int, round_index: int = 0, attempt: int = 0, namespace: tuple[int, ...] = ()):
        self.seed = seed
        self.loss = RngStream(seed, (round_index, attempt, PURPOSE_LOSS), namespace)
        self.corrupt = RngStream(seed, (round_index, attempt, PURPOSE_CORRUPT), namespace)
        self.jitter = RngStream(seed, (round_index, attempt, PURPOSE_JITTER), namespace)
        self.escape = RngStream(seed, (round_index, attempt, PURPOSE_ESCAPE), namespace)

    def rekey(self, round_index: int, attempt: int) -> "AttemptStreams":
        self.loss.rekey((round_index, attempt, PURPOSE_LOSS))
        self.corrupt.rekey((round_index, attempt, PURPOSE_CORRUPT))
        self.jitter.rekey((round_index, attempt, PURPOSE_JITTER))
        self.escape.rekey((round_index, attempt, PURPOSE_ESCAPE))
        return self


def _stage_jitter_us(pipeline: PipelineModel, streams: AttemptStreams) -> list[float]:
    """One jitter draw per stage, in microseconds (truncation happens later)."""
    if pipeline.jitter_family == "off":
        return [0.0] * len(STAGES)
    if pipeline.jitter_family == "uniform":
        # same per-stage SD as the normal family: halfwidth = sigma * sqrt(3)
        draws = streams.jitter.uniform(-sqrt(3.0), sqrt(3.0), len(STAGES))
    else:
        draws = streams.jitter.normal(1.0, len(STAGES))
    return [float(d) * s for d, s in zip(draws, pipeline.jitter_sigma_us)]


def transmit(
    streams: AttemptStreams,
    start_ticks: int,
    channel: ChannelModel,
    pipeline: PipelineModel,
    crc_on: bool,
    stage_totals_us: Sequence[float],
    on_air: int,
    offsets: Sequence[int],
) -> tuple[list[int | None], int | None, Outcome, int, int]:
    """Draw one attempt and lay out its D0..D7 timeline.

    Every argument after `start_ticks` is a per-series constant.  The first
    copy that is neither lost nor rejected by CRC delivers; every later
    surviving copy is either suppressed or, with CRC off, may escape as a
    duplicate.  Returns the probe ticks (None where never reached), the
    delivered copy, the outcome and the suppressed and escaped counts.
    """
    copies = len(offsets)
    lost = streams.loss.bernoulli(channel.p_loss, copies).tolist()
    corrupted = streams.corrupt.bernoulli(channel.p_corrupt, copies).tolist()
    escaped = streams.escape.bernoulli(pipeline.dedup_escape_prob, copies).tolist()
    jitter = _stage_jitter_us(pipeline, streams)
    # floor of one tick: jitter never drives a stage negative, and probe
    # timestamps stay strictly increasing
    ticks = [max(1, us_to_ticks(base + j)) for base, j in zip(stage_totals_us, jitter)]

    probes: list[int | None] = [start_ticks]
    for stage in ticks[:3]:
        probes.append(probes[-1] + stage)  # D1..D3 on the transmit side
    delivered = None
    suppressed = duplicates = 0
    for k in range(copies):
        if lost[k] or (crc_on and corrupted[k]):
            continue  # lost on air, or rejected by CRC: neither delivers nor counts
        if delivered is None:
            delivered = k
        elif not crc_on and escaped[k]:
            duplicates += 1
        else:
            suppressed += 1
    if delivered is None:
        return probes + [None] * 4, None, Outcome.LOST, suppressed, duplicates
    # the receiver sees copy k one on-air time after its start, then D4..D7
    probes.append(probes[3] + offsets[delivered] + on_air + ticks[3])
    for stage in ticks[4:]:
        probes.append(probes[-1] + stage)
    outcome = Outcome.DELIVERED_CORRUPTED if corrupted[delivered] else Outcome.DELIVERED
    return probes, delivered, outcome, suppressed, duplicates


DEFAULT_ATTEMPT_SPACING_US = 6000.0  # one capture window per attempt


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
    spacing_us: float = DEFAULT_ATTEMPT_SPACING_US,
) -> list[TransmissionRecord]:
    """Run `n` attempts with independent randomness, deterministic per seed.

    Attempt starts are spaced `spacing_us` apart on a per-config timeline, so
    a record is identical no matter which worker produced it or in which
    order attempts ran.
    """
    if n < 1:
        raise ValueError("need at least one attempt")
    validate(config)
    offsets = copy_offsets_ticks(config)
    on_air = airtime.on_air_ticks(config)
    spacing = us_to_ticks(spacing_us)
    if spacing < offsets[-1] + on_air:
        raise ScheduleError(
            f"attempt spacing {spacing_us} us overlaps the copy train "
            f"({ticks_to_us(offsets[-1] + on_air)} us)"
        )
    totals = pipeline.stage_totals_us(config)
    crc_on = config.crc_mode is not CrcMode.OFF
    config_hash = config.digest()
    streams = AttemptStreams(seed, namespace=namespace)
    records = []
    for i in range(n):
        attempt = start_attempt + i
        streams.rekey(round_index, attempt)
        probes, delivered, outcome, suppressed, duplicates = transmit(
            streams, attempt * spacing, channel, pipeline, crc_on, totals, on_air, offsets
        )
        records.append(
            TransmissionRecord(
                config_name=config_name,
                config_hash=config_hash,
                round_index=round_index,
                attempt=attempt,
                seed=seed,
                probes_ticks=tuple(probes),
                delivered_copy=delivered,
                outcome=outcome,
                duplicates_suppressed=suppressed,
                duplicates_delivered=duplicates,
            )
        )
    return records
