"""Closed-form retransmission math, loss estimation, accounting, calibration.

The calibration solver turns three measured interval medians (device-to-device
d0-d7, radio-core-to-radio-core d2-d5, and air d3-d4) into per-stage base
delays.  The instrumentation constrains only sums of stages, so the
under-determined splits use the symmetric rule: the transmit and receive sides
mirror each other and stages within a side share the remainder equally.  The
split lives behind this interface, so an alternative rule is a drop-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Mapping

from . import airtime
from .config import EsbConfig, validate
from .link import (
    DEFAULT_DEDUP_ESCAPE_PROB,
    DEFAULT_STAGE_JITTER_SIGMA_US,
    MODIFIER_STAGE,
    PipelineModel,
    STAGES,
    _config_param_values,
)

class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class InfeasibleError(ValueError):
    """Calibration targets that no non-negative stage split can satisfy."""


@dataclass(frozen=True)
class RetransStats:
    """Parameters of the retransmission-benefit model: a packet incurs one
    extra `delay_us` wait with probability `prob`, over `n_packets` packets."""

    prob: float
    delay_us: float
    n_packets: int = 1

    def __post_init__(self):
        if not 0.0 <= self.prob <= 1.0:
            raise DomainError(f"prob out of [0,1]: {self.prob}")
        if self.delay_us <= 0:
            raise DomainError(f"delay_us must be positive: {self.delay_us}")
        if self.n_packets < 1:
            raise DomainError(f"n_packets must be >= 1: {self.n_packets}")


def expected_additional_delay(stats: RetransStats) -> float:
    """Mean extra delay per packet caused by retransmission waits."""
    return stats.prob * stats.delay_us


def additional_delay_variance(stats: RetransStats) -> float:
    """Variance of the mean extra delay over `n_packets` packets."""
    return stats.prob * (1.0 - stats.prob) * stats.delay_us**2 / stats.n_packets


def additional_delay_sd(stats: RetransStats) -> float:
    return sqrt(additional_delay_variance(stats))


def delivered_copy_distribution(p_loss: float, copies: int) -> tuple[tuple[float, ...], float]:
    """Probability that copy k is the first to arrive, plus the lost mass.

    With independent per-copy loss, P(copy k delivers first) = p^k (1-p) and
    P(all lost) = p^copies; the vector and the lost mass sum to one.
    """
    if not 0.0 <= p_loss <= 1.0:
        raise DomainError(f"p_loss out of [0,1]: {p_loss}")
    if copies < 1:
        raise DomainError(f"copies must be >= 1: {copies}")
    probs = tuple(p_loss**k * (1.0 - p_loss) for k in range(copies))
    return probs, p_loss**copies


def retransmission_delay_moments(p_loss: float, delay_us: float, copies: int) -> tuple[float, float]:
    """Mean and SD of the copy-offset delay, conditional on delivery.

    This is the mixture the delivered-time distribution inherits from
    retransmissions alone (stage jitter excluded): mass p^k(1-p)/(1-p^copies)
    at offset k*delay_us.
    """
    probs, lost = delivered_copy_distribution(p_loss, copies)
    if lost == 1.0:
        raise DomainError("nothing is ever delivered at p_loss=1")
    norm = 1.0 - lost
    mean = sum(p * k * delay_us for k, p in enumerate(probs)) / norm
    second = sum(p * (k * delay_us) ** 2 for k, p in enumerate(probs)) / norm
    return mean, sqrt(second - mean**2)


def estimate_loss_prob(sent: int, never_received: int, copies: int) -> float:
    """Invert the independent-loss model: if `never_received` of `sent`
    attempts produced no copy at all, the per-copy loss probability is
    (never_received/sent)^(1/copies)."""
    if sent <= 0:
        raise DomainError("sent must be positive")
    if not 0 <= never_received <= sent:
        raise DomainError(f"never_received {never_received} outside [0, {sent}]")
    if copies < 1:
        raise DomainError(f"copies must be >= 1: {copies}")
    return (never_received / sent) ** (1.0 / copies)


@dataclass(frozen=True)
class AccountingRow:
    """Packet bookkeeping for one configuration series.

    `received` counts payloads that reached the receiver application
    (duplicates included), `unique` counts attempts that delivered, and
    `valid` counts unique deliveries with uncorrupted payloads.
    """

    sent: int
    received: int
    unique: int
    valid: int

    @property
    def duplicates(self) -> int:
        return self.received - self.unique

    @property
    def corrupted(self) -> int:
        return self.unique - self.valid

    @property
    def lost(self) -> int:
        return self.sent - self.unique


def success_rate(row: AccountingRow) -> float:
    """Fraction of attempts that produced a clean, non-duplicate delivery:
    (received - corrupted - duplicates) / sent."""
    if row.sent <= 0:
        raise DomainError("sent must be positive")
    return (row.received - row.corrupted - row.duplicates) / row.sent


@dataclass(frozen=True)
class CalibrationTargets:
    """Interval medians the pipeline is calibrated to, in microseconds."""

    d0d7_us: float
    d2d5_us: float
    d3d4_us: float

    def __post_init__(self):
        if not self.d0d7_us > self.d2d5_us > self.d3d4_us > 0:
            raise DomainError(
                f"targets must nest: d0d7 > d2d5 > d3d4 > 0, got "
                f"({self.d0d7_us}, {self.d2d5_us}, {self.d3d4_us})"
            )


def olcfg_calibration_targets() -> CalibrationTargets:
    """Reference interval medians measured for the lowest-latency preset."""
    return CalibrationTargets(d0d7_us=486.30, d2d5_us=293.07, d3d4_us=185.86)


def calibrate_pipeline(
    targets: CalibrationTargets,
    config: EsbConfig,
    *,
    jitter_family: str = "normal",
    jitter_sigma_us: float | tuple[float, ...] = DEFAULT_STAGE_JITTER_SIGMA_US,
    modifiers_us: Mapping[tuple[str, str], float] | None = None,
    dedup_escape_prob: float = DEFAULT_DEDUP_ESCAPE_PROB,
) -> PipelineModel:
    """Solve stage base delays so that, with zero jitter and zero loss, the
    given config reproduces the target medians.

    The radio turnaround absorbs whatever the air interval leaves after the
    frame's on-air time; the d2-d5 remainder splits evenly between the two
    radio-stack stages and the d0-d7 remainder evenly across the four IPC
    stages.  When a modifier table is supplied, the config's own modifier
    contributions are subtracted from the matching stage bases, so the
    calibrated config still hits the targets exactly while other configs
    shift by their modifier deltas.
    """
    validate(config)
    on_air_us = airtime.on_air_time_us(config)
    if on_air_us > targets.d3d4_us:
        raise InfeasibleError(
            f"on-air time {on_air_us} us exceeds the d3-d4 target {targets.d3d4_us} us"
        )
    solved = {
        "radio_overhead": targets.d3d4_us - on_air_us,
        "tx_esb_stack": (targets.d2d5_us - targets.d3d4_us) / 2.0,
        "rx_esb_stack": (targets.d2d5_us - targets.d3d4_us) / 2.0,
        "tx_app_to_ipc": (targets.d0d7_us - targets.d2d5_us) / 4.0,
        "tx_ipc_to_esb": (targets.d0d7_us - targets.d2d5_us) / 4.0,
        "rx_to_ipc": (targets.d0d7_us - targets.d2d5_us) / 4.0,
        "rx_ipc_to_app": (targets.d0d7_us - targets.d2d5_us) / 4.0,
    }
    modifiers_us = dict(modifiers_us or {})
    if modifiers_us:
        values = _config_param_values(config)
        for (param, value), add_us in modifiers_us.items():
            if values.get(param) == value:
                stage = MODIFIER_STAGE[param]
                solved[stage] -= add_us
                if solved[stage] < 0:
                    raise InfeasibleError(
                        f"modifier ({param}, {value}) of {add_us} us pushes stage {stage} negative"
                    )
    if isinstance(jitter_sigma_us, (int, float)):
        jitter_sigma_us = (float(jitter_sigma_us),) * len(STAGES)
    return PipelineModel(
        **{stage + "_us": solved[stage] for stage in STAGES},
        jitter_family=jitter_family,
        jitter_sigma_us=tuple(jitter_sigma_us),
        modifiers_us=modifiers_us,
        dedup_escape_prob=dedup_escape_prob,
    )


def modifier_table_from_medians(
    group_medians: Mapping[str, Mapping[str, float]],
) -> dict[tuple[str, str], float]:
    """Turn per-parameter median tables into additive modifiers.

    For each parameter group, a value's modifier is its median minus the
    group's minimum median, so the fastest value carries zero.  The result is
    a modeling convention: published medians mix jitter, environment, and
    mixture effects, so attribution to a single stage is a choice, not a
    measurement.
    """
    table: dict[tuple[str, str], float] = {}
    for param, medians in group_medians.items():
        if param not in MODIFIER_STAGE:
            raise DomainError(f"unknown parameter group {param!r}")
        if not medians:
            continue
        floor = min(medians.values())
        for value, median in medians.items():
            table[(param, value)] = median - floor
    return table
