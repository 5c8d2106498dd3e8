"""Closed-form retransmission math, accounting, calibration.

The calibration solver turns three measured interval medians (device-to-device
d0-d7, radio-core-to-radio-core d2-d5, and air d3-d4) into per-stage base
delays.  The instrumentation constrains only sums of stages, so the
under-determined splits use the symmetric rule: the transmit and receive sides
mirror each other and stages within a side share the remainder equally.  The
split lives behind this interface, so an alternative rule is a drop-in.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, sqrt
from typing import Mapping

from . import airtime
from .config import EsbConfig, validate
from .link import MODIFIER_STAGE, PipelineModel, STAGES, stage_modifiers_us


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class InfeasibleError(ValueError):
    """Calibration targets that no non-negative stage split can satisfy."""


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


@dataclass(frozen=True)
class AccountingRow:
    """Packet bookkeeping for one configuration series.

    `received` counts payloads that reached the receiver application
    (duplicates included: received - unique of them), `unique` counts
    attempts that delivered, and `valid` counts unique deliveries with
    uncorrupted payloads (unique - valid were corrupted), so valid / sent
    is the share of attempts that delivered one clean payload.
    """

    sent: int
    received: int
    unique: int
    valid: int

    @property
    def lost(self) -> int:
        return self.sent - self.unique


@dataclass(frozen=True)
class CalibrationTargets:
    """Interval medians the pipeline is calibrated to, in microseconds."""

    d0d7_us: float
    d2d5_us: float
    d3d4_us: float

    def __post_init__(self):
        if not inf > self.d0d7_us > self.d2d5_us > self.d3d4_us > 0:
            raise DomainError(
                f"targets must be finite and nest: d0d7 > d2d5 > d3d4 > 0, got "
                f"({self.d0d7_us}, {self.d2d5_us}, {self.d3d4_us})"
            )


def olcfg_calibration_targets() -> CalibrationTargets:
    """Reference interval medians measured for the lowest-latency preset."""
    return CalibrationTargets(d0d7_us=486.30, d2d5_us=293.07, d3d4_us=185.86)


def calibrate_pipeline(
    targets: CalibrationTargets,
    config: EsbConfig,
    *,
    modifiers_us: Mapping[tuple[str, str], float] | None = None,
) -> PipelineModel:
    """Solve stage base delays so that, with zero jitter and zero loss, the
    given config reproduces the target medians.

    The radio turnaround absorbs whatever the air interval leaves after the
    frame's on-air time; the d2-d5 remainder splits evenly between the two
    radio-stack stages and the d0-d7 remainder evenly across the four IPC
    stages.  When a modifier table is supplied, the config's own modifier
    contributions are subtracted from the matching stage bases, so the
    calibrated config still hits the targets exactly while other configs
    shift by their modifier deltas.  Jitter and dedup take the
    `PipelineModel` defaults.
    """
    validate(config)
    on_air_us = airtime.on_air_time_us(config)
    radio_stack_us = (targets.d2d5_us - targets.d3d4_us) / 2.0
    ipc_us = (targets.d0d7_us - targets.d2d5_us) / 4.0
    solved = {
        "radio_overhead": targets.d3d4_us - on_air_us,
        "tx_esb_stack": radio_stack_us,
        "rx_esb_stack": radio_stack_us,
        "tx_app_to_ipc": ipc_us,
        "tx_ipc_to_esb": ipc_us,
        "rx_to_ipc": ipc_us,
        "rx_ipc_to_app": ipc_us,
    }
    modifiers_us = dict(modifiers_us or {})
    bases = {}
    for stage, extra_us in zip(STAGES, stage_modifiers_us(modifiers_us, config)):
        base = solved[stage] - extra_us
        if base < 0:
            raise InfeasibleError(
                f"stage {stage} would be {base} us: the targets leave it {solved[stage]} us "
                f"(on-air time {on_air_us} us) and the config's modifiers take {extra_us} us"
            )
        bases[stage + "_us"] = base
    return PipelineModel(**bases, modifiers_us=modifiers_us)


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
