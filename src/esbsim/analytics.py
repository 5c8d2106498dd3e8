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

from . import airtime
from .config import EsbConfig, validate
from .link import PipelineModel


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


def calibrate_pipeline(targets: CalibrationTargets, config: EsbConfig) -> PipelineModel:
    """Solve stage base delays so that, with zero jitter and zero loss, the
    given config reproduces the target medians.

    The radio turnaround absorbs whatever the air interval leaves after the
    frame's on-air time; the d2-d5 remainder splits evenly between the two
    radio-stack stages and the d0-d7 remainder evenly across the four IPC
    stages.  Jitter, dedup and modifiers (none) take the `PipelineModel`
    defaults.
    """
    validate(config)
    on_air_us = airtime.on_air_time_us(config)
    radio_overhead_us = targets.d3d4_us - on_air_us
    if radio_overhead_us < 0:  # the nesting targets keep every other stage positive
        raise InfeasibleError(
            f"stage radio_overhead would be {radio_overhead_us} us: the d3-d4 target "
            f"{targets.d3d4_us} us is shorter than the frame's on-air time {on_air_us} us"
        )
    radio_stack_us = (targets.d2d5_us - targets.d3d4_us) / 2.0
    ipc_us = (targets.d0d7_us - targets.d2d5_us) / 4.0
    return PipelineModel(base_us=(ipc_us, ipc_us, radio_stack_us, radio_overhead_us, radio_stack_us, ipc_us, ipc_us))
