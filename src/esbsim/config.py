"""Protocol parameter space, validation, and presets."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

TX_POWER_MIN_DBM = -70
TX_POWER_MAX_DBM = 10
PAYLOAD_MAX_BYTES = 252  # radio product limit; the measurements never exceed 8

BLE_MIN_CONNECTION_INTERVAL_US = 7500.0


class CrcMode(str, Enum):
    CRC16 = "16"
    CRC8 = "8"
    OFF = "off"

    @property
    def bits(self) -> int:
        return {CrcMode.CRC16: 16, CrcMode.CRC8: 8, CrcMode.OFF: 0}[self]


class ProtocolMode(str, Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"


class BitrateMode(str, Enum):
    MBPS2_BLE = "2M-ble"
    MBPS2 = "2M"
    MBPS1 = "1M"

    @property
    def bits_per_us(self) -> int:
        return 1 if self is BitrateMode.MBPS1 else 2


class TxMode(str, Enum):
    AUTOMATIC = "auto"
    MANUAL = "manual"
    MANUAL_START = "manual-start"


class PayloadMode(str, Enum):
    STANDARD = "standard"
    OPTIMIZED = "optimized"


class ConfigError(ValueError):
    """Base class for configuration validation failures."""


class RangeError(ConfigError):
    def __init__(self, field: str, value, lo, hi):
        self.field = field
        self.value = value
        super().__init__(f"{field}={value!r} outside [{lo}, {hi}]")


def _check_range(field: str, value, lo, hi=math.inf) -> None:
    """Raise RangeError unless lo <= value <= hi and value is finite (so NaN
    and an infinite value fail even where the range is open)."""
    if not lo <= value <= hi or value in (math.inf, -math.inf):
        raise RangeError(field, value, lo, hi)


class ScheduleError(ConfigError):
    """A copy train the attempt cannot hold: copies that would overlap on air,
    or a last copy that ends after the next attempt starts."""


@dataclass(frozen=True)
class EsbConfig:
    """One point in the protocol parameter space.

    Instances are plain value objects; run `validate` before handing one to
    the simulator.  `retransmit_count` is the number of extra copies, so the
    radio sends `retransmit_count + 1` copies per attempt.
    """

    crc_mode: CrcMode = CrcMode.CRC16
    protocol_mode: ProtocolMode = ProtocolMode.DYNAMIC
    bitrate_mode: BitrateMode = BitrateMode.MBPS2
    tx_mode: TxMode = TxMode.AUTOMATIC
    tx_power_dbm: int = 0
    payload_mode: PayloadMode = PayloadMode.STANDARD
    payload_len_bytes: int = 8
    retransmit_count: int = 2
    retransmit_delay_us: float = 435.0

    @property
    def copies(self) -> int:
        return self.retransmit_count + 1

    def digest(self) -> str:
        """Short stable hash used for provenance in output files."""
        import hashlib  # loads OpenSSL, which commands that hash no config should not pay for

        def spelled(value) -> str:  # an enum as Type.NAME, as Python 3.11 formats it; 3.10 gives its value
            return f"{type(value).__name__}.{value.name}" if isinstance(value, Enum) else str(value)

        text = ";".join(f"{f.name}={spelled(getattr(self, f.name))}" for f in fields(self))
        # the retired copy_spacing field, at the one rule left, so that every
        # config hash, and so every results file, stays byte-identical
        text += ";copy_spacing=CopySpacing.START_TO_START"
        return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


def validate(config: EsbConfig) -> EsbConfig:
    """Return the config unchanged iff every field is in its range.

    Raises RangeError naming the offending field.  Whether the copy train
    fits an attempt is `link.copy_offsets_ticks`'s check, made for each
    series that runs.
    """
    _check_range("tx_power_dbm", config.tx_power_dbm, TX_POWER_MIN_DBM, TX_POWER_MAX_DBM)
    _check_range("payload_len_bytes", config.payload_len_bytes, 1, PAYLOAD_MAX_BYTES)
    _check_range("retransmit_count", config.retransmit_count, 0)
    _check_range("retransmit_delay_us", config.retransmit_delay_us, 0)
    return config


def olcfg_preset() -> EsbConfig:
    """The lowest-latency configuration found by the reference measurements:

    CRC disabled, dynamic length, 2 Mbit/s in the BLE-flavored radio mode,
    manual TX, 0 dBm, with a 1-byte payload pre-constructed on the radio core
    and three copies spaced 435 us apart.
    """
    return EsbConfig(
        crc_mode=CrcMode.OFF,
        protocol_mode=ProtocolMode.DYNAMIC,
        bitrate_mode=BitrateMode.MBPS2_BLE,
        tx_mode=TxMode.MANUAL,
        tx_power_dbm=0,
        payload_mode=PayloadMode.OPTIMIZED,
        payload_len_bytes=1,
        retransmit_count=2,
        retransmit_delay_us=435.0,
    )


@dataclass(frozen=True)
class ChannelModel:
    """Per-copy loss and corruption probabilities, applied independently."""

    p_loss: float = 0.0
    p_corrupt: float = 0.0

    def __post_init__(self):
        _check_range("p_loss", self.p_loss, 0.0, 1.0)
        _check_range("p_corrupt", self.p_corrupt, 0.0, 1.0)


@dataclass(frozen=True)
class BleConfig:
    """Connection-interval baseline parameters."""

    connection_interval_us: float = BLE_MIN_CONNECTION_INTERVAL_US
    transfer_time_us: float = 0.0

    def __post_init__(self):
        _check_range("connection_interval_us", self.connection_interval_us, BLE_MIN_CONNECTION_INTERVAL_US)
        _check_range("transfer_time_us", self.transfer_time_us, 0.0)
