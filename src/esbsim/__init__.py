"""esbsim: deterministic simulator and analytics for low-latency 2.4 GHz
command broadcasting between body-worn nodes, with a connection-interval
baseline for comparison."""

__version__ = "0.1.0"

from .config import (
    BitrateMode,
    BleConfig,
    ChannelModel,
    ConfigError,
    CrcMode,
    EsbConfig,
    PayloadMode,
    ProtocolMode,
    RangeError,
    ScheduleError,
    TxMode,
    olcfg_preset,
    validate,
)

__all__ = [
    "BitrateMode",
    "BleConfig",
    "ChannelModel",
    "ConfigError",
    "CrcMode",
    "EsbConfig",
    "PayloadMode",
    "ProtocolMode",
    "RangeError",
    "ScheduleError",
    "TxMode",
    "olcfg_preset",
    "validate",
    "__version__",
]
