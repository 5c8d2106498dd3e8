"""Frame bit counts and on-air durations.

On-air time is the only physically forced latency component in the model;
everything else is calibrated.  A frame is preamble, address, packet control
field, payload and CRC: the layout constants below fix the first three, the
CRC bits come from the CRC mode and the payload bits from the configured
length.
"""

from __future__ import annotations

from .config import BitrateMode, EsbConfig, ProtocolMode
from .engine import TICKS_PER_US, ticks_to_us

# Frame layout constants.  These are working assumptions, not measured values:
# the preamble is 8 bits in the 1 Mbit/s mode and 16 bits in both 2 Mbit/s
# modes, the address is 5 bytes, and the packet control field (9 bits) is
# present only with dynamic payload length.
PREAMBLE_BITS_1M = 8
PREAMBLE_BITS_2M = 16
ADDRESS_BITS = 40
PCF_BITS = 9


def frame_bits(config: EsbConfig) -> int:
    """Total bits of one frame: preamble + address + PCF + payload + CRC."""
    preamble = PREAMBLE_BITS_1M if config.bitrate_mode is BitrateMode.MBPS1 else PREAMBLE_BITS_2M
    pcf = PCF_BITS if config.protocol_mode is ProtocolMode.DYNAMIC else 0
    return preamble + ADDRESS_BITS + pcf + 8 * config.payload_len_bytes + config.crc_mode.bits


def on_air_ticks(config: EsbConfig) -> int:
    """On-air time on the 0.1 us clock grid.  Always exact: the grid is finer
    than one bit at both supported rates."""
    bits = frame_bits(config)
    ticks, rem = divmod(bits * TICKS_PER_US, config.bitrate_mode.bits_per_us)
    assert rem == 0
    return ticks


def on_air_time_us(config: EsbConfig) -> float:
    """`on_air_ticks` in microseconds."""
    return ticks_to_us(on_air_ticks(config))
