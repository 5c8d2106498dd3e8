import dataclasses
import itertools

from hypothesis import given, strategies as st

from esbsim.airtime import frame_bits, on_air_ticks, on_air_time_us
from esbsim.config import BitrateMode, CrcMode, EsbConfig, ProtocolMode, olcfg_preset


def test_olcfg_frame_is_73_bits():
    # preamble 16 + address 40 + pcf 9 + payload 8 + crc 0
    assert frame_bits(olcfg_preset()) == 16 + 40 + 9 + 8 + 0 == 73


def test_crc16_adds_sixteen_bits():
    cfg = dataclasses.replace(olcfg_preset(), crc_mode=CrcMode.CRC16)
    assert frame_bits(cfg) == 89


def test_zero_payload_leaves_header_only():
    cfg = dataclasses.replace(olcfg_preset(), payload_len_bytes=0)
    assert frame_bits(cfg) == 16 + 40 + 9


def test_olcfg_on_air_time():
    assert on_air_time_us(olcfg_preset()) == 73 / 2 == 36.5


def test_slow_mode_eight_byte_crc16_frame():
    cfg = EsbConfig(
        crc_mode=CrcMode.CRC16,
        bitrate_mode=BitrateMode.MBPS1,
        payload_len_bytes=8,
        retransmit_delay_us=435.0,
    )
    assert frame_bits(cfg) == 8 + 40 + 9 + 64 + 16 == 137
    assert on_air_time_us(cfg) == 137.0


@given(
    payload=st.integers(min_value=1, max_value=252),
    crc=st.sampled_from(CrcMode),
    protocol=st.sampled_from(ProtocolMode),
)
def test_doubling_the_bitrate_halves_the_duration(payload, crc, protocol):
    slow = EsbConfig(crc_mode=crc, protocol_mode=protocol, bitrate_mode=BitrateMode.MBPS1, payload_len_bytes=payload)
    fast = dataclasses.replace(slow, bitrate_mode=BitrateMode.MBPS2)
    # the same bits take half as long at twice the rate, plus the 8 bits by
    # which the 2 Mbit/s preamble is longer
    assert on_air_time_us(fast) == (on_air_time_us(slow) + 8) / 2


def test_on_air_time_is_frame_bits_over_the_rate_for_every_config():
    # the tick count in microseconds is the exact quotient for every
    # (bitrate, protocol, CRC, payload length) a config can take
    for bitrate, protocol, crc in itertools.product(BitrateMode, ProtocolMode, CrcMode):
        for payload in range(1, 253):
            cfg = EsbConfig(crc_mode=crc, protocol_mode=protocol, bitrate_mode=bitrate, payload_len_bytes=payload)
            assert on_air_time_us(cfg) == frame_bits(cfg) / bitrate.bits_per_us


def _all_mode_configs(payload=1):
    for crc, protocol, bitrate in itertools.product(CrcMode, ProtocolMode, BitrateMode):
        yield EsbConfig(
            crc_mode=crc,
            protocol_mode=protocol,
            bitrate_mode=bitrate,
            payload_len_bytes=payload,
            retransmit_delay_us=5000.0,
        )


def test_on_air_time_times_bitrate_is_frame_bits_exactly():
    for cfg in _all_mode_configs(payload=13):
        assert on_air_time_us(cfg) * cfg.bitrate_mode.bits_per_us == frame_bits(cfg)
        assert on_air_ticks(cfg) == round(on_air_time_us(cfg) * 10)


@given(payload=st.integers(min_value=1, max_value=251))
def test_on_air_time_strictly_increases_with_payload(payload):
    for cfg in _all_mode_configs(payload):
        bigger = dataclasses.replace(cfg, payload_len_bytes=payload + 1)
        assert on_air_time_us(bigger) > on_air_time_us(cfg)


def test_crc_ordering_matches_observed_medians():
    # disabling the checksum always shortens the frame: off < 8 bit < 16 bit
    for cfg in _all_mode_configs(payload=8):
        t_off = on_air_time_us(dataclasses.replace(cfg, crc_mode=CrcMode.OFF))
        t_8 = on_air_time_us(dataclasses.replace(cfg, crc_mode=CrcMode.CRC8))
        t_16 = on_air_time_us(dataclasses.replace(cfg, crc_mode=CrcMode.CRC16))
        assert t_off < t_8 < t_16


def test_static_mode_drops_the_packet_control_field():
    dynamic = olcfg_preset()
    static = dataclasses.replace(dynamic, protocol_mode=ProtocolMode.STATIC)
    assert frame_bits(dynamic) - frame_bits(static) == 9


# Per-frame overhead (preamble + address + packet control field) of every
# (bitrate, protocol) pair, written out apart from airtime's constants.
FRAME_OVERHEAD_BITS = {
    (BitrateMode.MBPS1, ProtocolMode.DYNAMIC): 8 + 40 + 9,
    (BitrateMode.MBPS1, ProtocolMode.STATIC): 8 + 40 + 0,
    (BitrateMode.MBPS2, ProtocolMode.DYNAMIC): 16 + 40 + 9,
    (BitrateMode.MBPS2, ProtocolMode.STATIC): 16 + 40 + 0,
    (BitrateMode.MBPS2_BLE, ProtocolMode.DYNAMIC): 16 + 40 + 9,
    (BitrateMode.MBPS2_BLE, ProtocolMode.STATIC): 16 + 40 + 0,
}


def test_frame_overhead_covers_every_mode_pair():
    assert set(FRAME_OVERHEAD_BITS) == set(itertools.product(BitrateMode, ProtocolMode))
    for (bitrate, protocol), overhead in FRAME_OVERHEAD_BITS.items():
        for crc, payload in itertools.product(CrcMode, (1, 8, 252)):
            cfg = EsbConfig(crc_mode=crc, protocol_mode=protocol, bitrate_mode=bitrate, payload_len_bytes=payload)
            assert frame_bits(cfg) == overhead + 8 * payload + crc.bits
