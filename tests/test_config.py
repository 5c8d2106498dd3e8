import contextlib
import dataclasses
from enum import Enum
from unittest import mock

import pytest

from esbsim.config import (
    BitrateMode,
    BleConfig,
    ChannelModel,
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


class TestOlcfgPreset:
    def test_matches_the_selected_optimal_parameters(self):
        cfg = olcfg_preset()
        assert cfg.crc_mode is CrcMode.OFF
        assert cfg.protocol_mode is ProtocolMode.DYNAMIC
        assert cfg.bitrate_mode is BitrateMode.MBPS2_BLE
        assert cfg.tx_mode is TxMode.MANUAL
        assert cfg.tx_power_dbm == 0
        assert cfg.payload_mode is PayloadMode.OPTIMIZED

    def test_copy_schedule_parameters(self):
        cfg = olcfg_preset()
        assert cfg.payload_len_bytes == 1
        assert cfg.retransmit_count == 2
        assert cfg.copies == 3
        assert cfg.retransmit_delay_us == 435.0

    def test_preset_always_validates(self):
        assert validate(olcfg_preset()) == olcfg_preset()


class TestValidate:
    def test_power_above_range(self):
        cfg = dataclasses.replace(olcfg_preset(), tx_power_dbm=11)
        with pytest.raises(RangeError) as err:
            validate(cfg)
        assert err.value.field == "tx_power_dbm"

    def test_power_below_range(self):
        cfg = dataclasses.replace(olcfg_preset(), tx_power_dbm=-71)
        with pytest.raises(RangeError):
            validate(cfg)

    @pytest.mark.parametrize("length", [0, 253])
    def test_payload_length_bounds(self, length):
        cfg = dataclasses.replace(olcfg_preset(), payload_len_bytes=length)
        with pytest.raises(RangeError) as err:
            validate(cfg)
        assert err.value.field == "payload_len_bytes"

    def test_delay_shorter_than_frame_on_air(self):
        # 8-byte payload, 8-bit CRC, dynamic, 1 Mbit/s:
        # 8 + 40 + 9 + 64 + 8 = 129 bits -> 129 us on air
        from esbsim.link import copy_offsets_ticks

        cfg = EsbConfig(
            crc_mode=CrcMode.CRC8,
            bitrate_mode=BitrateMode.MBPS1,
            payload_len_bytes=8,
            retransmit_delay_us=10.0,
        )
        fits = dataclasses.replace(cfg, retransmit_delay_us=129.0)
        # validate checks ranges only; the copy train is the schedule's to refuse
        assert validate(cfg) == cfg and validate(fits) == fits
        overlap = r"^retransmit_delay_us=10.0 shorter than one frame on air \(129.0 us\); copies would overlap$"
        with pytest.raises(ScheduleError, match=overlap):
            copy_offsets_ticks(cfg)
        assert copy_offsets_ticks(fits) == [0, 1290, 2580]

    def test_negative_retransmit_count(self):
        cfg = dataclasses.replace(olcfg_preset(), retransmit_count=-1)
        with pytest.raises(RangeError):
            validate(cfg)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field", ["tx_power_dbm", "payload_len_bytes", "retransmit_count", "retransmit_delay_us"]
    )
    def test_non_finite_numbers_are_range_errors(self, field, value):
        cfg = dataclasses.replace(olcfg_preset(), **{field: value})
        with pytest.raises(RangeError) as err:
            validate(cfg)
        assert err.value.field == field

    def test_a_refused_delay_never_reaches_the_simulator(self):
        from esbsim.analytics import calibrate_pipeline, olcfg_calibration_targets
        from esbsim.link import run_attempt_series

        pipeline = calibrate_pipeline(olcfg_calibration_targets(), olcfg_preset())
        cfg = dataclasses.replace(olcfg_preset(), retransmit_delay_us=float("nan"))
        with pytest.raises(RangeError, match="retransmit_delay_us=nan"):
            run_attempt_series(cfg, ChannelModel(), pipeline, 2, seed=1)

    def test_validated_config_is_immutable(self):
        cfg = validate(olcfg_preset())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tx_power_dbm = 5


class TestChannelModel:
    def test_probability_ranges(self):
        ChannelModel(p_loss=0.0, p_corrupt=1.0)
        with pytest.raises(RangeError):
            ChannelModel(p_loss=1.5)
        with pytest.raises(RangeError):
            ChannelModel(p_corrupt=-0.1)

    @pytest.mark.parametrize("field", ["p_loss", "p_corrupt"])
    def test_nan_probability(self, field):
        with pytest.raises(RangeError):
            ChannelModel(**{field: float("nan")})


class TestBleConfig:
    def test_interval_floor(self):
        BleConfig(connection_interval_us=7500.0)
        with pytest.raises(RangeError):
            BleConfig(connection_interval_us=7499.9)

    def test_transfer_time_non_negative(self):
        with pytest.raises(RangeError):
            BleConfig(transfer_time_us=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["connection_interval_us", "transfer_time_us"])
    def test_non_finite_values_are_range_errors(self, field, value):
        with pytest.raises(RangeError) as err:
            BleConfig(**{field: value})
        assert err.value.field == field


def test_digest_is_stable_and_sensitive():
    a = olcfg_preset()
    assert a.digest() == olcfg_preset().digest()
    b = dataclasses.replace(a, tx_power_dbm=5)
    assert a.digest() != b.digest()
    assert a.digest() == "116775d61fee"  # every provenance line and pinned results file carries it


def test_digest_does_not_depend_on_how_python_formats_an_enum():
    # Python 3.10 formats a str-valued enum as its value, 3.11 as Type.NAME
    config = olcfg_preset()
    values = [getattr(config, field.name) for field in dataclasses.fields(config)]
    enums = {type(value) for value in values if isinstance(value, Enum)}
    with contextlib.ExitStack() as stack:
        for enum in enums:
            stack.enter_context(mock.patch.object(enum, "__format__", lambda self, spec: format(self.value, spec)))
        assert f"{CrcMode.OFF}" == "off"
        assert config.digest() == "116775d61fee"
