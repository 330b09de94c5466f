import itertools
import warnings

import pytest

from wsnlife.frame_model import (
    FrameConfig,
    FrameConfigError,
    FrameLengthWarning,
    ack_frame_length,
    data_frame_length,
    frame_preset,
)

SHORT_ADDR = frame_preset("paper-802154-short-addr")
TINYOS = frame_preset("paper-tinyos")


def all_frame_configs(extras=(0, 1, 5)):
    for dp, da, sp, sa, ex in itertools.product((0, 2), (0, 2, 8), (0, 2), (0, 2, 8), extras):
        yield FrameConfig(dp, da, sp, sa, ex)


def test_short_address_preset_is_17_plus_payload():
    assert data_frame_length(SHORT_ADDR, 0) == 17
    assert data_frame_length(SHORT_ADDR, 5) == 22


def test_tinyos_preset_adds_one_byte():
    # 28-byte payload rides in a 46-byte packet (18 bytes header and footer)
    assert data_frame_length(TINYOS, 28) == 46
    assert data_frame_length(TINYOS, 0) == 18


def test_bare_minimum_frame_is_11_bytes():
    bare = FrameConfig(0, 0, 0, 0, 0)
    assert data_frame_length(bare, 0) == 11


def test_ack_is_always_11_bytes():
    assert ack_frame_length() == 11
    # independent of any data-frame configuration
    for config in all_frame_configs():
        assert ack_frame_length() == 11
        assert config.addressing_bytes in range(0, 21)


def test_data_minus_ack_difference():
    # 18 + n data bytes against the fixed 11-byte ack
    for n in range(0, 60, 7):
        assert data_frame_length(TINYOS, n) - ack_frame_length() == 7 + n


def test_length_is_affine_in_payload_with_unit_slope():
    for config in all_frame_configs(extras=(0, 3)):
        base = data_frame_length(config, 0)
        for n in range(1, 40, 5):
            assert data_frame_length(config, n) == base + n


def test_header_length_range():
    for config in all_frame_configs():
        empty = data_frame_length(config, 0)
        assert 11 <= empty <= 31 + config.extra_header_bytes


def test_invalid_field_values_rejected():
    with pytest.raises(FrameConfigError):
        FrameConfig(dest_pan_bytes=1)
    with pytest.raises(FrameConfigError):
        FrameConfig(src_addr_bytes=4)
    with pytest.raises(FrameConfigError):
        FrameConfig(extra_header_bytes=-1)
    # byte counts are exact ints: 2.0 and True compare equal to 2 and 1 but are rejected
    with pytest.raises(FrameConfigError):
        FrameConfig(dest_addr_bytes=2.0)
    with pytest.raises(FrameConfigError):
        FrameConfig(extra_header_bytes=True)
    with pytest.raises(FrameConfigError):
        data_frame_length(TINYOS, -1)
    with pytest.raises(FrameConfigError):
        data_frame_length(FrameConfig(), True)


def test_unknown_preset_lists_available():
    with pytest.raises(FrameConfigError, match="paper-tinyos"):
        frame_preset("nope")


def test_oversize_frame_warns_but_returns():
    with pytest.warns(FrameLengthWarning):
        assert data_frame_length(TINYOS, 116) == 134
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert data_frame_length(TINYOS, 115) == 133  # at the limit: no warning
