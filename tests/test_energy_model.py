import time
from contextlib import nullcontext
from decimal import Decimal
from fractions import Fraction

import pytest

from helpers import save_profile
from wsnlife.calibration import load_readings, profile_from_readings
from wsnlife.exact import as_exact
from wsnlife.energy_model import (
    CC2420_PAPER,
    EnergyModel,
    ProfileError,
    RadioProfile,
    build_model,
    load_profile,
    profile_from_dict,
    profile_preset,
    profile_to_dict,
    receive_energy,
    send_energy,
)
from wsnlife.fixtures import fixture_path
from wsnlife.frame_model import (
    PPDU_SOFT_LIMIT,
    FrameConfig,
    FrameConfigError,
    FrameLengthWarning,
    ack_frame_length,
    frame_preset,
)

TINYOS = frame_preset("paper-tinyos")


def cc2420_model():
    return build_model(CC2420_PAPER, TINYOS)


def test_cc2420_model_coefficients_exact():
    model = cc2420_model()
    # b_send = CCA + tx 18-byte block + rx 11-byte ack = 0.08 + 2.16 + 1.30
    # b_receive = listen + rx 18-byte block + tx 11-byte ack = 0.58 + 2.13 + 1.32
    assert (model.m_send, model.b_send, model.m_receive, model.b_receive) == (
        Fraction("0.12"), Fraction("3.54"), Fraction("0.12"), Fraction("4.03")
    )
    assert model.overhead_bytes == 18
    assert ack_frame_length() == 11


def test_calibrated_model_keeps_exact_intercepts():
    # unrounded calibrated energies have long decimals, which a float intercept would round
    profile = profile_from_readings(**load_readings(fixture_path("cc2420.readings.json")))
    model = build_model(profile, TINYOS)
    overhead, ack = model.overhead_bytes, ack_frame_length()
    assert model.b_send == (
        as_exact(profile.e_cca) + profile.block_cost("tx", overhead) + profile.block_cost("rx", ack)
    )
    assert model.b_receive == (
        as_exact(profile.e_listen) + profile.block_cost("rx", overhead) + profile.block_cost("tx", ack)
    )


def test_energy_with_a_runaway_exponent_is_rejected_before_it_is_made_exact():
    # Fraction(Decimal("1e10000000")) builds a ten-million-digit int, which takes seconds
    started = time.perf_counter()
    with pytest.raises(ProfileError, match=r"^m_tx is out of range: its exponent is beyond ±4300$"):
        RadioProfile(m_tx=Decimal("1e10000000"), m_rx=0, e_cca=0, e_listen=0)
    with pytest.raises(ProfileError, match=r"^e_listen is out of range"):
        RadioProfile(m_tx=0, m_rx=0, e_cca=0, e_listen=Decimal("1e-10000000"))
    assert time.perf_counter() - started < 1


def test_zero_profile_gives_zero_model():
    zero = RadioProfile(m_tx=0, m_rx=0, e_cca=0, e_listen=0)
    model = build_model(zero, TINYOS)
    assert (model.m_send, model.b_send, model.m_receive, model.b_receive) == (0, 0, 0, 0)
    assert send_energy(model, 100) == 0


def test_unit_rate_intercepts_are_overhead_plus_ack():
    unit = RadioProfile(m_tx=1, m_rx=1, e_cca=0, e_listen=0)
    model = build_model(unit, TINYOS)
    assert model.b_send == 29  # 18 + 11
    assert model.b_receive == 29


def test_per_packet_energies_match_worked_example():
    model = cc2420_model()
    assert send_energy(model, 2) == Fraction("3.78")
    assert receive_energy(model, 2) == Fraction("4.27")
    assert send_energy(model, 6) == Fraction("4.26")
    assert receive_energy(model, 6) == Fraction("4.75")


def test_zero_payload_returns_intercepts():
    model = cc2420_model()
    assert send_energy(model, 0) == model.b_send
    assert receive_energy(model, 0) == model.b_receive


def test_receive_send_gap_is_constant_intercept_difference():
    model = cc2420_model()
    for n in range(0, 120, 7):
        # payloads whose frame overflows the PPDU must still warn
        overflows = model.overhead_bytes + n > PPDU_SOFT_LIMIT
        with pytest.warns(FrameLengthWarning) if overflows else nullcontext():
            gap = receive_energy(model, n) - send_energy(model, n)
        assert gap == pytest.approx(0.49, abs=1e-12)


def test_energies_affine_and_non_decreasing():
    model = cc2420_model()
    for n in range(0, 50):
        step = send_energy(model, n + 1) - send_energy(model, n)
        assert step == pytest.approx(model.m_send, abs=1e-12)
        assert receive_energy(model, n + 1) >= receive_energy(model, n)


def test_no_override_model_is_linear_in_rates():
    profile = RadioProfile(m_tx=0.25, m_rx=0.75, e_cca=0.05, e_listen=0.15)
    model = build_model(profile, TINYOS)
    # rebuild the intercepts by hand in exact decimal arithmetic
    assert as_exact(model.b_send) == Fraction("0.05") + Fraction("0.25") * 18 + Fraction("0.75") * 11
    assert as_exact(model.b_receive) == Fraction("0.15") + Fraction("0.75") * 18 + Fraction("0.25") * 11


def test_overrides_used_verbatim_only_for_their_exact_length():
    profile = RadioProfile(
        m_tx=0.1, m_rx=0.1, e_cca=0, e_listen=0, block_overrides={("tx", 18): 99.0}
    )
    tinyos = build_model(profile, TINYOS)  # overhead 18: override applies
    assert as_exact(tinyos.b_send) == 99 + Fraction("0.1") * 11
    short = build_model(profile, FrameConfig())  # overhead 17: fallback rate
    assert as_exact(short.b_send) == Fraction("0.1") * 17 + Fraction("0.1") * 11


def test_profile_validation():
    with pytest.raises(ProfileError):
        RadioProfile(m_tx=-0.1, m_rx=0, e_cca=0, e_listen=0)
    with pytest.raises(ProfileError):
        RadioProfile(m_tx=0, m_rx=0, e_cca=0, e_listen=0, block_overrides={("up", 11): 1.0})
    with pytest.raises(ProfileError):
        RadioProfile(m_tx=0, m_rx=0, e_cca=0, e_listen=0, block_overrides={("tx", 0): 1.0})
    with pytest.raises(ProfileError):
        RadioProfile(m_tx=0, m_rx=0, e_cca=0, e_listen=0, block_overrides={("tx", True): 9.0})
    with pytest.raises(ProfileError):
        send_energy(cc2420_model(), -1)
    with pytest.raises(ProfileError):
        send_energy(cc2420_model(), 2.5)


def test_preset_lookup():
    assert profile_preset("cc2420-paper") is CC2420_PAPER
    with pytest.raises(ProfileError, match="cc2420-paper"):
        profile_preset("cc9999")


def test_profile_file_roundtrip(tmp_path):
    path = tmp_path / "radio.profile.json"
    save_profile(CC2420_PAPER, path)
    loaded, frame = load_profile(path)
    assert loaded == CC2420_PAPER
    assert frame is None


def test_profile_document_validation():
    with pytest.raises(ProfileError, match="unknown fields"):
        profile_from_dict({"m_tx": 0, "m_rx": 0, "e_cca": 0, "e_listen": 0, "watts": 1})
    with pytest.raises(ProfileError, match="missing field"):
        profile_from_dict({"m_tx": 0, "m_rx": 0, "e_cca": 0})
    zero = {"m_tx": 0, "m_rx": 0, "e_cca": 0, "e_listen": 0}
    for field, value, message in (
        ("name", 5, "'name' must be a string"),
        ("block_overrides", 5, "'block_overrides' must be an object"),
        ("block_overrides", {"tx": [1.3]}, "'block_overrides.tx' must be an object"),
        ("block_overrides", {"tx": {"x": 1.3}}, "byte count 'x' is not an integer"),
        # a key other than the plain decimal form would alias the measured 18-byte block
        ("block_overrides", {"tx": {"18": 2.16, "1_8": 9.0}}, "byte count '1_8' is not an integer"),
        ("block_overrides", {"tx": {"18": 2.16, " 18": 9.0}}, "byte count ' 18' is not an integer"),
        ("block_overrides", {"tx": {"18": 2.16, "018": 9.0}}, "byte count '018' is not an integer"),
        ("block_overrides", {"tx": {"18": 2.16, "+18": 9.0}}, r"byte count '\+18' is not an integer"),
        ("frame", 5, "'frame' must be an object"),
        ("frame", {"preset": ["paper-tinyos"]}, "unknown frame preset"),
        ("kind", "lifetime-bounds", "'kind' must be 'radio-profile', got 'lifetime-bounds'"),
    ):
        with pytest.raises(ProfileError, match=message):
            profile_from_dict({**zero, field: value})
    with pytest.raises(FrameConfigError, match="src_addr_bytes must be a non-negative integer, got 8.0"):
        profile_from_dict({**zero, "frame": {"src_addr_bytes": 8.0}})


def test_profile_document_embedded_frame():
    doc = {**profile_to_dict(CC2420_PAPER), "frame": {"preset": "paper-tinyos"}}
    doc.pop("schema_version")
    profile, frame = profile_from_dict({**doc, "schema_version": 1})
    assert profile == CC2420_PAPER
    assert frame == TINYOS
    with pytest.raises(ProfileError, match="unknown frame preset"):
        profile_from_dict({**doc, "frame": {"preset": "nope"}})
