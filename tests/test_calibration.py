from fractions import Fraction

import pytest

from wsnlife.calibration import (
    NonPositiveInput,
    PacketReading,
    ReadingsError,
    ScopeReading,
    ZeroEffectiveBytes,
    load_readings,
    profile_from_readings,
    reading_energy,
)
from wsnlife.energy_model import CC2420_PAPER, build_model, send_energy, receive_energy
from wsnlife.exact import as_exact, round_half_up
from wsnlife.fixtures import fixture_path
from wsnlife.frame_model import frame_preset

# the four published CC2420 scope traces; the receive trace spans roughly the
# same time as the send trace, so it reuses the 96 ms duration
CCA = ScopeReading(v_scope=3.2, duration=0.0014)
LISTEN = ScopeReading(v_scope=3.2, duration=0.010)
TX = PacketReading(ScopeReading(v_scope=2.92, duration=0.096), byte_count=46, excluded_preamble_bytes=4)
RX = PacketReading(ScopeReading(v_scope=2.88, duration=0.096), byte_count=46, excluded_preamble_bytes=4)


def formula_mj(v_scope, duration):
    # independent recomputation of the sense-resistor formula
    return as_exact(v_scope) / (as_exact(98) * as_exact("1.7")) * 3 * as_exact(duration) * 1000


def test_cca_reading_energy():
    energy = reading_energy(CCA)
    assert energy == pytest.approx(0.0806, abs=0.0005)
    assert round_half_up(energy) == 0.08
    assert reading_energy(CCA) == formula_mj("3.2", "0.0014")


def test_listening_reading_energy():
    energy = reading_energy(LISTEN)
    assert energy == pytest.approx(0.576, abs=0.0005)
    assert round_half_up(energy) == 0.58


def test_round_half_up_keeps_every_digit_left_of_the_point():
    # 28 significant digits, the decimal default, would make quantize raise
    assert round_half_up(Fraction(10**30) + Fraction(1, 200)) == 1e30
    assert round_half_up(1.1668611435239207e23) == 1.1668611435239207e23


def test_send_trace_per_byte_rate():
    total = reading_energy(TX.readings[0])
    assert total == pytest.approx(5.048, abs=0.0005)
    assert total / TX.effective_bytes == pytest.approx(0.1202, abs=0.0005)


def test_profile_from_published_traces_unrounded():
    profile = profile_from_readings(CCA, LISTEN, TX, RX)
    assert profile.m_tx == pytest.approx(0.120, abs=0.0005)
    assert profile.m_rx == pytest.approx(0.119, abs=0.0005)
    assert profile.e_cca == pytest.approx(0.081, abs=0.0005)
    assert profile.e_listen == pytest.approx(0.576, abs=0.0005)


def test_rounded_profile_reproduces_cc2420_preset():
    profile = profile_from_readings(CCA, LISTEN, TX, RX, round_like_paper=True)
    assert profile.m_tx == CC2420_PAPER.m_tx
    assert profile.m_rx == CC2420_PAPER.m_rx
    assert profile.e_cca == CC2420_PAPER.e_cca
    assert profile.e_listen == CC2420_PAPER.e_listen
    for key, energy in CC2420_PAPER.block_overrides.items():
        assert profile.block_overrides[key] == energy
    # and the linear model built from it is identical
    tinyos = frame_preset("paper-tinyos")
    assert build_model(profile, tinyos) == build_model(CC2420_PAPER, tinyos)


def test_rounded_profile_reproduces_worked_energies():
    profile = profile_from_readings(CCA, LISTEN, TX, RX, round_like_paper=True)
    model = build_model(profile, frame_preset("paper-tinyos"))
    assert send_energy(model, 2) == pytest.approx(3.78, abs=0.02)
    assert receive_energy(model, 2) == pytest.approx(4.27, abs=0.02)


def test_identical_traces_give_symmetric_rates():
    rx = PacketReading(TX.readings, byte_count=46, excluded_preamble_bytes=4)
    profile = profile_from_readings(CCA, LISTEN, TX, rx)
    assert profile.m_tx == profile.m_rx


def test_doubling_scope_voltage_doubles_energy():
    doubled = ScopeReading(v_scope=6.4, duration=0.0014)
    assert reading_energy(doubled) == 2 * reading_energy(CCA)
    profile = profile_from_readings(CCA, LISTEN, TX, RX)
    boosted = profile_from_readings(
        ScopeReading(v_scope=6.4, duration=0.0014), LISTEN, TX, RX
    )
    assert boosted.e_cca == 2 * profile.e_cca


def test_reading_energy_linearity_in_each_knob():
    base = reading_energy(ScopeReading(2.0, 0.01))
    assert reading_energy(ScopeReading(4.0, 0.01)) == 2 * base
    assert reading_energy(ScopeReading(2.0, 0.02)) == 2 * base
    assert reading_energy(ScopeReading(2.0, 0.01, gain=196)) == base / 2
    assert reading_energy(ScopeReading(2.0, 0.01, r_sense=3.4)) == base / 2


def test_mean_over_repeated_readings():
    # energy is linear in v_scope, so averaging two symmetric traces lands on the middle one
    pair = (ScopeReading(3.0, 0.0014), ScopeReading(3.4, 0.0014))
    profile = profile_from_readings(pair, LISTEN, TX, RX)
    assert profile.e_cca == float(reading_energy(CCA))


def test_input_validation():
    with pytest.raises(NonPositiveInput):
        ScopeReading(v_scope=0, duration=0.01)
    with pytest.raises(NonPositiveInput):
        ScopeReading(v_scope=1.0, duration=-0.5)
    with pytest.raises(ZeroEffectiveBytes):
        PacketReading(ScopeReading(1.0, 0.1), byte_count=4, excluded_preamble_bytes=4)
    with pytest.raises(ZeroEffectiveBytes):
        PacketReading(ScopeReading(1.0, 0.1), byte_count=4, excluded_preamble_bytes=-1)


def test_readings_file_loader_matches_inline_values():
    slots = load_readings(fixture_path("cc2420.readings.json"))
    assert slots["cca"] == (CCA,)
    assert slots["listen"] == (LISTEN,)
    assert slots["tx"] == TX
    assert slots["rx"] == RX
    profile = profile_from_readings(round_like_paper=True, **slots)
    assert profile.e_cca == 0.08 and profile.e_listen == 0.58 and profile.m_tx == 0.12


def test_readings_file_validation(tmp_path):
    path = tmp_path / "r.json"
    path.write_text('{"cca": {"v_scope": 1, "duration_ms": 1}}')
    with pytest.raises(ReadingsError, match="missing field"):
        load_readings(path)
    path.write_text(
        '{"cca": {"v_scope": 1, "duration_ms": 1, "volts": 2},'
        ' "listening": {"v_scope": 1, "duration_ms": 1},'
        ' "tx": {"v_scope": 1, "duration_ms": 1, "byte_count": 10},'
        ' "rx": {"v_scope": 1, "duration_ms": 1, "byte_count": 10}}'
    )
    with pytest.raises(ReadingsError, match="unknown fields"):
        load_readings(path)
    # a JSON value other than an object of numbers is an input error too
    good = '{"v_scope": 1, "duration_ms": 1}'
    packet = '{"v_scope": 1, "duration_ms": 1, "byte_count": 10}'
    for cca, match in (("null", "must be an object"), ('[{"v_scope": "1", "duration_ms": 1}]', "v_scope must be a number")):
        path.write_text(f'{{"cca": {cca}, "listening": {good}, "tx": {packet}, "rx": {packet}}}')
        with pytest.raises(ReadingsError, match=match):
            load_readings(path)
    path.write_text(f'{{"gain": [98], "cca": {good}, "listening": {good}, "tx": {packet}, "rx": {packet}}}')
    with pytest.raises(ReadingsError, match="gain must be a number"):
        load_readings(path)
    # a byte count is an exact int: 46.0 would shift the calibrated rate's last digits
    for byte_count in ("46.0", "46.5"):
        inexact = f'{{"v_scope": 1, "duration_ms": 1, "byte_count": {byte_count}}}'
        path.write_text(f'{{"cca": {good}, "listening": {good}, "tx": {inexact}, "rx": {packet}}}')
        with pytest.raises(ReadingsError, match=f"byte_count must be an integer, got {byte_count}"):
            load_readings(path)


def test_readings_file_durations_enter_exactly(tmp_path):
    # a float millisecond count divided by 1000 in binary no longer reads back as the value written
    duration_ms = "26.881505180039124"
    assert as_exact(float(as_exact(duration_ms) / 1000)) != as_exact(duration_ms) / 1000
    path = tmp_path / "r.json"
    entry = f'{{"v_scope": 3.2, "duration_ms": {duration_ms}}}'
    packet = '{"v_scope": 1, "duration_ms": 1, "byte_count": 10}'
    path.write_text(f'{{"cca": {entry}, "listening": {entry}, "tx": {packet}, "rx": {packet}}}')
    (cca,) = load_readings(path)["cca"]
    assert reading_energy(cca) == formula_mj("3.2", Fraction(duration_ms) / 1000)
