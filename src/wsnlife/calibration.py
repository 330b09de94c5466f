"""Scope-trace arithmetic: (voltage, duration) readings to a radio profile.

The measurement rig inserts a sense resistor between supply and radio and
amplifies the voltage across it, so the energy of one operation is

    E = v_scope / (gain * r_sense) * v_supply * duration

with the default rig constants gain 98, 1.7 ohm and a 3 V supply.
"""

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .energy_model import DIRECTIONS, RadioProfile
from .errors import Error, fields, labelled, read_json
from .exact import exact_number, round_half_up, to_float
from .frame_model import byte_count


class NonPositiveInput(Error):
    pass


class ZeroEffectiveBytes(Error):
    pass


class ReadingsError(Error):
    pass


DEFAULT_GAIN = 98.0
DEFAULT_R_SENSE = 1.7
DEFAULT_V_SUPPLY = 3.0

# block overrides are emitted for the ack length and the two standard
# data-frame overhead lengths so a derived profile plugs straight into
# build_model for either frame preset
DEFAULT_BLOCK_LENGTHS = (11, 17, 18)


@dataclass(frozen=True)
class ScopeReading:
    """One averaged oscilloscope trace: amplified volts over a duration in
    seconds, each held as an exact rational."""

    v_scope: Fraction
    duration: Fraction
    gain: Fraction = DEFAULT_GAIN
    r_sense: Fraction = DEFAULT_R_SENSE
    v_supply: Fraction = DEFAULT_V_SUPPLY

    def __post_init__(self):
        for attr in ("v_scope", "duration", "gain", "r_sense", "v_supply"):
            value = exact_number(attr, getattr(self, attr), ReadingsError)
            if value <= 0:
                raise NonPositiveInput(f"{attr} must be > 0")
            object.__setattr__(self, attr, value)


@dataclass(frozen=True)
class PacketReading:
    """A whole-packet trace plus the byte count it covers.

    ``excluded_preamble_bytes`` are subtracted from the byte count before
    deriving per-byte rates (the trace includes stretch preamble bytes that
    the frame model does not account for).
    """

    readings: tuple
    byte_count: int
    excluded_preamble_bytes: int = 0

    def __post_init__(self):
        readings = _as_reading_tuple(self.readings)
        object.__setattr__(self, "readings", readings)
        for attr in ("byte_count", "excluded_preamble_bytes"):
            byte_count(attr, getattr(self, attr), ReadingsError)
        if self.byte_count <= self.excluded_preamble_bytes:
            raise ZeroEffectiveBytes(
                f"byte_count ({self.byte_count}) must exceed excluded preamble "
                f"bytes ({self.excluded_preamble_bytes})"
            )

    @property
    def effective_bytes(self) -> int:
        return self.byte_count - self.excluded_preamble_bytes


def _as_reading_tuple(value) -> tuple:
    if isinstance(value, ScopeReading):
        return (value,)
    readings = tuple(value)
    if not readings or not all(isinstance(r, ScopeReading) for r in readings):
        raise ReadingsError("expected a ScopeReading or a non-empty sequence of them")
    return readings


def reading_energy(reading: ScopeReading) -> Fraction:
    """Exact energy of one scope trace in millijoules."""
    joules = reading.v_scope / (reading.gain * reading.r_sense) * reading.v_supply * reading.duration
    return joules * 1000  # mJ


def _mean_energy(readings) -> Fraction:
    readings = _as_reading_tuple(readings)
    return sum(reading_energy(r) for r in readings) / len(readings)


def profile_from_readings(
    cca,
    listen,
    tx: PacketReading,
    rx: PacketReading,
    round_like_paper: bool = False,
    name: str = "",
) -> RadioProfile:
    """Assemble a RadioProfile from scope traces of the four radio operations.

    ``cca`` and ``listen`` take a ScopeReading or a sequence to average.  Block
    overrides for ``DEFAULT_BLOCK_LENGTHS`` come from the unrounded per-byte rates.

    With ``round_like_paper`` every derived value is rounded to two decimals
    (half-up) before it is stored, which reproduces published rounded
    profiles; default keeps full precision.
    """
    e_cca = _mean_energy(cca)
    e_listen = _mean_energy(listen)
    m_tx = _mean_energy(tx.readings) / tx.effective_bytes
    m_rx = _mean_energy(rx.readings) / rx.effective_bytes

    def finish(x: Fraction) -> float:
        nearest = to_float("calibrated energy", x)  # an Error if no float holds x
        return round_half_up(x) if round_like_paper else nearest

    rates = (("tx", m_tx), ("rx", m_rx))
    overrides = {(direction, n): finish(rate * n) for direction, rate in rates for n in DEFAULT_BLOCK_LENGTHS}

    return RadioProfile(
        m_tx=finish(m_tx),
        m_rx=finish(m_rx),
        e_cca=finish(e_cca),
        e_listen=finish(e_listen),
        block_overrides=overrides,
        name=name,
    )


_READINGS_FIELDS = {"schema_version", "gain", "r_sense", "v_supply", "cca", "listening", "tx", "rx"}
_SCOPE_FIELDS = {"v_scope", "duration_ms", "gain", "r_sense", "v_supply"}
_PACKET_FIELDS = _SCOPE_FIELDS | {"byte_count", "excluded_preamble_bytes"}


def _parse_entry(entry, rig: dict, packet: bool) -> ScopeReading:
    allowed, required = (_PACKET_FIELDS, ("byte_count",)) if packet else (_SCOPE_FIELDS, ())
    fields(entry, "a reading", ReadingsError, allowed, ("v_scope", "duration_ms", *required))
    values = {**rig, **entry}
    return ScopeReading(
        v_scope=values["v_scope"],
        duration=exact_number("duration_ms", values["duration_ms"], ReadingsError) / 1000,
        gain=values["gain"],
        r_sense=values["r_sense"],
        v_supply=values["v_supply"],
    )


def _parse_slot(value, rig: dict, packet: bool):
    entries = value if isinstance(value, list) else [value]
    if not entries:
        raise ReadingsError("empty reading list")
    readings = tuple(_parse_entry(e, rig, packet) for e in entries)
    if not packet:
        return readings
    # each entry's byte counts are checked as they are; equal readings then merge into one
    packets = {PacketReading(readings, e["byte_count"], e.get("excluded_preamble_bytes", 0)) for e in entries}
    if len(packets) != 1:
        raise ReadingsError("tx/rx entries need one consistent byte_count")
    return packets.pop()


def load_readings(path) -> dict:
    """Parse a readings file into profile_from_readings keyword arguments."""
    path = Path(path)
    with labelled(path):
        doc = read_json(path, ReadingsError)
        fields(doc, "readings document", ReadingsError, _READINGS_FIELDS, ("cca", "listening", "tx", "rx"))
        rig = {
            "gain": doc.get("gain", DEFAULT_GAIN),
            "r_sense": doc.get("r_sense", DEFAULT_R_SENSE),
            "v_supply": doc.get("v_supply", DEFAULT_V_SUPPLY),
        }
        slots = {}
        for slot, field in (("cca", "cca"), ("listen", "listening"), ("tx", "tx"), ("rx", "rx")):
            with labelled(field):
                slots[slot] = _parse_slot(doc[field], rig, packet=slot in DIRECTIONS)
        return slots
