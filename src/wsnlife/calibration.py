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
from .errors import Error, read_json
from .exact import as_exact, round_half_up


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
    """One averaged oscilloscope trace: amplified volts over a duration in seconds."""

    v_scope: float
    duration: float
    gain: float = DEFAULT_GAIN
    r_sense: float = DEFAULT_R_SENSE
    v_supply: float = DEFAULT_V_SUPPLY

    def __post_init__(self):
        for attr in ("v_scope", "duration", "gain", "r_sense", "v_supply"):
            if not getattr(self, attr) > 0:
                raise NonPositiveInput(f"{attr} must be > 0")


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
        if self.excluded_preamble_bytes < 0:
            raise ZeroEffectiveBytes("excluded_preamble_bytes must be >= 0")
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
    joules = (
        as_exact(reading.v_scope)
        / (as_exact(reading.gain) * as_exact(reading.r_sense))
        * as_exact(reading.v_supply)
        * as_exact(reading.duration)
    )
    return joules * 1000  # mJ


def _mean_energy(readings) -> Fraction:
    readings = _as_reading_tuple(readings)
    return sum(reading_energy(r) for r in readings) / len(readings)


def profile_from_readings(
    cca,
    listen,
    tx: PacketReading,
    rx: PacketReading,
    block_readings: dict | None = None,
    block_lengths=DEFAULT_BLOCK_LENGTHS,
    round_like_paper: bool = False,
    name: str = "",
) -> RadioProfile:
    """Assemble a RadioProfile from scope traces of the four radio operations.

    ``cca`` and ``listen`` take a ScopeReading or a sequence to average.
    Block overrides for ``block_lengths`` are extrapolated from the
    unrounded per-byte rates unless an explicit trace for that
    (direction, length) is supplied in ``block_readings``.

    With ``round_like_paper`` every derived value is rounded to two decimals
    (half-up) before it is stored, which reproduces published rounded
    profiles; default keeps full precision.
    """
    e_cca = _mean_energy(cca)
    e_listen = _mean_energy(listen)
    m_tx = _mean_energy(tx.readings) / tx.effective_bytes
    m_rx = _mean_energy(rx.readings) / rx.effective_bytes

    def finish(x: Fraction) -> float:
        return round_half_up(x) if round_like_paper else float(x)

    rates = {"tx": m_tx, "rx": m_rx}
    block_readings = block_readings or {}
    overrides = {}
    for direction in DIRECTIONS:
        for nbytes in block_lengths:
            explicit = block_readings.get((direction, nbytes))
            if explicit is not None:
                energy = _mean_energy(explicit)
            else:
                energy = rates[direction] * nbytes
            overrides[(direction, nbytes)] = finish(energy)

    return RadioProfile(
        m_tx=finish(m_tx),
        m_rx=finish(m_rx),
        e_cca=finish(e_cca),
        e_listen=finish(e_listen),
        block_overrides=overrides,
        name=name,
    )


_READINGS_FIELDS = {"schema_version", "gain", "r_sense", "v_supply", "cca", "listening", "tx", "rx"}
_ENTRY_FIELDS = {"v_scope", "duration_ms", "gain", "r_sense", "v_supply", "byte_count", "excluded_preamble_bytes"}


def _parse_entry(entry: dict, rig: dict, source: str, packet: bool) -> ScopeReading:
    if not isinstance(entry, dict):
        raise ReadingsError(f"{source}: a reading must be an object, got {entry!r}")
    unknown = set(entry) - _ENTRY_FIELDS
    if unknown:
        raise ReadingsError(f"{source}: unknown fields: {', '.join(sorted(unknown))}")
    for required in ("v_scope", "duration_ms"):
        if required not in entry:
            raise ReadingsError(f"{source}: missing field {required!r}")
    if not packet and ("byte_count" in entry or "excluded_preamble_bytes" in entry):
        raise ReadingsError(f"{source}: byte counts only belong on tx/rx entries")
    values = {**rig, **entry}
    for field, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ReadingsError(f"{source}: {field} must be a number, got {value!r}")
    duration = float(as_exact(values["duration_ms"]) / 1000)
    return ScopeReading(
        v_scope=values["v_scope"],
        duration=duration,
        gain=values["gain"],
        r_sense=values["r_sense"],
        v_supply=values["v_supply"],
    )


def _parse_slot(value, rig: dict, source: str, packet: bool = False):
    entries = value if isinstance(value, list) else [value]
    if not entries:
        raise ReadingsError(f"{source}: empty reading list")
    readings = tuple(_parse_entry(e, rig, source, packet) for e in entries)
    if not packet:
        return readings
    counts = {(e.get("byte_count"), e.get("excluded_preamble_bytes", 0)) for e in entries}
    if len(counts) != 1 or None in {c[0] for c in counts}:
        raise ReadingsError(f"{source}: tx/rx entries need one consistent byte_count")
    (byte_count, excluded), = counts
    return PacketReading(readings, byte_count=byte_count, excluded_preamble_bytes=excluded)


def load_readings(path) -> dict:
    """Parse a readings file into profile_from_readings keyword arguments."""
    path = Path(path)
    doc = read_json(path, ReadingsError)
    if not isinstance(doc, dict):
        raise ReadingsError(f"{path}: readings document must be an object")
    unknown = set(doc) - _READINGS_FIELDS
    if unknown:
        raise ReadingsError(f"{path}: unknown fields: {', '.join(sorted(unknown))}")
    for required in ("cca", "listening", "tx", "rx"):
        if required not in doc:
            raise ReadingsError(f"{path}: missing field {required!r}")
    rig = {
        "gain": doc.get("gain", DEFAULT_GAIN),
        "r_sense": doc.get("r_sense", DEFAULT_R_SENSE),
        "v_supply": doc.get("v_supply", DEFAULT_V_SUPPLY),
    }
    return {
        "cca": _parse_slot(doc["cca"], rig, f"{path}: cca"),
        "listen": _parse_slot(doc["listening"], rig, f"{path}: listening"),
        "tx": _parse_slot(doc["tx"], rig, f"{path}: tx", packet=True),
        "rx": _parse_slot(doc["rx"], rig, f"{path}: rx", packet=True),
    }
