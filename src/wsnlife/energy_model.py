"""Linear per-packet energy model: energy = m * payload + b, in exact rationals.

The fixed part b bundles channel acquisition, frame overhead and the
acknowledgment exchange; the incremental part is per payload byte.  For a
unicast data packet:

    b_send    = E(CCA)    + E(tx data-frame overhead) + E(rx ack)
    b_receive = E(listen) + E(rx data-frame overhead) + E(tx ack)

There is no listening before the sender receives the ack and no CCA before
the receiver transmits it, so each fixed radio cost appears exactly once
per exchange.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .errors import Error, fields, labelled, read_json
from .exact import exact_number, to_float
from .frame_model import (
    FRAME_PRESETS,
    FrameConfig,
    ack_frame_length,
    byte_count,
    check_frame_length,
    data_frame_length,
)

DIRECTIONS = ("tx", "rx")
ENERGIES = ("m_tx", "m_rx", "e_cca", "e_listen")  # RadioProfile's energy fields, in order


class ProfileError(Error):
    pass


def _energy(what: str, value) -> Fraction:
    """``value`` as an exact energy, or ``ProfileError`` naming ``what``."""
    energy = exact_number(what, value, ProfileError)
    if energy < 0:
        raise ProfileError(f"{what} must be >= 0")
    return energy


@dataclass(frozen=True)
class RadioProfile:
    """Measured per-byte and fixed energy costs of a radio, in millijoules.

    ``block_overrides`` maps (direction, byte_count) to a measured energy for
    that exact block.  Measured radios are not perfectly linear, so a block
    override is used verbatim wherever a segment of exactly that length is
    costed; everything else falls back to per-byte rate x length.  Every
    energy is held as an exact ``Fraction``, made once when the profile is built.
    """

    m_tx: Fraction
    m_rx: Fraction
    e_cca: Fraction
    e_listen: Fraction
    block_overrides: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        for attr in ENERGIES:
            object.__setattr__(self, attr, _energy(attr, getattr(self, attr)))
        overrides = {}
        for key, value in self.block_overrides.items():
            direction, nbytes = key
            if direction not in DIRECTIONS:
                raise ProfileError(f"block override direction must be tx or rx, got {direction!r}")
            if type(nbytes) is not int or nbytes <= 0:
                raise ProfileError(f"block override byte count must be a positive integer, got {nbytes!r}")
            overrides[key] = _energy(f"block override energy for {key}", value)
        object.__setattr__(self, "block_overrides", overrides)

    def block_cost(self, direction: str, nbytes: int) -> Fraction:
        override = self.block_overrides.get((direction, nbytes))
        if override is not None:
            return override
        return (self.m_tx if direction == "tx" else self.m_rx) * nbytes


@dataclass(frozen=True)
class EnergyModel:
    """The four linear coefficients (exact mJ) plus the data-frame overhead (bytes) they were built for."""

    m_send: Fraction
    b_send: Fraction
    m_receive: Fraction
    b_receive: Fraction
    overhead_bytes: int

    def __post_init__(self):
        for attr in ("m_send", "b_send", "m_receive", "b_receive"):
            object.__setattr__(self, attr, _energy(attr, getattr(self, attr)))
        byte_count("overhead_bytes", self.overhead_bytes, ProfileError)


def build_model(profile: RadioProfile, frame: FrameConfig) -> EnergyModel:
    """Derive the linear send/receive model for a radio and frame layout."""
    overhead = data_frame_length(frame, 0)
    ack = ack_frame_length()
    b_send = profile.e_cca + profile.block_cost("tx", overhead) + profile.block_cost("rx", ack)
    b_receive = profile.e_listen + profile.block_cost("rx", overhead) + profile.block_cost("tx", ack)
    return EnergyModel(
        m_send=profile.m_tx,
        b_send=b_send,
        m_receive=profile.m_rx,
        b_receive=b_receive,
        overhead_bytes=overhead,
    )


def _check_payload(model: EnergyModel, payload_bytes: int) -> None:
    """Reject a payload that is not a byte count; warn if its data frame overflows the PPDU."""
    check_frame_length(model.overhead_bytes + byte_count("payload_bytes", payload_bytes, ProfileError))


def send_energy(model: EnergyModel, payload_bytes: int) -> Fraction:
    """Energy (mJ) for one node to unicast an n-byte payload, ack included."""
    _check_payload(model, payload_bytes)
    return model.m_send * payload_bytes + model.b_send


def receive_energy(model: EnergyModel, payload_bytes: int) -> Fraction:
    """Energy (mJ) for one node to receive an n-byte payload and ack it."""
    _check_payload(model, payload_bytes)
    return model.m_receive * payload_bytes + model.b_receive


# Measured CC2420 values (max output power, 3 V supply).  The 11- and
# 18-byte block energies are kept as overrides because the measurements are
# not internally linear: 0.12 * 11 = 1.32 but the measured 11-byte receive
# block is 1.30 mJ.
CC2420_PAPER = RadioProfile(
    m_tx=0.12,
    m_rx=0.12,
    e_cca=0.08,
    e_listen=0.58,
    block_overrides={
        ("tx", 11): 1.32,
        ("tx", 18): 2.16,
        ("rx", 11): 1.30,
        ("rx", 18): 2.13,
    },
    name="cc2420-paper",
)

PROFILE_PRESETS = {"cc2420-paper": CC2420_PAPER}


def profile_preset(name: str) -> RadioProfile:
    try:
        return PROFILE_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PROFILE_PRESETS))
        raise ProfileError(f"unknown profile preset {name!r} (available: {known})") from None


_PROFILE_FIELDS = {"schema_version", "kind", "name", *ENERGIES, "block_overrides", "frame"}
_FRAME_FIELDS = {
    "preset",
    "dest_pan_bytes",
    "dest_addr_bytes",
    "src_pan_bytes",
    "src_addr_bytes",
    "extra_header_bytes",
}


def _frame_from_dict(doc: dict) -> FrameConfig:
    fields(doc, "'frame'", ProfileError, _FRAME_FIELDS)
    if "preset" in doc:
        if len(doc) != 1:
            raise ProfileError("frame preset cannot be combined with explicit fields")
        preset = doc["preset"]
        if not isinstance(preset, str) or preset not in FRAME_PRESETS:
            raise ProfileError(f"unknown frame preset {preset!r}")
        return FRAME_PRESETS[preset]
    return FrameConfig(**doc)


def _byte_count(key: str) -> int:
    """The byte count whose plain decimal form is ``key``, so no two keys name one block."""
    try:
        nbytes = int(key)
    except ValueError:
        nbytes = None
    if str(nbytes) != key:
        raise ProfileError(f"block override byte count {key!r} is not an integer")
    return nbytes


def profile_from_dict(doc: dict):
    """Parse a profile document; returns (RadioProfile, FrameConfig | None)."""
    fields(doc, "profile document", ProfileError, _PROFILE_FIELDS, ENERGIES)
    if doc.get("kind", "radio-profile") != "radio-profile":
        raise ProfileError(f"'kind' must be 'radio-profile', got {doc['kind']!r}")
    if not isinstance(doc.get("name", ""), str):
        raise ProfileError("'name' must be a string")
    blocks = fields(doc.get("block_overrides", {}), "'block_overrides'", ProfileError, DIRECTIONS)
    overrides = {
        (direction, _byte_count(key)): energy
        for direction, by_count in blocks.items()
        for key, energy in fields(by_count, f"'block_overrides.{direction}'", ProfileError).items()
    }
    profile = RadioProfile(*(doc[attr] for attr in ENERGIES), overrides, doc.get("name", ""))
    frame = _frame_from_dict(doc["frame"]) if "frame" in doc else None
    return profile, frame


def profile_to_dict(profile: RadioProfile) -> dict:
    overrides = {}
    for (direction, nbytes), energy in sorted(profile.block_overrides.items()):
        overrides.setdefault(direction, {})[str(nbytes)] = to_float("block override energy", energy)
    doc = {"schema_version": 1, "kind": "radio-profile", "name": profile.name}
    for attr in ENERGIES:
        doc[attr] = to_float(attr, getattr(profile, attr))
    if overrides:
        doc["block_overrides"] = overrides
    return doc


def load_profile(path):
    """Load a profile file; returns (RadioProfile, FrameConfig | None)."""
    path = Path(path)
    with labelled(path):
        return profile_from_dict(read_json(path, ProfileError))
