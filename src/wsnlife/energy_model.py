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
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from .errors import Error, dumps_canonical, fields, read_json
from .exact import as_exact
from .frame_model import (
    FRAME_PRESETS,
    FrameConfig,
    ack_frame_length,
    check_frame_length,
    data_frame_length,
)

DIRECTIONS = ("tx", "rx")


class ProfileError(Error):
    pass


def _check_energy(what: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float, Decimal, Fraction)):
        raise ProfileError(f"{what} must be a number, got {value!r}")
    if value < 0:
        raise ProfileError(f"{what} must be >= 0")


@dataclass(frozen=True)
class RadioProfile:
    """Measured per-byte and fixed energy costs of a radio, in millijoules.

    ``block_overrides`` maps (direction, byte_count) to a measured energy for
    that exact block.  Measured radios are not perfectly linear, so a block
    override is used verbatim wherever a segment of exactly that length is
    costed; everything else falls back to per-byte rate x length.
    """

    m_tx: float
    m_rx: float
    e_cca: float
    e_listen: float
    block_overrides: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        for attr in ("m_tx", "m_rx", "e_cca", "e_listen"):
            _check_energy(attr, getattr(self, attr))
        for key, value in self.block_overrides.items():
            direction, nbytes = key
            if direction not in DIRECTIONS:
                raise ProfileError(f"block override direction must be tx or rx, got {direction!r}")
            if not isinstance(nbytes, int) or nbytes <= 0:
                raise ProfileError(f"block override byte count must be a positive integer, got {nbytes!r}")
            _check_energy(f"block override energy for {key}", value)

    def block_cost(self, direction: str, nbytes: int) -> Fraction:
        override = self.block_overrides.get((direction, nbytes))
        if override is not None:
            return as_exact(override)
        rate = self.m_tx if direction == "tx" else self.m_rx
        return as_exact(rate) * nbytes


@dataclass(frozen=True)
class EnergyModel:
    """The four linear coefficients (exact mJ) plus the frame geometry they were built for."""

    m_send: Fraction
    b_send: Fraction
    m_receive: Fraction
    b_receive: Fraction
    overhead_bytes: int
    ack_bytes: int

    def __post_init__(self):
        for attr in ("m_send", "b_send", "m_receive", "b_receive"):
            object.__setattr__(self, attr, as_exact(getattr(self, attr)))


def build_model(profile: RadioProfile, frame: FrameConfig) -> EnergyModel:
    """Derive the linear send/receive model for a radio and frame layout."""
    overhead = data_frame_length(frame, 0)
    ack = ack_frame_length()
    b_send = (
        as_exact(profile.e_cca)
        + profile.block_cost("tx", overhead)
        + profile.block_cost("rx", ack)
    )
    b_receive = (
        as_exact(profile.e_listen)
        + profile.block_cost("rx", overhead)
        + profile.block_cost("tx", ack)
    )
    return EnergyModel(
        m_send=profile.m_tx,
        b_send=b_send,
        m_receive=profile.m_rx,
        b_receive=b_receive,
        overhead_bytes=overhead,
        ack_bytes=ack,
    )


def _check_payload(model: EnergyModel, payload_bytes: int) -> None:
    """Reject a negative payload; warn if its data frame overflows the PPDU."""
    if payload_bytes < 0:
        raise ProfileError("payload_bytes must be >= 0")
    check_frame_length(model.overhead_bytes + payload_bytes)


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


_PROFILE_FIELDS = {
    "schema_version",
    "name",
    "m_tx",
    "m_rx",
    "e_cca",
    "e_listen",
    "block_overrides",
    "frame",
}
_FRAME_FIELDS = {
    "preset",
    "dest_pan_bytes",
    "dest_addr_bytes",
    "src_pan_bytes",
    "src_addr_bytes",
    "extra_header_bytes",
}


def _frame_from_dict(doc: dict, source: str) -> FrameConfig:
    fields(doc, "'frame'", source, ProfileError, _FRAME_FIELDS)
    if "preset" in doc:
        if len(doc) != 1:
            raise ProfileError(f"{source}: frame preset cannot be combined with explicit fields")
        preset = doc["preset"]
        if not isinstance(preset, str) or preset not in FRAME_PRESETS:
            raise ProfileError(f"{source}: unknown frame preset {preset!r}")
        return FRAME_PRESETS[preset]
    return FrameConfig(**doc)


def _byte_count(key: str, source: str) -> int:
    """The byte count whose plain decimal form is ``key``, so no two keys name one block."""
    try:
        nbytes = int(key)
    except ValueError:
        nbytes = None
    if str(nbytes) != key:
        raise ProfileError(f"{source}: block override byte count {key!r} is not an integer")
    return nbytes


def profile_from_dict(doc: dict, source: str = "<profile>"):
    """Parse a profile document; returns (RadioProfile, FrameConfig | None)."""
    fields(doc, "profile document", source, ProfileError, _PROFILE_FIELDS, ("m_tx", "m_rx", "e_cca", "e_listen"))
    if not isinstance(doc.get("name", ""), str):
        raise ProfileError(f"{source}: 'name' must be a string")
    blocks = fields(doc.get("block_overrides", {}), "'block_overrides'", source, ProfileError, DIRECTIONS)
    overrides = {
        (direction, _byte_count(key, source)): energy
        for direction, by_count in blocks.items()
        for key, energy in fields(by_count, f"'block_overrides.{direction}'", source, ProfileError).items()
    }
    profile = RadioProfile(
        m_tx=doc["m_tx"],
        m_rx=doc["m_rx"],
        e_cca=doc["e_cca"],
        e_listen=doc["e_listen"],
        block_overrides=overrides,
        name=doc.get("name", ""),
    )
    frame = _frame_from_dict(doc["frame"], source) if "frame" in doc else None
    return profile, frame


def profile_to_dict(profile: RadioProfile) -> dict:
    overrides = {}
    for (direction, nbytes), energy in sorted(profile.block_overrides.items()):
        overrides.setdefault(direction, {})[str(nbytes)] = energy
    doc = {
        "schema_version": 1,
        "name": profile.name,
        "m_tx": profile.m_tx,
        "m_rx": profile.m_rx,
        "e_cca": profile.e_cca,
        "e_listen": profile.e_listen,
    }
    if overrides:
        doc["block_overrides"] = overrides
    return doc


def load_profile(path):
    """Load a profile file; returns (RadioProfile, FrameConfig | None)."""
    path = Path(path)
    return profile_from_dict(read_json(path, ProfileError), source=str(path))


def save_profile(profile: RadioProfile, path) -> None:
    Path(path).write_text(dumps_canonical(profile_to_dict(profile)) + "\n")
