"""On-air byte counts for 802.15.4 data and acknowledgment frames.

Only the totals matter for energy accounting.  The synchronization header,
PHY header, frame control, sequence number and check sequence always add up
to 11 bytes; the addressing fields contribute 0 to 20 bytes depending on
the addressing mode; stacks may prepend further header bytes of their own.
"""

import warnings
from dataclasses import dataclass

from .errors import Error

# preamble 4 + SFD 1 + frame length 1 + frame control 2 + sequence 1 + FCS 2
FIXED_FRAME_BYTES = 11
ACK_FRAME_BYTES = 11
# 6 sync/PHY bytes plus the 127-byte maximum PSDU; anything longer will not
# fit on air and is flagged (but not rejected, oversizing is out of scope)
PPDU_SOFT_LIMIT = 133

_PAN_CHOICES = (0, 2)
_ADDR_CHOICES = (0, 2, 8)


class FrameConfigError(Error):
    pass


class FrameLengthWarning(UserWarning):
    """Computed frame exceeds what fits in a single 802.15.4 PPDU."""


@dataclass(frozen=True)
class FrameConfig:
    """Addressing-mode choices that fix the data-frame overhead.

    The defaults are the common deployment: short 16-bit addresses on both
    ends, destination PAN id present, source PAN id elided within the PAN.
    """

    dest_pan_bytes: int = 2
    dest_addr_bytes: int = 2
    src_pan_bytes: int = 0
    src_addr_bytes: int = 2
    extra_header_bytes: int = 0

    def __post_init__(self):
        for name, choices in (
            ("dest_pan_bytes", _PAN_CHOICES),
            ("dest_addr_bytes", _ADDR_CHOICES),
            ("src_pan_bytes", _PAN_CHOICES),
            ("src_addr_bytes", _ADDR_CHOICES),
            ("extra_header_bytes", None),
        ):
            value = getattr(self, name)
            # a byte count is an exact int: 2.0 and True compare equal to ints but are not byte counts
            if type(value) is not int or value < 0:
                raise FrameConfigError(f"{name} must be a non-negative integer, got {value!r}")
            if choices is not None and value not in choices:
                raise FrameConfigError(f"{name} must be one of {choices}, got {value!r}")

    @property
    def addressing_bytes(self) -> int:
        return (
            self.dest_pan_bytes
            + self.dest_addr_bytes
            + self.src_pan_bytes
            + self.src_addr_bytes
        )


def data_frame_length(config: FrameConfig, payload_bytes: int) -> int:
    """Full on-air length of a data frame carrying ``payload_bytes``."""
    if not isinstance(payload_bytes, int) or payload_bytes < 0:
        raise FrameConfigError("payload_bytes must be a non-negative integer")
    return check_frame_length(
        FIXED_FRAME_BYTES
        + config.addressing_bytes
        + config.extra_header_bytes
        + payload_bytes
    )


def check_frame_length(total: int) -> int:
    """Warn with ``FrameLengthWarning`` if a ``total``-byte data frame does not
    fit in one PPDU; returns ``total``."""
    if total > PPDU_SOFT_LIMIT:
        warnings.warn(
            f"data frame of {total} bytes exceeds the {PPDU_SOFT_LIMIT}-byte PPDU",
            FrameLengthWarning,
            stacklevel=2,
        )
    return total


def ack_frame_length() -> int:
    """Acknowledgment frames carry no addressing and no payload: 11 bytes."""
    return ACK_FRAME_BYTES


# "paper-802154-short-addr" is the bare standard frame with short addressing
# (17 + n bytes); "paper-tinyos" adds the one-byte type field the TinyOS
# stack inserts (18 + n bytes).
FRAME_PRESETS = {
    "paper-802154-short-addr": FrameConfig(),
    "paper-tinyos": FrameConfig(extra_header_bytes=1),
}


def frame_preset(name: str) -> FrameConfig:
    try:
        return FRAME_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(FRAME_PRESETS))
        raise FrameConfigError(f"unknown frame preset {name!r} (available: {known})") from None
