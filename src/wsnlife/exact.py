"""Exact decimal arithmetic helpers.

All energy figures in this package are decimal quantities (millijoules with
a couple of decimal places), and most of them are not representable in
binary floating point.  Computations that must match hand arithmetic --
model coefficients, per-packet energies, iteration floors, simulated
battery drain -- are therefore carried out on exact rationals and converted
to float only where a report is built, through ``to_float``.

A float entering the exact pipeline is read at its shortest round-trip
decimal form, i.e. ``0.12`` means 12/100, not the 53-bit binary neighbour.
"""

from decimal import ROUND_HALF_UP, Context, Decimal
from fractions import Fraction

from .errors import Error

Number = int | float | str | Decimal | Fraction


def as_exact(x: Number) -> Fraction:
    """Exact rational value of ``x``; infinities and NaN raise ``Error``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (float, str, Decimal)):
        # repr() gives the shortest decimal that round-trips, which is the
        # number the user actually wrote.
        d = Decimal(repr(x) if isinstance(x, float) else x)
        if not d.is_finite():
            raise Error(f"not a finite number: {x!r}")
        return Fraction(d)
    raise TypeError(f"not a number: {x!r}")


def to_float(what: str, x: Fraction | int, scale: int = 1) -> float:
    """``x / scale`` correctly rounded to a report float; ``Error`` if too large."""
    try:
        return float(x / scale)
    except OverflowError:
        raise Error(f"{what} too large to report") from None


def round_half_up(x: Number) -> float:
    """``x`` to two decimals, rounding half up: the reporting convention (2.675 -> 2.68)."""
    if isinstance(x, Fraction):
        d = Decimal(x.numerator) / Decimal(x.denominator)
    elif isinstance(x, Decimal):
        d = x
    else:
        d = Decimal(repr(float(x)))
    # enough digits for every one left of the point and two right of it, or quantize raises InvalidOperation
    context = Context(prec=max(28, d.adjusted() + 3))
    return float(d.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP, context=context))
