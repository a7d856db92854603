"""Scalar arithmetic over idempotent semifields.

Two semifields are provided: max-plus (reals under max and +) and
max-times (positive reals under max and *). A scalar is a plain float,
or the shared ZERO sentinel standing for the semifield zero (-infinity
in max-plus, 0 in max-times). The sentinel is kept out of the float
range so that conjugation and products can never turn into NaN through
-inf + inf style expressions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union


class TropicalError(Exception):
    """Base class for every error raised by this package."""


class InversionOfZero(TropicalError):
    """A multiplicative inverse of the semifield zero was requested."""


class ZeroToNonpositivePower(TropicalError):
    """The semifield zero was raised to a power that is not positive."""


class _Zero:
    __slots__ = ()

    def __repr__(self) -> str:
        return "ZERO"


#: The semifield zero: neutral for add(), absorbing for mul().
ZERO = _Zero()

Scalar = Union[float, _Zero]
Rational = Union[Fraction, int]

_HALF = Fraction(1, 2)


class Semifield:
    """Arithmetic of one idempotent semifield.

    The two usable instances are MAX_PLUS and MAX_TIMES. All scalars in
    one expression must come from the same instance; the containers in
    the linalg module enforce that.
    Each instance defines mul, inv, pow, contains, is_one and from_real.
    """

    name = ""
    one = 0.0

    # Both instances are totally ordered with ZERO at the bottom, so
    # addition and the induced order live on the base class.

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        """Idempotent addition: the larger operand under the order."""
        if a is ZERO:
            return b
        if b is ZERO:
            return a
        return a if a >= b else b

    def leq(self, a: Scalar, b: Scalar) -> bool:
        """Order induced by addition: a <= b iff add(a, b) == b."""
        if a is ZERO:
            return True
        if b is ZERO:
            return False
        return a <= b

    def sqrt(self, a: Scalar) -> Scalar:
        """Semifield square root, pow(a, 1/2)."""
        return self.pow(a, _HALF)

    def __repr__(self) -> str:
        return f"<semifield {self.name}>"


class MaxPlus(Semifield):
    """Reals with max as addition and + as multiplication; unit 0."""

    name = "max-plus"
    one = 0.0

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if a is ZERO or b is ZERO:
            return ZERO
        return a + b

    def inv(self, a: Scalar) -> Scalar:
        if a is ZERO:
            raise InversionOfZero("the max-plus zero has no inverse")
        return -a

    def pow(self, a: Scalar, exponent: Rational) -> Scalar:
        if a is ZERO:
            if exponent > 0:
                return ZERO
            raise ZeroToNonpositivePower(
                f"zero cannot be raised to the power {exponent}")
        return float(exponent) * a

    def contains(self, value: float) -> bool:
        return math.isfinite(value)

    def is_one(self, a: Scalar, tol: float) -> bool:
        return a is not ZERO and abs(a) <= tol

    def from_real(self, value: float) -> Scalar:
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"max-plus scalars must be finite, got {value!r}")
        return v


class MaxTimes(Semifield):
    """Positive reals with max as addition and * as multiplication; unit 1."""

    name = "max-times"
    one = 1.0

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        if a is ZERO or b is ZERO:
            return ZERO
        return a * b

    def inv(self, a: Scalar) -> Scalar:
        if a is ZERO:
            raise InversionOfZero("the max-times zero has no inverse")
        return 1.0 / a

    def pow(self, a: Scalar, exponent: Rational) -> Scalar:
        if a is ZERO:
            if exponent > 0:
                return ZERO
            raise ZeroToNonpositivePower(
                f"zero cannot be raised to the power {exponent}")
        return a ** float(exponent)

    def contains(self, value: float) -> bool:
        return math.isfinite(value) and value > 0.0

    def is_one(self, a: Scalar, tol: float) -> bool:
        # For values near the unit 1, relative and absolute deviation agree.
        return a is not ZERO and abs(a - 1.0) <= tol

    def from_real(self, value: float) -> Scalar:
        v = float(value)
        if not math.isfinite(v) or v < 0.0:
            raise ValueError(
                f"max-times scalars must be finite and >= 0, got {value!r}")
        return ZERO if v == 0.0 else v


MAX_PLUS = MaxPlus()
MAX_TIMES = MaxTimes()

_BY_NAME = {MAX_PLUS.name: MAX_PLUS, MAX_TIMES.name: MAX_TIMES}


def by_name(name: str) -> Semifield:
    """Look up a semifield by its wire name, "max-plus" or "max-times"."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown semifield {name!r}") from None
