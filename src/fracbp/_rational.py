"""Exact rational arithmetic.

Everything numeric in this package is exact.  Rationals are
fractions.Fraction; simplex pivots run on int64 or Python-int numpy
arrays and never touch `rat`, so it serves only the rational interface
(duals, pricing values, certificates).  `BACKEND` names the type for
reports.
"""

from fractions import Fraction
from math import lcm

BACKEND = "fractions"


def rat(num=0, den=1):
    return Fraction(num, den)


ZERO = rat(0)
ONE = rat(1)


def rat_from_str(text: str):
    """Parse "3", "5/2", "0.25", or "1e-6" into an exact rational."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return rat(int(num), int(den))
    # Fraction accepts decimal and exponent notation exactly.
    return Fraction(s)


def rat_ceil(value) -> int:
    """Exact ceiling of a rational."""
    return -((-value.numerator) // value.denominator)


def clear_denominators(values) -> tuple[int, list[int]]:
    """(den, nums) with den the lcm of the denominators and
    values[i] == nums[i] / den.

    Edge weights repeat a few rationals many times over, mostly as one
    object, so each distinct object is cleared once; they are told
    apart by identity, since hashing a Fraction costs more than
    clearing it."""
    distinct = {id(v): v for v in values}
    den = lcm(*(v.denominator for v in distinct.values()))
    nums = {key: v.numerator * (den // v.denominator) for key, v in distinct.items()}
    return den, [nums[id(v)] for v in values]
