"""Exact rational arithmetic backend.

Everything numeric in this package is exact.  fractions.Fraction is
the backend that the tests run against and the one a plain install
uses.  gmpy2.mpq is picked up when the optional `gmpy2` extra is
installed (roughly an order of magnitude faster on the dense pivot
updates that dominate large solves).  The two interoperate, so code
elsewhere only needs `rat`.
"""

from fractions import Fraction
from math import lcm

try:
    from gmpy2 import mpq as _mpq

    def rat(num=0, den=1):
        return _mpq(num, den)

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def rat(num=0, den=1):
        return Fraction(num, den)

    BACKEND = "fractions"

ZERO = rat(0)
ONE = rat(1)


def rat_from_str(text: str):
    """Parse "3", "5/2", "0.25", or "1e-6" into an exact rational."""
    s = text.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        return rat(int(num), int(den))
    # Fraction accepts decimal and exponent notation exactly.
    f = Fraction(s)
    return rat(f.numerator, f.denominator)


def as_pair(value) -> tuple[int, int]:
    """(numerator, denominator) as plain ints, for JSON and hashing."""
    return int(value.numerator), int(value.denominator)


def rat_ceil(value) -> int:
    """Exact ceiling of a rational."""
    return -((-value.numerator) // value.denominator)


def clear_denominators(values) -> tuple[int, list[int]]:
    """(den, nums) with den the lcm of the denominators and
    values[i] == nums[i] / den, as plain ints."""
    den = lcm(*(int(v.denominator) for v in values))
    return den, [int(v.numerator) * (den // int(v.denominator)) for v in values]
