"""Exact scalars in the real quadratic field Q(sqrt(n)).

A value is stored as an integer triple ``(na, nb, den)`` meaning
``(na + nb*sqrt(n)) / den`` with ``den > 0`` and ``gcd(na, nb, den) == 1``.
When ``n`` is a perfect square the root part is folded into the rational
part, so ``nb == 0`` always holds there and equality stays structural.

These scalars are the coefficients of the exact backend; the numeric
backend uses plain ``complex``.  The two are never mixed silently: QSqrt
arithmetic only accepts QSqrt, int and Fraction operands.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import BackendError, UsageError

_SQRT_CACHE: dict[int, int] = {}
_ZERO_CACHE: dict[int, "QSqrt"] = {}
_ONE_CACHE: dict[int, "QSqrt"] = {}


def _perfect_root(n: int) -> int:
    """isqrt(n) if n is a perfect square, else 0."""
    r = _SQRT_CACHE.get(n)
    if r is None:
        s = math.isqrt(n)
        r = s if s * s == n else 0
        _SQRT_CACHE[n] = r
    return r


class QSqrt:
    __slots__ = ("n", "na", "nb", "den")

    def __init__(self, n: int, a: Fraction | int = 0, b: Fraction | int = 0):
        if n < 2:
            raise UsageError(f"quadratic field needs n >= 2, got {n}")
        a = Fraction(a)
        b = Fraction(b)
        value = QSqrt._raw(
            n,
            a.numerator * b.denominator,
            b.numerator * a.denominator,
            a.denominator * b.denominator,
        )
        self.n = n
        self.na = value.na
        self.nb = value.nb
        self.den = value.den

    # -- construction -----------------------------------------------------

    @classmethod
    def _raw(cls, n: int, na: int, nb: int, den: int) -> "QSqrt":
        if nb != 0:
            r = _perfect_root(n)
            if r:
                na += nb * r
                nb = 0
        if den != 1:
            if den == 0:
                raise ZeroDivisionError("zero denominator in Q(sqrt n)")
            if den < 0:
                na, nb, den = -na, -nb, -den
            g = math.gcd(math.gcd(na, nb), den)
            if g > 1:
                na //= g
                nb //= g
                den //= g
        obj = object.__new__(cls)
        obj.n = n
        obj.na = na
        obj.nb = nb
        obj.den = den
        return obj

    @classmethod
    def zero(cls, n: int) -> "QSqrt":
        cached = _ZERO_CACHE.get(n)
        if cached is None:
            cached = _ZERO_CACHE[n] = cls._raw(n, 0, 0, 1)
        return cached

    @classmethod
    def one(cls, n: int) -> "QSqrt":
        cached = _ONE_CACHE.get(n)
        if cached is None:
            cached = _ONE_CACHE[n] = cls._raw(n, 1, 0, 1)
        return cached

    def _coerce(self, other) -> "QSqrt | None":
        if type(other) is QSqrt:
            if other.n != self.n:
                raise UsageError(f"mixed quadratic fields Q(sqrt {self.n}) and Q(sqrt {other.n})")
            return other
        if isinstance(other, int):
            return QSqrt._raw(self.n, other, 0, 1)
        if isinstance(other, Fraction):
            return QSqrt._raw(self.n, other.numerator, 0, other.denominator)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if type(other) is QSqrt:
            if other.n != self.n:
                raise UsageError(f"mixed quadratic fields Q(sqrt {self.n}) and Q(sqrt {other.n})")
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == 1 and d2 == 1:
            obj = object.__new__(QSqrt)
            obj.n = self.n
            obj.na = self.na + o.na
            obj.nb = self.nb + o.nb
            obj.den = 1
            return obj
        return QSqrt._raw(self.n, self.na * d2 + o.na * d1, self.nb * d2 + o.nb * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt._raw(self.n, -self.na, -self.nb, self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return QSqrt._raw(self.n, self.na * d2 - o.na * d1, self.nb * d2 - o.nb * d1, d1 * d2)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is QSqrt:
            if other.n != self.n:
                raise UsageError(f"mixed quadratic fields Q(sqrt {self.n}) and Q(sqrt {other.n})")
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        na1, nb1 = self.na, self.nb
        na2, nb2 = o.na, o.nb
        if nb1 == 0:
            if na1 == 1 and self.den == 1:  # multiplicative identity
                return o
            if nb2 == 0:
                return QSqrt._raw(self.n, na1 * na2, 0, self.den * o.den)
        elif nb2 == 0 and na2 == 1 and o.den == 1:
            return self
        return QSqrt._raw(
            self.n,
            na1 * na2 + nb1 * nb2 * self.n,
            na1 * nb2 + nb1 * na2,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QSqrt":
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(sqrt n)")
        # 1/(a+b r) = (a-b r)/(a^2 - n b^2); the norm is nonzero because
        # sqrt(n) is irrational whenever nb != 0 survives normalisation.
        norm_num = self.na * self.na - self.n * self.nb * self.nb
        return QSqrt._raw(self.n, self.na * self.den, -self.nb * self.den, norm_num)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.na == 0 and self.nb == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def conjugate(self) -> "QSqrt":
        """Complex conjugation; the identity, since the field is real."""
        return self

    def galois(self) -> "QSqrt":
        """The field automorphism sqrt(n) -> -sqrt(n)."""
        return QSqrt._raw(self.n, self.na, -self.nb, self.den)

    def sign(self) -> int:
        """Exact sign of the real value: -1, 0 or +1."""
        a, b = self.na, self.nb
        if b == 0:
            return 0 if a == 0 else (1 if a > 0 else -1)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with n b^2
        bigger_rational = a * a > self.n * b * b
        if a > 0:
            return 1 if bigger_rational else -1
        return -1 if bigger_rational else 1

    def abs_exact(self) -> "QSqrt":
        return -self if self.sign() < 0 else self

    def as_fraction(self) -> Fraction:
        if self.nb != 0:
            raise BackendError(f"{self} has an irrational part, not a rational")
        return Fraction(self.na, self.den)

    def rational_part(self) -> Fraction:
        return Fraction(self.na, self.den)

    def root_part(self) -> Fraction:
        return Fraction(self.nb, self.den)

    def __float__(self) -> float:
        return (self.na + self.nb * math.sqrt(self.n)) / self.den

    def __complex__(self) -> complex:
        return complex(float(self))

    def __eq__(self, other) -> bool:
        if type(other) is QSqrt:
            return (
                self.n == other.n
                and self.na == other.na
                and self.nb == other.nb
                and self.den == other.den
            )
        if isinstance(other, int):
            return self.nb == 0 and self.den == 1 and self.na == other
        if isinstance(other, Fraction):
            return (
                self.nb == 0
                and self.na == other.numerator
                and self.den == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        if self.nb == 0:
            return hash(Fraction(self.na, self.den))
        return hash((self.n, self.na, self.nb, self.den))

    def __repr__(self) -> str:
        return f"QSqrt({self.n}, {Fraction(self.na, self.den)}, {Fraction(self.nb, self.den)})"

    def __str__(self) -> str:
        return scalar_str(self)


_POWER_CACHE: dict[tuple[int, int, int], QSqrt] = {}


def n_power(n: int, exponent: Fraction | int) -> QSqrt:
    """n**exponent as an exact QSqrt; exponent must lie in (1/2)Z."""
    if isinstance(exponent, int):
        num, den = exponent, 1
    else:
        e = Fraction(exponent)
        num, den = e.numerator, e.denominator
    cached = _POWER_CACHE.get((n, num, den))
    if cached is not None:
        return cached
    if den == 1:
        value = QSqrt._raw(n, n**num, 0, 1) if num >= 0 else QSqrt._raw(n, 1, 0, n ** (-num))
    elif den == 2:
        h = (num - 1) // 2  # n^(p/2) = n^h * sqrt(n), p odd
        value = QSqrt._raw(n, 0, n**h, 1) if h >= 0 else QSqrt._raw(n, 0, 1, n ** (-h))
    else:
        raise BackendError(f"exact power n^{num}/{den} needs a half-integer exponent")
    _POWER_CACHE[(n, num, den)] = value
    return value


def n_power_numeric(n: int, z: complex) -> complex:
    """n**z for the numeric backend."""
    return cmath.exp(complex(z) * math.log(n))


# -- backend-generic helpers ------------------------------------------------
#
# Exact coefficients are QSqrt; numeric coefficients are complex (we accept
# int/float in numeric positions and treat them as complex).


def conj_scalar(c):
    if type(c) is QSqrt:
        return c
    return c.conjugate() if isinstance(c, complex) else c


def scalar_is_zero(c) -> bool:
    if type(c) is QSqrt:
        return c.is_zero
    return c == 0


def scalar_abs(c) -> float:
    if type(c) is QSqrt:
        return abs(float(c))
    return abs(c)


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_str(c) -> str:
    """Serialize an exact scalar as ``p/q`` or ``p/q+p'/q'r`` (r = sqrt n)."""
    if isinstance(c, (int, Fraction)):
        return _frac_str(Fraction(c))
    if type(c) is QSqrt:
        a = Fraction(c.na, c.den)
        b = Fraction(c.nb, c.den)
        if b == 0:
            return _frac_str(a)
        root = _frac_str(abs(b)) + "r"
        if a == 0:
            return root if b > 0 else "-" + root
        return _frac_str(a) + ("+" if b > 0 else "-") + root
    raise UsageError(f"not an exact scalar: {c!r}")
