"""Exact field scalars: arbitrary-precision rationals and prime fields GF(p).

Every Scalar carries its own backend tag (the prime modulus, or None for
rationals), so values from different fields never mix silently: arithmetic
between mismatched backends raises instead of coercing.  Each operation is
Python's own on the raw values (``pow`` included), put back into the field
by Scalar._in_field: as is over QQ, reduced mod p over GF(p).

Text round-trip: rationals format as ``a/b`` or ``a``; residues as
``a mod p``.  Parsing accepts exactly these shapes.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

try:  # gmpy2's mpq is a drop-in for Fraction and considerably faster
    from gmpy2 import mpq as _Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as _Q

from .errors import BackendMismatch, DivisionByZero, NotInvertible, RootOfUnity


class Scalar:
    """One field element: a rational (p is None) or a residue mod the prime p."""

    __slots__ = ("val", "p")

    def __init__(self, val, p=None):
        # val is assumed canonical: a rational, or an int in [0, p)
        self.val = val
        self.p = p

    def _join(self, other) -> int | None:
        if not isinstance(other, Scalar):
            raise BackendMismatch(f"expected Scalar, got {type(other).__name__}")
        if self.p != other.p:
            raise BackendMismatch(
                f"mixed scalar backends: {self.backend_name()} vs {other.backend_name()}"
            )
        return self.p

    def backend_name(self) -> str:
        return "rational" if self.p is None else f"GF({self.p})"

    def _in_field(self, v) -> "Scalar":
        """The element of this Scalar's field with value v: v itself over QQ,
        v reduced mod p over GF(p)."""
        return Scalar(v) if self.p is None else Scalar(v % self.p, self.p)

    def __add__(self, other):
        self._join(other)
        return self._in_field(self.val + other.val)

    def __sub__(self, other):
        self._join(other)
        return self._in_field(self.val - other.val)

    def __mul__(self, other):
        self._join(other)
        return self._in_field(self.val * other.val)

    def __neg__(self):
        return self._in_field(-self.val)

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("division by zero")
        return self._in_field(1 / self.val if self.p is None else pow(self.val, -1, self.p))

    def __truediv__(self, other):
        self._join(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        n = operator.index(n)  # a TypeError for any exponent that is not an integer
        return self._in_field(self.val ** n if self.p is None else pow(self.val, n, self.p))

    def __bool__(self):
        return bool(self.val)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.p == other.p and self.val == other.val

    def __hash__(self):
        return hash((self.p, self.val))

    def __str__(self):
        if self.p is None:
            return str(self.val)
        return f"{self.val} mod {self.p}"

    def __repr__(self):
        return f"Scalar({self})"


# Miller-Rabin with the prime bases 2..41 is deterministic below this bound
# (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 2017); above it a "prime" verdict would be a guess.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_BOUND; raises ValueError from the bound on."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is not below the proven primality bound {PRIME_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# The scalar grammar: 'a' or 'a/b' with a signed, 'a mod p' unsigned.
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_RESIDUE = re.compile(r"([0-9]+)\s*mod\s*([0-9]+)")


@dataclass(frozen=True)
class Field:
    """Field configuration: exact rationals (p=None) or GF(p), p prime."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def char(self) -> int:
        return 0 if self.p is None else self.p

    def zero(self) -> Scalar:
        return Scalar(_Q(0)) if self.p is None else Scalar(0, self.p)

    def one(self) -> Scalar:
        return Scalar(_Q(1)) if self.p is None else Scalar(1, self.p)

    def scalar(self, x) -> Scalar:
        """Coerce an int, rational, string, or Scalar into this field."""
        if isinstance(x, Scalar):
            if x.p != self.p:
                raise BackendMismatch(
                    f"scalar over {x.backend_name()} used in {self!s}"
                )
            return x
        if isinstance(x, str):
            return self.parse(x)
        if isinstance(x, int):
            return Scalar(_Q(x)) if self.p is None else Scalar(x % self.p, self.p)
        if self.p is None:
            return Scalar(_Q(x))
        raise BackendMismatch(f"cannot coerce {x!r} into {self!s}")

    def check(self, xs, what: str) -> None:
        """Raise BackendMismatch unless every x in xs is a Scalar of this field."""
        p = self.p
        for x in xs:
            if not isinstance(x, Scalar) or x.p != p:
                raise BackendMismatch(f"{what} {x!r} does not belong to {self}")

    def parse(self, text: str) -> Scalar:
        """Parse 'a', 'a/b' (rational field) or 'a', 'a mod p' (GF(p)).

        a is an optionally signed run of ASCII digits, b and p are runs of
        digits; nothing else is accepted, whatever the rational backend.  A
        zero b raises ZeroDivisionError naming the text.
        """
        text = text.strip()
        residue = _RESIDUE.fullmatch(text)
        if residue:
            val, mod = map(int, residue.groups())
            if mod != self.p:
                raise BackendMismatch(f"'{text}' does not belong to {self!s}")
            return Scalar(val % mod, mod)
        rational = _RATIONAL.fullmatch(text)
        if rational and self.p is None:
            num, den = rational.groups()
            if den is not None and not int(den):
                raise ZeroDivisionError(f"'{text}' has a zero denominator")
            return Scalar(_Q(int(num), int(den or 1)))
        if rational and rational[2] is None:
            return Scalar(int(text) % self.p, self.p)
        shapes = "a or a/b" if self.p is None else "a or a mod p"
        raise ValueError(f"'{text}' is not a scalar of {self!s}: expected {shapes}")

    def _check_count(self, count: int) -> None:
        """Raise ValueError unless the field has at least count elements."""
        if self.p is not None and count > self.p:
            raise ValueError(f"GF({self.p}) has fewer than {count} elements")

    def range_elements(self, count: int) -> list[Scalar]:
        """The field elements 0, 1, ..., count-1; they must be distinct."""
        self._check_count(count)
        return [self.scalar(i) for i in range(count)]

    def __str__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


def parse_scalar(text: str) -> Scalar:
    """Parse a scalar, inferring the backend from the text itself."""
    residue = _RESIDUE.fullmatch(text.strip())
    return Field(int(residue[2]) if residue else None).parse(text)


def factorial_inv(field: Field, n: int) -> Scalar:
    """1/n! in the field; fails when n! vanishes (characteristic p <= n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if field.p is not None and n >= field.p:
        raise NotInvertible(f"{n}! is 0 in GF({field.p})")
    return field.scalar(math.factorial(n)).inverse()


def extended_binomial(xi: Scalar, n: int) -> Scalar:
    """binom(xi, n) = (1/n!) * prod_{j<n} (xi - j) for a field element xi.

    Agrees with the integer binomial coefficient when xi is a nonnegative
    integer, and satisfies the Vandermonde convolution whenever n! is
    invertible.  math.prod of the raw values xi - j over math.factorial(n);
    it builds no Field, whose construction re-runs the primality test.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if xi.p is not None and n >= xi.p:
        raise NotInvertible(f"{n}! is 0 in GF({xi.p})")
    num, den = math.prod([xi.val - j for j in range(n)]), math.factorial(n)
    return xi._in_field(_Q(num) / den if xi.p is None else num * pow(den, -1, xi.p))


def _powers(x: Scalar, n: int) -> list[Scalar]:
    """[1, x, ..., x^(n-1)]: each power is one product from the one before."""
    out = [Scalar(_Q(1)) if x.p is None else Scalar(1, x.p)]
    for _ in range(n - 1):
        out.append(out[-1] * x)
    return out


def q_binomial(l: int, k: int, q: Scalar) -> Scalar:
    """Gaussian binomial prod_{j=k+1}^{l}(1-q^j) / prod_{j=1}^{l-k}(1-q^j),
    on the running powers of q."""
    if not 0 <= k <= l:
        raise ValueError(f"need 0 <= k <= l, got k={k}, l={l}")
    qs = _powers(q, l + 1)
    one = den = qs[0]
    for j in range(1, l - k + 1):
        factor = one - qs[j]
        if not factor:
            raise RootOfUnity(f"1 - q^{j} = 0")
        den = den * factor
    num = one
    for j in range(k + 1, l + 1):
        num = num * (one - qs[j])
    return num / den
