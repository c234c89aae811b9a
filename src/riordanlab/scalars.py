"""Exact field scalars: arbitrary-precision rationals and prime fields GF(p).

Every Scalar carries its own backend tag (the prime modulus, or None for
rationals), so values from different fields never mix silently: arithmetic
between mismatched backends raises instead of coercing.

Text round-trip: rationals format as ``a/b`` or ``a``; residues as
``a mod p``.  Parsing accepts exactly these shapes.
"""

from __future__ import annotations

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

    def __add__(self, other):
        p = self._join(other)
        if p is None:
            return Scalar(self.val + other.val)
        return Scalar((self.val + other.val) % p, p)

    def __sub__(self, other):
        p = self._join(other)
        if p is None:
            return Scalar(self.val - other.val)
        return Scalar((self.val - other.val) % p, p)

    def __mul__(self, other):
        p = self._join(other)
        if p is None:
            return Scalar(self.val * other.val)
        return Scalar((self.val * other.val) % p, p)

    def __neg__(self):
        if self.p is None:
            return Scalar(-self.val)
        return Scalar((-self.val) % self.p, self.p)

    def inverse(self) -> "Scalar":
        if not self:
            raise DivisionByZero("division by zero")
        if self.p is None:
            return Scalar(1 / self.val)
        return Scalar(pow(self.val, self.p - 2, self.p), self.p)

    def __truediv__(self, other):
        self._join(other)
        return self * other.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = Scalar(_Q(1)) if self.p is None else Scalar(1, self.p)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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

    def parse(self, text: str) -> Scalar:
        """Parse 'a', 'a/b' (rational field) or 'a', 'a mod p' (GF(p)).

        a is an optionally signed run of ASCII digits, b and p are runs of
        digits; nothing else is accepted, whatever the rational backend.
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
            return Scalar(_Q(int(num), int(den or 1)))
        if rational and rational[2] is None:
            return Scalar(int(text) % self.p, self.p)
        shapes = "a or a/b" if self.p is None else "a or a mod p"
        raise ValueError(f"'{text}' is not a scalar of {self!s}: expected {shapes}")

    def range_elements(self, count: int) -> list[Scalar]:
        """The field elements 0, 1, ..., count-1; they must be distinct."""
        if self.p is not None and count > self.p:
            raise ValueError(f"GF({self.p}) has fewer than {count} elements")
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
    out = field.one()
    for i in range(2, n + 1):
        out = out * field.scalar(i)
    return out.inverse()


def extended_binomial(xi: Scalar, n: int) -> Scalar:
    """binom(xi, n) = (1/n!) * prod_{j<n} (xi - j) for a field element xi.

    Agrees with the integer binomial coefficient when xi is a nonnegative
    integer, and satisfies the Vandermonde convolution whenever n! is
    invertible.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    field = Field(xi.p)
    out = factorial_inv(field, n)
    for j in range(n):
        out = out * (xi - field.scalar(j))
    return out


def q_binomial(l: int, k: int, q: Scalar) -> Scalar:
    """Gaussian binomial prod_{j=k+1}^{l}(1-q^j) / prod_{j=1}^{l-k}(1-q^j)."""
    if not 0 <= k <= l:
        raise ValueError(f"need 0 <= k <= l, got k={k}, l={l}")
    field = Field(q.p)
    one = field.one()
    den = one
    for j in range(1, l - k + 1):
        factor = one - q ** j
        if not factor:
            raise RootOfUnity(f"1 - q^{j} = 0")
        den = den * factor
    num = one
    for j in range(k + 1, l + 1):
        num = num * (one - q ** j)
    return num / den
