"""Truncated formal power series with exact coefficients.

A Series stores exactly ``order`` coefficients c_0..c_{order-1} over one
field; every operation is exact through that order.  Orders are capped at
2..64, the intended scale for exact triangular-group work.

The kernels here run on raw values (rationals, or residues mod p):
``_convolve`` multiplies, and ``_forward_substitute`` is the one triangular
solver, behind Series.invert (the Toeplitz matrix of the series),
Series.comp_inverse, riordan_inv and TriMatrix.inverse.

``_power_table`` is the ordinary Riordan matrix R_g of (1, g): column j
holds g^j, so R_g f is the coefficient vector of f o g.  One table serves
the whole group law: Series.compose and riordan_mul apply it to vectors
(``_apply_power_table``), and Series.comp_inverse and riordan_inv solve
with it, R_g x = e_1 giving g^{<-1>} and R_g h = alpha giving
alpha o g^{<-1>}.  It costs the N-2 products g^2..g^{N-1}, once per g.
"""

from __future__ import annotations

from math import lcm
from operator import mul

from .errors import (
    BackendMismatch,
    InnerValuationZero,
    NotInvertible,
    NotValuationOne,
)
from .scalars import Field, Scalar, _Q, factorial_inv

MIN_ORDER = 2
MAX_ORDER = 64

INFINITY = float("inf")  # valuation of the zero series


def check_order(n: int) -> None:
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise ValueError(f"order must be in {MIN_ORDER}..{MAX_ORDER}, got {n}")


def _convolve(a, b):
    """Truncated product of two equal-length int coefficient lists."""
    n, rb = len(a), b[::-1]
    return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) for m in range(n)]


def _forward_substitute(field, rows, rhss):
    """Solve L x = b by forward substitution on raw values, for each b in rhss.

    rows[i] lists L_{i,0..i} as raw values (rationals or integers, or
    residues mod p) with L_{i,i} nonzero.  Each b lists b_k..b_{n-1}, its
    entries before k being zero, and its solution x_k..x_{n-1} is returned:
    x_i = (b_i - sum_{k <= j < i} L_{i,j} x_j) / L_{i,i}.
    """
    p, n = field.p, len(rows)
    if p is None:
        diag_inv = [_Q(1) / row[i] for i, row in enumerate(rows)]
    else:
        diag_inv = [pow(row[i], p - 2, p) for i, row in enumerate(rows)]
    out = []
    for b in rhss:
        k, x = n - len(b), []
        for i in range(k, n):
            v = (b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i]
            x.append(v if p is None else v % p)
        out.append(x)
    return out


def _over_common_denominator(coeffs):
    """Rational coefficients as (integer numerators, their common denominator);
    residues mod p as (residues, 1)."""
    vals = [c.val for c in coeffs]
    if coeffs[0].p is not None:
        return vals, 1
    den = lcm(*(v.denominator for v in vals))
    return [v.numerator * (den // v.denominator) for v in vals], den


def _power_table(g):
    """R_g, the ordinary Riordan matrix of (1, g), on raw values: (rows, D).

    g is a series with g_0 = 0; rows[m] lists [y^m] g^j for j <= m.  Over
    GF(p) the rows hold residues and D is 1.  Over QQ they hold integers
    over the one common denominator D = d^(N-1), d that of g: column j is
    (d g)^j scaled by d^(N-1-j).
    """
    p, n = g.field.p, g.order
    c, d = _over_common_denominator(g.coeffs)
    cols = [[1] + [0] * (n - 1), c]
    for _ in range(n - 2):
        power = _convolve(cols[-1], c)
        cols.append(power if p is None else [v % p for v in power])
    scale = [d ** (n - 1 - j) for j in range(n)]
    return [[cols[j][m] * scale[j] for j in range(m + 1)] for m in range(n)], d ** (n - 1)


def _apply_power_table(table, f):
    """R_g f, the series f o g, for table = _power_table(g): one dot product per row."""
    rows, den = table
    field, p = f.field, f.field.p
    a, da = _over_common_denominator(f.coeffs)
    if p is None:
        return Series(field, [Scalar(_Q(sum(map(mul, row, a)), den * da)) for row in rows])
    return Series(field, [Scalar(sum(map(mul, row, a)) % p, p) for row in rows])


class Series:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        coeffs = tuple(coeffs)
        check_order(len(coeffs))
        field.check(coeffs, "coefficient")
        self.field = field
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_values(cls, field, order, values):
        """Build from ints/strings/Scalars, zero-padding up to `order`."""
        vals = [field.scalar(v) for v in values]
        if len(vals) > order:
            raise ValueError(f"{len(vals)} coefficients exceed order {order}")
        vals += [field.zero()] * (order - len(vals))
        return cls(field, vals)

    @classmethod
    def zero(cls, field, order):
        return cls(field, [field.zero()] * order)

    @classmethod
    def one(cls, field, order):
        return cls.constant(field, order, field.one())

    @classmethod
    def constant(cls, field, order, c):
        return cls(field, [field.scalar(c)] + [field.zero()] * (order - 1))

    @classmethod
    def exp(cls, field, order, h):
        """exp(h y) = sum (h y)^l / l!; in GF(p) it needs order <= p."""
        h = field.scalar(h)
        return cls(field, [h ** l * factorial_inv(field, l) for l in range(order)])

    @classmethod
    def identity(cls, field, order):
        """The series y, the identity for composition."""
        return cls.monomial(field, order, 1)

    @classmethod
    def monomial(cls, field, order, k, c=1):
        if not 0 <= k < order:
            raise ValueError(f"exponent {k} out of range for order {order}")
        coeffs = [field.zero()] * order
        coeffs[k] = field.scalar(c)
        return cls(field, coeffs)

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.coeffs)

    def coeff(self, n: int) -> Scalar:
        return self.coeffs[n]

    def valuation(self):
        """Least index with a nonzero coefficient; INFINITY if none.

        A result of INFINITY only means "zero through this order": nothing
        is known beyond the truncation.
        """
        for n, c in enumerate(self.coeffs):
            if c:
                return n
        return INFINITY

    def _check_same(self, other):
        if not isinstance(other, Series):
            raise BackendMismatch(f"expected Series, got {type(other).__name__}")
        if other.field != self.field or len(other.coeffs) != len(self.coeffs):
            raise BackendMismatch("series orders or fields differ")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        self._check_same(other)
        return Series(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_same(other)
        return Series(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series(self.field, [-c for c in self.coeffs])

    def scale(self, c: Scalar):
        return Series(self.field, [c * a for a in self.coeffs])

    def __mul__(self, other):
        # The convolution runs on Python ints: over QQ each operand is put
        # over one common denominator, so only the N output coefficients
        # are normalised; over GF(p) each sum is reduced once.
        self._check_same(other)
        p = self.field.p
        if p is None:
            (a, da), (b, db) = map(_over_common_denominator, (self.coeffs, other.coeffs))
            den = da * db
            out = [Scalar(_Q(c, den)) for c in _convolve(a, b)]
        else:
            a, b = [c.val for c in self.coeffs], [c.val for c in other.coeffs]
            out = [Scalar(c % p, p) for c in _convolve(a, b)]
        return Series(self.field, out)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported; use invert()")
        out = Series.one(self.field, self.order)
        for _ in range(k):
            out = out * self
        return out

    def invert(self):
        """Multiplicative inverse; requires a unit constant term.

        The inverse solves T x = e_0 for the Toeplitz matrix T of self,
        row m being c_m, ..., c_0.
        """
        c = [a.val for a in self.coeffs]
        if not c[0]:
            raise NotInvertible("constant term vanishes")
        rows = [c[m::-1] for m in range(len(c))]
        (x,) = _forward_substitute(self.field, rows, [[1] + [0] * (len(c) - 1)])
        return Series(self.field, [Scalar(v, self.field.p) for v in x])

    def __truediv__(self, other):
        return self * other.invert()

    # -- composition -----------------------------------------------------
    def compose(self, inner):
        """self(inner(y)), exact through the order; inner must kill constants.

        One matrix-vector product R_inner self with the power table of inner.
        """
        self._check_same(inner)
        if inner.coeffs[0]:
            raise InnerValuationZero("inner series has nonzero constant term")
        return _apply_power_table(_power_table(inner), self)

    def comp_inverse(self):
        """Compositional inverse g of a valuation-1 series f, in O(N^3).

        Column j of the ordinary Riordan matrix R of (1, f) holds f^j, so
        g(f(y)) = y reads R g = e_1, solved by forward substitution on the
        power table.  That divides only by the diagonal entries f_1^m (over
        QQ, times the table's denominator), never by an integer, so unlike
        Lagrange inversion it holds in every characteristic.
        """
        if self.valuation() != 1:
            raise NotValuationOne("compositional inverse needs valuation exactly 1")
        field, n = self.field, self.order
        rows, den = _power_table(self)
        (g,) = _forward_substitute(field, rows, [[den] + [0] * (n - 2)])
        return Series(field, [field.zero()] + [Scalar(v, field.p) for v in g])

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        body = ", ".join(str(c) for c in self.coeffs)
        return f"Series[{body}; O(y^{self.order})]"

    def to_json(self):
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(s) for s in data])
