"""Truncated formal power series with exact coefficients.

A Series stores exactly ``order`` coefficients c_0..c_{order-1} over one
field; every operation is exact through that order.  Orders are capped at
2..64, the intended scale for exact triangular-group work.

The kernels here run on raw values (rationals, or residues mod p):
``_convolve`` multiplies, and ``_forward_substitute`` is the one triangular
solver, behind Series.invert and Series.__truediv__ (the Toeplitz matrix of
the divisor), Series.comp_inverse, riordan_inv and TriMatrix.inverse; over
QQ it runs fraction-free, on integers over one running denominator.

``_power_table`` is the ordinary Riordan matrix R_g of (1, g): column j
holds g^j, so R_g f is the coefficient vector of f o g.  One table serves
the whole group law: Series.compose and riordan_mul apply it to vectors
(``_apply_power_table``), and Series.comp_inverse and riordan_inv solve
with it, R_g x = e_1 giving g^{<-1>} and R_g h = alpha giving
alpha o g^{<-1>}.  It costs the N-2 products g^2..g^{N-1}, once per g;
g^j has valuation j, so each product starts at index j, about N^3/6
multiply-adds in all.
"""

from __future__ import annotations

from math import gcd, lcm
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


def _convolve(a, b, p=None):
    """Truncated product of two equal-length int coefficient lists, reduced
    mod p when p is given."""
    n, rb = len(a), b[::-1]
    if p is None:
        return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) for m in range(n)]
    return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) % p for m in range(n)]


def _forward_substitute(field, rows, rhss):
    """Solve L x = b by forward substitution on raw values, for each b in rhss.

    rows[i] lists L_{i,0..i} as raw values (rationals or integers, or
    residues mod p) with L_{i,i} nonzero.  Each b lists b_k..b_{n-1}, its
    entries before k being zero, and its solution x_k..x_{n-1} is returned:
    x_i = (b_i - sum_{k <= j < i} L_{i,j} x_j) / L_{i,i}.

    Over GF(p) each step is one dot product of residues, reduced once.
    Over QQ the solve is fraction-free: row i is R_i / e_i and b is B / d_b
    with integer R_i and B, and the solved x_k..x_{i-1} are integers X over
    one running denominator D, so each step is one integer dot product,

        x_i = (B_i e_i D - d_b sum_j R_{i,j} X_j) / (d_b D R_{i,i}),

    and one rational per output, normalised there.  When its denominator
    does not divide D, D grows to their lcm and X is rescaled to match.
    """
    p, n = field.p, len(rows)
    out = []
    if p is not None:
        diag_inv = [pow(row[i], p - 2, p) for i, row in enumerate(rows)]
        for b in rhss:
            k, x = n - len(b), []
            for i in range(k, n):
                x.append((b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i] % p)
            out.append(x)
        return out
    scaled = [_ints_over_lcm(row) for row in rows]
    for b in rhss:
        k, (num_b, db) = n - len(b), _ints_over_lcm(b)
        x, ints, den = [], [], 1
        for i in range(k, n):
            r, e = scaled[i]
            v = _Q(num_b[i - k] * e * den - db * sum(map(mul, r[k:i], ints)), db * den * r[i])
            dv = v.denominator
            if den % dv:
                grow = dv // gcd(den, dv)
                ints = [c * grow for c in ints]
                den *= grow
            ints.append(v.numerator * (den // dv))
            x.append(v)
        out.append(x)
    return out


def _ints_over_lcm(vals):
    """Rationals (or integers) as (integer numerators, their least common denominator)."""
    # A list, not a generator: CPython builds a tuple from a generator by
    # resizing, which bypasses its tuple free lists while freeing still
    # fills them, so every call would park a tuple there until the next
    # full collection (peak RSS grows).  tuple(generator) does the same.
    den = lcm(*[v.denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals], den


def _over_common_denominator(coeffs):
    """Rational coefficients as (integer numerators, their common denominator);
    residues mod p as (residues, 1)."""
    vals = [c.val for c in coeffs]
    if coeffs[0].p is not None:
        return vals, 1
    return _ints_over_lcm(vals)


def _wrap(field, ints, den=1):
    """The inverse of _over_common_denominator: integers over den as Scalars
    of QQ, or integers reduced to residues of GF(p) (den is then 1)."""
    p = field.p
    if p is None:
        return [Scalar(_Q(v, den)) for v in ints]
    return [Scalar(v % p, p) for v in ints]


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
    for j in range(2, n):  # g^j has valuation j: convolve from index j on
        cols.append([0] * j + _convolve(cols[-1][j - 1 : n - 1], c[1 : n - j + 1], p))
    scale = [d ** (n - 1 - j) for j in range(n)]
    return [[cols[j][m] * scale[j] for j in range(m + 1)] for m in range(n)], d ** (n - 1)


def _apply_power_table(table, f):
    """R_g f, the series f o g, for table = _power_table(g): one dot product per row."""
    rows, den = table
    a, da = _over_common_denominator(f.coeffs)
    return Series(f.field, _wrap(f.field, [sum(map(mul, row, a)) for row in rows], den * da))


def _divide(field, b, c):
    """The series x with c x = b through the order, from raw values b and c.

    One solve of T x = b for the Toeplitz matrix T of c, row m being
    c_m, ..., c_0; c_0 must be nonzero.
    """
    if not c[0]:
        raise NotInvertible("constant term vanishes")
    (x,) = _forward_substitute(field, [c[m::-1] for m in range(len(c))], [b])
    return Series(field, [Scalar(v, field.p) for v in x])


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
        (a, da), (b, db) = map(_over_common_denominator, (self.coeffs, other.coeffs))
        return Series(self.field, _wrap(self.field, _convolve(a, b), da * db))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported; use invert()")
        out = Series.one(self.field, self.order)
        for _ in range(k):
            out = out * self
        return out

    def invert(self):
        """Multiplicative inverse; requires a unit constant term."""
        return _divide(self.field, [1] + [0] * (self.order - 1), [a.val for a in self.coeffs])

    def __truediv__(self, other):
        """self / other; other needs a unit constant term."""
        self._check_same(other)
        return _divide(self.field, [a.val for a in self.coeffs], [a.val for a in other.coeffs])

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
