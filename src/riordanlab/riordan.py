"""Weights, Riordan pairs, and the weighted Riordan group.

A weight is a sequence w_0 = 1, w_n != 0; its reciprocal series
W(t) = sum t^n / w_n drives the whole calculus.  A graded matrix A is
*Riordan for W* when its weighted column series C_k = sum_n a_{n,k} y^n / w_n
form a geometric progression C_k = alpha * beta^k / w_k; the pair
(alpha, beta) with v(alpha) = 0, v(beta) = 1 then determines A.

All verdicts here are "at order N": identities are asserted through
coefficient N-1 and say nothing beyond the truncation.  Matrices built
from a pair have exactly geometric columns, and the membership check,
group law and pair extraction are mutually exact on such matrices.

The group layer runs on raw values (integers over common denominators
over QQ, residues over GF(p)).  riordan_mul and riordan_inv build the power
table R_beta of series.py once: the product applies it to gamma and delta,
and the inverse solves R_beta h = alpha and R_beta x = e_1 on the same rows,
h = alpha o beta^{<-1>} needing no composition.  pair_to_matrix convolves
the columns alpha beta^k and forms each entry once, and is_riordan compares
the scaled columns u_k = w_k C_k by cross-multiplied convolutions.
matrix_to_pair accepts A when u_k = u_0 beta^k for every k (one raw
convolution per column, _geometric_witness), which implies the column
identity; it neither rebuilds A nor runs is_riordan on a Riordan input.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import (
    BackendMismatch,
    InvalidWeight,
    NotInvertible,
    NotRiordan,
    NotValuationOne,
    NotValuationZero,
    RootOfUnity,
    ZeroLambda,
)
from .scalars import Field, Scalar, _Q
from .series import (
    Series,
    _apply_power_table,
    _convolve,
    _divide,
    _forward_substitute,
    _over_common_denominator,
    _power_table,
    check_order,
)
from .triangular import TriMatrix


class Weight:
    """Denominator sequence w_0..w_{N-1} with cached reciprocals 1/w_n."""

    __slots__ = ("field", "w", "recip")

    def __init__(self, field: Field, denominators):
        w = tuple([field.scalar(x) for x in denominators])
        check_order(len(w))
        if w[0] != field.one():
            raise InvalidWeight(f"w[0] must be 1, got {w[0]}")
        for n, x in enumerate(w):
            if not x:
                raise InvalidWeight(f"w[{n}] = 0")
        self.field = field
        self.w = w
        self.recip = tuple([x.inverse() for x in w])

    # -- builtins ----------------------------------------------------------
    @classmethod
    def exponential(cls, field, order, lam):
        """w_n = lam^n * n!; the classical umbral calculus."""
        lam = field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        if field.p is not None and order > field.p:
            raise NotInvertible(
                f"n! vanishes in GF({field.p}) before order {order}"
            )
        w, fact = [], field.one()
        for n in range(order):
            if n:
                fact = fact * field.scalar(n)
            w.append(lam ** n * fact)
        return cls(field, w)

    @classmethod
    def geometric(cls, field, order, lam):
        """w_n = lam^n; the power-reduction calculus."""
        lam = field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        return cls(field, [lam ** n for n in range(order)])

    @classmethod
    def q_factorial(cls, field, order, lam, q):
        """w_n = (lam/(1-q))^n * prod_{j<=n} (1 - q^j); the q-umbral calculus.

        Needs q^j != 1 for 1 <= j < order, so every w_n is a unit.
        """
        lam, q = field.scalar(lam), field.scalar(q)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        one = field.one()
        for j in range(1, order):
            if q ** j == one:
                raise RootOfUnity(f"q^{j} = 1")
        base = lam / (one - q)
        w, prod = [], one
        for n in range(order):
            if n:
                prod = prod * (one - q ** n)
            w.append(base ** n * prod)
        return cls(field, w)

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.w)

    def series(self) -> Series:
        """W(t) = sum t^n / w_n as a truncated series."""
        return Series(self.field, self.recip)

    def ratio(self, n: int) -> Scalar:
        """w_n / w_{n-1}, the subdiagonal of the weighted derivative."""
        return self.w[n] / self.w[n - 1]

    def rescale(self, lam) -> "Weight":
        """w_n -> lam^n * w_n; membership in the Riordan group is unchanged."""
        lam = self.field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        return Weight(self.field, [lam ** n * x for n, x in enumerate(self.w)])

    def _check_same(self, other: "Weight"):
        if other.field != self.field or other.order != self.order:
            raise BackendMismatch("weight orders or fields differ")

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self.field == other.field and self.w == other.w

    def __hash__(self):
        return hash((self.field, self.w))

    def __repr__(self):
        return f"Weight[{', '.join(str(x) for x in self.w)}]"

    def to_json(self):
        return {"w": [str(x) for x in self.w]}

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(s) for s in data["w"]])


@dataclass(frozen=True)
class RiordanPair:
    """(alpha, beta) with v(alpha) = 0 and v(beta) = 1."""

    alpha: Series
    beta: Series

    def __post_init__(self):
        if self.alpha.valuation() != 0:
            raise NotValuationZero("alpha must have valuation 0")
        if self.beta.valuation() != 1:
            raise NotValuationOne("beta must have valuation 1")
        if self.alpha.field != self.beta.field or self.alpha.order != self.beta.order:
            raise BackendMismatch("alpha and beta must share field and order")

    @property
    def order(self) -> int:
        return self.alpha.order

    @property
    def field(self) -> Field:
        return self.alpha.field

    def to_json(self):
        return {"alpha": self.alpha.to_json(), "beta": self.beta.to_json()}

    @classmethod
    def from_json(cls, field, data):
        return cls(
            Series.from_json(field, data["alpha"]),
            Series.from_json(field, data["beta"]),
        )


def identity_pair(field: Field, order: int) -> RiordanPair:
    return RiordanPair(Series.one(field, order), Series.identity(field, order))


def column_series(A: TriMatrix, W: Weight, k: int) -> Series:
    """C_k(y) = sum_n a_{n,k} y^n / w_n; valuation k for graded A."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if k >= A.order:
        raise ValueError(f"column {k} out of range")
    return Series(
        A.field, [A.entry(n, k) * W.recip[n] for n in range(A.order)]
    )


def _mixed_backends(ours: Scalar, theirs: Scalar) -> BackendMismatch:
    # the message a Scalar product of the two operands would raise
    return BackendMismatch(
        f"mixed scalar backends: {ours.backend_name()} vs {theirs.backend_name()}"
    )


def _scaled_columns(A: TriMatrix, W: Weight) -> list:
    """The scaled columns u_k = w_k C_k of A on raw values, as pairs (U_k, s_k).

    u_k = s_k U_k with U_k a list of N integers (over QQ) or residues (over
    GF(p), where s_k = 1 and U_k is u_k itself); entries above the diagonal
    are zero.  Over QQ the rows are scaled by 1/w_n over one denominator.
    """
    p, n = A.field.p, A.order
    if p is None:
        r, den = _over_common_denominator(W.recip)
        out = []
        for k in range(n):
            a, da = _over_common_denominator([A.rows[i][k] for i in range(k, n)])
            out.append(([0] * k + list(map(mul, a, r[k:])), W.w[k].val / (da * den)))
        return out
    r = [x.val for x in W.recip]
    return [
        ([0] * k + [A.rows[i][k].val * r[i] * W.w[k].val % p for i in range(k, n)], 1)
        for k in range(n)
    ]


def is_riordan(A: TriMatrix, W: Weight) -> bool:
    """Definitional membership test, checked at order N.

    Verifies w_k^2 C_k^2 = w_{k-1} C_{k-1} w_{k+1} C_{k+1} for
    1 <= k <= N-2.  Total: never divides, works for any graded matrix.
    The two sides are convolutions of the raw scaled columns, compared
    cross-multiplied by their scale factors.
    """
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if not A.is_graded():
        return False
    if A.field != W.field:
        raise _mixed_backends(A.rows[0][0], W.recip[0])
    p = A.field.p
    u = _scaled_columns(A, W)
    for k in range(1, A.order - 1):
        (lhs, s), (left, s0), (right, s1) = u[k], u[k - 1], u[k + 1]
        square, cross = _convolve(lhs, lhs), _convolve(left, right)
        if p is None:
            t = s * s / (s0 * s1)  # u_k^2 = u_{k-1} u_{k+1} reads square * t = cross
            tn, td = t.numerator, t.denominator
            if any(x * tn != y * td for x, y in zip(square, cross)):
                return False
        elif any((x - y) % p for x, y in zip(square, cross)):
            return False
    return True


def pair_to_matrix(pair: RiordanPair, W: Weight) -> TriMatrix:
    """Matrix with columns C_k = alpha * beta^k / w_k (exactly geometric).

    Column k is a_{i,k} = w_i c_i / w_k with c = alpha beta^k, convolved on
    raw values; over QQ c = num / den and each entry is one rational
    w_i num_i / (den w_k).
    """
    if pair.order != W.order:
        raise BackendMismatch("pair and weight orders differ")
    field, n = pair.field, W.order
    if field != W.field:
        raise _mixed_backends(W.w[0], pair.alpha.coeffs[0])
    p = field.p
    w, recip = [x.val for x in W.w], [x.val for x in W.recip]
    rows = [[None] * (i + 1) for i in range(n)]
    (col, den), (b, db) = map(_over_common_denominator, (pair.alpha.coeffs, pair.beta.coeffs))
    if p is None:
        for k in range(n):
            num, dk = recip[k].numerator, den * recip[k].denominator
            for i in range(k, n):
                rows[i][k] = Scalar(_Q(w[i].numerator * col[i] * num, w[i].denominator * dk))
            col, den = _convolve(col, b), den * db
    else:
        for k in range(n):
            for i in range(k, n):
                rows[i][k] = Scalar(w[i] * col[i] * recip[k] % p, p)
            col = [v % p for v in _convolve(col, b)]
    return TriMatrix(field, rows)


def _beta_quotient(A: TriMatrix, W: Weight) -> Series:
    """w_1 C_1 / C_0, the candidate beta of any graded matrix.

    One Toeplitz solve C_0 x = w_1 C_1 on the raw column values.
    """
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if A.field != W.field:
        raise _mixed_backends(A.rows[0][0], W.recip[0])
    p, w1, r = A.field.p, W.w[1].val, W.recip
    c0 = [A.rows[n][0].val * r[n].val for n in range(A.order)]
    c1 = [0] + [w1 * A.rows[n][1].val * r[n].val for n in range(1, A.order)]
    if p is not None:
        c0, c1 = [v % p for v in c0], [v % p for v in c1]
    return _divide(A.field, c1, c0)


def _geometric_witness(A: TriMatrix, W: Weight, beta: Series):
    """The first (j, n) with [y^n] u_j != [y^n] u_0 beta^j, or None.

    u_j = w_j C_j are the scaled columns of A on raw values; None says the
    columns are exactly geometric with ratio beta, that is A is the matrix
    of the pair (C_0, beta).  One raw convolution per column.
    """
    p = A.field.p
    b, db = _over_common_denominator(beta.coeffs)
    u = _scaled_columns(A, W)
    rhs, s0 = u[0]  # u_0 beta^j = s0 rhs / db^j
    for j, (lhs, s) in enumerate(u):
        if p is None:  # u_j = s lhs
            t = s * db ** j / s0
            diffs = (x * t.numerator - y * t.denominator for x, y in zip(lhs, rhs))
        else:
            diffs = ((x - y) % p for x, y in zip(lhs, rhs))
        for n, d in enumerate(diffs):
            if d:
                return (j, n)
        rhs = _convolve(rhs, b)
        if p is not None:
            rhs = [v % p for v in rhs]
    return None


def matrix_to_pair(A: TriMatrix, W: Weight) -> RiordanPair:
    """Extract (alpha, beta) = (C_0, w_1 C_1 / C_0) and verify it rebuilds A.

    Raises NotRiordan when the definitional identity fails, or when the
    columns are not exactly geometric at this order (possible for matrices
    whose deviation hides beyond the truncation).  Exactly geometric
    columns satisfy the column identity, so is_riordan runs only to word
    the error.
    """
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if not A.is_graded():
        raise NotRiordan("matrix fails the weighted column identity")
    if A.field != W.field:
        raise _mixed_backends(A.rows[0][0], W.recip[0])
    pair = RiordanPair(column_series(A, W, 0), _beta_quotient(A, W))
    if _geometric_witness(A, W, pair.beta) is None:
        return pair
    if not is_riordan(A, W):
        raise NotRiordan("matrix fails the weighted column identity")
    raise NotRiordan("columns are not exactly geometric at this order")


def riordan_mul(a: RiordanPair, b: RiordanPair) -> RiordanPair:
    """Group law: (alpha, beta) * (gamma, delta) = (alpha*(gamma o beta), delta o beta).

    Both compositions apply the one power table R_beta.  pair_to_matrix
    turns this into the matrix product, exactly at order N.
    """
    b.alpha._check_same(a.beta)
    table = _power_table(a.beta)
    return RiordanPair(
        a.alpha * _apply_power_table(table, b.alpha),
        _apply_power_table(table, b.beta),
    )


def riordan_inv(a: RiordanPair) -> RiordanPair:
    """Group inverse (1/(alpha o beta_bar), beta_bar), beta_bar = beta^{<-1>}.

    With R = R_beta, h = alpha o beta_bar solves R h = alpha (as h o beta =
    alpha) and beta_bar solves R x = e_1: two right-hand sides, one table.
    """
    field, n = a.field, a.order
    rows, den = _power_table(a.beta)
    alpha = [den * c.val for c in a.alpha.coeffs]
    h, beta_bar = _forward_substitute(field, rows, [alpha, [den] + [0] * (n - 2)])
    return RiordanPair(
        Series(field, [Scalar(v, field.p) for v in h]).invert(),
        Series(field, [field.zero()] + [Scalar(v, field.p) for v in beta_bar]),
    )


def generating_expansion(pair: RiordanPair, W: Weight) -> list[Series]:
    """Columns of alpha(y) * W(x beta(y)) expanded in powers of x.

    Column k is alpha * beta^k / w_k, the column_series k of pair_to_matrix.
    """
    A = pair_to_matrix(pair, W)
    return [column_series(A, W, k) for k in range(W.order)]


def change_weight(A: TriMatrix, W: Weight, W2: Weight) -> TriMatrix:
    """Conjugate by U = diag(w_n / w2_n): A -> U^{-1} A U.

    Sends the W-Riordan matrix of (alpha, beta) to the W2-Riordan matrix of
    the identical pair, and Appell to Appell.
    """
    W._check_same(W2)
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    rows = []
    for n in range(A.order):
        left = W2.w[n] * W.recip[n]
        rows.append(
            [left * A.rows[n][k] * W.w[k] * W2.recip[k] for k in range(n + 1)]
        )
    return TriMatrix(A.field, rows)
