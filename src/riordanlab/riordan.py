"""Weights, Riordan pairs, and the weighted Riordan group.

A weight is a sequence w_0 = 1, w_n != 0; its reciprocal series
W(t) = sum t^n / w_n drives the whole calculus.  A graded matrix A is
*Riordan for W* when its weighted column series C_k = sum_n a_{n,k} y^n / w_n
form a geometric progression C_k = alpha * beta^k / w_k; the pair
(alpha, beta) with v(alpha) = 0, v(beta) = 1 then determines A.

All verdicts here are "at order N": identities are asserted through
coefficient N-1 and say nothing beyond the truncation.  A is Riordan at
order N when its columns are exactly geometric through y^{N-1}, which is
what pair_to_matrix builds, so the membership check, group law and pair
extraction agree on every matrix.

The weighted calculus is the ordinary one conjugated by D = diag(w):
A is Riordan for W exactly when U = D^{-1} A D has the ordinary columns
u_k = w_k C_k = alpha beta^k; the weighted derivative is M_W = D S D^{-1}
for the plain shift S; and the Appell matrices are D T D^{-1} for
lower-triangular Toeplitz T.  One kernel holds that fact,
_conjugated_columns: it yields the raw columns (ints, den) of
diag(v) R diag(v)^{-1}, integers over one denominator over QQ and
residues over 1 over GF(p), each in reduced form (triangular.py), one at a
time from the raw columns of R.  With v = 1/w they are the columns of U,
read off A (_iter_unweighted_columns; _unweighted_columns lists them); with
v = w they are the raw columns of D R D^{-1}, built into a matrix with
no Scalar (_weighted_matrix: pair_to_matrix, appell_from_alpha, m_matrix,
change_weight, finite_difference_matrix).  The weighted matrix routines
here and in operators.py and functionals.py are the ordinary routines on U.

Each column of U is divided by its content, the gcd of its integers and
its denominator: multiplying a column of A by w_k and by 1/w_i over one
denominator puts back a factor that reduction removes.  U is then the
ordinary matrix of the pair at its own size, whatever the weight: over
QQ at N = 64, on the matrix of sampling.riordan_pair(QQ, 64,
random.Random(1)), its columns hold at most 110-bit integers under both
q_factorial(-1, 2) and the exponential weight; undivided, they held 2035
and 307 bits.

The powers of beta come from the one kernel of series.py,
_geometric_columns, the raw columns c beta^k of R_(c,beta):
pair_to_matrix weights alpha beta^k, and the membership walk compares u_k
with u_0 beta^k.  riordan_mul and riordan_inv go through R_beta =
R_(1,beta) once: the product applies it to gamma and delta, and the
inverse solves R_beta x = e_1 and R_beta h = alpha on the same rows,
h = alpha o beta^{<-1>} needing no composition.  The group layer passes
series along in their raw form (series module note): pair_to_matrix reads
the raw alpha and beta, and riordan_mul, riordan_inv, matrix_to_pair and
_beta_quotient return series built from raw kernel output, so the group
law builds no Scalar unless a caller reads one.  A Weight keeps w and
1/w as two Series, and the conjugation kernel reads v (w or 1/w) from
the raw form of one, its denominator cancelling, and the inverses mod p
from the other.

Membership is the definition itself, exactly geometric columns through
y^{N-1}, decided by one walk on the lazy columns of U, _geometric_walk: it
forms beta = u_1 / u_0 once (_beta_quotient) and compares each u_k with
u_0 beta^k = u_1 beta^{k-1}, building no column of U past the first that
differs and keeping none.  It returns (alpha, beta, witness), alpha = u_0
raw.  _riordan_columns is that walk with its guards and returns
(alpha, beta) for a Riordan A.  is_riordan is its verdict; matrix_to_pair,
dw_multiplier and check_report (operators.py, every kind) read alpha and
beta from it, and the product-rule witness (functionals.py) reads the
first differing (j, n).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd

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
from .scalars import Field, Scalar
from .series import (
    Series, _apply_power_table, _divide, _entrywise, _geometric_columns, _over_common_denominator,
    _reciprocal, _reduce, _running_product, _scalar_raw, _solve_power_table, _texts, check_order,
)
from .triangular import TriMatrix


class Weight:
    """Denominator sequence w_0..w_{N-1} and its reciprocals 1/w_n, each
    kept as a Series in its raw form: _ws holds w, and _rs holds 1/w,
    which is W(t).

    The builtins list the N - 1 integer steps (a_n, b_n) of w_n =
    w_{n-1} a_n / b_n, and series._running_product multiplies them out on
    integers into w, and the swapped steps into 1/w (_from_steps): no
    Scalar is built per index and no power or factorial recomputed.
    rescale and tilde_weight_from_gamma multiply a weight entrywise by
    one such product (_times).  Weight(field, values) keeps its checks of
    user values and takes 1/w from the raw w (series._reciprocal).  The
    conjugation kernel reads both series in their raw form (Series._raw),
    integers over their lcm over QQ and residues over 1 over GF(p).
    """

    __slots__ = ("field", "_ws", "_rs")

    def __init__(self, field: Field, denominators):
        w = [field.scalar(x) for x in denominators]
        check_order(len(w))
        if w[0] != field.one():
            raise InvalidWeight(f"w[0] must be 1, got {w[0]}")
        for n, x in enumerate(w):
            if not x:
                raise InvalidWeight(f"w[{n}] = 0")
        raw = _over_common_denominator(field, w)
        self.field, self._ws = field, Series._from_raw(field, *raw)
        self._rs = Series._from_raw(field, *_reciprocal(field.p, *raw))

    @classmethod
    def _from_raw(cls, field, w, r):
        """Wrap the reduced raw forms (ints, den) of w and 1/w, unchecked
        (Series._from_raw): w_0 = 1 and no w_n zero."""
        out = object.__new__(cls)
        out.field, out._ws, out._rs = field, Series._from_raw(field, *w), Series._from_raw(field, *r)
        return out

    @classmethod
    def _from_steps(cls, field, steps):
        """The weight w_n = w_{n-1} a_n / b_n from its N - 1 integer steps
        (a_n, b_n), none zero (mod p over GF(p)): w and 1/w are the running
        products of the steps and of the swapped steps (_running_product)."""
        p = field.p
        return cls._from_raw(field, _running_product(p, steps),
                             _running_product(p, [(b, a) for a, b in steps]))

    def _times(self, other: "Weight") -> "Weight":
        """The weight w_n v_n of the entrywise product with the weight v."""
        p = self.field.p
        return Weight._from_raw(self.field, _entrywise(p, self._ws._raw(), other._ws._raw()),
                                _entrywise(p, self._rs._raw(), other._rs._raw()))

    @property
    def w(self) -> tuple:
        """w_0..w_{N-1} as Scalars."""
        return self._ws.coeffs

    @property
    def recip(self) -> tuple:
        """1/w_0..1/w_{N-1} as Scalars."""
        return self._rs.coeffs

    # -- builtins ----------------------------------------------------------
    @classmethod
    def exponential(cls, field, order, lam):
        """w_n = lam^n * n!; the classical umbral calculus."""
        check_order(order)
        lam = field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        if field.p is not None and order > field.p:
            raise NotInvertible(
                f"n! vanishes in GF({field.p}) before order {order}"
            )
        a, b = _scalar_raw(lam)
        return cls._from_steps(field, [(a * n, b) for n in range(1, order)])

    @classmethod
    def geometric(cls, field, order, lam):
        """w_n = lam^n; the power-reduction calculus."""
        check_order(order)
        lam = field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        return cls._from_steps(field, [_scalar_raw(lam)] * (order - 1))

    @classmethod
    def q_factorial(cls, field, order, lam, q):
        """w_n = (lam/(1-q))^n * prod_{j<=n} (1 - q^j); the q-umbral calculus.

        Needs q^j != 1 for 1 <= j < order, so every w_n is a unit.  With
        lam = a/b and q = c/d (b = d = 1 over GF(p)) the step n is
        a d (d^n - c^n) / (b (d - c) d^n), on the running powers c^n, d^n.
        """
        check_order(order)
        lam, q = field.scalar(lam), field.scalar(q)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        (a, b), (c, d), p = _scalar_raw(lam), _scalar_raw(q), field.p
        steps, cn, dn = [], 1, 1
        for j in range(1, order):
            cn, dn = cn * c if p is None else cn * c % p, dn * d
            if cn == dn:
                raise RootOfUnity(f"q^{j} = 1")
            steps.append((a * d * (dn - cn), b * (d - c) * dn))
        return cls._from_steps(field, steps)
    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return self._ws.order

    def series(self) -> Series:
        """W(t) = sum t^n / w_n as a truncated series."""
        return self._rs

    def ratio(self, n: int) -> Scalar:
        """w_n / w_{n-1}, the subdiagonal of the weighted derivative, for
        1 <= n < N."""
        if not 0 < n < self.order:
            raise IndexError(f"ratio {n} out of range")
        return self.w[n] / self.w[n - 1]

    def rescale(self, lam) -> "Weight":
        """w_n -> lam^n * w_n; membership in the Riordan group is unchanged."""
        return self._times(Weight.geometric(self.field, self.order, lam))

    def _check_same(self, other: "Weight"):
        if other.field != self.field or other.order != self.order:
            raise BackendMismatch("weight orders or fields differ")

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self._ws == other._ws

    def __hash__(self):
        return hash(self._ws)

    def __repr__(self):
        return f"Weight[{', '.join(_texts(self.field.p, *self._ws._raw()))}]"

    def to_json(self):
        return {"w": _texts(self.field.p, *self._ws._raw())}

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
    _check_matrix_order(A, W)
    if not 0 <= k < A.order:
        raise ValueError(f"column {k} out of range")
    return Series(
        A.field, [A.entry(n, k) * W.recip[n] for n in range(A.order)]
    )


def _check_matrix_order(A: TriMatrix, W: Weight):
    """A and W have the same order, or BackendMismatch."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")


def _mixed_backends(ours: Scalar, theirs: Scalar) -> BackendMismatch:
    # the message a Scalar product of the two operands would raise
    return BackendMismatch(
        f"mixed scalar backends: {ours.backend_name()} vs {theirs.backend_name()}"
    )


# -- the conjugation by D = diag(w) ---------------------------------------------


def _conjugated_columns(field, cols, v, inv):
    """The raw columns of diag(v) R diag(v)^{-1}, entry (i, k) =
    v_i r_{i,k} / v_k, from the raw columns (ints, den) of a
    lower-triangular R, v the integers of a diagonal without zero in the
    raw form of a Series (Series._raw; their denominator cancels) and,
    over GF(p), inv the residues of 1/v: each in reduced form, listing all
    N rows, zero above the diagonal, and built only when it is asked for.

    Over QQ column k is one product per entry over den v_k, reduced once
    (series._reduce, which also makes the denominator positive): 1/v_k is
    already in lowest terms.  Taking 1/v from the raw form
    of 1/w instead, over its own lcm, needs one gcd of that lcm per column
    to reduce the factor: at QQ, N = 64 under q_factorial(-1, 2), 64 gcds
    of 2015-bit integers, 0.30 ms of a 9 ms pair_to_matrix (timeit
    minima, Python 3.11, 2 shared CPUs).  Over GF(p) it is residues over 1.
    """
    p, n = field.p, len(v)
    if p is None:
        for k, (col, den) in enumerate(cols):
            yield _reduce([v[i] * col[i] for i in range(k, n)], den * v[k], k)
    else:
        for k, ((col, _), ik) in enumerate(zip(cols, inv)):
            yield [0] * k + [v[i] * col[i] * ik % p for i in range(k, n)], 1


def _iter_unweighted_columns(A: TriMatrix, W: Weight):
    """The columns of U = D^{-1} A D, u_{i,k} = a_{i,k} w_k / w_i, as raw
    (ints, den) (_conjugated_columns), yielded one at a time so that a
    caller can stop at the first column it rejects.  Column k of U is the
    scaled column series w_k C_k.  The arguments are checked on the call.
    """
    _check_matrix_order(A, W)
    if A.field != W.field:
        raise _mixed_backends(A.field.one(), W.field.one())
    return _conjugated_columns(A.field, A._columns(), W._rs._raw()[0], W._ws._raw()[0])


def _unweighted_columns(A: TriMatrix, W: Weight) -> list:
    """The columns of U as a list (_iter_unweighted_columns)."""
    return list(_iter_unweighted_columns(A, W))


def _weighted_matrix(W: Weight, cols) -> TriMatrix:
    """D R D^{-1}, entry (i, k) = w_i r_{i,k} / w_k, from the raw columns
    (ints, den) of an ordinary lower-triangular R (as _unweighted_columns
    returns them), as raw columns in reduced form: no Scalar is built."""
    field = W.field
    return TriMatrix._from_columns(
        field, list(_conjugated_columns(field, cols, W._ws._raw()[0], W._rs._raw()[0])))


def _toeplitz_columns(c, den) -> list:
    """The raw columns of the lower-triangular Toeplitz matrix with column 0 c / den."""
    n = len(c)
    return [([0] * k + c[: n - k], den) for k in range(n)]


def _first_difference(x, dx, y, dy):
    """The first n with x_n / dx != y_n / dy, or None; raw values over
    integer denominators (1 over GF(p)), compared cross-multiplied."""
    g = gcd(dx, dy)
    dx, dy = dx // g, dy // g
    if dx == dy and x == y:  # equal denominators are 1 here
        return None
    return next((n for n, (a, b) in enumerate(zip(x, y)) if a * dy != b * dx), None)


def _geometric_walk(A: TriMatrix, W: Weight):
    """(alpha, beta, witness): alpha = u_0 as raw (ints, den), beta = u_1 / u_0
    and the first (j, n) with [y^n] u_j != [y^n] u_0 beta^j, or None.

    The columns u_k of U come one at a time from _iter_unweighted_columns,
    and none is built past u_j.  beta is one Toeplitz solve
    (_beta_quotient), which needs u_0 to be a unit; it makes u_0 beta = u_1
    exactly through y^{N-1}, so u_0 beta^j = u_1 beta^{j-1} there, and the
    products start at u_1: one raw convolution per compared column
    (series._geometric_columns), N - 2 in all.  None says the columns are
    exactly geometric: A is the matrix of the pair (u_0, beta).
    """
    cols = _iter_unweighted_columns(A, W)
    u0, u1 = islice(cols, 2)
    beta = _beta_quotient(A, W, (u0, u1))
    for j, (col, rhs) in enumerate(zip(cols, islice(_geometric_columns(*u1, beta), 1, None)), 2):
        n = _first_difference(*col, *rhs)
        if n is not None:
            return u0, beta, (j, n)
    return u0, beta, None


def is_riordan(A: TriMatrix, W: Weight) -> bool:
    """Definitional membership test, checked at order N: the columns u_k of
    U = D^{-1} A D are exactly u_0 beta^k through y^{N-1}, beta = u_1 / u_0.

    Walks the columns one at a time up to the first that differs
    (_geometric_walk).  Works for any matrix: False unless A is graded.
    """
    return _riordan_columns(A, W) is not None


def _riordan_columns(A: TriMatrix, W: Weight):
    """(alpha, beta) when A is Riordan for W, alpha = u_0 as raw (ints, den)
    and beta = u_1 / u_0, else None: the membership walk with its guards
    (the order check, then None for a non-graded A, which is not walked).
    It stops at the first failing column."""
    _check_matrix_order(A, W)
    if A.is_graded():
        alpha, beta, found = _geometric_walk(A, W)
        if found is None:
            return alpha, beta
    return None


def pair_to_matrix(pair: RiordanPair, W: Weight) -> TriMatrix:
    """Matrix with columns C_k = alpha * beta^k / w_k (exactly geometric):
    D R D^{-1} for the ordinary matrix R with columns alpha beta^k."""
    if pair.order != W.order:
        raise BackendMismatch("pair and weight orders differ")
    if pair.field != W.field:
        raise _mixed_backends(W.field.one(), pair.field.one())
    return _weighted_matrix(W, _geometric_columns(*pair.alpha._raw(), pair.beta))


def _beta_quotient(A: TriMatrix, W: Weight, u=None) -> Series:
    """w_1 C_1 / C_0 = u_1 / u_0, the candidate beta of any graded matrix:
    one Toeplitz solve on the columns u of U, computed here unless given."""
    (u0, d0), (u1, d1) = islice(u or _iter_unweighted_columns(A, W), 2)
    return _divide(A.field, (u1, d1), (u0, d0))


def matrix_to_pair(A: TriMatrix, W: Weight) -> RiordanPair:
    """Extract (alpha, beta) = (C_0, w_1 C_1 / C_0), which rebuilds A
    exactly when A is Riordan for W.

    Raises NotRiordan unless A is graded and its columns u_k of U are
    exactly u_0 beta^k through y^{N-1} (_riordan_columns), the verdict of
    is_riordan.
    """
    found = _riordan_columns(A, W)
    if found is None:
        raise NotRiordan("matrix is not Riordan for this weight")
    alpha, beta = found
    return RiordanPair(Series._from_raw(A.field, *alpha), beta)


def riordan_mul(a: RiordanPair, b: RiordanPair) -> RiordanPair:
    """Group law: (alpha, beta) * (gamma, delta) = (alpha*(gamma o beta), delta o beta).

    Both compositions apply the one power table R_beta.  pair_to_matrix
    turns this into the matrix product, exactly at order N.
    """
    b.alpha._check_same(a.beta)
    gamma, delta = _apply_power_table(a.beta, b.alpha, b.beta)
    return RiordanPair(a.alpha * gamma, delta)


def riordan_inv(a: RiordanPair) -> RiordanPair:
    """Group inverse (1/(alpha o beta_bar), beta_bar), beta_bar = beta^{<-1>}.

    With R = R_beta, h = alpha o beta_bar solves R h = alpha (as h o beta =
    alpha) and beta_bar solves R x = e_1: two right-hand sides, one table.
    """
    beta_bar, h = _solve_power_table(a.beta, a.alpha)
    return RiordanPair(h.invert(), beta_bar)


def generating_expansion(pair: RiordanPair, W: Weight) -> list[Series]:
    """Columns of alpha(y) * W(x beta(y)) expanded in powers of x.

    Column k is alpha * beta^k / w_k, the column_series k of pair_to_matrix.
    """
    A = pair_to_matrix(pair, W)
    return [column_series(A, W, k) for k in range(W.order)]


def change_weight(A: TriMatrix, W: Weight, W2: Weight) -> TriMatrix:
    """Conjugate by diag(w_n / w2_n): A -> D2 (D^{-1} A D) D2^{-1}.

    Sends the W-Riordan matrix of (alpha, beta) to the W2-Riordan matrix of
    the identical pair, and Appell to Appell.
    """
    W._check_same(W2)
    _check_matrix_order(A, W)
    if A.field != W.field:
        raise _mixed_backends(W.field.one(), A.field.one())
    return _weighted_matrix(W2, _unweighted_columns(A, W))
