"""Operator calculus on polynomial sequences.

Operators on polynomials are identified with lower-triangular matrices
acting on the monomial basis: row n of the matrix lists the coefficients
of the image of x^n.  Composition "apply S, then T" is the matrix product
S @ T under this convention.

Central objects:

* the weighted derivative M_W (subdiagonal w_n / w_{n-1});
* the translations T_h = W(h M_W), whose matrix is the Riordan matrix of
  the pair (W(hy), y);
* the lowering operator of a graded sequence A, with matrix
  A^{-1} M_W A.

Every weighted matrix here is an ordinary one conjugated by D = diag(w),
through the one conjugation kernel of riordan.py: M_W = D S D^{-1} for the
plain shift S, the Appell matrices are D T D^{-1} for lower-triangular
Toeplitz T, the finite difference T_a - I is D T D^{-1} for the Toeplitz T
of W(ay) - 1, and A commutes with M_W exactly when U = D^{-1} A D commutes
with S, that is when U is Toeplitz.

Sheffer membership is the definition, exactly geometric columns of U
through y^{N-1}: is_sheffer, dw_multiplier and check_report take the
verdict and (alpha, beta) from riordan._riordan_columns, the one
membership walk.  check_report reads every kind off that pair: Appell is
beta = y on a graded A (a Toeplitz U is u_k = y^k u_0), and only a
non-graded A goes to is_appell's Toeplitz test.  sheffer_by_commutation
and is_normalizing are independent operator-level tests that never
consult it.  Each family they sweep (N translations, the substitutions
1 + y^j) consists of series in M_W, so both reduce to whether
q = A^{-1} M_W A commutes with M_W.  As q = D q' D^{-1}
with q' = U^{-1} S U, that holds exactly when q' is Toeplitz, q' = T(t),
that is when S U = U T(t): the lowering-side analogue of the production
matrix (Deutsch, Ferrari & Rinaldi 2005).  _lowering_witness puts the
columns of U over one denominator as rows, as series._power_table does
the columns of R_beta, solves U t = S u_0 for t on them and checks the
other entries as dot products, in O(N^3) with no inverse, no matrix
product and an exit at the first failing entry; for a Sheffer A,
t = beta^{<-1>}.  d_polynomials reads every power of
A M_W A^{-1} = D U S U^{-1} D^{-1}, as shifted dot products in about
N^4/24 multiply-adds, off the same rows of U and the columns of
V = U^{-1}, which one forward substitution on those rows solves as raw
columns: the solve of TriMatrix.inverse (_inverse_frame, also behind
functionals.dual_basis), with no weighted inverse and no matrix product.
Over GF(p), when N (p - 1)^2 < 2^64, the sums of each entry are one
product of packed integers instead (series module note); so are V,
solved row by row, and the entries of _lowering_witness past column 1.
Over either field the result holds each entry as one reduced raw form
(ints, den), over QQ one integer slot scaled and reduced once, and
builds its Scalar entries only when they are read (HPolyMatrix).
The column and operator tests give the same verdict on every graded
matrix, and so does the production-matrix test of
tests/test_production_matrix.py (P = R'^{-1} R-bar for R = A under the
weight w_n = 1, with Toeplitz columns k >= 1, an A-sequence), which holds
exactly when product_rule_spanning_witness is None.

solve_conjugator needs no inverse either: A S = M A gives a_{k+1} = M a_k,
so the columns of A are the Krylov vectors M^k e_0, raw columns, each
one integer product with the rows of M, put over one denominator once.
"""

from __future__ import annotations

import random
from operator import mul

from .errors import (
    BackendMismatch,
    NotDegreeDecreasing,
    NotSheffer,
    NotValuationZero,
    ZeroShift,
)
from .riordan import (
    Weight, _first_difference, _iter_unweighted_columns, _mixed_backends, _riordan_columns,
    _toeplitz_columns, _unweighted_columns, _weighted_matrix, is_riordan,
)
from .scalars import _Q
from .series import (
    Series, _apply_rows, _entrywise, _forward_substitute, _ints_over_lcm, _inverse_columns,
    _low_slots, _pack, _packs, _over_common_denominator, _reduce, _rows_over_lcm,
    _running_product, _scalar_raw, _texts, _wrap,
)
from .triangular import Polynomial, TriMatrix, _triangle_rows


def m_matrix(W: Weight) -> TriMatrix:
    """Matrix of the weighted derivative: x^n / w_n -> x^{n-1} / w_{n-1}.

    M_W = D S D^{-1}, S the Toeplitz matrix of the series y.
    """
    return _weighted_matrix(W, _toeplitz_columns([0, 1] + [0] * (W.order - 2), 1))


def _translation_series(W: Weight, h) -> Series:
    """W(hy) = sum h^l y^l / w_l, the series of T_h: the running powers of h
    (_running_product) times 1/w entrywise, on the raw forms."""
    field = W.field
    powers = _running_product(field.p, [_scalar_raw(field.scalar(h))] * (W.order - 1))
    return Series._from_raw(field, *_entrywise(field.p, powers, W._rs._raw()))


def translation_matrix(W: Weight, h) -> TriMatrix:
    """Matrix of T_h = W(h M_W), the Appell matrix of W(hy):
    entry (n,k) = w_n h^{n-k} / (w_{n-k} w_k)."""
    return appell_from_alpha(_translation_series(W, h), W)


def shifted_power_matrix(W: Weight, h) -> TriMatrix:
    """Matrix whose row n is the W-analogue of the shifted power (x+h)^n.

    The inverse of translation by -h, built as the Appell matrix of
    1/W(-hy): one series inverse, no matrix inverse.  For the exponential
    weight this is the translation matrix itself with rows (x+h)^n; for
    the q-factorial weight the rows factor as prod_{j<n} (x + h q^j), so
    their roots run through a geometric progression.  For q != 1 these
    rows differ from the rows of translation_matrix(W, h), which do not
    factor.
    """
    return appell_from_alpha(_translation_series(W, -W.field.scalar(h)).invert(), W)


def q_operator_matrix(A: TriMatrix, W: Weight) -> TriMatrix:
    """Matrix of the lowering operator of the sequence A: A^{-1} M_W A.

    One inverse and two products.  The Sheffer tests never build it: they
    decide whether it commutes with M_W through _lowering_witness.
    """
    return A.inverse() @ m_matrix(W) @ A


def appell_from_alpha(alpha: Series, W: Weight) -> TriMatrix:
    """Substitute M_W into a unit series: entry (n,k) = c_{n-k} w_n / w_k.

    The result is the Riordan matrix of the pair (alpha, y); such matrices
    are exactly the graded matrices commuting with M_W.
    """
    if alpha.valuation() != 0:
        raise NotValuationZero("alpha must have valuation 0")
    if alpha.order != W.order:
        raise BackendMismatch("series and weight orders differ")
    if alpha.field != W.field:
        raise _mixed_backends(alpha.field.one(), W.field.one())
    return _weighted_matrix(W, _toeplitz_columns(*alpha._raw()))


def is_sheffer(A: TriMatrix, W: Weight) -> bool:
    """Sheffer = Riordan: the lowering operator commutes with all T_h."""
    return is_riordan(A, W)


def sheffer_by_commutation(A: TriMatrix, W: Weight, hs=None) -> bool:
    """Independent Sheffer test: [A^{-1} M_W A, T_h] = 0 for N distinct h.

    With q = A^{-1} M_W A, [q, T_h] = sum_{l<N} h^l [q, M_W^l] / w_l is a
    matrix polynomial of degree < N in h; by Vandermonde it vanishes at N
    distinct points exactly when every [q, M_W^l] does, that is when
    [q, M_W] = 0, which _lowering_witness decides without building q or a
    translation.  Defaults to h = 0..N-1 (requires p >= N over GF(p)).
    Raises SingularDiagonal for a non-graded A, which has no lowering
    operator.
    """
    if hs is None:
        W.field._check_count(W.order)  # the points 0..N-1 must be distinct
    elif len({W.field.scalar(h) for h in hs}) != W.order:
        raise ValueError(f"need {W.order} distinct sample points")
    return _lowering_witness(A, W) is None


def _check_frame(A: TriMatrix, W: Weight):
    """A and W share field and order, or BackendMismatch (the operator tests)."""
    if A.field != W.field or A.order != W.order:
        raise BackendMismatch("matrix orders or fields differ")


def _lowering_witness(A: TriMatrix, W: Weight):
    """The first entry (k, n) at which the lowering operator q = A^{-1} M_W A
    fails to commute with M_W, or None when it commutes.

    q = D q' D^{-1} with q' = U^{-1} S U (module note), and q' commutes with
    the shift S exactly when it is Toeplitz, q' = T(t): when S U = U T(t).
    Column 0 fixes t, as U t = S u_0 (so t_0 = 0), in one forward
    substitution.  Column k of S U = U T(t) then reads, in row n,

        U[n-1][k] = sum_{j=1}^{n-k} t_j U[n][k+j],

    one dot product per entry; rows n <= k hold on both sides.  The first
    failing (k, n) in column order is returned: k = 1..N-1 ascending, each
    from row k+1 down.  Over QQ the columns of U share one denominator and
    t = T / td, so each entry compares td U[n-1][k] with an integer dot
    product; over GF(p) the difference is reduced once.

    Over GF(p) with N (p - 1)^2 < 2^64 (series._packs) only column 1 runs
    so, row by row, which a perturbed matrix mostly fails.  Then row n
    of every column k >= 2 is one packed product: U[n][n..3], reversed,
    times t_1..t_{n-2}, whose slot c sums entry (n - 1 - c, n).  Its low
    n - 2 slots, reduced mod p, are compared with U[n-1][n-1..2], and the
    least (k, n) over the failing rows is the same witness.  For a Sheffer
    A, t = beta^{<-1>} in the unweighted frame, as y u_k = t(beta) u_k.
    Raises SingularDiagonal for a non-graded A.
    """
    A._check_diagonal()
    _check_frame(A, W)
    p, n = A.field.p, A.order
    rows, _ = _rows_over_lcm(_unweighted_columns(A, W))  # the rows of U
    su0 = [row[0] for row in rows[: n - 1]]  # S u_0 on the scale of the rows: integers
    ((t, td),) = _forward_substitute(A.field, rows, [su0], 1)  # t_1..t_{N-1} over td
    for k in range(1, 2 if _packs(n, p) else n):
        for m in range(k + 1, n):
            diff = sum(map(mul, t, rows[m][k + 1 :])) - td * rows[m - 1][k]
            if diff if p is None else diff % p:
                return (k, m)
    if not _packs(n, p):
        return None
    tp, failing = _pack(t[: n - 3]), []
    for m in range(3, n):  # slot c of row m's product sums entry (m - 1 - c, m)
        got = _low_slots(_pack(rows[m][m:2:-1]) * (tp & ((1 << 64 * (m - 2)) - 1)), m - 2)
        bad = [c for c, (a, b) in enumerate(zip(got, rows[m - 1][m - 1 : 1 : -1])) if a % p != b]
        if bad:
            failing.append((m - 1 - bad[-1], m))
    return min(failing, default=None)


def is_appell(A: TriMatrix, W: Weight) -> bool:
    """Appell = the lowering operator is M_W itself, i.e. A commutes with M_W.

    Tested as U = D^{-1} A D being Toeplitz (module note): each column k
    of U is its column 0 moved down by k.  O(N^2); the columns are built one
    at a time, so a failing column ends the test.  Any A, graded or not:
    check_report calls it for a non-graded A alone.
    """
    _check_frame(A, W)
    u = _iter_unweighted_columns(A, W)
    c, d = next(u)
    return all(_first_difference(col[k:], dk, c[: len(c) - k], d) is None
               for k, (col, dk) in enumerate(u, 1))


def is_binomial(A: TriMatrix, W: Weight) -> bool:
    """Binomial type = Sheffer with trivial alpha: column 0 is (1, 0, ...)."""
    return is_sheffer(A, W) and _trivial_alpha(A)


def _trivial_alpha(A: TriMatrix) -> bool:
    return A._columns()[0] == ([1] + [0] * (A.order - 1), 1)


def dw_multiplier(A: TriMatrix, W: Weight) -> Series:
    """Series by which the weighted derivative multiplies the weighted
    generating expression of a Sheffer sequence: its beta parameter."""
    found = _riordan_columns(A, W)
    if found is None:
        raise NotSheffer("matrix is not Sheffer for this weight")
    return found[1]


class HPolyMatrix:
    """Triangle of polynomials in a shift variable h, one per matrix slot.

    Entry (n, k) stores coefficients ascending in h, degree <= n - k.
    For a Sheffer sequence the entries depend only on n - k.

    A matrix holds each slot in reduced raw form (ints, den) (series._reduce)
    from construction on: integers over their least common denominator over
    QQ, residues over 1 over GF(p), read off the Scalars a caller gives
    (series._over_common_denominator) or as d_polynomials built them.  A slot
    keeps its length, trailing zeros and empty slots included.  The form is
    unique, so constant_on_diagonals, ==, hash and to_json (series._texts)
    read it.  The Scalar entries are a read-only view, kept when given and
    otherwise built from the raw form (series._wrap) on their first read, as
    TriMatrix rows are.
    """

    __slots__ = ("field", "_entries", "_raw")

    def __init__(self, field, entries):
        entries = tuple([tuple([tuple(e) for e in row]) for row in entries])
        for row in _triangle_rows(entries):
            for e in row:
                field.check(e, "coefficient")
        self.field, self._entries = field, entries
        self._raw = tuple([tuple([_over_common_denominator(field, e) for e in row])
                           for row in entries])

    @classmethod
    def _from_kernel(cls, field, raw):
        """Wrap kernel output, unchecked: for each slot the reduced raw form
        (ints, den) of its coefficients over field."""
        out = object.__new__(cls)
        out.field, out._entries, out._raw = field, None, raw
        return out

    @property
    def entries(self):
        """The coefficients as tuples of Scalars, built from the raw form once."""
        if self._entries is None:
            field = self.field
            self._entries = tuple([tuple([tuple(_wrap(field, ints, den)) for ints, den in row])
                                   for row in self._raw])
        return self._entries

    @property
    def order(self):
        return len(self._raw)

    def entry(self, n, k):
        if not 0 <= k <= n < self.order:
            raise IndexError(f"entry ({n}, {k}) out of range")
        return self.entries[n][k]

    def evaluate(self, h) -> TriMatrix:
        h = self.field.scalar(h)

        def entry(n, k):
            return Polynomial(self.field, self.entries[n][k]).evaluate(h)

        return TriMatrix.from_entries(self.field, self.order, entry)

    def constant_on_diagonals(self) -> bool:
        raw = self._raw
        return all(e == raw[n - k][0] for n, row in enumerate(raw) for k, e in enumerate(row))

    def diagonal(self, l: int):
        """The common polynomial d_l on diagonal n - k = l (first slot)."""
        return self.entry(l, 0)

    def __eq__(self, other):
        if not isinstance(other, HPolyMatrix):
            return NotImplemented
        return self.field == other.field and self._raw == other._raw

    def __hash__(self):
        return hash((self.field, tuple([tuple([(tuple(ints), den) for ints, den in row])
                                        for row in self._raw])))

    def to_json(self):
        return [[_texts(self.field.p, *e) for e in row] for row in self._raw]


def _inverse_frame(A: TriMatrix, W: Weight):
    """The rows of U = D^{-1} A D over one denominator, (rows, den) as
    series._rows_over_lcm gives them, and the columns of V = U^{-1} =
    D^{-1} A^{-1} D as raw columns (ints, den) in reduced form from the
    diagonal down, column k listing V_{k..N-1,k}.

    The solve of TriMatrix.inverse (series._inverse_columns), run on
    the raw columns of U: no weight enters and no inverse is weighted.
    Raises SingularDiagonal for a non-graded A before it checks the field.
    """
    A._check_diagonal()
    return _inverse_columns(A.field, _unweighted_columns(A, W))


def d_polynomials(A: TriMatrix, W: Weight) -> HPolyMatrix:
    """Expansion coefficients of translations in the basis of the sequence.

    Writing T_h(p_n / w_n) = sum_k d_{n,k}(h) / w_{n-k} * p_k / w_k, the
    entry (n, k) is the polynomial d_{n,k}: its coefficient of h^l is entry
    (n, k) of (A M_W A^{-1})^l = D U S^l U^{-1} D^{-1} (module note),
    scaled by w_{n-k} w_k / (w_n w_l).  So each coefficient is one dot
    product of row n of U with column k of V = U^{-1} (_inverse_frame):

        [h^l] d_{n,k} = (w_{n-k} / w_l) * sum_{j=k}^{n-l} U_{n,j+l} V_{j,k}

    The sum is empty for l > n - k, so entry (n, k) has h-degree at most
    n - k.  The sums run on raw values (_shifted_dots), over QQ on the
    integer rows of U over their one denominator and each column of V over
    its own, the reduced raw columns the solver returns, used as they come.
    Each entry is then one reduced raw form (ints, den) (HPolyMatrix).
    Over GF(p) it lists the sums times w_{n-k} / w_l, each reduced once,
    over 1.  Over QQ the ratios w_d / w_l are read off the raw form of w,
    each in lowest terms, diagonal d over its own lcm L_d, so entry (n, k)
    is one integer slot, each sum times its ratio's integer, over
    den * dv_k * L_{n-k} (V's column k over dv_k), reduced once
    (series._reduce): no rational is built per coefficient.  The Scalar
    entries are built from the raw form on their first read.

    Over GF(p) with N (p - 1)^2 < 2^64 (series._packs) the n - k + 1 sums
    of entry (n, k) are one product of two packed integers, row n of U
    reversed and column k of V, each packed once: N(N+1)/2 big-integer
    multiplies of at most N 64-bit slots, and V is solved on packed rows
    too (series._packed_inverse).  At GF(1000003) under q_factorial(5, 3),
    on the matrix of sampling.riordan_pair with random.Random(1), a call
    took 0.34, 0.54, 0.85 and 15.8 ms at N = 12, 16, 20 and 64; reading the
    entries then adds 0.12, 0.24, 0.44 and 10.8 ms (minimum of 3 calls on
    fresh inputs over 7-15 rounds, Python 3.11, 2 shared CPUs).

    Otherwise the cost is about N^4/24 big-integer multiply-adds.  V is
    solved at its reduced size, and the columns of U are divided by their
    content (riordan._conjugated_columns), so U is the ordinary matrix of
    the pair at its own size whatever the weight: over QQ at N = 64, on the
    matrix of sampling.riordan_pair(QQ, 64, random.Random(1)), its rows
    hold at most 133-bit integers over a 27-bit denominator under both
    q_factorial(-1, 2) and the exponential weight, and the columns of V at
    most 274 bits.  One call there took 0.18 s and 0.16 s, and 0.22 s and
    0.20 s with the entries read; scaling each coefficient into a rational
    of its own took 0.23 s and 0.20 s, and 0.24 s and 0.21 s (minimum of 3
    calls on fresh inputs over 4 alternating rounds, Python 3.11, Fraction
    backend, 2 shared CPUs).  The CLI does not call it.
    """
    _check_frame(A, W)
    (u, den), v = _inverse_frame(A, W)
    # w_d / w_l for l <= d, off the raw w and 1/w: over QQ in lowest terms,
    # diagonal d over its own lcm
    p, (w, _), (r, _) = A.field.p, W._ws._raw(), W._rs._raw()
    ratio = [_ints_over_lcm([_Q(w[d], x) for x in w[: d + 1]]) if p is None
             else [w[d] * x for x in r[: d + 1]] for d in range(A.order)]
    v, dv = zip(*v)
    entries = []
    for n, row in enumerate(_shifted_dots(u, v, p)):  # tuple([...]): see series._ints_over_lcm
        if p is None:  # one integer slot over den * dv[k] * dc, reduced once
            entries.append(tuple([_reduce([s * c for s, c in zip(sums, cs)], den * dv[k] * dc, 0)
                                  for k, (sums, (cs, dc)) in enumerate(zip(row, ratio[n::-1]))]))
        else:
            entries.append(tuple([([s * c % p for s, c in zip(sums, ratio[n - k])], 1)
                                  for k, sums in enumerate(row)]))
    return HPolyMatrix._from_kernel(A.field, tuple(entries))


def _shifted_dots(u, v, p):
    """For each row n of U, the list over k <= n of the n - k + 1 sums
    sum_j U_{n,k+l+j} V_{k+j,k}, l = 0..n-k, from u the rows of U and v the
    columns of V from the diagonal down, as integers (residues mod p over
    GF(p)).

    When sums of N products of residues fit 64-bit slots (series._packs),
    row n reversed and column k are packed integers, and the sums are the
    low n - k + 1 slots of the product of their low n - k + 1 slots,
    reversed: slot n - k - l collects exactly U_{n,k+l+j} V_{k+j,k}.
    Otherwise each sum is one dot product.
    """
    if not _packs(len(u), p):
        for n, un in enumerate(u):
            yield [[sum(map(mul, un[k + l :], vk)) for l in range(n - k + 1)]
                   for k, vk in enumerate(v[: n + 1])]
        return
    cols = [_pack(vk) for vk in v]
    masks = [(1 << 64 * d) - 1 for d in range(1, len(u) + 1)]  # the low d slots
    for n, un in enumerate(u):
        un = _pack(un[::-1])
        yield [_low_slots((un & masks[n - k]) * (vk & masks[n - k]), n - k + 1)[::-1]
               for k, vk in enumerate(cols[: n + 1])]


def is_degree_decreasing(M: TriMatrix) -> bool:
    """Strictly lower with nonvanishing subdiagonal: drops every degree by 1."""
    cols = M._columns()
    return M.is_strictly_lower() and all(col[k + 1] for k, (col, _) in enumerate(cols[:-1]))


def solve_conjugator(M: TriMatrix) -> TriMatrix:
    """The unique graded A with first column (1, 0, ...) conjugating the
    plain shift (the derivative of the all-ones weight) onto M.

    Column k of A S is column k + 1 of A, and A S = M A, so
    a_{k+1} = M a_k: the columns of A are the Krylov vectors M^k e_0.  The
    rows of M are put over one denominator once (series._rows_over_lcm),
    and each next column stays raw: one series._apply_rows on those rows,
    applied to the last column from its diagonal down, an integer dot
    product per entry, reduced once.  No Scalar is built.
    """
    if not is_degree_decreasing(M):
        raise NotDegreeDecreasing("need a strictly lower matrix with nonzero subdiagonal")
    table = _rows_over_lcm(M._columns())
    cols = [([1] + [0] * (M.order - 1), 1)]
    for k in range(M.order - 1):
        a, da = cols[-1]
        cols += _apply_rows(M.field, table, (a[k:], da))
    return TriMatrix._from_columns(M.field, cols)


def finite_difference_matrix(W: Weight, a) -> TriMatrix:
    """Matrix of p -> T_a(p) - p; degree decreasing for any nonzero shift.

    T_a - I = D T(W(ay) - 1) D^{-1}, the Toeplitz matrix of W(ay) less its
    constant term 1 conjugated by D = diag(w): raw columns, no Scalar.
    """
    a = W.field.scalar(a)
    if not a:
        raise ZeroShift("shift must be nonzero")
    c, d = _translation_series(W, a)._raw()
    c = [c[0] - d, *c[1:]]  # a new list: c is the series' cached raw form
    return _weighted_matrix(W, _toeplitz_columns(c, d))


def is_normalizing(A: TriMatrix, W: Weight, samples: int = 6, rng=None) -> bool:
    """Does conjugation by A preserve the group of matrices commuting with M_W?

    Checks the deterministic spanning family 1 + y^j substituted at M_W,
    which is decisive at this order.  Matches the Sheffer verdict on every
    graded A.

    appell_from_alpha(1 + y^j) is I + M_W^j, which A conjugates to I + q^j,
    q = A^{-1} M_W A; all of these commute with M_W exactly when q does
    (j = 1), which _lowering_witness decides without building q.  The
    `samples` random unit series alpha need no test, since they cannot
    change the verdict: once [q, M_W] = 0, A^{-1} alpha(M_W) A = alpha(q)
    commutes with M_W as well.  They are drawn from `rng` before q is
    checked, so `rng` advances by `samples` draws for every graded A.
    """
    if not A.is_graded():
        return False
    if samples:
        rng = rng or random.Random(0)
        from .sampling import unit_series

        for _ in range(samples):
            unit_series(A.field, A.order, rng)
    return _lowering_witness(A, W) is None


CHECK_KINDS = ("riordan", "sheffer", "appell", "binomial")


def check_report(A: TriMatrix, W: Weight, kind: str) -> dict:
    """Classification verdict plus extracted parameters, JSON-ready.

    `kind` is one of CHECK_KINDS.  alpha/beta are included whenever the
    matrix is Riordan for W, whatever `kind` was asked, and then
    pair_to_matrix(RiordanPair(alpha, beta), W) rebuilds A.  Every kind
    reads the one membership walk, _riordan_columns, which builds U once,
    builds no column past the first failing one and gives alpha = u_0 and
    beta = u_1 / u_0.  Each verdict is a reading of that pair: riordan and
    sheffer are membership, binomial adds alpha = 1, and appell is
    beta = y, since a graded A commutes with M_W exactly when
    u_k = y^k u_0.  A non-graded A is not walked; its appell verdict is
    is_appell (a finite difference has a strictly lower Toeplitz U).  The
    errors are those of the public test of `kind`.
    """
    if kind not in CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}")
    if kind == "appell":
        _check_frame(A, W)
    alpha, beta = _riordan_columns(A, W) or (None, None)
    if kind == "appell":
        verdict = beta == Series.identity(A.field, A.order) if A.is_graded() else is_appell(A, W)
    else:
        verdict = beta is not None and (kind != "binomial" or _trivial_alpha(A))
    if alpha is not None:
        alpha, beta = _texts(A.field.p, *alpha), _texts(A.field.p, *beta._raw())
    return {"kind": kind, "verdict": verdict, "alpha": alpha, "beta": beta}
