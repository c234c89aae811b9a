"""Four duplicates merged into one copy each, against the copies they replace.

apply_matrix_to_poly and umbral_compose sum c_i v_i through one helper of
triangular.py, and functional_after_operator (t -> U t) applies the rows of
U through the one matrix-vector product of series.py that the power table
uses.  _riordan_columns is the one membership walk: is_riordan is its
verdict, and check_report reads every kind from its (alpha, beta).
TriMatrix.inverse and _lowering_witness share one check of the diagonal,
and TriMatrix and HPolyMatrix one check of the triangle's shape.
binomial_associate is pair_to_matrix of (1, dw_multiplier).  The
references below are the replaced code, kept verbatim; every result, and
the type and message of every raised error, must agree over QQ, GF(2),
GF(3) and GF(1000003) at N = 2..16, with mixed fields, zero coefficients,
the zero polynomial and degrees too high among the inputs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Series, TriMatrix
from riordanlab.errors import (
    BackendMismatch,
    DegreeTooHigh,
    MathDomainError,
    NotSheffer,
    SingularDiagonal,
)
from riordanlab.functionals import (
    Functional,
    _after_operator,
    binomial_associate,
    functional_after_operator,
)
from riordanlab.operators import (
    CHECK_KINDS,
    _check_frame,
    _lowering_witness,
    _trivial_alpha,
    check_report,
)
from riordanlab.riordan import (
    _beta_quotient,
    _iter_unweighted_columns,
    _riordan_columns,
    _unweighted_columns,
    is_riordan,
)
from riordanlab.series import _wrap, check_order
from riordanlab.triangular import (
    Polynomial, _linear_combination, apply_matrix_to_poly, umbral_compose,
)

from references import (
    binomial_candidate_reference, inverse_reference, is_toeplitz_reference as _is_toeplitz,
    riordan_witness_reference as _riordan_witness,
)
from support import MATRICES, WEIGHTS, drawn_cases, drawn_weight, matrix, other, value

# -- the replaced code --------------------------------------------------------


def apply_matrix_to_poly_reference(S, p):
    """Linear extension of x^n -> sum_k S_{n,k} x^k."""
    if p.degree >= S.order:
        raise DegreeTooHigh(f"deg p = {p.degree} >= order {S.order}")
    zero = S.field.zero()
    acc = [zero] * S.order
    for n, c in enumerate(p.coeffs):
        if not c:
            continue
        for k, s in enumerate(S.rows[n]):
            acc[k] = acc[k] + c * s
    return Polynomial(S.field, acc)


def umbral_compose_reference(ps, qs):
    """Substitute the sequence qs into the coefficient expansion of ps:
    r_n = sum_k a_{n,k} q_k where p_n = sum_k a_{n,k} x^k."""
    if len(ps) != len(qs):
        raise ValueError("sequences must have equal length")
    order = len(ps)
    check_order(order)
    for k, q in enumerate(qs):
        if q.degree >= order:
            raise DegreeTooHigh(f"deg q_{k} = {q.degree} >= order {order}")
    field = ps[0].field
    zero = field.zero()
    out = []
    for n, p in enumerate(ps):
        if p.degree > n:
            raise DegreeTooHigh(f"deg p_{n} = {p.degree} > {n}")
        acc = [zero] * order
        for k in range(min(p.degree, order - 1) + 1):
            a = p.coeff(k)
            if not a:
                continue
            for j, qc in enumerate(qs[k].coeffs):
                acc[j] = acc[j] + a * qc
        out.append(Polynomial(field, acc))
    return out


def functional_after_operator_columns_reference(phi, S, W):
    """The functional phi o S: t_n = (1/w_n) sum_k S_{n,k} w_k t_k, that is
    t -> U t for U = D^{-1} S D."""
    if not phi.order == S.order == W.order or not phi.field == S.field == W.field:
        raise BackendMismatch("functional, operator and weight orders or fields differ")
    cols = [_wrap(S.field, *col) for col in _unweighted_columns(S, W)]
    zero = S.field.zero()
    return Functional(phi.field, [sum((c[n] * t for c, t in zip(cols[: n + 1], phi.values)), zero)
                                  for n in range(S.order)])


def after_operator_reference(S, W, *fs):
    """[f o S for f in fs], the functionals fs all on one build of the columns of U."""
    if any(not f.order == S.order == W.order or not f.field == S.field == W.field for f in fs):
        raise BackendMismatch("functional, operator and weight orders or fields differ")
    cols = [_wrap(S.field, *col) for col in _unweighted_columns(S, W)]
    return [Functional(f.field, _linear_combination(S.field, S.order, f.values, cols)) for f in fs]


def is_riordan_witness_reference(A, W):
    """Definitional membership test, checked at order N."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    return A.is_graded() and _riordan_witness(_iter_unweighted_columns(A, W), A.field.p) is None


def riordan_columns_witness_reference(A, W):
    """The columns of U when A is Riordan for W, else None."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if not A.is_graded():
        return None
    u = _unweighted_columns(A, W)
    return u if _riordan_witness(u, A.field.p) is None else None


def alpha_and_beta_reference(A, W):
    """_riordan_columns' (alpha, beta): u_0 and beta = u_1 / u_0 on the
    columns above."""
    u = riordan_columns_witness_reference(A, W)
    return None if u is None else (u[0], _beta_quotient(A, W, u))


def check_report_witness_reference(A, W, kind):
    """Classification verdict plus extracted parameters, JSON-ready."""
    if kind not in CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}")
    if kind == "appell":
        _check_frame(A, W)
    elif A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    u = _unweighted_columns(A, W) if kind == "appell" or A.is_graded() else None
    riordan = A.is_graded() and _riordan_witness(u, A.field.p) is None
    trivial = kind != "binomial" or _trivial_alpha(A)
    verdict = _is_toeplitz(iter(u)) if kind == "appell" else riordan and trivial
    alpha = Series(A.field, _wrap(A.field, *u[0])).to_json() if riordan else None
    beta = _beta_quotient(A, W, u).to_json() if riordan else None
    return {"kind": kind, "verdict": verdict, "alpha": alpha, "beta": beta}


def trimatrix_rows_reference(field, rows):
    """The rows TriMatrix(field, rows) holds, checked as its constructor did."""
    rows = tuple([tuple(r) for r in rows])
    check_order(len(rows))
    for n, row in enumerate(rows):
        if len(row) != n + 1:
            raise ValueError(f"row {n} must have {n + 1} entries, got {len(row)}")
        field.check(row, "entry")
    return rows


def lowering_witness_reference(A, W):
    """The diagonal loop of _lowering_witness, before its frame check; the
    rest of the test is the library's, whose own check then passes."""
    for i, row in enumerate(A.rows):
        if not row[i]:
            raise SingularDiagonal(f"diagonal entry ({i},{i}) vanishes")
    _check_frame(A, W)
    return _lowering_witness(A, W)


def binomial_associate_reference(A, W):
    """The binomial-type matrix with the same beta parameter as Sheffer A."""
    u = riordan_columns_witness_reference(A, W)
    if u is None:
        raise NotSheffer("matrix is not Sheffer for this weight")
    return binomial_candidate_reference(A, W, u)


# -- inputs -------------------------------------------------------------------


def outcome(f, *args):
    """The result of a call, or the type and message of the error it raised;
    a bare IndexError on either side shows as a mismatch."""
    try:
        return f(*args)
    except (MathDomainError, ValueError, IndexError) as e:
        return type(e), str(e)


def poly(field, degree, rng):
    """A polynomial of exactly this degree (-1: the zero polynomial), about
    a third of its lower coefficients zero."""
    coeffs = [value(field, rng) if rng.random() < 2 / 3 else field.zero() for _ in range(degree)]
    if degree >= 0:
        coeffs.append(value(field, rng, nonzero=True))
    return Polynomial(field, coeffs)


def vector(field, n, rng):
    """n values, about a third of them zero."""
    return [value(field, rng) if rng.random() < 2 / 3 else field.zero() for _ in range(n)]


def frame(case, wkind, akind, where):
    """(A, W) from the shared generators; W of another order or field on request."""
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if where == "other-field":
        W = drawn_weight(wkind, other(field), n, rng)
    elif where == "other-order":
        W = drawn_weight(wkind, field, n + 1, rng)
    return A, W


WHERE = st.sampled_from(["same", "same", "same", "other-order", "other-field"])


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(["zero", "low", "low", "top", "high", "foreign"]))
def test_apply_matrix_to_poly_matches_its_loop(case, wkind, akind, pkind):
    field, n, rng = case
    S = matrix(akind, drawn_weight(wkind, field, n, rng), rng)
    degree = {"zero": -1, "low": rng.randrange(n), "top": n - 1, "high": n + rng.randrange(3),
              "foreign": rng.randrange(n)}[pkind]
    p = poly(other(field) if pkind == "foreign" else field, degree, rng)
    assert outcome(apply_matrix_to_poly, S, p) == outcome(apply_matrix_to_poly_reference, S, p)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from(["plain", "plain", "p-high", "q-high", "foreign-p", "foreign-q",
                                 "foreign-all", "short"]))
def test_umbral_compose_matches_its_loop(case, kind):
    field, n, rng = case
    ps = [poly(field, rng.randint(-1, k), rng) for k in range(n)]
    qs = [poly(field, rng.randint(-1, n - 1), rng) for _ in range(n)]
    j = rng.randrange(n)
    if kind == "p-high":
        ps[j] = poly(field, j + 1 + rng.randrange(2), rng)
    elif kind == "q-high":
        qs[j] = poly(field, n + rng.randrange(2), rng)
    elif kind == "foreign-p":
        ps[j] = poly(other(field), rng.randint(-1, j), rng)
    elif kind == "foreign-q":
        qs[j] = poly(other(field), rng.randint(-1, n - 1), rng)
    elif kind == "foreign-all":  # every q and one p foreign: the sum meets the zero of ps[0]
        qs = [poly(other(field), rng.randint(0, n - 1), rng) for _ in range(n)]
        ps[j] = poly(other(field), j, rng)
    elif kind == "short":
        qs = qs[:-1]
    assert outcome(umbral_compose, ps, qs) == outcome(umbral_compose_reference, ps, qs)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(
    ["same", "same", "same", "zero", "other-order", "other-field", "foreign-phi"]))
def test_functional_after_operator_matches_its_loop(case, wkind, akind, where):
    field, n, rng = case
    A, W = frame(case, wkind, akind, where if where.startswith("other") else "same")
    if where == "foreign-phi":
        phi = Functional(other(field), vector(other(field), n, rng))
    else:
        phi = Functional(field, [field.zero()] * n if where == "zero" else vector(field, n, rng))
    got = outcome(functional_after_operator, phi, A, W)
    assert got == outcome(functional_after_operator_columns_reference, phi, A, W)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.integers(0, 4), st.sampled_from(
    ["same", "same", "same", "zero", "other-order", "other-field", "foreign-phi", "short-phi"]))
def test_after_operator_matches_its_loop(case, wkind, akind, count, where):
    # several functionals on one build of U, one of them off on request
    field, n, rng = case
    A, W = frame(case, wkind, akind, where if where.startswith("other") else "same")
    fs = [Functional(field, vector(field, n, rng)) for _ in range(count)]
    if where == "zero":
        fs.append(Functional(field, [field.zero()] * n))
    elif where == "foreign-phi":
        fs.insert(rng.randint(0, count), Functional(other(field), vector(other(field), n, rng)))
    elif where == "short-phi":
        if not 2 <= n - 1 <= 64:  # a functional holds 2..64 values, checked when built
            with pytest.raises(ValueError, match=f"^order must be in 2..64, got {n - 1}$"):
                Functional(field, vector(field, n - 1, rng))
            return
        fs.append(Functional(field, vector(field, n - 1, rng)))
    assert outcome(_after_operator, A, W, *fs) == outcome(after_operator_reference, A, W, *fs)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, WHERE)
def test_column_identity_walk_matches_its_copies(case, wkind, akind, where):
    A, W = frame(case, wkind, akind, where)
    assert outcome(is_riordan, A, W) == outcome(is_riordan_witness_reference, A, W)
    assert outcome(_riordan_columns, A, W) == outcome(alpha_and_beta_reference, A, W)
    for kind in CHECK_KINDS + ("unknown",):
        assert outcome(check_report, A, W, kind) == outcome(check_report_witness_reference, A, W, kind)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from([0, 1, 0, 1, 2, 3]), st.sampled_from([0, 1, 0, 1, 2]),
       st.sampled_from(["same", "same", "empty", "one", "long"]))
def test_triangle_shape_check_matches_its_copy(case, bad_lengths, foreign, size):
    # rows of wrong length and foreign entries anywhere: the first fault, row
    # by row, names the error
    field, n, rng = case
    n = {"same": n, "empty": 0, "one": 1, "long": 65}[size]
    rows = [vector(field, k + 1, rng) for k in range(n)]
    for _ in range(bad_lengths if n else 0):
        row = rows[rng.randrange(n)]
        if row and rng.random() < 0.5:
            row.pop()
        else:
            row.append(value(field, rng))
    for _ in range(foreign if n else 0):
        row = rows[rng.randrange(n)]
        if row:
            row[rng.randrange(len(row))] = value(other(field), rng)
    got = outcome(lambda: TriMatrix(field, rows).rows)
    assert got == outcome(trimatrix_rows_reference, field, rows)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, WHERE)
def test_diagonal_check_matches_its_copies(case, wkind, akind, where):
    A, W = frame(case, wkind, akind, where)
    assert outcome(A.inverse) == outcome(inverse_reference, A)
    assert outcome(_lowering_witness, A, W) == outcome(lowering_witness_reference, A, W)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, WHERE)
def test_sheffer_beta_matches_its_copy(case, wkind, akind, where):
    A, W = frame(case, wkind, akind, where)
    assert outcome(binomial_associate, A, W) == outcome(binomial_associate_reference, A, W)
