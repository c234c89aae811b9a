"""The weighted matrix routines on one conjugation by D = diag(w), against
the Scalar-level code they replace.

_unweighted_columns returns the raw columns of U = D^{-1} A D and
_weighted_matrix builds D R D^{-1} from the raw columns of an ordinary R;
change_weight, m_matrix, appell_from_alpha (and so translation_matrix),
is_appell, dual_basis, functional_after_operator, functional_of_operator and
eval_functional run on them.  The references (most in tests/references.py)
are the code the library used before, kept verbatim: one Scalar product
per weight factor of every entry, and is_appell's entrywise commutation
with M_W.  None of them calls either kernel.  Every result, and the type
and message of every raised error, must agree over QQ (signed, mixed
denominators), GF(2), GF(3) and GF(1000003) at N = 2..16, N > p included,
for weights of the matrix's order and field and of another order or field.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import TriMatrix
from riordanlab.errors import BackendMismatch, NotCommuting
from riordanlab.functionals import (
    Functional,
    dual_basis,
    eval_functional,
    functional_after_operator,
    functional_of_operator,
)
from riordanlab.operators import (
    appell_from_alpha,
    is_appell,
    m_matrix,
    q_operator_matrix,
    translation_matrix,
)
from riordanlab.riordan import (
    Weight,
    _unweighted_columns,
    _weighted_matrix,
    change_weight,
    pair_to_matrix,
)
from riordanlab.series import _wrap

from references import (
    appell_from_alpha_reference, change_weight_reference, dual_basis_scalar_reference,
    eval_functional_reference, translation_matrix_reference,
)
from support import (
    MATRICES, WEIGHTS, drawn_cases, drawn_weight, functional, matrix, other, outcome, pair,
    series, value, weight_for,
)

# -- the replaced code --------------------------------------------------------


def m_matrix_reference(W):
    """Matrix of the weighted derivative: x^n / w_n -> x^{n-1} / w_{n-1}."""
    zero = W.field.zero()

    def entry(n, k):
        return W.ratio(n) if k == n - 1 else zero

    return TriMatrix.from_entries(W.field, W.order, entry)


def is_appell_reference(A, W):
    """Appell = the lowering operator is M_W itself, i.e. A commutes with M_W."""
    if A.field != W.field or A.order != W.order:
        raise BackendMismatch("matrix orders or fields differ")
    p = A.field.p
    r = [None] + [W.ratio(n).val for n in range(1, W.order)]
    a = [[c.val for c in row] for row in A.rows]
    for n in range(1, A.order):
        for k in range(n):
            diff = a[n][k + 1] * r[k + 1] - r[n] * a[n - 1][k]
            if diff if p is None else diff % p:
                return False
    return True


def functional_after_operator_entries_reference(phi, S, W):
    """The functional phi o S: t_n = (1/w_n) sum_k S_{n,k} w_k t_k."""
    if not phi.order == S.order == W.order or not phi.field == S.field == W.field:
        raise BackendMismatch("functional, operator and weight orders or fields differ")
    vals = []
    for n in range(S.order):
        acc = phi.field.zero()
        for k in range(n + 1):
            acc = acc + S.rows[n][k] * W.w[k] * phi.values[k]
        vals.append(acc * W.recip[n])
    return Functional(phi.field, vals)


def functional_of_operator_scalar_reference(S, W):
    """The unique psi with phi o S = phi * psi for all phi."""
    if not is_appell_reference(S, W):
        raise NotCommuting("operator does not commute with the weighted derivative")
    return Functional(S.field, [S.entry(n, 0) * W.recip[n] for n in range(S.order)])


# -- inputs -------------------------------------------------------------------

WHERE = st.sampled_from(["same", "same", "other-order", "other-field"])


def operator(kind, W, rng):
    """support.matrix's kinds, plus Appell matrices and lowering
    operators, which commute with M_W whenever A is Riordan."""
    if kind == "appell":
        return appell_from_alpha_reference(series(W.field, W.order, rng, 0), W)
    if kind == "lowering":
        return q_operator_matrix(pair_to_matrix(pair(W.field, W.order, rng), W), W)
    return matrix(kind, W, rng)


OPERATORS = st.sampled_from(["riordan", "perturbed", "bumped", "graded", "not-graded",
                             "appell", "appell", "lowering"])


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES)
def test_kernels_are_the_conjugation_by_diag_w(case, wkind, akind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    cols = _unweighted_columns(A, W)
    want = [[A.entry(i, k) * W.w[k] * W.recip[i] for i in range(n)] for k in range(n)]
    assert [_wrap(field, *col) for col in cols] == want
    assert _weighted_matrix(W, cols) == A


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, WEIGHTS, MATRICES,
       st.sampled_from(["same", "same", "other-order", "other-field", "w2-order", "w2-field"]))
def test_change_weight_matches_scalar_products(case, wkind, w2kind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    W2 = drawn_weight(w2kind, field, n, rng)
    if where in ("other-order", "other-field"):
        W = weight_for(wkind, field, n, rng, where)
        W2 = drawn_weight(w2kind, W.field, W.order, rng)
    elif where == "w2-order":
        W2 = drawn_weight(w2kind, field, n + 1, rng)
    elif where == "w2-field":
        W2 = drawn_weight(w2kind, other(field), n, rng)
    assert outcome(change_weight, A, W, W2) == outcome(change_weight_reference, A, W, W2)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, st.sampled_from([0, 0, 1, "short", "long", "foreign"]), WHERE)
def test_appell_matrices_match_scalar_products(case, wkind, alpha_kind, where):
    field, n, rng = case
    W = weight_for(wkind, field, n, rng, where)
    assert m_matrix(W) == m_matrix_reference(W)
    if alpha_kind == "foreign":
        alpha = series(other(field), n, rng, 0)
    elif alpha_kind in ("short", "long"):
        alpha = series(field, n - 1 if alpha_kind == "short" and n > 2 else n + 1, rng, 0)
    else:
        alpha = series(field, n, rng, alpha_kind)  # valuation 1 fails
    got = outcome(appell_from_alpha, alpha, W)
    assert got == outcome(appell_from_alpha_reference, alpha, W)
    h = value(W.field, rng)
    assert translation_matrix(W, h) == translation_matrix_reference(W, h)
    assert eval_functional(h, W) == eval_functional_reference(h, W)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, OPERATORS, WHERE)
def test_is_appell_matches_entrywise_commutation(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = operator(akind, W, rng)
    W = weight_for(wkind, field, n, rng, where) if where != "same" else W
    assert outcome(is_appell, A, W) == outcome(is_appell_reference, A, W)
    got = outcome(functional_of_operator, A, W)
    assert got == outcome(functional_of_operator_scalar_reference, A, W)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, OPERATORS, WHERE)
def test_dual_basis_and_functionals_match_scalar_products(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = operator(akind, W, rng)
    phi = functional(field, n, rng)
    W = weight_for(wkind, field, n, rng, where) if where != "same" else W
    assert outcome(dual_basis, A, W) == outcome(dual_basis_scalar_reference, A, W)
    got = outcome(functional_after_operator, phi, A, W)
    assert got == outcome(functional_after_operator_entries_reference, phi, A, W)


def test_appell_verdicts_are_reached(QQ):
    # the hypothesis draws above hit both verdicts; pin one of each here
    rng = random.Random(10)
    W = Weight.q_factorial(QQ, 8, -1, 2)
    appell = appell_from_alpha_reference(series(QQ, 8, rng, 0), W)
    riordan = pair_to_matrix(pair(QQ, 8, rng), W)
    assert is_appell(appell, W) and is_appell_reference(appell, W)
    assert not is_appell(riordan, W) and not is_appell_reference(riordan, W)
    assert is_appell(q_operator_matrix(riordan, W), W)
