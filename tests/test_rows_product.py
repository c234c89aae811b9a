"""solve_conjugator and product_rule_check on the shared rows product,
against the code they replace.

solve_conjugator takes the columns of A as the Krylov vectors M^k e_0, one
series._apply_rows each on the rows of M over one denominator.
product_rule_check reads psi o d, d the binomial candidate of A, as the
coefficients of psi(beta(y)) (Series.compose, one _apply_power_table), and
builds no matrix.  The references below are the replaced code, kept
verbatim: the triple Scalar loop, and the product rule through the
weighted matrix d and its unweighting (binomial_candidate_reference stands
for the library's old _binomial_candidate, which it copies).  Every
result, and the type and message of every raised error, must agree over
QQ, GF(2), GF(7) and GF(1000003) at N = 2..16, and once per field at
N = 64.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, TriMatrix
from riordanlab.errors import NotDegreeDecreasing
from riordanlab.functionals import (
    Functional,
    _after_operator,
    functional_after_operator,
    functional_mul,
    product_rule_check,
)
from riordanlab.operators import (
    finite_difference_matrix,
    is_degree_decreasing,
    m_matrix,
    solve_conjugator,
)
from riordanlab.riordan import Weight, pair_to_matrix
from riordanlab.sampling import degree_decreasing_matrix, graded_matrix

from references import binomial_candidate_reference
from support import MATRICES, WEIGHTS, drawn_weight, gf7_cases, matrix, outcome, pair, series, value

# -- the replaced code --------------------------------------------------------


def solve_conjugator_triple_loop_reference(M):
    """The unique graded A with first column (1, 0, ...) conjugating the
    plain shift (the derivative of the all-ones weight) onto M.

    Columns are determined inductively: a_{n,k+1} is the (n,k) entry of
    A S with S the shift, and of M A, so
    a_{n,k+1} = sum_{l=k}^{n-1} m_{n,l} a_{l,k}.
    """
    if not is_degree_decreasing(M):
        raise NotDegreeDecreasing("need a strictly lower matrix with nonzero subdiagonal")
    n_ord = M.order
    zero, one = M.field.zero(), M.field.one()
    a = [[zero] * (i + 1) for i in range(n_ord)]
    a[0][0] = one
    for k in range(n_ord - 1):
        for n in range(k + 1, n_ord):
            acc = zero
            for l in range(k, n):
                acc = acc + M.entry(n, l) * a[l][k]
            a[n][k + 1] = acc
    return TriMatrix(M.field, a)


def product_rule_check_reference(A, W, phi, psi):
    """Test (phi*psi)(p_n/w_n) = sum_k phi(p_k/w_k) psi(d_{n-k}/w_{n-k})
    for every n, with d the binomial candidate sharing A's beta quotient;
    the right side is the weighted product of phi o A and psi o d.

    Holds for all phi, psi exactly when A is Sheffer.  U of A is built once
    for both phi*psi and phi.
    """
    d = binomial_candidate_reference(A, W)
    lhs, phi_a = _after_operator(A, W, functional_mul(phi, psi), phi)
    return lhs == functional_mul(phi_a, functional_after_operator(psi, d, W))


# -- inputs -------------------------------------------------------------------


def operator(kind, field, n, rng):
    """A degree-decreasing operator of this kind, or (the last four kinds)
    a matrix that is not one."""
    if kind == "shift":
        return m_matrix(Weight.geometric(field, n, value(field, rng, nonzero=True)))
    if kind in ("derivative", "q-derivative", "weighted"):
        wkind = {"derivative": "exponential", "q-derivative": "q-factorial"}.get(kind, "random")
        return m_matrix(drawn_weight(wkind, field, n, rng))
    if kind == "difference":
        W = drawn_weight(rng.choice(["exponential", "geometric", "q-factorial"]), field, n, rng)
        return finite_difference_matrix(W, value(field, rng, nonzero=True))
    M = degree_decreasing_matrix(field, n, rng)
    rows = [list(r) for r in M.rows]
    if kind == "graded":
        return graded_matrix(field, n, rng)
    if kind == "zero":
        return TriMatrix.zero(field, n)
    if kind == "subdiagonal-zero":
        i = rng.randrange(1, n)
        rows[i][i - 1] = field.zero()
    elif kind == "diagonal-nonzero":
        i = rng.randrange(n)
        rows[i][i] = value(field, rng, nonzero=True)
    return TriMatrix(field, rows)


OPERATORS = st.sampled_from(["shift", "derivative", "q-derivative", "weighted", "difference",
                             "random", "random", "graded", "zero", "subdiagonal-zero",
                             "diagonal-nonzero"])


def candidate(kind, W, rng):
    """A matrix for the product rule: those of support.matrix, or a
    graded-looking one with u_0 vanishing (a_{0,0} = 0) or with beta of
    valuation >= 2 (a_{1,1} = 0)."""
    if kind not in ("u0-vanishes", "beta-valuation-2"):
        return matrix(kind, W, rng)
    rows = [list(r) for r in pair_to_matrix(pair(W.field, W.order, rng), W).rows]
    i = 0 if kind == "u0-vanishes" else 1
    rows[i][i] = W.field.zero()
    return TriMatrix(W.field, rows)


CANDIDATES = st.one_of(MATRICES, st.sampled_from(["u0-vanishes", "beta-valuation-2"]))


def functional(field, n, rng):
    return Functional.from_series(series(field, n, rng))


def other_field(field):
    return Field(5 if field.p == 7 else 7)


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(gf7_cases(), OPERATORS)
def test_solve_conjugator_matches_the_triple_loop(case, kind):
    M = operator(kind, *case)
    assert outcome(solve_conjugator, M) == outcome(solve_conjugator_triple_loop_reference, M)


@settings(max_examples=300, deadline=None)
@given(gf7_cases(), WEIGHTS, CANDIDATES,
       st.sampled_from(["same", "same", "same", "weight-order", "weight-field",
                        "phi-field", "psi-order", "both-order"]))
def test_product_rule_check_matches_the_matrix_d(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = candidate(akind, W, rng)
    if where == "weight-order":
        W = drawn_weight(wkind, field, n + 1, rng)
    elif where == "weight-field":
        W = drawn_weight(wkind, other_field(field), n, rng)
    phi_field = other_field(field) if where == "phi-field" else field
    phi = functional(phi_field, n + (where == "both-order"), rng)
    psi = functional(field, n + (where in ("psi-order", "both-order")), rng)
    got = outcome(product_rule_check, A, W, phi, psi)
    assert got == outcome(product_rule_check_reference, A, W, phi, psi)


def test_both_match_at_the_largest_order():
    rng = random.Random(64)
    for field in (Field(), Field(2), Field(7), Field(1000003)):
        M = degree_decreasing_matrix(field, 64, rng)
        assert solve_conjugator(M) == solve_conjugator_triple_loop_reference(M)
        W = drawn_weight("random", field, 64, rng)
        for A in (pair_to_matrix(pair(field, 64, rng), W), graded_matrix(field, 64, rng)):
            phi, psi = functional(field, 64, rng), functional(field, 64, rng)
            assert product_rule_check(A, W, phi, psi) == product_rule_check_reference(A, W, phi, psi)
