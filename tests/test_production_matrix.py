"""A third membership test: the production matrix and its A-sequence.

For a graded A, let R = change_weight(A, W, Weight.geometric(F, N, 1)), the
plain matrix of the same pair, R' its leading (N-1)x(N-1) block and R-bar
R without its first row.  The production matrix P = R'^{-1} R-bar is lower
Hessenberg, and A has an A-sequence when every column k >= 1 of P is the
column 1 shifted down by k - 1: P[j][k] == P[j-k+1][1] for 1 <= k <= j+1
(Deutsch, Ferrari & Rinaldi, "Production matrices", Adv. Appl. Math. 2005;
Merlini, Rogers, Sprugnoli & Verri, Canad. J. Math. 1997).

At order N this holds exactly when the scaled columns of A are exactly
geometric, that is product_rule_spanning_witness(A, W) is None, which is
the verdict of is_riordan.  The column identity u_k^2 = u_{k-1} u_{k+1}
that is_riordan once tested is weaker: a change that none of its
coefficients sees (a_{N-1,N-1}, say) fails this test and is_riordan alike.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Series, TriMatrix
from riordanlab.functionals import product_rule_spanning_witness
from riordanlab.operators import sheffer_by_commutation
from riordanlab.riordan import (
    Weight, _geometric_walk, is_riordan, pair_to_matrix,
)

from references import (
    change_weight_reference as change_weight, compose_reference, is_riordan_reference,
)
from support import WEIGHTS, drawn_cases, drawn_weight, matrix, pair


def production_matrix(A, W):
    """Rows 0..N-2 of P, N entries each, solving R' P = R-bar row by row."""
    field, n = A.field, A.order
    R = change_weight(A, W, Weight.geometric(field, n, 1)).rows
    zero = field.zero()
    P = []
    for j in range(n - 1):
        row = []
        for k in range(n):
            acc = R[j + 1][k] if k <= j + 1 else zero
            for i in range(j):
                acc = acc - R[j][i] * P[i][k]
            row.append(acc / R[j][j])
        P.append(row)
    return P


def has_a_sequence(A, W):
    P = production_matrix(A, W)
    return all(P[j][k] == P[j - k + 1][1] for j in range(len(P)) for k in range(1, j + 2))


@settings(max_examples=200, deadline=None)
@given(drawn_cases(), WEIGHTS, st.sampled_from(["riordan", "perturbed", "bumped", "graded"]))
def test_a_sequence_iff_exactly_geometric(case, wkind, akind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    oracle = has_a_sequence(A, W)
    assert oracle == (product_rule_spanning_witness(A, W) is None)
    assert is_riordan(A, W) or not oracle


@settings(max_examples=200, deadline=None)
@given(drawn_cases(), WEIGHTS)
def test_z_sequence_closed_form(case, wkind):
    # Column 0 of P is the Z-sequence z_j = P[j][0] of the plain pair (alpha,
    # beta): alpha = alpha_0 / (1 - y Z(beta)) (Merlini, Rogers, Sprugnoli &
    # Verri 1997, d(t) = d_0 / (1 - t Z(t h(t)))).  Coefficient m reads only
    # z_0..z_{m-1}, so z_{N-1}, beyond P, is not needed.
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    a = pair(field, n, rng)
    z = Series(field, [row[0] for row in production_matrix(pair_to_matrix(a, W), W)] + [field.zero()])
    y_z_beta = Series.identity(field, n) * compose_reference(z, a.beta)
    assert a.alpha * (Series.one(field, n) - y_z_beta) == Series.constant(field, n, a.alpha.coeffs[0])


def test_corner_change_fails_is_riordan_too(QQ, rng):
    W = Weight.q_factorial(QQ, 6, -1, 2)
    A = pair_to_matrix(pair(QQ, 6, rng), W)
    assert has_a_sequence(A, W)
    rows = [list(r) for r in A.rows]
    rows[5][5] = rows[5][5] * QQ.scalar(3)
    B = TriMatrix(QQ, rows)
    assert is_riordan_reference(B, W)  # the column identity cannot see a_{5,5}
    assert not is_riordan(B, W) and not has_a_sequence(B, W)
    assert product_rule_spanning_witness(B, W) == (0, 5, 5)
    assert _geometric_walk(B, W)[2] == (5, 5)


@settings(max_examples=200, deadline=None)
@given(drawn_cases(), WEIGHTS, st.sampled_from(["riordan", "perturbed", "bumped", "graded"]))
def test_a_sequence_iff_sheffer_by_commutation(case, wkind, akind):
    # the operator-level test needs N distinct sample points in the field
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if field.p is None or field.p >= n:
        assert sheffer_by_commutation(A, W) == has_a_sequence(A, W)
