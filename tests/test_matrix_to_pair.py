"""matrix_to_pair on one exactly-geometric test, against a Scalar-level rebuild.

matrix_to_pair extracts (C_0, w_1 C_1 / C_0) and accepts A when its scaled
columns u_k = w_k C_k are exactly u_0 beta^k, the raw-value test that
product_rule_spanning_witness also runs, and raises one NotRiordan
otherwise.  The reference below is independent of the raw-value kernels:
the pair is extracted from Scalar column series, the beta quotient is a
Series product with an inverse, and the pair is rebuilt through the
Scalar-level pair_to_matrix and compared entry by entry.  Every result,
and the type and message of every raised error, must agree over QQ
(signed, mixed denominators), GF(2), GF(3) and GF(1000003) at N = 2..16,
N > p included, for weights of the matrix's order and field and of
another order or field.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import riordanlab.riordan as riordan
from riordanlab import Field, TriMatrix
from riordanlab.errors import BackendMismatch, NotRiordan
from riordanlab.riordan import (
    RiordanPair,
    Weight,
    column_series,
    is_riordan,
    matrix_to_pair,
    pair_to_matrix,
)

from references import beta_quotient_reference, is_riordan_reference, pair_to_matrix_reference
from support import (
    MATRICES, WEIGHTS, bumped, drawn_cases, drawn_weight, matrix, other, outcome, pair,
)

# -- the reference ------------------------------------------------------------


def matrix_to_pair_reference(A, W):
    """(C_0, w_1 C_1 / C_0) on Scalar series when it rebuilds A, else NotRiordan."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if A.is_graded():
        pair = RiordanPair(column_series(A, W, 0), beta_quotient_reference(A, W))
        if pair_to_matrix_reference(pair, W) == A:
            return pair
    raise NotRiordan("matrix is not Riordan for this weight")


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_matrix_to_pair_matches_rebuild(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if where == "other-field":
        W = drawn_weight(wkind, other(field), n, rng)
    elif where == "other-order":
        W = drawn_weight(wkind, field, n + 1, rng)
    assert outcome(matrix_to_pair, A, W) == outcome(matrix_to_pair_reference, A, W)


def test_corner_bump_is_rejected_as_not_geometric(QQ):
    # a_{N-1,N-1} enters no coefficient the column identity u_k^2 =
    # u_{k-1} u_{k+1} sees, but u_{N-1} is no longer u_0 beta^{N-1}
    rng = random.Random(5)
    W = Weight.exponential(QQ, 6, 1)
    A = pair_to_matrix(pair(QQ, 6, rng), W)
    rows = [list(r) for r in A.rows]
    rows[5][5] = rows[5][5] * QQ.scalar(2)
    B = TriMatrix(QQ, rows)
    assert is_riordan_reference(B, W) and not is_riordan(B, W)
    assert outcome(matrix_to_pair, B, W) == outcome(matrix_to_pair_reference, B, W) == (
        NotRiordan, "matrix is not Riordan for this weight")


def test_riordan_input_needs_no_rebuild_and_no_column_identity(monkeypatch):
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    rng = random.Random(16)
    for field in (Field(), Field(1000003)):
        W = Weight.q_factorial(field, 16, -1, 2)
        a = pair(field, 16, rng)
        A = pair_to_matrix(a, W)
        monkeypatch.setattr(riordan, "pair_to_matrix", counting("pair_to_matrix", pair_to_matrix))
        monkeypatch.setattr(riordan, "is_riordan", counting("is_riordan", is_riordan))
        assert matrix_to_pair(A, W) == a
        monkeypatch.undo()
        assert calls == []


def test_largest_order():
    rng = random.Random(64)
    for field in (Field(), Field(1000003)):
        W = Weight.exponential(field, 64, 1)
        a = pair(field, 64, rng)
        A = pair_to_matrix(a, W)
        assert matrix_to_pair(A, W) == a == matrix_to_pair_reference(A, W)
        B = bumped(A, rng)
        assert outcome(matrix_to_pair, B, W) == outcome(matrix_to_pair_reference, B, W)
