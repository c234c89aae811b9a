"""matrix_to_pair on one exactly-geometric test, against the code it replaces.

matrix_to_pair extracts (C_0, w_1 C_1 / C_0) and accepts A when its scaled
columns u_k = w_k C_k are exactly u_0 beta^k, the raw-value test that
product_rule_spanning_witness also runs; is_riordan is consulted only to
word the rejection.  The reference below is the code the library used
before, kept verbatim: the column identity first, then the pair rebuilt
through pair_to_matrix and compared entry by entry.  Every result, and the
type and message of every raised error, must agree over QQ (signed, mixed
denominators), GF(2), GF(3) and GF(1000003) at N = 2..16, N > p included,
for weights of the matrix's order and field and of another order or field.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import riordanlab.riordan as riordan
from riordanlab import Field, TriMatrix
from riordanlab.errors import NotRiordan
from riordanlab.riordan import (
    RiordanPair,
    Weight,
    _beta_quotient,
    column_series,
    is_riordan,
    matrix_to_pair,
    pair_to_matrix,
)

from test_group_kernel import (
    MATRICES,
    WEIGHTS,
    build_weight,
    bumped,
    cases,
    matrix,
    other,
    outcome,
    pair,
)

# -- the replaced code --------------------------------------------------------


def matrix_to_pair_reference(A, W):
    """Extract (alpha, beta) = (C_0, w_1 C_1 / C_0) and verify it rebuilds A.

    Raises NotRiordan when the definitional identity fails, or when the
    columns are not exactly geometric at this order (possible for matrices
    whose deviation hides beyond the truncation).
    """
    if not is_riordan(A, W):
        raise NotRiordan("matrix fails the weighted column identity")
    pair = RiordanPair(column_series(A, W, 0), _beta_quotient(A, W))
    if pair_to_matrix(pair, W) != A:
        raise NotRiordan("columns are not exactly geometric at this order")
    return pair


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(cases(), WEIGHTS, MATRICES, st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_matrix_to_pair_matches_rebuild(case, wkind, akind, where):
    field, n, rng = case
    W = build_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if where == "other-field":
        W = build_weight(wkind, other(field), n, rng)
    elif where == "other-order":
        W = build_weight(wkind, field, n + 1, rng)
    assert outcome(matrix_to_pair, A, W) == outcome(matrix_to_pair_reference, A, W)


def test_corner_bump_is_rejected_as_not_geometric(QQ):
    # a_{N-1,N-1} enters no coefficient the column identity sees
    rng = random.Random(5)
    W = Weight.exponential(QQ, 6, 1)
    A = pair_to_matrix(pair(QQ, 6, rng), W)
    rows = [list(r) for r in A.rows]
    rows[5][5] = rows[5][5] * QQ.scalar(2)
    B = TriMatrix(QQ, rows)
    assert is_riordan(B, W)
    assert outcome(matrix_to_pair, B, W) == outcome(matrix_to_pair_reference, B, W) == (
        NotRiordan, "columns are not exactly geometric at this order")


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
