"""The GF(p) inverse and lowering witness on packed rows, against dot products.

When N (p - 1)^2 < 2^64 (series._packs), series._inverse_columns
solves V = L^{-1} row by row, each earlier row of V kept packed
(series._packed_inverse), and operators._lowering_witness checks every
column k >= 2 of S U = U T(t) with one packed product per row of U; column
k = 1 stays on dot products.  series._rows_over_lcm transposes a matrix
over one denominator 1 with zip.  The references in tests/references.py
are the code these replace, kept verbatim: one dot product per entry.
Raw columns, witnesses and the type and message of every raised error
must agree over GF(2), GF(3), GF(7), GF(1000003) and GF(4294967311),
which never packs, at N = 2..20 and at N = 64.  The matrices are Riordan,
perturbed, graded and non-graded, and matrices built to fail only in
columns k >= 2, in rows and columns drawn at random, so that column 1
holds and the packed part alone finds the witness.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, TriMatrix
from riordanlab.operators import _inverse_frame, _lowering_witness
from riordanlab.riordan import Weight, _unweighted_columns
from riordanlab.sampling import graded_matrix, perturbed_non_riordan, riordan_matrix
from riordanlab.series import _inverse_columns, _rows_over_lcm

from references import (
    inverse_columns_dots_reference,
    lowering_witness_dots_reference,
    rows_over_lcm_reference,
)
from support import outcome

PRIMES = [2, 3, 7, 1000003, 4294967311]  # the last never packs
KINDS = ["riordan", "perturbed", "graded", "singular", "late"]


def weight(field, n, rng):
    """w_0 = 1 and random nonzero residues."""
    return Weight(field, [1] + [rng.randrange(1, field.p) for _ in range(n - 1)])


def late_failure(W, rng, rate=0.1):
    """A graded A whose U = D^{-1} A D fails S U = U T(t) only in columns
    k >= 2, and the least failing (k, n).

    t_1..t_{N-1} is drawn first, t_1 nonzero.  Entry (k, m) of the identity,
    U[m-1][k] = sum_{j=1}^{m-k} t_j U[m][k+j], fixes U[m][k+1] from the
    entries right of it, so row m is built from its diagonal leftwards.
    Each entry with k >= 2 misses its value by a nonzero amount at the
    given rate (the diagonal only where it stays nonzero); columns 0 and 1
    always hold, so t is the solution of U t = S u_0."""
    p, n = W.field.p, W.order
    t = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)]
    t1 = pow(t[0], -1, p)
    u, missed = [[rng.randrange(1, p)]], []
    for m in range(1, n):
        row = [rng.randrange(p)] + [0] * m
        for k in range(m - 1, -1, -1):
            x = (u[m - 1][k] - sum(t[j - 1] * row[k + j] for j in range(2, m - k + 1))) * t1 % p
            bump = rng.randrange(1, p)
            if k >= 2 and rng.random() < rate and (k < m - 1 or (x + bump) % p):
                x = (x + bump) % p
                missed.append((k, m))
            row[k + 1] = x
        u.append(row)
    w, r = [x.val for x in W.w], [x.val for x in W.recip]
    rows = [[W.field.scalar(v * w[i] * r[k]) for k, v in enumerate(row)] for i, row in enumerate(u)]
    return TriMatrix(W.field, rows), min(missed, default=None)


def build(kind, W, rng):
    field, n = W.field, W.order
    if kind == "perturbed" and n >= 4:
        return perturbed_non_riordan(W, rng)
    if kind == "late":
        return late_failure(W, rng, rng.choice([0.02, 0.1, 0.3]))[0]
    if kind == "graded":
        return graded_matrix(field, n, rng)
    if kind == "singular":
        rows = [list(r) for r in graded_matrix(field, n, rng).rows]
        i = rng.randrange(n)
        rows[i][i] = field.zero()
        return TriMatrix(field, rows)
    return riordan_matrix(W, rng)


@st.composite
def cases(draw):
    field = Field(draw(st.sampled_from(PRIMES)))
    n = draw(st.integers(2, 20))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    W = weight(field, n, rng)
    return W, build(draw(st.sampled_from(KINDS)), W, rng)


def frame_reference(A, W):
    A._check_diagonal()
    return inverse_columns_dots_reference(A.field, _unweighted_columns(A, W))


def check(W, A):
    assert outcome(_inverse_frame, A, W) == outcome(frame_reference, A, W)
    assert outcome(_lowering_witness, A, W) == outcome(lowering_witness_dots_reference, A, W)
    cols = A._columns()
    assert _rows_over_lcm(cols) == rows_over_lcm_reference(cols)
    if A.is_graded():
        assert _inverse_columns(A.field, cols) == inverse_columns_dots_reference(A.field, cols)


@settings(max_examples=400, deadline=None)
@given(cases())
def test_packed_frame_matches_dot_products(case):
    check(*case)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("kind", KINDS)
def test_packed_frame_at_the_largest_order(p, kind):
    rng = random.Random(p)
    W = weight(Field(p), 64, rng)
    check(W, build(kind, W, rng))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [2, 3, 4, 12, 20, 64])
def test_packed_part_alone_finds_a_late_witness(p, n):
    rng = random.Random(n)
    W = weight(Field(p), n, rng)
    for rate in (0, 0.02, 0.1, 0.3):
        A, missed = late_failure(W, rng, rate)
        witness = _lowering_witness(A, W)
        assert witness == missed == lowering_witness_dots_reference(A, W)
        assert witness is None or witness[0] >= 2
