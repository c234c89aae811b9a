"""d_polynomials as one banded pass, against the chain of powers it replaces.

d_polynomials reads the coefficient of h^l in d_{n,k} as a shifted dot
product of row n of U = D^{-1} A D (D = diag(w)) with column k of
V = U^{-1}, which one forward substitution on the rows of U solves.  The reference below is the code the library used before,
kept verbatim: the N-1 powers of A M_W A^{-1} as full TriMatrix products.
The second, d_polynomials_fraction_reference (tests/references.py), is the
banded pass as it scaled every coefficient into a rational of its own; the
drawn cases at N = 2..16 are compared with both.
Every result, and the type and message of every raised error, must agree
over QQ (signed, mixed denominators), GF(2), GF(3) and GF(1000003) at
N = 2..16, N > p included, and at N = 64; there also over GF(536870909),
where the sums are packed into 64-bit slots, and over GF(536870923) and
GF(2^61 - 1), where they are dot products.

A kernel-built HPolyMatrix holds each slot in reduced raw form (ints, den)
and builds its Scalar entries on their first read; every reading of it,
hash included, must agree with that of the same entries given to the
constructor.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riordanlab.series
from riordanlab import Field, Series, TriMatrix
from riordanlab.operators import HPolyMatrix, d_polynomials, m_matrix
from riordanlab.riordan import RiordanPair, Weight, pair_to_matrix
from riordanlab.scalars import Scalar

from references import d_polynomials_fraction_reference, pair_to_matrix_reference
from support import (
    MATRICES, WEIGHTS, bumped, drawn_cases, drawn_weight, matrix, other, outcome, pair, value,
)

# -- the replaced code --------------------------------------------------------


def d_polynomials_reference(A, W):
    """Expansion coefficients of translations in the basis of the sequence.

    Writing T_h(p_n / w_n) = sum_k d_{n,k}(h) / w_{n-k} * p_k / w_k, the
    entry (n, k) is the polynomial d_{n,k}.  Coefficient of h^l comes from
    (A M_W A^{-1})^l scaled by w_{n-k} w_k / (w_l w_n); the h-degree of
    entry (n, k) is at most n - k because the l-th power is supported on
    diagonals <= -l.
    """
    n_ord = A.order
    r = A @ m_matrix(W) @ A.inverse()
    powers = [TriMatrix.identity(A.field, n_ord)]
    for _ in range(n_ord - 1):
        powers.append(powers[-1] @ r)
    entries = []
    for n in range(n_ord):
        row = []
        for k in range(n + 1):
            norm = W.w[n - k] * W.w[k] * W.recip[n]
            coeffs = [
                powers[l].entry(n, k) * W.recip[l] * norm for l in range(n - k + 1)
            ]
            row.append(coeffs)
        entries.append(row)
    return HPolyMatrix(A.field, entries)


# -- tests --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_d_polynomials_matches_chain_of_powers(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if where == "other-field":
        W = drawn_weight(wkind, other(field), n, rng)
    elif where == "other-order":
        W = drawn_weight(wkind, field, n + 1, rng)
    got = outcome(d_polynomials, A, W)
    assert got == outcome(d_polynomials_reference, A, W)
    assert got == outcome(d_polynomials_fraction_reference, A, W)


def test_d_polynomials_at_the_largest_order():
    # an integer pair keeps the reference's 65 products over QQ affordable;
    # D^{-1} A D and the bumped entry still carry mixed denominators
    rng = random.Random(64)
    for field in (Field(), Field(1000003)):
        W = Weight.exponential(field, 64, 1)
        ab = RiordanPair(Series.from_values(field, 64, [1, -1, 2]),
                         Series.from_values(field, 64, [0, 1, 1]))
        A = bumped(pair_to_matrix(ab, W), rng)
        assert d_polynomials(A, W) == d_polynomials_reference(A, W)


@pytest.mark.parametrize("p", [536870909, 536870923, 2**61 - 1])
def test_d_polynomials_at_the_largest_order_over_large_primes(p):
    # 64 (p - 1)^2 < 2^64 holds for the first prime alone, so only it packs
    field, rng = Field(p), random.Random(p)
    W = Weight.exponential(field, 64, value(field, rng, nonzero=True))
    for A, W in [(matrix("riordan", W, rng), W), (matrix("graded", W, rng), W),
                 (matrix("not-graded", W, rng), W),
                 (matrix("riordan", W, rng), Weight.geometric(other(field), 64, 2)),
                 (matrix("riordan", W, rng), Weight.geometric(field, 63, 2))]:
        assert outcome(d_polynomials, A, W) == outcome(d_polynomials_reference, A, W)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([None, 2, 3, 1000003, 2**61 - 1]), st.integers(2, 12),
       WEIGHTS, st.sampled_from(["riordan", "bumped", "graded"]), st.integers(0, 2**32 - 1))
def test_kernel_built_hpoly_reads_as_constructed(p, n, wkind, akind, seed):
    field, rng = Field(p), random.Random(seed)
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)

    def kernel():  # a fresh kernel-built matrix for each reading
        return d_polynomials(A, W)

    built = HPolyMatrix(field, kernel().entries)
    i, k, h = rng.randrange(n), rng.randrange(n), value(field, rng)
    k = min(i, k)
    assert kernel().entries == built.entries
    assert kernel().entry(i, k) == built.entry(i, k)
    assert kernel().diagonal(i) == built.diagonal(i)
    assert kernel().evaluate(h) == built.evaluate(h)
    assert kernel().to_json() == built.to_json()
    assert kernel().constant_on_diagonals() == built.constant_on_diagonals()
    assert kernel() == built and built == kernel() and kernel() == kernel()
    assert hash(kernel()) == hash(built)
    changed = [list(row) for row in built.entries]
    changed[i][k] = (changed[i][k][0] + field.one(),) + changed[i][k][1:]
    changed = HPolyMatrix(field, changed)
    assert kernel() != changed and changed != kernel()


def test_constant_on_diagonals_builds_no_scalar(monkeypatch):
    built = []

    def counting(*args):
        built.append(1)
        return Scalar(*args)

    monkeypatch.setattr(riordanlab.series, "Scalar", counting)  # series._wrap builds them
    rng = random.Random(5)
    for field in (Field(), Field(1000003), Field(2**61 - 1)):
        W = Weight.exponential(field, 12, 1)
        A = pair_to_matrix(pair(field, 12, rng), W)
        d = d_polynomials(A, W)
        assert d.constant_on_diagonals() and d == d_polynomials(A, W)
        assert not built
        assert d.entries is d.entries
        assert len(built) == 12 * 13 * 14 // 6  # one per coefficient, once
        built.clear()


def test_d_polynomials_builds_no_matrix_product(monkeypatch):
    calls = []
    matmul = TriMatrix.__matmul__

    def counting(self, rhs):
        calls.append(1)
        return matmul(self, rhs)

    monkeypatch.setattr(TriMatrix, "__matmul__", counting)
    rng = random.Random(7)
    for field in (Field(), Field(1000003)):
        W = Weight.exponential(field, 12, 1)
        A = pair_to_matrix_reference(pair(field, 12, rng), W)
        calls.clear()
        assert d_polynomials(A, W).constant_on_diagonals()
        assert len(calls) == 0
        d_polynomials_reference(A, W)
        assert len(calls) == 13  # the chain it replaces: 2 + (N - 1) products
