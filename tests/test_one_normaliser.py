"""The one normaliser of kernel output and the one rows product, against
the code they replace.

series._reduce puts kernel integers into the reduced raw form over both
fields: over QQ it divides by the gcd of all of them taken with the sign
of den, so den > 0, and over GF(p) it lists the residues over 1.
series._apply_rows reads a vector of length N - k as its entries k..N-1,
the rows before k being zero; TriMatrix.__matmul__ passes it each column
of the right factor cut at its diagonal.  twoweight.gamma_sequence is one
product of the raw forms of both weights per entry, and classify_gamma
reads the linear case off vanishing second differences.  The references
are the replaced code, kept verbatim in references.py: the loop of @, the
Scalar loop of gamma_sequence and the linear fit of classify_gamma.  The
error paths that name the backends of a mismatched field build no Scalar
view of a matrix, a series or a weight, and keep their messages.
"""

import itertools
import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import BackendMismatch
from riordanlab.operators import appell_from_alpha
from riordanlab.riordan import RiordanPair, Weight, change_weight, is_riordan, pair_to_matrix
from riordanlab.scalars import Scalar, _Q
from riordanlab.series import _apply_rows, _reduce, _rows_over_lcm
from riordanlab.twoweight import GammaSeq, classify_gamma, gamma_sequence

from references import classify_gamma_reference, gamma_sequence_reference, matmul_raw_reference
from support import WEIGHTS, drawn_weight, raw_built, reduced_form, value

PRIMES = [None, 7, 1000003, 2**61 - 1]  # 2^61 - 1: sums too large for 64-bit slots

# -- _reduce ------------------------------------------------------------------


def test_reduce_folds_the_sign_and_clears_a_zero_column():
    assert _reduce([2, -4], -6, 1) == ([0, -1, 2], 3)
    assert _reduce([3, 6], 9) == ([1, 2], 3)
    assert _reduce([-5, 7], -1, 2) == ([0, 0, 5, -7], 1)
    assert _reduce([0, 0], -5, 2) == ([0, 0, 0, 0], 1)
    assert _reduce([0, 0, 0], 12) == ([0, 0, 0], 1)
    assert _reduce([], -3) == ([], 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=10),
       st.integers(-10**4, 10**4).filter(bool), st.integers(0, 4))
def test_reduce_over_qq_is_the_reduced_form(ints, den, k):
    want = reduced_form([0] * k + [Fraction(x, den) for x in ints], None)
    got = _reduce(ints, den, k)
    assert got == want
    assert got[1] > 0 and gcd(got[1], *got[0]) == 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PRIMES[1:]), st.lists(st.integers(-2**130, 2**130), max_size=10),
       st.integers(-10**6, 10**6), st.integers(0, 4))
def test_reduce_over_gf_is_residues_over_one(p, ints, den, k):
    ints_out, den_out = _reduce(ints, den, k, p)
    assert den_out == 1 and ints_out == [0] * k + [x % p for x in ints]
    assert all(0 <= x < p for x in ints_out)


# -- the rows product and @ ---------------------------------------------------


def lower(field, n, rng):
    """A lower-triangular matrix of random entries, a third of them zero,
    often with one zero column and often not graded."""
    rows = [[value(field, rng) if rng.random() < 2 / 3 else field.zero() for _ in range(i + 1)]
            for i in range(n)]
    if rng.random() < 0.5:
        k = rng.randrange(n)
        for row in rows[k:]:
            row[k] = field.zero()
    if rng.random() < 0.5:
        i = rng.randrange(n)
        rows[i][i] = field.zero()
    return TriMatrix(field, rows)


@st.composite
def lower_cases(draw):
    """(field, N, rng) over QQ, GF(7), GF(1000003), GF(2^61 - 1) at
    N = 2..64, half the draws at N <= 8."""
    p = draw(st.sampled_from(PRIMES))
    n = draw(st.one_of(st.integers(2, 8), st.integers(2, 64)))
    return Field(p), n, random.Random(draw(st.integers(0, 2**32 - 1)))


def entry_values(A):
    """The entries of A as plain values, Fractions over QQ and ints over GF(p)."""
    p = A.field.p
    return [[Fraction(x, den) if p is None else x for x in ints] for ints, den in A._columns()]


@settings(max_examples=150, deadline=None)
@given(lower_cases())
def test_rows_applied_from_row_k_match_the_full_vector(case):
    field, n, rng = case
    M, V = lower(field, n, rng), lower(field, n, rng)
    table = _rows_over_lcm(M._columns())
    got = _apply_rows(field, table, *[(col[k:], den) for k, (col, den) in enumerate(V._columns())])
    assert got == _apply_rows(field, table, *V._columns())
    k, p, m = rng.randrange(n), field.p, entry_values(M)  # one column against plain values
    v = entry_values(V)[k]
    sums = [sum(m[j][i] * v[j] for j in range(i + 1)) for i in range(n)]
    assert got[k] == reduced_form([s if p is None else s % p for s in sums], p)


@settings(max_examples=150, deadline=None)
@given(lower_cases())
def test_matmul_matches_the_replaced_loop(case):
    field, n, rng = case
    A, B = lower(field, n, rng), lower(field, n, rng)
    got, want = A @ B, matmul_raw_reference(A, B)
    assert got._rows is None and got._columns() == want._columns()
    assert got == want and hash(got) == hash(want) and got.rows == want.rows


# -- gamma_sequence and classify_gamma -----------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, 2, 7, 1000003]), st.one_of(st.integers(2, 4), st.integers(2, 16)),
       WEIGHTS, WEIGHTS, st.integers(0, 2**32 - 1))
def test_gamma_sequence_matches_the_scalar_loop(p, n, kind, kind2, seed):
    field, rng = Field(p), random.Random(seed)
    W, W2 = drawn_weight(kind, field, n, rng), drawn_weight(kind2, field, n, rng)
    with mock.patch.object(Scalar, "__init__", autospec=True,
                           side_effect=Scalar.__init__) as built:
        got = gamma_sequence(W, W2)
    assert built.call_count == n - 1
    want = gamma_sequence_reference(W, W2)
    assert got.values == want.values and got.to_json() == want.to_json()


def gamma_values(field):
    """The values the linear fit is compared on: every residue over GF(p),
    the seven distinct a/b with a in -2..2 and b in {1, 2} over QQ."""
    if field.p is not None:
        return [Scalar(v, field.p) for v in range(field.p)]
    return [Scalar(v) for v in sorted({_Q(a, b) for a in range(-2, 3) for b in (1, 2)})]


@pytest.mark.parametrize("p", [None, 5, 7])
def test_classify_gamma_matches_the_linear_fit(p):
    field = Field(p)
    vals, count = gamma_values(field), 0
    for length in range(1, 5):
        for seq in itertools.product(vals, repeat=length):
            gamma = GammaSeq(seq)
            assert classify_gamma(gamma) == classify_gamma_reference(gamma)
            count += 1
    assert count == {None: 2800, 5: 780, 7: 2800}[p]


# -- the error paths ------------------------------------------------------------


@pytest.mark.parametrize("p, q", [(None, 7), (7, None), (7, 1000003)])
def test_mixed_fields_build_no_scalar_view(p, q):
    F, G, n = Field(p), Field(q), 6
    name = {None: "rational", 7: "GF(7)", 1000003: "GF(1000003)"}
    ours = f"mixed scalar backends: {name[p]} vs {name[q]}"
    theirs = f"mixed scalar backends: {name[q]} vs {name[p]}"
    W, V = Weight.geometric(F, n, 2), Weight.geometric(G, n, 3)
    alpha = Series.exp(F, n, 2)
    pair = RiordanPair(alpha, Series.identity(F, n))
    A = pair_to_matrix(pair, W)
    calls = [(lambda: is_riordan(A, V), ours), (lambda: pair_to_matrix(pair, V), theirs),
             (lambda: change_weight(A, V, V.rescale(2)), theirs),
             (lambda: appell_from_alpha(alpha, V), ours)]
    for call, message in calls:
        with pytest.raises(BackendMismatch) as raised:
            call()
        assert str(raised.value) == message
    assert A._rows is None
    for thing in (alpha, pair.beta, W, V):
        raw_built(thing)
