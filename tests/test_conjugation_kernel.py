"""One conjugation kernel by D = diag(w), against the code it replaces.

riordan._conjugated_columns yields the raw columns of diag(left) R
diag(right): with (1/w, w) they are the columns of U = D^{-1} A D
(_iter_unweighted_columns), with (w, 1/w) those of D R D^{-1}
(_weighted_matrix), and finite_difference_matrix is D T D^{-1} for the
Toeplitz T of W(ay) - 1.  The forward substitution takes integer rows, and
Series.invert and / pass the divisor over one denominator.  The references
(tests/references.py) are the replaced code, kept verbatim.  Raw columns
are in reduced form, which is unique, so they must be list-equal; errors
must agree in type and message; the finite difference must agree in rows,
==, hash and JSON bytes and hold no Scalar row once built.  All over QQ,
GF(2), GF(7) and GF(1000003) at N = 2..16, and once per field at N = 64.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import MathDomainError
from riordanlab.operators import finite_difference_matrix
from riordanlab.riordan import (
    _iter_unweighted_columns,
    _toeplitz_columns,
    _unweighted_columns,
    _weighted_matrix,
    pair_to_matrix,
    riordan_inv,
)
from riordanlab.sampling import graded_matrix, riordan_pair, scalar, series, weight
from riordanlab.serialize import dumps
from riordanlab.series import _geometric_columns, _over_common_denominator

from references import (
    finite_difference_matrix_reference,
    invert_reference,
    iter_unweighted_columns_reference,
    riordan_inv_reference,
    truediv_reference,
    weighted_matrix_reference,
)

FIELDS = [None, 2, 7, 1000003]


@st.composite
def cases(draw):
    """(field, N, rng) over QQ, GF(2), GF(7), GF(1000003) at N = 2..16, half
    the draws at N <= 4."""
    p = draw(st.sampled_from(FIELDS))
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 16)))
    return Field(p), n, random.Random(draw(st.integers(0, 2**32 - 1)))


def outcome(f, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (MathDomainError, ValueError) as e:
        return type(e), str(e)


def other(field):
    return Field(7) if field.p is None else Field()


def matrix(field, n, rng):
    """A kernel-built Riordan matrix, a row-built graded one, or a row-built
    one with a vanishing diagonal entry."""
    kind = rng.choice(["pair", "graded", "singular"])
    if kind == "pair":
        return pair_to_matrix(riordan_pair(field, n, rng), weight(field, n, rng))
    A = graded_matrix(field, n, rng)
    if kind == "singular":
        rows = [list(r) for r in A.rows]
        k = rng.randrange(n)
        rows[k][k] = field.zero()
        A = TriMatrix(field, rows)
    return A


def ordinary_columns(field, n, rng):
    """Raw columns of an ordinary R as the callers of _weighted_matrix pass
    them: geometric (unreduced denominators), Toeplitz, or the columns of U."""
    kind = rng.choice(["geometric", "toeplitz", "unweighted"])
    c, d = _over_common_denominator(series(field, n, rng).coeffs)
    if kind == "geometric":
        return list(_geometric_columns(c, d, riordan_pair(field, n, rng).beta))
    if kind == "toeplitz":
        return _toeplitz_columns(c, d)
    return _unweighted_columns(matrix(field, n, rng), weight(field, n, rng))


def unweighted(iterate, A, W):
    return list(iterate(A, W))


def check_unweighted(field, n, rng):
    A = matrix(field, n, rng)
    where = rng.choice(["same", "same", "same", "other-order", "other-field"])
    m = n + 1 if where == "other-order" and n < 64 else n
    W = weight(other(field) if where == "other-field" else field, m, rng)
    want = outcome(unweighted, iter_unweighted_columns_reference, A, W)
    assert outcome(unweighted, _iter_unweighted_columns, A, W) == want
    assert outcome(_unweighted_columns, A, W) == want


def check_weighted(field, n, rng):
    cols, W = ordinary_columns(field, n, rng), weight(field, n, rng)
    assert _weighted_matrix(W, iter(cols))._cols == weighted_matrix_reference(W, cols)._cols


def check_finite_difference(field, n, rng):
    W = weight(field, n, rng)
    a = rng.choice([scalar(field, rng, nonzero=True)] * 3 + [
        field.zero(), scalar(other(field), rng, nonzero=True), "x"])
    got = outcome(finite_difference_matrix, W, a)
    want = outcome(finite_difference_matrix_reference, W, a)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got._rows is None
    assert got._cols[-1] == ([0] * n, 1)
    assert got == want and want == got
    assert got.rows == want.rows
    assert hash(got) == hash(want)
    assert dumps(got.to_json()) == dumps(want.to_json())


def check_divisions(field, n, rng):
    s, t = series(field, n, rng), series(field, n, rng)
    if rng.random() < 0.7:  # most divisors are units
        t = t + Series.one(field, n) if not t.coeffs[0] else t
    assert outcome(Series.invert, t) == outcome(invert_reference, t)
    assert outcome(Series.__truediv__, s, t) == outcome(truediv_reference, s, t)
    a = riordan_pair(field, n, rng)
    assert riordan_inv(a) == riordan_inv_reference(a)


CHECKS = [check_unweighted, check_weighted, check_finite_difference, check_divisions]


@settings(max_examples=400, deadline=None)
@given(cases(), st.sampled_from(CHECKS))
def test_one_kernel_matches_the_replaced_code(case, check):
    check(*case)


def test_the_largest_order_once_per_field():
    rng = random.Random(64)
    for p in FIELDS:
        for check in CHECKS:
            check(Field(p), 64, rng)
