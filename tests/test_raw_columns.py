"""Kernel-built matrices keep their raw columns, against the code they replace.

_weighted_matrix returns the columns of D R D^{-1} as raw (ints, den) in
reduced form and builds no Scalar; a TriMatrix built that way
(TriMatrix._from_columns) builds its Scalar rows only when they are first
read.  TriMatrix.__matmul__ over QQ reads the raw columns of both operands
and returns raw columns, TriMatrix.inverse returns the reduced raw columns
the solver gives, of a kernel-built and of a row-built matrix alike, and
_iter_unweighted_columns divides each column of U by its content.  The
references below are the replaced code, kept verbatim: the Scalar-building
_weighted_matrix, the row-based _iter_unweighted_columns and the row-based
__matmul__ of both fields, and references.inverse_reference.  Every
result must equal its reference in rows, in == both ways (on rows, and on
raw columns where both sides hold them), in hash and in its JSON bytes,
over QQ, GF(2), GF(7) and GF(1000003) at N = 2..16, and once per field at
N = 64.  The inputs come from riordanlab.sampling alone.
"""

import random
from contextlib import ExitStack
from math import gcd
from operator import mul
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import riordanlab.operators
import riordanlab.riordan
from riordanlab import Field, TriMatrix
from riordanlab.operators import appell_from_alpha, finite_difference_matrix, m_matrix
from riordanlab.riordan import (
    _check_matrix_order,
    _mixed_backends,
    _unweighted_columns,
    change_weight,
    matrix_to_pair,
    pair_to_matrix,
    Weight,
    riordan_mul,
)
from riordanlab.sampling import graded_matrix, riordan_pair, scalar, unit_series, weight
from riordanlab.scalars import Scalar, _Q
from riordanlab.serialize import dumps
from riordanlab.series import _ints_over_lcm, _over_common_denominator

from references import inverse_reference
from support import FIELDS, gf7_cases

# -- the replaced code --------------------------------------------------------


def iter_unweighted_columns_rows_reference(A, W):
    """The columns of U = D^{-1} A D as raw (ints, den), yielded one at a
    time so that a caller can stop at the first column it rejects:
    u_{i,k} = a_{i,k} w_k / w_i.

    Column k of U is the scaled column series w_k C_k.  Each column lists
    all N rows, zero above the diagonal: integers over one denominator over
    QQ, residues over 1 over GF(p).  The arguments are checked on the call.
    """
    _check_matrix_order(A, W)
    if A.field != W.field:
        raise _mixed_backends(A.rows[0][0], W.recip[0])
    p, n, rows = A.field.p, A.order, A.rows
    if p is None:
        r, dr = _ints_over_lcm([x.val for x in W.recip])

        def column(k):
            a, da = _ints_over_lcm([rows[i][k].val for i in range(k, n)])
            t = [x.val for x in W.w][k] / (da * dr)
            tn = t.numerator
            return [0] * k + [x * y * tn for x, y in zip(a, r[k:])], t.denominator

        return map(column, range(n))
    r, w = [x.val for x in W.recip], [x.val for x in W.w]
    return (([0] * k + [rows[i][k].val * r[i] * w[k] % p for i in range(k, n)], 1)
            for k in range(n))


def weighted_matrix_scalar_reference(W, cols):
    """D R D^{-1}, entry (i, k) = w_i r_{i,k} / w_k, from the raw columns
    (ints, den) of an ordinary lower-triangular R (as _unweighted_columns
    returns them)."""
    field, p, n, w, recip = W.field, W.field.p, W.order, [x.val for x in W.w], [x.val for x in W.recip]
    rows = [[None] * (i + 1) for i in range(n)]
    if p is None:
        zero = field.zero()
        for k, (col, den) in enumerate(cols):
            num, dk = recip[k].numerator, den * recip[k].denominator
            for i in range(k, n):
                x = col[i] * num
                rows[i][k] = Scalar(_Q(w[i].numerator * x, w[i].denominator * dk)) if x else zero
    else:
        for k, ((col, _), rk) in enumerate(zip(cols, recip)):
            for i in range(k, n):
                rows[i][k] = Scalar(w[i] * col[i] * rk % p, p)
    return TriMatrix(field, rows)


def matmul_rows_reference(self, other):
    # Each entry is one dot product of a row of self with a column of
    # other, on Python ints: over GF(p) residues reduced once per entry;
    # over QQ every row and column over its own common denominator, so
    # only the output entry is normalised.
    self._check_same(other)
    p, n = self.field.p, self.order
    cols = [[other.rows[j][k] for j in range(k, n)] for k in range(n)]
    if p is None:
        left = [_over_common_denominator(self.field, row) for row in self.rows]
        right = [_over_common_denominator(self.field, col) for col in cols]
        out = [
            [Scalar(_Q(sum(map(mul, a[k:], b)), da * db))
             for k, (b, db) in enumerate(right[: i + 1])]
            for i, (a, da) in enumerate(left)
        ]
    else:
        left = [[c.val for c in row] for row in self.rows]
        right = [[c.val for c in col] for col in cols]
        out = [
            [Scalar(sum(map(mul, a[k:], b)) % p, p) for k, b in enumerate(right[: i + 1])]
            for i, a in enumerate(left)
        ]
    return TriMatrix(self.field, out)


def replaced():
    """A context in which the library runs the replaced code."""
    stack = ExitStack()
    for module in (riordanlab.riordan, riordanlab.operators):
        stack.enter_context(
            mock.patch.object(module, "_weighted_matrix", weighted_matrix_scalar_reference))
    stack.enter_context(mock.patch.object(
        riordanlab.riordan, "_iter_unweighted_columns", iter_unweighted_columns_rows_reference))
    return stack


# -- inputs -------------------------------------------------------------------


KINDS = ["pair", "appell", "m_matrix", "change_weight", "difference"]


def draw_inputs(kind, field, n, rng):
    """The arguments of the constructor of this kind, drawn from rng."""
    W = weight(field, n, rng)
    if kind == "pair":
        return pair_to_matrix, (riordan_pair(field, n, rng), W)
    if kind == "appell":
        return appell_from_alpha, (unit_series(field, n, rng), W)
    if kind == "m_matrix":
        return m_matrix, (W,)
    if kind == "change_weight":
        A = graded_matrix(field, n, rng) if rng.random() < 0.5 else pair_to_matrix(
            riordan_pair(field, n, rng), W)
        return change_weight, (A, W, weight(field, n, rng))
    return finite_difference_matrix, (W, scalar(field, rng, nonzero=True))


def built(kind, field, n, rng):
    """(the matrix of this kind, the same matrix from the replaced code)."""
    make, args = draw_inputs(kind, field, n, rng)
    got = make(*args)
    with replaced():
        return got, make(*args)


def row_built(A):
    return TriMatrix(A.field, A.rows)


def assert_same(got, want):
    """got equals want, a matrix from the replaced code, in == both ways, on
    raw columns against a fresh copy of got, in rows, hash and JSON bytes."""
    assert got == want and want == got
    again = row_built(want)
    assert got == again and again == got
    assert got._cols == again._cols
    assert got.rows == want.rows
    assert hash(got) == hash(want)
    assert dumps(got.to_json()) == dumps(want.to_json())


def values(cols, p):
    """Raw columns as lists of their values."""
    return [[x if p is not None else _Q(x, den) for x in ints] for ints, den in cols]


def assert_reduced(A):
    """Every raw column of A lists N values, zero above the diagonal, over a
    positive denominator sharing no factor with them (1 and residues over
    GF(p))."""
    p, n = A.field.p, A.order
    cols = A._columns()
    assert len(cols) == n
    for k, (ints, den) in enumerate(cols):
        assert len(ints) == n and not any(ints[:k])
        assert den > 0 and gcd(den, *ints) == 1
        if p is not None:
            assert den == 1 and all(0 <= x < p for x in ints)


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(gf7_cases(), st.sampled_from(KINDS))
def test_kernel_built_matrices_match_the_scalar_kernel(case, kind):
    got, want = built(kind, *case)
    assert_same(got, want)


PRODUCTS = ["raw @ raw", "raw @ row-built", "row-built @ raw", "row-built @ row-built"]


def product(how, field, n, rng):
    """(A @ B of the operands named by how, the product of the replaced code)."""
    A = built(rng.choice(KINDS), field, n, rng)[0]
    B = built(rng.choice(KINDS), field, n, rng)[0] if rng.random() < 0.8 else A
    if rng.random() < 0.3:  # a graded matrix of no kernel, as row-built operand
        A = graded_matrix(field, n, rng)
    left, right = how.split(" @ ")
    A = row_built(A) if left == "row-built" else A
    B = row_built(B) if right == "row-built" else B
    want = matmul_rows_reference(row_built(A), row_built(B))
    return A @ B, want


@settings(max_examples=300, deadline=None)
@given(gf7_cases(), st.sampled_from(PRODUCTS))
def test_products_match_the_row_product(case, how):
    got, want = product(how, *case)
    assert_same(got, want)
    assert_reduced(got)


def test_the_largest_order_once_per_field():
    rng = random.Random(64)
    for p in FIELDS:
        field = Field(p)
        for kind in KINDS:
            got, want = built(kind, field, 64, rng)
            assert_same(got, want)
            assert_reduced(got)
        for how in PRODUCTS:
            assert_same(*product(how, field, 64, rng))
        for from_rows in (False, True):
            assert_inverse(*inverted("pair", from_rows, field, 64, rng))


@settings(max_examples=200, deadline=None)
@given(gf7_cases(), st.sampled_from(KINDS))
def test_every_kernel_column_is_reduced(case, kind):
    field, n, rng = case
    A, _ = built(kind, field, n, rng)
    assert_reduced(A)
    assert_reduced(A @ A)
    W = weight(field, n, rng)
    U = TriMatrix._from_columns(field, _unweighted_columns(A, W))
    assert_reduced(U)
    want = iter_unweighted_columns_rows_reference(row_built(A), W)
    assert values(U._columns(), field.p) == values(want, field.p)
    if kind == "difference":  # its last column is zero: (zeros, 1)
        assert A._columns()[-1] == ([0] * n, 1)


GRADED = ["pair", "appell", "change_weight"]


def inverted(kind, from_rows, field, n, rng):
    """(A.inverse() of a graded kernel-built A, or of its row-built copy,
    and the inverse of the replaced code)."""
    make, args = draw_inputs(kind, field, n, rng)
    A = row_built(make(*args)) if from_rows else make(*args)
    return A.inverse(), inverse_reference(row_built(A))


def assert_inverse(got, want):
    """got holds the raw columns the solver returned, in reduced form, and
    no rows until they are read; then it equals want."""
    assert got._rows is None
    assert_reduced(got)
    assert_same(got, want)


@settings(max_examples=200, deadline=None)
@given(gf7_cases(), st.sampled_from(GRADED), st.booleans())
def test_the_inverse_keeps_raw_columns(case, kind, from_rows):
    assert_inverse(*inverted(kind, from_rows, *case))


def test_the_group_law_over_qq_builds_no_rows():
    rng = random.Random(8)
    field = Field()
    for n in (2, 8, 16):
        W = weight(field, n, rng)
        a, b = riordan_pair(field, n, rng), riordan_pair(field, n, rng)
        A, B = pair_to_matrix(a, W), pair_to_matrix(b, W)
        C = pair_to_matrix(riordan_mul(a, b), W)
        P = A @ B
        assert P == C
        assert matrix_to_pair(A, W) == a
        assert all(M._rows is None for M in (A, B, C, P))
        assert C.rows == matmul_rows_reference(row_built(A), row_built(B)).rows


def test_a_chain_of_ten_products_keeps_the_integers_of_the_row_chain():
    rng = random.Random(10)
    for p in FIELDS:
        field = Field(p)
        W = weight(field, 8, rng)
        factors = [pair_to_matrix(riordan_pair(field, 8, rng), W) for _ in range(10)]
        raw = want = None
        for M in factors:
            raw = M if raw is None else raw @ M
            want = row_built(M) if want is None else matmul_rows_reference(want, row_built(M))
        assert raw._rows is None or p is not None
        assert raw._columns() == row_built(want)._columns()
        assert_reduced(raw)


def test_equal_columns_over_other_fields_are_other_matrices():
    for n in (2, 9):
        shifts = [m_matrix(Weight.geometric(Field(p), n, 1)) for p in FIELDS]
        assert all(M._cols == shifts[0]._cols for M in shifts)  # the same raw columns
        for i, M in enumerate(shifts):
            for j, other in enumerate(shifts):
                assert (M == other) == (i == j)
