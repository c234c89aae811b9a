import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import (
    Field,
    Polynomial,
    TriMatrix,
    apply_matrix_to_poly,
    m_matrix,
    matrix_to_polys,
    polys_to_matrix,
    umbral_compose,
)
from riordanlab.errors import DegreeTooHigh, SingularDiagonal
from riordanlab.riordan import Weight
from riordanlab.sampling import graded_matrix


def pascal(field, order):
    return TriMatrix.from_entries(
        field, order, lambda n, k: field.scalar(math.comb(n, k))
    )


def test_matrix_to_polys(QQ):
    ident = TriMatrix.identity(QQ, 4)
    polys = matrix_to_polys(ident)
    assert [str(p) for p in polys] == ["1", "x", "x^2", "x^3"]

    shifted = matrix_to_polys(pascal(QQ, 5))
    x_plus_1 = Polynomial.from_values(QQ, [1, 1])
    acc = Polynomial.from_values(QQ, [1])
    for n in range(5):
        assert shifted[n] == acc
        acc = Polynomial(QQ, _poly_mul(QQ, acc.coeffs, x_plus_1.coeffs))

    rows = [[QQ.one()], [QQ.zero(), QQ.zero()], [QQ.zero(), QQ.zero(), QQ.one()]]
    degenerate = TriMatrix(QQ, rows)
    assert matrix_to_polys(degenerate)[1].degree == -1
    assert not degenerate.is_graded()


def _poly_mul(field, a, b):
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def test_polys_to_matrix(QQ):
    monos = [Polynomial.from_values(QQ, [0] * n + [1]) for n in range(4)]
    assert polys_to_matrix(monos) == TriMatrix.identity(QQ, 4)

    shifted = matrix_to_polys(pascal(QQ, 5))
    assert polys_to_matrix(shifted) == pascal(QQ, 5)

    bad = [
        Polynomial.from_values(QQ, [1]),
        Polynomial.from_values(QQ, [0, 1]),
        Polynomial.from_values(QQ, [0, 0, 0, 1]),  # x^3 in slot 2
        Polynomial.from_values(QQ, [0, 0, 0, 1]),
    ]
    with pytest.raises(DegreeTooHigh):
        polys_to_matrix(bad)


def test_roundtrip_on_random_lower_triangular(QQ, rng):
    for _ in range(20):
        a = graded_matrix(QQ, 6, rng)
        assert polys_to_matrix(matrix_to_polys(a)) == a


def test_mat_mul(QQ, rng):
    p = pascal(QQ, 6)
    ident = TriMatrix.identity(QQ, 6)
    a = graded_matrix(QQ, 6, rng)
    assert a @ ident == a and ident @ a == a

    # Vandermonde: (P^2)_{n,k} = binom(n,k) 2^{n-k}
    sq = p @ p
    for n in range(6):
        for k in range(n + 1):
            assert sq.entry(n, k) == QQ.scalar(math.comb(n, k) * 2 ** (n - k))


def test_strictly_lower_product_shape(QQ, rng):
    from riordanlab.sampling import degree_decreasing_matrix

    a = degree_decreasing_matrix(QQ, 5, rng)
    b = degree_decreasing_matrix(QQ, 5, rng)
    prod = a @ b
    for n in range(5):
        for k in range(max(0, n - 1), n + 1):
            assert not prod.entry(n, k)


def test_mat_inv(QQ):
    ident = TriMatrix.identity(QQ, 5)
    assert ident.inverse() == ident

    p = pascal(QQ, 6)
    signed = TriMatrix.from_entries(
        QQ, 6, lambda n, k: QQ.scalar((-1) ** (n - k) * math.comb(n, k))
    )
    assert p.inverse() == signed
    assert p @ signed == TriMatrix.identity(QQ, 6)

    rows = [[QQ.one()], [QQ.one(), QQ.zero()]]
    with pytest.raises(SingularDiagonal):
        TriMatrix(QQ, rows).inverse()


def test_group_axioms_random(QQ, rng):
    ident = TriMatrix.identity(QQ, 5)
    mats = [graded_matrix(QQ, 5, rng) for _ in range(9)]
    for a, b, c in zip(mats[0::3], mats[1::3], mats[2::3]):
        assert (a @ b) @ c == a @ (b @ c)
        assert (a @ b).is_graded()
    for a in mats:
        inv = a.inverse()
        assert a @ inv == ident and inv @ a == ident


def test_umbral_compose(QQ, rng):
    monos = matrix_to_polys(TriMatrix.identity(QQ, 5))
    qs = matrix_to_polys(graded_matrix(QQ, 5, rng))
    assert umbral_compose(monos, qs) == qs
    assert umbral_compose(qs, monos) == qs

    shifted = matrix_to_polys(pascal(QQ, 5))
    twice = umbral_compose(shifted, shifted)
    # matrix-product oracle: rows of Pascal^2 are (x+2)^n
    assert twice == matrix_to_polys(pascal(QQ, 5) @ pascal(QQ, 5))
    assert str(twice[2]) == "x^2 + 4*x + 4"


def test_umbral_agrees_with_matrix_product(QQ, rng):
    for _ in range(10):
        a, b = graded_matrix(QQ, 5, rng), graded_matrix(QQ, 5, rng)
        direct = umbral_compose(matrix_to_polys(a), matrix_to_polys(b))
        assert direct == matrix_to_polys(a @ b)


def test_apply_matrix_to_poly(QQ, rng):
    p = Polynomial.from_values(QQ, [2, 0, 1])
    assert apply_matrix_to_poly(TriMatrix.identity(QQ, 4), p) == p
    assert apply_matrix_to_poly(TriMatrix.zero(QQ, 4), p).degree == -1

    w = Weight.exponential(QQ, 5, 1)
    cube = Polynomial.from_values(QQ, [0, 0, 0, 1])
    assert str(apply_matrix_to_poly(m_matrix(w), cube)) == "3*x^2"


def test_json_roundtrip(QQ, F7, rng):
    a = graded_matrix(QQ, 4, rng)
    assert TriMatrix.from_json(QQ, a.to_json()) == a
    b = graded_matrix(F7, 4, rng)
    assert TriMatrix.from_json(F7, b.to_json()) == b


def test_polynomial_str_and_eval(QQ, F7):
    p = Polynomial.from_values(QQ, ["-1", "1/2", 0, 1])
    assert str(p) == "x^3 + 1/2*x - 1"
    assert p.evaluate(QQ.scalar(2)) == QQ.scalar(8)
    q = Polynomial.from_values(F7, [1, 3])
    assert str(q) == "(3 mod 7)*x + (1 mod 7)"
    assert q.evaluate(F7.scalar(2)) == F7.scalar(0)


# -- the integer matmul and inverse kernels, against the Scalar loops --------


def schoolbook_matmul(a, b):
    """Entry (n, k) of a @ b as a sum of Scalar products: the reference kernel."""
    out = []
    for n in range(a.order):
        row = []
        for k in range(n + 1):
            acc = a.rows[n][k] * b.rows[k][k]
            for j in range(k + 1, n + 1):
                acc = acc + a.rows[n][j] * b.rows[j][k]
            row.append(acc)
        out.append(row)
    return TriMatrix(a.field, out)


def schoolbook_inverse(a):
    """Forward substitution column by column in Scalars: the reference inverse."""
    n, zero = a.order, a.field.zero()
    inv = [[zero] * (i + 1) for i in range(n)]
    for k in range(n):
        inv[k][k] = a.rows[k][k].inverse()
        for i in range(k + 1, n):
            acc = zero
            for j in range(k, i):
                acc = acc + a.rows[i][j] * inv[j][k]
            inv[i][k] = -(acc / a.rows[i][i])
    return TriMatrix(a.field, inv)


@st.composite
def _matrices(draw, count, graded=False):
    """`count` matrices of one field and order N in 2..20.

    Over QQ the entries are signed with mixed denominators (1 and coprime
    ones included); some rows and columns are zeroed below the diagonal,
    and wholly unless `graded` keeps the diagonal nonzero.
    """
    p = draw(st.sampled_from([None, 2, 3, 1000003]))
    n = draw(st.integers(2, 20))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    field = Field(p)

    def entry(nonzero=False):
        if p is None:
            num = rnd.choice([-1, 1]) * rnd.randint(1, 50) if nonzero else rnd.randint(-50, 50)
            return field.scalar(Fraction(num, rnd.randint(1, 30)))
        return field.scalar(rnd.randrange(1 if nonzero else 0, p))

    mats = []
    for _ in range(count):
        zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=3))
        zero_cols = draw(st.sets(st.integers(0, n - 1), max_size=3))
        rows = []
        for i in range(n):
            row = []
            for k in range(i + 1):
                if graded and k == i:
                    row.append(entry(nonzero=True))
                elif i in zero_rows or k in zero_cols:
                    row.append(field.zero())
                else:
                    row.append(entry())
            rows.append(row)
        mats.append(TriMatrix(field, rows))
    return mats


@settings(max_examples=80, deadline=None)
@given(_matrices(2))
def test_matmul_matches_schoolbook(mats):
    a, b = mats
    assert a @ b == schoolbook_matmul(a, b)


@settings(max_examples=80, deadline=None)
@given(_matrices(1, graded=True))
def test_inverse_matches_schoolbook(mats):
    (a,) = mats
    assert a.inverse() == schoolbook_inverse(a)
