import math

import pytest

from riordanlab import (
    Field,
    RiordanPair,
    Series,
    TriMatrix,
    Weight,
    change_weight,
    column_series,
    exp_case_weights,
    generating_expansion,
    identity_pair,
    is_appell,
    is_binomial,
    is_riordan,
    is_sheffer,
    matrix_to_pair,
    pair_to_matrix,
    riordan_inv,
    riordan_mul,
    translation_matrix,
)
from riordanlab.errors import (
    InvalidWeight,
    NotInvertible,
    NotRiordan,
    RootOfUnity,
    ZeroLambda,
)
from riordanlab.sampling import riordan_matrix, riordan_pair, weight as random_weight

from support import S


# -- weights -----------------------------------------------------------------


def test_builtin_weights(QQ):
    assert Weight.exponential(QQ, 4, 1).w == tuple(QQ.scalar(x) for x in [1, 1, 2, 6])
    g = Weight.geometric(QQ, 5, 1)
    assert g.w == tuple([QQ.one()] * 5)
    assert g.series() == S(QQ, 5, 1, 1, 1, 1, 1)

    q = Weight.q_factorial(QQ, 5, -1, 2)  # lam = 1 - q for q = 2
    expected, prod = [], 1
    for n in range(5):
        if n:
            prod *= 1 - 2 ** n
        expected.append(prod)
    assert q.w == tuple(QQ.scalar(x) for x in expected)


def test_weight_errors(QQ, F7):
    with pytest.raises(ZeroLambda):
        Weight.geometric(QQ, 4, 0)
    with pytest.raises(RootOfUnity):
        Weight.q_factorial(QQ, 4, 1, 1)
    with pytest.raises(RootOfUnity):
        Weight.q_factorial(F7, 5, 1, 6)  # 6^2 = 1 mod 7
    with pytest.raises(NotInvertible):
        Weight.exponential(F7, 8, 1)
    with pytest.raises(InvalidWeight):
        Weight(QQ, [1, 0, 3])
    with pytest.raises(InvalidWeight):
        Weight(QQ, [2, 1, 1])


@pytest.mark.parametrize("order", [0, 1, 65])
@pytest.mark.parametrize("build", [
    lambda f, n: Weight(f, [1] * n),
    lambda f, n: Weight.exponential(f, n, 1),
    lambda f, n: Weight.geometric(f, n, 2),
    lambda f, n: Weight.q_factorial(f, n, 1, 2),
    lambda f, n: Weight.q_factorial(f, n, 1, 1),  # q = 1: lam / (1 - q) divides by zero
    lambda f, n: exp_case_weights(f, n, 1, 1),  # lam = sigma: w[2] vanishes from order 3
    lambda f, n: exp_case_weights(f, n, "1/2", 1),
    lambda f, n: exp_case_weights(Field(5), n, 1, 1),  # characteristic p
], ids=["init", "exponential", "geometric", "q_factorial", "q_factorial-q=1",
        "exp_case", "exp_case-1/2", "exp_case-GF(5)"])
def test_weight_constructors_name_the_order_given(QQ, build, order):
    with pytest.raises(ValueError) as raised:
        build(QQ, order)
    assert type(raised.value) is ValueError
    assert str(raised.value) == f"order must be in 2..64, got {order}"


def test_exponential_weight_ok_below_p(F7):
    w = Weight.exponential(F7, 6, 1)
    assert w.w[5] == F7.scalar(math.factorial(5) % 7)


def test_rescale(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert e1.rescale(1) == e1
    assert e1.rescale(2) == Weight.exponential(QQ, 6, 2)
    assert Weight.geometric(QQ, 6, 1).rescale(2) == Weight.geometric(QQ, 6, 2)


# -- columns and membership ---------------------------------------------------


def test_column_series(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    ident = TriMatrix.identity(QQ, 6)
    assert column_series(ident, e1, 2) == Series.monomial(QQ, 6, 2, "1/2")

    pascal = translation_matrix(e1, 1)
    assert column_series(pascal, e1, 0) == e1.series()  # e^y
    col1 = column_series(pascal, e1, 1)
    expected = [0] + [QQ.scalar(n) / QQ.scalar(math.factorial(n)) for n in range(1, 6)]
    assert col1 == S(QQ, 6, *expected)  # y e^y


def test_column_series_rejects_every_index_outside_the_matrix(QQ):
    W = Weight.exponential(QQ, 4, 1)
    A = TriMatrix(QQ, [[QQ.scalar(v) for v in row]
                       for row in ([1], [2, 3], [4, 5, 6], [7, 8, 9, 10])])
    for k in (-1, -3, -4, -5, 4, 5):  # -1 once read the diagonal, -3 an IndexError
        with pytest.raises(ValueError, match=f"^column {k} out of range$"):
            column_series(A, W, k)
    assert column_series(A, W, 3) == Series.monomial(QQ, 4, 3, "10/6")


def test_weight_ratio_rejects_every_index_outside_the_subdiagonal(QQ, F7):
    # n <= 0 once wrapped around (ratio(0) was w_0 / w_{N-1}), n = N raised
    # a bare "tuple index out of range"
    for field in (QQ, F7):
        W = Weight.exponential(field, 5, 1)
        for n in (0, -1, -2, -5, 5, 6):
            with pytest.raises(IndexError, match=f"^ratio {n} out of range$"):
                W.ratio(n)
        assert [W.ratio(n) for n in range(1, 5)] == [field.scalar(n) for n in range(1, 5)]


def test_is_riordan(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert is_riordan(TriMatrix.identity(QQ, 6), e1)
    pascal = translation_matrix(e1, 1)
    assert is_riordan(pascal, e1)

    rows = [list(r) for r in pascal.rows]
    rows[2][0] = rows[2][0] + QQ.one()
    assert not is_riordan(TriMatrix(QQ, rows), e1)


def test_pair_to_matrix(QQ):
    e1 = Weight.exponential(QQ, 4, 1)
    assert pair_to_matrix(identity_pair(QQ, 4), e1) == TriMatrix.identity(QQ, 4)

    ey = RiordanPair(e1.series(), Series.identity(QQ, 4))
    assert pair_to_matrix(ey, e1) == translation_matrix(e1, 1)

    g1 = Weight.geometric(QQ, 4, 1)
    p = RiordanPair(Series.one(QQ, 4), S(QQ, 4, 0, 1, 1))
    mat = pair_to_matrix(p, g1)
    # direct expansion: a_{n,k} = [y^n] (y + y^2)^k
    powers = [S(QQ, 4, 1), S(QQ, 4, 0, 1, 1)]
    powers.append(powers[1] * powers[1])
    powers.append(powers[2] * powers[1])
    for n in range(4):
        for k in range(n + 1):
            assert mat.entry(n, k) == powers[k].coeff(n)


def test_matrix_to_pair(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    assert matrix_to_pair(TriMatrix.identity(QQ, 5), e1) == identity_pair(QQ, 5)

    pascal = translation_matrix(e1, 1)
    pair = matrix_to_pair(pascal, e1)
    assert pair.alpha == e1.series()
    assert pair.beta == Series.identity(QQ, 5)

    rows = [list(r) for r in pascal.rows]
    rows[2][0] = rows[2][0] + QQ.one()
    with pytest.raises(NotRiordan):
        matrix_to_pair(TriMatrix(QQ, rows), e1)


def test_riordan_mul(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    ey = RiordanPair(e1.series(), Series.identity(QQ, 5))
    assert riordan_mul(ey, identity_pair(QQ, 5)) == ey

    prod = riordan_mul(ey, ey)
    # matrix-product oracle: Pascal^2 corresponds to (e^{2y}, y)
    pascal = translation_matrix(e1, 1)
    assert pair_to_matrix(prod, e1) == pascal @ pascal
    assert prod.alpha == S(QQ, 5, *[QQ.scalar(2 ** n) / QQ.scalar(math.factorial(n)) for n in range(5)])

    b1 = RiordanPair(Series.one(QQ, 5), S(QQ, 5, 0, 1, 1))
    b2 = RiordanPair(Series.one(QQ, 5), S(QQ, 5, 0, 2, 0, 1))
    prod2 = riordan_mul(b1, b2)
    assert prod2.alpha == Series.one(QQ, 5)
    assert prod2.beta == b2.beta.compose(b1.beta)


def test_riordan_inv(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    assert riordan_inv(identity_pair(QQ, 5)) == identity_pair(QQ, 5)

    ey = RiordanPair(e1.series(), Series.identity(QQ, 5))
    inv = riordan_inv(ey)
    # matrix-inverse oracle: signed Pascal corresponds to (e^{-y}, y)
    assert pair_to_matrix(inv, e1) == translation_matrix(e1, 1).inverse()
    assert inv.alpha == S(QQ, 5, "1", "-1", "1/2", "-1/6", "1/24")

    b = RiordanPair(Series.one(QQ, 5), S(QQ, 5, 0, 1, 1))
    assert riordan_inv(b).beta == b.beta.comp_inverse()


def test_group_laws_random(QQ, rng):
    weights = [
        Weight.exponential(QQ, 6, 1),
        Weight.geometric(QQ, 6, 1),
        Weight.q_factorial(QQ, 6, -1, 2),
    ]
    for w in weights:
        for _ in range(5):
            a = riordan_pair(QQ, 6, rng)
            b = riordan_pair(QQ, 6, rng)
            assert pair_to_matrix(riordan_mul(a, b), w) == pair_to_matrix(a, w) @ pair_to_matrix(b, w)
            assert matrix_to_pair(pair_to_matrix(a, w), w) == a
            assert riordan_mul(a, riordan_inv(a)) == identity_pair(QQ, 6)
            assert is_riordan(pair_to_matrix(a, w) @ pair_to_matrix(b, w), w)
            assert is_riordan(pair_to_matrix(a, w).inverse(), w)


def test_generating_expansion(QQ, rng):
    e1 = Weight.exponential(QQ, 5, 1)
    cols = generating_expansion(identity_pair(QQ, 5), e1)
    for k in range(5):
        assert cols[k] == Series.monomial(QQ, 5, k, QQ.scalar(1) / QQ.scalar(math.factorial(k)))

    p = riordan_pair(QQ, 5, rng)
    mat = pair_to_matrix(p, e1)
    assert generating_expansion(p, e1)[0] == p.alpha
    for k in range(5):
        assert generating_expansion(p, e1)[k] == column_series(mat, e1, k)
    last = generating_expansion(p, e1)[4]
    assert last.valuation() == 4  # single surviving term


def test_change_weight(QQ, rng):
    e1 = Weight.exponential(QQ, 5, 1)
    g1 = Weight.geometric(QQ, 5, 1)
    pascal = translation_matrix(e1, 1)
    assert change_weight(pascal, e1, e1) == pascal
    assert change_weight(TriMatrix.identity(QQ, 5), e1, g1) == TriMatrix.identity(QQ, 5)

    moved = change_weight(pascal, e1, g1)
    assert is_riordan(moved, g1)
    pair = matrix_to_pair(moved, g1)
    assert pair.alpha == e1.series() and pair.beta == Series.identity(QQ, 5)
    # the same entries, rewritten: a_{n,k} = 1/(n-k)!
    assert moved.entry(4, 1) == QQ.scalar("1/6")

    for _ in range(5):
        p = riordan_pair(QQ, 5, rng)
        w2 = random_weight(QQ, 5, rng)
        conj = change_weight(pair_to_matrix(p, e1), e1, w2)
        assert matrix_to_pair(conj, w2) == p


def test_change_weight_preserves_appell_and_binomial(QQ, rng):
    e1 = Weight.exponential(QQ, 5, 1)
    g1 = Weight.geometric(QQ, 5, 1)
    pascal = translation_matrix(e1, 1)
    assert is_appell(change_weight(pascal, e1, g1), g1)
    b = pair_to_matrix(RiordanPair(Series.one(QQ, 5), S(QQ, 5, 0, 1, 1)), e1)
    assert is_binomial(change_weight(b, e1, g1), g1)


def test_rescale_preserves_membership_not_pair(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    e2 = e1.rescale(2)
    pascal = translation_matrix(e1, 1)
    assert is_riordan(pascal, e2)
    assert matrix_to_pair(pascal, e2).alpha != matrix_to_pair(pascal, e1).alpha

    for _ in range(5):
        a = riordan_matrix(e1, rng)
        assert is_riordan(a, e2)
    from riordanlab.sampling import perturbed_non_riordan

    for _ in range(5):
        bad = perturbed_non_riordan(e1, rng)
        assert not is_riordan(bad, e2)


def test_rescale_preserves_all_four_verdicts(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    lam = QQ.scalar("3/2")
    e_l = e1.rescale(lam)
    mats = [
        translation_matrix(e1, 1),
        pair_to_matrix(RiordanPair(Series.one(QQ, 6), S(QQ, 6, 0, 1, 1)), e1),
        riordan_matrix(e1, rng),
        TriMatrix.identity(QQ, 6),
    ]
    for a in mats:
        for check in (is_riordan, is_sheffer, is_appell, is_binomial):
            assert check(a, e1) == check(a, e_l)


def test_weight_and_pair_json(QQ, rng):
    w = Weight.q_factorial(QQ, 5, -1, 2)
    assert Weight.from_json(QQ, w.to_json()) == w
    p = riordan_pair(QQ, 5, rng)
    assert RiordanPair.from_json(QQ, p.to_json()) == p


@pytest.mark.parametrize("order", [0, 1, 65, 3000])
def test_constructors_check_the_order_before_any_entry(QQ, order, monkeypatch):
    # an order out of range is rejected before one entry is computed, and
    # before a zero lambda or n! in GF(p) is looked at
    def unreachable(*args):
        raise AssertionError("an entry was computed before the order check")

    monkeypatch.setattr("riordanlab.scalars.Scalar.__mul__", unreachable)
    monkeypatch.setattr("riordanlab.scalars.Scalar.__pow__", unreachable)
    builds = [lambda: Series.exp(QQ, order, 1),
              lambda: Weight.exponential(QQ, order, 1),
              lambda: Weight.exponential(QQ, order, 0),
              lambda: Weight.exponential(Field(5), order, 1),
              lambda: Weight.geometric(QQ, order, 3),
              lambda: Weight.geometric(QQ, order, 0),
              lambda: TriMatrix.from_entries(QQ, order, unreachable)]
    for build in builds:
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"order must be in 2..64, got {order}"
