import pytest

from riordanlab import (
    Field,
    Series,
    Weight,
    appell_from_alpha,
    classify_gamma,
    classify_membership,
    exp_case_weights,
    extended_binomial,
    gamma_sequence,
    is_exponential_alpha,
    is_riordan,
    tilde_weight_from_gamma,
)
from riordanlab import scalars
from riordanlab.errors import CharP, ForbiddenLambda, NotValuationZero
from riordanlab.sampling import unit_series, weight as random_weight
from riordanlab.twoweight import GammaSeq

from support import S, exp_series as acceptance_exp_series


def exp_series(field, order, h):
    from riordanlab.scalars import factorial_inv

    h = field.scalar(h)
    return Series(
        field, [h ** l * factorial_inv(field, l) for l in range(order)]
    )


def test_gamma_sequence(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert gamma_sequence(e1, e1).values == tuple([QQ.one()] * 5)

    g1 = Weight.geometric(QQ, 6, 1)
    assert gamma_sequence(e1, g1).values == tuple(QQ.scalar(k + 1) for k in range(5))

    lam, sigma = QQ.scalar("1/2"), QQ.scalar(1)
    w2 = exp_case_weights(QQ, 6, lam, sigma)
    gamma = gamma_sequence(e1, w2)
    assert gamma.values == tuple(lam - sigma * QQ.scalar(k) for k in range(5))


def test_classify_gamma(QQ, F7):
    const = GammaSeq(tuple(QQ.scalar(2) for _ in range(5)))
    assert classify_gamma(const).kind == "constant"

    linear = GammaSeq(tuple(QQ.scalar(3) - QQ.scalar(k) for k in range(3)))
    shape = classify_gamma(linear)
    assert shape.kind == "linear"
    assert shape.lam == QQ.scalar(3) and shape.sigma == QQ.scalar(1)

    neither = GammaSeq((QQ.scalar(1), QQ.scalar(1), QQ.scalar(2)))
    assert classify_gamma(neither).kind == "neither"

    # linear shapes are not recognized in characteristic p
    linear_p = GammaSeq(tuple(F7.scalar(3 - k) for k in range(3)))
    assert classify_gamma(linear_p).kind == "neither"
    const_p = GammaSeq(tuple(F7.scalar(2) for _ in range(4)))
    assert classify_gamma(const_p).kind == "constant"


def test_is_exponential_alpha(QQ):
    assert is_exponential_alpha(exp_series(QQ, 6, 2)) == (QQ.one(), QQ.scalar(2))
    three_ey = exp_series(QQ, 6, 1).scale(QQ.scalar(3))
    assert is_exponential_alpha(three_ey) == (QQ.scalar(3), QQ.one())
    assert is_exponential_alpha(S(QQ, 6, 1, 1, 1)) is None  # c_2 != 1/2
    assert is_exponential_alpha(Series.one(QQ, 6)) == (QQ.one(), QQ.zero())
    with pytest.raises(NotValuationZero):
        is_exponential_alpha(S(QQ, 6, 0, 1))


def test_is_exponential_alpha_char_p(F7):
    with pytest.raises(CharP):
        is_exponential_alpha(Series.one(F7, 8))


def test_tilde_weight_from_gamma(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    ones = GammaSeq(tuple([QQ.one()] * 5))
    assert tilde_weight_from_gamma(e1, ones) == e1

    lam = QQ.scalar(3)
    const = GammaSeq(tuple([lam] * 5))
    w2 = tilde_weight_from_gamma(e1, const)
    for n in range(6):
        assert w2.w[n] == e1.w[n] / lam ** n

    # round trip on random second weights
    for _ in range(5):
        target = random_weight(QQ, 6, rng)
        gamma = gamma_sequence(e1, target)
        assert tilde_weight_from_gamma(e1, gamma) == target
        assert gamma_sequence(e1, tilde_weight_from_gamma(e1, gamma)).values == gamma.values


def test_exp_case_weights(QQ):
    w2 = exp_case_weights(QQ, 6, "1/2", 1)
    assert w2.w[0] == QQ.one()
    assert w2.w[2] == QQ.scalar(-8)  # 1 / binom(1/2, 2)
    mu = QQ.scalar("1/2")
    for k in range(6):
        assert w2.recip[k] == extended_binomial(mu, k)

    with pytest.raises(ForbiddenLambda):
        exp_case_weights(QQ, 6, 2, 1)  # binom(2, 3) = 0
    with pytest.raises(ForbiddenLambda):
        exp_case_weights(QQ, 6, 1, 0)


def test_exp_case_weights_char_p(F7):
    with pytest.raises(CharP):
        exp_case_weights(F7, 4, 1, 2)


def test_exp_case_gamma_closed_form_matches_recurrence(QQ):
    e1 = Weight.exponential(QQ, 8, 1)
    lam, sigma = QQ.scalar("1/3"), QQ.scalar("1/2")
    gamma = GammaSeq(tuple(lam - sigma * QQ.scalar(k) for k in range(7)))
    assert tilde_weight_from_gamma(e1, gamma) == exp_case_weights(QQ, 8, lam, sigma)


def test_membership_case_i(QQ, rng):
    e1 = Weight.exponential(QQ, 8, 1)
    for lam in (2, "1/3", -1):
        alpha = unit_series(QQ, 8, rng)
        report = classify_membership(alpha, e1, e1.rescale(lam))
        assert report.member and report.case == "I"


def test_membership_case_ii(QQ):
    e1 = Weight.exponential(QQ, 8, 1)
    w2 = exp_case_weights(QQ, 8, "1/2", 1)
    report = classify_membership(exp_series(QQ, 8, 1), e1, w2)
    assert report.member and report.case == "II"
    # scalar multiples of translations stay in
    report = classify_membership(exp_series(QQ, 8, -2).scale(QQ.scalar(5)), e1, w2)
    assert report.member and report.case == "II"


def test_membership_converse(QQ, rng):
    e1 = Weight.exponential(QQ, 8, 1)
    w2 = exp_case_weights(QQ, 8, "1/2", 1)
    report = classify_membership(S(QQ, 8, 1, 1), e1, w2)  # 1 + y is not exponential
    assert not report.member and report.case is None

    # gamma neither constant nor linear, alpha with c_1 != 0: never a member
    for _ in range(5):
        while True:
            target = random_weight(QQ, 8, rng)
            if classify_gamma(gamma_sequence(e1, target)).kind == "neither":
                break
        alpha = unit_series(QQ, 8, rng)
        if not alpha.coeff(1):
            alpha = alpha + Series.monomial(QQ, 8, 1)
        assert not classify_membership(alpha, e1, target).member


def test_membership_verdict_is_direct_check(QQ, rng):
    e1 = Weight.exponential(QQ, 8, 1)
    w2 = exp_case_weights(QQ, 8, "1/2", 1)
    alpha = exp_series(QQ, 8, 1)
    report = classify_membership(alpha, e1, w2)
    assert report.member == is_riordan(appell_from_alpha(alpha, e1), w2)


def test_monomial_scalar_matrix_member_other(QQ):
    # alpha constant: the scalar matrix is Appell for every weight
    e1 = Weight.exponential(QQ, 6, 1)
    w2 = Weight(QQ, [1, 2, 1, 5, 1, 7])
    assert classify_gamma(gamma_sequence(e1, w2)).kind == "neither"
    report = classify_membership(Series.constant(QQ, 6, 4), e1, w2)
    assert report.member and report.case == "other"


def test_classify_gamma_rejects_an_empty_sequence():
    with pytest.raises(ValueError) as raised:
        classify_gamma(GammaSeq(()))
    assert type(raised.value) is ValueError
    assert str(raised.value) == "gamma sequence is empty"


def test_classify_membership_builds_no_prime_field(monkeypatch):
    # the characteristic is read off the gamma values: a Field(p) built
    # for it would re-run the primality test on every member
    F = Field(1000003)
    alpha, W = Series.one(F, 16), Weight.exponential(F, 16, 1)
    W2 = Weight.q_factorial(F, 16, 5, 3)
    real, calls = scalars._is_prime, []
    monkeypatch.setattr(scalars, "_is_prime", lambda n: calls.append(n) or real(n))
    report = classify_membership(alpha, W, W2)
    assert (report.member, report.case) == (True, "other")
    assert classify_gamma(report.gamma).kind == "neither"
    assert calls == []


def test_report_json(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    report = classify_membership(Series.one(QQ, 6), e1, e1.rescale(2))
    data = report.to_json()
    assert data["member"] is True and data["case"] == "I"
    assert len(data["gamma"]) == 5


@pytest.mark.parametrize("p, order", [(None, 12), (7, 7), (1000003, 12)])
def test_series_exp_matches_test_helpers(p, order):
    f = Field(p)
    for h in (1, 2, -3, "1/2" if p is None else 5):
        expected = Series.exp(f, order, h)
        assert exp_series(f, order, h) == expected
        assert acceptance_exp_series(f, order, h) == expected
