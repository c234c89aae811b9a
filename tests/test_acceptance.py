"""End-to-end acceptance suite.

Run with ``pytest tests/test_acceptance.py -v -s``: each criterion prints
one PASS line after its assertions (a failure surfaces as an ordinary
pytest failure).  Every comparison is exact; there are no tolerances
anywhere.
"""

import random

from riordanlab import (
    Field,
    RiordanPair,
    Series,
    TriMatrix,
    Weight,
    change_weight,
    check_geometric_dual,
    classify_gamma,
    classify_membership,
    dual_basis,
    eval_functional,
    exp_case_weights,
    extended_binomial,
    finite_difference_matrix,
    functional_apply,
    functional_mul,
    gamma_sequence,
    identity_pair,
    is_appell,
    is_binomial,
    is_riordan,
    is_sheffer,
    m_matrix,
    matrix_to_pair,
    matrix_to_polys,
    pair_to_matrix,
    product_rule_spanning_witness,
    riordan_inv,
    riordan_mul,
    sheffer_by_commutation,
    shifted_power_matrix,
    solve_conjugator,
    translation_matrix,
    umbral_compose,
)
from riordanlab.operators import d_polynomials
from riordanlab.sampling import (
    degree_decreasing_matrix,
    graded_matrix,
    perturbed_non_riordan,
    riordan_matrix,
    riordan_pair,
    scalar,
    unit_series,
    weight as random_weight,
)

from support import exp_series

QQ = Field()
GF7 = Field(7)


def report(name):
    print(f"[acceptance] {name}: PASS")


def three_weights(field, order):
    if field.p is None:
        return [
            Weight.exponential(field, order, 1),
            Weight.geometric(field, order, 1),
            Weight.q_factorial(field, order, -1, 2),
        ]
    # characteristic p: exponential excluded; q must have order >= N in GF(p)*
    return [
        Weight.geometric(field, order, 3),
        Weight.q_factorial(field, order, 5, 3),
    ]


# -- criterion bodies (shared with the characteristic-p smoke suite) ----------


def group_law_suite(field, order, count, rng):
    ident = TriMatrix.identity(field, order)
    mats = [graded_matrix(field, order, rng) for _ in range(count)]
    for i in range(count):
        a = mats[i]
        b = mats[(i + 1) % count]
        c = mats[(i + 7) % count]
        ab = a @ b
        assert ab.is_graded()
        assert (ab @ c) == (a @ (b @ c))
    for a in mats:
        inv = a.inverse()
        assert a @ inv == ident and inv @ a == ident
    for i in range(0, count, 2):
        a, b = mats[i], mats[(i + 1) % count]
        assert umbral_compose(matrix_to_polys(a), matrix_to_polys(b)) == matrix_to_polys(a @ b)


def semidirect_suite(field, order, weights, count, rng):
    e = identity_pair(field, order)
    for w in weights:
        pairs = [riordan_pair(field, order, rng) for _ in range(count)]
        mats = [pair_to_matrix(p, w) for p in pairs]
        for i in range(count):
            a, b = pairs[i], pairs[(i + 1) % count]
            assert pair_to_matrix(riordan_mul(a, b), w) == mats[i] @ mats[(i + 1) % count]
            assert matrix_to_pair(mats[i], w) == a
            assert riordan_mul(a, riordan_inv(a)) == e


def comp_equivalence_suite(field, order, weights, count, rng):
    for w in weights:
        hs = field.range_elements(order)
        for _ in range(count):
            good = riordan_matrix(w, rng)
            assert is_sheffer(good, w)
            assert sheffer_by_commutation(good, w, hs)
            bad = perturbed_non_riordan(w, rng)
            assert not is_sheffer(bad, w)
            assert not sheffer_by_commutation(bad, w, hs)


def appell_binomial_suite(field, order, weights, count, rng):
    y = Series.identity(field, order)
    one = Series.one(field, order)
    e0 = [field.one()] + [field.zero()] * (order - 1)
    for w in weights:
        m = m_matrix(w)
        for i in range(count):
            p = riordan_pair(field, order, rng)
            if i % 3 == 1:
                p = RiordanPair(p.alpha, y)  # force Appell
            elif i % 3 == 2:
                p = RiordanPair(one, p.beta)  # force binomial type
            a = pair_to_matrix(p, w)
            assert is_appell(a, w) == (p.beta == y)
            assert is_appell(a, w) == (a @ m == m @ a)
            assert is_binomial(a, w) == (p.alpha == one)
            assert is_binomial(a, w) == (is_sheffer(a, w) and a.column(0) == e0)
        for _ in range(count // 2):
            bad = perturbed_non_riordan(w, rng)
            assert not is_appell(bad, w) and not is_binomial(bad, w)


def dual_basis_suite(field, order, w, count, rng):
    one = field.one()
    zero = field.zero()
    for i in range(count):
        riordan = i % 2 == 0
        if riordan:
            a = riordan_matrix(w, rng)
        else:
            a = perturbed_non_riordan(w, rng) if i % 4 == 1 else graded_matrix(field, order, rng)
            while is_riordan(a, w):  # keep the non-Sheffer half honest
                a = graded_matrix(field, order, rng)
        duals = dual_basis(a, w)
        polys = matrix_to_polys(a)
        for r in range(order):
            for n in range(order):
                got = functional_apply(duals[r], polys[n], w) * w.recip[n]
                assert got == (one if n == r else zero)
        some = check_geometric_dual(duals) is not None
        assert some == is_sheffer(a, w) == riordan
        witness = product_rule_spanning_witness(a, w)
        assert (witness is None) == riordan


# -- the criteria --------------------------------------------------------------


def test_a01_group_law_suite():
    group_law_suite(QQ, 12, 200, random.Random(101))
    report("01 triangular group law and umbral correspondence")


def test_a02_semidirect_product():
    semidirect_suite(QQ, 16, three_weights(QQ, 16), 100, random.Random(102))
    report("02 semidirect product law and pair round-trip")


def test_a03_sheffer_riordan_equivalence():
    comp_equivalence_suite(QQ, 16, three_weights(QQ, 16), 50, random.Random(103))
    report("03 exactly geometric columns agree with translation commutators")


def test_a04_appell_binomial_characterizations():
    appell_binomial_suite(QQ, 16, three_weights(QQ, 16), 50, random.Random(104))
    report("04 Appell/binomial characterizations")


def test_a05_alpha_and_translation_coefficients():
    rng = random.Random(105)
    w = Weight.exponential(QQ, 16, 1)
    for _ in range(25):
        pair = riordan_pair(QQ, 16, rng)
        a = pair_to_matrix(pair, w)
        # alpha is the series of constant terms of the sequence
        polys = matrix_to_polys(a)
        alpha = Series(QQ, [polys[n].constant_term() * w.recip[n] for n in range(16)])
        assert alpha == pair.alpha
        # the translation-coefficient series is W(h beta(y)), coefficientwise in h
        d = d_polynomials(a, w)
        assert d.constant_on_diagonals()
        beta_pow = Series.one(QQ, 16)
        for m in range(16):
            coeff_m = Series(
                QQ,
                [
                    (d.diagonal(l)[m] if m <= l else QQ.zero()) * w.recip[l]
                    for l in range(16)
                ],
            )
            assert coeff_m == beta_pow.scale(w.recip[m])
            beta_pow = beta_pow * pair.beta
    report("05 alpha from constant terms; translation coefficients form W(h beta)")


def test_a06_dual_basis_suite():
    dual_basis_suite(QQ, 16, Weight.exponential(QQ, 16, 1), 50, random.Random(106))
    report("06 dual bases, geometric duals, product rule")


def test_a07_weight_conjugation_and_rescale():
    rng = random.Random(107)
    pairs = [riordan_pair(QQ, 16, rng) for _ in range(25)]
    weight_pairs = [
        (random_weight(QQ, 16, rng), random_weight(QQ, 16, rng)) for _ in range(10)
    ]
    for w, w2 in weight_pairs:
        for p in pairs:
            conj = change_weight(pair_to_matrix(p, w), w, w2)
            assert is_riordan(conj, w2)
            assert matrix_to_pair(conj, w2) == p

    base = Weight.exponential(QQ, 16, 1)
    y = Series.identity(QQ, 16)
    one = Series.one(QQ, 16)
    for i, p in enumerate(pairs):
        if i % 3 == 1:
            p = RiordanPair(p.alpha, y)
        elif i % 3 == 2:
            p = RiordanPair(one, p.beta)
        a = pair_to_matrix(p, base)
        lam = scalar(QQ, rng, nonzero=True)
        rescaled = base.rescale(lam)
        for verdict in (is_riordan, is_sheffer, is_appell, is_binomial):
            assert verdict(a, base) == verdict(a, rescaled)
    for _ in range(5):
        bad = perturbed_non_riordan(base, rng)
        lam = scalar(QQ, rng, nonzero=True)
        assert not is_riordan(bad, base.rescale(lam))
    report("07 weight conjugation keeps the pair; rescaling keeps all verdicts")


def test_a08_conjugator_solver():
    rng = random.Random(108)
    shift = m_matrix(Weight.geometric(QQ, 12, 1))
    targets = [
        m_matrix(Weight.exponential(QQ, 12, 1)),
        m_matrix(Weight.geometric(QQ, 12, 2)),
        finite_difference_matrix(Weight.exponential(QQ, 12, 1), 1),
    ]
    targets.extend(degree_decreasing_matrix(QQ, 12, rng) for _ in range(20))
    for m in targets:
        a = solve_conjugator(m)
        assert a.is_graded()
        assert a.column(0) == [QQ.one()] + [QQ.zero()] * 11
        assert a @ shift @ a.inverse() == m
        # a seed bump in the last row only influences entries beyond the
        # truncation, so uniqueness is asserted for rows 1..N-2
        j = rng.randint(1, 10)
        rows = [list(r) for r in a.rows]
        rows[j][0] = rows[j][0] + QQ.one()
        bumped = TriMatrix(QQ, rows)
        assert bumped @ shift != m @ bumped
    report("08 conjugator solve, re-verification, seed uniqueness")


def test_a09_two_weight_suite():
    rng = random.Random(109)
    w = Weight.exponential(QQ, 16, 1)

    for _ in range(20):  # case (i): rescaled weights admit every alpha
        alpha = unit_series(QQ, 16, rng)
        lam = scalar(QQ, rng, nonzero=True)
        rep = classify_membership(alpha, w, w.rescale(lam))
        assert rep.member and rep.case == "I"

    for _ in range(20):  # case (ii): exponential alpha into a binomial-series weight
        h = scalar(QQ, rng)
        c0 = scalar(QQ, rng, nonzero=True)
        sigma = scalar(QQ, rng, nonzero=True)
        num = rng.choice([1, 3, 5, 7])
        den = rng.choice([2, 3, 4])
        while num % den == 0:
            num += 1
        mu = QQ.scalar(num) / QQ.scalar(den)  # non-integer, so never 0..N-2
        w2 = exp_case_weights(QQ, 16, mu * sigma, sigma)
        rep = classify_membership(exp_series(QQ, 16, h, c0), w, w2)
        assert rep.member and rep.case == "II"

    alphas = []
    while len(alphas) < 20:  # converse needs a nonzero linear coefficient
        alpha = unit_series(QQ, 16, rng)
        if alpha.coeff(1):
            alphas.append(alpha)
    others = []
    while len(others) < 20:
        cand = random_weight(QQ, 16, rng)
        if classify_gamma(gamma_sequence(w, cand)).kind == "neither":
            others.append(cand)
    for alpha in alphas:
        for w2 in others:
            rep = classify_membership(alpha, w, w2)
            assert not rep.member and rep.case is None
    report("09 two-weight membership: both cases and the converse")


def test_a10_scalar_identities():
    rng = random.Random(110)
    for _ in range(200):
        xi = scalar(QQ, rng)
        eta = scalar(QQ, rng)
        n = rng.randint(0, 12)
        total = QQ.zero()
        for r in range(n + 1):
            total = total + extended_binomial(xi, r) * extended_binomial(eta, n - r)
        assert total == extended_binomial(xi + eta, n)
        if n >= 1:
            assert extended_binomial(xi + QQ.one(), n) == extended_binomial(
                xi, n
            ) + extended_binomial(xi, n - 1)
    report("10 Vandermonde and Pascal identities for extended binomials")


def test_a11_characteristic_p_smoke():
    order = 6
    weights = three_weights(GF7, order)
    group_law_suite(GF7, order, 200, random.Random(111))
    semidirect_suite(GF7, order, weights, 100, random.Random(112))
    comp_equivalence_suite(GF7, order, weights, 50, random.Random(113))
    appell_binomial_suite(GF7, order, weights, 50, random.Random(114))
    for w in weights:
        dual_basis_suite(GF7, order, w, 50, random.Random(115))

    import pytest

    from riordanlab.errors import NotInvertible

    with pytest.raises(NotInvertible):
        Weight.exponential(GF7, 8, 1)
    report("11 GF(7) smoke suite; exponential weight rejected past the modulus")


def test_a12_q_umbral_factorization():
    w = Weight.q_factorial(QQ, 16, -1, 2)  # lam = 1 - q at q = 2
    q, h = QQ.scalar(2), QQ.scalar(1)
    rows = matrix_to_polys(shifted_power_matrix(w, h))
    for n in range(1, 9):
        for j in range(n):
            assert not rows[n].evaluate(-(q ** j * h))
    report("12 q-umbral shifted powers vanish on the geometric root ladder")


def test_a13_exponential_translation_semigroup():
    rng = random.Random(113)
    w = Weight.exponential(QQ, 16, 1)
    for _ in range(20):
        g, h = scalar(QQ, rng), scalar(QQ, rng)
        assert translation_matrix(w, g) @ translation_matrix(w, h) == translation_matrix(w, g + h)
        assert functional_mul(eval_functional(g, w), eval_functional(h, w)) == eval_functional(g + h, w)
    geo = Weight.geometric(QQ, 16, 1)
    one = QQ.one()
    assert translation_matrix(geo, one) @ translation_matrix(geo, one) != translation_matrix(geo, one + one)
    assert functional_mul(eval_functional(one, geo), eval_functional(one, geo)) != eval_functional(one + one, geo)
    report("13 translation semigroup is exponential-only")
