import pytest

from riordanlab import (
    Field,
    Functional,
    Polynomial,
    RiordanPair,
    Series,
    TriMatrix,
    binomial_associate,
    check_geometric_dual,
    delta_functional,
    dual_basis,
    dual_characterization_check,
    eval_functional,
    functional_after_operator,
    functional_apply,
    functional_mul,
    functional_of_operator,
    functional_power,
    is_appell,
    is_sheffer,
    m_matrix,
    matrix_to_pair,
    matrix_to_polys,
    pair_to_matrix,
    product_rule_check,
    product_rule_spanning_witness,
    translation_matrix,
)
from riordanlab.errors import BackendMismatch, NotCommuting, NotSheffer
from riordanlab.functionals import _binomial_candidate
from riordanlab.operators import appell_from_alpha
from riordanlab.riordan import Weight
from riordanlab.sampling import (
    degree_decreasing_matrix,
    functional_values,
    graded_matrix,
    perturbed_non_riordan,
    riordan_matrix,
    scalar,
    unit_series,
    weight,
)


def S(field, order, *vals):
    return Series.from_values(field, order, vals)


def test_functional_apply(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    eps1 = eval_functional(1, e1)
    p = Polynomial.from_values(QQ, [1, 0, 1])  # x^2 + 1
    assert functional_apply(eps1, p, e1) == QQ.scalar(2)

    zero = Functional(QQ, [QQ.zero()] * 5)
    assert functional_apply(zero, p, e1) == QQ.zero()

    phi = delta_functional(QQ, 5, 1)
    assert functional_apply(phi, Polynomial.from_values(QQ, [0, 1]), e1) == e1.w[1] * QQ.one()


def test_eval_functional(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    assert eval_functional(0, e1) == delta_functional(QQ, 5, 0)
    assert eval_functional(1, e1).series() == e1.series()  # t_n = 1/n!

    g1 = Weight.geometric(QQ, 5, 1)
    assert eval_functional(2, g1).values == tuple(QQ.scalar(2 ** n) for n in range(5))

    # evaluation really evaluates
    p = Polynomial.from_values(QQ, [1, "1/2", 3])
    h = QQ.scalar("2/3")
    for w in (e1, g1):
        assert functional_apply(eval_functional(h, w), p, w) == p.evaluate(h)


def test_functional_mul(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    phi = Functional(QQ, functional_values(QQ, 6, rng))
    assert functional_mul(phi, eval_functional(0, e1)) == phi

    for g, h in [(1, 1), (2, -1), ("1/2", "1/3")]:
        assert functional_mul(eval_functional(g, e1), eval_functional(h, e1)) == eval_functional(
            e1.field.scalar(g) + e1.field.scalar(h), e1
        )

    g1 = Weight.geometric(QQ, 6, 1)
    prod = functional_mul(eval_functional(1, g1), eval_functional(1, g1))
    assert prod.values == tuple(QQ.scalar(n + 1) for n in range(6))
    assert prod != eval_functional(2, g1)


def test_functional_ring_is_series_ring(QQ, rng):
    for _ in range(5):
        a = Functional(QQ, functional_values(QQ, 6, rng))
        b = Functional(QQ, functional_values(QQ, 6, rng))
        assert functional_mul(a, b).series() == a.series() * b.series()
        va, vb = a.valuation(), b.valuation()
        if va + vb < 6:
            assert functional_mul(a, b).valuation() == va + vb


def test_functional_of_operator(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    h = QQ.scalar(3)
    t = translation_matrix(e1, h)
    assert functional_of_operator(t, e1) == eval_functional(h, e1)
    assert functional_of_operator(TriMatrix.identity(QQ, 6), e1) == eval_functional(0, e1)

    bad = graded_matrix(QQ, 6, rng)
    m = m_matrix(e1)
    if bad @ m == m @ bad:  # astronomically unlikely; regenerate by hand if seen
        pytest.skip("random matrix happened to commute")
    with pytest.raises(NotCommuting):
        functional_of_operator(bad, e1)


def test_operator_composition_is_multiplication(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    t = translation_matrix(e1, QQ.scalar("1/2"))
    psi = functional_of_operator(t, e1)
    for i in range(6):
        phi = delta_functional(QQ, 6, i)
        assert functional_after_operator(phi, t, e1) == functional_mul(phi, psi)


def test_dual_basis_identity_and_pascal(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    duals = dual_basis(TriMatrix.identity(QQ, 6), e1)
    for r in range(6):
        assert duals[r] == delta_functional(QQ, 6, r)

    pascal = translation_matrix(e1, 1)
    duals = dual_basis(pascal, e1)
    assert duals[0] == eval_functional(-1, e1)  # xi of the geometric family


def test_dual_basis_duality_table(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for _ in range(5):
        a = graded_matrix(QQ, 6, rng)
        duals = dual_basis(a, e1)
        polys = matrix_to_polys(a)
        for r in range(6):
            assert duals[r].valuation() == r
            for n in range(6):
                got = functional_apply(duals[r], polys[n], e1) * e1.recip[n]
                assert got == (QQ.one() if n == r else QQ.zero())


def test_check_geometric_dual(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    duals = dual_basis(TriMatrix.identity(QQ, 6), e1)
    res = check_geometric_dual(duals)
    assert res is not None
    xi, eta = res
    assert xi == eval_functional(0, e1)
    assert eta.series() == Series.identity(QQ, 6)

    pascal = translation_matrix(e1, 1)
    res = check_geometric_dual(dual_basis(pascal, e1))
    assert res is not None and res[0] == eval_functional(-1, e1)

    bad = perturbed_non_riordan(e1, rng)
    assert check_geometric_dual(dual_basis(bad, e1)) is None


def test_geometric_dual_iff_sheffer(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for _ in range(5):
        for a in (riordan_matrix(e1, rng), perturbed_non_riordan(e1, rng)):
            some = check_geometric_dual(dual_basis(a, e1)) is not None
            assert some == is_sheffer(a, e1)


def test_dual_parameters_are_inverse_parameters(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for _ in range(5):
        a = riordan_matrix(e1, rng)
        xi, eta = check_geometric_dual(dual_basis(a, e1))
        inv_pair = matrix_to_pair(a.inverse(), e1)
        assert xi.series() == inv_pair.alpha
        assert eta.series() == inv_pair.beta


def test_functional_power_matches_repeated_mul(QQ, rng):
    phi = Functional(QQ, functional_values(QQ, 6, rng))
    acc = Functional.from_series(Series.one(QQ, 6))
    for r in range(4):
        assert functional_power(phi, r) == acc
        acc = functional_mul(acc, phi)


def test_binomial_associate(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    assert binomial_associate(translation_matrix(e1, 1), e1) == TriMatrix.identity(QQ, 6)
    assert binomial_associate(TriMatrix.identity(QQ, 6), e1) == TriMatrix.identity(QQ, 6)

    beta = S(QQ, 6, 0, 1, 1)
    sheff = pair_to_matrix(RiordanPair(e1.series(), beta), e1)
    binom = pair_to_matrix(RiordanPair(Series.one(QQ, 6), beta), e1)
    assert binomial_associate(sheff, e1) == binom

    with pytest.raises(NotSheffer):
        binomial_associate(perturbed_non_riordan(e1, rng), e1)


def test_product_rule(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for _ in range(4):
        a = riordan_matrix(e1, rng)
        phi = Functional(QQ, functional_values(QQ, 6, rng))
        psi = Functional(QQ, functional_values(QQ, 6, rng))
        assert product_rule_check(a, e1, phi, psi)
        assert product_rule_spanning_witness(a, e1) is None

    ident = TriMatrix.identity(QQ, 6)
    phi = Functional(QQ, functional_values(QQ, 6, rng))
    psi = Functional(QQ, functional_values(QQ, 6, rng))
    assert product_rule_check(ident, e1, phi, psi)

    for _ in range(4):
        bad = perturbed_non_riordan(e1, rng)
        witness = product_rule_spanning_witness(bad, e1)
        assert witness is not None
        i, j, n = witness
        assert not product_rule_check(
            bad, e1, delta_functional(QQ, 6, i), delta_functional(QQ, 6, j)
        )


def test_dual_characterization(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    assert dual_characterization_check(TriMatrix.identity(QQ, 6), e1)
    a = graded_matrix(QQ, 6, rng)
    assert dual_characterization_check(a, e1)
    b = graded_matrix(QQ, 6, rng)
    assert not dual_characterization_check(a, e1, duals=dual_basis(b, e1))


def test_functional_json(QQ, rng):
    phi = Functional(QQ, functional_values(QQ, 6, rng))
    assert Functional.from_json(QQ, phi.to_json()) == phi


# -- the O(N^2) commutation test and the convolution witness, against references --


def _weights(field, order, rng):
    """A fixed and a random weight of this order; exponential where n! is a unit."""
    ws = [Weight.geometric(field, order, 2 if field.p != 2 else 1), weight(field, order, rng)]
    if field.p is None or order <= field.p:
        ws.append(Weight.exponential(field, order, 1))
    return ws


def _near_appell(W, rng):
    """Appell matrices, each also with one entry bumped, and other operators."""
    field, n = W.field, W.order
    mats = [riordan_matrix(W, rng), graded_matrix(field, n, rng), m_matrix(W),
            TriMatrix.zero(field, n), degree_decreasing_matrix(field, n, rng)]
    for _ in range(6):
        a = appell_from_alpha(unit_series(field, n, rng), W)
        rows = [list(r) for r in a.rows]
        i = rng.randrange(n)
        k = rng.randint(0, i)
        rows[i][k] = rows[i][k] + scalar(field, rng, nonzero=True)
        mats += [a, TriMatrix(field, rows)]
    return mats


@pytest.mark.parametrize("p", [None, 2, 3, 1000003])
def test_commutation_with_m_matches_matrix_products(p, rng):
    f = Field(p)
    for n in (2, 3, 7, 12):
        for W in _weights(f, n, rng):
            m = m_matrix(W)
            for a in _near_appell(W, rng):
                commutes = a @ m == m @ a
                assert is_appell(a, W) == commutes
                if commutes:
                    want = Functional(f, [a.entry(r, 0) * W.recip[r] for r in range(n)])
                    assert functional_of_operator(a, W) == want
                else:
                    with pytest.raises(NotCommuting):
                        functional_of_operator(a, W)


def test_commutation_with_m_rejects_mismatched_weight(QQ, F7):
    a = TriMatrix.identity(QQ, 6)
    for W in (Weight.exponential(QQ, 5, 1), Weight.exponential(F7, 6, 1)):
        with pytest.raises(BackendMismatch):
            is_appell(a, W)
        with pytest.raises(BackendMismatch):
            functional_of_operator(a, W)


def triple_loop_witness(A, W):
    """The spanning-set search as an O(N^4) loop over Scalars: the reference."""
    n_ord = A.order
    d = _binomial_candidate(A, W)
    zero = A.field.zero()
    p_val = [[A.entry(k, i) * W.w[i] * W.recip[k] for k in range(n_ord)] for i in range(n_ord)]
    d_val = [[d.entry(l, j) * W.w[j] * W.recip[l] for l in range(n_ord)] for j in range(n_ord)]
    for i in range(n_ord):
        for j in range(n_ord):
            for n in range(n_ord):
                lhs = p_val[i + j][n] if i + j < n_ord else zero
                acc = zero
                for k in range(n + 1):
                    acc = acc + p_val[i][k] * d_val[j][n - k]
                if acc != lhs:
                    return (i, j, n)
    return None


@pytest.mark.parametrize("p", [None, 2, 3, 1000003])
def test_spanning_witness_matches_triple_loop(p, rng):
    f = Field(p)
    for n in (4, 5, 8):  # below order 4 no perturbation is visible
        for W in _weights(f, n, rng):
            for _ in range(3):
                bad = perturbed_non_riordan(W, rng)
                assert product_rule_spanning_witness(bad, W) == triple_loop_witness(bad, W)
            good = riordan_matrix(W, rng)
            assert product_rule_spanning_witness(good, W) is None
            assert triple_loop_witness(good, W) is None
