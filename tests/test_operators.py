import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import (
    Field,
    Polynomial,
    RiordanPair,
    Series,
    TriMatrix,
    appell_from_alpha,
    apply_matrix_to_poly,
    d_polynomials,
    dw_multiplier,
    finite_difference_matrix,
    is_appell,
    is_binomial,
    is_degree_decreasing,
    is_normalizing,
    is_sheffer,
    m_matrix,
    matrix_to_polys,
    pair_to_matrix,
    q_operator_matrix,
    sheffer_by_commutation,
    shifted_power_matrix,
    solve_conjugator,
    translation_matrix,
)
from riordanlab.errors import (
    BackendMismatch,
    NotDegreeDecreasing,
    NotSheffer,
    NotValuationZero,
    ZeroShift,
)
from riordanlab.operators import HPolyMatrix, check_report
from riordanlab.riordan import Weight
from riordanlab.functionals import binomial_associate
from riordanlab.sampling import (
    degree_decreasing_matrix,
    perturbed_non_riordan,
    riordan_matrix,
    riordan_pair,
    unit_series,
    weight,
)

from support import S


def binom_pair_matrix(field, w):
    """The binomial-type matrix of the pair (1, y + y^2)."""
    beta = S(field, w.order, 0, 1, 1)
    return pair_to_matrix(RiordanPair(Series.one(field, w.order), beta), w)


# -- basic operator matrices ---------------------------------------------------


def test_m_matrix(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    m = m_matrix(e1)
    for n in range(1, 5):
        assert m.entry(n, n - 1) == QQ.scalar(n)
    assert m.is_strictly_lower()

    g1 = Weight.geometric(QQ, 5, 1)
    mg = m_matrix(g1)
    for n in range(1, 5):
        assert mg.entry(n, n - 1) == QQ.one()
    # p -> (p(x) - p(0)) / x on x^2 + 3
    p = Polynomial.from_values(QQ, [3, 0, 1])
    assert str(apply_matrix_to_poly(mg, p)) == "x"

    assert apply_matrix_to_poly(m, Polynomial.from_values(QQ, [1])).degree == -1


def test_translation_matrix(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    assert translation_matrix(e1, 0) == TriMatrix.identity(QQ, 5)

    pascal = translation_matrix(e1, 1)
    for n in range(5):
        for k in range(n + 1):
            assert pascal.entry(n, k) == QQ.scalar(math.comb(n, k))
    sq = Polynomial.from_values(QQ, [0, 0, 1])
    assert str(apply_matrix_to_poly(pascal, sq)) == "x^2 + 2*x + 1"

    g1 = Weight.geometric(QQ, 5, 1)
    assert str(apply_matrix_to_poly(translation_matrix(g1, 1), sq)) == "x^2 + x + 1"


def test_translation_equals_pair_matrix_and_w_of_mw(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    h = QQ.scalar("2/3")
    t = translation_matrix(e1, h)
    whay = Series(QQ, [h ** n * e1.recip[n] for n in range(5)])  # W(hy)
    assert t == pair_to_matrix(RiordanPair(whay, Series.identity(QQ, 5)), e1)
    # t equals sum_l (h^l / w_l) M^l
    m = m_matrix(e1)
    acc = TriMatrix.zero(QQ, 5)
    power = TriMatrix.identity(QQ, 5)
    for l in range(5):
        acc = acc + power.scale(h ** l * e1.recip[l])
        power = power @ m
    assert t == acc


def test_q_operator_matrix(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    ident = TriMatrix.identity(QQ, 6)
    assert q_operator_matrix(ident, e1) == m_matrix(e1)
    assert q_operator_matrix(translation_matrix(e1, 1), e1) == m_matrix(e1)

    b = binom_pair_matrix(QQ, e1)
    q = q_operator_matrix(b, e1)
    assert q.is_strictly_lower()
    assert q != m_matrix(e1)


def test_q_operator_lowers_the_sequence(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    a = riordan_matrix(e1, rng)
    q = q_operator_matrix(a, e1)
    polys = matrix_to_polys(a)
    for n in range(1, 6):
        lowered = apply_matrix_to_poly(q, polys[n])
        scaled = [e1.ratio(n) * c for c in polys[n - 1].coeffs]
        assert lowered == Polynomial(QQ, scaled)


# -- d-polynomials --------------------------------------------------------------


def test_d_polynomials_identity_and_pascal(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    for a in (TriMatrix.identity(QQ, 5), translation_matrix(e1, 1)):
        d = d_polynomials(a, e1)
        for n in range(5):
            for k in range(n + 1):
                expected = tuple(
                    QQ.one() if l == n - k else QQ.zero() for l in range(n - k + 1)
                )
                assert d.entry(n, k) == expected  # d_{n,k}(h) = h^{n-k}


def test_d_polynomials_binomial_rows(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    b = binom_pair_matrix(QQ, e1)
    d = d_polynomials(b, e1)
    assert d.constant_on_diagonals()
    for n in range(6):
        for k in range(n + 1):
            row = b.rows[n - k]  # d_{n,k} is the (n-k)-th sequence polynomial
            assert d.entry(n, k) == tuple(row)


def _lagrange(field, xs, ys):
    """Interpolating polynomial coefficients through (xs[i], ys[i])."""
    n = len(xs)
    coeffs = [field.zero()] * n
    for i in range(n):
        num = [field.one()]
        denom = field.one()
        for j in range(n):
            if j == i:
                continue
            # num *= (x - xs[j])
            num = [field.zero()] + num
            for t in range(len(num) - 1):
                num[t] = num[t] - xs[j] * num[t + 1]
            denom = denom * (xs[i] - xs[j])
        scale = ys[i] / denom
        for t in range(n):
            coeffs[t] = coeffs[t] + scale * num[t]
    return coeffs


def test_d_polynomials_interpolation_oracle(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for a in (riordan_matrix(e1, rng), perturbed_non_riordan(e1, rng)):
        d = d_polynomials(a, e1)
        inv = a.inverse()
        xs = QQ.range_elements(6)
        conj = [a @ translation_matrix(e1, h) @ inv for h in xs]
        for n in range(6):
            for k in range(n + 1):
                ys = [c.entry(n, k) for c in conj]
                poly = _lagrange(QQ, xs, ys)
                norm = e1.w[n - k] * e1.w[k] * e1.recip[n]
                expected = [norm * c for c in poly]
                got = list(d.entry(n, k)) + [QQ.zero()] * (6 - (n - k + 1))
                assert got == expected
                assert d.entry(n, k)[n - k]  # degree exactly n - k for graded input


def test_hpolymatrix_evaluate_and_json(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    a = translation_matrix(e1, 1)
    d = d_polynomials(a, e1)
    assert d.evaluate(0) == TriMatrix.identity(QQ, 5)
    data = d.to_json()
    assert data[2][1] == ["0", "1"]
    assert HPolyMatrix(QQ, [[[QQ.parse(c) for c in e] for e in row] for row in data]) == d


@pytest.mark.parametrize("entries, message", [
    ([[()], [()]], "row 1 must have 2 entries, got 1"),
    ([], "order must be in 2..64, got 0"),
    ([[()]], "order must be in 2..64, got 1"),
    ([[()], [(), (), ()]], "row 1 must have 2 entries, got 3"),
])
def test_hpolymatrix_checks_the_shape_of_the_triangle(QQ, entries, message):
    # the messages of TriMatrix; a malformed triangle used to fail later, on a bare index
    with pytest.raises(ValueError) as raised:
        HPolyMatrix(QQ, entries)
    assert type(raised.value) is ValueError
    assert str(raised.value) == message


# -- classification -------------------------------------------------------------


def test_is_sheffer_examples(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    assert is_sheffer(TriMatrix.identity(QQ, 6), e1)
    assert is_sheffer(translation_matrix(e1, 1), e1)
    assert not is_sheffer(perturbed_non_riordan(e1, rng), e1)


def test_sheffer_by_commutation_agrees(QQ, rng):
    for w in (
        Weight.exponential(QQ, 6, 1),
        Weight.geometric(QQ, 6, 1),
        Weight.q_factorial(QQ, 6, -1, 2),
    ):
        for _ in range(4):
            good = riordan_matrix(w, rng)
            assert is_sheffer(good, w) and sheffer_by_commutation(good, w)
            bad = perturbed_non_riordan(w, rng)
            assert not is_sheffer(bad, w) and not sheffer_by_commutation(bad, w)


def test_is_appell(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert is_appell(translation_matrix(e1, 1), e1)
    assert is_appell(TriMatrix.identity(QQ, 6), e1)
    assert not is_appell(binom_pair_matrix(QQ, e1), e1)


def test_appell_iff_trivial_beta(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    y = Series.identity(QQ, 6)
    for _ in range(6):
        p = riordan_pair(QQ, 6, rng)
        a = pair_to_matrix(p, e1)
        assert is_appell(a, e1) == (p.beta == y)


def test_is_binomial(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert is_binomial(TriMatrix.identity(QQ, 6), e1)
    assert not is_binomial(translation_matrix(e1, 1), e1)  # p_n(0) = 1
    assert is_binomial(binom_pair_matrix(QQ, e1), e1)


def test_appell_from_alpha(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert appell_from_alpha(Series.one(QQ, 6), e1) == TriMatrix.identity(QQ, 6)

    h = QQ.scalar(3)
    whay = Series(QQ, [h ** n * e1.recip[n] for n in range(6)])
    assert appell_from_alpha(whay, e1) == translation_matrix(e1, 3)

    a = appell_from_alpha(S(QQ, 6, 1, 1), e1)
    for n in range(6):
        assert a.entry(n, n) == QQ.one()
        if n:
            assert a.entry(n, n - 1) == QQ.scalar(n)
    with pytest.raises(NotValuationZero):
        appell_from_alpha(S(QQ, 6, 0, 1), e1)


def test_appell_group_law(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for _ in range(5):
        a, g = unit_series(QQ, 6, rng), unit_series(QQ, 6, rng)
        assert appell_from_alpha(a, e1) @ appell_from_alpha(g, e1) == appell_from_alpha(a * g, e1)


def test_dw_multiplier(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    y = Series.identity(QQ, 6)
    assert dw_multiplier(TriMatrix.identity(QQ, 6), e1) == y
    assert dw_multiplier(translation_matrix(e1, 1), e1) == y
    assert dw_multiplier(binom_pair_matrix(QQ, e1), e1) == S(QQ, 6, 0, 1, 1)
    with pytest.raises(NotSheffer):
        dw_multiplier(perturbed_non_riordan(e1, rng), e1)


def test_commute_with_mw_iff_all_translations(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    m = m_matrix(e1)
    hs = QQ.range_elements(6)
    ts = [translation_matrix(e1, h) for h in hs]

    # positive side: polynomials in M_W commute with every translation
    s = TriMatrix.identity(QQ, 6).scale(QQ.scalar(2)) + m @ m.scale(QQ.scalar("1/3"))
    assert s.commutes_with(m) and all(s.commutes_with(t) for t in ts)

    # negative side: a random lower-triangular both tests reject
    from riordanlab.sampling import graded_matrix

    for _ in range(5):
        r = graded_matrix(QQ, 6, rng)
        with_m = r.commutes_with(m)
        with_ts = all(r.commutes_with(t) for t in ts)
        assert with_m == with_ts


def test_translation_semigroup_exponential_only(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    for _ in range(5):
        g = QQ.scalar(rng.randint(-4, 4))
        h = QQ.scalar(rng.randint(-4, 4))
        assert translation_matrix(e1, g) @ translation_matrix(e1, h) == translation_matrix(e1, g + h)

    g1 = Weight.geometric(QQ, 6, 1)
    t1 = translation_matrix(g1, 1)
    assert t1 @ t1 != translation_matrix(g1, 2)


# -- normalizer, conjugator, differences ----------------------------------------


def test_is_normalizing(QQ, rng):
    e1 = Weight.exponential(QQ, 6, 1)
    assert is_normalizing(translation_matrix(e1, 1), e1, samples=3, rng=rng)
    assert is_normalizing(binom_pair_matrix(QQ, e1), e1, samples=3, rng=rng)

    bad = perturbed_non_riordan(e1, rng)
    assert not is_normalizing(bad, e1, samples=3, rng=rng)

    # non-geometric diagonal scaling is not Sheffer, hence not normalizing
    diag = TriMatrix.diagonal(QQ, [1, 1, 2, 1, 1, 1])
    assert not is_normalizing(diag, e1, samples=3, rng=rng)
    # a geometric diagonal is the matrix of the pair (1, r y): it normalizes
    geo = TriMatrix.diagonal(QQ, [2 ** n for n in range(6)])
    assert is_normalizing(geo, e1, samples=3, rng=rng)

    for _ in range(3):
        a = riordan_matrix(e1, rng)
        assert is_normalizing(a, e1, samples=3, rng=rng) == is_sheffer(a, e1)


def test_is_degree_decreasing(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    assert is_degree_decreasing(m_matrix(e1))
    assert not is_degree_decreasing(TriMatrix.zero(QQ, 6))
    assert is_degree_decreasing(finite_difference_matrix(e1, 1))
    assert not is_degree_decreasing(TriMatrix.identity(QQ, 6))


def test_solve_conjugator(QQ, rng):
    ones = Weight.geometric(QQ, 6, 1)
    shift = m_matrix(ones)
    assert solve_conjugator(shift) == TriMatrix.identity(QQ, 6)

    for m in (
        m_matrix(Weight.exponential(QQ, 6, 1)),
        finite_difference_matrix(Weight.exponential(QQ, 6, 1), 1),
        degree_decreasing_matrix(QQ, 6, rng),
    ):
        a = solve_conjugator(m)
        assert a.is_graded()
        assert a.column(0) == [QQ.one()] + [QQ.zero()] * 5
        assert a @ shift @ a.inverse() == m
        # bumping a seed entry without re-solving breaks the identity
        rows = [list(r) for r in a.rows]
        rows[3][0] = rows[3][0] + QQ.one()
        a2 = TriMatrix(QQ, rows)
        assert a2 @ shift != m @ a2

    with pytest.raises(NotDegreeDecreasing):
        solve_conjugator(TriMatrix.identity(QQ, 6))


def test_finite_difference(QQ):
    e1 = Weight.exponential(QQ, 5, 1)
    delta = finite_difference_matrix(e1, 1)
    sq = Polynomial.from_values(QQ, [0, 0, 1])
    assert str(apply_matrix_to_poly(delta, sq)) == "2*x + 1"

    g1 = Weight.geometric(QQ, 5, 1)
    assert str(apply_matrix_to_poly(finite_difference_matrix(g1, 1), sq)) == "x + 1"

    with pytest.raises(ZeroShift):
        finite_difference_matrix(e1, 0)


# -- shifted powers ---------------------------------------------------------------


def test_shifted_powers_exponential(QQ):
    e1 = Weight.exponential(QQ, 6, 1)
    for h in (1, -2, "1/2"):
        assert shifted_power_matrix(e1, h) == translation_matrix(e1, h)


def test_shifted_powers_geometric_roots(QQ):
    wq = Weight.q_factorial(QQ, 10, -1, 2)
    q, h = QQ.scalar(2), QQ.scalar(1)
    rows = matrix_to_polys(shifted_power_matrix(wq, h))
    for n in range(1, 10):
        for j in range(n):
            assert not rows[n].evaluate(-(q ** j * h))
        # and nowhere else: leading coefficient 1, degree n
        assert rows[n].degree == n


def test_plain_translation_rows_do_not_factor(QQ):
    # for q != 1 the translation matrix rows differ from the shifted powers
    wq = Weight.q_factorial(QQ, 6, -1, 2)
    t_rows = matrix_to_polys(translation_matrix(wq, 1))
    assert t_rows[2].evaluate(QQ.scalar(-1)) != QQ.zero()
    assert str(t_rows[2]) == "x^2 + 3*x + 1"
    s_rows = matrix_to_polys(shifted_power_matrix(wq, 1))
    assert str(s_rows[2]) == "x^2 + 3*x + 2"


def test_shifted_powers_are_appell(QQ):
    wq = Weight.q_factorial(QQ, 8, -1, 2)
    b = shifted_power_matrix(wq, 1)
    assert is_appell(b, wq)


def test_commutation_sampling_needs_enough_points():
    f5 = Field(5)
    w = Weight.geometric(f5, 6, 2)
    with pytest.raises(ValueError):
        sheffer_by_commutation(TriMatrix.identity(f5, 6), w)


def test_truncation_corner_fails_every_membership_test(QQ):
    # A bump at (N-1, N-2) of the identity moves both sides of every column
    # identity u_k^2 = u_{k-1} u_{k+1} only beyond coefficient N-1, but u_3 is
    # no longer u_0 beta^3 at y^4: the column test rejects it, as the
    # operator-level tests and pair extraction do.
    from riordanlab.errors import NotRiordan
    from riordanlab import is_riordan, matrix_to_pair

    w = Weight.geometric(QQ, 5, 1)
    rows = [list(r) for r in TriMatrix.identity(QQ, 5).rows]
    rows[4][3] = rows[4][3] + QQ.one()
    a = TriMatrix(QQ, rows)
    assert not is_riordan(a, w)
    for kind in ("riordan", "sheffer", "binomial"):
        assert check_report(a, w, kind) == {"kind": kind, "verdict": False,
                                            "alpha": None, "beta": None}
    assert not sheffer_by_commutation(a, w)
    assert not is_normalizing(a, w, samples=0)
    with pytest.raises(NotRiordan):
        matrix_to_pair(a, w)


def test_hpolymatrix_rejects_foreign_coefficients(QQ, F7):
    one = QQ.one()
    for stray in (F7.one(), F7.zero(), 1):  # a trailing zero or a bare int too
        with pytest.raises(BackendMismatch, match="^coefficient .* does not belong to QQ$"):
            HPolyMatrix(QQ, [[[one]], [[one, stray], [one]]])
    assert HPolyMatrix(QQ, [[[one]], [[], [one]]]).entry(1, 0) == ()


def test_d_polynomials_output_passes_the_public_check(QQ):
    # d_polynomials wraps its coefficients unchecked; they must pass the check
    for field in (QQ, Field(1000003)):
        W = Weight.exponential(field, 8, 2)
        d = d_polynomials(riordan_matrix(W, random.Random(8)), W)
        assert HPolyMatrix(field, d.entries) == d


def _expansion_weight(kind, field, n, rng):
    if kind == "exponential":
        return Weight.exponential(field, n, 1)
    if kind == "geometric":
        return Weight.geometric(field, n, 3)
    if kind == "q-factorial":
        return Weight.q_factorial(field, n, 2, 3)  # 3 has order > 64 mod 1000003
    return weight(field, n, rng)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([None, 1000003]),
    st.integers(2, 12),
    st.sampled_from(["exponential", "geometric", "q-factorial", "random"]),
    st.integers(0, 2**32 - 1),
)
def test_translation_expansion_is_the_binomial_associate(p, n, wkind, seed):
    # The weighted Sheffer identity s_n(x+h)/w_n = sum_k s_k(x)/w_k q_{n-k}(h)/w_{n-k}:
    # for Sheffer A, every slot of diagonal l of d_polynomials(A, W) holds row l
    # of the binomial associate, computed here from the pair, not from the
    # translations.
    field, rng = Field(p), random.Random(seed)
    W = _expansion_weight(wkind, field, n, rng)
    A = riordan_matrix(W, rng)
    d, q = d_polynomials(A, W), binomial_associate(A, W)
    for l in range(n):
        for k in range(n - l):
            assert d.entry(k + l, k) == q.rows[l]


def test_hpolymatrix_rejects_indices_out_of_range(QQ):
    W = Weight.exponential(QQ, 4, 1)
    d = d_polynomials(translation_matrix(W, 1), W)
    assert d.entry(3, 0) == d.diagonal(3) and d.entry(3, 3) == d.diagonal(0)
    for n, k in ((-1, 0), (4, 0), (3, -1), (2, 3)):  # (-1, 0) once read (3, 0), (3, -1) read (3, 3)
        with pytest.raises(IndexError, match=rf"^entry \({n}, {k}\) out of range$"):
            d.entry(n, k)
    for l in (-1, 4):  # -1 once read (3, 0)
        with pytest.raises(IndexError, match=rf"^entry \({l}, 0\) out of range$"):
            d.diagonal(l)
