from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import INFINITY, Field, Series, TriMatrix
from riordanlab import series as series_module
from riordanlab.errors import (
    BackendMismatch,
    InnerValuationZero,
    NotInvertible,
    NotValuationOne,
)
from riordanlab.functionals import Functional, functional_power
from riordanlab.sampling import series as sampled_series

from support import S


def test_valuation(QQ):
    assert S(QQ, 4, 1, 1).valuation() == 0
    assert S(QQ, 4, 0, 0, 1, 1).valuation() == 2
    assert Series.zero(QQ, 4).valuation() == INFINITY


def test_mul(QQ):
    one_plus = S(QQ, 4, 1, 1)
    one_minus = S(QQ, 4, 1, -1)
    assert one_plus * one_minus == S(QQ, 4, 1, 0, -1)
    s = S(QQ, 4, 2, 0, 5)
    assert s * Series.one(QQ, 4) == s
    # telescoping: (sum y^n)(1 - y) = 1 at any order
    geom = S(QQ, 6, *([1] * 6))
    assert geom * S(QQ, 6, 1, -1) == Series.one(QQ, 6)


def test_invert(QQ):
    assert S(QQ, 5, 1, -1).invert() == S(QQ, 5, *([1] * 5))
    assert Series.one(QQ, 4).invert() == Series.one(QQ, 4)
    with pytest.raises(NotInvertible):
        S(QQ, 4, 0, 1, 1).invert()


def test_truediv(QQ, F7):
    a, b = S(QQ, 5, 1, 2, 3), S(QQ, 5, 2, -1, 0, 4)
    assert a / b == a * b.invert()
    assert (a / b) * b == a
    x, y = S(F7, 5, 3, 1), S(F7, 5, 5, 0, 2)
    assert x / y == x * y.invert()
    with pytest.raises(BackendMismatch, match="^expected Series, got int$"):
        a / 3
    with pytest.raises(BackendMismatch, match="^series orders or fields differ$"):
        a / x
    with pytest.raises(NotInvertible, match="^constant term vanishes$"):
        a / S(QQ, 5, 0, 1)
    # an operand both of another order and not invertible: the mismatch wins
    with pytest.raises(BackendMismatch, match="^series orders or fields differ$"):
        a / S(QQ, 4, 0, 1)


def test_compose(QQ):
    expish = S(QQ, 4, "1", "1", "1/2", "1/6")
    assert expish.compose(Series.identity(QQ, 4)) == expish
    # (y + y^2)^2 = y^2 + 2 y^3 + y^4, truncated at order 4
    assert S(QQ, 4, 0, 0, 1).compose(S(QQ, 4, 0, 1, 1)) == S(QQ, 4, 0, 0, 1, 2)
    with pytest.raises(InnerValuationZero):
        expish.compose(S(QQ, 4, 1, 1))


def test_comp_inverse(QQ):
    y = Series.identity(QQ, 4)
    assert y.comp_inverse() == y
    # back-substitution by hand: g2 = -1, g3 = 2
    assert S(QQ, 4, 0, 1, 1).comp_inverse() == S(QQ, 4, 0, 1, -1, 2)
    assert S(QQ, 4, 0, 2).comp_inverse() == S(QQ, 4, 0, "1/2")
    with pytest.raises(NotValuationOne):
        S(QQ, 4, 1, 1).comp_inverse()
    with pytest.raises(NotValuationOne):
        S(QQ, 4, 0, 0, 1).comp_inverse()


def test_comp_inverse_is_two_sided(QQ):
    b = S(QQ, 6, 0, 3, -1, "1/2", 0, 2)
    g = b.comp_inverse()
    y = Series.identity(QQ, 6)
    assert b.compose(g) == y
    assert g.compose(b) == y


def test_json_roundtrip(QQ, F7):
    s = S(QQ, 4, "1/2", "-3", 0, "7")
    assert Series.from_json(QQ, s.to_json()) == s
    t = S(F7, 4, 1, 6, 3)
    assert Series.from_json(F7, t.to_json()) == t


def _coeff_lists(order):
    return st.lists(
        st.fractions(min_value=-4, max_value=4, max_denominator=3),
        min_size=order,
        max_size=order,
    )


@settings(max_examples=50, deadline=None)
@given(_coeff_lists(6), _coeff_lists(6))
def test_valuation_multiplicative(a, b):
    f = Field()
    x, y = Series.from_values(f, 6, a), Series.from_values(f, 6, b)
    va, vb = x.valuation(), y.valuation()
    if va + vb < 6:
        assert (x * y).valuation() == va + vb


@settings(max_examples=30, deadline=None)
@given(_coeff_lists(5), _coeff_lists(4), _coeff_lists(4))
def test_compose_associative(a, b, c):
    f = Field()
    outer = Series.from_values(f, 5, a)
    g = Series.from_values(f, 5, [0] + b)
    h = Series.from_values(f, 5, [0] + c)
    assert outer.compose(g).compose(h) == outer.compose(g.compose(h))


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=1, max_value=4, max_denominator=3), _coeff_lists(4))
def test_comp_inverse_involution(lead, rest):
    f = Field()
    b = Series.from_values(f, 6, [0, lead] + rest)
    assert b.comp_inverse().comp_inverse() == b


@settings(max_examples=40, deadline=None)
@given(_coeff_lists(6), _coeff_lists(6))
def test_inverse_of_product(a, b):
    f = Field()
    x, y = Series.from_values(f, 6, a), Series.from_values(f, 6, b)
    if x.coeff(0) and y.coeff(0):
        assert (x * y).invert() == y.invert() * x.invert()


def test_order_bounds(QQ):
    import pytest

    with pytest.raises(ValueError):
        Series(QQ, [QQ.one()])
    with pytest.raises(ValueError):
        Series.zero(QQ, 65)


# -- constructors check the order first, and powers square ---------------------


def zero_reference(field, order):
    return Series(field, [field.zero()] * order)


def constant_reference(field, order, c):
    return Series(field, [field.scalar(c)] + [field.zero()] * (order - 1))


def monomial_reference(field, order, k, c=1):
    if not 0 <= k < order:
        raise ValueError(f"exponent {k} out of range for order {order}")
    coeffs = [field.zero()] * order
    coeffs[k] = field.scalar(c)
    return Series(field, coeffs)


def from_values_reference(field, order, values):
    """Build from ints/strings/Scalars, zero-padding up to `order`."""
    vals = [field.scalar(v) for v in values]
    if len(vals) > order:
        raise ValueError(f"{len(vals)} coefficients exceed order {order}")
    vals += [field.zero()] * (order - len(vals))
    return Series(field, vals)


def identity_reference(field, order):
    one, zero = field.one(), field.zero()
    return TriMatrix(field, [[zero] * n + [one] for n in range(order)])


def trimatrix_zero_reference(field, order):
    zero = field.zero()
    return TriMatrix(field, [[zero] * (n + 1) for n in range(order)])


def diagonal_reference(field, entries):
    zero = field.zero()
    return TriMatrix(
        field,
        [[zero] * n + [field.scalar(d)] for n, d in enumerate(entries)],
    )


def pow_reference(s, k):
    out = Series.one(s.field, s.order)
    for _ in range(k):
        out = out * s
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


@pytest.mark.parametrize("p", [None, 2, 1000003])
@pytest.mark.parametrize("order", [1, 2, 3, 16, 64, 65, 66])
def test_constructors_match_their_references(p, order):
    # the orders 1 and 65 up fail with the same message; the values are valid
    field = Field(p)
    pairs = [(Series.zero, zero_reference, (field, order)),
             (Series.constant, constant_reference, (field, order, 3)),
             (TriMatrix.identity, identity_reference, (field, order)),
             (TriMatrix.zero, trimatrix_zero_reference, (field, order)),
             (TriMatrix.diagonal, diagonal_reference, (field, [k + 1 for k in range(order)]))]
    for k in (0, 1, order - 1, order, order + 3):
        pairs.append((Series.monomial, monomial_reference, (field, order, k, 5)))
    for count in (0, 1, order, order + 1):
        pairs.append((Series.from_values, from_values_reference, (field, order, list(range(count)))))
    for new, reference, args in pairs:
        assert outcome(new, *args) == outcome(reference, *args), new.__name__


@pytest.mark.parametrize("order", [65, 3000])
def test_constructors_check_the_order_before_they_allocate(QQ, order, monkeypatch):
    def unreachable(*args):
        raise AssertionError("an entry was built before the order check")

    for name in ("zero", "one", "scalar"):
        monkeypatch.setattr(Field, name, unreachable)
    builds = [lambda: Series.zero(QQ, order),
              lambda: Series.one(QQ, order),
              lambda: Series.constant(QQ, order, 3),
              lambda: Series.identity(QQ, order),
              lambda: Series.monomial(QQ, order, order - 1, 2),
              lambda: Series.from_values(QQ, order, [1, 2, 3]),
              lambda: TriMatrix.identity(QQ, order),
              lambda: TriMatrix.zero(QQ, order),
              lambda: TriMatrix.diagonal(QQ, [1] * order)]
    for build in builds:
        with pytest.raises(ValueError) as raised:
            build()
        assert type(raised.value) is ValueError
        assert str(raised.value) == f"order must be in 2..64, got {order}"


def test_the_count_and_the_exponent_still_win_over_the_order(QQ):
    for build, message in [(lambda: Series.from_values(QQ, 1, [1, 2, 3]), "3 coefficients exceed order 1"),
                           (lambda: Series.from_values(QQ, 65, [0] * 66), "66 coefficients exceed order 65"),
                           (lambda: Series.monomial(QQ, 1, 1), "exponent 1 out of range for order 1"),
                           (lambda: Series.monomial(QQ, 65, 70), "exponent 70 out of range for order 65")]:
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_pow_squares(QQ, monkeypatch):
    products, convolve = [], series_module._convolve

    def counting(*args):
        products.append(args)
        return convolve(*args)

    monkeypatch.setattr(series_module, "_convolve", counting)
    k = 1000
    got = S(QQ, 4, 1, 1) ** k
    assert len(products) <= 2 * k.bit_length()
    assert got == S(QQ, 4, *[comb(k, j) for j in range(4)])
    assert S(QQ, 4, 1, 1) ** 10**9 == S(QQ, 4, *[comb(10**9, j) for j in range(4)])


@pytest.mark.parametrize("p", [None, 2, 1000003])
def test_pow_matches_the_k_fold_product(p, rng):
    field = Field(p)
    for order in (2, 3, 5, 8):
        for valuation in (0, 0, 1, 2):
            s = sampled_series(field, order, rng, min(valuation, order - 1))
            phi = Functional.from_series(s)
            for k in range(21):
                assert s ** k == pow_reference(s, k), (order, valuation, k)
                assert functional_power(phi, k) == Functional.from_series(pow_reference(s, k))
    with pytest.raises(ValueError, match="negative powers"):
        s ** -1


# -- the integer product kernel and the O(N^3) reversion, against references --


def schoolbook_mul(x, y):
    """Coefficient m of x*y as a sum of Scalar products: the reference kernel."""
    a, b = x.coeffs, y.coeffs
    out = []
    for m in range(len(a)):
        acc = a[0] * b[m]
        for i in range(1, m + 1):
            acc = acc + a[i] * b[m - i]
        out.append(acc)
    return Series(x.field, out)


def back_substitution_inverse(f):
    """Compositional inverse by N-2 full compositions: the reference reversion."""
    field, n = f.field, f.order
    f1_inv = f.coeffs[1].inverse()
    g = [field.zero()] * n
    g[1] = f1_inv
    for m in range(2, n):
        # coefficient m of f(g) with g_m still 0 must be cancelled
        g[m] = -(f1_inv * f.compose(Series(field, g)).coeffs[m])
    return Series(field, g)


@st.composite
def _series_pairs(draw):
    p = draw(st.sampled_from([None, 2, 3, 7, 1000003]))
    n = draw(st.integers(2, 12))
    if p is None:  # mixed denominators, including 1 and coprime ones
        coeff = st.fractions(min_value=-50, max_value=50, max_denominator=30)
    else:
        coeff = st.integers(0, p - 1)
    a, b = (draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(2))
    f = Field(p)
    return Series.from_values(f, n, a), Series.from_values(f, n, b)


@settings(max_examples=150, deadline=None)
@given(_series_pairs())
def test_mul_matches_schoolbook(pair):
    x, y = pair
    assert x * y == schoolbook_mul(x, y)


@pytest.mark.parametrize("p", [2, 3])
def test_comp_inverse_two_sided_beyond_characteristic(p, rng):
    f = Field(p)
    n = 16  # N > p: Lagrange inversion would need 1/n with n = 0 in GF(p)
    y = Series.identity(f, n)
    for _ in range(5):
        b = Series.from_values(f, n, [0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)])
        g = b.comp_inverse()
        assert b.compose(g) == y
        assert g.compose(b) == y


@pytest.mark.parametrize("p", [None, 2, 5, 1000003])
def test_comp_inverse_matches_back_substitution(p, rng):
    f = Field(p)
    for n in (2, 3, 4, 9, 14):
        for _ in range(3):
            if p is None:
                vals = [0, f"{rng.randint(1, 9)}/{rng.randint(1, 9)}"]
                vals += [f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}" for _ in range(n - 2)]
            else:
                vals = [0, rng.randrange(1, p)] + [rng.randrange(p) for _ in range(n - 2)]
            b = Series.from_values(f, n, vals)
            assert b.comp_inverse() == back_substitution_inverse(b)


def test_coeff_rejects_indices_out_of_range(QQ):
    s = Series.from_values(QQ, 4, [1, 2, 3, 4])
    assert [s.coeff(n) for n in range(4)] == list(s.coeffs)
    for n in (-1, 4):  # -1 once read the last coefficient
        with pytest.raises(IndexError, match=f"^coefficient {n} out of range$"):
            s.coeff(n)
