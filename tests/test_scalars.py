import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, extended_binomial, factorial_inv, q_binomial
from riordanlab.errors import BackendMismatch, DivisionByZero, NotInvertible, RootOfUnity
from riordanlab.scalars import PRIME_BOUND, parse_scalar


def test_rational_arithmetic(QQ):
    assert QQ.scalar("1/2") + QQ.scalar("1/3") == QQ.scalar("5/6")
    assert QQ.scalar("2/3") * QQ.scalar("3/4") == QQ.scalar("1/2")
    assert -QQ.scalar("1/2") == QQ.scalar("-1/2")


def test_modular_arithmetic(F7):
    assert F7.scalar(3) * F7.scalar(5) == F7.scalar(1)
    assert F7.scalar(3) - F7.scalar(5) == F7.scalar(5)
    assert F7.scalar(10) == F7.scalar(3)


def test_division_by_zero(QQ, F7):
    with pytest.raises(DivisionByZero):
        QQ.scalar("2/3") / QQ.scalar(0)
    with pytest.raises(DivisionByZero):
        F7.scalar(1) / F7.scalar(0)


def test_backend_mismatch(QQ, F7):
    with pytest.raises(BackendMismatch):
        QQ.scalar(1) + F7.scalar(1)
    with pytest.raises(BackendMismatch):
        Field(5).scalar(1) * F7.scalar(1)
    assert QQ.scalar(1) != F7.scalar(1)  # equality answers instead of raising


def test_non_prime_modulus_rejected():
    with pytest.raises(ValueError):
        Field(6)


def test_primality_is_exact_up_to_the_bound():
    assert Field(2305843009213693951).p == 2**61 - 1  # trial division never ends here
    with pytest.raises(ValueError, match="not prime"):
        Field(561)  # Carmichael: a Fermat liar for every coprime base
    with pytest.raises(ValueError, match="not prime"):
        Field(318665857834031151167461)  # strong pseudoprime to the bases 2..37
    with pytest.raises(ValueError, match="bound"):
        Field(PRIME_BOUND)
    with pytest.raises(ValueError, match="bound"):
        Field(2**89 - 1)  # prime, but beyond the proven range


def test_parse_and_format(QQ, F7):
    for text in ["0", "5", "-3", "5/6", "-1/8"]:
        assert str(QQ.parse(text)) == text
    assert str(F7.parse("10")) == "3 mod 7"
    assert str(F7.parse("3 mod 7")) == "3 mod 7"
    with pytest.raises(BackendMismatch):
        QQ.parse("3 mod 7")
    with pytest.raises(BackendMismatch):
        F7.parse("3 mod 5")
    assert parse_scalar("3 mod 7") == F7.scalar(3)
    assert parse_scalar("5/6") == QQ.scalar("5/6")


def test_parse_accepts_only_the_scalar_grammar(QQ, F7):
    assert QQ.parse(" +4/6 ") == QQ.scalar(2) / QQ.scalar(3)
    assert QQ.parse("-007") == QQ.scalar(-7)
    assert F7.parse("-1") == F7.scalar(6)
    assert F7.parse(" 10 mod 7 ") == F7.scalar(3)
    # literals that int(), Fraction or mpq would take but the grammar does not
    rejected = ["0.5", "1e3", "1_000", "nan", "inf", "1 / 2", "+-1", "", "/2", "1/-2",
                "1/+2", "-3 mod 7", "\u0663", "0x10"]
    for field in (QQ, F7):
        for text in rejected:
            with pytest.raises(ValueError):
                field.parse(text)
            with pytest.raises(ValueError):
                parse_scalar(text)
    with pytest.raises(ValueError):
        F7.parse("1/2")  # a/b belongs to QQ only
    for text in ("1/0", " -3/000 ", "0/0"):
        with pytest.raises(ZeroDivisionError) as err:
            QQ.parse(text)
        assert str(err.value) == f"'{text.strip()}' has a zero denominator"
    with pytest.raises(ZeroDivisionError, match="'1/0' has a zero denominator"):
        parse_scalar("1/0")


def test_factorial_inv(QQ, F7):
    assert factorial_inv(QQ, 4) == QQ.scalar("1/24")
    assert factorial_inv(F7, 3) == F7.scalar(6)  # 6 * 6 = 36 = 1 mod 7
    with pytest.raises(NotInvertible):
        factorial_inv(F7, 7)


def test_extended_binomial_values(QQ):
    # defining product (1/2)(-1/2) / 2! evaluated by hand
    assert extended_binomial(QQ.scalar("1/2"), 2) == QQ.scalar("-1/8")
    assert extended_binomial(QQ.scalar(5), 2) == QQ.scalar(10)
    assert extended_binomial(QQ.scalar("7/3"), 0) == QQ.scalar(1)


def test_extended_binomial_matches_integer_binomial(QQ):
    for n in range(8):
        for k in range(n + 1):
            assert extended_binomial(QQ.scalar(n), k) == QQ.scalar(math.comb(n, k))


def test_extended_binomial_mod_p(F7):
    # valid whenever the lower factorial is invertible (n < p)
    assert extended_binomial(F7.scalar(5), 2) == F7.scalar(10 % 7)
    with pytest.raises(NotInvertible):
        extended_binomial(F7.scalar(5), 7)


def test_q_binomial_values(QQ):
    assert q_binomial(2, 1, QQ.scalar(2)) == QQ.scalar(3)  # (1-4)/(1-2)
    assert q_binomial(5, 0, QQ.scalar(3)) == QQ.scalar(1)
    with pytest.raises(RootOfUnity):
        q_binomial(2, 1, QQ.scalar(1))
    with pytest.raises(ValueError):
        q_binomial(1, 2, QQ.scalar(2))


def _gauss_poly(l, k):
    """Integer-coefficient q-binomial via the q-Pascal recursion (oracle)."""
    if k < 0 or k > l:
        return [0]
    if k == 0 or k == l:
        return [1]
    left = _gauss_poly(l - 1, k - 1)
    right = _gauss_poly(l - 1, k)
    # [l choose k]_q = [l-1 choose k-1]_q + q^k [l-1 choose k]_q
    out = [0] * max(len(left), len(right) + k)
    for i, c in enumerate(left):
        out[i] += c
    for i, c in enumerate(right):
        out[i + k] += c
    return out


def test_q_binomial_against_polynomial_oracle(QQ):
    for l in range(6):
        for k in range(l + 1):
            poly = _gauss_poly(l, k)
            assert sum(poly) == math.comb(l, k)  # q -> 1 specialization
            at2 = sum(c * 2 ** i for i, c in enumerate(poly))
            assert q_binomial(l, k, QQ.scalar(2)) == QQ.scalar(at2)


small_rationals = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
)


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals, small_rationals)
def test_field_axioms_rationals(a, b, c):
    f = Field()
    x, y, z = f.scalar(a), f.scalar(b), f.scalar(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    if y:
        assert (x / y) * y == x


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
def test_field_axioms_gf7(a, b, c):
    f = Field(7)
    x, y, z = f.scalar(a), f.scalar(b), f.scalar(c)
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    if y:
        assert (x / y) * y == x
    assert x - x == f.zero()


@settings(max_examples=60, deadline=None)
@given(small_rationals, small_rationals, st.integers(0, 10))
def test_vandermonde_convolution(xi, eta, n):
    f = Field()
    x, e = f.scalar(xi), f.scalar(eta)
    total = f.zero()
    for r in range(n + 1):
        total = total + extended_binomial(x, r) * extended_binomial(e, n - r)
    assert total == extended_binomial(x + e, n)


@settings(max_examples=60, deadline=None)
@given(small_rationals, st.integers(1, 10))
def test_pascal_rule(xi, l):
    f = Field()
    x = f.scalar(xi)
    assert extended_binomial(x + f.one(), l) == extended_binomial(x, l) + extended_binomial(x, l - 1)
