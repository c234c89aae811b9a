"""The running-product constructors against the loops they replace.

Weight.exponential, geometric, q_factorial and rescale, Series.exp, the
series W(hy) behind translation_matrix, exp_case_weights,
tilde_weight_from_gamma and q_binomial build each entry from the one
before.  Each must give the values, or raise the error (type and message),
of the loop it replaces (tests/references.py) over QQ, GF(2), GF(3), GF(5)
and GF(1000003) at N = 2..64, with N > p, lam = 0, q a root of unity and
sigma = 0 among the inputs, and so must Weight(field, values) against the
weight that kept Scalar tuples.  Each but q_binomial multiplies integers
in series._running_product and returns a reduced raw form with no Scalar
view built (support.raw_built): it builds as many Scalars at N = 64 as at
N = 8, and hands the helper N - 1 steps whose integers do not grow with N
(the steps of q_factorial hold 1 - q^n, which grow by the bits of q per
index); q_binomial takes at most 4 N Scalar products at N = 64, where the
replaced loops took quadratically many.  solve_conjugator keeps its
Krylov columns raw and must give the matrix of its replaced Scalar loop.
"""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest

from references import (
    WeightReference,
    exp_case_weights_reference,
    exp_reference,
    exponential_reference,
    geometric_reference,
    q_binomial_reference,
    q_factorial_reference,
    rescale_reference,
    solve_conjugator_reference,
    tilde_weight_from_gamma_reference,
    translation_series_reference,
)
from riordanlab import Field, Scalar, Series, TriMatrix, operators, riordan, series
from riordanlab.errors import MathDomainError
from riordanlab.operators import (
    _translation_series,
    appell_from_alpha,
    finite_difference_matrix,
    m_matrix,
    solve_conjugator,
    translation_matrix,
)
from riordanlab.riordan import Weight
from riordanlab.scalars import q_binomial
from riordanlab.series import MAX_ORDER
from riordanlab.twoweight import GammaSeq, exp_case_weights, gamma_sequence, tilde_weight_from_gamma
from support import raw_built

PRIMES = [None, 2, 3, 5, 1000003]
ORDERS = [2, 3, 4, 7, 16, 31, MAX_ORDER]


def outcome(f, *args):
    """The plain values of what a call returns, or the type and message of
    the error it raised."""
    try:
        out = f(*args)
    except (MathDomainError, ValueError, ZeroDivisionError) as e:
        return type(e), str(e)
    if isinstance(out, (Weight, WeightReference)):
        return [x.val for x in out.w], [x.val for x in out.recip]
    if isinstance(out, Series):
        return [x.val for x in out.coeffs]
    if isinstance(out, TriMatrix):
        return [[x.val for x in row] for row in out.rows]
    return out.val


def built(f, *args):
    """outcome of a constructor that must return a reduced raw form with no
    Scalar view built (support.raw_built)."""
    return outcome(lambda: raw_built(f(*args)))


def root_of_unity(p):
    """q != 1 with q^d = 1 for a small d; 1 itself in GF(2), which has no other."""
    if p == 1000003:  # p = 1 mod 3: a primitive cube root of unity
        return next(r for r in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if r != 1)
    return 1 if p == 2 else -1


def parameters(p):
    """Named parameters of GF(p) (QQ for None): zero, one, a root of unity
    and two random elements."""
    rng = random.Random(p or 0)
    if p is None:
        draws = [Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 36)) for _ in range(2)]
    else:
        draws = [rng.randrange(1, p) for _ in range(2)]
    return {"zero": 0, "one": 1, "root": root_of_unity(p), "random": draws[0], "other": draws[1]}


def plain_values(field, order, seed=0):
    """1 and N - 1 random nonzero values: signed fractions over QQ."""
    rng, p = random.Random(order + seed), field.p
    return [1] + [Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 36))
                  if p is None else rng.randrange(1, p) for _ in range(order - 1)]


def plain_weight(field, order, seed=0):
    """A weight of random nonzero values."""
    return Weight(field, plain_values(field, order, seed))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_user_weights_match_the_scalar_tuples(p, order):
    field = Field(p)
    vals = plain_values(field, order)
    for values in [vals, [str(v) for v in vals], [2] + vals[1:], vals[:-1] + [0], vals[:1]]:
        assert built(Weight, field, values) == outcome(WeightReference, field, values)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_weights_match_the_replaced_loops(p, order):
    field, params = Field(p), parameters(p)
    W = plain_weight(field, order)
    for name, lam in params.items():
        for build, reference in [(Weight.exponential, exponential_reference),
                                 (Weight.geometric, geometric_reference)]:
            got = built(build, field, order, lam)
            assert got == outcome(reference, field, order, lam), (build.__name__, name)
        assert built(W.rescale, lam) == outcome(rescale_reference, W, lam), name
        for q_name, q in params.items():
            got = built(Weight.q_factorial, field, order, lam, q)
            assert got == outcome(q_factorial_reference, field, order, lam, q), (name, q_name)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_tilde_weight_matches_the_replaced_loop(p, order):
    field = Field(p)
    W, W2 = plain_weight(field, order), plain_weight(field, order, seed=1)
    gamma = gamma_sequence(W, W2).values
    zero = tuple(g if k != order // 2 else field.zero() for k, g in enumerate(gamma))
    foreign = Field(7 if p != 7 else 5).one()
    for values in [gamma, zero, gamma[1:], gamma[:-1] + (foreign,), (foreign,) + zero[1:]]:
        got = built(tilde_weight_from_gamma, W, GammaSeq(values))
        assert got == outcome(tilde_weight_from_gamma_reference, W, GammaSeq(values))
    assert outcome(tilde_weight_from_gamma, W, GammaSeq(gamma)) == outcome(lambda: W2)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_series_match_the_replaced_loops(p, order):
    field, params = Field(p), parameters(p)
    weights = [plain_weight(field, order)]
    if p is None or order <= p:
        weights.append(Weight.exponential(field, order, params["other"] or 1))
    for name, h in params.items():
        assert built(Series.exp, field, order, h) == outcome(exp_reference, field, order, h), name
        for W in weights:
            series = outcome(translation_series_reference, W, h)
            assert built(_translation_series, W, h) == series, name
            assert outcome(translation_matrix, W, h) == outcome(
                lambda: appell_from_alpha(translation_series_reference(W, h), W)), name


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_exp_case_weights_match_the_replaced_loop(p, order):
    field, params = Field(p), parameters(p)
    sigma = params["random"]
    lams = list(params.values()) + [k * sigma for k in (1, 2, order - 2, order - 1, order)]
    for lam in lams:
        for s in (sigma, params["other"], 0):
            got = built(exp_case_weights, field, order, lam, s)
            assert got == outcome(exp_case_weights_reference, field, order, lam, s), (lam, s)


@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_q_binomial_matches_the_replaced_loop(p):
    field = Field(p)
    for name, q in parameters(p).items():
        q = field.scalar(q)
        for l in (0, 1, 2, 5, 16, MAX_ORDER):
            for k in sorted({-1, 0, 1, l // 2, l - 1, l, l + 1}):
                got = outcome(q_binomial, l, k, q)
                assert got == outcome(q_binomial_reference, l, k, q), (name, l, k)


def builds(field, n):
    """The running-product constructors at order n, by name."""
    W = plain_weight(field, n)
    gamma = GammaSeq(tuple([field.scalar(Fraction(-2 - k % 3, 5) if field.p is None else 2 + k % 3)
                            for k in range(n - 1)]))
    out = {
        "exponential": lambda: Weight.exponential(field, n, 3),
        "geometric": lambda: Weight.geometric(field, n, 3),
        "q_factorial": lambda: Weight.q_factorial(field, n, 5, Fraction(3, 2) if field.p is None else 3),
        "rescale": lambda: W.rescale(3),
        "tilde_weight_from_gamma": lambda: tilde_weight_from_gamma(W, gamma),
        "Series.exp": lambda: Series.exp(field, n, 3),
        "W(hy)": lambda: _translation_series(W, 3),
    }
    if field.p is None:
        out["exp_case_weights"] = lambda: exp_case_weights(field, n, Fraction(1, 2), 3)
    return out


def step_bits(build):
    """(the Scalars a build makes, and the largest bit length in the steps
    of each call of series._running_product it makes, which must be N - 1
    steps each); the spy replaces the helper where each module imports it."""
    helper, bits = series._running_product, []

    def spy(p, steps):
        assert len(steps) == len(helper(p, steps)[0]) - 1
        bits.append(max(abs(x).bit_length() for step in steps for x in step))
        return helper(p, steps)

    with mock.patch.object(Scalar, "__init__", autospec=True,
                           side_effect=Scalar.__init__) as made, \
            mock.patch.object(series, "_running_product", spy), \
            mock.patch.object(riordan, "_running_product", spy), \
            mock.patch.object(operators, "_running_product", spy):
        build()
    return made.call_count, bits


@pytest.mark.parametrize("p", [None, 1000003], ids=str)
def test_constructors_take_linearly_many_products(p):
    # at N = 64 the replaced loops took thousands of Scalar products: a power
    # or a factorial per index; the running products build no Scalar per index
    field = Field(p)
    small, large = builds(field, 8), builds(field, MAX_ORDER)
    for name in small:
        (made8, bits8), (made64, bits64) = step_bits(small[name]), step_bits(large[name])
        assert made8 == made64, (name, made8, made64)
        assert bits64 and len(bits64) == len(bits8), name
        if p is not None:  # a residue, or a product of two and a factor n
            assert max(bits64) <= 2 * p.bit_length() + 6, (name, bits64)
            continue
        # a step of q_factorial holds 1 - q^n, log2(3) bits more per index
        # over QQ; a factor n adds at most log2(64 / 8) bits to the others
        grow = 2 * (MAX_ORDER - 8) if name == "q_factorial" else 3
        assert max(bits64) <= max(bits8) + grow, (name, bits8, bits64)
    with mock.patch.object(Scalar, "__mul__", autospec=True,
                           side_effect=Scalar.__mul__) as counted:
        q_binomial(MAX_ORDER, MAX_ORDER // 2, field.scalar(3))
    assert 0 < counted.call_count <= 4 * MAX_ORDER, counted.call_count


def strictly_lower(field, order, rng):
    """A random strictly lower matrix with a nonzero subdiagonal, of
    rational entries over QQ."""
    def entry(i, k):
        x = rng.randint(-9, 9) if k < i - 1 else (rng.randint(1, 4) if k < i else 0)
        return field.scalar(Fraction(x, rng.randint(1, 5)) if field.p is None else x)
    return TriMatrix.from_entries(field, order, entry)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("p", [None, 5, 1000003], ids=str)
def test_solve_conjugator_matches_the_replaced_loop(p, order):
    field = Field(p)
    if p is None or order < p:
        W = Weight.q_factorial(field, order, -1, 2)
    else:
        W = Weight.geometric(field, order, 2)
    for M in [m_matrix(W), finite_difference_matrix(W, 3), finite_difference_matrix(W, -1),
              strictly_lower(field, order, random.Random(order))]:
        A = solve_conjugator(M)
        assert A._rows is None  # raw columns: no Scalar built
        for ints, den in A._columns():
            assert den > 0 and gcd(den, *ints) == 1
            assert p is None or (den == 1 and all(0 <= x < p for x in ints))
        assert outcome(lambda: A) == outcome(solve_conjugator_reference, M)
    I = TriMatrix.identity(field, order)
    assert outcome(solve_conjugator, I) == outcome(solve_conjugator_reference, I)
