"""The Scalar-level constructors against their closed forms on plain numbers.

Weight.exponential, geometric, q_factorial and rescale, exp_case_weights,
tilde_weight_from_gamma (a round trip with gamma_sequence), Series.exp,
factorial_inv, extended_binomial, translation_matrix and eval_functional
each have a closed form.  The references compute it on fractions.Fraction
over QQ and on Python ints mod p over GF(p), never through Scalar, so that
a faster constructor can be checked against them.  Every value, and the
type and message of every raised error, must agree over QQ, GF(2), GF(3)
and GF(1000003) at N = 2..16, with lam = 0, q a root of unity and N > p
among the inputs.  Weight(field, values) is checked on every tuple of
values of GF(2) and GF(3) at N <= 4, and must hold a reduced raw form
with no Scalar view built (support.raw_built).
"""

import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series
from riordanlab.errors import (
    BackendMismatch,
    CharP,
    DivisionByZero,
    ForbiddenLambda,
    InvalidWeight,
    MathDomainError,
    NotInvertible,
    RootOfUnity,
    ZeroLambda,
)
from riordanlab.functionals import eval_functional
from riordanlab.operators import translation_matrix
from riordanlab.riordan import Weight
from riordanlab.scalars import extended_binomial, factorial_inv
from riordanlab.twoweight import GammaSeq, exp_case_weights, gamma_sequence, tilde_weight_from_gamma
from support import raw_built

# -- plain arithmetic: a Fraction over QQ (p is None), an int in [0, p) over GF(p)


def red(p, x):
    return Fraction(x) if p is None else x % p


def inv(p, x):
    if not x:
        raise DivisionByZero("division by zero")
    return 1 / x if p is None else pow(x, p - 2, p)


def mul(p, *xs):
    return red(p, prod(xs, start=1))


def power(p, x, n):
    return x ** n if p is None else pow(x, n, p)


def field_name(p):
    return "QQ" if p is None else f"GF({p})"


# -- the closed forms -----------------------------------------------------------


def weight_reference(p, w):
    """What a Weight of the nonzero values w holds: (w, 1/w)."""
    return w, [inv(p, x) for x in w]


def user_weight_reference(p, w):
    """What Weight(field, w) holds for plain values w, or the error it
    raises: the order, then w_0 = 1, then the first zero."""
    if not 2 <= len(w) <= 64:
        raise ValueError(f"order must be in 2..64, got {len(w)}")
    w = [red(p, x) for x in w]
    if w[0] != 1:
        raise InvalidWeight(f"w[0] must be 1, got {w[0] if p is None else f'{w[0]} mod {p}'}")
    zero = next((n for n, x in enumerate(w) if not x), None)
    if zero is not None:
        raise InvalidWeight(f"w[{zero}] = 0")
    return weight_reference(p, w)


def exponential_closed_form_reference(p, n, lam):
    """w_k = lam^k k!."""
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    if p is not None and n > p:
        raise NotInvertible(f"n! vanishes in GF({p}) before order {n}")
    return weight_reference(p, [mul(p, power(p, lam, k), factorial(k)) for k in range(n)])


def geometric_closed_form_reference(p, n, lam):
    """w_k = lam^k."""
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    return weight_reference(p, [power(p, lam, k) for k in range(n)])


def q_factorial_closed_form_reference(p, n, lam, q):
    """w_k = (lam / (1 - q))^k prod_{j=1}^{k} (1 - q^j); q^j = 1 for no j < n."""
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    j = next((j for j in range(1, n) if power(p, q, j) == 1), None)
    if j is not None:
        raise RootOfUnity(f"q^{j} = 1")
    base = mul(p, lam, inv(p, red(p, 1 - q)))
    return weight_reference(p, [
        mul(p, power(p, base, k), *[1 - power(p, q, j) for j in range(1, k + 1)])
        for k in range(n)
    ])


def rescale_closed_form_reference(p, w, lam):
    """w_k -> lam^k w_k."""
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    return weight_reference(p, [mul(p, power(p, lam, k), x) for k, x in enumerate(w)])


def exp_case_reference(p, n, lam, sigma):
    """w_k = k! / prod_{j<k} (lam - j sigma), the reciprocal of sigma^k binom(lam/sigma, k)."""
    if p is not None:
        raise CharP("defined in characteristic 0 only")
    if not sigma:
        raise ForbiddenLambda("sigma must be nonzero")
    k = next((k for k in range(n - 1) if lam == k * sigma), None)
    if k is not None:
        raise ForbiddenLambda(f"lambda = {k} * sigma makes w[{k + 1}] vanish")
    return weight_reference(p, [Fraction(factorial(k)) / prod(lam - j * sigma for j in range(k))
                                for k in range(n)])


def gamma_reference(p, w, w2):
    """gamma_k = w2_k w_{k+1} / (w2_{k+1} w_k)."""
    return [mul(p, w2[k], w[k + 1], inv(p, mul(p, w2[k + 1], w[k]))) for k in range(len(w) - 1)]


def tilde_reference(p, w, gamma):
    """w2_k = w_k / (gamma_0 ... gamma_{k-1})."""
    if len(gamma) != len(w) - 1:
        raise BackendMismatch("gamma length must be order - 1")
    return weight_reference(p, [mul(p, x, inv(p, mul(p, *gamma[:k]))) for k, x in enumerate(w)])


def factorial_inv_reference(p, n):
    """1 / n!."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if p is not None and n >= p:
        raise NotInvertible(f"{n}! is 0 in GF({p})")
    return inv(p, red(p, factorial(n)))


def extended_binomial_reference(p, xi, n):
    """binom(xi, n) = prod_{j<n} (xi - j) / n!."""
    return mul(p, factorial_inv_reference(p, n), *[xi - j for j in range(n)])


def exp_closed_form_reference(p, n, h):
    """[y^l] exp(h y) = h^l / l!."""
    if p is not None and n > p:
        raise NotInvertible(f"{p}! is 0 in GF({p})")
    return [mul(p, power(p, h, l), inv(p, red(p, factorial(l)))) for l in range(n)]


def translation_closed_form_reference(p, w, h):
    """Entry (n, k) = w_n h^{n-k} / (w_{n-k} w_k)."""
    return [[mul(p, w[n], power(p, h, n - k), inv(p, mul(p, w[n - k], w[k])))
             for k in range(n + 1)] for n in range(len(w))]


def eval_reference(p, w, h):
    """t_n = h^n / w_n."""
    return [mul(p, power(p, h, n), inv(p, x)) for n, x in enumerate(w)]


# -- inputs -------------------------------------------------------------------


def outcome(f, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (MathDomainError, ValueError, IndexError, ZeroDivisionError) as e:
        return type(e), str(e)


def values(thing):
    """The plain values of a Weight (w, 1/w), a Series, a TriMatrix or a Functional."""
    if isinstance(thing, Weight):
        return [x.val for x in thing.w], [x.val for x in thing.recip]
    if hasattr(thing, "rows"):
        return [[x.val for x in row] for row in thing.rows]
    return [x.val for x in getattr(thing, "coeffs", None) or thing.values]


def element(p, rng, nonzero=False):
    """A signed rational with a denominator up to 36, or any residue."""
    while True:
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 36)) if p is None else rng.randrange(p)
        if x or not nonzero:
            return x


def root_of_unity(p):
    """An element q != 1 with q^d = 1 for a small d: -1, or 1 in GF(2)."""
    if p == 1000003:  # p = 1 mod 3: a primitive cube root of unity
        return next(r for r in (pow(g, (p - 1) // 3, p) for g in range(2, p)) if r != 1)
    return red(p, -1) if p != 2 else 1


def pick(p, rng, kind):
    """A parameter of the named kind."""
    if kind == "zero":
        return red(p, 0)
    if kind == "one":
        return red(p, 1)
    if kind == "root":
        return root_of_unity(p)
    return element(p, rng)


@st.composite
def cases(draw):
    """(p, N, rng) over QQ, GF(2), GF(3), GF(1000003) at N = 2..16, half the
    draws at N <= 4."""
    p = draw(st.sampled_from([None, 2, 3, 1000003]))
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 16)))
    return p, n, random.Random(draw(st.integers(0, 2**32 - 1)))


def plain_weight(p, n, rng):
    return [red(p, 1)] + [element(p, rng, nonzero=True) for _ in range(n - 1)]


PARAMETERS = st.sampled_from(["random", "random", "zero", "one", "root"])


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(cases(), PARAMETERS, PARAMETERS)
def test_builtin_weights_match_their_closed_forms(case, lam_kind, q_kind):
    p, n, rng = case
    field, lam, q = Field(p), pick(p, rng, lam_kind), pick(p, rng, q_kind)
    for build, reference, args in [
        (Weight.exponential, exponential_closed_form_reference, (lam,)),
        (Weight.geometric, geometric_closed_form_reference, (lam,)),
        (Weight.q_factorial, q_factorial_closed_form_reference, (lam, q)),
    ]:
        got = outcome(lambda: values(build(field, n, *args)))
        assert got == outcome(reference, p, n, *args), build.__name__


@settings(max_examples=300, deadline=None)
@given(cases(), PARAMETERS)
def test_rescale_matches_its_closed_form(case, lam_kind):
    p, n, rng = case
    w, lam = plain_weight(p, n, rng), pick(p, rng, lam_kind)
    got = outcome(lambda: values(Weight(Field(p), w).rescale(lam)))
    assert got == outcome(rescale_closed_form_reference, p, w, lam)


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(["random", "random", "zero", "multiple", "sigma-zero"]))
def test_exp_case_weights_match_their_closed_form(case, kind):
    p, n, rng = case
    lam, sigma = element(p, rng), element(p, rng, nonzero=True)
    if kind == "zero":
        lam = red(p, 0)
    elif kind == "multiple":  # lam = k sigma vanishes a w[k + 1] for k < n - 1
        lam = red(p, rng.randrange(n + 1) * sigma)
    elif kind == "sigma-zero":
        sigma = red(p, 0)
    got = outcome(lambda: values(exp_case_weights(Field(p), n, lam, sigma)))
    assert got == outcome(exp_case_reference, p, n, lam, sigma)


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(["round-trip", "round-trip", "random", "with-zero", "short"]))
def test_tilde_weight_matches_its_closed_form(case, kind):
    p, n, rng = case
    field, w, w2 = Field(p), plain_weight(p, n, rng), plain_weight(p, n, rng)
    W, W2 = Weight(field, w), Weight(field, w2)
    gamma = gamma_sequence(W, W2)
    assert [g.val for g in gamma.values] == gamma_reference(p, w, w2)
    if kind == "round-trip":
        assert values(tilde_weight_from_gamma(W, gamma)) == values(W2)
        plain = gamma_reference(p, w, w2)
    else:
        plain = [element(p, rng, nonzero=kind == "random") for _ in range(n - 1)]
        if kind == "with-zero":
            plain[rng.randrange(n - 1)] = red(p, 0)
        elif kind == "short":
            plain = plain[1:]
        gamma = GammaSeq(tuple([field.scalar(g) for g in plain]))
    got = outcome(lambda: values(tilde_weight_from_gamma(W, gamma)))
    assert got == outcome(tilde_reference, p, w, plain)


@settings(max_examples=300, deadline=None)
@given(cases(), PARAMETERS, st.integers(-2, 20))
def test_series_exp_and_factorials_match_their_closed_forms(case, h_kind, m):
    p, n, rng = case
    field, h, xi = Field(p), pick(p, rng, h_kind), element(p, rng)
    assert outcome(lambda: values(Series.exp(field, n, h))) == outcome(exp_closed_form_reference, p, n, h)
    assert outcome(lambda: factorial_inv(field, m).val) == outcome(factorial_inv_reference, p, m)
    got = outcome(lambda: extended_binomial(field.scalar(xi), m).val)
    assert got == outcome(extended_binomial_reference, p, xi, m)


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(["random", "exponential", "geometric"]),
       st.sampled_from(["random", "random", "zero", "one", "root", "foreign"]))
def test_translation_and_evaluation_match_their_closed_forms(case, wkind, h_kind):
    p, n, rng = case
    field = Field(p)
    if wkind == "exponential" and (p is None or n <= p):
        w = [red(p, factorial(k)) for k in range(n)]
    elif wkind == "geometric":
        lam = element(p, rng, nonzero=True)
        w = [power(p, lam, k) for k in range(n)]
    else:
        w = plain_weight(p, n, rng)
    W = Weight(field, w)
    if h_kind == "foreign":  # a scalar of another field
        q = 7 if p != 7 else 5
        h = Field(q).one()
        error = BackendMismatch, f"scalar over GF({q}) used in {field_name(p)}"
        assert outcome(lambda: values(translation_matrix(W, h))) == error
        assert outcome(lambda: values(eval_functional(h, W))) == error
        return
    h = pick(p, rng, h_kind)
    assert values(translation_matrix(W, h)) == translation_closed_form_reference(p, w, h)
    assert values(eval_functional(h, W)) == eval_reference(p, w, h)


def test_every_small_weight_over_gf2_and_gf3():
    # every tuple of values at N = 1..4: 2 + 4 + 8 + 16 over GF(2), 120 over GF(3)
    for p in (2, 3):
        field = Field(p)
        for n in range(1, 5):
            for w in product(range(p), repeat=n):
                got = outcome(lambda: values(raw_built(Weight(field, list(w)))))
                assert got == outcome(user_weight_reference, p, list(w)), w
