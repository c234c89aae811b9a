"""Loops the library now shares, against the copies they replace.

Series.invert runs the forward-substitution kernel of TriMatrix.inverse;
translation_matrix is appell_from_alpha of W(hy); HPolyMatrix.evaluate is
Polynomial.evaluate; generating_expansion reads the columns of
pair_to_matrix; product_rule_check is a product of functionals;
is_exponential_alpha compares with Series.exp.  The references below are
the loops the library used before, kept verbatim; every result, or the type
of every raised error, must agree over QQ, GF(2), GF(3) and GF(1000003) at
N = 2..12.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import (
    BackendMismatch,
    CharP,
    MathDomainError,
    NotInvertible,
    NotValuationZero,
)
from riordanlab.functionals import (
    Functional,
    functional_after_operator,
    functional_mul,
    product_rule_check,
)
from riordanlab.operators import HPolyMatrix, d_polynomials, translation_matrix
from riordanlab.riordan import Weight, generating_expansion
from riordanlab.sampling import functional_values, riordan_pair, scalar, series
from riordanlab.scalars import factorial_inv
from riordanlab.triangular import Polynomial
from riordanlab.twoweight import is_exponential_alpha

from references import binomial_candidate_reference
from support import build_matrix, fixed_weight, other, reduced_form

# -- the replaced loops -------------------------------------------------------


def invert_loop_reference(s):
    """Multiplicative inverse; requires a unit constant term."""
    c = s.coeffs
    if not c[0]:
        raise NotInvertible("constant term vanishes")
    inv0 = c[0].inverse()
    out = [inv0]
    for m in range(1, len(c)):
        acc = c[1] * out[m - 1]
        for i in range(2, m + 1):
            acc = acc + c[i] * out[m - i]
        out.append(-(inv0 * acc))
    return Series(s.field, out)


def translation_entries_reference(W, h):
    """Matrix of T_h = W(h M_W): entry (n,k) = w_n h^{n-k} / (w_{n-k} w_k)."""
    h = W.field.scalar(h)
    powers = [W.field.one()]
    for _ in range(W.order - 1):
        powers.append(powers[-1] * h)

    def entry(n, k):
        return W.w[n] * powers[n - k] * W.recip[n - k] * W.recip[k]

    return TriMatrix.from_entries(W.field, W.order, entry)


def evaluate_reference(hp, h):
    """HPolyMatrix.evaluate by its own Horner loop."""
    h = hp.field.scalar(h)

    def entry(n, k):
        acc = hp.field.zero()
        for c in reversed(hp.entries[n][k]):
            acc = acc * h + c
        return acc

    return TriMatrix.from_entries(hp.field, hp.order, entry)


def expansion_reference(pair, W):
    """Columns alpha * beta^k / w_k, one series product each."""
    cols = []
    col = pair.alpha
    for k in range(W.order):
        cols.append(col.scale(W.recip[k]))
        if k + 1 < W.order:
            col = col * pair.beta
    return cols


def product_rule_reference(A, W, phi, psi):
    """(phi*psi)(p_n/w_n) against sum_k phi(p_k/w_k) psi(d_{n-k}/w_{n-k}), a double loop."""
    d = binomial_candidate_reference(A, W)
    lhs_vals = functional_after_operator(functional_mul(phi, psi), A, W).values
    pv = functional_after_operator(phi, A, W).values
    dv = functional_after_operator(psi, d, W).values
    for n in range(A.order):
        acc = phi.field.zero()
        for k in range(n + 1):
            acc = acc + pv[k] * dv[n - k]
        if acc != lhs_vals[n]:
            return False
    return True


def exponential_alpha_reference(alpha):
    """Some (c0, h) with alpha = c0 * e^{hy} through this order, else None."""
    if alpha.valuation() != 0:
        raise NotValuationZero("alpha must have valuation 0")
    field = alpha.field
    if field.p is not None and field.p < alpha.order:
        raise CharP(f"needs l! invertible for l < {alpha.order}")
    c0 = alpha.coeffs[0]
    h = alpha.coeffs[1] / c0
    power = field.one()
    for l in range(1, alpha.order):
        power = power * h
        if alpha.coeffs[l] != c0 * power * factorial_inv(field, l):
            return None
    return c0, h


# -- inputs -------------------------------------------------------------------


def outcome(f, *args):
    """The result of a call, or the type of the error it raised.  IndexError
    counts too, so a bare index error on either side shows as a mismatch;
    for a functional shorter than the operator, product_rule_check and its
    reference both raise BackendMismatch from functional_after_operator."""
    try:
        return f(*args)
    except (MathDomainError, ValueError, IndexError) as e:
        return type(e)


@st.composite
def cases(draw):
    """(field, N, rng) over QQ, GF(2), GF(3), GF(1000003) at N = 2..12."""
    p = draw(st.sampled_from([None, 2, 3, 1000003]))
    n = draw(st.integers(2, 12))
    return Field(p), n, random.Random(draw(st.integers(0, 2**32 - 1)))


WEIGHT_KINDS = st.sampled_from(["geometric", "random", "exponential"])
MATRIX_KINDS = ["riordan", "perturbed", "bumped", "corner", "graded", "identity", "singular"]


# -- tests --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from(["random", "unit", "zero-constant"]))
def test_invert_matches_reference(case, kind):
    field, n, rng = case
    s = series(field, n, rng, valuation={"random": None, "unit": 0, "zero-constant": 1}[kind])
    assert outcome(Series.invert, s) == outcome(invert_loop_reference, s)


@settings(max_examples=200, deadline=None)
@given(cases(), WEIGHT_KINDS, st.sampled_from(["scalar", "raw", "zero", "foreign"]))
def test_translation_matches_reference(case, wkind, hkind):
    field, n, rng = case
    W = fixed_weight(wkind, field, n, rng)
    h = scalar(field, rng)
    h = {"scalar": h, "raw": h.val, "zero": 0, "foreign": other(field).one()}[hkind]
    assert outcome(translation_matrix, W, h) == outcome(translation_entries_reference, W, h)


@st.composite
def hpoly_matrices(draw, field, n, rng):
    """d_polynomials of a graded matrix, or random entries of any length
    (empty ones and trailing zeros included), or those with a coefficient of
    another field, possibly a trailing zero.  The constructor rejects a
    foreign coefficient, so that matrix is built around it: evaluate must
    still reject it on its own."""
    kind = draw(st.sampled_from(["d", "random", "foreign"]))
    if kind == "d":
        W = Weight.geometric(field, n, 1)
        return d_polynomials(build_matrix("graded", W, rng), W)
    entries = [
        [[scalar(field, rng) for _ in range(rng.randint(0, n - k + 1))] for k in range(i + 1)]
        for i in range(n)
    ]
    if kind == "foreign":
        entry = entries[rng.randrange(n)][0]
        stray = rng.choice([other(field).zero(), other(field).one()])
        entry.insert(rng.randint(0, len(entry)), stray)
        hp = object.__new__(HPolyMatrix)
        hp.field, hp._entries = field, tuple(tuple(tuple(e) for e in row) for row in entries)
        hp._raw = tuple(tuple(reduced_form([c.val for c in e], field.p) for e in row)
                        for row in hp._entries)
        return hp
    return HPolyMatrix(field, entries)


@settings(max_examples=200, deadline=None)
@given(cases(), st.data())
def test_hpoly_evaluate_matches_horner(case, data):
    field, n, rng = case
    hp = data.draw(hpoly_matrices(field, n, rng))
    h = scalar(field, rng)
    assert outcome(hp.evaluate, h) == outcome(evaluate_reference, hp, h)


@settings(max_examples=200, deadline=None)
@given(cases(), WEIGHT_KINDS, st.sampled_from(["same", "foreign"]))
def test_generating_expansion_matches_reference(case, wkind, where):
    field, n, rng = case
    pair = riordan_pair(field, n, rng)
    W = fixed_weight(wkind, field if where == "same" else other(field), n, rng)
    assert outcome(generating_expansion, pair, W) == outcome(expansion_reference, pair, W)


def test_generating_expansion_of_mismatched_orders_raises(QQ, rng):
    pair = riordan_pair(QQ, 5, rng)
    for n in (4, 6):
        with pytest.raises(BackendMismatch):
            generating_expansion(pair, Weight.exponential(QQ, n, 1))


@settings(max_examples=200, deadline=None)
@given(cases(), WEIGHT_KINDS, st.sampled_from(MATRIX_KINDS),
       st.sampled_from(["same", "short", "long", "foreign"]))
def test_product_rule_check_matches_double_loop(case, wkind, akind, fkind):
    field, n, rng = case
    W = fixed_weight(wkind, field, n, rng)
    A = build_matrix(akind, W, rng)
    size = {"same": n, "short": n - 1, "long": n + 1, "foreign": n}[fkind]
    if not 2 <= size <= 64:  # a functional holds 2..64 values, checked when built
        with pytest.raises(ValueError, match=f"^order must be in 2..64, got {size}$"):
            Functional(field, functional_values(field, size, rng))
        return
    phi = Functional(field, functional_values(field, size, rng))
    psi = Functional(field, functional_values(field, size, rng))
    if fkind == "foreign":
        phi = psi = Functional(other(field), functional_values(other(field), n, rng))
    assert outcome(product_rule_check, A, W, phi, psi) == outcome(
        product_rule_reference, A, W, phi, psi
    )


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from(["exponential", "bumped", "unit", "valuation"]))
def test_exponential_alpha_matches_reference(case, kind):
    field, n, rng = case
    if kind in ("exponential", "bumped") and (field.p is None or n <= field.p):
        h, c0 = scalar(field, rng), scalar(field, rng, nonzero=True)
        coeffs = list(Series.exp(field, n, h).scale(c0).coeffs)
        if kind == "bumped":
            i = rng.randrange(2, n) if n > 2 else 1
            coeffs[i] = coeffs[i] + scalar(field, rng, nonzero=True)
        alpha = Series(field, coeffs)
    else:
        alpha = series(field, n, rng, valuation=1 if kind == "valuation" else 0)
    assert outcome(is_exponential_alpha, alpha) == outcome(exponential_alpha_reference, alpha)


def test_field_check_names_the_container(QQ, F7):
    stray = F7.one()
    cases = [
        (lambda: Series(QQ, [QQ.one(), stray]), "coefficient"),
        (lambda: Polynomial(QQ, [QQ.one(), stray]), "coefficient"),
        (lambda: Polynomial(QQ, [QQ.one(), F7.zero()]), "coefficient"),  # trailing zero too
        (lambda: TriMatrix(QQ, [[QQ.one()], [stray, QQ.one()]]), "entry"),
        (lambda: Functional(QQ, [QQ.one(), 1]), "value"),
    ]
    for build, what in cases:
        with pytest.raises(BackendMismatch, match=f"^{what} .* does not belong to QQ$"):
            build()
    with pytest.raises(ValueError, match="row 1"):  # the row length is checked first
        TriMatrix(QQ, [[QQ.one()], [stray]])
    QQ.check([QQ.one(), QQ.zero()], "entry")
