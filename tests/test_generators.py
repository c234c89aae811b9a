"""The operator-level Sheffer tests decided by their generators, against the
spanning-family loops they replace.

sheffer_by_commutation, is_normalizing and product_rule_spanning_witness each
check one generator of a family (M_W, the delta functionals).  The references
below sweep the whole family in O(N^4), as the library did before; every
verdict, witness, raised error and the state of the caller's random
generator must agree.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, TriMatrix
from riordanlab.errors import MathDomainError, SingularDiagonal
from riordanlab.functionals import product_rule_spanning_witness
from riordanlab.operators import (
    appell_from_alpha,
    is_appell,
    is_normalizing,
    q_operator_matrix,
    sheffer_by_commutation,
    translation_matrix,
)
from riordanlab.riordan import Weight, is_riordan
from riordanlab.sampling import perturbed_non_riordan, unit_series
from riordanlab.series import Series, _convolve, _over_common_denominator

from references import binomial_candidate_reference
from support import matrix_cases, sample_points


def commutation_reference(A, W, hs=None):
    """[A^{-1} M_W A, T_h] = 0 at N distinct translations: N commutators."""
    if hs is None:
        hs = W.field.range_elements(W.order)
    else:
        hs = [W.field.scalar(h) for h in hs]
        if len(set(hs)) != W.order:
            raise ValueError(f"need {W.order} distinct sample points")
    q = q_operator_matrix(A, W)
    for h in hs:
        t = translation_matrix(W, h)
        if q @ t != t @ q:
            return False
    return True


def normalizing_reference(A, W, samples=6, rng=None):
    """Conjugate every member 1 + y^j of the spanning family, then the samples."""
    if not A.is_graded():
        return False
    n_ord = A.order
    field = A.field
    a_inv = A.inverse()
    basis = []
    for j in range(1, n_ord):
        basis.append(Series.monomial(field, n_ord, 0) + Series.monomial(field, n_ord, j))
    if samples:
        rng = rng or random.Random(0)
        basis.extend(unit_series(field, n_ord, rng) for _ in range(samples))
    for alpha in basis:
        b = appell_from_alpha(alpha, W)
        if not is_appell(a_inv @ b @ A, W):
            return False
    return True


def delta_pairs_witness_reference(A, W):
    """Every (i, j) pair of delta functionals, one integer convolution each."""
    n_ord, p = A.order, A.field.p
    d = binomial_candidate_reference(A, W)
    p_val = [[A.entry(k, i) * W.w[i] * W.recip[k] for k in range(n_ord)] for i in range(n_ord)]
    d_val = [[d.entry(l, j) * W.w[j] * W.recip[l] for l in range(n_ord)] for j in range(n_ord)]
    if p is None:
        p_int = [_over_common_denominator(A.field, v) for v in p_val]
        d_int = [_over_common_denominator(A.field, v) for v in d_val]
    else:
        p_int = [([c.val for c in v], 1) for v in p_val]
        d_int = [([c.val for c in v], 1) for v in d_val]
    zero = ([0] * n_ord, 1)
    for i, (pi, dpi) in enumerate(p_int):
        for j, (dj, ddj) in enumerate(d_int):
            lhs, dl = p_int[i + j] if i + j < n_ord else zero
            den = dpi * ddj
            for n, c in enumerate(_convolve(pi, dj)):
                diff = c * dl - lhs[n] * den
                if diff if p is None else diff % p:
                    return (i, j, n)
    return None


def outcome(f, *args, **kwargs):
    """The result of a call, or the type of the error it raised."""
    try:
        return f(*args, **kwargs)
    except (MathDomainError, ValueError) as e:
        return type(e)


@settings(max_examples=200, deadline=None)
@given(matrix_cases(points_needed=True), st.sampled_from([None, "distinct", "raw", "repeat", "short", "foreign"]))
def test_commutation_by_generator_matches_translations(case, points):
    W, A, rng = case
    hs = None if points is None else sample_points(points, W, rng)
    assert outcome(sheffer_by_commutation, A, W, hs) == outcome(commutation_reference, A, W, hs)


@settings(max_examples=200, deadline=None)
@given(matrix_cases(), st.sampled_from([0, 3]), st.integers(0, 2**32 - 1))
def test_normalizing_by_generator_matches_spanning_family(case, samples, seed):
    W, A, _ = case
    mine, ref = random.Random(seed), random.Random(seed)
    got = outcome(is_normalizing, A, W, samples=samples, rng=mine)
    assert got == outcome(normalizing_reference, A, W, samples=samples, rng=ref)
    assert mine.getstate() == ref.getstate()


@settings(max_examples=200, deadline=None)
@given(matrix_cases())
def test_spanning_witness_by_generator_matches_all_pairs(case):
    W, A, _ = case
    assert outcome(product_rule_spanning_witness, A, W) == outcome(delta_pairs_witness_reference, A, W)


def test_generator_tests_keep_their_errors(QQ):
    W = Weight.exponential(QQ, 5, 1)
    rows = [list(r) for r in TriMatrix.identity(QQ, 5).rows]
    rows[2][2] = QQ.zero()
    singular = TriMatrix(QQ, rows)
    with pytest.raises(SingularDiagonal):
        sheffer_by_commutation(singular, W)
    rng = random.Random(5)
    state = rng.getstate()
    assert not is_normalizing(singular, W, samples=3, rng=rng)
    assert rng.getstate() == state  # an ungraded matrix draws no samples
    with pytest.raises(ValueError):
        sheffer_by_commutation(TriMatrix.identity(QQ, 5), W, hs=[0, 1, 2, 3, 3])


def test_perturbed_non_riordan_needs_order_four(QQ, rng):
    for n in (2, 3):
        with pytest.raises(ValueError, match="diagonal"):
            perturbed_non_riordan(Weight.exponential(QQ, n, 1), rng)
    for W in (Weight.exponential(QQ, 4, 1), Weight.geometric(Field(2), 4, 1)):
        a = perturbed_non_riordan(W, rng)
        assert a.is_graded() and not is_riordan(a, W)
