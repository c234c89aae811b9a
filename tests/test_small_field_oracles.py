"""Exhaustive oracles on small fields.

Every Scalar operation on every element (every pair of elements) of GF(2),
GF(3), GF(5) and GF(7), and of a grid of small rationals, against plain
arithmetic: integers mod p found without pow, or Fraction.  factorial_inv
and extended_binomial on the same elements against their closed forms,
1/n! and prod_{j<n} (xi - j) / n!, as test_constructor_references states
them (a test module imports no other).  The group law on every ordered
pair of the 108 Riordan pairs of GF(3) at N = 3, under two weights,
against the matrix product.
"""

from fractions import Fraction
from math import factorial, prod

import pytest

from riordanlab import Field
from riordanlab.errors import NotInvertible
from riordanlab.riordan import (
    Weight, identity_pair, matrix_to_pair, pair_to_matrix, riordan_inv, riordan_mul,
)
from riordanlab.scalars import extended_binomial, factorial_inv

from support import every_pair, grid, outcome, plain, plain_recip


FIELDS = [None, 2, 3, 5, 7]


def same(got, want):
    """got equals want, a Scalar of the same value type, or the same error."""
    assert got == want and type(got) is type(want)
    if hasattr(want, "val"):
        assert type(got.val) is type(want.val)


def plain_power(p, x, n):
    """x^n by repeated plain products, through plain_recip for n < 0."""
    out = Fraction(1) if p is None else 1
    for _ in range(abs(n)):
        out = out * x if p is None else out * x % p
    return out if n >= 0 else plain_recip(p, out)


@pytest.mark.parametrize("p", FIELDS, ids=str)
def test_scalar_arithmetic_against_plain_arithmetic(p):
    F = Field(p)
    for x in grid(p):
        a = F.scalar(x)
        same(outcome(lambda: -a), plain(p, lambda: -x))
        same(outcome(a.inverse), plain(p, lambda: plain_recip(p, x)))
        for n in range(-3, 6):
            same(outcome(lambda: a ** n), plain(p, lambda: plain_power(p, x, n)))
        for y in grid(p):
            b = F.scalar(y)
            same(outcome(lambda: a + b), plain(p, lambda: x + y))
            same(outcome(lambda: a - b), plain(p, lambda: x - y))
            same(outcome(lambda: a * b), plain(p, lambda: x * y))
            same(outcome(lambda: a / b), plain(p, lambda: x * plain_recip(p, y)))


def closed_form(p, n, f):
    """f() put into the field after the checks of factorial_inv and
    extended_binomial, or the type and message of the error they raise."""
    if n < 0:
        return ValueError, "n must be nonnegative"
    if p is not None and n >= p:
        return NotInvertible, f"{n}! is 0 in GF({p})"
    return plain(p, f)


@pytest.mark.parametrize("p", FIELDS, ids=str)
def test_factorials_and_binomials_against_the_closed_forms(p):
    # every n < p and the first n past it over GF(p), 0..6 over QQ; and n = -1
    F = Field(p)
    for n in range(-1, 7 if p is None else p + 1):
        same(outcome(factorial_inv, F, n), closed_form(p, n, lambda: plain_recip(p, factorial(n))))
        for x in grid(p):
            same(outcome(extended_binomial, F.scalar(x), n), closed_form(
                p, n, lambda: prod([x - j for j in range(n)]) * plain_recip(p, factorial(n))))


@pytest.mark.parametrize("weight", [
    lambda F: Weight.exponential(F, 3, 1),
    lambda F: Weight(F, [1, 2, 2]),
], ids=["exponential(1)", "1,2,2"])
def test_group_law_on_every_pair_of_gf3_at_order_3(weight):
    F = Field(3)
    W, pairs = weight(F), every_pair(F, 3)
    assert len(pairs) == 108
    mats = [pair_to_matrix(a, W) for a in pairs]
    one = identity_pair(F, 3)
    for a, A in zip(pairs, mats):
        assert matrix_to_pair(A, W) == a
        assert riordan_mul(a, riordan_inv(a)) == one
        for b, B in zip(pairs, mats):
            assert pair_to_matrix(riordan_mul(a, b), W) == A @ B
