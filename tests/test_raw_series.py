"""Series on raw coefficients against Series on Scalars.

A Series holds the raw form (ints, den) from construction on, read off
the Scalars it is given or as a kernel built it (Series._from_raw); its
Scalars are built from the raw form on their first read.  Over QQ, GF(2),
GF(3) and GF(1000003) at N = 2..16, and once per field at N = 64:

- a series from every public constructor and ring operation holds the
  reduced raw form as soon as it is built, equal to raw_form below, and it
  agrees with the raw-built series of the same values in ==, hash,
  to_json, repr, valuation and coeffs, Series.monomial (built raw)
  included;
- so does a TriMatrix from every public constructor and ring operation,
  column by column, and an HPolyMatrix built from Scalars holds each slot
  in reduced raw form (reduced_form of tests/support.py, empty slots
  included), equal to its kernel-built twin in == and hash;
- every kernel returns its series in reduced form, building no Scalar;
- pair_to_matrix -> riordan_mul -> riordan_inv -> matrix_to_pair on raw
  pairs constructs no Scalar;
- Series.__mul__, _apply_power_table, _solve_power_table and _divide give
  the values, or raise the error (type and message), of the Scalar-edged
  kernels they replace (tests/references.py).

extended_binomial builds no Field, and agrees with the replaced code that
built one on every call, errors included.
"""

import random
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (
    apply_power_table_scalar_reference,
    divide_scalar_reference,
    extended_binomial_field_reference,
    series_mul_scalar_reference,
    solve_power_table_scalar_reference,
)
from riordanlab import Field, Scalar, Series, TriMatrix
from riordanlab.errors import MathDomainError
from riordanlab.operators import HPolyMatrix
from riordanlab.riordan import (
    RiordanPair,
    matrix_to_pair,
    pair_to_matrix,
    riordan_inv,
    riordan_mul,
)
from riordanlab.scalars import extended_binomial
from riordanlab.series import MAX_ORDER, _apply_power_table, _divide, _solve_power_table

from support import drawn_weight, reduced_form, series, value

PRIMES = [None, 2, 3, 1000003]


def raw_form(s):
    """The reduced raw form of a Scalar-built series, computed apart from
    the library: the rationals over their lcm, divided by the gcd of all."""
    return reduced_form([c.val for c in s.coeffs], s.field.p)


def assert_reduced(s, field, n):
    """s is a kernel output: raw, reduced, N coefficients, no Scalar built."""
    assert s._coeffs is None
    ints, den = s._raw()
    assert len(ints) == n and den > 0 and gcd(den, *ints) == 1
    assert field.p is None or (den == 1 and all(0 <= x < field.p for x in ints))


def plain(out):
    """The values of a kernel's output, read through their Scalars."""
    if isinstance(out, Series):
        return [c.val for c in out.coeffs]
    if isinstance(out, Scalar):
        return out.val, out.p
    if isinstance(out, RiordanPair):
        return plain(out.alpha), plain(out.beta)
    return [plain(x) for x in out]


def outcome(f, *args):
    """The plain values of a call, or the type and message of its error."""
    try:
        return plain(f(*args))
    except (MathDomainError, ValueError, ZeroDivisionError) as e:
        return type(e), str(e)


def raw_copy(s):
    return Series._from_raw(s.field, *raw_form(s))


def inputs(field, n, rng):
    """Series of valuation 0, 1 and any, a zero series and a y^k."""
    return {
        "unit": series(field, n, rng, 0),
        "beta": series(field, n, rng, 1),
        "any": series(field, n, rng, rng.choice([None, 0, 1, n])),
        "zero": Series.zero(field, n),
        "monomial": Series.from_values(field, n, [0] * rng.randrange(n) + [1]),
    }


def constructed(field, n, rng):
    """A series from each public constructor and ring operation."""
    a, b, c = series(field, n, rng), series(field, n, rng), value(field, rng)
    out = {
        "Series": Series(field, a.coeffs),
        "from_values": Series.from_values(field, n, [c, 1, "-2"][: rng.randint(0, min(n, 3))]),
        "one": Series.one(field, n),
        "constant": Series.constant(field, n, c),
        "from_json": Series.from_json(field, a.to_json()),
        "+": a + b, "-": a - b, "negation": -a, "scale": a.scale(c),
    }
    if field.p is None or n <= field.p:
        out["exp"] = Series.exp(field, n, c)
    return out


def check_both_forms_agree(field, n, rng):
    for s in [*inputs(field, n, rng).values(), *constructed(field, n, rng).values()]:
        r = raw_copy(s)
        assert s._ints == raw_form(s) and r._coeffs is None
        assert r == s and s == r and hash(r) == hash(s)
        assert r.valuation() == s.valuation() and r.order == s.order == n
        assert s._raw() == raw_form(s)  # the library's reading of the Scalars
        assert r._coeffs is None  # nothing above read a Scalar of r
        assert r.to_json() == s.to_json() and repr(r) == repr(s) and r.coeffs == s.coeffs
        one = Series.one(field, n)
        assert (r == one) == (s.coeffs == one.coeffs)
    k, c = rng.randrange(n), value(field, rng)
    m = Series.monomial(field, n, k, c)  # built raw
    assert_reduced(m, field, n)
    want = Series.from_values(field, n, [0] * k + [c])
    assert m == want and hash(m) == hash(want) and m.coeffs == want.coeffs


def check_kernels(field, n, rng):
    x = inputs(field, n, rng)
    unit, beta, f, zero = x["unit"], x["beta"], x["any"], x["zero"]
    cases = [
        (lambda a, b: a * b, series_mul_scalar_reference, [(unit, f), (f, beta), (zero, unit)]),
        (lambda g, *fs: _apply_power_table(g, *fs), apply_power_table_scalar_reference,
         [(beta, unit, f), (beta, beta), (beta, zero)]),
        (lambda g, *fs: _solve_power_table(g, *fs), solve_power_table_scalar_reference,
         [(beta, unit, f), (beta,), (beta, zero)]),
        (lambda b, c: _divide(field, b._raw(), c._raw()),
         lambda b, c: divide_scalar_reference(field, raw_form(b), raw_form(c)),
         [(f, unit), (unit, unit), (zero, unit), (unit, beta), (unit, zero)]),
    ]
    for new, old, argss in cases:
        for args in argss:
            assert outcome(new, *map(raw_copy, args)) == outcome(old, *args)
            assert outcome(new, *args) == outcome(old, *args)
            try:
                got = new(*args)
            except MathDomainError:
                continue
            for s in [got] if isinstance(got, Series) else got:
                assert_reduced(s, field, n)
    other = Series.one(Field(7 if field.p != 7 else 5), n)
    assert outcome(lambda: unit * other) == outcome(series_mul_scalar_reference, unit, other)
    for got in [unit.invert(), f / unit, f.compose(beta), beta.comp_inverse(), beta ** 3]:
        assert_reduced(got, field, n)


def matrices(field, n, rng):
    """A TriMatrix from each public constructor and ring operation."""
    rows = [[value(field, rng) for _ in range(i + 1)] for i in range(n)]
    A, c = TriMatrix(field, rows), value(field, rng)
    B = TriMatrix.from_entries(field, n, lambda i, k: value(field, rng))
    return {
        "TriMatrix": A, "from_entries": B,
        "identity": TriMatrix.identity(field, n), "zero": TriMatrix.zero(field, n),
        "diagonal": TriMatrix.diagonal(field, [value(field, rng) for _ in range(n)]),
        "from_json": TriMatrix.from_json(field, A.to_json()),
        "+": A + B, "-": A - B, "negation": -A, "scale": A.scale(c),
    }


def check_constructors_hold_the_raw_form(field, n, rng):
    for M in matrices(field, n, rng).values():
        want = [raw_form(Series(field, M.column(k))) for k in range(n)]
        assert M._cols == want
        twin = TriMatrix._from_columns(field, want)
        assert M == twin and twin == M and hash(M) == hash(twin)
    entries = [[[value(field, rng) for _ in range(rng.randint(0, n - k + 1))] for k in range(i + 1)]
               for i in range(n)]
    hp = HPolyMatrix(field, entries)
    want = tuple(tuple(reduced_form([c.val for c in e], field.p) for e in row) for row in entries)
    assert hp._raw == want
    twin = HPolyMatrix._from_kernel(field, want)
    assert hp == twin and twin == hp and twin.entries == hp.entries
    assert hash(hp) == hash(twin)


def check_group_builds_no_scalar(field, n, rng):
    W = drawn_weight(rng.choice(["exponential", "geometric", "q-factorial"]), field, n, rng)
    a, b = [RiordanPair(raw_copy(series(field, n, rng, 0)), raw_copy(series(field, n, rng, 1)))
            for _ in range(2)]
    with mock.patch.object(Scalar, "__init__", autospec=True,
                           side_effect=Scalar.__init__) as built:
        A = pair_to_matrix(a, W)
        ab = riordan_mul(a, b)
        inv = riordan_inv(a)
        back = matrix_to_pair(A, W)
        one = riordan_mul(a, inv)
        assert back == a
    assert built.call_count == 0
    assert pair_to_matrix(ab, W) == A @ pair_to_matrix(b, W)
    for s in [ab.alpha, ab.beta, inv.alpha, inv.beta, back.alpha, back.beta]:
        assert_reduced(s, field, n)
    assert one.alpha == Series.one(field, n) and one.beta == Series.identity(field, n)


CHECKS = [check_both_forms_agree, check_kernels, check_group_builds_no_scalar,
          check_constructors_hold_the_raw_form]


@st.composite
def cases(draw):
    """(field, N, rng) over QQ, GF(2), GF(3) and GF(1000003) at N = 2..16."""
    p = draw(st.sampled_from(PRIMES))
    return Field(p), draw(st.integers(2, 16)), random.Random(draw(st.integers(0, 2**32 - 1)))


@pytest.mark.parametrize("check", CHECKS, ids=lambda c: c.__name__)
def test_small_orders(check):
    @settings(max_examples=60, deadline=None)
    @given(cases())
    def run(case):
        check(*case)
    run()


@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_the_largest_order_once_per_field(p):
    for check in CHECKS:
        check(Field(p), MAX_ORDER, random.Random(p or 0))


@pytest.mark.parametrize("p", PRIMES, ids=str)
def test_extended_binomial_builds_no_field(p):
    field, rng = Field(p), random.Random(p or 1)
    xis = [field.scalar(v) for v in (0, 1, 2, 5, -3)] + [field.scalar(rng.randrange(1, 10**6))]
    if p is None:
        xis += [field.scalar(Fraction(-7, 3)), field.scalar(Fraction(1, 2))]
    for xi in xis:
        for n in [-1, 0, 1, 2, 3, 6, 17, 64]:
            with mock.patch.object(Field, "__post_init__", autospec=True,
                                   side_effect=Field.__post_init__) as made:
                got = outcome(lambda: [extended_binomial(xi, n)])
            assert made.call_count == 0
            want = outcome(lambda: [extended_binomial_field_reference(xi, n)])
            assert got == want, (xi, n)
