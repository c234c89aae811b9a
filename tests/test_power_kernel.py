"""The powers of a series from one kernel, against the loops it replaces.

series._geometric_columns yields the raw columns c g^k of R_(c,g), each
product started where its column's zeros end; _power_table puts the
columns of R_g = R_(1,g) over one denominator as rows (_rows_over_lcm,
which also gives _lowering_witness the rows of U); _apply_power_table and
_solve_power_table apply and solve with R_g for Series.compose,
riordan_mul, Series.comp_inverse and riordan_inv.  The references below
are the replaced code, kept verbatim: the old _power_table, the old
endless _geometric_columns, the old _apply_power_table, the bodies of
compose, comp_inverse, riordan_mul and riordan_inv on them, and the rows
step of _lowering_witness.  Raw outputs must be the same integers over the
same denominator, and results, error types and messages must agree, over
QQ, GF(2), GF(3) and GF(1000003) at N = 2..16 (half the draws at N <= 4),
with inner series of valuation 2 and more, and once per field at N = 64.
"""

import random
import sys
from itertools import islice
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, series as series_module
from riordanlab.errors import InnerValuationZero, NotValuationOne
from riordanlab.riordan import (
    RiordanPair,
    _unweighted_columns,
    pair_to_matrix,
    riordan_inv,
    riordan_mul,
)
from riordanlab.scalars import Scalar
from riordanlab.series import (
    _apply_power_table,
    _convolve,
    _geometric_columns,
    _over_common_denominator,
    _power_table,
    _rows_over_lcm,
    _solve_power_table,
    _wrap,
)

from references import forward_substitute_rational_reference
from support import (
    MATRICES, WEIGHTS, drawn_cases, drawn_weight, matrix, other, outcome, pair, series,
)

# -- the replaced code --------------------------------------------------------


def power_table_reference(g):
    """R_g, the ordinary Riordan matrix of (1, g), on raw values: (rows, D).

    g is a series with g_0 = 0; rows[m] lists [y^m] g^j for j <= m.  Over
    GF(p) the rows hold residues and D is 1.  Over QQ they hold integers
    over the one common denominator D = d^(N-1), d that of g: column j is
    (d g)^j scaled by d^(N-1-j).
    """
    p, n = g.field.p, g.order
    c, d = _over_common_denominator(g.field, g.coeffs)
    cols = [[1] + [0] * (n - 1), c]
    for j in range(2, n):  # g^j has valuation j: convolve from index j on
        cols.append([0] * j + _convolve(cols[-1][j - 1 : n - 1], c[1 : n - j + 1], p))
    scale = [d ** (n - 1 - j) for j in range(n)]
    return [[cols[j][m] * scale[j] for j in range(m + 1)] for m in range(n)], d ** (n - 1)


def apply_power_table_reference(table, f):
    """R_g f, the series f o g, for table = _power_table(g): one dot product per
    row, reduced mod p over GF(p), as _wrap takes residues."""
    (rows, den), p = table, f.field.p
    a, da = _over_common_denominator(f.field, f.coeffs)
    sums = [sum(map(mul, row, a)) for row in rows]
    return Series(f.field, _wrap(f.field, sums if p is None else [x % p for x in sums], den * da))


def geometric_columns_reference(c, dc, beta: Series):
    """The raw columns (c / dc) beta^k for k = 0, 1, ..., one convolution
    per column after the first.  Endless: the caller stops it."""
    b, db = _over_common_denominator(beta.field, beta.coeffs)
    while True:
        yield c, dc
        c, dc = _convolve(c, b, beta.field.p), dc * db


def compose_scaled_table_reference(self, inner):
    """self(inner(y)), exact through the order; inner must kill constants."""
    self._check_same(inner)
    if inner.coeffs[0]:
        raise InnerValuationZero("inner series has nonzero constant term")
    return apply_power_table_reference(power_table_reference(inner), self)


def comp_inverse_scaled_table_reference(self):
    """Compositional inverse g of a valuation-1 series f, in O(N^3)."""
    if self.valuation() != 1:
        raise NotValuationOne("compositional inverse needs valuation exactly 1")
    field, n = self.field, self.order
    rows, den = power_table_reference(self)
    (g,) = forward_substitute_rational_reference(field, rows, [[den] + [0] * (n - 2)])
    return Series(field, [field.zero()] + [Scalar(v, field.p) for v in g])


def riordan_mul_scaled_table_reference(a, b):
    """Group law: (alpha, beta) * (gamma, delta) = (alpha*(gamma o beta), delta o beta)."""
    b.alpha._check_same(a.beta)
    table = power_table_reference(a.beta)
    return RiordanPair(
        a.alpha * apply_power_table_reference(table, b.alpha),
        apply_power_table_reference(table, b.beta),
    )


def riordan_inv_scaled_table_reference(a):
    """Group inverse (1/(alpha o beta_bar), beta_bar), beta_bar = beta^{<-1>}."""
    field, n = a.field, a.order
    rows, den = power_table_reference(a.beta)
    alpha = [den * c.val for c in a.alpha.coeffs]
    h, beta_bar = forward_substitute_rational_reference(
        field, rows, [alpha, [den] + [0] * (n - 2)])
    return RiordanPair(
        Series(field, [Scalar(v, field.p) for v in h]).invert(),
        Series(field, [field.zero()] + [Scalar(v, field.p) for v in beta_bar]),
    )


def lowering_rows_reference(A, W):
    """The rows step of _lowering_witness: the rows of U and the right-hand
    side u_0 (both over one denominator over QQ), and that denominator."""
    p, n = A.field.p, A.order
    u = _unweighted_columns(A, W)
    if p is None:
        den = lcm(*[d for _, d in u])
        u = [[x * (den // d) for x in col] for col, d in u]
    else:
        u = [col for col, _ in u]
    rows = [row[: i + 1] for i, row in enumerate(zip(*u))]  # the rows of U
    return rows, u[0][: n - 1], den if p is None else 1


# -- inputs -------------------------------------------------------------------


def exactly(x):
    """x with every number tagged by its type, lists and tuples alike: the
    same ints compare equal, an int and an equal Fraction do not."""
    if isinstance(x, (list, tuple)):
        return [exactly(v) for v in x]
    return type(x), x


INNER = st.sampled_from([1, 1, 1, 2, 3, "last", "zero"])


def inner(field, n, rng, kind):
    """A series with g_0 = 0: valuation 1, 2 or 3 (capped at N - 1), one
    nonzero coefficient at y^{N-1}, or the zero series."""
    if kind == "zero":
        return Series.zero(field, n)
    return series(field, n, rng, n - 1 if kind == "last" else min(kind, n - 1))


def column_zero(field, n, rng):
    """Raw (c, dc) of a series of any valuation, the zero series included."""
    s = series(field, n, rng, rng.choice([None, 0, 1, n]))
    return _over_common_denominator(field, s.coeffs)


# -- tests --------------------------------------------------------------------


def check_kernels(field, n, rng, kind):
    g = inner(field, n, rng, kind)
    c, dc = column_zero(field, n, rng)
    cols = list(_geometric_columns(c, dc, g))
    assert len(cols) == n
    assert exactly(cols) == exactly(list(islice(geometric_columns_reference(c, dc, g), n)))
    assert exactly(_power_table(g)) == exactly(power_table_reference(g))
    fs = [series(field, n, rng, rng.choice([None, 0, 1])) for _ in range(rng.randrange(3))]
    table = power_table_reference(g)
    assert _apply_power_table(g, *fs) == [apply_power_table_reference(table, f) for f in fs]
    if g.valuation() == 1:  # h = f o g^{<-1>} is the one series with h o g = f
        g_bar, *hs = _solve_power_table(g, *fs)
        assert g_bar == comp_inverse_scaled_table_reference(g)
        assert [compose_scaled_table_reference(h, g) for h in hs] == fs


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), INNER)
def test_power_kernels_match_the_old_loops(case, kind):
    check_kernels(*case, kind)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES)
def test_rows_of_u_match_the_old_step(case, wkind, akind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    rows, den = _rows_over_lcm(_unweighted_columns(A, W))
    ref_rows, ref_rhs, ref_den = lowering_rows_reference(A, W)
    assert exactly(rows) == exactly(ref_rows)
    assert exactly([row[0] for row in rows[: n - 1]]) == exactly(ref_rhs)
    assert exactly(den) == exactly(ref_den)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from([1, 1, 2, 3, 0, "zero", "short", "long", "foreign"]))
def test_compose_and_comp_inverse_match_the_old_bodies(case, kind):
    field, n, rng = case
    f = series(field, n, rng)
    if kind == "foreign":
        g = series(other(field), n, rng, 1)
    elif kind in ("short", "long"):
        g = series(field, n - 1 if kind == "short" and n > 2 else n + 1, rng, 1)
    elif kind == "zero":
        g = Series.zero(field, n)
    else:
        g = series(field, n, rng, min(kind, n - 1))
    assert outcome(Series.compose, f, g) == outcome(compose_scaled_table_reference, f, g)
    assert outcome(Series.comp_inverse, g) == outcome(comp_inverse_scaled_table_reference, g)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from(["same", "same", "same", "other-order", "other-field"]))
def test_group_law_matches_the_old_bodies(case, where):
    field, n, rng = case
    a = pair(field, n, rng)
    b = pair({"same": field, "other-order": field, "other-field": other(field)}[where],
             n + (where == "other-order"), rng)
    assert outcome(riordan_mul, a, b) == outcome(riordan_mul_scaled_table_reference, a, b)
    assert outcome(riordan_inv, a) == outcome(riordan_inv_scaled_table_reference, a)


@pytest.mark.parametrize("p", [None, 2, 3, 1000003])
def test_kernels_at_the_largest_order(p):
    field, rng = Field(p), random.Random(64)
    check_kernels(field, 64, rng, 1)
    check_kernels(field, 64, rng, 2)
    a, b = pair(field, 64, rng), pair(field, 64, rng)
    assert riordan_mul(a, b) == riordan_mul_scaled_table_reference(a, b)
    assert riordan_inv(a) == riordan_inv_scaled_table_reference(a)
    W = drawn_weight("geometric", field, 64, rng)
    rows, den = _rows_over_lcm(_unweighted_columns(pair_to_matrix(a, W), W))
    ref_rows, _, ref_den = lowering_rows_reference(pair_to_matrix(a, W), W)
    assert (exactly(rows), den) == (exactly(ref_rows), ref_den)


@pytest.mark.parametrize("p", [None, 1000003])
def test_pair_to_matrix_starts_each_power_at_its_valuation(p, monkeypatch):
    # column k convolves N - k terms, sum_{L=1}^{15} L(L+1)/2 = 680 at N = 16,
    # where the old loop convolved all N terms of every column: 15 * 136
    field, rng = Field(p), random.Random(16)
    a, W = pair(field, 16, rng), drawn_weight("geometric", field, 16, rng)
    terms, convolve = [], _convolve

    def counting(x, y, p=None):
        terms.append(len(x) * (len(x) + 1) // 2)
        return convolve(x, y, p)

    for module in (series_module, sys.modules[__name__]):
        monkeypatch.setattr(module, "_convolve", counting)
    pair_to_matrix(a, W)
    assert sum(terms) == 680
    terms.clear()
    alpha = _over_common_denominator(a.alpha.field, a.alpha.coeffs)
    list(islice(geometric_columns_reference(*alpha, a.beta), 16))
    assert sum(terms) == 2040
