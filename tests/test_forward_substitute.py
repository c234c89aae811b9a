"""The forward substitution over QQ and GF(p), against the loops it replaces.

Over QQ `_forward_substitute` takes integer rows and integer right-hand
sides over one denominator, carries the solved values as integers over one
running denominator and returns them as one raw column (ints, den) in
reduced form, building no rational.  The reference below is the former QQ
solver, kept verbatim: one `Fraction` per multiply-add.  The systems drawn
have rows of integers and of rationals (signed, mixed and large
denominators, big diagonal numerators) and right-hand sides with leading
zeros, at N = 2..64; each is put in the solver's integer form inside the
test (integer_form), and the wrapped solution must equal the reference's
on the original system exactly, as must every QQ layer the solver
serves: TriMatrix.inverse, Series.invert, Series.comp_inverse and
riordan_inv.

Over GF(p) it inverts each distinct diagonal value once, where the former
solver, kept verbatim below, took one power per row.  Solves must agree
over GF(2), GF(7) and GF(1000003) at N = 2..64, with one diagonal value
throughout (a Toeplitz solve) and with many, and a Toeplitz solve takes
one inverse.
"""

import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import riordanlab.series
from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import NotInvertible
from riordanlab.riordan import RiordanPair, riordan_inv
from riordanlab.scalars import Scalar, _Q
from riordanlab.series import _forward_substitute, _wrap

from references import comp_inverse_reference, invert_unit_reference, riordan_inv_compose_reference

QQ = Field()

# -- the replaced code --------------------------------------------------------


def forward_substitute_qq_reference(rows, rhss):
    """Solve L x = b by forward substitution on raw rationals, for each b in rhss."""
    n = len(rows)
    diag_inv = [_Q(1) / row[i] for i, row in enumerate(rows)]
    out = []
    for b in rhss:
        k, x = n - len(b), []
        for i in range(k, n):
            v = (b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i]
            x.append(v)
        out.append(x)
    return out


def forward_substitute_gfp_reference(p, rows, rhss):
    """Solve L x = b over GF(p) on residues, for each b in rhss."""
    n = len(rows)
    out = []
    diag_inv = [pow(row[i], p - 2, p) for i, row in enumerate(rows)]
    for b in rhss:
        k, x = n - len(b), []
        for i in range(k, n):
            x.append((b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i] % p)
        out.append(x)
    return out


def inverse_fraction_loop_reference(A):
    """Inverse by forward substitution, column by column; exact."""
    n = A.order
    vals = [[c.val for c in row] for row in A.rows]
    e = [[1] + [0] * (n - 1 - k) for k in range(n)]
    cols = [[Scalar(v) for v in x] for x in forward_substitute_qq_reference(vals, e)]
    return TriMatrix(QQ, [[cols[k][i - k] for k in range(i + 1)] for i in range(n)])


# -- inputs -------------------------------------------------------------------

KINDS = ["int", "small", "large", "zero"]


def value(kind, rng, nonzero=False, dens=(2**61 - 1, 3**50)):
    """An int, a small rational, a large one (80-bit numerator, denominator
    one of `dens` or small), or zero (unless nonzero).  Drawing the large
    denominators from a few keeps exact solves at N = 64 affordable."""
    while True:
        if kind == "int":
            v = rng.randint(-40, 40)
        elif kind == "small":
            v = Fraction(rng.randint(-40, 40), rng.randint(1, 36))
        elif kind == "large":
            v = Fraction(rng.randint(-2**80, 2**80), rng.choice(dens) * rng.randint(1, 36))
        else:
            v = 0
        if v or not nonzero:
            return v


def diagonal(kind, rng, dens):
    """A nonzero diagonal entry; big numerators (up to 2^70) a third of the time."""
    if rng.randrange(3):
        return value(kind, rng, True, dens)
    num = rng.choice([-1, 1]) * rng.randint(2**60, 2**70)
    return num if kind == "int" else Fraction(num, rng.randint(1, 2**20))


@st.composite
def systems(draw, max_n=64):
    """(rows, rhss): lower-triangular rows of one entry mode (all ints, small
    or large rationals, or every entry of its own kind, zeros included) and
    one to four right-hand sides with leading offsets k; half the draws at
    N <= 4.  Large denominators come from two drawn per system."""
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, max_n)))
    mode = draw(st.sampled_from(["int", "small", "large", "mixed"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    dens = [rng.randint(2**40, 2**80) for _ in range(2)]

    def entry():
        return value(rng.choice(KINDS) if mode == "mixed" else mode, rng, False, dens)

    def pivot():
        return diagonal(rng.choice(KINDS[:3]) if mode == "mixed" else mode, rng, dens)

    rows = [[entry() for _ in range(i)] + [pivot()] for i in range(n)]
    rhss = []
    for _ in range(draw(st.integers(1, 4))):
        k = rng.choice([0, 0, rng.randrange(n)])
        rhss.append([entry() for _ in range(n - k)])
    return rows, rhss


@st.composite
def gfp_systems(draw):
    """(p, rows, rhss) over GF(2), GF(7) or GF(1000003): residues, about a
    third of them zero, under one nonzero diagonal value or a fresh one
    per row, and one to four right-hand sides with leading offsets k."""
    p = draw(st.sampled_from([2, 7, 1000003]))
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 64)))
    constant = draw(st.booleans())
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return rng.randrange(p) if rng.randrange(3) else 0

    d = rng.randrange(1, p)
    rows = [[entry() for _ in range(i)] + [d if constant else rng.randrange(1, p)]
            for i in range(n)]
    rhss = []
    for _ in range(draw(st.integers(1, 4))):
        k = rng.choice([0, 0, rng.randrange(n)])
        rhss.append([entry() for _ in range(n - k)])
    return p, rows, rhss


def as_matrix(rows):
    return TriMatrix(QQ, [[Scalar(_Q(v)) for v in row] for row in rows])


def integer_rows(rows):
    """(row i times the lcm e_i of its denominators, as integers; the e_i)."""
    e = [lcm(*[Fraction(v).denominator for v in row]) for row in rows]
    return [[(v * ei).numerator for v in row] for row, ei in zip(rows, e)], e


def integer_form(rows, rhss):
    """(rows, rhss, den_b) of the same solutions as the rational system, in
    the form the solver takes: row i and every b_i times the lcm e_i of the
    denominators of row i, then the right-hand sides over one lcm den_b."""
    n = len(rows)
    rows, e = integer_rows(rows)
    rhss = [[Fraction(v) * e[n - len(b) + j] for j, v in enumerate(b)] for b in rhss]
    den_b = lcm(*[v.denominator for b in rhss for v in b])
    return rows, [[(v * den_b).numerator for v in b] for b in rhss], den_b


def solved_values(cols):
    """The raw columns of the solver as lists of their rationals (_wrap)."""
    return [[c.val for c in _wrap(QQ, ints, den)] for ints, den in cols]


def assert_reduced(cols, rhss):
    """Each column lists one integer per entry of its b over a positive
    denominator sharing no factor with them."""
    assert [len(ints) for ints, _ in cols] == [len(b) for b in rhss]
    for ints, den in cols:
        assert all(type(v) is int for v in ints) and type(den) is int
        assert den > 0 and gcd(den, *ints) == 1


# -- tests --------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(systems())
def test_solver_matches_fraction_loop(system):
    rows, rhss = system
    zero = [0] * len(rows)  # a zero right-hand side solves to (zeros, 1)
    int_rows, int_rhss, den_b = integer_form(rows, rhss + [zero])
    got = _forward_substitute(QQ, int_rows, int_rhss, den_b)
    assert solved_values(got[:-1]) == forward_substitute_qq_reference(rows, rhss)
    assert got[-1] == (zero, 1)
    assert_reduced(got, rhss + [zero])
    # the rows negated, every diagonal value with them: the solution negates
    negated = _forward_substitute(QQ, [[-v for v in row] for row in int_rows], int_rhss, den_b)
    assert negated == [([-v for v in ints], den) for ints, den in got]


@settings(max_examples=100, deadline=None)
@given(systems(), st.sampled_from([1, 36, 2**61 - 1]))
def test_integer_right_hand_sides_over_one_denominator(system, den):
    # integers B over den, as every caller passes them,
    # solve as the rationals B / den do
    rows, rhss = system
    ints = [[Fraction(v).numerator for v in b] for b in rhss]
    int_rows, e = integer_rows(rows)
    scaled = [[v * e[len(rows) - len(b) + j] for j, v in enumerate(b)] for b in ints]
    got = _forward_substitute(QQ, int_rows, scaled, den)
    assert solved_values(got) == forward_substitute_qq_reference(
        rows, [[_Q(v, den) for v in b] for b in ints])
    assert_reduced(got, ints)


@settings(max_examples=200, deadline=None)
@given(gfp_systems())
def test_gfp_solver_matches_per_row_powers(system):
    p, rows, rhss = system
    got = _forward_substitute(Field(p), rows, rhss, 1)
    assert got == [(x, 1) for x in forward_substitute_gfp_reference(p, rows, rhss)]


def test_gfp_toeplitz_solve_inverts_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(riordanlab.series, "pow", counting, raising=False)
    rng, field = random.Random(64), Field(1000003)
    s = Series(field, [Scalar(rng.randrange(1, field.p), field.p) for _ in range(64)])
    assert s.invert() == invert_unit_reference(s)
    assert len(calls) == 1
    calls.clear()
    rows = [[rng.randrange(field.p) for _ in range(i)] + [1 + i % 3] for i in range(64)]
    A = TriMatrix(field, [[Scalar(v, field.p) for v in row] for row in rows])
    assert A @ A.inverse() == TriMatrix.identity(field, 64)
    assert len(calls) == 3  # diagonal values 1, 2, 3


def rationals_built(f, *args):
    """f(*args), and how many rationals the series module built meanwhile."""
    built = []

    def counting(*a):
        built.append(1)
        return _Q(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(riordanlab.series, "_Q", counting)
        return f(*args), len(built)


@settings(max_examples=60, deadline=None)
@given(systems())
def test_one_rational_per_solved_entry(system):
    # the solver builds none: its callers build one per entry, in _wrap
    rows, rhss = system
    got, built = rationals_built(_forward_substitute, QQ, *integer_form(rows, rhss))
    assert built == 0
    assert_reduced(got, rhss)


@settings(max_examples=100, deadline=None)
@given(systems(max_n=32))
def test_inverse_and_invert_match_fraction_loop(system):
    rows, rhss = system
    A = as_matrix(rows)
    assert A.inverse() == inverse_fraction_loop_reference(A)
    for b in rhss:  # each right-hand side as a series, leading zeros kept
        s = Series(QQ, [Scalar(_Q(v)) for v in [0] * (len(rows) - len(b)) + b])
        try:
            expected = invert_unit_reference(s)
        except NotInvertible as e:
            with pytest.raises(NotInvertible, match=f"^{e}$"):
                s.invert()
        else:
            assert s.invert() == expected


@settings(max_examples=60, deadline=None)
@given(systems(max_n=24))
def test_group_inverses_match_fraction_loop(system):
    """comp_inverse and riordan_inv on series drawn from the rows' entries:
    beta = row diagonal times y plus the rest, alpha = the first rhs."""
    rows, rhss = system
    n = len(rows)
    b = [0, rows[-1][-1]] + rows[-1][: n - 2]
    a = [rows[0][0]] + ([0] * (n - len(rhss[0])) + rhss[0])[1:]
    beta = Series(QQ, [Scalar(_Q(v)) for v in b])
    alpha = Series(QQ, [Scalar(_Q(v)) for v in a])
    assert beta.comp_inverse() == comp_inverse_reference(beta)
    pair = RiordanPair(alpha, beta)
    assert riordan_inv(pair) == riordan_inv_compose_reference(pair)


def test_invert_one_rational_per_coefficient():
    rng = random.Random(64)
    s = Series(QQ, [Scalar(_Q(value("large", rng, nonzero=True))) for _ in range(64)])
    inv, built = rationals_built(s.invert)
    assert built <= 64
    assert inv == invert_unit_reference(s)
