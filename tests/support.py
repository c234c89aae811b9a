"""Generators, strategies and helpers that more than one test module uses.

It imports no test module, only tests/references.py, which imports none
either.  Two generator families draw weights and matrices:

- drawn_weight, drawn_cases and matrix draw at random: drawn_weight one of
  WEIGHTS with random lambda and q, drawn_cases (field, N, rng) over QQ,
  GF(2), GF(3) and GF(1000003) at N = 2..16, and matrix one of MATRICES
  (a Riordan matrix is pair_to_matrix_reference of a random pair).  value,
  series, pair, bumped, weight_for and functional draw the same values.
- fixed_weight, matrix_cases and build_matrix fix lambda: fixed_weight is
  exponential(1), geometric(2) (geometric(1) over GF(2)) or random, and
  matrix_cases draws (W, A, rng) over the fields of drawn_cases at
  N = 2..12, A one of KINDS (build_matrix); sample_points draws
  translation points.

gf7_cases draws as drawn_cases with GF(7) for GF(3) (FIELDS).  outcome is
a result or the type and message of its error; other a field that is not
the given one; reduced_form the reduced raw form (ints, den) of plain
values; raw_built checks that a Series or Weight holds one and has built
no Scalar view; S a series from values; exp_series c0 W(hy) under
exponential(1); call runs the CLI in this process; unlimited_digits lifts
the digit limit of int <-> str for a block.

The exhaustive oracles run on grid (every residue of a small GF(p), or a
grid of small rationals), compare with plain (plain arithmetic put into
the field, plain_recip the inverse by search) and walk every_pair, every
Riordan pair of a small field at a small order.
"""

import contextlib
import io
import random
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm

from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix, cli
from riordanlab.errors import DivisionByZero, MathDomainError, RootOfUnity
from riordanlab.functionals import Functional
from riordanlab.riordan import RiordanPair, Weight
from riordanlab.sampling import graded_matrix, perturbed_non_riordan, riordan_matrix, scalar, weight
from riordanlab.scalars import Scalar, _Q, factorial_inv

from references import pair_to_matrix_reference


FIELDS = [None, 2, 7, 1000003]


@st.composite
def gf7_cases(draw):
    """(field, N, rng) over QQ, GF(2), GF(7), GF(1000003) at N = 2..16, half
    the draws at N <= 4."""
    p = draw(st.sampled_from(FIELDS))
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 16)))
    return Field(p), n, random.Random(draw(st.integers(0, 2**32 - 1)))


def outcome(f, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return f(*args)
    except (MathDomainError, ValueError) as e:
        return type(e), str(e)


def other(field):
    """A field that is not `field`."""
    return Field(7 if field.p != 7 else 5)


def reduced_form(vals, p):
    """The reduced raw form (ints, den) of values of GF(p), or of QQ when p
    is None, computed apart from the library: residues over 1, or the
    rationals over their lcm divided by the gcd of all; any length, 0
    included."""
    if p is not None:
        return list(vals), 1
    den = lcm(*[Fraction(v).denominator for v in vals])
    ints = [int(v * den) for v in vals]
    g = gcd(den, *ints)
    return [x // g for x in ints], den // g


def raw_built(thing):
    """thing, a Series or a Weight (both its series), after asserting that it
    holds a reduced raw form (ints, den), den > 0 and gcd(den, ints...) = 1,
    residues 0 <= v < p over 1 over GF(p), and has built no Scalar view."""
    for s in (thing._ws, thing._rs) if isinstance(thing, Weight) else (thing,):
        (ints, den), p = s._raw(), s.field.p
        assert s._coeffs is None
        assert den > 0 and gcd(den, *ints) == 1
        assert p is None or (den == 1 and all(0 <= x < p for x in ints))
    return thing


def S(field, order, *vals):
    return Series.from_values(field, order, vals)


def call(argv, stdin=""):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def unlimited_digits():
    """Lift Python's limit on the digits of int <-> str conversion for the
    body, then restore it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def grid(p):
    """The plain values an exhaustive oracle runs over: every residue of
    GF(p), or over QQ (p None) the rationals a/b, a in -3..3, b in 1..3."""
    if p is not None:
        return list(range(p))
    return sorted({Fraction(a, b) for a in range(-3, 4) for b in range(1, 4)})


def plain_recip(p, y):
    """1/y in plain arithmetic: a Fraction, or over GF(p) the residue z with
    y z = 1 mod p found by search; ZeroDivisionError when y is zero."""
    if p is None:
        return 1 / Fraction(y)
    for z in range(p):
        if y * z % p == 1:
            return z
    raise ZeroDivisionError(y)


def plain(p, f):
    """f() on plain values put into QQ or GF(p) as the Scalar of its reduced
    value, or outcome's (DivisionByZero, "division by zero") when f divides
    by zero."""
    try:
        v = f()
    except ZeroDivisionError:
        return DivisionByZero, "division by zero"
    return Scalar(Fraction(v) if p is None else v % p, p)


def every_pair(field, order):
    """Every Riordan pair of a finite field at the order, alpha_0 != 0,
    beta_0 = 0 and beta_1 != 0: (p - 1)^2 p^(2 order - 3) of them."""
    xs, zero = field.range_elements(field.p), field.zero()
    alphas = [Series(field, c) for c in product(xs, repeat=order) if c[0]]
    betas = [Series(field, (zero, *c)) for c in product(xs, repeat=order - 1) if c[0]]
    return [RiordanPair(a, b) for a in alphas for b in betas]


def exp_series(field, order, h, c0=1):
    h, c0 = field.scalar(h), field.scalar(c0)
    return Series(field, [c0 * h ** l * factorial_inv(field, l) for l in range(order)])


def value(field, rng, nonzero=False):
    """A signed rational with a denominator up to 36, or any residue."""
    while True:
        if field.p is None:
            v = Scalar(_Q(rng.randint(-40, 40), rng.randint(1, 36)))
        else:
            v = Scalar(rng.randrange(field.p), field.p)
        if v or not nonzero:
            return v


def series(field, n, rng, valuation=None):
    coeffs = [value(field, rng) for _ in range(n)]
    if valuation is not None:
        for i in range(min(valuation, n)):
            coeffs[i] = field.zero()
        if valuation < n:
            coeffs[valuation] = value(field, rng, nonzero=True)
    return Series(field, coeffs)


def pair(field, n, rng):
    return RiordanPair(series(field, n, rng, 0), series(field, n, rng, 1))


def drawn_weight(kind, field, n, rng):
    """Exponential (where n! is a unit), geometric, q-factorial or random."""
    if kind == "exponential" and (field.p is None or n <= field.p):
        return Weight.exponential(field, n, value(field, rng, nonzero=True))
    if kind == "q-factorial":
        for q in (value(field, rng), field.zero()):  # q = 0 never is a root of unity
            try:
                return Weight.q_factorial(field, n, value(field, rng, nonzero=True), q)
            except RootOfUnity:
                pass
    if kind == "random":
        return weight(field, n, rng)
    return Weight.geometric(field, n, value(field, rng, nonzero=True))


WEIGHTS = st.sampled_from(["exponential", "geometric", "q-factorial", "random"])


@st.composite
def drawn_cases(draw):
    """(field, N, rng) over QQ, GF(2), GF(3), GF(1000003) at N = 2..16; half
    the draws at N <= 4, where the first and last identities are the same few."""
    p = draw(st.sampled_from([None, 2, 3, 1000003]))
    n = draw(st.one_of(st.integers(2, 4), st.integers(2, 16)))
    return Field(p), n, random.Random(draw(st.integers(0, 2**32 - 1)))


def bumped(A, rng):
    """A with one entry below the diagonal changed."""
    rows = [list(r) for r in A.rows]
    i = rng.randrange(1, A.order)
    j = rng.randrange(i)
    rows[i][j] = rows[i][j] + value(A.field, rng, nonzero=True)
    return TriMatrix(A.field, rows)


def matrix(kind, W, rng):
    """Riordan, perturbed_non_riordan, one entry bumped, random graded, or
    not graded (a zero on the diagonal)."""
    field, n = W.field, W.order
    if kind == "perturbed" and n >= 4:
        return perturbed_non_riordan(W, rng)
    if kind in ("perturbed", "bumped"):
        return bumped(pair_to_matrix_reference(pair(field, n, rng), W), rng)
    if kind == "graded":
        return graded_matrix(field, n, rng)
    if kind == "not-graded":
        rows = [list(r) for r in graded_matrix(field, n, rng).rows]
        i = rng.randrange(n)
        rows[i][i] = field.zero()
        return TriMatrix(field, rows)
    return pair_to_matrix_reference(pair(field, n, rng), W)


MATRICES = st.sampled_from(["riordan", "perturbed", "bumped", "graded", "not-graded"])


def weight_for(wkind, field, n, rng, where):
    """A weight of the input's field and order, or of another one."""
    if where == "other-field":
        return drawn_weight(wkind, other(field), n, rng)
    return drawn_weight(wkind, field, n + (where == "other-order"), rng)


def functional(field, n, rng):
    return Functional(field, [value(field, rng) for _ in range(n)])


def _bumped(A, rng, n, k):
    rows = [list(r) for r in A.rows]
    rows[n][k] = rows[n][k] + scalar(A.field, rng, nonzero=True)
    return TriMatrix(A.field, rows)


def build_matrix(kind, W, rng):
    """One matrix of the named family over W's field and order."""
    field, n = W.field, W.order
    if kind == "perturbed" and n >= 4:
        return perturbed_non_riordan(W, rng)
    if kind in ("perturbed", "bumped"):  # one entry below the diagonal
        i = rng.randint(1, n - 1)
        return _bumped(riordan_matrix(W, rng), rng, i, rng.randrange(i))
    if kind == "corner":  # hides from u_k^2 = u_{k-1} u_{k+1} at this order, from N = 5
        return _bumped(riordan_matrix(W, rng), rng, n - 1, n - 2)
    if kind == "graded":
        return graded_matrix(field, n, rng)
    if kind == "identity":
        return TriMatrix.identity(field, n)
    if kind == "singular":  # a zero on the diagonal
        rows = [list(r) for r in graded_matrix(field, n, rng).rows]
        i = rng.randrange(n)
        rows[i][i] = field.zero()
        return TriMatrix(field, rows)
    return riordan_matrix(W, rng)


def fixed_weight(kind, field, n, rng):
    if kind == "exponential" and (field.p is None or n <= field.p):
        return Weight.exponential(field, n, 1)
    if kind == "random":
        return weight(field, n, rng)
    return Weight.geometric(field, n, 2 if field.p != 2 else 1)


KINDS = ["riordan", "perturbed", "bumped", "corner", "graded", "identity", "singular"]


@st.composite
def matrix_cases(draw, points_needed=False):
    """(W, A, rng) over QQ, GF(2), GF(3), GF(1000003) at N = 2..12; with
    `points_needed`, only where the field has N distinct elements."""
    p = draw(st.sampled_from([None, 2, 3, 1000003]))
    n = draw(st.integers(2, 12 if p is None or not points_needed else min(12, p)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    field = Field(p)
    W = fixed_weight(draw(st.sampled_from(["geometric", "random", "exponential"])), field, n, rng)
    return W, build_matrix(draw(st.sampled_from(KINDS)), W, rng), rng


def sample_points(kind, W, rng):
    """Custom translation points: N distinct, a repeat, too few, a foreign scalar."""
    field, n = W.field, W.order
    if field.p is None:
        pts = set()
        while len(pts) < n:
            pts.add(scalar(field, rng))
        pts = list(pts)
    else:
        pts = [field.scalar(v) for v in rng.sample(range(field.p), n)]
    rng.shuffle(pts)
    if kind == "repeat":
        pts[-1] = pts[0]
    elif kind == "short":
        pts.pop()
    elif kind == "foreign":
        pts[0] = Field(7).one()
    elif kind == "raw":  # ints over GF(p), Fractions over QQ
        pts = [v.val for v in pts]
    return pts
