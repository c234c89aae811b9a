"""Truncated formal power series with exact coefficients.

A Series stores exactly ``order`` coefficients c_0..c_{order-1} over one
field; every operation is exact through that order.  Orders are capped at
2..64, the intended scale for exact triangular-group work.

A Series holds one stored form from construction on, its raw form, as a
TriMatrix holds its raw columns: read off the Scalars the constructor is
given (``_over_common_denominator``), or as a kernel built it
(``Series._from_raw``).  The raw form (ints, den) lists the N
coefficients as integers over one denominator over QQ and residues over
1 over GF(p), in reduced form: den > 0 and gcd(den, ints...) = 1.  It is
unique, so == and hash read it.  ``_reduce`` is the one normaliser that
puts kernel integers into it over both fields, and the kernels that end
in integers over a denominator return through it.  The kernels here
take and return raw values and build no Scalar: ``_convolve`` multiplies
(Series.__mul__), ``_apply_rows`` applies lower-triangular rows over one
denominator to vectors given from a row k on, and
``_forward_substitute`` is the one triangular solver, behind
Series.invert and Series.__truediv__ (the Toeplitz matrix of the
divisor, ``_divide``), Series.comp_inverse, riordan_inv and, through
``_inverse_columns``, TriMatrix.inverse and V = U^{-1} of operators.py.
It takes integer rows, each caller putting its matrix over one
denominator once, and integer right-hand sides over one denominator, and
returns each solution as one raw column (ints, den) in reduced form,
over QQ the integers over one running denominator.  Over GF(p), where
sums fit 64-bit slots (below), a whole inverse is ``_packed_inverse``
instead.  Scalars are a read-only view, kept when the constructor was
given them and otherwise built from the raw form (``_wrap``), never the
other way round, where a caller reads them: coeffs and the ring
operations +, -, negation and scale.  The output reads no Scalar:
``_texts`` is the one formatter, the text of each entry of a raw form,
byte-equal to str(Scalar) ("a" or "a/b" in lowest terms, one gcd per
entry, over QQ; "v mod p" over GF(p)), and to_json and repr of every
container (Series, Weight, Functional, TriMatrix, HPolyMatrix) and
check_report's alpha and beta go through it.  The raw form and its two
conversions (``_wrap``, ``_over_common_denominator``) belong to this
module, triangular.py (a raw form per column) and operators.HPolyMatrix
(a raw form per slot, of any length); every other module reads a
coefficient vector through a Series, as Weight (w and 1/w) and
Functional do.  The builtin weights and series start on raw values as
well: ``_running_product`` multiplies the N - 1 integer steps (a_n, b_n)
of w_n = w_{n-1} a_n / b_n out into a reduced raw form, one pow for all
N over GF(p), and builds no Scalar (Series.exp, the Weight builtins and
operators._translation_series); ``_entrywise`` multiplies two raw forms
(W(hy), Weight.rescale) and ``_reciprocal`` takes 1/v from a raw v, the
1/w of a weight of user values.

``_geometric_columns`` is the one loop over the powers of a series: it
yields the raw columns c g^k of R_(c,g), the ordinary Riordan matrix of
(c, g), column k from row k - 1 of column k - 1 on (g_0 = 0), about
N^3/6 multiply-adds for all N.  pair_to_matrix and the membership walk
of riordan.py consume it; ``_power_table`` puts the columns of R_g = R_(1,g)
over one denominator as rows (``_rows_over_lcm``, which also gives
_lowering_witness the rows of U).  Column j of R_g holds g^j, so R_g f is
the coefficient vector of f o g, and R_g serves the whole group law:
``_apply_power_table`` applies it (Series.compose, riordan_mul) through
``_apply_rows``, the one product of rows over one denominator with a raw
vector, which functionals._after_operator runs on the rows of U
(functionals.product_rule_check reaches it through Series.compose),
TriMatrix.__matmul__ on the rows of its left factor and
operators.solve_conjugator on the rows of M, the last two on columns cut
at their diagonal; and
``_solve_power_table`` solves with it, R_g x = e_1 giving g^{<-1>} and
R_g h = f giving f o g^{<-1>} (Series.comp_inverse, riordan_inv).

Over GF(p), when n (p - 1)^2 < 2^64 (``_packs``), a sum of n products of
residues fits one unsigned 64-bit slot, so a product of two length-n
residue lists is one big-integer multiply: each list is packed into one
integer, one residue per 64-bit slot (``_pack``, through array("Q")), the
product carries from no slot into the next, and its low slots are read
back at once (``_low_slots``, one memoryview cast) and reduced mod p
(Kronecker substitution).  ``_convolve`` multiplies so, and with it
Series.__mul__ and the columns of ``_geometric_columns``;
operators.d_polynomials takes its shifted dot products so, and
operators._lowering_witness its entries in columns k >= 2, one product
per row of U.  ``_packed_inverse`` solves L^{-1} row by row, each row one
sum of earlier packed rows times small residues (TriMatrix.inverse,
V = U^{-1} of d_polynomials and dual_basis); where the lcm of the column
denominators is 1, as over GF(p), ``_rows_over_lcm`` transposes with
zip.  At GF(1000003) that holds through N = 64; there a packed _convolve took
0.33-0.54 of the dot products' time at n = 8..20 and 1.8 times it at
n = 1 (timeit minima, Python 3.11, 2 shared CPUs), and in the membership
walk at N = 12..20 a least packed length of 2, 3 or 4 read the same as
none.  QQ and larger primes keep the dot products.
"""

from __future__ import annotations

import sys
from array import array
from itertools import zip_longest
from math import gcd, lcm
from operator import mul

from .errors import (
    BackendMismatch,
    InnerValuationZero,
    NotInvertible,
    NotValuationOne,
)
from .scalars import Field, Scalar, _Q

MIN_ORDER = 2
MAX_ORDER = 64

INFINITY = float("inf")  # valuation of the zero series

_BYTEORDER = sys.byteorder  # array("Q") holds native words


def check_order(n: int) -> None:
    if not MIN_ORDER <= n <= MAX_ORDER:
        raise ValueError(f"order must be in {MIN_ORDER}..{MAX_ORDER}, got {n}")


def _packs(n, p):
    """Whether n products of residues mod p sum below 2^64, so that sums of
    up to n of them fit one unsigned 64-bit slot (_pack); never over QQ."""
    return p is not None and n * (p - 1) ** 2 < 1 << 64


def _pack(vals):
    """Integers 0 <= v < 2^64 as one integer, vals[i] in 64-bit slot i."""
    return int.from_bytes(array("Q", vals), _BYTEORDER)


def _low_slots(x, n):
    """The low n 64-bit slots of x, the product of two packed integers of n
    slots each, as a list; under _packs no slot has carried into the next."""
    return memoryview(x.to_bytes(16 * n, _BYTEORDER)).cast("Q")[:n].tolist()


def _convolve(a, b, p=None):
    """Truncated product of two equal-length int coefficient lists, reduced
    mod p when p is given (residues then, 0 <= a_i, b_i < p).

    When the n-term sums fit 64-bit slots (_packs), it is one multiply of
    the packed lists, their low n slots unpacked at once."""
    n = len(a)
    if _packs(n, p):
        return [v % p for v in _low_slots(_pack(a) * _pack(b), n)]
    rb = b[::-1]
    if p is None:
        return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) for m in range(n)]
    return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) % p for m in range(n)]


def _forward_substitute(field, rows, rhss, den_b):
    """Solve L x = b by forward substitution on raw values, for each b in
    rhss, each solution as one raw column in reduced form.

    rows[i] lists L_{i,0..i} as integers (residues mod p over GF(p)) with
    L_{i,i} nonzero.  Each b lists B_k..B_{n-1}, integers over den_b > 0,
    its entries before k being zero, and its solution x_k..x_{n-1} is
    returned as (X, D), x_i = X_i / D:
    x_i = (b_i - sum_{k <= j < i} L_{i,j} x_j) / L_{i,i}.

    Over GF(p) (den_b is 1) each step is one dot product of residues,
    reduced once, each distinct diagonal value is inverted once (a Toeplitz
    solve has one), and the solution is (residues, 1).  Over QQ the solve
    is fraction-free on integer rows R (a caller puts its matrix over one
    denominator D_L and solves D_L L x = D_L b), and the solved
    x_k..x_{i-1} are integers X over one running denominator D, so each
    step is one integer dot product,

        x_i = (B_i D - den_b sum_j R_{i,j} X_j) / (den_b D R_{i,i}),

    put in lowest terms by one gcd and a sign.  When its denominator does
    not divide D, D grows to their lcm and X is rescaled to match.  D is so
    the lcm of the denominators of x_k..x_{n-1}, and (X, D) is in reduced
    form, den > 0 and gcd(D, X...) = 1, as it stands; a zero b gives
    (zeros, 1).
    """
    p, n = field.p, len(rows)
    out = []
    if p is not None:
        diag_inv = _diagonal_inverses(rows, p)
        for b in rhss:
            k, x = n - len(b), []
            for i in range(k, n):
                x.append((b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i] % p)
            out.append((x, 1))
        return out
    for b in rhss:
        k, ints, den = n - len(b), [], 1
        for i in range(k, n):
            r = rows[i]
            num, dv = b[i - k] * den - den_b * sum(map(mul, r[k:i], ints)), den_b * den * r[i]
            g = gcd(num, dv) if dv > 0 else -gcd(num, dv)
            num, dv = num // g, dv // g
            if den % dv:
                grow = dv // gcd(den, dv)
                ints = [c * grow for c in ints]
                den *= grow
            ints.append(num * (den // dv))
        out.append((ints, den))
    return out


def _diagonal_inverses(rows, p):
    """1 / L_{i,i} mod p for each row i of L, each distinct value inverted once."""
    inv = {d: pow(d, -1, p) for d in {row[i] for i, row in enumerate(rows)}}
    return [inv[row[i]] for i, row in enumerate(rows)]


def _packed_inverse(rows, p):
    """The columns of V = L^{-1} over GF(p) as raw columns (residues, 1)
    from the diagonal down, column k listing V_{k..n-1,k}, from rows[i]
    listing L_{i,0..i} as residues with L_{i,i} nonzero, when sums of n
    products of residues fit 64-bit slots (_packs(n, p)).

    V is solved row by row: V_{i,i} = 1 / L_{i,i} and, off the diagonal,
    row i is -(sum_{j<i} L_{i,j} V_j) / L_{i,i}.  Each solved row V_j is
    kept packed (_pack), so the sum is i big-int-by-small multiplies and
    one unpack of its low i slots (_low_slots), each reduced mod p once.
    """
    packed, out = [], []
    for i, (row, d) in enumerate(zip(rows, _diagonal_inverses(rows, p))):
        out.append([-s * d % p for s in _low_slots(sum(map(mul, row, packed)), i)] + [d])
        packed.append(_pack(out[-1]))
    return [(list(col[k:]), 1) for k, col in enumerate(zip_longest(*out, fillvalue=0))]


def _inverse_columns(field, cols):
    """The inverse of a graded lower-triangular L from its raw columns:
    (the rows of L over one denominator D, (rows, D) as _rows_over_lcm
    gives them, and the columns of L^{-1} as raw columns in reduced form
    from the diagonal down, column k listing rows k..N-1).  The rows hold
    D L, so one forward substitution on them with right-hand sides D e_k
    solves for L^{-1} itself, one dot product per entry.  Over GF(p) with
    N (p - 1)^2 < 2^64 (_packs), D is 1 and L^{-1} is solved row by row
    instead, each row one sum of the earlier rows packed into 64-bit slots
    times the residues of row i of L, unpacked once (_packed_inverse)."""
    rows, den = _rows_over_lcm(cols)
    if _packs(len(rows), field.p):
        return (rows, den), _packed_inverse(rows, field.p)
    e = [[den] + [0] * (len(rows) - 1 - k) for k in range(len(rows))]
    return (rows, den), _forward_substitute(field, rows, e, 1)


def _ints_over_lcm(vals):
    """Rationals (or integers) as (integer numerators, their least common denominator)."""
    # A list, not a generator: CPython builds a tuple from a generator by
    # resizing, which bypasses its tuple free lists while freeing still
    # fills them, so every call would park a tuple there until the next
    # full collection (peak RSS grows).  tuple(generator) does the same.
    den = lcm(*[v.denominator for v in vals])
    return [v.numerator * (den // v.denominator) for v in vals], den


def _reduce(ints, den, k=0, p=None):
    """The column [0] * k + ints over den in reduced form, the one
    normaliser of kernel output.  Over QQ (p None) ints and den, den
    nonzero, are divided by the gcd of all of them, taken with the sign of
    den, so den > 0, as _ints_over_lcm gives normalised rationals; a zero
    column becomes (zeros, 1).  Over GF(p) the residues of ints over 1."""
    if p is not None:
        return [0] * k + [x % p for x in ints], 1
    g = gcd(den, *ints) if den > 0 else -gcd(den, *ints)
    if g != 1:
        ints, den = [x // g for x in ints], den // g
    return [0] * k + ints, den


def _over_common_denominator(field, coeffs):
    """Rational coefficients of field as (integer numerators, their common
    denominator); residues mod p as (residues, 1).  No coefficient is read
    for the field, so coeffs may be empty."""
    vals = [c.val for c in coeffs]
    if field.p is not None:
        return vals, 1
    return _ints_over_lcm(vals)


def _wrap(field, ints, den=1):
    """The inverse of _over_common_denominator: integers over den as Scalars
    of QQ (one normalising Fraction each only when den is not 1), or
    residues 0 <= v < p of GF(p) as they are (den is then 1)."""
    p = field.p
    if p is not None:
        return [Scalar(v, p) for v in ints]
    return [Scalar(_Q(v)) for v in ints] if den == 1 else [Scalar(_Q(v, den)) for v in ints]


def _texts(p, ints, den):
    """The text of each entry of a raw form (ints, den), byte-equal to
    str(Scalar) of its value: over QQ "a" or "a/b" in lowest terms, one gcd
    per entry, or str(v) of each when den is 1; over GF(p) "v mod p"."""
    if p is not None:
        return [f"{v} mod {p}" for v in ints]
    if den == 1:
        return list(map(str, ints))
    gs = [gcd(v, den) for v in ints]
    return [str(v // g) if g == den else f"{v // g}/{den // g}" for v, g in zip(ints, gs)]


def _scalar_raw(x):
    """One Scalar as (integer, den): its numerator and denominator over QQ,
    (residue, 1) over GF(p)."""
    return (x.val, 1) if x.p is not None else (x.val.numerator, x.val.denominator)


def _running_product(p, steps):
    """The reduced raw form of w_0..w_{N-1}, w_0 = 1 and w_n = w_{n-1} a_n / b_n,
    from the N - 1 integer steps (a_n, b_n), each b_n nonzero (mod p over
    GF(p)); the steps (b_n, a_n) give 1/w when no a_n is zero.

    With the prefix products A_n = a_1 ... a_n and B = b_1 ... b_{N-1},
    w_n = A_n s_n for s_n = b_{n+1} ... b_{N-1} / B = 1 / (b_1 ... b_n), taken
    in one walk back from s_{N-1} = 1 / B: over QQ the integers
    A_n b_{n+1} ... b_{N-1} over B, reduced once (_reduce); over GF(p)
    residues, with 1 / B the one pow for all N (Montgomery's batch
    inversion).  No power or factorial is taken per index.
    """
    tops, den = [1], 1
    for a, b in steps:
        tops.append(tops[-1] * a if p is None else tops[-1] * a % p)
        den = den * b if p is None else den * b % p
    s = 1 if p is None else pow(den, -1, p)
    for n in range(len(steps), 0, -1):
        tops[n] *= s
        s = s * steps[n - 1][1] if p is None else s * steps[n - 1][1] % p
    tops[0] = s
    return _reduce(tops, den, p=p)


def _reciprocal(p, ints, den):
    """The reduced raw form of 1/v from the reduced raw form (ints, den) of
    v, no v_n zero and v_0 = 1: over QQ den (L / ints_n) over L, the lcm of
    the ints, reduced once; over GF(p) the running product of the steps
    (v_{n-1}, v_n), whose prefix products telescope to 1 / v_n."""
    if p is not None:
        return _running_product(p, list(zip(ints, ints[1:])))
    top = lcm(*ints)
    return _reduce([den * (top // x) for x in ints], top)


def _entrywise(p, x, y):
    """The reduced raw form of the entrywise product of the raw forms x and y."""
    return _reduce(list(map(mul, x[0], y[0])), x[1] * y[1], p=p)


def _geometric_columns(c, dc, g):
    """The N raw columns (c / dc) g^k, k = 0..N-1, of R_(c,g), the ordinary
    Riordan matrix of (c, g): column k is column k-1 times g.

    g must have g_0 = 0: then column k - 1 is zero above row k - 1 and g_0
    adds nothing, so each product starts there, one convolution of N - k
    terms for column k, about N^3/6 multiply-adds in all.  A RiordanPair's
    beta, the inner series of compose and the argument of comp_inverse all
    have g_0 = 0.
    """
    (b, db), n = g._raw(), g.order
    yield c, dc
    for k in range(1, n):
        c, dc = [0] * k + _convolve(c[k - 1 : n - 1], b[1 : n - k + 1], g.field.p), dc * db
        yield c, dc


def _rows_over_lcm(cols):
    """A list of raw columns (ints, den) of a lower-triangular matrix as its
    rows over one denominator: (rows, D), D the lcm of the den and rows[m]
    listing entries (m, 0..m) as integers over D (residues over 1 over GF(p))."""
    ints, dens = zip(*cols)
    den = lcm(*dens)
    if den == 1:  # every GF(p) matrix: a transpose
        return [list(r[: m + 1]) for m, r in enumerate(zip(*ints))], 1
    scale = [den // d for d in dens]
    return [[ints[j][m] * scale[j] for j in range(m + 1)] for m in range(len(ints))], den


def _power_table(g):
    """R_g = R_(1,g) on raw values, (rows, D): rows[m] lists [y^m] g^j for
    j <= m over D (d^(N-1) over QQ, d the denominator of g; 1 over GF(p))."""
    return _rows_over_lcm(list(_geometric_columns([1] + [0] * (g.order - 1), 1, g)))


def _apply_rows(field, table, *vectors):
    """[M v for v in vectors] as raw columns (ints, den) in reduced form,
    listing all N rows, M lower-triangular given as table = (rows, D)
    (_rows_over_lcm) and each v as raw (ints, den) of length N - k, its
    entries k..N-1, those before k being zero, as the right-hand sides of
    _forward_substitute are given: for each row m >= k one integer dot
    product of entries (m, k..m) with v, over D times den, reduced once
    (_reduce).  A full-length v (k = 0) takes the rows as they are,
    copying none."""
    (rows, den), p, out = table, field.p, []
    for a, da in vectors:
        k = len(rows) - len(a)
        ints = ([sum(map(mul, row[k:], a)) for row in rows[k:]] if k
                else [sum(map(mul, row, a)) for row in rows])
        out.append(_reduce(ints, den * da, k, p))
    return out


def _apply_power_table(g, *series):
    """[f o g for f in series], f of the field and order of g: R_g f
    (_apply_rows)."""
    field = g.field
    return [Series._from_raw(field, *x)
            for x in _apply_rows(field, _power_table(g), *[f._raw() for f in series])]


def _solve_power_table(g, *series):
    """[g^{<-1>}] + [f o g^{<-1>} for f in series], g of valuation 1 and f of
    its field and order: h = f o g^{<-1>} solves R_g h = f (as h o g = f),
    and g^{<-1>} = y o g^{<-1>} solves R_g x = y.  One forward substitution
    on R_g for all; it divides only by the diagonal g_1^m, never by an
    integer."""
    field, (rows, den) = g.field, _power_table(g)
    fs = [f._raw() for f in series]
    db = lcm(*[d for _, d in fs])  # the right-hand sides over one denominator
    rhss = [[0, den * db] + [0] * (g.order - 2)] + [[den * (db // d) * v for v in b] for b, d in fs]
    return [Series._from_raw(field, *x) for x in _forward_substitute(field, rows, rhss, db)]


def _divide(field, b, divisor):
    """The series x with c x = b through the order, from b and the divisor
    c each as raw (integers, den) (Series._raw).

    One solve of T x = dc b for the Toeplitz matrix T of the integers of
    c, row m being c_m, ..., c_0, with dc b = (dc B) / db; c_0 must be
    nonzero.  Over GF(p) both den are 1 and b is passed as it is.
    """
    (b, db), (c, dc) = b, divisor
    if not c[0]:
        raise NotInvertible("constant term vanishes")
    if dc != 1:
        b = [v * dc for v in b]
    (x,) = _forward_substitute(field, [c[m::-1] for m in range(len(c))], [b], db)
    return Series._from_raw(field, *x)


class Series:
    """N coefficients over one field, held in reduced raw form (ints, den)
    (_reduce) from construction on: read off the Scalars a caller gives,
    or as a kernel built it (_from_raw).  That form is unique, so == and
    hash read it.  The Scalars are a read-only view, kept when given and
    otherwise built from the raw form on their first read."""

    __slots__ = ("field", "_coeffs", "_ints")

    def __init__(self, field: Field, coeffs):
        coeffs = tuple(coeffs)
        check_order(len(coeffs))
        field.check(coeffs, "coefficient")
        self.field, self._coeffs, self._ints = field, coeffs, _over_common_denominator(field, coeffs)

    @classmethod
    def _from_raw(cls, field, ints, den, coeffs=None):
        """Wrap kernel output, unchecked: N integers over den of field in
        reduced form (_reduce), residues over 1 over GF(p).  coeffs, the
        checked Scalars that form was read off, if any, are kept as its view."""
        out = object.__new__(cls)
        out.field, out._coeffs, out._ints = field, coeffs, (ints, den)
        return out

    @property
    def coeffs(self) -> tuple:
        """The coefficients as Scalars, built from the raw form once."""
        if self._coeffs is None:
            self._coeffs = tuple(_wrap(self.field, *self._ints))
        return self._coeffs

    def _raw(self):
        """(ints, den) in reduced form: integers over their least common
        denominator over QQ, residues over 1 over GF(p)."""
        return self._ints

    # -- constructors ----------------------------------------------------
    @classmethod
    def from_values(cls, field, order, values):
        """Build from ints/strings/Scalars, zero-padding up to `order`.  The
        count of values, then the order, is checked before any is converted."""
        values = list(values)
        if len(values) > order:
            raise ValueError(f"{len(values)} coefficients exceed order {order}")
        check_order(order)
        return cls(field, [field.scalar(v) for v in values] + [field.zero()] * (order - len(values)))

    @classmethod
    def zero(cls, field, order):
        return cls.from_values(field, order, [])

    @classmethod
    def one(cls, field, order):
        return cls.constant(field, order, 1)

    @classmethod
    def constant(cls, field, order, c):
        return cls.from_values(field, order, [c])

    @classmethod
    def exp(cls, field, order, h):
        """exp(h y) = sum (h y)^l / l!, the running product c_l = c_{l-1} h / l
        on integers (_running_product); in GF(p) it needs order <= p."""
        check_order(order)
        (a, b), p = _scalar_raw(field.scalar(h)), field.p
        if p is not None and order > p:
            raise NotInvertible(f"{p}! is 0 in GF({p})")
        return cls._from_raw(field, *_running_product(p, [(a, b * l) for l in range(1, order)]))

    @classmethod
    def identity(cls, field, order):
        """The series y, the identity for composition."""
        return cls.monomial(field, order, 1)

    @classmethod
    def monomial(cls, field, order, k, c=1):
        if not 0 <= k < order:
            raise ValueError(f"exponent {k} out of range for order {order}")
        check_order(order)
        num, den = _scalar_raw(field.scalar(c))
        return cls._from_raw(field, [0] * k + [num] + [0] * (order - k - 1), den)

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self._ints[0])

    def coeff(self, n: int) -> Scalar:
        if not 0 <= n < self.order:
            raise IndexError(f"coefficient {n} out of range")
        return self.coeffs[n]

    def valuation(self):
        """Least index with a nonzero coefficient; INFINITY if none.

        A result of INFINITY only means "zero through this order": nothing
        is known beyond the truncation.
        """
        return next((n for n, c in enumerate(self._raw()[0]) if c), INFINITY)

    def _check_same(self, other):
        if not isinstance(other, Series):
            raise BackendMismatch(f"expected Series, got {type(other).__name__}")
        if other.field != self.field or other.order != self.order:
            raise BackendMismatch("series orders or fields differ")

    # -- ring operations -------------------------------------------------
    def __add__(self, other):
        self._check_same(other)
        return Series(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check_same(other)
        return Series(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series(self.field, [-c for c in self.coeffs])

    def scale(self, c: Scalar):
        return Series(self.field, [c * a for a in self.coeffs])

    def __mul__(self, other):
        # The convolution runs on the raw forms: over QQ the integers over
        # da db, reduced once by one gcd; over GF(p) each sum is reduced once.
        self._check_same(other)
        (a, da), (b, db), p = self._raw(), other._raw(), self.field.p
        c = _convolve(a, b, p)
        return Series._from_raw(self.field, *(_reduce(c, da * db) if p is None else (c, 1)))

    def __pow__(self, k: int):
        """self^k by repeated squaring: at most 2 k.bit_length() products."""
        if k < 0:
            raise ValueError("negative powers not supported; use invert()")
        out, base = Series.one(self.field, self.order), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def invert(self):
        """Multiplicative inverse; requires a unit constant term."""
        one = [1] + [0] * (self.order - 1)
        return _divide(self.field, (one, 1), self._raw())

    def __truediv__(self, other):
        """self / other; other needs a unit constant term."""
        self._check_same(other)
        return _divide(self.field, self._raw(), other._raw())

    # -- composition -----------------------------------------------------
    def compose(self, inner):
        """self(inner(y)), exact through the order; inner must kill constants.

        One matrix-vector product R_inner self (_apply_power_table).
        """
        self._check_same(inner)
        if inner._raw()[0][0]:
            raise InnerValuationZero("inner series has nonzero constant term")
        return _apply_power_table(inner, self)[0]

    def comp_inverse(self):
        """Compositional inverse g of a valuation-1 series f, in O(N^3).

        Column j of the ordinary Riordan matrix R of (1, f) holds f^j, so
        g(f(y)) = y reads R g = e_1, solved by forward substitution
        (_solve_power_table).  That divides only by the diagonal entries
        f_1^m, never by an integer, so unlike Lagrange inversion it holds in
        every characteristic.
        """
        if self.valuation() != 1:
            raise NotValuationOne("compositional inverse needs valuation exactly 1")
        return _solve_power_table(self)[0]

    # -- plumbing ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.field == other.field and self._raw() == other._raw()

    def __hash__(self):
        ints, den = self._raw()
        return hash((self.field, tuple(ints), den))

    def __repr__(self):
        return f"Series[{', '.join(_texts(self.field.p, *self._ints))}; O(y^{self.order})]"

    def to_json(self):
        return _texts(self.field.p, *self._ints)

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(s) for s in data])
