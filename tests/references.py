"""Replaced library code, kept verbatim as references for the tests.

This module imports no test module, so any test module can import it.  A
reference that more than one test module uses lives here, and each new one
comes with a line in this index.

- iter_unweighted_columns_reference and weighted_matrix_reference: the two
  conjugation kernels by D = diag(w), each with its own QQ and GF(p)
  branch, that riordan._conjugated_columns replaces.
- finite_difference_matrix_reference: T_a - I through the Scalar rows of
  T_a and of the identity.
- forward_substitute_reference and divide_reference: the solver that put
  every row over its own lcm, and the division that passed it raw
  rational rows; invert_reference, truediv_reference and
  riordan_inv_reference run on them.
- forward_substitute_rational_reference: the solver that returned one
  rational per solved entry and still solved rational rows and right-hand
  sides, which series._forward_substitute replaces with reduced raw
  columns; solve_power_table_reference (behind riordan_inv_reference) and
  inverse_reference, TriMatrix.inverse on rational rows, run on it.
- binomial_candidate_reference: pair_to_matrix of (1, beta) for the
  candidate beta of any graded matrix.
- convolve_reference: the truncated product as one dot product per output
  coefficient, which series._convolve keeps where sums do not fit 64-bit
  slots.
- exponential_reference, geometric_reference, q_factorial_reference,
  rescale_reference, exp_reference, translation_series_reference,
  exp_case_weights_reference and q_binomial_reference: the constructors
  that raised a power or a factorial afresh for every index, which one
  running product per sequence replaces.
- tilde_weight_from_gamma_reference: the second weight as a running
  product of Scalars, one Scalar.inverse per gamma_k, which one running
  product on integers replaces.
- solve_conjugator_reference: the Krylov loop that wrapped every column
  M^k e_0 into Scalars and built the matrix from Scalar rows.
- extended_binomial_field_reference: extended_binomial through a Field
  built on every call and factorial_inv.
- series_mul_scalar_reference, apply_rows_scalar_reference,
  apply_power_table_scalar_reference, solve_power_table_scalar_reference
  and divide_scalar_reference: the series kernels that read each series
  from its Scalars (_over_common_denominator) and built Scalars from their
  output (_wrap), which kernels on raw (ints, den) replace.
- rows_over_lcm_reference, inverse_columns_dots_reference and
  lowering_witness_dots_reference: the frame that indexed each entry, and
  the inverse and the lowering witness as one dot product per entry over
  GF(p), which packed row products replace where the sums fit 64-bit
  slots (series._packs).
- WeightReference and FunctionalReference: Weight, which kept w and 1/w
  as Scalar tuples, as raw values and over their lcm, and Functional,
  which kept a Scalar tuple and built a Series from it on every
  operation, before both kept their values as Series; renamed, and
  otherwise as they were.  functional_mul_reference,
  functional_power_reference, after_operator_raw_reference,
  functional_of_operator_reference, dual_basis_reference and
  check_geometric_dual_reference are the functionals.py operations on
  FunctionalReference, the kernels among them wrapping their raw output
  into Scalars (_wrap).
- matmul_reference: TriMatrix @ over GF(p) on the residues of the Scalar
  rows of the left factor, one Scalar per entry of a row-built result.
- forward_substitute_unit_reference, compose_reference,
  comp_inverse_reference, riordan_inv_compose_reference,
  invert_unit_reference, pair_to_matrix_reference,
  beta_quotient_reference, scaled_columns_reference and
  is_riordan_reference: the group law on Scalar series (Horner
  composition, inline powers, L x = e_k solved on raw values), a matrix
  from the series alpha beta^k, beta = w_1 C_1 / C_0 as a product with an
  inverse, and the column identity u_k^2 = u_{k-1} u_{k+1} at order N.
- riordan_witness_reference, geometric_walk_reference and
  is_toeplitz_reference: the membership walks on the raw columns of U that
  cross-multiplied u_0 u_k against u_1 u_{k-1}, or listed the columns they
  built, and the Toeplitz test of U.
- change_weight_reference, appell_from_alpha_reference,
  translation_matrix_reference, dual_basis_scalar_reference and
  eval_functional_reference: the weighted matrices and functionals with
  one Scalar product per weight factor of every entry.
- d_polynomials_fraction_reference: d_polynomials that scaled every
  coefficient into one rational of its own, from the Scalar views of w and
  1/w, before each slot became one reduced raw form (ints, den); its last
  line builds the matrix from Scalars.
- matmul_raw_reference: TriMatrix @ with its own rows-times-column loop on
  the raw columns, which one series._apply_rows call replaces.
- gamma_sequence_reference and classify_gamma_reference: gamma with three
  Scalar products per entry of the Scalar views of both weights, which one
  product of the raw forms replaces, and the linear fit that checked
  lam - sigma*k at every k, which vanishing second differences replace.
- series_to_json_reference, series_repr_reference, weight_to_json_reference,
  weight_repr_reference, functional_to_json_reference,
  functional_repr_reference, pair_to_json_reference, pair_repr_reference,
  trimatrix_to_json_reference, hpoly_to_json_reference,
  polynomial_str_reference and polys_output_reference: the output read off
  the Scalar views, str(Scalar) per entry, which the texts of the raw form
  (series._texts, triangular._poly_text) replace; polys_output_reference
  gives the text lines and the JSON rows of the CLI's polys command
  through matrix_to_polys.
"""

from itertools import islice
from math import gcd, lcm
from operator import mul

from riordanlab import Series, TriMatrix
from riordanlab.errors import (
    BackendMismatch, CharP, ForbiddenLambda, InnerValuationZero, InvalidWeight, NotCommuting,
    NotDegreeDecreasing, NotInvertible, NotValuationOne, NotValuationZero, RootOfUnity,
    SingularDiagonal, ZeroLambda, ZeroShift,
)
from riordanlab.functionals import Functional
from riordanlab.operators import (
    HPolyMatrix, _check_frame, _inverse_frame, _shifted_dots, is_appell, is_degree_decreasing,
    translation_matrix,
)
from riordanlab.riordan import (
    RiordanPair, Weight, _beta_quotient, _check_matrix_order, _first_difference,
    _geometric_columns, _iter_unweighted_columns, _mixed_backends, _unweighted_columns,
    column_series, pair_to_matrix,
)
from riordanlab.scalars import Field, Scalar, _Q, _powers, extended_binomial, factorial_inv
from riordanlab.series import (
    _apply_rows, _convolve, _forward_substitute, _ints_over_lcm, _over_common_denominator,
    _power_table, _reduce, _rows_over_lcm, _wrap, check_order,
)
from riordanlab.triangular import matrix_to_polys
from riordanlab.twoweight import GammaSeq, GammaShape

# -- the conjugation kernels ----------------------------------------------------


def iter_unweighted_columns_reference(A, W):
    """The columns of U = D^{-1} A D as raw (ints, den), yielded one at a
    time so that a caller can stop at the first column it rejects:
    u_{i,k} = a_{i,k} w_k / w_i.

    Column k of U is the scaled column series w_k C_k.  Each column lists
    all N rows, zero above the diagonal: integers over one denominator over
    QQ, residues over 1 over GF(p).  The arguments are checked on the call.
    """
    _check_matrix_order(A, W)
    if A.field != W.field:
        raise _mixed_backends(A.rows[0][0], W.recip[0])
    p, n, cols = A.field.p, A.order, A._columns()
    if p is None:
        r, dr = _ints_over_lcm([x.val for x in W.recip])

        def column(k):
            a, da = cols[k]
            t = [x.val for x in W.w][k] / (da * dr)
            tn = t.numerator
            return _reduce([a[i] * r[i] * tn for i in range(k, n)], t.denominator, k)

        return map(column, range(n))
    r, w = [x.val for x in W.recip], [x.val for x in W.w]
    return (([0] * k + [a[i] * r[i] * w[k] % p for i in range(k, n)], 1)
            for k, (a, _) in enumerate(cols))


def weighted_matrix_reference(W, cols):
    """D R D^{-1}, entry (i, k) = w_i r_{i,k} / w_k, from the raw columns
    (ints, den) of an ordinary lower-triangular R (as _unweighted_columns
    returns them), as raw columns in reduced form: no Scalar is built."""
    field, p, n, recip = W.field, W.field.p, W.order, [x.val for x in W.recip]
    if p is None:
        w, dw = _ints_over_lcm([x.val for x in W.w])
        out = []
        for k, (col, den) in enumerate(cols):
            rn, rd = recip[k].numerator, recip[k].denominator
            out.append(_reduce([w[i] * col[i] * rn for i in range(k, n)], den * dw * rd, k))
    else:
        w = [x.val for x in W.w]
        out = [([0] * k + [w[i] * col[i] * rk % p for i in range(k, n)], 1)
               for k, ((col, _), rk) in enumerate(zip(cols, recip))]
    return TriMatrix._from_columns(field, out)


def finite_difference_matrix_reference(W, a):
    """Matrix of p -> T_a(p) - p; degree decreasing for any nonzero shift."""
    a = W.field.scalar(a)
    if not a:
        raise ZeroShift("shift must be nonzero")
    return translation_matrix(W, a) - TriMatrix.identity(W.field, W.order)


# -- the solver and the divisions on it ----------------------------------------


def forward_substitute_reference(field, rows, rhss):
    """Solve L x = b by forward substitution on raw values, for each b in rhss.

    rows[i] lists L_{i,0..i} as raw values (rationals or integers, or
    residues mod p) with L_{i,i} nonzero.  Each b lists b_k..b_{n-1}, its
    entries before k being zero, and its solution x_k..x_{n-1} is returned:
    x_i = (b_i - sum_{k <= j < i} L_{i,j} x_j) / L_{i,i}.

    Over GF(p) each step is one dot product of residues, reduced once, and
    each distinct diagonal value is inverted once (a Toeplitz solve has one).
    Over QQ the solve is fraction-free: row i is R_i / e_i and b is B / d_b
    with integer R_i and B, and the solved x_k..x_{i-1} are integers X over
    one running denominator D, so each step is one integer dot product,

        x_i = (B_i e_i D - d_b sum_j R_{i,j} X_j) / (d_b D R_{i,i}),

    and one rational per output, normalised there.  When its denominator
    does not divide D, D grows to their lcm and X is rescaled to match.
    """
    p, n = field.p, len(rows)
    out = []
    if p is not None:
        inv = {d: pow(d, -1, p) for d in {row[i] for i, row in enumerate(rows)}}
        diag_inv = [inv[row[i]] for i, row in enumerate(rows)]
        for b in rhss:
            k, x = n - len(b), []
            for i in range(k, n):
                x.append((b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i] % p)
            out.append(x)
        return out
    scaled = [_ints_over_lcm(row) for row in rows]
    for b in rhss:
        k, (num_b, db) = n - len(b), _ints_over_lcm(b)
        x, ints, den = [], [], 1
        for i in range(k, n):
            r, e = scaled[i]
            v = _Q(num_b[i - k] * e * den - db * sum(map(mul, r[k:i], ints)), db * den * r[i])
            dv = v.denominator
            if den % dv:
                grow = dv // gcd(den, dv)
                ints = [c * grow for c in ints]
                den *= grow
            ints.append(v.numerator * (den // dv))
            x.append(v)
        out.append(x)
    return out


def divide_reference(field, b, c):
    """The series x with c x = b through the order, from raw values b and c.

    One solve of T x = b for the Toeplitz matrix T of c, row m being
    c_m, ..., c_0; c_0 must be nonzero.
    """
    if not c[0]:
        raise NotInvertible("constant term vanishes")
    (x,) = forward_substitute_reference(field, [c[m::-1] for m in range(len(c))], [b])
    return Series(field, [Scalar(v, field.p) for v in x])


def invert_reference(s):
    """Multiplicative inverse; requires a unit constant term."""
    return divide_reference(s.field, [1] + [0] * (s.order - 1), [a.val for a in s.coeffs])


def truediv_reference(s, other):
    """s / other; other needs a unit constant term."""
    s._check_same(other)
    return divide_reference(s.field, [a.val for a in s.coeffs], [a.val for a in other.coeffs])


def riordan_inv_reference(a):
    """riordan_inv with its power-table solve and its inverse on the
    replaced solvers."""
    beta_bar, h = solve_power_table_reference(a.beta, a.alpha)
    return RiordanPair(invert_reference(h), beta_bar)


# -- the solver that returned rationals ------------------------------------------


def forward_substitute_rational_reference(field, rows, rhss, den_b=None):
    """Solve L x = b by forward substitution on raw values, for each b in rhss.

    rows[i] lists L_{i,0..i} as raw values (integers, or residues mod p)
    with L_{i,i} nonzero.  Each b lists b_k..b_{n-1}, its entries before k
    being zero, and its solution x_k..x_{n-1} is returned:
    x_i = (b_i - sum_{k <= j < i} L_{i,j} x_j) / L_{i,i}.

    Over GF(p) each step is one dot product of residues, reduced once, and
    each distinct diagonal value is inverted once (a Toeplitz solve has one).
    Over QQ the solve is fraction-free: the rows R are integers, as every
    caller passes them (integers over one denominator D_L solve D_L L x =
    D_L b), b is B / d_b with integer B (each b integers over d_b = den_b
    when den_b is given, as from every caller but _solve_power_table, else
    b put over its least common denominator), and the solved x_k..x_{i-1}
    are integers X over one running denominator D, so each step is one
    integer dot product,

        x_i = (B_i D - d_b sum_j R_{i,j} X_j) / (d_b D R_{i,i}),

    and one rational per output, normalised there.  When its denominator
    does not divide D, D grows to their lcm and X is rescaled to match.
    The step holds for rational R too, so rational rows still solve exactly.
    """
    p, n = field.p, len(rows)
    out = []
    if p is not None:
        inv = {d: pow(d, -1, p) for d in {row[i] for i, row in enumerate(rows)}}
        diag_inv = [inv[row[i]] for i, row in enumerate(rows)]
        for b in rhss:
            k, x = n - len(b), []
            for i in range(k, n):
                x.append((b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i] % p)
            out.append(x)
        return out
    for b in rhss:
        k, (num_b, db) = n - len(b), (_ints_over_lcm(b) if den_b is None else (b, den_b))
        x, ints, den = [], [], 1
        for i in range(k, n):
            r = rows[i]
            v = _Q(num_b[i - k] * den - db * sum(map(mul, r[k:i], ints)), db * den * r[i])
            dv = v.denominator
            if den % dv:
                grow = dv // gcd(den, dv)
                ints = [c * grow for c in ints]
                den *= grow
            ints.append(v.numerator * (den // dv))
            x.append(v)
        out.append(x)
    return out


def solve_power_table_reference(g, *series):
    """[g^{<-1>}] + [f o g^{<-1>} for f in series], g of valuation 1 and f of
    its field and order: h = f o g^{<-1>} solves R_g h = f (as h o g = f),
    and g^{<-1>} = y o g^{<-1>} solves R_g x = y.  One forward substitution
    on R_g for all; it divides only by the diagonal g_1^m, never by an
    integer."""
    field, (rows, den) = g.field, _power_table(g)
    rhss = [[0, den] + [0] * (g.order - 2)] + [[den * c.val for c in f.coeffs] for f in series]
    return [Series(field, [Scalar(v, field.p) for v in x])
            for x in forward_substitute_rational_reference(field, rows, rhss)]


def inverse_reference(self):
    """Inverse by forward substitution, column by column; exact."""
    n, p = self.order, self.field.p
    for i in range(n):
        if not self.rows[i][i]:
            raise SingularDiagonal(f"diagonal entry ({i},{i}) vanishes")
    vals = [[c.val for c in row] for row in self.rows]
    e = [[1] + [0] * (n - 1 - k) for k in range(n)]
    solved = forward_substitute_rational_reference(self.field, vals, e)
    cols = [[Scalar(v, p) for v in x] for x in solved]
    return TriMatrix(self.field, [[cols[k][i - k] for k in range(i + 1)] for i in range(n)])


# -- the binomial candidate -----------------------------------------------------


def binomial_candidate_reference(A, W, u=None):
    # defined for any graded A; coincides with binomial_associate on Sheffer input
    beta = _beta_quotient(A, W, u)
    return pair_to_matrix(RiordanPair(Series.one(A.field, A.order), beta), W)


# -- the truncated product ------------------------------------------------------


def convolve_reference(a, b, p=None):
    """Truncated product of two equal-length int coefficient lists, reduced
    mod p when p is given."""
    n, rb = len(a), b[::-1]
    if p is None:
        return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) for m in range(n)]
    return [sum(map(mul, a[: m + 1], rb[n - 1 - m :])) % p for m in range(n)]


# -- the constructors, one power or factorial per index ---------------------------


def exponential_reference(field, order, lam):
    """w_n = lam^n * n!; the classical umbral calculus."""
    check_order(order)
    lam = field.scalar(lam)
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    if field.p is not None and order > field.p:
        raise NotInvertible(
            f"n! vanishes in GF({field.p}) before order {order}"
        )
    w, fact = [], field.one()
    for n in range(order):
        if n:
            fact = fact * field.scalar(n)
        w.append(lam ** n * fact)
    return Weight(field, w)


def geometric_reference(field, order, lam):
    """w_n = lam^n; the power-reduction calculus."""
    check_order(order)
    lam = field.scalar(lam)
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    return Weight(field, [lam ** n for n in range(order)])


def q_factorial_reference(field, order, lam, q):
    """w_n = (lam/(1-q))^n * prod_{j<=n} (1 - q^j); the q-umbral calculus.

    Needs q^j != 1 for 1 <= j < order, so every w_n is a unit.
    """
    check_order(order)
    lam, q = field.scalar(lam), field.scalar(q)
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    one = field.one()
    for j in range(1, order):
        if q ** j == one:
            raise RootOfUnity(f"q^{j} = 1")
    base = lam / (one - q)
    w, prod = [], one
    for n in range(order):
        if n:
            prod = prod * (one - q ** n)
        w.append(base ** n * prod)
    return Weight(field, w)


def rescale_reference(self, lam):
    """w_n -> lam^n * w_n; membership in the Riordan group is unchanged."""
    lam = self.field.scalar(lam)
    if not lam:
        raise ZeroLambda("lambda must be nonzero")
    return Weight(self.field, [lam ** n * x for n, x in enumerate(self.w)])


def exp_reference(field, order, h):
    """exp(h y) = sum (h y)^l / l!; in GF(p) it needs order <= p."""
    check_order(order)
    h = field.scalar(h)
    return Series(field, [h ** l * factorial_inv(field, l) for l in range(order)])


def translation_series_reference(W, h):
    """W(hy) = sum h^l y^l / w_l, the series of T_h."""
    h = W.field.scalar(h)
    return Series(W.field, [h ** l * r for l, r in enumerate(W.recip)])


def exp_case_weights_reference(field, order, lam, sigma):
    """Weight of (1 + sigma*t)^(lam/sigma): 1/w2_k = sigma^k binom(lam/sigma, k).

    Requires characteristic 0, sigma != 0, and lam outside
    {0, sigma, ..., (order-2)*sigma} so that no denominator vanishes.
    """
    check_order(order)
    if field.char != 0:
        raise CharP("defined in characteristic 0 only")
    lam, sigma = field.scalar(lam), field.scalar(sigma)
    if not sigma:
        raise ForbiddenLambda("sigma must be nonzero")
    mu = lam / sigma
    for k in range(order - 1):
        if mu == field.scalar(k):
            raise ForbiddenLambda(f"lambda = {k} * sigma makes w[{k + 1}] vanish")
    w = [field.one()]
    for k in range(1, order):
        w.append((sigma ** k * extended_binomial(mu, k)).inverse())
    return Weight(field, w)


def tilde_weight_from_gamma_reference(W, gamma):
    """The unique second weight realizing a prescribed gamma sequence."""
    if len(gamma) != W.order - 1:
        raise BackendMismatch("gamma length must be order - 1")
    w2 = [W.field.one()]
    for k, g in enumerate(gamma.values):
        w2.append(w2[k] * W.w[k + 1] * W.recip[k] * g.inverse())
    return Weight(W.field, w2)


def q_binomial_reference(l, k, q):
    """Gaussian binomial prod_{j=k+1}^{l}(1-q^j) / prod_{j=1}^{l-k}(1-q^j)."""
    if not 0 <= k <= l:
        raise ValueError(f"need 0 <= k <= l, got k={k}, l={l}")
    field = Field(q.p)
    one = field.one()
    den = one
    for j in range(1, l - k + 1):
        factor = one - q ** j
        if not factor:
            raise RootOfUnity(f"1 - q^{j} = 0")
        den = den * factor
    num = one
    for j in range(k + 1, l + 1):
        num = num * (one - q ** j)
    return num / den


# -- the Krylov columns of solve_conjugator ---------------------------------------


def solve_conjugator_reference(M):
    """The unique graded A with first column (1, 0, ...) conjugating the
    plain shift onto M: the Krylov vectors M^k e_0, each one _apply_rows
    (Scalars) on the rows of M over one denominator, built into Scalar rows."""
    if not is_degree_decreasing(M):
        raise NotDegreeDecreasing("need a strictly lower matrix with nonzero subdiagonal")
    field, n = M.field, M.order
    table = _rows_over_lcm(M._columns())
    cols = [[field.one()] + [field.zero()] * (n - 1)]
    for _ in range(n - 1):
        cols += apply_rows_scalar_reference(field, table, cols[-1])
    return TriMatrix(field, [[cols[k][i] for k in range(i + 1)] for i in range(n)])


# -- extended_binomial through a Field ---------------------------------------------


def extended_binomial_field_reference(xi, n):
    """binom(xi, n) = (1/n!) * prod_{j<n} (xi - j) for a field element xi.

    Agrees with the integer binomial coefficient when xi is a nonnegative
    integer, and satisfies the Vandermonde convolution whenever n! is
    invertible.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    field = Field(xi.p)
    out = factorial_inv(field, n)
    for j in range(n):
        out = out * (xi - field.scalar(j))
    return out


# -- the series kernels with Scalar edges ------------------------------------------


def series_mul_scalar_reference(self, other):
    # The convolution runs on Python ints: over QQ each operand is put
    # over one common denominator, so only the N output coefficients
    # are normalised; over GF(p) each sum is reduced once.
    self._check_same(other)
    (a, da), (b, db) = [_over_common_denominator(self.field, s.coeffs) for s in (self, other)]
    return Series(self.field, _wrap(self.field, _convolve(a, b, self.field.p), da * db))


def apply_rows_scalar_reference(field, table, *vectors):
    """[M v for v in vectors] as lists of Scalars of field, M given as
    table = (rows, D) (_rows_over_lcm) and each v as N Scalars of field:
    one integer dot product per output over D times the denominator of v,
    reduced mod p over GF(p), as _wrap takes residues."""
    (rows, den), p, out = table, field.p, []
    for a, da in [_over_common_denominator(field, v) for v in vectors]:
        sums = [sum(map(mul, row, a)) for row in rows]
        out.append(_wrap(field, sums if p is None else [x % p for x in sums], den * da))
    return out


def apply_power_table_scalar_reference(g, *series):
    """[f o g for f in series], f of the field and order of g: R_g f
    (_apply_rows)."""
    field = g.field
    return [Series(field, x)
            for x in apply_rows_scalar_reference(field, _power_table(g), *[f.coeffs for f in series])]


def solve_power_table_scalar_reference(g, *series):
    """[g^{<-1>}] + [f o g^{<-1>} for f in series], g of valuation 1 and f of
    its field and order: h = f o g^{<-1>} solves R_g h = f (as h o g = f),
    and g^{<-1>} = y o g^{<-1>} solves R_g x = y.  One forward substitution
    on R_g for all; it divides only by the diagonal g_1^m, never by an
    integer."""
    field, (rows, den) = g.field, _power_table(g)
    fs = [_over_common_denominator(field, f.coeffs) for f in series]
    db = lcm(*[d for _, d in fs])  # the right-hand sides over one denominator
    rhss = [[0, den * db] + [0] * (g.order - 2)] + [[den * (db // d) * v for v in b] for b, d in fs]
    return [Series(field, _wrap(field, *x)) for x in _forward_substitute(field, rows, rhss, db)]


def divide_scalar_reference(field, b, divisor):
    """The series x with c x = b through the order, from b and the divisor
    c each as (integers, den) (_over_common_denominator).

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
    return Series(field, _wrap(field, *x))


# -- the GF(p) frame, inverse and lowering witness on dot products --------------


def rows_over_lcm_reference(cols):
    """A list of raw columns (ints, den) of a lower-triangular matrix as its
    rows over one denominator: (rows, D), D the lcm of the den and rows[m]
    listing entries (m, 0..m) as integers over D (residues over 1 over GF(p))."""
    ints, dens = zip(*cols)
    den = lcm(*dens)
    scale = [den // d for d in dens]
    return [[ints[j][m] * scale[j] for j in range(m + 1)] for m in range(len(ints))], den


def inverse_columns_dots_reference(field, cols):
    """The inverse of a graded lower-triangular L from its raw columns:
    (the rows of L over one denominator D, (rows, D) as
    series._rows_over_lcm gives them, and the columns of L^{-1} as raw
    columns in reduced form from the diagonal down, column k listing rows
    k..N-1).  The rows hold D L, so one forward substitution on them with
    right-hand sides D e_k solves for L^{-1} itself.  Over GF(p) that is
    the loop of series._forward_substitute, one dot product per entry."""
    rows, den = rows_over_lcm_reference(cols)
    e = [[den] + [0] * (len(rows) - 1 - k) for k in range(len(rows))]
    p, n = field.p, len(rows)
    if p is None:
        return (rows, den), _forward_substitute(field, rows, e, 1)
    out = []
    inv = {d: pow(d, -1, p) for d in {row[i] for i, row in enumerate(rows)}}
    diag_inv = [inv[row[i]] for i, row in enumerate(rows)]
    for b in e:
        k, x = n - len(b), []
        for i in range(k, n):
            x.append((b[i - k] - sum(map(mul, rows[i][k:i], x))) * diag_inv[i] % p)
        out.append((x, 1))
    return (rows, den), out


def lowering_witness_dots_reference(A, W):
    """The first entry (k, n) at which the lowering operator q = A^{-1} M_W A
    fails to commute with M_W, or None when it commutes: column 0 of
    S U = U T(t) fixes t, and each other entry (k, n) is one dot product,
    checked column k = 1..N-1 ascending, each from row k+1 down."""
    A._check_diagonal()
    _check_frame(A, W)
    p, n = A.field.p, A.order
    rows, _ = rows_over_lcm_reference(_unweighted_columns(A, W))  # the rows of U
    su0 = [row[0] for row in rows[: n - 1]]  # S u_0 on the scale of the rows: integers
    ((t, td),) = _forward_substitute(A.field, rows, [su0], 1)  # t_1..t_{N-1} over td
    for k in range(1, n):
        for m in range(k + 1, n):
            diff = sum(map(mul, t, rows[m][k + 1 :])) - td * rows[m - 1][k]
            if diff if p is None else diff % p:
                return (k, m)
    return None


# -- the GF(p) product on Scalar rows ----------------------------------------------


def matmul_reference(self, other):
    """TriMatrix.__matmul__ over GF(p): the residues of the Scalar rows of
    self, one dot product per entry with a raw column of other, each
    wrapped into a Scalar of a row-built result."""
    self._check_same(other)
    p = self.field.p
    left = [[c.val for c in row] for row in self.rows]
    right = [b[k:] for k, (b, _) in enumerate(other._columns())]
    out = [
        [Scalar(sum(map(mul, a[k:], b)) % p, p) for k, b in enumerate(right[: i + 1])]
        for i, a in enumerate(left)
    ]
    return TriMatrix(self.field, out)


def matmul_raw_reference(self, other):
    """TriMatrix.__matmul__ on raw columns, before it was one _apply_rows."""
    # Each entry is one dot product on Python ints of a row of self, the
    # raw columns of self put over one denominator as rows (a transpose
    # over GF(p)), with a raw column of other.  The output is raw
    # columns: one gcd each over QQ, residues over 1 over GF(p).
    self._check_same(other)
    p = self.field.p
    (rows, den), cols = _rows_over_lcm(self._columns()), []
    for k, (b, db) in enumerate(other._columns()):
        b = b[k:]
        ints = [sum(map(mul, row[k:], b)) for row in rows[k:]]
        cols.append(_reduce(ints, den * db, k) if p is None
                    else ([0] * k + [x % p for x in ints], 1))
    return TriMatrix._from_columns(self.field, cols)


# -- the gamma sequence of two weights ------------------------------------------


def gamma_sequence_reference(W, W2):
    W._check_same(W2)
    vals = tuple([
        W2.w[k] * W.w[k + 1] * W2.recip[k + 1] * W.recip[k]
        for k in range(W.order - 1)
    ])
    return GammaSeq(vals)


def classify_gamma_reference(gamma):
    """Fit gamma_k = lam (constant) or lam - sigma*k with sigma != 0.

    The linear case is recognized only in characteristic 0; the fit uses
    the first two entries and verifies the rest exactly.
    """
    vals = gamma.values
    if not vals:
        raise ValueError("gamma sequence is empty")
    first = vals[0]
    if all(v == first for v in vals):
        return GammaShape("constant", lam=first)
    if first.p is not None:  # characteristic p
        return GammaShape("neither")
    lam = first
    sigma = vals[0] - vals[1]
    if not sigma:
        return GammaShape("neither")
    for k, v in enumerate(vals):
        if v != lam - sigma * Scalar(_Q(k)):
            return GammaShape("neither")
    return GammaShape("linear", lam=lam, sigma=sigma)


# -- the containers that held Scalars -------------------------------------------


class WeightReference:
    """Denominator sequence w_0..w_{N-1} with cached reciprocals 1/w_n.

    The builtins and rescale build w as one running product, each w_n a
    few Scalar products from w_{n-1} (scalars._powers for the powers of
    one element), with no power or factorial recomputed per index.  The
    kernels read their raw values _w and _recip: rationals, or residues
    mod p; the conjugation kernel reads them over their lcm (_over_lcm).
    """

    __slots__ = ("field", "w", "recip", "_w", "_recip", "_lcm")

    def __init__(self, field: Field, denominators):
        w = tuple([field.scalar(x) for x in denominators])
        check_order(len(w))
        if w[0] != field.one():
            raise InvalidWeight(f"w[0] must be 1, got {w[0]}")
        for n, x in enumerate(w):
            if not x:
                raise InvalidWeight(f"w[{n}] = 0")
        self.field = field
        self.w = w
        self.recip = tuple([x.inverse() for x in w])
        self._w = [x.val for x in w]
        self._recip = [x.val for x in self.recip]
        self._lcm = None

    def _over_lcm(self):
        """(w, 1/w) each as (integers, their lcm) over QQ, (residues, 1) over
        GF(p): the left factors of _conjugated_columns, built on the first
        use and kept."""
        if self._lcm is None:
            self._lcm = (_over_common_denominator(self.field, self.w),
                         _over_common_denominator(self.field, self.recip))
        return self._lcm

    # -- builtins ----------------------------------------------------------
    @classmethod
    def exponential(cls, field, order, lam):
        """w_n = lam^n * n!; the classical umbral calculus."""
        check_order(order)
        lam = field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        if field.p is not None and order > field.p:
            raise NotInvertible(
                f"n! vanishes in GF({field.p}) before order {order}"
            )
        w = [field.one()]
        for n in range(1, order):
            w.append(w[-1] * lam * field.scalar(n))
        return cls(field, w)

    @classmethod
    def geometric(cls, field, order, lam):
        """w_n = lam^n; the power-reduction calculus."""
        check_order(order)
        lam = field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        return cls(field, _powers(lam, order))

    @classmethod
    def q_factorial(cls, field, order, lam, q):
        """w_n = (lam/(1-q))^n * prod_{j<=n} (1 - q^j); the q-umbral calculus.

        Needs q^j != 1 for 1 <= j < order, so every w_n is a unit.
        """
        check_order(order)
        lam, q = field.scalar(lam), field.scalar(q)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        one, qs = field.one(), _powers(q, order)
        for j in range(1, order):
            if qs[j] == one:
                raise RootOfUnity(f"q^{j} = 1")
        base = lam / (one - q)
        w = [one]
        for n in range(1, order):
            w.append(w[-1] * base * (one - qs[n]))
        return cls(field, w)

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return len(self.w)

    def series(self) -> Series:
        """W(t) = sum t^n / w_n as a truncated series."""
        return Series(self.field, self.recip)

    def ratio(self, n: int) -> Scalar:
        """w_n / w_{n-1}, the subdiagonal of the weighted derivative, for
        1 <= n < N."""
        if not 0 < n < self.order:
            raise IndexError(f"ratio {n} out of range")
        return self.w[n] / self.w[n - 1]

    def rescale(self, lam) -> "WeightReference":
        """w_n -> lam^n * w_n; membership in the Riordan group is unchanged."""
        lam = self.field.scalar(lam)
        if not lam:
            raise ZeroLambda("lambda must be nonzero")
        return WeightReference(self.field, [x * w for x, w in zip(_powers(lam, self.order), self.w)])

    def _check_same(self, other: "WeightReference"):
        if other.field != self.field or other.order != self.order:
            raise BackendMismatch("weight orders or fields differ")

    def __eq__(self, other):
        if not isinstance(other, WeightReference):
            return NotImplemented
        return self.field == other.field and self.w == other.w

    def __hash__(self):
        return hash((self.field, self.w))

    def __repr__(self):
        return f"Weight[{', '.join(str(x) for x in self.w)}]"

    def to_json(self):
        return {"w": [str(x) for x in self.w]}

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(s) for s in data["w"]])


class FunctionalReference:
    """Values t_0..t_{N-1} with t_n = phi(x^n / w_n)."""

    __slots__ = ("field", "values")

    def __init__(self, field: Field, values):
        values = tuple(values)
        field.check(values, "value")
        self.field = field
        self.values = values

    @classmethod
    def from_series(cls, s: Series):
        return cls(s.field, s.coeffs)

    @property
    def order(self) -> int:
        return len(self.values)

    def series(self) -> Series:
        """The associated truncated power series sum t_n y^n."""
        return Series(self.field, self.values)

    def valuation(self):
        return self.series().valuation()

    def __eq__(self, other):
        if not isinstance(other, FunctionalReference):
            return NotImplemented
        return self.field == other.field and self.values == other.values

    def __hash__(self):
        return hash((self.field, self.values))

    def __repr__(self):
        return f"Functional[{', '.join(str(v) for v in self.values)}]"

    def to_json(self):
        return {"t": [str(v) for v in self.values]}

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(s) for s in data["t"]])


def functional_mul_reference(phi, psi):
    """Weighted product; convolution in the stored normalization."""
    return FunctionalReference.from_series(phi.series() * psi.series())


def functional_power_reference(phi, r):
    return FunctionalReference.from_series(phi.series() ** r)


def after_operator_raw_reference(S, W, *fs):
    """[f o S for f in fs], f o S having the values U t of f: the rows of U,
    built once over one denominator, applied to each (series._apply_rows)."""
    if any(not f.order == S.order == W.order or not f.field == S.field == W.field for f in fs):
        raise BackendMismatch("functional, operator and weight orders or fields differ")
    table, field = _rows_over_lcm(_unweighted_columns(S, W)), S.field
    return [FunctionalReference(field, _wrap(field, *t))
            for t in _apply_rows(field, table,
                                 *[_over_common_denominator(field, f.values) for f in fs])]


def functional_of_operator_reference(S, W):
    """The unique psi with phi o S = phi * psi for all phi."""
    if not is_appell(S, W):
        raise NotCommuting("operator does not commute with the weighted derivative")
    return FunctionalReference(S.field, _wrap(S.field, *next(_iter_unweighted_columns(S, W))))


def dual_basis_reference(A, W):
    """Functionals phi_r with phi_r(p_n / w_n) = delta_{n,r} for the rows p_n."""
    _check_matrix_order(A, W)
    return [FunctionalReference(A.field, _wrap(A.field, [0] * r + col, den))
            for r, (col, den) in enumerate(_inverse_frame(A, W)[1])]


def check_geometric_dual_reference(phis):
    """Detect the geometric shape phi_r = xi * eta^r."""
    if len(phis) < 2:
        raise ValueError(f"need at least two functionals, got {len(phis)}")
    if phis[0].valuation() != 0:
        raise ValueError("phi_0 must have valuation 0")
    xi = phis[0].series()
    eta = phis[1].series() * xi.invert()
    if eta.valuation() != 1:
        return None
    power = xi
    for r in range(len(phis)):
        if phis[r].series() != power:
            return None
        power = power * eta
    return FunctionalReference.from_series(xi), FunctionalReference.from_series(eta)


# -- the group law and membership on Scalar series ---------------------------


def forward_substitute_unit_reference(field, rows, ks):
    """Solve L x = e_k by forward substitution on raw values, for each k in ks."""
    p, n = field.p, len(rows)
    if p is None:
        diag_inv = [1 / row[i] for i, row in enumerate(rows)]
    else:
        diag_inv = [pow(row[i], p - 2, p) for i, row in enumerate(rows)]
    out = []
    for k in ks:
        x = [diag_inv[k]]
        for i in range(k + 1, n):
            v = -sum(map(mul, rows[i][k:i], x)) * diag_inv[i]
            x.append(v if p is None else v % p)
        out.append(x)
    return out


def compose_reference(self, inner):
    """self(inner(y)), exact through the order; inner must kill constants."""
    self._check_same(inner)
    if inner.coeffs[0]:
        raise InnerValuationZero("inner series has nonzero constant term")
    acc = Series.constant(self.field, self.order, self.coeffs[-1])
    for c in reversed(self.coeffs[:-1]):
        acc = acc * inner
        acc = Series(self.field, (acc.coeffs[0] + c,) + acc.coeffs[1:])
    return acc


def comp_inverse_reference(self):
    """Compositional inverse g of a valuation-1 series f, in O(N^3)."""
    if self.valuation() != 1:
        raise NotValuationOne("compositional inverse needs valuation exactly 1")
    field, n = self.field, self.order
    powers = [Series.one(field, n), self]  # powers[j] = f^j
    for _ in range(n - 2):
        powers.append(powers[-1] * self)
    rows = [[powers[j].coeffs[m].val for j in range(m + 1)] for m in range(n)]
    (g,) = forward_substitute_unit_reference(field, rows, [1])
    return Series(field, [field.zero()] + [Scalar(v, field.p) for v in g])


def riordan_inv_compose_reference(a):
    """Group inverse (1/(alpha o beta_bar), beta_bar), beta_bar = beta^{<-1>}."""
    beta_bar = comp_inverse_reference(a.beta)
    return RiordanPair(compose_reference(a.alpha, beta_bar).invert(), beta_bar)


def pair_to_matrix_reference(pair, W):
    """Matrix with columns C_k = alpha * beta^k / w_k (exactly geometric)."""
    if pair.order != W.order:
        raise BackendMismatch("pair and weight orders differ")
    n = W.order
    zero = pair.field.zero()
    rows = [[zero] * (i + 1) for i in range(n)]
    col = pair.alpha
    for k in range(n):
        # a_{i,k} = w_i [y^i](alpha beta^k) / w_k
        for i in range(k, n):
            rows[i][k] = W.w[i] * col.coeffs[i] * W.recip[k]
        if k + 1 < n:
            col = col * pair.beta
    return TriMatrix(pair.field, rows)


def invert_unit_reference(s):
    """Multiplicative inverse: T x = e_0 for the Toeplitz matrix T of s."""
    c = [a.val for a in s.coeffs]
    if not c[0]:
        raise NotInvertible("constant term vanishes")
    (x,) = forward_substitute_unit_reference(s.field, [c[m::-1] for m in range(len(c))], [0])
    return Series(s.field, [Scalar(v, s.field.p) for v in x])


def beta_quotient_reference(A, W):
    """w_1 C_1 / C_0, the candidate beta of any graded matrix."""
    c0 = column_series(A, W, 0)
    c1 = column_series(A, W, 1)
    return (c1 * invert_unit_reference(c0)).scale(W.w[1])


def scaled_columns_reference(A, W):
    # u_k = w_k * C_k; the membership identity is u_k^2 = u_{k-1} u_{k+1}
    return [column_series(A, W, k).scale(W.w[k]) for k in range(A.order)]


def is_riordan_reference(A, W):
    """The column identity u_k^2 = u_{k-1} u_{k+1}, checked at order N: the
    membership test before it was made exact, which misses a change that
    moves both sides only beyond y^{N-1}."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if not A.is_graded():
        return False
    u = scaled_columns_reference(A, W)
    for k in range(1, A.order - 1):
        if u[k] * u[k] != u[k - 1] * u[k + 1]:
            return False
    return True


# -- the membership walks on raw columns -------------------------------------


def riordan_witness_reference(u, p):
    """The first (k, m), k >= 2, with [y^m] u_0 u_k != [y^m] u_1 u_{k-1},
    or None.

    u holds the raw columns (ints, den) of U, as a list or as the lazy
    _iter_unweighted_columns; the walk ends at the first failing k, so no
    column after u_k is built.  Both products have valuation k, so only
    their window y^k..y^{N-1} is convolved.  For a graded A, u_0 is a unit
    and None says u_k = u_{k-1} beta with beta = u_1 / u_0 for every k,
    that is u_k = u_0 beta^k: exactly geometric columns, and the first
    failure is the (j, n) of _geometric_witness.  Total: never divides.
    """
    u = iter(u)
    (a, da), (b, db) = islice(u, 2)
    n, x0, d0 = len(a), b, db  # x0 is u_{k-1}
    for k, (x, d) in enumerate(u, 2):
        m = _first_difference(_convolve(a[: n - k], x[k:], p), da * d,
                              _convolve(b[1 : n - k + 1], x0[k - 1 : n - 1], p), db * d0)
        if m is not None:
            return (k, k + m)
        x0, d0 = x, d
    return None


def geometric_walk_reference(A: TriMatrix, W: Weight, u=None):
    """(u, beta, witness): the first (j, n) with [y^n] u_j != [y^n]
    u_0 beta^j for beta = u_1 / u_0, or None, with beta and the columns of
    U built up to u_j (all N of them for None).

    u holds the raw columns (ints, den) of U, as a list or as the lazy
    _iter_unweighted_columns, built here unless given.  beta is one
    Toeplitz solve (_beta_quotient), which needs u_0 to be a unit; then
    u_0 beta^0 and u_0 beta = u_1 hold exactly, and u_0 beta^j is one raw
    convolution per further column (series._geometric_columns).  None
    says the columns are exactly geometric: A is the matrix of the pair
    (u_0, beta).
    """
    cols = iter(u or _iter_unweighted_columns(A, W))
    u = list(islice(cols, 2))
    beta = _beta_quotient(A, W, u)
    for j, (col, rhs) in enumerate(zip(cols, islice(_geometric_columns(*u[0], beta), 2, None)), 2):
        u.append(col)
        n = _first_difference(*col, *rhs)
        if n is not None:
            return u, beta, (j, n)
    return u, beta, None


def is_toeplitz_reference(u) -> bool:
    """Is each raw column u_k of U, from the iterator u, u_0 moved down by k?"""
    c, d = next(u)
    return all(_first_difference(col[k:], dk, c[: len(c) - k], d) is None
               for k, (col, dk) in enumerate(u, 1))


# -- the weighted matrices, one Scalar product per factor --------------------


def change_weight_reference(A, W, W2):
    """Conjugate by U = diag(w_n / w2_n): A -> U^{-1} A U."""
    W._check_same(W2)
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    rows = []
    for n in range(A.order):
        left = W2.w[n] * W.recip[n]
        rows.append(
            [left * A.rows[n][k] * W.w[k] * W2.recip[k] for k in range(n + 1)]
        )
    return TriMatrix(A.field, rows)


def appell_from_alpha_reference(alpha, W):
    """Substitute M_W into a unit series: entry (n,k) = c_{n-k} w_n / w_k."""
    if alpha.valuation() != 0:
        raise NotValuationZero("alpha must have valuation 0")
    if alpha.order != W.order:
        raise BackendMismatch("series and weight orders differ")
    c = alpha.coeffs

    def entry(n, k):
        return c[n - k] * W.w[n] * W.recip[k]

    return TriMatrix.from_entries(W.field, W.order, entry)


def translation_matrix_reference(W, h):
    """Matrix of T_h = W(h M_W), the Appell matrix of W(hy)."""
    h = W.field.scalar(h)
    return appell_from_alpha_reference(
        Series(W.field, [h ** l * r for l, r in enumerate(W.recip)]), W
    )


def dual_basis_scalar_reference(A, W):
    """Functionals phi_r with phi_r(p_n / w_n) = delta_{n,r} for the rows p_n."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    inv = A.inverse()
    duals = []
    for r in range(A.order):
        vals = [inv.entry(k, r) * W.w[r] * W.recip[k] for k in range(A.order)]
        duals.append(Functional(A.field, vals))
    return duals


def eval_functional_reference(h, W):
    """Evaluation at h: t_n = h^n / w_n; corresponds to the series W(hy)."""
    h = W.field.scalar(h)
    vals, power = [], W.field.one()
    for n in range(W.order):
        if n:
            power = power * h
        vals.append(power * W.recip[n])
    return Functional(W.field, vals)


# -- d_polynomials with one rational per coefficient -------------------------


def d_polynomials_fraction_reference(A: TriMatrix, W: Weight) -> HPolyMatrix:
    """Expansion coefficients of translations in the basis of the sequence.

    Writing T_h(p_n / w_n) = sum_k d_{n,k}(h) / w_{n-k} * p_k / w_k, the
    entry (n, k) is the polynomial d_{n,k}: its coefficient of h^l is entry
    (n, k) of (A M_W A^{-1})^l = D U S^l U^{-1} D^{-1} (module note),
    scaled by w_{n-k} w_k / (w_n w_l).  So each coefficient is one dot
    product of row n of U with column k of V = U^{-1} (_inverse_frame):

        [h^l] d_{n,k} = (w_{n-k} / w_l) * sum_{j=k}^{n-l} U_{n,j+l} V_{j,k}

    The sum is empty for l > n - k, so entry (n, k) has h-degree at most
    n - k.  The sums run on raw values (_shifted_dots), residues reduced
    once per coefficient over GF(p), and over QQ on the integer rows of U
    over their one denominator and each column of V over its own, the
    reduced raw columns the solver returns, used as they come.  The
    result keeps these raw coefficients and builds its Scalar entries on
    their first read (HPolyMatrix).

    Over GF(p) with N (p - 1)^2 < 2^64 (series._packs) the n - k + 1 sums
    of entry (n, k) are one product of two packed integers, row n of U
    reversed and column k of V, each packed once: N(N+1)/2 big-integer
    multiplies of at most N 64-bit slots, and V is solved on packed rows
    too (series._packed_inverse).  At GF(1000003) under q_factorial(5, 3),
    on the matrix of sampling.riordan_pair with random.Random(1), a call
    took 0.44, 0.58, 0.90 and 17.7 ms at N = 12, 16, 20 and 64, where V
    solved by dot products gave 0.46, 0.62, 0.94 and 19.6 ms; reading the
    entries then adds 0.15, 0.18, 0.32 and 8.3 ms (timeit minima, the two
    interleaved in one process, Python 3.11, 2 shared CPUs).  Before the
    sums were packed, the dot products and their Scalars took about 1.6
    to 3.7 times as long.

    Otherwise the cost is about N^4/24 big-integer multiply-adds.  V is
    solved at its reduced size, and the columns of U are divided by their
    content (riordan._conjugated_columns), so U is the ordinary matrix of
    the pair at its own size whatever the weight: over QQ at N = 64, on the
    matrix of sampling.riordan_pair(QQ, 64, random.Random(1)), its rows
    hold at most 133-bit integers over a 27-bit denominator under both
    q_factorial(-1, 2) and the exponential weight, and the columns of V at
    most 274 bits.  One call there took 0.27-0.28 s and 0.24-0.28 s
    (minimum of 2 calls, Python 3.11, Fraction backend, 2 shared CPUs); on
    undivided rows of U (2133 and 398 bits) it took 0.8-1.0 s and
    0.27-0.36 s.  The CLI does not call it.
    """
    _check_frame(A, W)
    (u, den), v = _inverse_frame(A, W)
    p, w, r = A.field.p, [x.val for x in W.w], [x.val for x in W.recip]
    ratio = [[w[d] * r[l] for l in range(d + 1)] for d in range(A.order)]  # w_d / w_l
    v, dv = zip(*v)
    entries = []
    for n, row in enumerate(_shifted_dots(u, v, p)):
        if p is None:  # tuples of lists: see series._ints_over_lcm
            entries.append(tuple([tuple([_Q(s * c.numerator, den * dv[k] * c.denominator)
                                         for s, c in zip(sums, ratio[n - k])])
                                  for k, sums in enumerate(row)]))
        else:
            entries.append(tuple([tuple([s * c % p for s, c in zip(sums, ratio[n - k])])
                                  for k, sums in enumerate(row)]))
    # The one line changed: the matrix is built from the Scalars that the
    # old entries view built from these values, as HPolyMatrix now holds
    # reduced raw slots.
    return HPolyMatrix(A.field, [[[Scalar(c, p) for c in e] for e in row] for row in entries])


# -- the output read off the Scalar views ---------------------------------------


def series_to_json_reference(self):
    return [str(c) for c in self.coeffs]


def series_repr_reference(self):
    body = ", ".join(str(c) for c in self.coeffs)
    return f"Series[{body}; O(y^{self.order})]"


def weight_to_json_reference(self):
    return {"w": [str(x) for x in self.w]}


def weight_repr_reference(self):
    return f"Weight[{', '.join(str(x) for x in self.w)}]"


def functional_to_json_reference(self):
    return {"t": [str(v) for v in self.values]}


def functional_repr_reference(self):
    return f"Functional[{', '.join(str(v) for v in self.values)}]"


def pair_to_json_reference(self):
    return {"alpha": series_to_json_reference(self.alpha),
            "beta": series_to_json_reference(self.beta)}


def pair_repr_reference(self):
    # the dataclass repr, on the repr of each series
    return (f"RiordanPair(alpha={series_repr_reference(self.alpha)}, "
            f"beta={series_repr_reference(self.beta)})")


def trimatrix_to_json_reference(self):
    return [[str(c) for c in row] for row in self.rows]


def hpoly_to_json_reference(self):
    return [[[str(c) for c in e] for e in row] for row in self.entries]


def polynomial_str_reference(self):
    if not self.coeffs:
        return "0"
    parts = []
    for k in range(self.degree, -1, -1):
        c = self.coeffs[k]
        if not c:
            continue
        cs = str(c)
        if " " in cs:  # modular residues read better parenthesized
            cs = f"({cs})"
        if k == 0:
            parts.append(cs)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            parts.append(xs if cs == "1" else f"{cs}*{xs}")
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def polys_output_reference(A):
    """The text lines and the JSON rows of the CLI's polys command on A."""
    polys = matrix_to_polys(A)
    return ([f"p_{n} = {polynomial_str_reference(p)}" for n, p in enumerate(polys)],
            [[str(c) for c in p.coeffs] for p in polys])
