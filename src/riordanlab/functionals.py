"""Linear functionals on polynomials and the weighted convolution product.

A functional phi is stored through its values t_n = phi(x^n / w_n); under
this normalization the weighted product of functionals is plain
convolution of the stored vectors, so the identification with truncated
power series is an identity rather than a computation.  Operations that
genuinely involve the weight (applying a functional to a polynomial,
evaluation functionals, dual bases) take it explicitly.
"""

from __future__ import annotations

from .errors import BackendMismatch, NotCommuting, NotSheffer
from .operators import is_appell
from .riordan import RiordanPair, Weight, _beta_quotient, is_riordan, pair_to_matrix
from .scalars import Field, Scalar
from .series import INFINITY, Series, _convolve, _over_common_denominator
from .triangular import Polynomial, TriMatrix, matrix_to_polys


class Functional:
    """Values t_0..t_{N-1} with t_n = phi(x^n / w_n)."""

    __slots__ = ("field", "values")

    def __init__(self, field: Field, values):
        values = tuple(values)
        for v in values:
            if not isinstance(v, Scalar) or v.p != field.p:
                raise BackendMismatch(f"value {v!r} does not belong to {field}")
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
        for n, v in enumerate(self.values):
            if v:
                return n
        return INFINITY

    def __eq__(self, other):
        if not isinstance(other, Functional):
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


def delta_functional(field: Field, order: int, i: int) -> Functional:
    """The functional with t_n = delta_{n,i}; these span the dual space."""
    return Functional.from_series(Series.monomial(field, order, i, 1))


def functional_apply(phi: Functional, p: Polynomial, W: Weight) -> Scalar:
    """phi(p) = sum_n c_n w_n t_n for p = sum_n c_n x^n."""
    if p.degree >= phi.order:
        raise ValueError(f"deg p = {p.degree} >= order {phi.order}")
    acc = phi.field.zero()
    for n, c in enumerate(p.coeffs):
        if c:
            acc = acc + c * W.w[n] * phi.values[n]
    return acc


def eval_functional(h, W: Weight) -> Functional:
    """Evaluation at h: t_n = h^n / w_n; corresponds to the series W(hy)."""
    h = W.field.scalar(h)
    vals, power = [], W.field.one()
    for n in range(W.order):
        if n:
            power = power * h
        vals.append(power * W.recip[n])
    return Functional(W.field, vals)


def functional_mul(phi: Functional, psi: Functional) -> Functional:
    """Weighted product; convolution in the stored normalization."""
    return Functional.from_series(phi.series() * psi.series())


def functional_power(phi: Functional, r: int) -> Functional:
    return Functional.from_series(phi.series() ** r)


def functional_after_operator(phi: Functional, S: TriMatrix, W: Weight) -> Functional:
    """The functional phi o S: t_n = (1/w_n) sum_k S_{n,k} w_k t_k."""
    vals = []
    for n in range(S.order):
        acc = phi.field.zero()
        for k in range(n + 1):
            acc = acc + S.rows[n][k] * W.w[k] * phi.values[k]
        vals.append(acc * W.recip[n])
    return Functional(phi.field, vals)


def functional_of_operator(S: TriMatrix, W: Weight) -> Functional:
    """The unique psi with phi o S = phi * psi for all phi.

    Exists exactly when S commutes with the weighted derivative; psi is
    evaluation-at-0 composed with S, i.e. t_n = S_{n,0} / w_n.
    """
    if not is_appell(S, W):
        raise NotCommuting("operator does not commute with the weighted derivative")
    return Functional(S.field, [S.entry(n, 0) * W.recip[n] for n in range(S.order)])


def dual_basis(A: TriMatrix, W: Weight) -> list[Functional]:
    """Functionals phi_r with phi_r(p_n / w_n) = delta_{n,r} for the rows p_n.

    Built from the inverse matrix: phi_r(x^k / w_k) = (A^{-1})_{k,r} w_r / w_k.
    For graded A the valuation of phi_r is exactly r.
    """
    inv = A.inverse()
    duals = []
    for r in range(A.order):
        vals = [inv.entry(k, r) * W.w[r] * W.recip[k] for k in range(A.order)]
        duals.append(Functional(A.field, vals))
    return duals


def check_geometric_dual(phis: list[Functional]):
    """Detect the geometric shape phi_r = xi * eta^r.

    Returns (xi, eta) with xi = phi_0 and eta = phi_1 / phi_0 when the whole
    family matches, None otherwise.  The family of dual functionals of a
    graded matrix has this shape exactly when the matrix is Sheffer.
    """
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
    return Functional.from_series(xi), Functional.from_series(eta)


def binomial_associate(A: TriMatrix, W: Weight) -> TriMatrix:
    """The binomial-type matrix with the same beta parameter as Sheffer A."""
    if not is_riordan(A, W):
        raise NotSheffer("matrix is not Sheffer for this weight")
    return _binomial_candidate(A, W)


def _binomial_candidate(A: TriMatrix, W: Weight) -> TriMatrix:
    # defined for any graded A; coincides with binomial_associate on Sheffer input
    beta = _beta_quotient(A, W)
    return pair_to_matrix(RiordanPair(Series.one(A.field, A.order), beta), W)


def product_rule_check(A: TriMatrix, W: Weight, phi: Functional, psi: Functional) -> bool:
    """Test (phi*psi)(p_n/w_n) = sum_k phi(p_k/w_k) psi(d_{n-k}/w_{n-k})
    for every n, with d the binomial candidate sharing A's beta quotient.

    Holds for all phi, psi exactly when A is Sheffer.
    """
    d = _binomial_candidate(A, W)
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


def product_rule_spanning_witness(A: TriMatrix, W: Weight):
    """Search the delta-functional spanning set for a product-rule failure.

    Returns a witness (i, j, n) or None; by bilinearity None means the rule
    holds for every pair of functionals, which happens exactly for Sheffer
    matrices (with exactly geometric columns) at this order.
    """
    n_ord, p = A.order, A.field.p
    d = _binomial_candidate(A, W)
    # p_val[i][k] = e_i(p_k / w_k) = a_{k,i} w_i / w_k, likewise for d
    p_val = [[A.entry(k, i) * W.w[i] * W.recip[k] for k in range(n_ord)] for i in range(n_ord)]
    d_val = [[d.entry(l, j) * W.w[j] * W.recip[l] for l in range(n_ord)] for j in range(n_ord)]
    # each row as integers over a common denominator (residues over 1 in GF(p))
    if p is None:
        p_int = [_over_common_denominator(v) for v in p_val]
        d_int = [_over_common_denominator(v) for v in d_val]
    else:
        p_int = [([c.val for c in v], 1) for v in p_val]
        d_int = [([c.val for c in v], 1) for v in d_val]
    zero = ([0] * n_ord, 1)
    for i, (pi, dpi) in enumerate(p_int):
        for j, (dj, ddj) in enumerate(d_int):
            # e_i * e_j = e_{i+j}, so the left side is e_{i+j}(p_n / w_n);
            # the right side sum_k e_i(p_k / w_k) e_j(d_{n-k} / w_{n-k}) is
            # the truncated convolution of p_val[i] and d_val[j]
            lhs, dl = p_int[i + j] if i + j < n_ord else zero
            den = dpi * ddj
            for n, c in enumerate(_convolve(pi, dj)):
                diff = c * dl - lhs[n] * den
                if diff if p is None else diff % p:
                    return (i, j, n)
    return None


def dual_characterization_check(A: TriMatrix, W: Weight, duals=None) -> bool:
    """Check phi_r(sum_n p_n(x) y^n / w_n) = y^r for every r.

    With its own dual basis this is a reformulation of duality; a dual
    basis taken from a different matrix fails it.
    """
    duals = dual_basis(A, W) if duals is None else duals
    polys = matrix_to_polys(A)
    for r, phi in enumerate(duals):
        coeffs = [
            functional_apply(phi, polys[n], W) * W.recip[n] for n in range(A.order)
        ]
        if Series(A.field, coeffs) != Series.monomial(A.field, A.order, r):
            return False
    return True
