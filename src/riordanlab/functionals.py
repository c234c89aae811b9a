"""Linear functionals on polynomials and the weighted convolution product.

A functional phi is stored through its values t_n = phi(x^n / w_n); under
this normalization the weighted product of functionals is plain
convolution of the stored vectors, so the identification with truncated
power series is an identity rather than a computation.  Operations that
genuinely involve the weight (applying a functional to a polynomial,
evaluation functionals, dual bases) take it explicitly.

A Functional keeps its values as that series itself, which holds their
raw form from construction on (series.py), and reads both from it: the
product and the power are the series' own, and the kernels here
(_after_operator, functional_of_operator, dual_basis) wrap their raw
output and build no Scalar until .values is read.  Like every other
container it holds 2..64 values, checked when it is built (ValueError
"order must be in 2..64").
"""

from __future__ import annotations

from .errors import BackendMismatch, NotCommuting
from .operators import _inverse_frame, _translation_series, dw_multiplier, is_appell
from .riordan import (
    RiordanPair, Weight, _beta_quotient, _check_matrix_order, _geometric_walk,
    _iter_unweighted_columns, _unweighted_columns, pair_to_matrix,
)
from .scalars import Field, Scalar
from .series import (
    Series, _apply_rows, _over_common_denominator, _rows_over_lcm, _texts, check_order,
)
from .triangular import Polynomial, TriMatrix


class Functional:
    """Values t_0..t_{N-1} with t_n = phi(x^n / w_n), kept as the series
    sum t_n y^n, in its raw form and a Scalar view of it (Series)."""

    __slots__ = ("field", "_s")

    def __init__(self, field: Field, values):
        values = tuple(values)
        field.check(values, "value")
        check_order(len(values))
        self.field, self._s = field, Series._from_raw(
            field, *_over_common_denominator(field, values), values)

    @classmethod
    def from_series(cls, s: Series):
        """The functional of the series s, which it keeps as it is."""
        out = object.__new__(cls)
        out.field, out._s = s.field, s
        return out

    @property
    def values(self) -> tuple:
        return self._s.coeffs

    @property
    def order(self) -> int:
        return self._s.order

    def series(self) -> Series:
        """The associated truncated power series sum t_n y^n."""
        return self._s

    def valuation(self):
        return self._s.valuation()

    def __eq__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        return self._s == other._s

    def __hash__(self):
        return hash(self._s)

    def __repr__(self):
        return f"Functional[{', '.join(_texts(self.field.p, *self._s._raw()))}]"

    def to_json(self):
        return {"t": _texts(self.field.p, *self._s._raw())}

    @classmethod
    def from_json(cls, field, data):
        return cls(field, [field.parse(s) for s in data["t"]])


def delta_functional(field: Field, order: int, i: int) -> Functional:
    """The functional with t_n = delta_{n,i}; these span the dual space."""
    return Functional.from_series(Series.monomial(field, order, i, 1))


def functional_apply(phi: Functional, p: Polynomial, W: Weight) -> Scalar:
    """phi(p) = sum_n c_n w_n t_n for p = sum_n c_n x^n."""
    if phi.order != W.order:
        raise BackendMismatch("functional and weight orders differ")
    if p.degree >= phi.order:
        raise ValueError(f"deg p = {p.degree} >= order {phi.order}")
    acc = phi.field.zero()
    for n, c in enumerate(p.coeffs):
        if c:
            acc = acc + c * W.w[n] * phi.values[n]
    return acc


def eval_functional(h, W: Weight) -> Functional:
    """Evaluation at h: t_n = h^n / w_n; corresponds to the series W(hy)."""
    return Functional.from_series(_translation_series(W, h))


def functional_mul(phi: Functional, psi: Functional) -> Functional:
    """Weighted product; convolution in the stored normalization."""
    return Functional.from_series(phi.series() * psi.series())


def functional_power(phi: Functional, r: int) -> Functional:
    return Functional.from_series(phi.series() ** r)


def functional_after_operator(phi: Functional, S: TriMatrix, W: Weight) -> Functional:
    """The functional phi o S: t_n = (1/w_n) sum_k S_{n,k} w_k t_k, that is
    t -> U t for U = D^{-1} S D."""
    return _after_operator(S, W, phi)[0]


def _after_operator(S: TriMatrix, W: Weight, *fs) -> list[Functional]:
    """[f o S for f in fs], f o S having the values U t of f: the rows of U,
    built once over one denominator, applied to each (series._apply_rows)."""
    if any(not f.order == S.order == W.order or not f.field == S.field == W.field for f in fs):
        raise BackendMismatch("functional, operator and weight orders or fields differ")
    table, field = _rows_over_lcm(_unweighted_columns(S, W)), S.field
    return [Functional.from_series(Series._from_raw(field, *t))
            for t in _apply_rows(field, table, *[f.series()._raw() for f in fs])]


def functional_of_operator(S: TriMatrix, W: Weight) -> Functional:
    """The unique psi with phi o S = phi * psi for all phi.

    Exists exactly when S commutes with the weighted derivative; psi is
    evaluation-at-0 composed with S, i.e. t_n = S_{n,0} / w_n, column 0 of
    D^{-1} S D.
    """
    if not is_appell(S, W):
        raise NotCommuting("operator does not commute with the weighted derivative")
    return Functional.from_series(Series._from_raw(S.field, *next(_iter_unweighted_columns(S, W))))


def dual_basis(A: TriMatrix, W: Weight) -> list[Functional]:
    """Functionals phi_r with phi_r(p_n / w_n) = delta_{n,r} for the rows p_n.

    phi_r(x^k / w_k) = (A^{-1})_{k,r} w_r / w_k: the values of phi_r are
    column r of V = D^{-1} A^{-1} D = U^{-1}, solved on the rows of U
    (operators._inverse_frame) without forming A^{-1}.  For graded A the
    valuation of phi_r is exactly r.
    """
    _check_matrix_order(A, W)
    return [Functional.from_series(Series._from_raw(A.field, [0] * r + col, den))
            for r, (col, den) in enumerate(_inverse_frame(A, W)[1])]


def check_geometric_dual(phis: list[Functional]):
    """Detect the geometric shape phi_r = xi * eta^r.

    Returns (xi, eta) with xi = phi_0 and eta = phi_1 / phi_0 when the whole
    family matches, None otherwise.  The family of dual functionals of a
    graded matrix has this shape exactly when the matrix is Sheffer.  Needs
    at least two functionals, phi_0 and phi_1.
    """
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
    return Functional.from_series(xi), Functional.from_series(eta)


def binomial_associate(A: TriMatrix, W: Weight) -> TriMatrix:
    """The binomial-type matrix with the same beta parameter as Sheffer A."""
    return pair_to_matrix(RiordanPair(Series.one(A.field, A.order), dw_multiplier(A, W)), W)


def product_rule_check(A: TriMatrix, W: Weight, phi: Functional, psi: Functional) -> bool:
    """Test (phi*psi)(p_n/w_n) = sum_k phi(p_k/w_k) psi(d_{n-k}/w_{n-k})
    for every n, with d the binomial candidate sharing A's beta quotient;
    the right side is the weighted product of phi o A and psi o d.

    Holds for all phi, psi exactly when A is Sheffer.  U of A is built once
    for both phi*psi and phi.  d is never built: it is D R_beta D^{-1} for
    the ordinary matrix R_beta of (1, beta), so psi o d has the values
    R_beta t of psi, the coefficients of psi(beta(y)) (Series.compose).
    beta = u_1 / u_0 comes first: NotInvertible when u_0 vanishes and
    NotValuationOne unless v(beta) = 1, before the functionals are checked.
    """
    beta = RiordanPair(Series.one(A.field, A.order), _beta_quotient(A, W)).beta  # v(beta) = 1
    lhs, phi_a = _after_operator(A, W, functional_mul(phi, psi), phi)
    return lhs.series() == phi_a.series() * psi.series().compose(beta)


def product_rule_spanning_witness(A: TriMatrix, W: Weight):
    """Search the delta-functional spanning set for a product-rule failure.

    Returns a witness (i, j, n) or None; by bilinearity None means the rule
    holds for every pair of functionals, which happens exactly for Sheffer
    matrices (with exactly geometric columns) at this order.

    With u_i = w_i C_i the columns of U = D^{-1} A D and beta = u_1 / u_0,
    pair (i, j) fails exactly when u_{i+j} != u_i beta^j (u_m = 0 for
    m >= N), as e_i * e_j = e_{i+j}.
    If every (0, m) holds, u_i beta^j = u_0 beta^{i+j} = u_{i+j} for all i, j;
    so the first witness in (i, j, n) order is (0, j, n), j the first column
    with u_j != u_0 beta^j and n their first differing coefficient.  N raw
    convolutions decide it instead of N^2.
    """
    _, beta, found = _geometric_walk(A, W)
    RiordanPair(Series.one(A.field, A.order), beta)  # NotValuationOne unless v(beta) = 1
    return None if found is None else (0, *found)


def dual_characterization_check(A: TriMatrix, W: Weight, duals=None) -> bool:
    """Check phi_r(sum_n p_n(x) y^n / w_n) = y^r for every r.

    phi_r(p_n / w_n) is value n of phi_r o A, so the check compares
    _after_operator(A, W, *duals) with the delta functionals, on one build
    of the columns of U.  With its own dual basis this is a reformulation
    of duality; a dual basis taken from a different matrix fails it.
    """
    _check_matrix_order(A, W)
    duals = dual_basis(A, W) if duals is None else duals
    return all(phi == delta_functional(A.field, A.order, r)
               for r, phi in enumerate(_after_operator(A, W, *duals)))
