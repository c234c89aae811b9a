"""When is an Appell matrix for one weight Riordan for another?

The governing invariant is the gamma sequence
gamma_k = w2_k w_{k+1} / (w2_{k+1} w_k).  Membership always holds when
gamma is a nonzero constant (a rescaled weight, any alpha), and in
characteristic 0 when gamma is a never-vanishing nonconstant linear
function of k and alpha = c0 * e^{hy}.  Whenever the linear coefficient
c_1 of alpha is nonzero these two cases are the only ones; membership is
nevertheless always decided by is_riordan under the second weight, and the
case labels are diagnostic only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BackendMismatch, CharP, DivisionByZero, ForbiddenLambda, NotValuationZero
from .operators import appell_from_alpha
from .riordan import Weight, is_riordan
from .scalars import Field, Scalar
from .series import Series, _reduce, _scalar_raw, _wrap, check_order


@dataclass(frozen=True)
class GammaSeq:
    """gamma_0..gamma_{N-2}; entries are nonzero for valid weight pairs."""

    values: tuple

    def __len__(self):
        return len(self.values)

    def to_json(self):
        return [str(v) for v in self.values]


def gamma_sequence(W: Weight, W2: Weight) -> GammaSeq:
    """gamma_k = w2_k w_{k+1} / (w2_{k+1} w_k): one product of the raw forms
    of w, 1/w, w2 and 1/w2 per entry over the product of their
    denominators, reduced once (series._reduce), one Scalar per entry."""
    W._check_same(W2)
    p, (w, dw), (r, dr) = W.field.p, W._ws._raw(), W._rs._raw()
    (w2, dw2), (r2, dr2) = W2._ws._raw(), W2._rs._raw()
    ints = [a * b * c * d for a, b, c, d in zip(w2, w[1:], r2[1:], r)]
    return GammaSeq(tuple(_wrap(W.field, *_reduce(ints, dw * dr * dw2 * dr2, p=p))))


@dataclass(frozen=True)
class GammaShape:
    """Shape of a gamma sequence: 'constant', 'linear' (lam - sigma*k), or 'neither'."""

    kind: str
    lam: Scalar | None = None
    sigma: Scalar | None = None


def classify_gamma(gamma: GammaSeq) -> GammaShape:
    """Fit gamma_k = lam (constant) or lam - sigma*k with sigma != 0.

    The linear case is recognized only in characteristic 0.  A sequence
    that is not constant is lam - sigma*k with sigma != 0 exactly when
    every second difference vanishes, that is when every step
    gamma_k - gamma_{k+1} equals the first, sigma.
    """
    vals = gamma.values
    if not vals:
        raise ValueError("gamma sequence is empty")
    first = vals[0]
    if all(v == first for v in vals):
        return GammaShape("constant", lam=first)
    if first.p is not None:  # characteristic p
        return GammaShape("neither")
    sigma = vals[0] - vals[1]
    if all(a - b == sigma for a, b in zip(vals[1:], vals[2:])):
        return GammaShape("linear", lam=first, sigma=sigma)
    return GammaShape("neither")


def is_exponential_alpha(alpha: Series):
    """Some (c0, h) with alpha = c0 * e^{hy} through this order, else None."""
    if alpha.valuation() != 0:
        raise NotValuationZero("alpha must have valuation 0")
    field = alpha.field
    if field.p is not None and field.p < alpha.order:
        raise CharP(f"needs l! invertible for l < {alpha.order}")
    c0 = alpha.coeffs[0]
    h = alpha.coeffs[1] / c0
    if alpha != Series.exp(field, alpha.order, h).scale(c0):
        return None
    return c0, h


def tilde_weight_from_gamma(W: Weight, gamma: GammaSeq) -> Weight:
    """The unique second weight realizing a prescribed gamma sequence:
    w2_k = w_k / (gamma_0 ... gamma_{k-1}), w times the running product of
    the steps 1 / gamma_k entrywise (Weight._times)."""
    if len(gamma) != W.order - 1:
        raise BackendMismatch("gamma length must be order - 1")
    one, steps = W.field.one(), []
    for g in gamma.values:
        if not g:
            raise DivisionByZero("division by zero")
        one._join(g)  # a gamma_k of another field raises as a Scalar product would
        steps.append(_scalar_raw(g)[::-1])
    return W._times(Weight._from_steps(W.field, steps))


def exp_case_weights(field: Field, order: int, lam, sigma) -> Weight:
    """Weight of (1 + sigma*t)^(lam/sigma): 1/w2_k = sigma^k binom(lam/sigma, k).

    Requires characteristic 0, sigma != 0, and lam outside
    {0, sigma, ..., (order-2)*sigma} so that no denominator vanishes.
    Built as one running product on integers, w2_k = w2_{k-1} k / (lam - (k-1) sigma)
    (Weight._from_steps).
    """
    check_order(order)
    if field.char != 0:
        raise CharP("defined in characteristic 0 only")
    lam, sigma = field.scalar(lam), field.scalar(sigma)
    if not sigma:
        raise ForbiddenLambda("sigma must be nonzero")
    (a, b), (c, d), steps = _scalar_raw(lam), _scalar_raw(sigma), []
    for k in range(1, order):
        factor = a * d - (k - 1) * c * b  # (lam - (k - 1) sigma) b d
        if not factor:
            raise ForbiddenLambda(f"lambda = {k - 1} * sigma makes w[{k}] vanish")
        steps.append((k * b * d, factor))
    return Weight._from_steps(field, steps)


@dataclass(frozen=True)
class TwoWeightReport:
    """Membership verdict with its diagnostic case label.

    case is "I" (constant gamma), "II" (linear gamma with exponential
    alpha), "other" (member outside both cases, only possible when the
    linear coefficient of alpha vanishes), or None for non-members.
    """

    member: bool
    case: str | None
    gamma: GammaSeq

    def to_json(self):
        return {"member": self.member, "case": self.case, "gamma": self.gamma.to_json()}


def classify_membership(alpha: Series, W: Weight, W2: Weight) -> TwoWeightReport:
    """Decide whether the Appell matrix of alpha under W is Riordan under W2.

    The verdict is is_riordan under W2, exactly geometric columns at this
    order; the label reports which of the two structural cases explains it.
    """
    a = appell_from_alpha(alpha, W)
    member = is_riordan(a, W2)
    gamma = gamma_sequence(W, W2)
    case = None
    if member:
        shape = classify_gamma(gamma)
        if shape.kind == "constant":
            case = "I"
        elif shape.kind == "linear" and is_exponential_alpha(alpha) is not None:
            case = "II"
        else:
            case = "other"
    return TwoWeightReport(member, case, gamma)
