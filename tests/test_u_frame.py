"""The analyses that stay in the U frame, against the code they replace.

d_polynomials and dual_basis read V = U^{-1} = D^{-1} A^{-1} D (D = diag(w))
off one forward substitution on the rows of U = D^{-1} A D
(operators._inverse_frame) instead of weighting A.inverse();
dual_characterization_check reads phi_r(p_n / w_n) as value n of
phi_r o A (functionals._after_operator); shifted_power_matrix is the
Appell matrix of 1/W(-hy) instead of the inverse of a translation.  The
references below are the code the library used before, kept verbatim but
for the library calls it made, which now go to the Scalar-level
references of tests/references.py so that no reference
touches the new kernels.  Results, and the type and message of every
raised error, must agree over QQ (signed, mixed denominators), GF(2),
GF(7) and GF(1000003) at N = 2..16, with one stated exception: explicit
duals that do not share the field and order of A and W now raise the
BackendMismatch of _after_operator before any of them is evaluated.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab import riordan
from riordanlab.errors import BackendMismatch
from riordanlab.functionals import (
    dual_basis,
    dual_characterization_check,
    eval_functional,
    functional_apply,
)
from riordanlab.operators import (
    check_report,
    d_polynomials,
    finite_difference_matrix,
    is_appell,
    shifted_power_matrix,
    translation_matrix,
)
from riordanlab.riordan import Weight, _check_matrix_order, pair_to_matrix
from riordanlab.triangular import matrix_to_polys

from references import (
    dual_basis_scalar_reference, eval_functional_reference, translation_matrix_reference,
)
from support import (
    MATRICES, WEIGHTS, drawn_weight, functional, gf7_cases, matrix, other, outcome, pair, value,
    weight_for,
)

# -- the replaced code --------------------------------------------------------


def dual_characterization_check_reference(A, W, duals=None):
    """Check phi_r(sum_n p_n(x) y^n / w_n) = y^r for every r.

    With its own dual basis this is a reformulation of duality; a dual
    basis taken from a different matrix fails it.
    """
    _check_matrix_order(A, W)
    duals = dual_basis_scalar_reference(A, W) if duals is None else duals
    polys = matrix_to_polys(A)
    for r, phi in enumerate(duals):
        coeffs = [
            functional_apply(phi, polys[n], W) * W.recip[n] for n in range(A.order)
        ]
        if Series(A.field, coeffs) != Series.monomial(A.field, A.order, r):
            return False
    return True


def shifted_power_matrix_reference(W, h):
    """Matrix whose row n is the W-analogue of the shifted power (x+h)^n:
    the inverse of translation by -h."""
    return translation_matrix_reference(W, -W.field.scalar(h)).inverse()


# -- inputs -------------------------------------------------------------------


DUALS = st.sampled_from(["none", "own", "own", "other-matrix", "random", "short", "long",
                         "other-order", "other-field"])


def duals_for(kind, A, W, rng):
    """None, the duals of A (of another graded matrix when A has none), the
    duals of another Riordan matrix, random functionals, a list cut short or
    one too long, or a list holding a functional of another order or field."""
    field, n = A.field, A.order
    if kind == "none":
        return None
    if kind == "random":
        return [functional(field, n, rng) for _ in range(n)]
    if kind == "other-matrix" or not A.is_graded():
        A = pair_to_matrix(pair(field, n, rng), W)
    duals = dual_basis_scalar_reference(A, W)
    if kind == "short":
        return duals[: rng.randrange(n)]
    if kind == "long":
        return duals + [functional(field, n, rng)]
    if kind in ("other-order", "other-field"):
        foreign = functional(field, n + 1, rng) if kind == "other-order" else functional(
            other(field), n, rng)
        duals[rng.randrange(n)] = foreign
    return duals


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(gf7_cases(), WEIGHTS, MATRICES, st.sampled_from(["same", "same", "same", "other-order",
                                                    "other-field"]), DUALS)
def test_dual_characterization_check_matches_functional_apply(case, wkind, akind, where, dkind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    duals = duals_for(dkind, A, W, rng)
    W = weight_for(wkind, field, n, rng, where) if where != "same" else W
    got = outcome(dual_characterization_check, A, W, duals)
    want = outcome(dual_characterization_check_reference, A, W, duals)
    foreign = duals is not None and W.order == n and (
        W.field != field or any(phi.field != field or phi.order != n for phi in duals))
    if not foreign:
        assert got == want
    elif duals:
        # the one change: every dual is checked against A and W up front
        assert got == (BackendMismatch, "functional, operator and weight orders or fields differ")
        assert want is False or want[0] is BackendMismatch
    else:
        # no duals to check: the columns of U are built, and W's field is foreign
        assert got[0] is BackendMismatch and got[1].startswith("mixed scalar backends: ")
        assert want is True


def test_dual_characterization_check_verdicts_are_reached():
    rng = random.Random(17)
    for field in (Field(), Field(7), Field(1000003)):
        W = Weight.q_factorial(field, 6, 2, 3)  # 3 has order 6 mod 7
        A, B = (pair_to_matrix(pair(field, 6, rng), W) for _ in range(2))
        for duals in (None, dual_basis(A, W), dual_basis(A, W)[:3]):
            assert dual_characterization_check(A, W, duals)
            assert dual_characterization_check_reference(A, W, duals)
        assert not dual_characterization_check(A, W, dual_basis(B, W))
        assert not dual_characterization_check_reference(A, W, dual_basis(B, W))


@settings(max_examples=300, deadline=None)
@given(gf7_cases(), WEIGHTS, st.sampled_from(["value", "value", "zero", "int", "foreign"]))
def test_shifted_power_matrix_matches_inverse_translation(case, wkind, hkind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    h = {"value": value(field, rng), "zero": 0, "int": rng.randint(-9, 9),
         "foreign": value(other(field), rng, True)}[hkind]
    got = outcome(shifted_power_matrix, W, h)
    assert got == outcome(shifted_power_matrix_reference, W, h)
    assert outcome(translation_matrix, W, h) == outcome(translation_matrix_reference, W, h)
    assert outcome(eval_functional, h, W) == outcome(eval_functional_reference, h, W)
    if hkind != "foreign":
        assert is_appell(got, W)
        assert got @ translation_matrix(W, -W.field.scalar(h)) == TriMatrix.identity(field, n)


def test_the_analyses_take_no_matrix_inverse(monkeypatch):
    calls = []
    inverse = TriMatrix.inverse

    def counting(self):
        calls.append(1)
        return inverse(self)

    monkeypatch.setattr(TriMatrix, "inverse", counting)
    rng = random.Random(5)
    for field in (Field(), Field(1000003)):
        W = Weight.q_factorial(field, 10, 3, 2)
        A = pair_to_matrix(pair(field, 10, rng), W)
        calls.clear()
        assert d_polynomials(A, W).constant_on_diagonals()
        assert len(dual_basis(A, W)) == 10
        assert dual_characterization_check(A, W)
        assert is_appell(shifted_power_matrix(W, 3), W)
        assert len(calls) == 0
        dual_basis_scalar_reference(A, W)
        assert len(calls) == 1


def test_appell_report_on_a_toeplitz_u_is_the_riordan_report(monkeypatch):
    # a graded Toeplitz U is walked like any graded A: beta = y, verdict true
    calls = []
    walk = riordan._geometric_walk

    def counting(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(riordan, "_geometric_walk", counting)
    rng = random.Random(3)
    for field in (Field(), Field(1000003)):
        for n in (2, 8, 16):
            W = Weight.geometric(field, n, 2)
            A = translation_matrix(W, 3)
            report = check_report(A, W, "appell")
            assert report["verdict"] is True
            assert report == {**check_report(A, W, "riordan"), "kind": "appell"}
        # a graded A that is not Appell still gets the walk
        A = pair_to_matrix(pair(field, 8, rng), Weight.geometric(field, 8, 2))
        calls.clear()
        report = check_report(A, Weight.geometric(field, 8, 2), "appell")
        assert len(calls) == 1 and report["alpha"] is not None


def test_appell_report_on_a_strictly_lower_toeplitz_u():
    # the finite difference T_1 - I commutes with M_W but is not graded
    for field in (Field(), Field(7), Field(1000003)):
        W = Weight.exponential(field, 6, 1)
        findiff = finite_difference_matrix(W, 1)
        assert findiff.is_strictly_lower() and is_appell(findiff, W)
        report = check_report(findiff, W, "appell")
        assert report == {"kind": "appell", "verdict": True, "alpha": None, "beta": None}
