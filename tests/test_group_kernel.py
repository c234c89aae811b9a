"""The group layer on one power table, against the loops it replaces.

Series.compose, Series.comp_inverse, riordan_mul and riordan_inv run on the
power table R_g of series.py (column j holds g^j).  pair_to_matrix and
product_rule_spanning_witness take c beta^k from one generator of raw
columns.  _geometric_walk walks the lazy raw columns of U for the first
(j, n) at which u_j and u_0 beta^j differ, beta = u_1 / u_0, and stops
there; is_riordan is its verdict, and
check_report builds U once and walks it once.  _beta_quotient is one
Toeplitz solve on raw column values.  The references, here and in
tests/references.py, are the code the library used before, kept verbatim
(the old solver included, so no
reference touches the new kernel): Horner composition, comp_inverse with
its inline powers, the group law through them, pair_to_matrix and the
column identity u_k^2 = u_{k-1} u_{k+1} on Scalar series, and the beta
quotient w_1 C_1 / C_0 as a Series product with an inverse.  Membership
is checked against an independent Scalar-level rebuild: A is Riordan
exactly when pair_to_matrix_reference of (C_0, w_1 C_1 / C_0) gives A
back, and the first failing column and coefficient are those where
u_j and u_0 beta^j differ as Series.  Every result, and the type and
message of every raised error, must agree over QQ (signed, mixed
denominators), GF(2), GF(3) and GF(1000003) at N = 2..16, N > p included.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import BackendMismatch
from riordanlab.functionals import binomial_associate, product_rule_spanning_witness
from riordanlab import functionals, operators, riordan
from riordanlab.operators import CHECK_KINDS, check_report, dw_multiplier, translation_matrix
from riordanlab.riordan import (
    RiordanPair,
    Weight,
    _beta_quotient,
    _geometric_walk,
    column_series,
    is_riordan,
    pair_to_matrix,
    riordan_inv,
    riordan_mul,
)
from riordanlab.sampling import graded_matrix

from references import (
    beta_quotient_reference, comp_inverse_reference, compose_reference, pair_to_matrix_reference,
    riordan_inv_compose_reference, scaled_columns_reference,
)
from support import (
    MATRICES, WEIGHTS, bumped, drawn_cases, drawn_weight, matrix, other, outcome, pair, series,
)

# -- the replaced code --------------------------------------------------------


def riordan_mul_horner_reference(a, b):
    """Group law: (alpha, beta) * (gamma, delta) = (alpha*(gamma o beta), delta o beta)."""
    return RiordanPair(
        a.alpha * compose_reference(b.alpha, a.beta),
        compose_reference(b.beta, a.beta),
    )


def riordan_witness_scalar_reference(A, W):
    """The first (k, m) with [y^m] u_k^2 != [y^m] u_{k-1} u_{k+1}, on Scalar series."""
    u = scaled_columns_reference(A, W)
    for k in range(1, A.order - 1):
        lhs, rhs = u[k] * u[k], u[k - 1] * u[k + 1]
        for m, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
            if x != y:
                return (k, m)
    return None


def is_riordan_rebuild_reference(A, W):
    """Does the pair (C_0, w_1 C_1 / C_0) rebuild A, on Scalar series?"""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    if not A.is_graded():
        return False
    pair = RiordanPair(column_series(A, W, 0), beta_quotient_reference(A, W))
    return pair_to_matrix_reference(pair, W) == A


def geometric_witness_scalar_reference(A, W):
    """The first (0, j, n) with u_j != u_0 beta^j, on Scalar series."""
    if A.order != W.order:
        raise BackendMismatch("matrix and weight orders differ")
    beta = RiordanPair(Series.one(A.field, A.order), _beta_quotient(A, W)).beta
    u = scaled_columns_reference(A, W)
    rhs = u[0]
    for j, lhs in enumerate(u):
        for n, (x, y) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
            if x != y:
                return (0, j, n)
        rhs = rhs * beta
    return None


_VERDICTS = {"riordan": operators.is_riordan, "sheffer": operators.is_sheffer,
             "appell": operators.is_appell, "binomial": operators.is_binomial}


def check_report_verdict_table_reference(A, W, kind):
    """Classification verdict plus extracted parameters, JSON-ready."""
    if kind not in _VERDICTS:
        raise ValueError(f"unknown check kind {kind!r}")
    report = {"kind": kind, "verdict": _VERDICTS[kind](A, W)}
    if is_riordan(A, W):
        report["alpha"] = column_series(A, W, 0).to_json()
        report["beta"] = _beta_quotient(A, W).to_json()
    else:
        report["alpha"] = None
        report["beta"] = None
    return report


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from([1, 1, 2, 16, 0, "short", "long", "foreign"]))
def test_compose_matches_horner(case, inner):
    field, n, rng = case
    f = series(field, n, rng)
    if inner == "foreign":
        g = series(other(field), n, rng, 1)
    elif inner in ("short", "long"):
        g = series(field, n - 1 if inner == "short" and n > 2 else n + 1, rng, 1)
    else:
        g = series(field, n, rng, inner)  # valuation 0 fails, 16 is the zero series
    assert outcome(Series.compose, f, g) == outcome(compose_reference, f, g)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from([1, 1, 1, 0, 2, 16]))
def test_comp_inverse_matches_inline_powers(case, valuation):
    field, n, rng = case
    f = series(field, n, rng, valuation)
    assert outcome(Series.comp_inverse, f) == outcome(comp_inverse_reference, f)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_riordan_mul_and_inv_match_compositions(case, where):
    field, n, rng = case
    a = pair(field, n, rng)
    if where == "other-order":
        b = pair(field, n + 1, rng)
    elif where == "other-field":
        b = pair(other(field), n, rng)
    else:
        b = pair(field, n, rng)
    assert outcome(riordan_mul, a, b) == outcome(riordan_mul_horner_reference, a, b)
    assert outcome(riordan_mul, b, a) == outcome(riordan_mul_horner_reference, b, a)
    assert riordan_inv(a) == riordan_inv_compose_reference(a)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_pair_to_matrix_matches_series_columns(case, wkind, where):
    field, n, rng = case
    if where == "other-field":
        W = drawn_weight(wkind, other(field), n, rng)
    else:
        W = drawn_weight(wkind, field, n + (where == "other-order"), rng)
    p = pair(field, n, rng)
    assert outcome(pair_to_matrix, p, W) == outcome(pair_to_matrix_reference, p, W)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_is_riordan_matches_scaled_columns(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if where == "other-field":
        W = drawn_weight(wkind, other(field), n, rng)
    elif where == "other-order":
        W = drawn_weight(wkind, field, n + 1, rng)
    assert outcome(is_riordan, A, W) == outcome(is_riordan_rebuild_reference, A, W)
    if where == "same":
        got = outcome(product_rule_spanning_witness, A, W)
        assert got == outcome(geometric_witness_scalar_reference, A, W)


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, st.sampled_from(["riordan", "perturbed", "bumped", "graded"]))
def test_riordan_witness_matches_series_products(case, wkind, akind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    found = geometric_witness_scalar_reference(A, W)  # (0, j, n): u_j and u_0 beta^j first differ at y^n
    want = None if found is None else found[1:]
    assert _geometric_walk(A, W)[2] == want
    assert is_riordan(A, W) == (want is None)


def test_is_riordan_stops_at_the_first_failing_column(QQ, rng, monkeypatch):
    W = Weight.exponential(QQ, 12, 1)
    rows = [list(r) for r in pair_to_matrix(pair(QQ, 12, rng), W).rows]
    rows[2][1] = rows[2][1] + QQ.one()  # u_1 changes at y^2, so u_1^2 = u_0 u_2 fails at y^3
    A = TriMatrix(QQ, rows)
    assert riordan_witness_scalar_reference(A, W) == (1, 3)
    built, columns = [], riordan._iter_unweighted_columns

    def counting(*args):
        for col in columns(*args):
            built.append(col)
            yield col

    monkeypatch.setattr(riordan, "_iter_unweighted_columns", counting)
    assert not is_riordan(A, W)
    assert len(built) <= 3


def test_check_report_stops_at_the_first_failing_column(QQ, rng, monkeypatch):
    # the identity fails at (1, 3): riordan, sheffer and binomial need u_0, u_1, u_2 only
    W = Weight.exponential(QQ, 12, 1)
    rows = [list(r) for r in pair_to_matrix(pair(QQ, 12, rng), W).rows]
    rows[2][1] = rows[2][1] + QQ.one()
    A = TriMatrix(QQ, rows)
    assert riordan_witness_scalar_reference(A, W) == (1, 3)
    built, columns = [], riordan._iter_unweighted_columns

    def counting(*args):
        for col in columns(*args):
            built.append(col)
            yield col

    monkeypatch.setattr(riordan, "_iter_unweighted_columns", counting)
    for kind in ("riordan", "sheffer", "binomial"):
        built.clear()
        assert check_report(A, W, kind) == {"kind": kind, "verdict": False,
                                            "alpha": None, "beta": None}
        assert len(built) <= 3, kind


@settings(max_examples=300, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(["same", "same", "other-order", "other-field"]))
def test_beta_quotient_matches_series_division(case, wkind, akind, where):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    if where == "other-field":
        W = drawn_weight(wkind, other(field), n, rng)
    elif where == "other-order":
        W = drawn_weight(wkind, field, n + 1, rng)
    assert outcome(_beta_quotient, A, W) == outcome(beta_quotient_reference, A, W)


@settings(max_examples=200, deadline=None)
@given(drawn_cases(), WEIGHTS, MATRICES, st.sampled_from(CHECK_KINDS))
def test_check_report_matches_two_calls(case, wkind, akind, kind):
    field, n, rng = case
    W = drawn_weight(wkind, field, n, rng)
    A = matrix(akind, W, rng)
    assert outcome(check_report, A, W, kind) == outcome(check_report_verdict_table_reference, A, W, kind)


def counted_u(monkeypatch):
    """Lists that grow by one per build of U and per membership walk, in
    every module that builds or walks it."""
    builds, walks = [], []
    build_lazy, walk = riordan._iter_unweighted_columns, riordan._geometric_walk

    def counting_list(*args):
        builds.append(1)
        return list(build_lazy(*args))  # not through the counted lazy build

    def counting_lazy(*args):
        builds.append(1)
        return build_lazy(*args)

    def counting_walk(*args):
        walks.append(1)
        return walk(*args)

    for module in (operators, riordan, functionals):
        monkeypatch.setattr(module, "_unweighted_columns", counting_list)
        monkeypatch.setattr(module, "_iter_unweighted_columns", counting_lazy)
    for module in (riordan, functionals):
        monkeypatch.setattr(module, "_geometric_walk", counting_walk)
    return builds, walks


def test_check_report_tests_the_column_identity_once(QQ, rng, monkeypatch):
    # U is built once per report, and the membership walk walks it once
    builds, walks = counted_u(monkeypatch)
    W = Weight.exponential(QQ, 6, 1)
    for A in (pair_to_matrix(pair(QQ, 6, rng), W), graded_matrix(QQ, 6, rng)):
        for kind in CHECK_KINDS:
            builds.clear()
            walks.clear()
            check_report(A, W, kind)
            assert (len(builds), len(walks)) == (1, 1), kind


def test_beta_of_a_sheffer_matrix_builds_u_once(QQ, rng, monkeypatch):
    # the verdict and beta = u_1 / u_0 read the same columns of U
    builds, walks = counted_u(monkeypatch)
    W = Weight.exponential(QQ, 8, 1)
    for A in (translation_matrix(W, QQ.one()), pair_to_matrix(pair(QQ, 8, rng), W)):
        for fn in (dw_multiplier, binomial_associate):
            builds.clear()
            walks.clear()
            fn(A, W)
            assert (len(builds), len(walks)) == (1, 1), fn.__name__


def test_group_law_at_the_largest_order(QQ):
    rng = random.Random(64)
    for field in (QQ, Field(1000003)):
        W = Weight.exponential(field, 64, 1)
        a, b = pair(field, 64, rng), pair(field, 64, rng)
        assert riordan_mul(a, b) == riordan_mul_horner_reference(a, b)
        assert riordan_inv(a) == riordan_inv_compose_reference(a)
        A = pair_to_matrix(a, W)
        assert A == pair_to_matrix_reference(a, W)
        B = bumped(A, rng)
        assert is_riordan(A, W)
        assert is_riordan(B, W) == is_riordan_rebuild_reference(B, W)


def test_product_rule_check_builds_u_of_a_in_full_once(QQ, rng, monkeypatch):
    # beta reads two columns of U of A, and phi * psi and phi share one full
    # build of it; psi o d is psi(beta(y)), so no U of the candidate d is built
    built, build_lazy = [], riordan._iter_unweighted_columns

    def counting(A, W):
        built.append([A, 0])
        for col in build_lazy(A, W):
            built[-1][1] += 1
            yield col

    monkeypatch.setattr(riordan, "_iter_unweighted_columns", counting)
    W = Weight.exponential(QQ, 8, 1)
    A = pair_to_matrix(pair(QQ, 8, rng), W)
    phi, psi = (functionals.Functional.from_series(series(QQ, 8, rng)) for _ in range(2))
    assert functionals.product_rule_check(A, W, phi, psi)
    assert [(B is A, n) for B, n in built] == [(True, 2), (True, 8)]
