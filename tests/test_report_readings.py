"""check_report reads every kind off the one membership walk.

The paper sorts graded sequences by their pair (alpha, beta): Sheffer is
Riordan, binomial type is alpha = 1, and Appell is beta = y.  check_report
runs _riordan_columns once and reads each kind from (alpha, beta); only a
non-graded A, which is not walked, takes its appell verdict from
is_appell.  The report it replaced had a second path for appell: it listed
every column of U, tested them for Toeplitz shape and skipped the walk
when they passed.  That report, the _riordan_columns it read (which
returned the columns of U) and its Toeplitz test are kept below verbatim
but for the names of the references they call, on the walk they used
(geometric_walk_reference).  The properties: the
whole report, or the type and message of the error, is the replaced one's
for every kind over QQ, GF(2), GF(7) and GF(1000003) at N = 2..16, on
every kind of matrix of support.build_matrix plus Appell matrices, finite
differences (non-graded, strictly lower Toeplitz U) and strictly lower
non-Toeplitz matrices; the appell verdict is is_appell's, and on a graded
A it is beta = y; and a non-graded A is never walked.
"""

import random

import pytest

from riordanlab import Field, Series, TriMatrix
from riordanlab import riordan
from riordanlab.operators import (
    CHECK_KINDS,
    _check_frame,
    _trivial_alpha,
    appell_from_alpha,
    check_report,
    finite_difference_matrix,
    is_appell,
)
from riordanlab.riordan import Weight, _check_matrix_order, _unweighted_columns
from riordanlab.series import _wrap
from riordanlab.sampling import graded_matrix, unit_series

from references import geometric_walk_reference as _geometric_walk, is_toeplitz_reference
from support import KINDS, build_matrix, fixed_weight, outcome

# -- the replaced code --------------------------------------------------------


def riordan_columns_walk_reference(A: TriMatrix, W: Weight):
    """(u, beta) when A is Riordan for W, u the N columns of U
    (_unweighted_columns) and beta = u_1 / u_0, else None: the membership
    walk with its guards (the order check, then None for a non-graded A).
    It stops at the first failing column."""
    _check_matrix_order(A, W)
    if A.is_graded():
        u, beta, found = _geometric_walk(A, W)
        if found is None:
            return u, beta
    return None


def check_report_appell_path_reference(A: TriMatrix, W: Weight, kind: str) -> dict:
    """Classification verdict plus extracted parameters, JSON-ready.

    `kind` is one of CHECK_KINDS.  alpha/beta are included whenever the
    matrix is Riordan for W, whatever `kind` was asked, and then
    pair_to_matrix(RiordanPair(alpha, beta), W) rebuilds A.  U is built
    once, and alpha = u_0 and beta = u_1 / u_0 are those the membership
    walk formed.  riordan, sheffer and binomial take them from
    _riordan_columns, which builds no column past the first failing one;
    appell lists all of U for its Toeplitz test and, on a graded A that
    fails it, walks the membership test on that list (a graded A with
    Toeplitz U is Riordan with beta = y, u_k = y^k u_0).  The errors are
    those of the public test of `kind`.
    """
    if kind not in CHECK_KINDS:
        raise ValueError(f"unknown check kind {kind!r}")
    if kind == "appell":
        _check_frame(A, W)
        u = _unweighted_columns(A, W)
        verdict = is_toeplitz_reference(iter(u))
        found = None
        if A.is_graded():  # a Toeplitz U is Riordan with beta = y: u_k = y^k u_0
            y = Series.identity(A.field, A.order)
            u, beta, witness = (u, y, None) if verdict else _geometric_walk(A, W, u)
            found = None if witness else (u, beta)
    else:
        found = riordan_columns_walk_reference(A, W)
        verdict = found is not None and (kind != "binomial" or _trivial_alpha(A))
    alpha, beta = (None, None) if found is None else (
        Series(A.field, _wrap(A.field, *found[0][0])).to_json(), found[1].to_json())
    return {"kind": kind, "verdict": verdict, "alpha": alpha, "beta": beta}


# -- inputs -------------------------------------------------------------------


def strictly_lower(field, n, rng):
    """A strictly lower matrix: graded_matrix with its diagonal zeroed."""
    rows = [list(r) for r in graded_matrix(field, n, rng).rows]
    for i, row in enumerate(rows):
        row[i] = field.zero()
    return TriMatrix(field, rows)


def report_matrix(kind, W, rng):
    """A matrix of support.KINDS, or an Appell matrix, a finite
    difference, or a strictly lower matrix."""
    field, n = W.field, W.order
    if kind == "appell":
        return appell_from_alpha(unit_series(field, n, rng), W)
    if kind == "findiff":
        return finite_difference_matrix(W, field.scalar(rng.randint(1, 5)) or field.one())
    if kind == "strict":
        return strictly_lower(field, n, rng)
    return build_matrix(kind, W, rng)


REPORT_KINDS = KINDS + ["appell", "findiff", "strict"]


# -- tests --------------------------------------------------------------------


@pytest.mark.parametrize("kind", REPORT_KINDS)
@pytest.mark.parametrize("p", [None, 2, 7, 1000003])
def test_report_matches_the_two_path_report(kind, p, monkeypatch):
    walks, walk = [], riordan._geometric_walk

    def counting(*args):
        walks.append(1)
        return walk(*args)

    monkeypatch.setattr(riordan, "_geometric_walk", counting)
    rng, field = random.Random(19), Field(p)
    for n in range(2, 17):
        for wkind in ("geometric", "random", "exponential"):
            W = fixed_weight(wkind, field, n, rng)
            A = report_matrix(kind, W, rng)
            for check in CHECK_KINDS + ("unknown",):
                walks.clear()
                got = outcome(check_report, A, W, check)
                assert len(walks) <= (1 if A.is_graded() else 0), check
                assert got == outcome(check_report_appell_path_reference, A, W, check), (n, check)
            report = check_report(A, W, "appell")
            assert report["verdict"] == is_appell(A, W)
            if A.is_graded():  # u_k = y^k u_0 exactly when A commutes with M_W
                assert report["verdict"] == (report["beta"] == Series.identity(field, n).to_json())
            assert report == {**check_report(A, W, "riordan"), "kind": "appell",
                              "verdict": report["verdict"]}
            for other in (fixed_weight(wkind, Field(3), n, rng),
                          fixed_weight(wkind, field, n + 1, rng)):
                for check in CHECK_KINDS:
                    assert (outcome(check_report, A, other, check)
                            == outcome(check_report_appell_path_reference, A, other, check))

