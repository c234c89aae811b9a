"""Membership is exactly geometric columns, against the walks it replaced.

A graded A is Riordan for W at order N when the columns u_k of
U = D^{-1} A D are exactly u_0 beta^k through y^{N-1}, beta = u_1 / u_0.
One walk decides it, _geometric_walk: it forms beta once, compares each
u_k with u_0 beta^k = u_1 beta^{k-1} on the lazy columns of U, and returns
alpha = u_0, beta and the first (j, n) at which they differ.  Three walks
did this before, and all are kept verbatim (two in tests/references.py):
riordan_witness_reference, which cross-multiplied u_0 u_k against
u_1 u_{k-1} for k >= 2 without division, geometric_witness_reference,
which compared u_k with u_0 beta^k on the listed columns, and
geometric_walk_reference, which took listed or lazy columns, started its
products at u_0 and returned the columns it built.  The library
tested the column identity u_k^2 = u_{k-1} u_{k+1} before both; its walk
is kept below verbatim too.  That identity follows from geometric columns
but is weaker at order N: a change whose every product lands beyond
y^{N-1} (the truncation corner, entry (N-1, N-2) among others) passes it.
The properties: the walk returns the u_0, beta and witness of the replaced
walks over QQ, GF(2), GF(7) and GF(1000003) at N = 2..16 for every kind
of matrix, builds no column past the witness, makes N - 2 convolutions on
a member of order N, and raises what they raised where beta does not
exist; the new verdict implies the old one; wherever the two
differ, the operator-level and product-rule tests side with the new one;
check_report's alpha and beta rebuild A; the CLI's `check` agrees with
sheffer_by_commutation; and the matrices that perturbed_non_riordan draws
for the benchmark are those it drew before.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import NotSheffer
from riordanlab.functionals import binomial_associate, product_rule_spanning_witness
from riordanlab.operators import (
    CHECK_KINDS,
    _lowering_witness,
    appell_from_alpha,
    check_report,
    dw_multiplier,
    sheffer_by_commutation,
)
from riordanlab import riordan, sampling, series
from riordanlab.riordan import (
    RiordanPair,
    Weight,
    _beta_quotient,
    _check_matrix_order,
    _first_difference,
    _geometric_columns,
    _geometric_walk,
    _iter_unweighted_columns,
    _unweighted_columns,
    is_riordan,
    pair_to_matrix,
)
from riordanlab.series import _convolve

from references import geometric_walk_reference, riordan_witness_reference
from support import KINDS, build_matrix, call, fixed_weight, outcome

# -- the replaced code --------------------------------------------------------


def identity_witness_reference(u, p):
    """The first (k, m) with [y^m] u_k^2 != [y^m] u_{k-1} u_{k+1}, or None.

    u holds the raw columns (ints, den) of U, as a list or as the lazy
    _iter_unweighted_columns; the walk ends at the first failing k, so no
    column after u_{k+1} is built.  None says that u_k^2 = u_{k-1} u_{k+1}
    for 1 <= k <= N-2, the column identity.  Total: never divides.
    """
    u = iter(u)
    (x0, d0), (x, d) = islice(u, 2)
    for k, (x1, d1) in enumerate(u, 1):
        m = _first_difference(_convolve(x, x, p), d * d, _convolve(x0, x1, p), d0 * d1)
        if m is not None:
            return (k, m)
        (x0, d0), (x, d) = (x, d), (x1, d1)
    return None


def identity_verdict_reference(A, W):
    """is_riordan as it was: the column identity on the lazy columns of U."""
    _check_matrix_order(A, W)
    return A.is_graded() and identity_witness_reference(
        _iter_unweighted_columns(A, W), A.field.p) is None


def geometric_witness_reference(u, beta):
    """The first (j, n) with [y^n] u_j != [y^n] u_0 beta^j, or None.

    u lists the columns of U; None says they are exactly geometric with
    ratio beta, that is A is the matrix of the pair (u_0, beta).  One raw
    convolution per column (series._geometric_columns).
    """
    for j, ((lhs, d), (rhs, den)) in enumerate(zip(u, _geometric_columns(*u[0], beta))):
        n = _first_difference(lhs, d, rhs, den)
        if n is not None:
            return (j, n)
    return None


def geometric_beta_and_witness_reference(A, W):
    """(beta, first differing (j, n)) as the product-rule witness formed
    them: beta = u_1 / u_0 on the listed columns, then the comparison."""
    u = _unweighted_columns(A, W)
    beta = _beta_quotient(A, W, u)
    return beta, geometric_witness_reference(u, beta)


def walk_reference(A, W):
    """geometric_walk_reference's (u_0, beta, witness), as the walk returns them."""
    u, beta, found = geometric_walk_reference(A, W)
    return u[0], beta, found


def counted_columns(monkeypatch):
    """A list that grows by one per column of U the library builds lazily."""
    built, columns = [], riordan._iter_unweighted_columns

    def counting(*args):
        for col in columns(*args):
            built.append(col)
            yield col

    monkeypatch.setattr(riordan, "_iter_unweighted_columns", counting)
    return built


# -- inputs -------------------------------------------------------------------


@st.composite
def cases(draw):
    """(W, A) over QQ, GF(2), GF(7), GF(1000003) at N = 2..16, A of every kind."""
    p = draw(st.sampled_from([None, 2, 7, 1000003]))
    n = draw(st.integers(2, 16))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    W = fixed_weight(draw(st.sampled_from(["geometric", "random", "exponential"])), Field(p), n, rng)
    return W, build_matrix(draw(st.sampled_from(KINDS)), W, rng)


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(cases())
def test_walk_finds_the_first_non_geometric_column(case):
    W, A = case
    field, n = W.field, W.order
    new, old = is_riordan(A, W), identity_verdict_reference(A, W)
    assert old or not new
    if A.is_graded():
        u = _unweighted_columns(A, W)
        beta = RiordanPair(Series.one(field, n), _beta_quotient(A, W, u)).beta
        want = geometric_witness_reference(u, beta)
        assert riordan_witness_reference(u, field.p) == want
        assert riordan_witness_reference(_iter_unweighted_columns(A, W), field.p) == want
        for cols in (u, _iter_unweighted_columns(A, W), None):
            kept, got_beta, found = geometric_walk_reference(A, W, cols)
            assert (found, got_beta) == (want, beta)
            assert kept == u[: n if want is None else want[0] + 1]
        assert _geometric_walk(A, W) == (u[0], beta, want)
        assert new == (want is None)
    if new != old:  # the identity passed where the columns are not geometric
        assert product_rule_spanning_witness(A, W) is not None
        assert _lowering_witness(A, W) is not None
        if field.p is None or field.p >= n:
            assert not sheffer_by_commutation(A, W)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [None, 2, 7, 1000003])
def test_walk_returns_the_replaced_witnesses_for_every_kind(kind, p, monkeypatch):
    # graded or not: where beta = u_1 / u_0 exists the walk finds the
    # (j, n) of geometric_witness_reference, else it raises what that did;
    # it builds u_0..u_j, or all N columns when they are geometric
    rng, field = random.Random(18), Field(p)
    built = counted_columns(monkeypatch)
    for n in range(2, 17 if p != 2 else 9):
        for wkind in ("geometric", "random", "exponential"):
            W = fixed_weight(wkind, field, n, rng)
            A = build_matrix(kind, W, rng)
            built.clear()
            got, count = outcome(_geometric_walk, A, W), len(built)
            want = outcome(geometric_beta_and_witness_reference, A, W)
            assert got == outcome(walk_reference, A, W)
            if isinstance(got[0], type):  # no beta: the error the listed walk raised
                assert got == want
            else:
                assert got[1:] == want
                assert count == (n if want[1] is None else want[1][0] + 1)
            if A.is_graded():
                assert want[1] == riordan_witness_reference(_iter_unweighted_columns(A, W), p)


@pytest.mark.parametrize("p", [None, 2, 7, 1000003])
def test_walk_over_a_member_makes_n_minus_2_products(p, monkeypatch):
    # u_0 beta = u_1 exactly, so the products start at u_1: one convolution
    # for each of u_2..u_{N-1}, none for the column u_1 beta^0
    calls, convolve = [], series._convolve

    def counting(*args):
        calls.append(1)
        return convolve(*args)

    rng, field = random.Random(19), Field(p)
    for n in range(2, 17):
        W = fixed_weight("random", field, n, rng)
        A = build_matrix("riordan", W, rng)
        monkeypatch.setattr(series, "_convolve", counting)
        calls.clear()
        assert _geometric_walk(A, W)[2] is None
        monkeypatch.undo()
        assert len(calls) == n - 2, n


@settings(max_examples=300, deadline=None)
@given(cases(), st.sampled_from(CHECK_KINDS))
def test_check_report_pair_rebuilds_the_matrix(case, kind):
    W, A = case
    report = check_report(A, W, kind)
    assert (report["alpha"] is not None) == is_riordan(A, W) == (report["beta"] is not None)
    if report["alpha"] is not None:
        alpha, beta = (Series.from_json(W.field, report[key]) for key in ("alpha", "beta"))
        assert pair_to_matrix(RiordanPair(alpha, beta), W) == A


@pytest.mark.parametrize("p", [None, 7, 1000003])
def test_corner_matrices_are_not_sheffer(p):
    # From N = 4 a bump at (N-1, N-2) moves u_{N-2} alone, at y^{N-1}, while
    # u_0 beta^{N-2} reads u_0 and u_1 only; from N = 5 the identity misses it.
    rng = random.Random(4)
    field = Field(p)
    for n in range(4, 17 if p != 7 else 8):
        W = fixed_weight("exponential", field, n, rng)
        A = build_matrix("corner", W, rng)  # entry (N-1, N-2) bumped
        assert not is_riordan(A, W)
        assert identity_verdict_reference(A, W) == (n >= 5)
        for kind in ("riordan", "sheffer", "binomial"):
            assert check_report(A, W, kind) == {"kind": kind, "verdict": False,
                                                "alpha": None, "beta": None}
        for fn in (dw_multiplier, binomial_associate):
            with pytest.raises(NotSheffer):
                fn(A, W)


def weight_spec_with_last_changed(W):
    """custom= with W's values, the last one plus 1: a second weight that
    moves only row N-1 of U, so only the corner of an Appell matrix of 1 + y."""
    return "custom=" + ",".join(str(w) for w in W.w[:-1]) + f",{W.w[-1] + W.field.one()}"


@pytest.mark.parametrize("n", [6, 9, 12, 16])
def test_cli_check_under_a_second_weight_agrees_with_commutation(n):
    QQ = Field()
    weights = {"exp=1": Weight.exponential(QQ, n, 1), "qfac=-1,2": Weight.q_factorial(QQ, n, -1, 2)}
    series = {"coeffs=1,1": Series.from_values(QQ, n, [1, 1]), "exp=2": Series.exp(QQ, n, 2),
              "coeffs=2,0,1": Series.from_values(QQ, n, [2, 0, 1])}
    pair = RiordanPair(Series.from_values(QQ, n, [1, 2, 3]), Series.from_values(QQ, n, [0, 1, -1]))
    script = "series a coeffs 1 2 3\nseries b coeffs 0 1 -1\npair p a b\n"
    verdicts = set()
    for w1, W1 in weights.items():
        others = {"geom=2": Weight.geometric(QQ, n, 2), "exp=1": weights["exp=1"]}
        others[weight_spec_with_last_changed(W1)] = Weight(QQ, list(W1.w[:-1]) + [W1.w[-1] + QQ.one()])
        matrices = {f"appell:{s}:{w1}": appell_from_alpha(alpha, W1) for s, alpha in series.items()}
        matrices[f"pair:p:{w1}"] = pair_to_matrix(pair, W1)
        for mspec, A in matrices.items():
            for w2, W2 in others.items():
                want = sheffer_by_commutation(A, W2)
                verdicts.add(want)
                for kind in ("riordan", "sheffer"):
                    line = f"check {mspec} {w2} {kind}"
                    code, out, err = call(["--order", str(n), "run"], script + line + "\n")
                    assert (code, err) == (0 if want else 1, ""), line
                    assert f"{kind}: {'true' if want else 'false'}" in out.splitlines(), line
    assert verdicts == {True, False}


GF_ORDERS = (12, 16, 20)
GF_WEIGHTS = (lambda F, n: Weight.geometric(F, n, 3), lambda F, n: Weight.q_factorial(F, n, 5, 3))


def perturbed_draws(seed, cycles=9):
    """perturbed_non_riordan's matrices on the draw sequence of the
    classify-gfp workload: per cycle, order and weight, a Riordan pair and
    then one perturbed matrix from one rng."""
    rng, field, out = random.Random(seed), Field(1000003), []
    for _ in range(cycles):
        for n in GF_ORDERS:
            for make in GF_WEIGHTS:
                W = make(field, n)
                sampling.riordan_pair(field, n, rng)
                out.append(sampling.perturbed_non_riordan(W, rng))
    return out


@pytest.mark.parametrize("seed", [1, 7919])
def test_perturbed_non_riordan_draws_what_it_drew_under_the_identity(seed, monkeypatch):
    new = perturbed_draws(seed)
    monkeypatch.setattr(sampling, "is_riordan", identity_verdict_reference)
    assert perturbed_draws(seed) == new


def test_the_one_bump_at_order_three_stays_riordan(QQ, rng):
    # why perturbed_non_riordan needs N >= 4: at N = 3 it may bump a_{1,0} only
    W = Weight.exponential(QQ, 3, 1)
    rows = [list(r) for r in sampling.riordan_matrix(W, rng).rows]
    rows[1][0] = rows[1][0] + QQ.one()
    assert is_riordan(TriMatrix(QQ, rows), W)
