"""The operator-level Sheffer tests on U, against the q-based code they replace.

sheffer_by_commutation and is_normalizing decide whether q = A^{-1} M_W A
commutes with M_W through _lowering_witness, which solves U t = S u_0 for
U = D^{-1} A D and checks S U = U T(t) entry by entry, building neither q nor
an inverse.  The references below are the q-based pair the library used
before, kept verbatim: one inverse, two products and is_appell.  Every
verdict, every raised error (type and message) and the state of the
caller's random generator must agree over QQ, GF(2), GF(3) and GF(1000003)
at N = 2..14.  The witness itself is checked against q: column k of
S U - U T(t) is U times column k of q' - T(t), q' = D^{-1} q D, so both
first differ at the first (k, n) with q'[n][k] != q'[n-k][0].
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, TriMatrix
from riordanlab import functionals, operators, riordan
from riordanlab.operators import (
    _lowering_witness,
    is_appell,
    is_normalizing,
    q_operator_matrix,
    sheffer_by_commutation,
)
from riordanlab.riordan import Weight, matrix_to_pair, pair_to_matrix, riordan_inv
from riordanlab.sampling import unit_series
from riordanlab.series import _wrap

from support import KINDS, build_matrix, fixed_weight, other, outcome, pair, sample_points

# -- the replaced code --------------------------------------------------------


def sheffer_by_commutation_reference(A: TriMatrix, W: Weight, hs=None) -> bool:
    """Independent Sheffer test: [A^{-1} M_W A, T_h] = 0 for N distinct h.

    With q = A^{-1} M_W A, [q, T_h] = sum_{l<N} h^l [q, M_W^l] / w_l is a
    matrix polynomial of degree < N in h; by Vandermonde it vanishes at N
    distinct points exactly when every [q, M_W^l] does, that is when
    [q, M_W] = 0, which decides the test without building a translation.
    Defaults to h = 0..N-1 (requires p >= N over GF(p)).
    """
    if hs is None:
        W.field.range_elements(W.order)  # raises when GF(p) has fewer than N points
    elif len({W.field.scalar(h) for h in hs}) != W.order:
        raise ValueError(f"need {W.order} distinct sample points")
    return is_appell(q_operator_matrix(A, W), W)


def is_normalizing_reference(A: TriMatrix, W: Weight, samples: int = 6, rng=None) -> bool:
    """Does conjugation by A preserve the group of matrices commuting with M_W?

    Checks the deterministic spanning family 1 + y^j substituted at M_W,
    which is decisive at this order.  Matches the Sheffer verdict.

    appell_from_alpha(1 + y^j) is I + M_W^j, which A conjugates to I + q^j,
    q = A^{-1} M_W A; all of these commute with M_W exactly when q does
    (j = 1).  The `samples` random unit series alpha need no test, since
    they cannot change the verdict: once [q, M_W] = 0,
    A^{-1} alpha(M_W) A = alpha(q) commutes with M_W as well.  They are
    drawn from `rng` before q is checked, so `rng` advances by `samples`
    draws for every graded A.
    """
    if not A.is_graded():
        return False
    if samples:
        rng = rng or random.Random(0)
        for _ in range(samples):
            unit_series(A.field, A.order, rng)
    return is_appell(q_operator_matrix(A, W), W)


def witness_from_q(A, W):
    """The first (k, n), k >= 1, where q' = D^{-1} q D leaves the Toeplitz
    matrix of its column 0, q'[n][k] != q'[n-k][0]; None when q' is Toeplitz."""
    q, n_ord = q_operator_matrix(A, W), A.order

    def scaled(n, k):
        return q.entry(n, k) * W.w[k] * W.recip[n]

    for k in range(1, n_ord):
        for n in range(k + 1, n_ord):
            if scaled(n, k) != scaled(n - k, 0):
                return (k, n)
    return None


# -- inputs -------------------------------------------------------------------


@st.composite
def cases(draw):
    """(W, A, rng) over QQ, GF(2), GF(3), GF(1000003) at N = 2..14, with a
    weight of another order or field now and then."""
    p = draw(st.sampled_from([None, 2, 3, 1000003]))
    n = draw(st.integers(2, 14))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    field = Field(p)
    wkind = draw(st.sampled_from(["geometric", "random", "exponential"]))
    W = fixed_weight(wkind, field, n, rng)
    A = build_matrix(draw(st.sampled_from(KINDS)), W, rng)
    where = draw(st.sampled_from(["same"] * 8 + ["other-order", "other-field"]))
    if where == "other-order":
        W = fixed_weight(wkind, field, n + 1, rng)
    elif where == "other-field":
        W = fixed_weight(wkind, other(field), n, rng)
    return W, A, rng


def points(kind, W, rng):
    """None, or custom translation points where the field has N of them."""
    if kind is None or (W.field.p is not None and W.field.p < W.order):
        return None
    return sample_points(kind, W, rng)


# -- tests --------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(cases(), st.sampled_from([None, None, "distinct", "raw", "repeat", "short"]))
def test_commutation_matches_the_q_path(case, hs_kind):
    W, A, rng = case
    hs = points(hs_kind, W, rng)
    got = outcome(sheffer_by_commutation, A, W, hs)
    assert got == outcome(sheffer_by_commutation_reference, A, W, hs)


@settings(max_examples=400, deadline=None)
@given(cases(), st.sampled_from([0, 3]), st.integers(0, 2**32 - 1))
def test_normalizing_matches_the_q_path(case, samples, seed):
    W, A, _ = case
    mine, ref = random.Random(seed), random.Random(seed)
    got = outcome(is_normalizing, A, W, samples, mine)
    assert got == outcome(is_normalizing_reference, A, W, samples, ref)
    assert mine.getstate() == ref.getstate()


@settings(max_examples=300, deadline=None)
@given(cases())
def test_witness_is_where_q_leaves_toeplitz(case):
    W, A, _ = case
    assert outcome(_lowering_witness, A, W) == outcome(witness_from_q, A, W)


def _refuse(*args, **kwargs):
    raise AssertionError("the lowering-operator test consulted the column identity")


@settings(max_examples=100, deadline=None)
@given(cases())
def test_never_consults_the_column_identity(case):
    W, A, _ = case
    want = (outcome(sheffer_by_commutation_reference, A, W, None),
            outcome(is_normalizing_reference, A, W, 0, None))
    saved = [(m, name, getattr(m, name))
             for m in (riordan, operators, functionals)
             for name in ("is_riordan", "_beta_quotient", "_geometric_witness", "_geometric_walk")
             if hasattr(m, name)]
    try:
        for m, name, _ in saved:
            setattr(m, name, _refuse)
        got = (outcome(sheffer_by_commutation, A, W, None),
               outcome(is_normalizing, A, W, 0, None))
    finally:
        for m, name, f in saved:
            setattr(m, name, f)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([None, 2, 3, 1000003]), st.integers(2, 14),
       st.sampled_from(["geometric", "random", "exponential"]), st.integers(0, 2**32 - 1))
def test_t_is_the_compositional_inverse_of_beta(p, n, wkind, seed):
    # a third derivation of beta-bar: t comes from U alone, not from the
    # power table R_beta that riordan_inv solves on
    field, rng = Field(p), random.Random(seed)
    W = fixed_weight(wkind, field, n, rng)
    A = pair_to_matrix(pair(field, n, rng), W)
    solve, solved = operators._forward_substitute, []

    def spy(*args):
        solved.append(solve(*args))
        return solved[-1]

    operators._forward_substitute = spy
    try:
        assert _lowering_witness(A, W) is None
    finally:
        operators._forward_substitute = solve
    [((t, td),)] = solved  # t_1..t_{N-1} over td, as the solver returns them
    beta_bar = riordan_inv(matrix_to_pair(A, W)).beta
    assert [field.zero()] + _wrap(field, t, td) == list(beta_bar.coeffs)


def test_is_appell_stops_at_the_first_failing_column(QQ, rng, monkeypatch):
    W = Weight.exponential(QQ, 12, 1)
    A = pair_to_matrix(pair(QQ, 12, rng), W)  # beta != y: column 1 fails
    built, columns = [], operators._iter_unweighted_columns

    def counting(*args):
        for col in columns(*args):
            built.append(col)
            yield col

    monkeypatch.setattr(operators, "_iter_unweighted_columns", counting)
    assert not is_appell(A, W)
    assert len(built) == 2
