"""One conjugation kernel by D = diag(w), against the code it replaces.

riordan._conjugated_columns yields the raw columns of diag(left) R
diag(right): with (1/w, w) they are the columns of U = D^{-1} A D
(_iter_unweighted_columns), with (w, 1/w) those of D R D^{-1}
(_weighted_matrix), and finite_difference_matrix is D T D^{-1} for the
Toeplitz T of W(ay) - 1.  The forward substitution takes integer rows, and
Series.invert and / pass the divisor over one denominator.  Weight keeps
w and 1/w as two Series, which the kernel reads raw, and Functional keeps
its values as a Series.  The references (tests/references.py) are the
replaced code, kept verbatim.  Raw columns are in reduced form, which is
unique, so they must be list-equal; errors must agree in type and
message; the finite difference must agree in rows, ==, hash and JSON
bytes and hold no Scalar row once built; weights and functionals must
agree in their values, series, ==, hash, repr and JSON bytes, and so must
the results of the functional operations, a kernel-built functional
holding no Scalar until its values are read.  A functional of a bad order
now raises at construction the error its reference raised on its first
series.  All over QQ, GF(2), GF(7) and GF(1000003) at N = 2..16, and once
per field at N = 64.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series, TriMatrix
from riordanlab.functionals import (
    Functional,
    _after_operator,
    check_geometric_dual,
    dual_basis,
    functional_mul,
    functional_of_operator,
    functional_power,
)
from riordanlab.operators import appell_from_alpha, finite_difference_matrix, translation_matrix
from riordanlab.riordan import (
    Weight,
    _iter_unweighted_columns,
    _toeplitz_columns,
    _unweighted_columns,
    _weighted_matrix,
    pair_to_matrix,
    riordan_inv,
)
from riordanlab.sampling import (
    functional_values, graded_matrix, riordan_pair, scalar, series, unit_series, weight,
)
from riordanlab.serialize import dumps
from riordanlab.series import _geometric_columns, _over_common_denominator

from references import (
    FunctionalReference,
    WeightReference,
    after_operator_raw_reference,
    check_geometric_dual_reference,
    dual_basis_reference,
    finite_difference_matrix_reference,
    functional_mul_reference,
    functional_of_operator_reference,
    functional_power_reference,
    invert_reference,
    iter_unweighted_columns_reference,
    riordan_inv_reference,
    truediv_reference,
    weighted_matrix_reference,
)
from support import FIELDS, gf7_cases, outcome


def other(field):
    return Field(7) if field.p is None else Field()


def matrix(field, n, rng):
    """A kernel-built Riordan matrix, a row-built graded one, or a row-built
    one with a vanishing diagonal entry."""
    kind = rng.choice(["pair", "graded", "singular"])
    if kind == "pair":
        return pair_to_matrix(riordan_pair(field, n, rng), weight(field, n, rng))
    A = graded_matrix(field, n, rng)
    if kind == "singular":
        rows = [list(r) for r in A.rows]
        k = rng.randrange(n)
        rows[k][k] = field.zero()
        A = TriMatrix(field, rows)
    return A


def ordinary_columns(field, n, rng):
    """Raw columns of an ordinary R as the callers of _weighted_matrix pass
    them: geometric (unreduced denominators), Toeplitz, or the columns of U."""
    kind = rng.choice(["geometric", "toeplitz", "unweighted"])
    c, d = _over_common_denominator(field, series(field, n, rng).coeffs)
    if kind == "geometric":
        return list(_geometric_columns(c, d, riordan_pair(field, n, rng).beta))
    if kind == "toeplitz":
        return _toeplitz_columns(c, d)
    return _unweighted_columns(matrix(field, n, rng), weight(field, n, rng))


def unweighted(iterate, A, W):
    return list(iterate(A, W))


def check_unweighted(field, n, rng):
    A = matrix(field, n, rng)
    where = rng.choice(["same", "same", "same", "other-order", "other-field"])
    m = n + 1 if where == "other-order" and n < 64 else n
    W = weight(other(field) if where == "other-field" else field, m, rng)
    want = outcome(unweighted, iter_unweighted_columns_reference, A, W)
    assert outcome(unweighted, _iter_unweighted_columns, A, W) == want
    assert outcome(_unweighted_columns, A, W) == want


def check_weighted(field, n, rng):
    cols, W = ordinary_columns(field, n, rng), weight(field, n, rng)
    assert _weighted_matrix(W, iter(cols))._cols == weighted_matrix_reference(W, cols)._cols


def check_finite_difference(field, n, rng):
    W = weight(field, n, rng)
    a = rng.choice([scalar(field, rng, nonzero=True)] * 3 + [
        field.zero(), scalar(other(field), rng, nonzero=True), "x"])
    got = outcome(finite_difference_matrix, W, a)
    want = outcome(finite_difference_matrix_reference, W, a)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got._rows is None
    assert got._cols[-1] == ([0] * n, 1)
    assert got == want and want == got
    assert got.rows == want.rows
    assert hash(got) == hash(want)
    assert dumps(got.to_json()) == dumps(want.to_json())


def check_divisions(field, n, rng):
    s, t = series(field, n, rng), series(field, n, rng)
    if rng.random() < 0.7:  # most divisors are units
        t = t + Series.one(field, n) if not t.coeffs[0] else t
    assert outcome(Series.invert, t) == outcome(invert_reference, t)
    assert outcome(Series.__truediv__, s, t) == outcome(truediv_reference, s, t)
    a = riordan_pair(field, n, rng)
    assert riordan_inv(a) == riordan_inv_reference(a)


def weight_values(field, n, rng):
    """The values of a weight of order n, or of one with a zero entry,
    w_0 != 1, a foreign scalar or a bad order; Scalars, or ints."""
    kind = rng.choice(["scalars", "scalars", "scalars", "ints", "zero", "w0", "foreign", "order"])
    if kind == "ints":
        return [1] + [rng.choice([-3, -1, 2, 5]) for _ in range(n - 1)]
    ws = [field.one()] + [scalar(field, rng, nonzero=True) for _ in range(n - 1)]
    if kind == "zero":
        ws[rng.randrange(1, n)] = field.zero()
    elif kind == "w0":
        ws[0] = rng.choice([field.zero(), field.one() + field.one(), scalar(field, rng)])
    elif kind == "foreign":
        ws[rng.randrange(n)] = scalar(other(field), rng, nonzero=True)
    elif kind == "order":
        ws = rng.choice([ws[:1], ws + [field.one()] * (65 - n)])
    return ws


def check_weight(field, n, rng):
    values = weight_values(field, n, rng)
    got, want = outcome(Weight, field, values), outcome(WeightReference, field, values)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.field == want.field and got.order == want.order
    assert got.w == want.w and got.recip == want.recip
    assert got.series() == want.series() and got.series() is got.series()
    assert repr(got) == repr(want) and dumps(got.to_json()) == dumps(want.to_json())
    twin = Weight.from_json(field, want.to_json())  # equal, built from text
    assert got == twin and hash(got) == hash(twin)
    more = values if rng.random() < 0.3 else weight_values(field, n, rng)
    theirs, ours = outcome(WeightReference, field, more), outcome(Weight, field, more)
    if not isinstance(theirs, tuple):
        assert (got == ours) == (want == theirs) and (ours == got) == (theirs == want)
        assert got != want  # no Weight equals a reference
        if got == ours:
            assert hash(got) == hash(ours)


def reference(f):
    """The reference functional of the values of f."""
    return FunctionalReference(f.field, f.values)


def agree(got, want):
    """A result of the code under test against the reference's: functionals
    in values, series, ==, hash, repr and JSON bytes, lists and pairs of
    them entrywise, anything else (errors, None) by ==."""
    if isinstance(want, (list, tuple)) and want and isinstance(want[0], FunctionalReference):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            agree(g, w)
    elif isinstance(want, FunctionalReference):
        assert isinstance(got, Functional) and got.field == want.field
        assert got.order == want.order and got.values == want.values
        assert got.series() == want.series() and got.valuation() == want.valuation()
        assert repr(got) == repr(want) and dumps(got.to_json()) == dumps(want.to_json())
        twin = Functional(want.field, want.values)
        assert got == twin and twin == got and hash(got) == hash(twin)
    else:
        assert got == want


def built_raw(result):
    """A kernel-built functional, or each of a list of them, holds no Scalar yet."""
    for f in result if isinstance(result, list) else [result]:
        assert f.series()._coeffs is None


def functional_values_of(field, n, rng):
    """The values of a functional of order n, or of one with a foreign value
    or a bad order."""
    values = functional_values(field, n, rng)
    kind = rng.choice(["same"] * 6 + ["foreign", "order"])
    if kind == "foreign":
        values[rng.randrange(n)] = scalar(other(field), rng, nonzero=True)
    elif kind == "order":
        values = rng.choice([values[:1], values + [field.zero()] * (65 - n)])
    return values


def check_functional(field, n, rng):
    values = functional_values_of(field, n, rng)
    got, want = outcome(Functional, field, values), outcome(FunctionalReference, field, values)
    if not 2 <= len(values) <= 64 and not isinstance(want, tuple):
        want = outcome(FunctionalReference.series, want)  # the reference raised it later
    agree(got, want)
    if isinstance(got, tuple):
        return
    phi, psi = got, Functional(field, functional_values(field, n, rng))
    if rng.random() < 0.2:  # of another field, or of another order
        psi = rng.choice([Functional(other(field), functional_values(other(field), n, rng)),
                          Functional(field, functional_values(field, 2 if n > 2 else 3, rng))])
    product = outcome(functional_mul, phi, psi)
    if isinstance(product, Functional):
        built_raw(product)
    agree(product, outcome(functional_mul_reference, reference(phi), reference(psi)))
    r = rng.randint(-1, 4)
    agree(outcome(functional_power, phi, r), outcome(functional_power_reference, reference(phi), r))


def check_functional_operations(field, n, rng):
    W = weight(field, n, rng)
    A = matrix(field, n, rng)
    where = rng.choice(["same"] * 4 + ["other-order", "other-field"])
    if where != "same":
        W = weight(other(field) if where == "other-field" else field, n + 1 if n < 64 else n - 1, rng)
    fs = [Functional(field, functional_values(field, n, rng)) for _ in range(rng.randint(0, 3))]
    got = outcome(_after_operator, A, W, *fs)
    if isinstance(got, list):
        built_raw(got)
    agree(got, outcome(after_operator_raw_reference, A, W, *[reference(f) for f in fs]))
    S = A if where != "same" or rng.random() < 0.3 else rng.choice(
        [translation_matrix(W, scalar(field, rng)), appell_from_alpha(unit_series(field, n, rng), W)])
    got = outcome(functional_of_operator, S, W)
    if isinstance(got, Functional):
        built_raw(got)
    agree(got, outcome(functional_of_operator_reference, S, W))
    got = outcome(dual_basis, A, W)
    if isinstance(got, list):
        built_raw(got)
    agree(got, outcome(dual_basis_reference, A, W))
    if isinstance(got, list):
        phis = rng.choice([got, got, got[1:], got[:1]])
        agree(outcome(check_geometric_dual, phis),
              outcome(check_geometric_dual_reference, [reference(f) for f in phis]))


CHECKS = [check_unweighted, check_weighted, check_finite_difference, check_divisions,
          check_weight, check_functional, check_functional_operations]


@settings(max_examples=700, deadline=None)
@given(gf7_cases(), st.sampled_from(CHECKS))
def test_one_kernel_matches_the_replaced_code(case, check):
    check(*case)


def test_the_largest_order_once_per_field():
    rng = random.Random(64)
    for p in FIELDS:
        for check in CHECKS:
            check(Field(p), 64, rng)
