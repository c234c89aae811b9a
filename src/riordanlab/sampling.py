"""Random generators for property tests and experiment scripts.

All samplers take an explicit random.Random so corpora are reproducible.
Rational values are kept small; truncated arithmetic blows denominators
up quickly enough on its own.
"""

from __future__ import annotations

import random

from .riordan import RiordanPair, Weight, is_riordan, pair_to_matrix
from .scalars import Field, Scalar
from .series import Series
from .triangular import TriMatrix


def scalar(field: Field, rng: random.Random, nonzero: bool = False) -> Scalar:
    while True:
        if field.p is None:
            s = field.scalar(rng.randint(-6, 6)) / field.scalar(rng.randint(1, 4))
        else:
            s = field.scalar(rng.randrange(field.p))
        if s or not nonzero:
            return s


def series(field, order, rng, valuation=None) -> Series:
    """Random series; with `valuation` given, exactly that valuation."""
    coeffs = [scalar(field, rng) for _ in range(order)]
    if valuation is not None:
        for i in range(valuation):
            coeffs[i] = field.zero()
        coeffs[valuation] = scalar(field, rng, nonzero=True)
    return Series(field, coeffs)


def unit_series(field, order, rng) -> Series:
    return series(field, order, rng, valuation=0)


def substitution_series(field, order, rng) -> Series:
    return series(field, order, rng, valuation=1)


def riordan_pair(field, order, rng) -> RiordanPair:
    return RiordanPair(
        unit_series(field, order, rng), substitution_series(field, order, rng)
    )


def riordan_matrix(W: Weight, rng) -> TriMatrix:
    """A matrix with exactly geometric weighted columns."""
    return pair_to_matrix(riordan_pair(W.field, W.order, rng), W)


def graded_matrix(field, order, rng) -> TriMatrix:
    rows = []
    for n in range(order):
        row = [scalar(field, rng) for _ in range(n)]
        row.append(scalar(field, rng, nonzero=True))
        rows.append(row)
    return TriMatrix(field, rows)


def perturbed_non_riordan(W: Weight, rng) -> TriMatrix:
    """A graded matrix that provably is not Riordan for W.

    Starts from a random Riordan matrix and bumps one entry (n, k) below the
    diagonal with n + k <= N - 2, retrying until the membership check
    rejects.  Raises ValueError below order 4, where that region holds at
    most a_{1,0}, and a matrix bumped there is still Riordan.
    """
    order = W.order
    if order < 4:
        raise ValueError(f"order {order} < 4: its bumps below the diagonal stay Riordan")
    while True:
        a = riordan_matrix(W, rng)
        n = rng.randint(1, order - 2)
        k = rng.randint(0, min(n - 1, order - 2 - n))
        rows = [list(r) for r in a.rows]
        rows[n][k] = rows[n][k] + scalar(W.field, rng, nonzero=True)
        candidate = TriMatrix(W.field, rows)
        if candidate.is_graded() and not is_riordan(candidate, W):
            return candidate


def degree_decreasing_matrix(field, order, rng) -> TriMatrix:
    rows = [[field.zero()] * (n + 1) for n in range(order)]
    for n in range(1, order):
        for k in range(n - 1):
            rows[n][k] = scalar(field, rng)
        rows[n][n - 1] = scalar(field, rng, nonzero=True)
    return TriMatrix(field, rows)


def weight(field, order, rng) -> Weight:
    return Weight(
        field,
        [field.one()] + [scalar(field, rng, nonzero=True) for _ in range(order - 1)],
    )


def functional_values(field, order, rng):
    return [scalar(field, rng) for _ in range(order)]
