"""GF(p) products on packed 64-bit slots, against the dot-product loops.

When n (p - 1)^2 < 2^64, no sum of n products of residues mod p overflows
an unsigned 64-bit slot, so series._convolve packs each operand into one
integer, multiplies once and unpacks the low n slots; otherwise it keeps
the dot products of tests/references.convolve_reference, the code it
replaced, kept verbatim.  Both must agree for lengths 1..64 over GF(2),
GF(3) and GF(1000003); at p = 536870909, the largest prime with
64 (p - 1)^2 < 2^64, where all-(p - 1) operands of length 64 fill a slot
as far as it goes; at p = 536870923, where length 64 falls back and
shorter lengths still pack; at p = 2^61 - 1, which never packs; and over
QQ, which never packs.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import Field, Series
from riordanlab.scalars import Scalar, _Q
from riordanlab.series import _convolve, _packs

from references import convolve_reference

EDGE = 536870909  # the largest prime with 64 (p - 1)^2 < 2^64
PAST_EDGE = 536870923  # the next prime: 63 (p - 1)^2 < 2^64 <= 64 (p - 1)^2
PRIMES = [2, 3, 1000003, EDGE, PAST_EDGE, 2**61 - 1]


@st.composite
def operands(draw):
    """(p, a, b): p one of PRIMES or None for QQ, and two equal-length lists
    of residues mod p (signed integers over QQ), each all zeros, all p - 1,
    random, or each entry one of 0, 1, p - 1 or random."""
    p = draw(st.sampled_from(PRIMES + [None]))
    n = draw(st.one_of(st.integers(1, 4), st.integers(1, 64), st.just(64)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = 2**200 if p is None else p - 1

    def vector():
        kind = draw(st.sampled_from(["zero", "top", "random", "mixed"]))
        if kind == "zero":
            return [0] * n
        if kind == "top":
            return [top] * n
        entry = (lambda: rng.randint(-top, top)) if p is None else (lambda: rng.randint(0, top))
        if kind == "random":
            return [entry() for _ in range(n)]
        return [rng.choice([0, 1, top, entry()]) for _ in range(n)]

    return p, vector(), vector()


@settings(max_examples=400, deadline=None)
@given(operands())
def test_convolve_matches_the_loop(case):
    p, a, b = case
    assert _convolve(a, b, p) == convolve_reference(a, b, p)


@settings(max_examples=100, deadline=None)
@given(operands())
def test_series_product_matches_the_loop(case):
    p, a, b = case
    if len(a) < 2:
        a, b = a * 2, b * 2
    field = Field(p)
    s, t = (Series(field, [Scalar(_Q(v), p) if p is None else Scalar(v, p) for v in x])
            for x in (a, b))
    want = convolve_reference(a, b, p)
    assert [c.val for c in (s * t).coeffs] == want


def test_slots_filled_as_far_as_they_go():
    for p in PRIMES:
        for n in (1, 2, 63, 64):
            a = [p - 1] * n
            assert _convolve(a, a, p) == convolve_reference(a, a, p)


def test_the_packed_lengths():
    assert _packs(64, EDGE) and not _packs(64, PAST_EDGE) and _packs(63, PAST_EDGE)
    assert _packs(64, 1000003) and _packs(64, 2) and _packs(1, 2**32)
    assert not _packs(1, 2**61 - 1) and not _packs(1, 2**32 + 1) and not _packs(64, None)


def test_the_bound_is_strict():
    # (p - 1)^2 = 2^64 exactly at the modulus 2^32 + 1, which is no prime
    # (641 * 6700417) but reduces like one: a packed product would carry
    # out of its slot and read 0, where the true residue is 1
    m = 2**32 + 1
    assert _convolve([m - 1], [m - 1], m) == convolve_reference([m - 1], [m - 1], m) == [1]
