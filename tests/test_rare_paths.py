"""Branches that the rest of the suite runs only in a child process or not
at all: each error with its type and message, the values of the rarely
taken returns, and a `run` script that reuses registered names, in this
process."""

import pytest

from riordanlab import Field, Series, TriMatrix
from riordanlab.errors import BackendMismatch, NotValuationOne, NotValuationZero
from riordanlab.functionals import Functional, check_geometric_dual, functional_apply
from riordanlab.riordan import RiordanPair, Weight, pair_to_matrix
from riordanlab.serialize import dumps
from riordanlab.triangular import Polynomial

from references import polys_output_reference
from support import S, call


QQ, F7 = Field(), Field(7)

# (what is called, the error type, its message)
ERRORS = [
    (lambda: QQ.scalar(1) + 1, BackendMismatch, "expected Scalar, got int"),
    (lambda: Field(1), ValueError, "modulus 1 is not prime"),
    (lambda: F7.scalar(0.5), BackendMismatch, "cannot coerce 0.5 into GF(7)"),
    (lambda: TriMatrix.identity(QQ, 3) @ 1, BackendMismatch, "expected TriMatrix, got int"),
    (lambda: RiordanPair(S(QQ, 3, 0, 1), S(QQ, 3, 0, 1)), NotValuationZero,
     "alpha must have valuation 0"),
    (lambda: RiordanPair(S(QQ, 3, 1), S(QQ, 3, 1)), NotValuationOne, "beta must have valuation 1"),
    (lambda: RiordanPair(S(QQ, 3, 1), S(F7, 3, 0, 1)), BackendMismatch,
     "alpha and beta must share field and order"),
    (lambda: RiordanPair(S(QQ, 3, 1), S(QQ, 4, 0, 1)), BackendMismatch,
     "alpha and beta must share field and order"),
    (lambda: functional_apply(Functional(QQ, [QQ.one()] * 3),
                              Polynomial.from_values(QQ, [0, 0, 0, 1]), Weight.exponential(QQ, 3, 1)),
     ValueError, "deg p = 3 >= order 3"),
]


@pytest.mark.parametrize("make, error, message", ERRORS)
def test_each_error_has_its_type_and_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error and str(info.value) == message


def test_rare_values():
    p = Polynomial.from_values(F7, [1, 2])
    assert p.coeff(1) == F7.scalar(2) and p.coeff(5) == F7.zero()
    assert hash(p) == hash(Polynomial.from_values(F7, [8, 9, 0]))
    assert F7.scalar(3) ** -2 == F7.scalar(4) and QQ.scalar(-2) ** -3 == QQ.scalar("-1/8")
    # phi_1 / phi_0 = 1 has valuation 0, so the family is not geometric
    phi = Functional.from_series(Series.from_values(QQ, 4, [1, 2]))
    assert check_geometric_dual([phi, phi]) is None


def test_a_script_reuses_registered_names():
    # matrix NAME OTHER and polys on a registered pair, after a blank line
    # and a comment, agree with the library
    script = ("\n# skipped\n   \nseries a coeffs 1 1\nseries b coeffs 0 1\npair p a b\n"
              "matrix m pair:p:exp=1\nmatrix n m\nshow n\npolys p exp=1\npolys m exp=1\n")
    code, out, err = call(["--order", "4", "--json", "run"], script)
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 8)
    A = pair_to_matrix(RiordanPair(S(QQ, 4, 1, 1), S(QQ, 4, 0, 1)), Weight.exponential(QQ, 4, 1))
    assert lines[3] == lines[4] == lines[5] == dumps(A.to_json())
    assert lines[6] == lines[7] == dumps(polys_output_reference(A)[1])
