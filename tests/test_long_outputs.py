"""The CLI prints outputs of any length and reads inputs of at most 4300 digits.

Python refuses to convert an int of more than sys.get_int_max_str_digits()
digits (4300 by default) to or from text.  An order-64 call on a long
number builds outputs far past that: h^63 / 63! for a 100-digit h has about
6300 digits.  Each such call prints its full exact output and exits by its
verdict, an input number past the default limit is still a usage error,
and the limit reads the same after cli.main returns, whatever the exit.
"""

import re
import sys

import pytest

from riordanlab import Field, Series, Weight, check_report, translation_matrix
from riordanlab.serialize import dumps

from references import polys_output_reference
from support import call, unlimited_digits


N = 64
H100 = "9" * 100
H80 = "9" * 80


def _series_exp():
    s = Series.exp(Field(), N, int(H100))
    return [f"series s: [{', '.join(map(str, s.coeffs))}]"], s.to_json()


def _translation():
    W = Weight.exponential(Field(), N, 1)
    return W, translation_matrix(W, Field().scalar(int(H80)))


def _check():
    W, T = _translation()
    report = check_report(T, W, "appell")
    return ["appell: true", f"alpha = [{', '.join(report['alpha'])}]",
            f"beta  = [{', '.join(report['beta'])}]"], report


def _polys():
    return polys_output_reference(_translation()[1])


def _matrix():
    return ["matrix m: order 64"], _translation()[1].to_json()


# (argv after the options, the expected (text lines, JSON object), the modes
# whose output holds a long number); the verdict of each is true: exit 0
LONG_OUTPUTS = [
    (["series", "s", f"exp={H100}"], _series_exp, [False, True]),
    (["check", f"translation:exp=1:{H80}", "exp=1", "appell"], _check, [False, True]),
    (["polys", f"translation:exp=1:{H80}", "exp=1"], _polys, [False, True]),
    (["matrix", "m", f"translation:exp=1:{H80}"], _matrix, [True]),
]


@pytest.mark.parametrize("argv, expected, json_mode", [
    pytest.param(argv, expected, json_mode, id=f"{argv[0]}-{'json' if json_mode else 'text'}")
    for argv, expected, modes in LONG_OUTPUTS for json_mode in modes
])
def test_a_long_output_prints_in_full(argv, expected, json_mode):
    limit = sys.get_int_max_str_digits()
    code, out, err = call(["--order", str(N), *(["--json"] if json_mode else []), *argv])
    assert sys.get_int_max_str_digits() == limit
    with unlimited_digits():
        lines, obj = expected()
        want = dumps(obj) + "\n" if json_mode else "".join(line + "\n" for line in lines)
    assert max(map(len, re.findall("[0-9]+", want))) > 4300
    assert (code, err) == (0, "") and out == want


def test_an_input_past_the_default_limit_is_a_usage_error():
    h = "9" * 5000
    limit = sys.get_int_max_str_digits()
    code, out, err = call(["--order", str(N), "series", "s", f"exp={h}"])
    assert sys.get_int_max_str_digits() == limit
    assert (code, out) == (2, "")
    assert err == (
        f"error: bad series spec 'exp={h}': Exceeds the limit (4300 digits) for integer string "
        "conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit\n"
    )


@pytest.mark.parametrize("argv, stdin, exit", [
    (["weight", "w", "exp", "1"], "", 0),
    (["check", "translation:exp=1:1", "geom=2", "appell"], "", 1),
    (["weight", "w", "nosuch=1"], "", 2),
    (["weight", "w", "geom=0"], "", 3),
    (["run"], "weight w exp 1\nseries s exp=x\n", 2),
    (["--order", "99", "weight", "w", "exp", "1"], "", 2),
])
def test_the_digit_limit_reads_the_same_after_every_exit(argv, stdin, exit):
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert call(["--order", "6", *argv], stdin)[0] == exit
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)
