import json
import subprocess
import sys

import pytest

from riordanlab import (
    Field,
    Series,
    TriMatrix,
    Weight,
    check_report,
    classify_membership,
    translation_matrix,
)
from riordanlab.serialize import dumps
from riordanlab.twoweight import exp_case_weights


def run_cli(*args, stdin=None):
    proc = subprocess.run(
        [sys.executable, "-m", "riordanlab.cli", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_check_json_is_byte_identical_to_library():
    code, out, _ = run_cli("--order", "6", "--json", "check", "translation:exp=1:1", "exp=1", "appell")
    QQ = Field()
    w = Weight.exponential(QQ, 6, 1)
    expected = dumps(check_report(translation_matrix(w, 1), w, "appell"))
    assert out == expected + "\n"
    assert code == 0


def test_twoweight_json_is_byte_identical_to_library():
    code, out, _ = run_cli("--order", "8", "--json", "twoweight", "exp=1", "exp=1", "expcase=1/2,1")
    QQ = Field()
    w = Weight.exponential(QQ, 8, 1)
    w2 = exp_case_weights(QQ, 8, "1/2", 1)
    from riordanlab.scalars import factorial_inv

    alpha = Series(QQ, [factorial_inv(QQ, l) for l in range(8)])
    expected = dumps(classify_membership(alpha, w, w2).to_json())
    assert out == expected + "\n"
    assert code == 0


def test_weight_json_roundtrip():
    code, out, _ = run_cli("--order", "5", "--json", "weight", "q", "qfac", "-1", "2")
    assert code == 0
    QQ = Field()
    assert Weight.from_json(QQ, json.loads(out)) == Weight.q_factorial(QQ, 5, -1, 2)


def test_matrix_json_roundtrip():
    code, out, _ = run_cli("--order", "5", "--json", "matrix", "t", "translation:geom=1:1")
    assert code == 0
    QQ = Field()
    assert TriMatrix.from_json(QQ, json.loads(out)) == translation_matrix(
        Weight.geometric(QQ, 5, 1), 1
    )


def test_series_json_roundtrip():
    code, out, _ = run_cli("--order", "4", "--json", "series", "s", "coeffs", "1", "1/2")
    assert code == 0
    QQ = Field()
    assert Series.from_json(QQ, json.loads(out)) == Series.from_values(QQ, 4, [1, "1/2"])


def test_exit_code_verdict_false():
    code, out, _ = run_cli("--order", "6", "check", "translation:geom=1:1", "geom=1", "binomial")
    assert code == 1
    assert "false" in out


def test_exit_code_usage_error():
    code, _, err = run_cli("--order", "6", "check", "nosuch", "exp=1", "appell")
    assert code == 2 and "nosuch" in err
    code, _, _ = run_cli("--order", "6", "check", "identity", "exp=1", "notakind")
    assert code == 2
    code, _, _ = run_cli("--order", "99", "weight", "e", "exp", "1")
    assert code == 2


def test_exit_code_math_error():
    code, _, err = run_cli("--order", "6", "weight", "bad", "custom", "1,0,3")
    assert code == 3 and "w[1]" in err
    code, _, _ = run_cli("--order", "8", "--field", "mod:7", "weight", "e", "exp", "1")
    assert code == 3


def test_run_script_with_registry():
    script = """\
# define, then classify
weight e exp 1
series a coeffs 1 1 1/2 1/6
pair p a coeffs=0,1
matrix m pair p e
polys p e
check m e sheffer
"""
    code, out, _ = run_cli("--order", "4", "run", stdin=script)
    assert code == 0
    assert "sheffer: true" in out
    assert "p_1 = x + 1" in out  # rows of the registered pair's matrix


def test_identity_is_binomial_everywhere():
    for wspec in ("exp=1", "geom=1", "qfac=-1,2"):
        code, out, _ = run_cli("--order", "5", "check", "identity", wspec, "binomial")
        assert code == 0 and "binomial: true" in out


def test_run_script_error_carries_line_number():
    code, _, err = run_cli("--order", "4", "run", stdin="weight e exp 1\ncheck m e sheffer\n")
    assert code == 2 and "line 2" in err


def test_run_script_verdict_false_exit():
    script = "weight g geom 1\ncheck translation:geom=1:1 g binomial\n"
    code, out, _ = run_cli("--order", "6", "run", stdin=script)
    assert code == 1


def test_polys_table_text():
    code, out, _ = run_cli("--order", "4", "polys", "translation:exp=1:1", "exp=1")
    assert code == 0
    assert out.splitlines() == [
        "p_0 = 1",
        "p_1 = x + 1",
        "p_2 = x^2 + 2*x + 1",
        "p_3 = x^3 + 3*x^2 + 3*x + 1",
    ]


def test_mod_field_session():
    code, out, _ = run_cli(
        "--order", "5", "--field", "mod:11", "--json", "check", "translation:geom=2:3", "geom=2", "sheffer"
    )
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert "mod 11" in report["alpha"][0]


def test_show_command():
    script = "weight e exp 1\nshow e\n"
    code, out, _ = run_cli("--order", "4", "--json", "run", stdin=script)
    assert code == 0
    last = json.loads(out.splitlines()[-1])
    assert last == {"w": ["1", "1", "2", "6"]}


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "s", "coeffs=1/0"],
        ["series", "s", "coeffs=abc"],
        ["--field", "mod:7", "series", "s", "coeffs=1/2"],
        ["check", "translation:exp=1", "exp=1", "sheffer"],
        ["check", "translation:exp=1:x", "exp=1", "sheffer"],
    ],
)
def test_bad_spec_is_a_one_line_usage_error(argv):
    code, _, err = run_cli("--order", "6", *argv)
    assert code == 2
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("field", ["rat", "mod:7"])
@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", "nan"])
def test_scalar_outside_the_grammar_is_a_usage_error(field, text):
    code, out, err = run_cli("--order", "4", "--field", field, "series", "s", f"coeffs={text},1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_prime_modulus_up_to_the_primality_bound():
    code, out, _ = run_cli(
        "--order", "6", "--field", "mod:2305843009213693951", "check", "translation:geom=2:3", "geom=2", "sheffer"
    )
    assert code == 0 and "sheffer: true" in out
    code, _, err = run_cli("--field", "mod:3317044064679887385961981", "weight", "w", "exp", "1")
    assert code == 2 and "primality bound" in err and "Traceback" not in err
