import argparse
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
from riordanlab import cli
from riordanlab.operators import CHECK_KINDS
from riordanlab.serialize import dumps
from riordanlab.twoweight import exp_case_weights

from support import call


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


def test_check_kinds_are_shared_by_cli_and_library(QQ):
    for kind in CHECK_KINDS:
        code, out, _ = run_cli("--order", "4", "check", "identity", "exp=1", kind)
        assert code == 0 and out.startswith(f"{kind}: true")
    code, out, err = run_cli("--order", "4", "check", "identity", "exp=1", "notakind")
    assert code == 2 and not out and len(err.strip().splitlines()) == 1 and "notakind" in err
    with pytest.raises(ValueError):
        check_report(TriMatrix.identity(QQ, 4), Weight.exponential(QQ, 4, 1), "notakind")


def test_exit_code_math_error():
    code, _, err = run_cli("--order", "6", "weight", "bad", "custom", "1,0,3")
    assert code == 3 and "w[1]" in err
    code, _, _ = run_cli("--order", "8", "--field", "mod:7", "weight", "e", "exp", "1")
    assert code == 3


def test_custom_weight_names_its_count_not_an_order():
    # one value cannot form a weight; it is a count error, not an order error
    for values in ("1", "0"):
        code, _, err = run_cli("--order", "6", "weight", "w", f"custom={values}")
        assert code == 2 and "custom takes 6 argument(s)" in err and "order" not in err
    code, _, err = run_cli("--order", "6", "weight", "w", "custom=1,0,3")
    assert code == 3 and "w[1]" in err


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


# A spec error of each kind of each family: the command, the word its one
# stderr line must name (the kind, or the bad argument where that is what the
# line quotes) and the exit code.  Inline and as line 5 of a script the exit
# code and the message agree.
SPEC_ERRORS = [
    ("weight w exp=1,2", "exp", 2),
    ("weight w geom", "geom", 2),
    ("weight w qfac=1", "qfac", 2),
    ("weight w expcase=1", "expcase", 2),
    ("weight w custom", "custom", 2),
    ("weight w nosuch=1", "nosuch", 2),
    ("weight w exp=x", "exp", 2),
    ("weight w geom=x", "geom", 2),
    ("weight w qfac=x,2", "qfac", 2),
    ("weight w expcase=1,x", "expcase", 2),
    ("weight w custom=1,x", "custom", 2),
    ("weight w geom=0", "lambda", 3),
    ("series s exp=1,2", "exp", 2),
    ("series s exp", "exp", 2),
    ("series s coeffs=1,1,1,1,1,1,1", "coeffs", 2),
    ("series s nosuch=1", "nosuch", 2),
    ("series s coeffs=1,x", "coeffs", 2),
    ("series s exp=x", "exp", 2),
    ("series s exp=1/0", "bad series spec 'exp=1/0': '1/0' has a zero denominator", 2),
    ("matrix m identity:x", "identity", 2),
    ("matrix m translation:exp=1", "translation", 2),
    ("matrix m appell:exp=1", "appell", 2),
    ("matrix m mw", "mw", 2),
    ("matrix m mw:a:b", "mw", 2),
    ("matrix m findiff:exp=1", "findiff", 2),
    ("matrix m pair:p", "pair", 2),
    ("matrix m nosuch:1", "nosuch", 2),
    ("matrix m translation:exp=1:x", "'x'", 2),
    ("matrix m translation:qfac=1:1", "weight spec 'qfac=1'", 2),
    ("matrix m findiff:exp=1:x", "'x'", 2),
    ("matrix m appell:coeffs=1,x:exp=1", "series spec 'coeffs=1,x'", 2),
    ("matrix m appell:coeffs=1:exp=x", "weight spec 'exp=x'", 2),
    ("matrix m mw:geom=x", "weight spec 'geom=x'", 2),
    ("matrix m pair:q:e", "'q'", 2),
    ("check m nosuch=1 appell", "'m'", 2),
    ("weight w custom=1,1,2", "custom takes 6 argument(s)", 2),
    ("matrix m translation:exp=1:y", "matrix spec 'translation:exp=1:y'", 2),
    ("matrix m translation:exp=1:3mod5", "'3mod5' does not belong to QQ", 3),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "s", "coeffs=1/0"],
        ["series", "s", "coeffs=abc"],
        ["--field", "mod:7", "series", "s", "coeffs=1/2"],
        ["check", "translation:exp=1", "exp=1", "sheffer"],
        ["check", "translation:exp=1:x", "exp=1", "sheffer"],
        *[line.split() for line, _, code in SPEC_ERRORS if code == 2],
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


@pytest.mark.parametrize("line", ['weight "e exp 1', "weight e exp 1 \\\\"])
def test_unsplittable_script_line_is_a_usage_error(line):
    code, out, err = run_cli("--order", "4", "run", stdin=f"weight w exp 1\n{line}\n")
    assert code == 2 and out.startswith("weight w:")
    assert err.startswith("error: line 2: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


PREAMBLE = "weight e exp 1\nseries a coeffs 1 1\nseries b coeffs 0 1\npair p a b\n"


@pytest.mark.parametrize("line, named, exit", SPEC_ERRORS)
def test_spec_error_names_its_kind_inline_and_in_a_script(line, named, exit):
    code, out, err = call(["--order", "6", *line.split()])
    assert code == exit and out == "" and len(err.splitlines()) == 1 and named in err
    prefix = "error: " if code == 2 else "math error: "
    assert err.startswith(prefix)
    got = call(["--order", "6", "run"], PREAMBLE + line + "\n")
    assert got[0] == code and got[2] == f"{prefix}line 5: {err[len(prefix):]}"


@pytest.mark.parametrize("first", range(4))
def test_show_searches_weights_series_pairs_then_matrices(first):
    # x is registered as each kind from `first` on; show finds the first of them
    defs = ["weight x exp 1", "series x coeffs 1 1", "pair x a b", "matrix x identity"]
    script = "series a coeffs 1 1\nseries b coeffs 0 1\n"
    script += "".join(d + "\n" for d in defs[first:]) + "show x\n"
    code, out, _ = call(["--order", "3", "--json", "run"], script)
    lines = out.splitlines()
    assert code == 0 and lines[-1] == lines[2]


# one session's calls: text and --json, two fields interleaved, both ends of
# --order and past them, a bad modulus and an unknown field, no command, an
# unknown command, --help, and a `run` script
SESSION = [
    (["--order", "6", "check", "translation:exp=1:1", "exp=1", "sheffer"], ""),
    (["--order", "6", "--field", "mod:1000003", "--json", "check", "mw:geom=1", "geom=1", "riordan"], ""),
    (["--order", "6", "--field", "rat", "--json", "polys", "translation:geom=2:1", "geom=2"], ""),
    (["--order", "5", "--field", "mod:1000003", "twoweight", "exp=1", "exp=1", "expcase=1/2,1"], ""),
    (["--order", "1", "show", "x"], ""),
    (["--order", "65", "--json", "show", "x"], ""),
    (["--order", "2", "--field", "mod:1000003", "weight", "e", "exp", "1"], ""),
    (["--order", "64", "--json", "series", "s", "coeffs", "1", "1"], ""),
    (["--field", "mod:4", "show", "x"], ""),
    (["--field", "foo", "--json", "show", "x"], ""),
    ([], ""),
    (["frobnicate", "x"], ""),
    (["--help"], ""),
    (["check", "--help"], ""),
    (["--order", "6", "check", "identity", "exp=1"], ""),
    (["--order", "4", "--json", "run"],
     "weight e exp 1\nseries s coeffs 1 1\nseries t coeffs 0 1\npair p s t\n"
     "matrix m pair p e\ncheck m e sheffer\ncheck m e binomial\nshow p\n"),
    (["--order", "4", "--field", "mod:1000003", "run"], "check identity exp=1 riordan\nshow nothing\n"),
]


def test_shared_parser_answers_as_a_fresh_one():
    fresh = []
    for argv, stdin in SESSION:
        cli._parser.cache_clear()
        fresh.append(call(argv, stdin))
    shared = [call(argv, stdin) for argv, stdin in SESSION]
    assert shared == fresh
    assert {code for code, _, _ in fresh} == {0, 1, 2, 3}


def test_parser_is_built_once_per_process(monkeypatch):
    # every parser one build makes (the top level and its subparsers) counts
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    one_build = None
    for i in range(20):
        argv, stdin = SESSION[i % len(SESSION)]
        call(argv, stdin)
        one_build = one_build or list(built)
    assert built == one_build and built.count("riordan") == 1
