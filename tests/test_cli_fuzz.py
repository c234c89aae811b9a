"""The CLI contract under random input: every argv and every `run` script
ends in exit 0, 1, 2 or 3 without an escaping exception or a traceback, and
in --json mode every line on stdout is JSON.

Inputs are drawn from a vocabulary of the grammar's own words (commands,
spec kinds, names, scalars) mixed with malformed ones (1/0, abc, stray
quotes, a trailing backslash, a residue of the wrong field)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from riordanlab import cli

from support import call

TOKENS = [
    *cli.COMMANDS, "run", "bogus", "e", "s", "p", "m", "q",
    "exp", "geom", "qfac", "expcase", "custom", "coeffs",
    "exp=1", "geom=2", "qfac=-1,2", "expcase=1/2,1", "custom=1,1,2", "custom=1,0,3",
    "coeffs=1,1,1/2", "coeffs=0,1", "coeffs=1/0", "coeffs=abc", "coeffs=3 mod 7",
    "identity", "translation:exp=1:1", "translation:e:2", "translation:exp=1",
    "appell:s:e", "appell:exp=1:exp=1", "mw:geom=1", "mw:e", "findiff:exp=1:1",
    "findiff:e:0", "pair:p:e", "pair:p", "identity:x",
    *cli.CHECK_KINDS, "0", "1", "-1", "2", "1/2", "1/0", "abc", "3 mod 7", "3", "mod", "7",
    '"', "'", '"e', "e'", "\\", "#", "",
]
# well-formed commands with inline specs, and script lines that go through
# the registry, so that calls reach the verdicts and the domain errors too
INLINE = [
    "weight e exp 1", "weight g geom 2", "weight q qfac -1 2", "series s coeffs 1 1 1/2",
    "matrix m translation:exp=1:1", "matrix m appell:coeffs=1,1:qfac=-1,2",
    "check translation:exp=1:1 exp=1 sheffer", "check appell:exp=1:geom=2 geom=2 appell",
    "check findiff:exp=1:1 exp=1 binomial", "check mw:geom=1 geom=1 riordan",
    "check translation:geom=1:1 geom=1 binomial", "polys translation:geom=2:1 geom=2",
    "twoweight exp=1 exp=1 expcase=1/2,1", "twoweight coeffs=1,1 geom=1 geom=2",
]
SCRIPT = INLINE + [
    "series t coeffs 0 1 1", "pair p s t", "matrix m pair p e", "matrix m translation:e:1",
    "check m e sheffer", "check m g riordan", "check m e binomial", "polys p e",
    "twoweight s e expcase=1/2,1", "show e", "show p",
]
FIELDS = ["rat", "mod:2", "mod:3", "mod:7", "mod:1000003"]


def options(order, field, json_mode):
    return ["--order", str(order), "--field", field] + (["--json"] if json_mode else [])


def check_contract(code, out, err, json_mode):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out + err
    if json_mode:
        for line in out.splitlines():
            json.loads(line)


ORDERS = st.integers(2, 8)
words = st.lists(st.sampled_from(TOKENS), max_size=6)


@st.composite
def command_lines(draw, templates):
    """Words of one command: a template, a template with one or two words
    replaced, or a command followed by random words."""
    shape = draw(st.sampled_from(["template", "template", "mutant", "random"]))
    if shape == "random":
        return [draw(st.sampled_from(list(cli.COMMANDS)))] + draw(words)
    line = draw(st.sampled_from(templates)).split()
    if shape == "mutant":
        for i in draw(st.lists(st.integers(0, len(line) - 1), min_size=1, max_size=2)):
            line[i] = draw(st.sampled_from(TOKENS))
    return line


@settings(max_examples=250, deadline=None)
@given(ORDERS, st.sampled_from(FIELDS), st.booleans(), command_lines(INLINE))
def test_random_argv_keeps_the_contract(order, field, json_mode, line):
    code, out, err = call(options(order, field, json_mode) + line)
    check_contract(code, out, err, json_mode)


@settings(max_examples=250, deadline=None)
@given(ORDERS, st.sampled_from(FIELDS), st.booleans(),
       st.lists(command_lines(SCRIPT), min_size=1, max_size=6))
def test_random_script_keeps_the_contract(order, field, json_mode, script):
    text = "".join(" ".join(line) + "\n" for line in script)
    code, out, err = call(options(order, field, json_mode) + ["run"], text)
    check_contract(code, out, err, json_mode)
