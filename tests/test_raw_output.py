"""The output read off the raw form, byte for byte against the Scalar path.

to_json and repr of Series, Weight, Functional, RiordanPair, TriMatrix and
HPolyMatrix, check_report's alpha and beta, Polynomial.__str__, and the
polys lines and JSON rows are formatted straight from the raw (ints, den)
form (series._texts, triangular._poly_text).  Each is compared with the
formatter that read the Scalar view (tests/references.py), on objects
built by the user and by a kernel: over QQ with negative values, zeros,
den 1 and den > 1 and numerators of 1000+ bits, and over GF(2), GF(7),
GF(1000003) and GF(2^61 - 1), at N in {2, 3, 4, 7, 16, 64}, all-zero rows
and parenthesized residues included.  The new output builds no Scalar.

The CLI builds only the output of its mode: text mode calls no to_json,
--json mode no __repr__, Polynomial.__str__ or _poly_text, and the output
step builds no Scalar.
"""

import contextlib
import io
import json
import random
import sys
from unittest import mock

import pytest

from riordanlab import Field, Series, TriMatrix, cli, triangular
from riordanlab.errors import BackendMismatch
from riordanlab.functionals import Functional, functional_mul
from riordanlab.operators import (
    HPolyMatrix, check_report, d_polynomials, finite_difference_matrix, translation_matrix,
)
from riordanlab.riordan import (
    RiordanPair, Weight, matrix_to_pair, pair_to_matrix, riordan_inv, riordan_mul,
)
from riordanlab.scalars import Scalar, _Q
from riordanlab.triangular import Polynomial
from riordanlab.twoweight import GammaSeq, TwoWeightReport

from references import (
    functional_repr_reference, functional_to_json_reference, hpoly_to_json_reference,
    pair_repr_reference, pair_to_json_reference, polynomial_str_reference,
    polys_output_reference, series_repr_reference, series_to_json_reference,
    trimatrix_to_json_reference, weight_repr_reference, weight_to_json_reference,
)

PRIMES = [None, 2, 7, 1000003, 2**61 - 1]
ORDERS = [2, 3, 4, 7, 16, 64]
CASES = [(p, n) for p in PRIMES for n in ORDERS]

REFERENCES = {  # type: (to_json reference, repr reference or None)
    Series: (series_to_json_reference, series_repr_reference),
    Weight: (weight_to_json_reference, weight_repr_reference),
    Functional: (functional_to_json_reference, functional_repr_reference),
    RiordanPair: (pair_to_json_reference, pair_repr_reference),
    TriMatrix: (trimatrix_to_json_reference, None),  # its repr prints no entry
    HPolyMatrix: (hpoly_to_json_reference, None),
}


@contextlib.contextmanager
def scalars_built():
    """A list that holds one entry per Scalar built inside the block."""
    with mock.patch.object(Scalar, "__init__", autospec=True,
                           side_effect=Scalar.__init__) as built:
        made = []
        yield made
        made.extend(built.call_args_list)


def value(field, rng, big=True):
    """A zero, a small integer, a signed fraction or, when big, a 1000+ bit
    numerator over QQ; a zero, 1 or any residue over GF(p)."""
    kind = rng.randrange(5 if big else 3)
    if field.p is not None:
        return field.scalar([0, 1, rng.randrange(field.p)][min(kind, 2)])
    if kind == 0:
        return field.zero()
    if kind == 1:
        return field.scalar(rng.randint(-9, 9))
    if kind == 2:
        return Scalar(_Q(rng.randint(-40, 40), rng.randint(1, 36)))
    top = (rng.getrandbits(1100) | 1 << 1099) * rng.choice((-1, 1))
    return Scalar(_Q(top, rng.randint(1, 10**6) if kind == 3 else 1))


def nonzero(field, rng, big=True):
    while True:
        v = value(field, rng, big)
        if v:
            return v


def values(field, n, rng, integers=False, big=True):
    vals = [value(field, rng, big) for _ in range(n)]
    return [field.scalar(v.val.numerator) for v in vals] if integers and field.p is None else vals


def series(field, n, rng, valuation=None, big=True):
    """A series of values (integers alone in a quarter of the draws) with
    the given valuation, if any."""
    vals = values(field, n, rng, rng.random() < 0.25, big)
    if valuation is not None:
        vals[:valuation] = [field.zero()] * valuation
        vals[valuation] = nonzero(field, rng, big)
    return Series(field, vals)


def user_objects(field, n, rng):
    """Objects built from the Scalars a caller gives, all-zero rows included."""
    rows = [values(field, k + 1, rng) for k in range(n)]
    zero_row = rng.randrange(n)
    rows[zero_row] = [field.zero()] * (zero_row + 1)
    rows[n - 1] = [field.zero()] * n  # the last row all zero too
    slots = [[values(field, rng.randint(0, n - k), rng) for k in range(m + 1)] for m in range(n)]
    return [
        series(field, n, rng),
        Series(field, [field.zero()] * n),
        Weight(field, [field.one()] + [nonzero(field, rng) for _ in range(n - 1)]),
        Functional(field, values(field, n, rng)),
        RiordanPair(series(field, n, rng, 0), series(field, n, rng, 1)),
        TriMatrix(field, rows),
        TriMatrix.zero(field, n),
        HPolyMatrix(field, slots),
    ]


def kernel_objects(field, n, rng):
    """Objects that kernels build in raw form, with no Scalar view yet; on
    1000+ bit inputs up to N = 4, as the entries of A.inverse() or
    d_polynomials(A, W) grow by many times as many bits, and str() of an int
    takes at most 4300 digits."""
    big = n <= 4
    W = Weight.geometric(field, n, nonzero(field, rng, big))
    a, b = [RiordanPair(series(field, n, rng, 0, big), series(field, n, rng, 1, big))
            for _ in range(2)]
    A = pair_to_matrix(a, W)
    out = [
        a.alpha * b.alpha,
        a.alpha.invert(),
        a.alpha * Series.zero(field, n),
        W,
        W.rescale(nonzero(field, rng, big)),
        functional_mul(Functional(field, a.alpha.coeffs), Functional(field, b.beta.coeffs)),
        riordan_mul(a, b),
        riordan_inv(a),
        A,
        A @ pair_to_matrix(b, W),
        A.inverse(),
        finite_difference_matrix(W, nonzero(field, rng, big)),  # row 0 all zero
        d_polynomials(A, W) if n <= 16 or field.p is not None else None,
    ]
    if field.p is None or n <= field.p:
        out += [Series.exp(field, n, nonzero(field, rng, big)), Weight.exponential(field, n, 1)]
    return [x for x in out if x is not None]


def assert_matches_the_scalar_path(obj):
    """to_json and repr of obj equal the Scalar-path references, bytes
    included, and the new output builds no Scalar."""
    to_json_ref, repr_ref = REFERENCES[type(obj)]
    with scalars_built() as made:
        got, shown = obj.to_json(), repr(obj)  # before a reference builds the view
    assert made == [], type(obj).__name__
    assert got == to_json_ref(obj)
    assert json.dumps(got) == json.dumps(to_json_ref(obj))
    if repr_ref is not None:
        assert shown == repr_ref(obj)


@pytest.mark.parametrize("p, n", CASES)
def test_output_matches_the_scalar_path(p, n):
    field, rng = Field(p), random.Random(n * 31 + (p or 0))
    for obj in user_objects(field, n, rng) + kernel_objects(field, n, rng):
        assert_matches_the_scalar_path(obj)


def test_the_qq_inputs_cover_every_shape():
    # negative values, zeros, den 1 and den > 1, numerators of 1000+ bits,
    # and entries whose raw integer shares a factor with den
    field, rng = Field(), random.Random(64 * 31)
    texts = []

    def flat(x):
        if isinstance(x, str):
            texts.append(x)
        else:
            for y in x.values() if isinstance(x, dict) else x:
                flat(y)

    for obj in user_objects(field, 64, rng) + kernel_objects(field, 4, rng):
        flat(obj.to_json())
    assert "0" in texts and any(t.startswith("-") for t in texts)
    assert any("/" in t for t in texts) and any("/" not in t and t != "0" for t in texts)
    assert any(len(t.split("/")[0]) > 300 for t in texts)
    s = Series(field, [Scalar(_Q(1, 2)), Scalar(_Q(1, 3)), Scalar(_Q(5))])
    assert s._raw() == ([3, 2, 30], 6) and s.to_json() == ["1/2", "1/3", "5"]


@pytest.mark.parametrize("p", PRIMES)
def test_check_report_reads_alpha_and_beta_off_the_raw_form(p):
    field, rng = Field(p), random.Random(7)
    for n in ORDERS[:5]:
        W = Weight.geometric(field, n, nonzero(field, rng))
        A = pair_to_matrix(RiordanPair(series(field, n, rng, 0), series(field, n, rng, 1)), W)
        with scalars_built() as made:
            report = check_report(A, W, "riordan")
        assert made == []
        pair = matrix_to_pair(A, W)
        assert report["alpha"] == series_to_json_reference(pair.alpha)
        assert report["beta"] == series_to_json_reference(pair.beta)


@pytest.mark.parametrize("p", PRIMES)
def test_polynomial_text_matches_the_scalar_path(p):
    field, rng = Field(p), random.Random(11)
    polys = [Polynomial(field, []), Polynomial(field, [field.zero()] * 3),
             Polynomial(field, [field.zero(), field.one()]),
             Polynomial(field, [-field.one(), -field.one(), field.zero(), field.one()])]
    polys += [Polynomial(field, values(field, rng.randint(1, 9), rng)) for _ in range(40)]
    for poly in polys:
        assert str(poly) == polynomial_str_reference(poly)
        assert repr(poly) == f"Polynomial({polynomial_str_reference(poly)})"
    if p is not None:  # residues are parenthesized
        assert str(polys[2]) == f"(1 mod {p})*x"


def polys_output(A, W, json_mode):
    """The stdout of the CLI's polys command on A and W, both registered."""
    session = cli.Session(order=A.order, field=A.field, json_mode=json_mode)
    session.registry["matrix"]["m"], session.registry["weight"]["w"] = A, W
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.cmd_polys(session, ["m", "w"])
    return out.getvalue()


@pytest.mark.parametrize("p, n", CASES)
def test_polys_output_matches_the_scalar_path(p, n):
    field, rng = Field(p), random.Random(n * 17 + (p or 0))
    matrices = [obj for obj in user_objects(field, n, rng) + kernel_objects(field, n, rng)
                if isinstance(obj, TriMatrix)]
    W = Weight.geometric(field, n, 1)
    for A in matrices:
        with scalars_built() as made:
            text, rows = polys_output(A, W, False), polys_output(A, W, True)
        assert made == []
        lines, rows_ref = polys_output_reference(A)
        assert text == "".join(f"{line}\n" for line in lines)
        assert rows == json.dumps(rows_ref) + "\n"
    assert any(line.endswith("= 0") for A in matrices for line in polys_output_reference(A)[0])


# -- each mode builds only its own output ---------------------------------------

SCRIPT = """weight e exp 1
weight g custom=1,2,-3,5
series a exp 2
series c coeffs=1,-2,0,3
series b coeffs=0,1,1
pair p a b
matrix m pair p e
matrix t translation:exp=1:3
polys m e
polys t e
check m e sheffer
check findiff:exp=1:2 e appell
twoweight a e geom=3
show e
show a
show p
show m"""

CALLS = [  # (argv after the options, stdin)
    (["weight", "w", "exp", "2"], ""),
    (["weight", "w", "custom=1,2,-3,5"], ""),
    (["series", "s", "coeffs=1,-2,0,3"], ""),
    (["series", "s", "exp=2"], ""),
    (["pair", "p", "exp=2", "coeffs=0,1,1"], ""),
    (["matrix", "m", "translation:exp=1:3"], ""),
    (["polys", "translation:exp=1:2", "exp=1"], ""),
    (["polys", "findiff:exp=1:2", "exp=1"], ""),
    (["check", "translation:exp=1:1", "exp=1", "sheffer"], ""),
    (["check", "findiff:exp=1:2", "exp=1", "riordan"], ""),
    (["twoweight", "exp=2", "geom=1", "geom=3"], ""),
    (["show", "w"], ""),  # nothing registered: exit 2; the script shows every kind
    (["run"], SCRIPT),
]

TO_JSON = [Series, Weight, Functional, RiordanPair, TriMatrix, HPolyMatrix, GammaSeq,
           TwoWeightReport]
TEXT = [(cls, "__repr__") for cls in (Series, Weight, Functional, RiordanPair, TriMatrix,
                                      Polynomial, GammaSeq, TwoWeightReport)]


def test_the_calls_cover_every_command():
    assert {argv[0] for argv, _ in CALLS} == set(cli.COMMANDS) | {"run"}
    assert {line.split()[0] for line in SCRIPT.splitlines()} == set(cli.COMMANDS)


def spied_call(argv, stdin):
    """(exit code, stdout, the names of the spied methods called, the
    Scalars built inside cli._emit) of one in-process CLI call."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _spied_call(monkeypatch, argv, stdin)


def _spied_call(monkeypatch, argv, stdin):
    called, built, emit = [], [], cli._emit

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for cls in TO_JSON:
        monkeypatch.setattr(cls, "to_json", spy(f"{cls.__name__}.to_json", cls.to_json))
    for cls, name in TEXT:
        monkeypatch.setattr(cls, name, spy(f"{cls.__name__}.{name}", getattr(cls, name)))
    monkeypatch.setattr(Polynomial, "__str__", spy("Polynomial.__str__", Polynomial.__str__))
    for module in (cli, triangular):
        monkeypatch.setattr(module, "_poly_text", spy("_poly_text", module._poly_text))

    def counted_emit(*args):
        with scalars_built() as made:
            emit(*args)
        built.extend(made)

    monkeypatch.setattr(cli, "_emit", counted_emit)
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue(), called, built


@pytest.mark.parametrize("field", ["rat", "mod:1000003"])
@pytest.mark.parametrize("argv, stdin", CALLS,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else "")
def test_each_mode_builds_only_its_own_output(field, argv, stdin):
    head = ["--order", "4", "--field", field]
    code, text, called, built = spied_call(head + argv, stdin)
    assert ((code, text) == (2, "")) if argv[0] == "show" else (code in (0, 1) and text)
    assert [c for c in called if c.endswith("to_json")] == []
    assert built == []
    code_json, out, called, built = spied_call(head + ["--json"] + argv, stdin)
    assert code_json == code and bool(out) == bool(text)
    assert [c for c in called if not c.endswith("to_json")] == []
    assert built == []
    assert all(json.loads(line) is not None for line in out.splitlines())


def test_a_kernel_built_result_prints_with_no_scalar():
    field = Field()
    A = pair_to_matrix(RiordanPair(Series.exp(field, 7, 2), Series.identity(field, 7)),
                       Weight.q_factorial(field, 7, -1, 2))
    H = d_polynomials(A, Weight.q_factorial(field, 7, -1, 2))
    T = translation_matrix(Weight.exponential(field, 7, 1), 3)
    s = Series.exp(field, 7, 3)
    with scalars_built() as made:
        outputs = [H.to_json(), A.to_json(), T.to_json(), s.to_json(), repr(s)]
    assert made == [] and H._entries is None and A._rows is None and s._coeffs is None
    assert outputs == [hpoly_to_json_reference(H), trimatrix_to_json_reference(A),
                       trimatrix_to_json_reference(T), series_to_json_reference(s),
                       series_repr_reference(s)]


# -- a Functional checks its values once ---------------------------------------


def test_a_functional_checks_its_values_once():
    field = Field(7)
    given = tuple(field.scalar(v) for v in (1, 2, 0))
    with mock.patch.object(Field, "check", autospec=True, side_effect=Field.check) as check:
        phi = Functional(field, given)
    assert [c.args[2] for c in check.call_args_list] == ["value"]
    assert phi.values is given and phi.series()._raw() == ([1, 2, 0], 1)
    with pytest.raises(BackendMismatch, match="^value 1 does not belong to GF\\(7\\)$"):
        Functional(field, [1, 2])
    with pytest.raises(BackendMismatch, match="^value 1 does not belong"):  # before the order
        Functional(field, [1])
    with pytest.raises(ValueError, match="^order must be in 2..64, got 1$"):
        Functional(field, given[:1])
    with pytest.raises(BackendMismatch, match="^value Scalar\\(1\\) does not belong"):
        Functional(field, [Field().one(), field.one()])
