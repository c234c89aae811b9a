"""The benchmark's three seeded workloads.

Each workload is a pool of cycles, and each cycle a list of items.  An
item runs one unit of user-visible work against riordanlab and verifies
it: it returns None when every output matches the known construction, a
short reason when one does not, and lets an uncaught program exception
escape (the runner counts both as failures).  A cycle holds the same mix
of sizes and kinds whatever the seed, so a run of whole cycles does the
same kind of work on every seed; the seed only draws the values.

Items look library functions up as module attributes at call time, so
the spans of the traced run see the benchmark's own calls as well as the
library's internal ones.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

DIGESTS = Path(__file__).with_name("cli_digests.json")


@dataclass(frozen=True)
class Item:
    run: Callable[[], str | None]
    label: str
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    cycles: list  # list[list[Item]], run in order and repeated
    trace_cycles: int  # cycles in the fixed item list of a traced run


# -- group-qq: the Riordan group law over QQ ----------------------------------

QQ_ORDERS = (8, 12, 16)
QQ_WEIGHTS = {
    "exponential(1)": lambda W, F, n: W.exponential(F, n, 1),
    "geometric(1)": lambda W, F, n: W.geometric(F, n, 1),
    "q_factorial(-1,2)": lambda W, F, n: W.q_factorial(F, n, -1, 2),
}


def _group_law(lab, W, a, b):
    A, B = lab.pair_to_matrix(a, W), lab.pair_to_matrix(b, W)
    if lab.pair_to_matrix(lab.riordan_mul(a, b), W) != A @ B:
        return "pair_to_matrix(a*b) != A@B"
    if lab.matrix_to_pair(A, W) != a:
        return "matrix_to_pair(A) != a"
    if lab.riordan_mul(a, lab.riordan_inv(a)) != lab.identity_pair(W.field, W.order):
        return "a * a^-1 != identity"
    return None


def group_qq(seed, lab, sampling, cli, cycles=12):
    rng = random.Random(seed)
    field = lab.Field()
    weights = {(n, w): make(lab.Weight, field, n)
               for n in QQ_ORDERS for w, make in QQ_WEIGHTS.items()}
    pool = []
    for _ in range(cycles):
        cycle = []
        for (n, wname), W in weights.items():
            a = sampling.riordan_pair(field, n, rng)
            b = sampling.riordan_pair(field, n, rng)
            cycle.append(Item(partial(_group_law, lab, W, a, b), f"N={n} {wname}"))
        rng.shuffle(cycle)
        pool.append(cycle)
    return Workload(pool, trace_cycles=4)


# -- classify-gfp: Sheffer classification over GF(1000003) --------------------

GF_P = 1000003
GF_ORDERS = (12, 16, 20)
GF_WEIGHTS = {
    "geometric(3)": lambda W, F, n: W.geometric(F, n, 3),
    "q_factorial(5,3)": lambda W, F, n: W.q_factorial(F, n, 5, 3),
}


def _classify(lab, A, W, riordan, appell):
    got = (
        lab.is_sheffer(A, W),
        lab.sheffer_by_commutation(A, W),
        lab.product_rule_spanning_witness(A, W) is None,
        lab.is_normalizing(A, W, samples=0),
        lab.is_appell(A, W),
    )
    want = (riordan, riordan, riordan, riordan, appell)
    if got != want:
        return f"verdicts {got} != {want}"
    if riordan and not lab.d_polynomials(A, W).constant_on_diagonals():
        return "d_polynomials not constant on diagonals"
    return None


def _classify_both(lab, W, A, appell, bad):
    return _classify(lab, A, W, True, appell) or _classify(lab, bad, W, False, False)


def classify_gfp(seed, lab, sampling, cli, cycles=9):
    """An item classifies two matrices of one order and weight: the matrix
    of a random Riordan pair, then a perturbed non-Riordan one.  Each
    perturbed matrix costs less than any Riordan one, so items of one
    matrix each would put the median latency in the gap between the two
    kinds, where it jumps with a single item; a pair per item keeps it
    inside the middle order's cluster."""
    rng = random.Random(seed)
    field = lab.Field(GF_P)
    pool = []
    for _ in range(cycles):
        cycle = []
        for n in GF_ORDERS:
            for wname, make in GF_WEIGHTS.items():
                W = make(lab.Weight, field, n)
                pair = sampling.riordan_pair(field, n, rng)
                appell = pair.beta == lab.Series.identity(field, n)
                A = lab.pair_to_matrix(pair, W)
                bad = sampling.perturbed_non_riordan(W, rng)
                cycle.append(Item(partial(_classify_both, lab, W, A, appell, bad),
                                  f"N={n} {wname}"))
        rng.shuffle(cycle)
        pool.append(cycle)
    return Workload(pool, trace_cycles=3)


# -- cli-session: in-process calls to the riordan CLI -------------------------

CLI_ORDERS = (6, 8, 12, 16)
CLI_FIELDS = ("rat", "mod:1000003")
OK, ERROR, DEFECT = "ok", "error", "defect"

R_PAIR = """weight e exp 1
series a exp {v}
series b coeffs=0,1,1
pair p a b
matrix m pair p e
check m e sheffer
check m e appell
polys m e
show p"""

R_GEOM = """weight g geom 2
weight q qfac 5,3
series a coeffs=1,{v}
matrix t translation g 3
check t g appell
twoweight a g q
matrix d mw g
check d g riordan"""

R_EXPCASE = """weight e exp 1
weight b expcase 1/2,1
series a exp {v}
twoweight a e b
matrix t appell a e
check t e appell
show a"""

R_UNKNOWN = """weight e exp {v}
check nope e sheffer"""

# (kind, command, run script or None, variants for {v}, exit code by field).
# OK exit codes are the verdicts of the known construction; an ERROR is a
# documented error path; a DEFECT is an input that ends in a traceback at
# the commit that defined this benchmark, and must give exit 2 or 3.
CLI_TEMPLATES = [
    (OK, "weight w exp {v}", None, ("1", "2"), {"rat": 0, "mod:1000003": 0}),
    (OK, "weight w qfac={v},2", None, ("-1", "5"), {"rat": 0, "mod:1000003": 0}),
    (OK, "series s exp={v}", None, ("2", "-1"), {"rat": 0, "mod:1000003": 0}),
    (OK, "series s coeffs={v}", None, ("1,1,2", "3,0,1,5"), {"rat": 0, "mod:1000003": 0}),
    (OK, "matrix m translation:exp=1:{v}", None, ("1", "3"), {"rat": 0, "mod:1000003": 0}),
    (OK, "check translation:exp=1:{v} exp=1 sheffer", None, ("1", "2"),
     {"rat": 0, "mod:1000003": 0}),
    (OK, "check translation:geom=2:{v} geom=2 appell", None, ("1", "3"),
     {"rat": 0, "mod:1000003": 0}),
    (OK, "check appell:exp={v}:exp=1 exp=1 binomial", None, ("2", "-1"),
     {"rat": 1, "mod:1000003": 1}),
    (OK, "check findiff:exp=1:{v} exp=1 riordan", None, ("1", "2"),
     {"rat": 1, "mod:1000003": 1}),
    (OK, "check translation:qfac=-1,2:{v} qfac=-1,2 sheffer", None, ("1", "3"),
     {"rat": 0, "mod:1000003": 0}),
    (OK, "check mw:geom={v} geom={v} riordan", None, ("1", "2"), {"rat": 1, "mod:1000003": 1}),
    (OK, "twoweight exp={v} geom=1 geom=3", None, ("2", "-1"), {"rat": 0, "mod:1000003": 0}),
    (OK, "twoweight exp=1 exp=1 expcase={v},1", None, ("1/2", "3/2"),
     {"rat": 0, "mod:1000003": 3}),
    (OK, "polys translation:exp=1:{v} exp=1", None, ("1", "2"), {"rat": 0, "mod:1000003": 0}),
    (OK, "polys appell:coeffs=1,{v}:geom=2 geom=2", None, ("1", "3"),
     {"rat": 0, "mod:1000003": 0}),
    (OK, "run", R_PAIR, ("2", "-1"), {"rat": 1, "mod:1000003": 1}),
    (OK, "run", R_GEOM, ("1", "2"), {"rat": 1, "mod:1000003": 1}),
    (OK, "run", R_EXPCASE, ("1", "2"), {"rat": 0, "mod:1000003": 3}),
    (ERROR, "check translation:exp=1:1 exp=1 {v}", None, ("foo", "bar"),
     {"rat": 2, "mod:1000003": 2}),
    (ERROR, "weight w geom {v}", None, ("0", "-0"), {"rat": 3, "mod:1000003": 3}),
    (DEFECT, "series s coeffs={v}", None, ("1/0", "1,1/0"), None),
    (DEFECT, "series s coeffs={v}", None, ("abc", "1,abc"), None),
    (DEFECT, "check translation:exp={v} exp=1 sheffer", None, ("1", "2"), None),
]
DEFECT_EXITS = (2, 3)


@dataclass(frozen=True)
class CliCase:
    kind: str
    order: int
    field: str
    command: str
    script: str | None
    exit: int | None  # None for a DEFECT: any of DEFECT_EXITS

    def key(self, json_mode: bool) -> str:
        """Digest key: everything that determines the output bytes."""
        script = "" if self.script is None else " <<" + "; ".join(self.script.splitlines())
        mode = "json" if json_mode else "text"
        return f"{mode} N={self.order} {self.field} {self.command}{script}"

    def argv(self, json_mode: bool) -> list[str]:
        head = ["--order", str(self.order), "--field", self.field]
        return head + (["--json"] if json_mode else []) + self.command.split()


def cli_case(template, v: str, n: int, field: str) -> CliCase:
    kind, command, script, _, exits = template
    return CliCase(kind, n, field, command.format(v=v),
                   None if script is None else script.format(v=v),
                   None if exits is None else exits[field])


def cli_cases():
    """Every CliCase: each template over its variants, orders and fields."""
    for template in CLI_TEMPLATES:
        for v in template[3]:
            for n in CLI_ORDERS:
                for field in CLI_FIELDS:
                    yield cli_case(template, v, n, field)


def call_cli(cli, argv, script):
    """cli.main(argv) with stdin fed from `script`; (exit, stdout, stderr).

    Program exceptions other than SystemExit escape to the caller.
    """
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(script or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return (0 if code is None else code), out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _cli_item(cli, case, json_mode, want_digest):
    code, out, err = call_cli(cli, case.argv(json_mode), case.script)
    if "Traceback" in err:
        return "traceback on stderr"
    if case.kind == OK:
        if code != case.exit:
            return f"exit {code} != {case.exit}"
        if digest(out) != want_digest:
            return "stdout differs from the recorded bytes"
        return None
    allowed = DEFECT_EXITS if case.kind == DEFECT else (case.exit,)
    if code not in allowed:
        return f"exit {code} not in {allowed}"
    return None


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())["cases"]


def cli_session(seed, lab, sampling, cli, cycles=2):
    """A cycle holds every OK template at every order and field in both
    output modes (288 calls), and each ERROR or DEFECT template once, at a
    seeded order, field and mode (5 calls): error paths are 5 of 293 calls,
    known defects 3.  The seed draws the {v} variant of every call."""
    digests = load_digests()
    rng = random.Random(seed)
    pool = []
    for _ in range(cycles):
        calls = []
        for template in CLI_TEMPLATES:
            if template[0] == OK:
                calls += [(cli_case(template, rng.choice(template[3]), n, field), json_mode)
                          for n in CLI_ORDERS for field in CLI_FIELDS
                          for json_mode in (False, True)]
            else:
                case = cli_case(template, rng.choice(template[3]), rng.choice(CLI_ORDERS),
                                rng.choice(CLI_FIELDS))
                calls.append((case, rng.random() < 0.5))
        cycle = [Item(partial(_cli_item, cli, case, json_mode,
                              digests.get(case.key(json_mode)) if case.kind == OK else None),
                      case.key(json_mode), known_defect=case.kind == DEFECT)
                 for case, json_mode in calls]
        rng.shuffle(cycle)
        pool.append(cycle)
    return Workload(pool, trace_cycles=1)


def record_digests(cli) -> dict:
    """Run every OK case in both modes; check its exit code, keep its digest."""
    cases = {}
    for case in cli_cases():
        if case.kind != OK:
            continue
        for json_mode in (True, False):
            code, out, err = call_cli(cli, case.argv(json_mode), case.script)
            if code != case.exit:
                raise RuntimeError(f"{case.key(json_mode)}: exit {code} != {case.exit}\n{err}")
            cases[case.key(json_mode)] = digest(out)
    return cases


BUILDERS = {
    "group-qq": group_qq,
    "classify-gfp": classify_gfp,
    "cli-session": cli_session,
}

