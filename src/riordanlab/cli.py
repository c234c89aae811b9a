"""Command-line front end.

One binary, subcommand grammar::

    riordan [--order N] [--field rat|mod:P] [--json] COMMAND ARGS...

Stateful workflows go through ``run``, which reads one command per line
from stdin and keeps a named registry of weights, series, pairs and
matrices for the duration of the script.  Single-shot commands accept
inline specs wherever a name is expected:

    weights   exp=1   geom=2   qfac=-1,2   expcase=1/2,1   custom=1,1,2,6 (N values)
    series    coeffs=1,1,1/2   exp=2
    matrices  identity   translation:exp=1:1   appell:exp=1:exp=1
              mw:geom=1   findiff:exp=1:1   pair:NAME:WSPEC

One table per spec family (WEIGHT_SPECS, SERIES_SPECS, MATRIX_SPECS) gives
each kind its argument count and constructor; a matrix kind gives the kind
each ':' argument names instead, and resolve() looks each one up in the
registry or builds it from its inline spec.  _build is the one place that
checks a count and turns a bad argument into a usage error, so a spec with
the wrong number of arguments reads "<kind> takes <n> argument(s)".

Outputs print in full: main lifts Python's limit on the digits of an int
converted to or from text for the call and restores it on every exit,
and _build, where arguments become numbers, puts the default limit (4300
digits) back while it runs, so an input number longer than that is a
usage error.

Exit codes: 0 success / verdict true, 1 some verdict false, 2 usage
error, 3 mathematical domain error.

A command builds only the output it prints: _emit takes its text lines
and its JSON object as zero-argument callables and calls only the one for
the session's mode, so text mode builds no to_json and --json mode
formats no text line.  Both are read off the raw forms (series._texts):
printing builds no Scalar, and polys formats each row from the raw
columns of its matrix (triangular._poly_rows, _poly_text) rather than
through matrix_to_polys.

The argument parser is built once per process, on the first call to main.
"""

from __future__ import annotations

import argparse
import functools
import shlex
import sys
from dataclasses import dataclass, field as dc_field

from .errors import MathDomainError, UnknownName
from .operators import (
    CHECK_KINDS,
    appell_from_alpha,
    check_report,
    finite_difference_matrix,
    m_matrix,
    translation_matrix,
)
from .riordan import RiordanPair, Weight, pair_to_matrix
from .scalars import Field
from .serialize import dumps
from .series import MAX_ORDER, MIN_ORDER, Series, _texts
from .triangular import TriMatrix, _poly_rows, _poly_text
from .twoweight import classify_membership, exp_case_weights


# the registry kinds, in the order `show` searches them
KINDS = ("weight", "series", "pair", "matrix")


@dataclass
class Session:
    """Per-invocation state: order, field, and the name registry."""

    order: int
    field: Field
    json_mode: bool = False
    registry: dict = dc_field(default_factory=lambda: {kind: {} for kind in KINDS})
    any_false: bool = False


class UsageError(Exception):
    pass


# -- inline spec parsing ---------------------------------------------------


def _args_only(fn):
    # a matrix constructor needs its arguments, not the session's field and order
    return lambda field, order, *args: fn(*args)


def _custom_weight(field, order, *values):
    # any count that can form a weight is built first: custom=1,0,3 names w[1]
    weight = Weight(field, values) if MIN_ORDER <= len(values) <= MAX_ORDER else None
    if weight is None or weight.order != order:
        raise ValueError(f"custom takes {order} argument(s)")
    return weight


# Each spec family maps a kind to (its argument count, None for any number;
# its constructor, called as make(field, order, *args)).  A matrix kind
# lists the kind each ':' argument names in place of a count.
WEIGHT_SPECS = {
    "exp": (1, Weight.exponential),
    "geom": (1, Weight.geometric),
    "qfac": (2, Weight.q_factorial),
    "expcase": (2, exp_case_weights),
    "custom": (None, _custom_weight),
}
SERIES_SPECS = {
    "coeffs": (None, lambda field, order, *c: Series.from_values(field, order, c)),
    "exp": (1, Series.exp),
}
MATRIX_SPECS = {
    "identity": ((), TriMatrix.identity),
    "translation": (("weight", "scalar"), _args_only(translation_matrix)),
    "appell": (("series", "weight"), _args_only(appell_from_alpha)),
    "mw": (("weight",), _args_only(m_matrix)),
    "findiff": (("weight", "scalar"), _args_only(finite_difference_matrix)),
    "pair": (("pair", "weight"), _args_only(pair_to_matrix)),
}
SPECS = {"weight": WEIGHT_SPECS, "series": SERIES_SPECS, "matrix": MATRIX_SPECS}


def _build(session: Session, family: str, kind: str, args: list[str], label: str):
    """Build a `kind` of `family` from its arguments: the one argument-count
    check, and the one place where a bad argument becomes a usage error.
    The arguments of a matrix are resolved by their kinds, left to right."""
    arity, make = SPECS[family][kind]
    count = len(arity) if family == "matrix" else arity
    if count is not None and len(args) != count:
        raise UsageError(f"{label}: {kind} takes {count} argument(s)")
    saved = sys.get_int_max_str_digits()  # main lifts the limit for the output
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        if family == "matrix":
            args = [
                session.field.scalar(ref) if k == "scalar" else resolve(session, k, ref)
                for k, ref in zip(arity, args)
            ]
        return make(session.field, session.order, *args)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{label}: {exc}") from exc
    finally:
        sys.set_int_max_str_digits(saved)


def build(session: Session, family: str, spec: str):
    """The weight or series of an inline spec KIND=ARG,ARG,..."""
    kind, _, args = spec.partition("=")
    if kind not in SPECS[family]:
        raise UnknownName(f"unknown {family} spec {spec!r}")
    return _build(session, family, kind, [a for a in args.split(",") if a],
                  f"bad {family} spec {spec!r}")


def build_matrix(session: Session, parts: list[str]) -> TriMatrix:
    if parts[0] not in MATRIX_SPECS:
        raise UnknownName(f"unknown matrix kind {parts[0]!r}")
    return _build(session, "matrix", parts[0], parts[1:], f"matrix spec {':'.join(parts)!r}")


def resolve(session: Session, kind: str, ref: str):
    """The `kind` registered as `ref`, else the one its inline spec builds."""
    registry = session.registry[kind]
    if ref in registry:
        return registry[ref]
    if kind == "matrix" and (":" in ref or ref == "identity"):
        return build_matrix(session, ref.split(":"))
    if kind in ("weight", "series") and "=" in ref:
        return build(session, kind, ref)
    raise UnknownName(f"unknown {kind} {ref!r}")


# -- commands ----------------------------------------------------------------


def _emit(session, text_lines, json_obj):
    """Print the output of the session's mode: text_lines and json_obj are
    zero-argument callables, and only the one for that mode is called."""
    if session.json_mode:
        print(dumps(json_obj()))
    else:
        for line in text_lines():
            print(line)


def _spec_from_args(args: list[str]) -> str:
    # "exp 1" and "exp=1" are the same spec
    if len(args) == 1:
        return args[0]
    return f"{args[0]}={','.join(args[1:])}"


def _define(session, kind, name, obj, text):
    # text: a zero-argument callable, the text after "<kind> <name>: "
    session.registry[kind][name] = obj
    _emit(session, lambda: [f"{kind} {name}: {text()}"], obj.to_json)


def cmd_weight(session, args):
    w = build(session, "weight", _spec_from_args(args[1:]))
    _define(session, "weight", args[0], w,
            lambda: f"w = [{', '.join(_texts(w.field.p, *w._ws._raw()))}]")


def cmd_series(session, args):
    s = build(session, "series", _spec_from_args(args[1:]))
    _define(session, "series", args[0], s, lambda: f"[{', '.join(_texts(s.field.p, *s._raw()))}]")


def cmd_pair(session, args):
    name, aref, bref = args
    p = RiordanPair(resolve(session, "series", aref), resolve(session, "series", bref))
    _define(session, "pair", name, p, lambda: f"alpha = {p.alpha!r}, beta = {p.beta!r}")


def cmd_matrix(session, args):
    name, rest = args[0], args[1:]
    matrices = session.registry["matrix"]
    if len(rest) == 1 and rest[0] in matrices:
        m = matrices[rest[0]]
    else:
        m = build_matrix(session, rest[0].split(":") if len(rest) == 1 else rest)
    _define(session, "matrix", name, m, lambda: f"order {m.order}")


def cmd_polys(session, args):
    ref, wref = args
    w = resolve(session, "weight", wref)
    if ref in session.registry["pair"]:
        mat = pair_to_matrix(session.registry["pair"][ref], w)
    else:
        mat = resolve(session, "matrix", ref)
    rows = _poly_rows(mat)  # the rows of matrix_to_polys(mat), as text
    _emit(
        session,
        lambda: [f"p_{n} = {_poly_text(terms)}" for n, (_, terms) in enumerate(rows)],
        lambda: [coeffs for coeffs, _ in rows],
    )


def cmd_check(session, args):
    mref, wref, kind = args
    if kind not in CHECK_KINDS:
        raise UsageError(f"unknown check kind {kind!r}")
    report = check_report(resolve(session, "matrix", mref), resolve(session, "weight", wref), kind)
    if not report["verdict"]:
        session.any_false = True

    def lines():
        yield f"{kind}: {'true' if report['verdict'] else 'false'}"
        if report["alpha"] is not None:
            yield f"alpha = [{', '.join(report['alpha'])}]"
            yield f"beta  = [{', '.join(report['beta'])}]"

    _emit(session, lines, lambda: report)


def cmd_twoweight(session, args):
    sref, wref, w2ref = args
    report = classify_membership(
        resolve(session, "series", sref),
        resolve(session, "weight", wref),
        resolve(session, "weight", w2ref),
    )
    if not report.member:
        session.any_false = True
    _emit(
        session,
        lambda: [
            f"member: {'true' if report.member else 'false'}"
            + (f" (case {report.case})" if report.case else ""),
            f"gamma = [{', '.join(map(str, report.gamma.values))}]",
        ],
        report.to_json,
    )


def cmd_show(session, args):
    (name,) = args
    for registry in session.registry.values():
        if name in registry:
            obj = registry[name]
            _emit(session, lambda: [repr(obj)], obj.to_json)
            return
    raise UnknownName(f"nothing registered under {name!r}")


COMMANDS = {
    "weight": (cmd_weight, 2, None),
    "series": (cmd_series, 2, None),
    "pair": (cmd_pair, 3, 3),
    "matrix": (cmd_matrix, 2, None),
    "polys": (cmd_polys, 2, 2),
    "check": (cmd_check, 3, 3),
    "twoweight": (cmd_twoweight, 3, 3),
    "show": (cmd_show, 1, 1),
}


def dispatch(session: Session, name: str, args: list[str]):
    if name not in COMMANDS:
        raise UsageError(f"unknown command {name!r}")
    fn, lo, hi = COMMANDS[name]
    if len(args) < lo or (hi is not None and len(args) > hi):
        raise UsageError(f"command {name!r}: wrong number of arguments")
    fn(session, args)


def run_script(session: Session, stream) -> None:
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = shlex.split(line)
        except ValueError as exc:  # an unbalanced quote or a trailing backslash
            raise UsageError(f"line {lineno}: {exc}") from exc
        try:
            dispatch(session, words[0], words[1:])
        except (UsageError, UnknownName) as exc:
            raise UsageError(f"line {lineno}: {exc}") from exc
        except MathDomainError as exc:
            raise MathDomainError(f"line {lineno}: {exc}") from exc


def _parse_field(text: str) -> Field:
    try:
        if text == "rat":
            return Field()
        if text.startswith("mod:"):
            return Field(int(text[4:]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    raise argparse.ArgumentTypeError(f"field must be 'rat' or 'mod:P', got {text!r}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Weighted Riordan arrays, Sheffer classification, and two-weight analysis.",
    )
    parser.add_argument("--order", type=int, default=16,
                        help=f"truncation order N ({MIN_ORDER}..{MAX_ORDER})")
    parser.add_argument(
        "--field", type=_parse_field, default=Field(), help="rat (default) or mod:P"
    )
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("args", nargs="*")
    sub.add_parser("run", help="read commands from stdin, one per line")
    return parser


def main(argv=None) -> int:
    ns = _parser().parse_args(argv)
    if not MIN_ORDER <= ns.order <= MAX_ORDER:
        _parser().error(f"--order must be in {MIN_ORDER}..{MAX_ORDER}, got {ns.order}")

    session = Session(order=ns.order, field=ns.field, json_mode=ns.json)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # outputs print in full; _build limits the inputs
    try:
        if ns.command == "run":
            run_script(session, sys.stdin)
        else:
            dispatch(session, ns.command, ns.args)
    except (UsageError, UnknownName) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MathDomainError as exc:
        print(f"math error: {exc}", file=sys.stderr)
        return 3
    finally:
        sys.set_int_max_str_digits(saved)
    return 1 if session.any_false else 0


if __name__ == "__main__":
    sys.exit(main())
