"""Command-line front end.

One binary, subcommand grammar::

    riordan [--order N] [--field rat|mod:P] [--json] COMMAND ARGS...

Stateful workflows go through ``run``, which reads one command per line
from stdin and keeps a named registry of weights, series, pairs and
matrices for the duration of the script.  Single-shot commands accept
inline specs wherever a name is expected:

    weights   exp=1   geom=2   qfac=-1,2   expcase=1/2,1   custom=1,1,2,6
    series    coeffs=1,1,1/2   exp=2
    matrices  identity   translation:exp=1:1   appell:exp=1:exp=1
              mw:geom=1   findiff:exp=1:1   pair:NAME:WSPEC

Exit codes: 0 success / verdict true, 1 some verdict false, 2 usage
error, 3 mathematical domain error.
"""

from __future__ import annotations

import argparse
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
from .series import Series
from .triangular import TriMatrix, matrix_to_polys
from .twoweight import classify_membership, exp_case_weights


@dataclass
class Session:
    """Per-invocation state: order, field, and the name registry."""

    order: int
    field: Field
    json_mode: bool = False
    weights: dict = dc_field(default_factory=dict)
    series: dict = dc_field(default_factory=dict)
    pairs: dict = dc_field(default_factory=dict)
    matrices: dict = dc_field(default_factory=dict)
    any_false: bool = False


class UsageError(Exception):
    pass


# -- inline spec parsing ---------------------------------------------------


def _split_kind(spec: str):
    kind, _, args = spec.partition("=")
    return kind, [a for a in args.split(",") if a] if args else []


def build_weight(session: Session, spec: str) -> Weight:
    kind, args = _split_kind(spec)
    f, n = session.field, session.order
    try:
        if kind == "exp":
            (lam,) = args
            return Weight.exponential(f, n, lam)
        if kind == "geom":
            (lam,) = args
            return Weight.geometric(f, n, lam)
        if kind == "qfac":
            lam, q = args
            return Weight.q_factorial(f, n, lam, q)
        if kind == "expcase":
            lam, sigma = args
            return exp_case_weights(f, n, lam, sigma)
        if kind == "custom":
            return Weight(f, args)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad weight spec {spec!r}: {exc}") from exc
    raise UnknownName(f"unknown weight spec {spec!r}")


def build_series(session: Session, spec: str) -> Series:
    kind, args = _split_kind(spec)
    f, n = session.field, session.order
    try:
        if kind == "coeffs":
            return Series.from_values(f, n, args)
        if kind == "exp":
            (h,) = args
            return Series.exp(f, n, h)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad series spec {spec!r}: {exc}") from exc
    raise UnknownName(f"unknown series spec {spec!r}")


def resolve_weight(session: Session, ref: str) -> Weight:
    if ref in session.weights:
        return session.weights[ref]
    if "=" in ref:
        return build_weight(session, ref)
    raise UnknownName(f"unknown weight {ref!r}")


def resolve_series(session: Session, ref: str) -> Series:
    if ref in session.series:
        return session.series[ref]
    if "=" in ref:
        return build_series(session, ref)
    raise UnknownName(f"unknown series {ref!r}")


# number of ':'-separated parts of each matrix spec, the kind included
MATRIX_PARTS = {"identity": 1, "translation": 3, "appell": 3, "mw": 2, "findiff": 3, "pair": 3}


def _scalar_arg(session: Session, text: str):
    try:
        return session.field.scalar(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad scalar {text!r}: {exc}") from exc


def build_matrix(session: Session, parts: list[str]) -> TriMatrix:
    kind = parts[0]
    if kind not in MATRIX_PARTS:
        raise UnknownName(f"unknown matrix kind {kind!r}")
    if len(parts) != MATRIX_PARTS[kind]:
        raise UsageError(
            f"matrix spec {':'.join(parts)!r}: {kind} takes {MATRIX_PARTS[kind] - 1} argument(s)"
        )
    f, n = session.field, session.order
    if kind == "identity":
        return TriMatrix.identity(f, n)
    if kind == "translation":
        wref, h = parts[1], parts[2]
        return translation_matrix(resolve_weight(session, wref), _scalar_arg(session, h))
    if kind == "appell":
        sref, wref = parts[1], parts[2]
        return appell_from_alpha(
            resolve_series(session, sref), resolve_weight(session, wref)
        )
    if kind == "mw":
        return m_matrix(resolve_weight(session, parts[1]))
    if kind == "findiff":
        wref, a = parts[1], parts[2]
        return finite_difference_matrix(resolve_weight(session, wref), _scalar_arg(session, a))
    pref, wref = parts[1], parts[2]
    return pair_to_matrix(resolve_pair(session, pref), resolve_weight(session, wref))


def resolve_matrix(session: Session, ref: str) -> TriMatrix:
    if ref in session.matrices:
        return session.matrices[ref]
    if ":" in ref or ref == "identity":
        return build_matrix(session, ref.split(":"))
    raise UnknownName(f"unknown matrix {ref!r}")


def resolve_pair(session: Session, ref: str) -> RiordanPair:
    if ref in session.pairs:
        return session.pairs[ref]
    raise UnknownName(f"unknown pair {ref!r}")


# -- commands ----------------------------------------------------------------


def _emit(session, text_lines, json_obj):
    if session.json_mode:
        print(dumps(json_obj))
    else:
        for line in text_lines:
            print(line)


def _spec_from_args(args: list[str]) -> str:
    # "exp 1" and "exp=1" are the same spec
    if len(args) == 1:
        return args[0]
    return f"{args[0]}={','.join(args[1:])}"


def cmd_weight(session, args):
    name = args[0]
    w = build_weight(session, _spec_from_args(args[1:]))
    session.weights[name] = w
    _emit(session, [f"weight {name}: w = [{', '.join(str(x) for x in w.w)}]"], w.to_json())


def cmd_series(session, args):
    name = args[0]
    s = build_series(session, _spec_from_args(args[1:]))
    session.series[name] = s
    _emit(session, [f"series {name}: [{', '.join(str(c) for c in s.coeffs)}]"], s.to_json())


def cmd_pair(session, args):
    name, aref, bref = args
    p = RiordanPair(resolve_series(session, aref), resolve_series(session, bref))
    session.pairs[name] = p
    _emit(session, [f"pair {name}: alpha = {p.alpha!r}, beta = {p.beta!r}"], p.to_json())


def cmd_matrix(session, args):
    name, rest = args[0], args[1:]
    if len(rest) == 1 and (":" in rest[0] or rest[0] in session.matrices or rest[0] == "identity"):
        m = resolve_matrix(session, rest[0])
    else:
        m = build_matrix(session, rest)
    session.matrices[name] = m
    _emit(session, [f"matrix {name}: order {m.order}"], m.to_json())


def cmd_polys(session, args):
    ref, wref = args
    w = resolve_weight(session, wref)
    if ref in session.pairs:
        mat = pair_to_matrix(session.pairs[ref], w)
    else:
        mat = resolve_matrix(session, ref)
    polys = matrix_to_polys(mat)
    _emit(
        session,
        [f"p_{n} = {p}" for n, p in enumerate(polys)],
        [[str(c) for c in p.coeffs] for p in polys],
    )


def cmd_check(session, args):
    mref, wref, kind = args
    if kind not in CHECK_KINDS:
        raise UsageError(f"unknown check kind {kind!r}")
    report = check_report(resolve_matrix(session, mref), resolve_weight(session, wref), kind)
    if not report["verdict"]:
        session.any_false = True
    lines = [f"{kind}: {'true' if report['verdict'] else 'false'}"]
    if report["alpha"] is not None:
        lines.append(f"alpha = [{', '.join(report['alpha'])}]")
        lines.append(f"beta  = [{', '.join(report['beta'])}]")
    _emit(session, lines, report)


def cmd_twoweight(session, args):
    sref, wref, w2ref = args
    report = classify_membership(
        resolve_series(session, sref),
        resolve_weight(session, wref),
        resolve_weight(session, w2ref),
    )
    if not report.member:
        session.any_false = True
    _emit(
        session,
        [
            f"member: {'true' if report.member else 'false'}"
            + (f" (case {report.case})" if report.case else ""),
            f"gamma = [{', '.join(report.gamma.to_json())}]",
        ],
        report.to_json(),
    )


def cmd_show(session, args):
    (name,) = args
    for registry in (session.weights, session.series, session.pairs, session.matrices):
        if name in registry:
            obj = registry[name]
            _emit(session, [repr(obj)], obj.to_json())
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="riordan",
        description="Weighted Riordan arrays, Sheffer classification, and two-weight analysis.",
    )
    parser.add_argument("--order", type=int, default=16, help="truncation order N (2..64)")
    parser.add_argument(
        "--field", type=_parse_field, default=Field(), help="rat (default) or mod:P"
    )
    parser.add_argument("--json", action="store_true", help="emit canonical JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("args", nargs="*")
    sub.add_parser("run", help="read commands from stdin, one per line")

    ns = parser.parse_args(argv)
    if not 2 <= ns.order <= 64:
        parser.error(f"--order must be in 2..64, got {ns.order}")

    session = Session(order=ns.order, field=ns.field, json_mode=ns.json)
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
    return 1 if session.any_false else 0


if __name__ == "__main__":
    sys.exit(main())
