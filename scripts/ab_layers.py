"""Time each layer of the package at a git revision against the working tree,
in one process.

Copies src/riordanlab as it is at the revision REV (read through `git
show`) and as it is in the working tree into a temporary directory under
two package names, `before` and `after`; the package imports itself only
relatively, so both load side by side.  Each round times every layer on
both sides, the side that goes first alternating from round to round, and
each timing is the minimum of --calls calls on inputs built by that side's
own package.  Prints per layer the minimum over the rounds of each side, in
ms, and the median over the rounds of after / before:

    python scripts/ab_layers.py --against HEAD --field QQ --order 16 --rounds 5

Timings of two processes drift apart on a shared machine, where ratios
taken in one process, interleaved, hold steady.  Without --against the
working tree is compared with itself, at N = 8 for one round by default:
the ratios then show the noise floor.

The inputs are those of the Baseline layer table in ROADMAP.md: the
matrix A of sampling.riordan_pair with random.Random(1) under
q_factorial(-1, 2) over QQ and q_factorial(5, 3) over GF(1000003);
"perturbed" is perturbed_non_riordan(W, Random(1)), and "appell" is
check_report on translation_matrix(W, 3).  "entries read" also reads the
Scalar entries of the result, which a kernel-built HPolyMatrix builds only
then; "diagonals compared" calls constant_on_diagonals on the result
instead, the call the classify-gfp benchmark workload makes per matrix,
and "to_json" its JSON form.  The output rows time the JSON form of
kernel-built results, which the CLI prints: TriMatrix.to_json of A (built
by pair_to_matrix, its rows not yet read) and Series.to_json of the
product a.alpha * b.alpha.
A is built from its own copy of the pair a, so no layer finds the series
of a or b already read into raw form by an earlier call.
change_weight takes A from W to W2 = Weight.exponential(F, N, 1), and
classify_membership asks whether the Appell matrix of a's alpha under W
is Riordan under W2, the two-weight path of the CLI's twoweight command.
solve_conjugator runs on finite_difference_matrix(W, 3); the constructor
rows build a weight or series of order N, exp_case_weights over QQ only,
Weight.rescale rescales W, and Weight(F, values) builds a weight from the
text of the values of W, as the CLI's custom= weight does.
functional_mul multiplies two functionals built from the Scalars of two
unit series drawn after a and b.
"""

import argparse
import importlib
import random
import statistics
import sys
import tempfile
import timeit
from pathlib import Path
from types import SimpleNamespace

from code_lines import PACKAGE, ROOT, git

LAYERS = {
    "A @ A": lambda m, x: x.A @ x.A,
    "A.inverse()": lambda m, x: x.A.inverse(),
    "pair_to_matrix": lambda m, x: m.pair_to_matrix(x.a, x.W),
    "matrix_to_pair": lambda m, x: m.matrix_to_pair(x.A, x.W),
    "is_riordan": lambda m, x: m.is_riordan(x.A, x.W),
    "is_riordan, perturbed": lambda m, x: m.is_riordan(x.B, x.W),
    "check_report(sheffer)": lambda m, x: m.check_report(x.A, x.W, "sheffer"),
    "check_report(appell)": lambda m, x: m.check_report(x.T, x.W, "appell"),
    "riordan_mul": lambda m, x: m.riordan_mul(x.a, x.b),
    "riordan_inv": lambda m, x: m.riordan_inv(x.a),
    "sheffer_by_commutation": lambda m, x: m.sheffer_by_commutation(x.A, x.W),
    "sheffer_by_commutation, perturbed": lambda m, x: m.sheffer_by_commutation(x.B, x.W),
    "product_rule_spanning_witness": lambda m, x: m.product_rule_spanning_witness(x.A, x.W),
    "d_polynomials": lambda m, x: m.d_polynomials(x.A, x.W),
    "d_polynomials, entries read": lambda m, x: m.d_polynomials(x.A, x.W).entries,
    "d_polynomials, diagonals compared":
        lambda m, x: m.d_polynomials(x.A, x.W).constant_on_diagonals(),
    "d_polynomials, to_json": lambda m, x: m.d_polynomials(x.A, x.W).to_json(),
    "TriMatrix.to_json": lambda m, x: x.A.to_json(),
    "Series.to_json": lambda m, x: x.s.to_json(),
    "Series.invert": lambda m, x: x.a.alpha.invert(),
    "Series.__mul__": lambda m, x: x.a.alpha * x.b.alpha,
    "Series.compose": lambda m, x: x.b.alpha.compose(x.a.beta),
    "Series.comp_inverse": lambda m, x: x.a.beta.comp_inverse(),
    "finite_difference_matrix": lambda m, x: m.finite_difference_matrix(x.W, 3),
    "change_weight": lambda m, x: m.change_weight(x.A, x.W, x.W2),
    "classify_membership": lambda m, x: m.classify_membership(x.a.alpha, x.W, x.W2),
    "dual_basis": lambda m, x: m.dual_basis(x.A, x.W),
    "dual_characterization_check": lambda m, x: m.dual_characterization_check(x.A, x.W),
    "functional_mul": lambda m, x: m.functional_mul(x.phi, x.psi),
    "q_operator_matrix": lambda m, x: m.q_operator_matrix(x.A, x.W),
    "solve_conjugator": lambda m, x: m.solve_conjugator(x.D),
    "Weight.exponential": lambda m, x: m.Weight.exponential(x.F, x.n, 3),
    "Weight.geometric": lambda m, x: m.Weight.geometric(x.F, x.n, 3),
    "Weight.q_factorial": lambda m, x: m.Weight.q_factorial(x.F, x.n, 5, 3),
    "Weight.rescale": lambda m, x: x.W.rescale(3),
    "Weight(F, values)": lambda m, x: m.Weight(x.F, x.values),
    "Series.exp": lambda m, x: m.Series.exp(x.F, x.n, 3),
    "translation_matrix": lambda m, x: m.translation_matrix(x.W, 3),
    "exp_case_weights": lambda m, x: m.exp_case_weights(x.F, x.n, 3, 2),
}
QQ_ONLY = {"exp_case_weights"}  # defined in characteristic 0 only


def copy_package(ref, target: Path):
    """src/riordanlab at the git revision ref, or the working tree for None,
    written into the directory target."""
    target.mkdir()
    if ref is None:
        for path in PACKAGE.glob("*.py"):
            (target / path.name).write_text(path.read_text())
        return
    package = "./" + PACKAGE.relative_to(ROOT).as_posix()  # relative to ROOT, the cwd of git
    for name in git("ls-tree", "--name-only", f"{ref}:{package}").split():
        if name.endswith(".py"):
            (target / name).write_text(git("show", f"{ref}:{package}/{name}"))


def inputs(m, sampling, field, n):
    """The layer inputs, built by the package m."""
    if field == "QQ":
        F = m.Field()
        W = m.Weight.q_factorial(F, n, -1, 2)
    else:
        F = m.Field(1000003)
        W = m.Weight.q_factorial(F, n, 5, 3)
    rng = random.Random(1)
    a, b = sampling.riordan_pair(F, n, rng), sampling.riordan_pair(F, n, rng)
    a_copy = sampling.riordan_pair(F, n, random.Random(1))  # equal to a
    phi, psi = [m.Functional(F, sampling.unit_series(F, n, rng).coeffs) for _ in range(2)]
    return SimpleNamespace(
        F=F, n=n, W=W, a=a, b=b, s=a.alpha * b.alpha, phi=phi, psi=psi,
        A=m.pair_to_matrix(a_copy, W),
        B=sampling.perturbed_non_riordan(W, random.Random(1)),
        T=m.translation_matrix(W, 3), W2=m.Weight.exponential(F, n, 1),
        values=[str(v) for v in W.w],
        D=m.finite_difference_matrix(W, 3))


def time_layer(m, sampling, field, n, layer, calls):
    """The least time of calls calls of one layer, in ms; fresh inputs each call."""
    best = float("inf")
    for _ in range(calls):
        x = inputs(m, sampling, field, n)
        best = min(best, timeit.Timer(lambda: LAYERS[layer](m, x)).timeit(1) * 1e3)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time each layer: a git revision against the working tree.")
    parser.add_argument("--against", metavar="REV",
                        help="the revision to compare with (default: the tree itself)")
    parser.add_argument("--field", choices=["QQ", "GF"], default="QQ",
                        help="QQ, or GF(1000003)")
    parser.add_argument("--order", type=int, default=8)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--calls", type=int, default=3, help="calls per timing; the least counts")
    args = parser.parse_args(argv)
    if args.against is not None:
        git("rev-parse", "--verify", f"{args.against}^{{commit}}")
    with tempfile.TemporaryDirectory() as tmp:
        for name, ref in (("before", args.against), ("after", None)):
            copy_package(ref, Path(tmp) / name)
        sys.path.insert(0, tmp)
        try:
            sides = [(importlib.import_module(name), importlib.import_module(f"{name}.sampling"))
                     for name in ("before", "after")]
        finally:
            sys.path.remove(tmp)
    times = {layer: ([], []) for layer in LAYERS if args.field == "QQ" or layer not in QQ_ONLY}
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for layer in times:
            for side in order:
                times[layer][side].append(
                    time_layer(*sides[side], args.field, args.order, layer, args.calls))
    against = args.against or "the working tree"
    field = "QQ" if args.field == "QQ" else "GF(1000003)"
    print(f"{against} -> working tree, {field}, N = {args.order}, {args.rounds} round(s), "
          f"minimum of {args.calls} call(s) per timing")
    print(f"{'layer':34} {'before ms':>10} {'after ms':>10} {'ratio':>6}")
    for layer, (before, after) in times.items():
        ratio = statistics.median(t / s for s, t in zip(before, after))
        print(f"{layer:34} {min(before):10.3f} {min(after):10.3f} {ratio:6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
