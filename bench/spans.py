"""In-memory spans around the public entry points of each riordanlab layer.

The benchmark, not the library, does the tracing: `Tracer.install`
replaces every binding of each entry point listed in SPANS (the class
attribute, or the function in its defining module and in every module or
package namespace that imported it by name) with a wrapper that records a
span, and `Tracer.uninstall` puts the originals back.  Spans stay in
memory as flat records until the run ends.

Each span record is [name, item, parent, start_ns, end_ns, key]: `item`
is the index of the benchmark item that caused it (its root span is named
"item"; -1 outside any item), `parent` the index of the enclosing span, and `key` the
"field/N" of the first argument for the spans in KEYED.
"""

from __future__ import annotations

import statistics
import sys
import time

# (span name, defining module, attribute; "Class.method" for methods)
SPANS = [
    ("scalars.parse", "riordanlab.scalars", "Field.parse"),
    ("series.mul", "riordanlab.series", "Series.__mul__"),
    ("series.invert", "riordanlab.series", "Series.invert"),
    ("series.compose", "riordanlab.series", "Series.compose"),
    ("series.comp_inverse", "riordanlab.series", "Series.comp_inverse"),
    ("triangular.matmul", "riordanlab.triangular", "TriMatrix.__matmul__"),
    ("triangular.inverse", "riordanlab.triangular", "TriMatrix.inverse"),
    ("riordan.pair_to_matrix", "riordanlab.riordan", "pair_to_matrix"),
    ("riordan.matrix_to_pair", "riordanlab.riordan", "matrix_to_pair"),
    ("riordan.is_riordan", "riordanlab.riordan", "is_riordan"),
    ("riordan.riordan_mul", "riordanlab.riordan", "riordan_mul"),
    ("riordan.riordan_inv", "riordanlab.riordan", "riordan_inv"),
    ("operators.translation_matrix", "riordanlab.operators", "translation_matrix"),
    ("operators.sheffer_by_commutation", "riordanlab.operators", "sheffer_by_commutation"),
    ("operators.is_appell", "riordanlab.operators", "is_appell"),
    ("operators.is_normalizing", "riordanlab.operators", "is_normalizing"),
    ("operators.d_polynomials", "riordanlab.operators", "d_polynomials"),
    ("operators.check_report", "riordanlab.operators", "check_report"),
    ("functionals.product_rule_spanning_witness", "riordanlab.functionals",
     "product_rule_spanning_witness"),
    ("twoweight.classify_membership", "riordanlab.twoweight", "classify_membership"),
    ("cli.main", "riordanlab.cli", "main"),
    ("cli.dispatch", "riordanlab.cli", "dispatch"),
    ("serialize.dumps", "riordanlab.serialize", "dumps"),
]
SPAN_NAMES = [name for name, _, _ in SPANS]

# spans whose per-call times are also grouped by (field, N)
KEYED = ("series.comp_inverse", "riordan.riordan_inv", "series.mul", "triangular.matmul")

ROOT = "item"


def rebind(target_module: str, attr: str, make_wrapper) -> list:
    """Replace every binding of `attr` of `target_module` inside riordanlab.

    `make_wrapper(original)` returns the replacement.  Returns undo records
    (namespace, name, original); raises if the target binds nothing.
    """
    owner = sys.modules[target_module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, make_wrapper(original))
        return [(cls, meth, original)]
    original = getattr(owner, attr)
    wrapper = make_wrapper(original)
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "riordanlab" or mod_name.startswith("riordanlab.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                undo.append((mod, name, original))
    if not undo:
        raise RuntimeError(f"{target_module}.{attr} is bound nowhere")
    return undo


def unbind(undo: list) -> None:
    for namespace, name, original in reversed(undo):
        setattr(namespace, name, original)


def _key(args) -> str:
    first = args[0] if args else None
    return f"{getattr(first, 'field', '?')}/N={getattr(first, 'order', '?')}"


def _key_order(entry):
    field, _, order = entry[0].partition("/N=")
    return field, int(order) if order.isdigit() else 0


def coeff_bits(obj) -> int:
    """Largest numerator or denominator bit length inside a layer output.

    Knows the library's containers by their attribute names, so it reads
    raw rationals and residues as well as values wrapped in a scalar type.
    """
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return 0
    if isinstance(obj, int):
        return abs(obj).bit_length()
    if hasattr(obj, "denominator"):  # Fraction or mpq
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if isinstance(obj, (tuple, list)):
        return max((coeff_bits(x) for x in obj), default=0)
    if isinstance(obj, dict):
        return max((coeff_bits(x) for x in obj.values()), default=0)
    for attr in ("val", "coeffs", "rows", "entries", "values", "gamma", "w"):
        if hasattr(obj, attr):
            return coeff_bits(getattr(obj, attr))
    if hasattr(obj, "alpha") and hasattr(obj, "beta"):
        return max(coeff_bits(obj.alpha), coeff_bits(obj.beta))
    return 0


class Tracer:
    """Span recorder; with `bits` it also scans every layer output."""

    def __init__(self, bits: bool = False):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = -1
        self.bits = bits
        self.max_bits = 0
        self.walls: dict[int, tuple[int, int]] = {}  # item -> wall-clock reading
        self._undo: list = []

    # -- instrumentation -------------------------------------------------
    def install(self) -> None:
        for name, module, attr in SPANS:
            self._undo += rebind(module, attr, lambda fn, name=name: self._wrap(name, fn))

    def uninstall(self) -> None:
        unbind(self._undo)
        self._undo = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        keyed, tracer = name in KEYED, self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, tracer.item, parent, 0, 0, _key(args) if keyed else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if tracer.bits:
                tracer.max_bits = max(tracer.max_bits, coeff_bits(out))
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def begin_item(self, index: int) -> None:
        self.item = index
        self.stack.append(len(self.spans))
        self.spans.append([ROOT, index, -1, time.perf_counter_ns(), 0, None])

    def end_item(self) -> None:
        self.spans[self.stack.pop()][4] = time.perf_counter_ns()
        self.item = -1

    def run_item(self, index: int, run):
        """run() as item `index`: inside its root span, with a wall-clock
        reading of its own around the call."""
        self.begin_item(index)
        start = time.perf_counter_ns()
        try:
            return run()
        finally:
            self.walls[index] = (start, time.perf_counter_ns())
            self.end_item()

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> list[int]:
        """Duration minus the part covered by direct child spans, per span."""
        out = [end - start for _, _, _, start, end, _ in self.spans]
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def calls(self) -> dict[str, int]:
        counts = dict.fromkeys(SPAN_NAMES, 0)
        for rec in self.spans:
            if rec[0] != ROOT:
                counts[rec[0]] += 1
        return counts

    def layer_metrics(self) -> dict[str, float]:
        """X.calls, X.total_s and X.self_s for every span X."""
        selfs = self.self_times()
        total = dict.fromkeys(SPAN_NAMES, 0)
        own = dict.fromkeys(SPAN_NAMES, 0)
        for rec, self_ns in zip(self.spans, selfs):
            if rec[0] != ROOT:
                total[rec[0]] += rec[4] - rec[3]
                own[rec[0]] += self_ns
        out = {}
        for name, calls in self.calls().items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total[name] / 1e9
            out[f"{name}.self_s"] = own[name] / 1e9
        return out

    def composes_per_comp_inverse(self) -> float:
        """compose calls made directly by comp_inverse, per comp_inverse call."""
        inverses = {i for i, rec in enumerate(self.spans) if rec[0] == "series.comp_inverse"}
        inner = sum(1 for rec in self.spans
                    if rec[0] == "series.compose" and rec[2] in inverses)
        return inner / len(inverses) if inverses else 0.0

    def integrity_problems(self) -> list[str]:
        """What is wrong with the recorded spans, if anything: a span outside
        any item, a negative self time (a child span not inside its parent),
        or a root span that does not enclose its item's wall-clock reading
        or exceeds those readings by more than 1 % in sum.  The last bound
        is not tighter because preemption can fall between two clock reads
        a few instructions apart."""
        problems = []
        if any(rec[1] < 0 for rec in self.spans):
            problems.append("a span was recorded outside any item")
        if any(t < 0 for t in self.self_times()):
            problems.append("a span has a negative self time")
        roots = {rec[1]: (rec[3], rec[4]) for rec in self.spans if rec[0] == ROOT}
        if roots.keys() != self.walls.keys():
            problems.append("root spans and timed items differ")
        elif any(not roots[i][0] <= w0 <= w1 <= roots[i][1]
                 for i, (w0, w1) in self.walls.items()):
            problems.append("a root span does not enclose its item's wall-clock reading")
        elif (sum(end - start for start, end in roots.values())
              > 1.01 * sum(w1 - w0 for w0, w1 in self.walls.values())):
            problems.append("root spans exceed the items' wall-clock readings by over 1 %")
        return problems

    def keyed_medians_ms(self) -> dict[str, dict[str, dict]]:
        """Per-call median (ms) and count of each KEYED span, by field/N."""
        groups: dict[str, dict[str, list[int]]] = {}
        for name, _, _, start, end, key in self.spans:
            if key is not None:
                groups.setdefault(name, {}).setdefault(key, []).append(end - start)
        return {
            name: {key: {"median_ms": statistics.median(v) / 1e6, "calls": len(v)}
                   for key, v in sorted(by_key.items(), key=_key_order)}
            for name, by_key in groups.items()
        }

    def records(self):
        """Spans as dicts, for writing out once the run ends."""
        for i, (name, item, parent, start, end, key) in enumerate(self.spans):
            yield {"id": i, "name": name, "item": item, "parent": parent,
                   "start_ns": start, "end_ns": end, "key": key}
