"""riordanlab benchmark: one closed-loop caller, verified items, optional spans.

    python3 bench/run.py --workload group-qq --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check
    python3 bench/run.py --record-digests

One process runs one workload with one caller: the next item starts only
after the previous one has finished and been verified.  riordanlab is
imported from the `src` directory next to this one, never from anywhere
else.  See NOTES.md for the workloads, the metrics and how to read them.

--trace 0 prints the end-to-end metrics, with every time scaled to
reference speed by a calibration loop timed through the run (NOTES.md,
"Times at reference speed"); set-up is timed in child processes started
with --setup-only.  --trace 1 runs a fixed item list, each item untraced
and traced back to back, then traced again with output scanning, and
prints the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object {correct, attempted, failed, metrics}.  A full
result, with provenance, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # not used while tuning; a later claim must also hold here
SETUP_REPS = 7  # cold set-ups per run, each in its own child process
SETUP_READY = "set-up done"
MIN_ITEMS = 100  # p90 needs at least ten items beyond it
CAL_REF_NS = 1_500_000  # calibration loop on an uncontended CPU of the reference machine
CHUNK_NS = 100_000_000  # item time between two calibrations
TIMED_CAP_S = 120.0  # the timed phase never runs longer than this

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms.p50": "ms",
    "item_ms.p90": "ms",
    "peak_rss_mb": "MB",
}
DERIVED = {
    "series.compose.per_comp_inverse": "calls/call",
    "riordan.is_riordan.per_item": "calls/item",
    "scalars.coeff_bits.max": "bits",
    "trace.overhead_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    return units


# -- set-up ------------------------------------------------------------------


class BenchmarkError(Exception):
    pass


def fresh_import():
    """Import riordanlab afresh from SRC; returns (package, sampling, cli)."""
    if not (SRC / "riordanlab" / "__init__.py").is_file():
        raise BenchmarkError(f"no riordanlab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "riordanlab" or m.startswith("riordanlab.")]:
        del sys.modules[name]
    lab = importlib.import_module("riordanlab")
    if Path(lab.__file__).resolve().parent != (SRC / "riordanlab").resolve():
        raise BenchmarkError(f"riordanlab was imported from {lab.__file__}, not {SRC}")
    return lab, importlib.import_module("riordanlab.sampling"), importlib.import_module("riordanlab.cli")


def set_up(workload: str, seed: int, cycles: int | None = None):
    """Import riordanlab and build the seeded inputs; (workload, modules)."""
    mods = fresh_import()
    build = workloads.BUILDERS[workload]
    wl = build(seed, *mods) if cycles is None else build(seed, *mods, cycles=cycles)
    return wl, mods


def calibration_loop():
    """Fixed pure-Python work of the kinds the workloads do: rationals,
    modular ints, dict and str operations."""
    acc, x, seen = Fraction(0), 1, {}
    for i in range(1, 300):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3 * i + 1)
        x = (x * 1000003 + i) % 1000000007
        seen[str(x)] = i
    return acc


def calibration_ns() -> int:
    """Time of the calibration loop now; best of two, so that one
    preemption does not count."""
    clock = time.perf_counter_ns
    best = None
    for _ in range(2):
        start = clock()
        calibration_loop()
        took = clock() - start
        best = took if best is None else min(best, took)
    return best


def cold_set_up_s(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a new interpreter to the moment it could run
    its first timed item: a child process runs the whole set-up path
    (interpreter start, imports, seeded inputs) and says when it is done.
    Returns (raw seconds, seconds at reference speed)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    before = calibration_ns()
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=ROOT) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = child.communicate()
    if child.returncode != 0 or line.strip() != SETUP_READY:
        raise BenchmarkError(f"set-up child failed ({child.returncode}): {err.strip()[-300:]}")
    return elapsed, elapsed * CAL_REF_NS / ((before + calibration_ns()) / 2)


# -- running items -------------------------------------------------------------


class Tally:
    """Attempted and failed items, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defects = 0  # failures of items marked known_defect
        self.defect_runs = 0  # items marked known_defect, failed or not
        self.reasons: dict[str, int] = {}

    def run(self, item) -> bool:
        """Run and verify one item; True when it passed."""
        self.attempted += 1
        self.defect_runs += item.known_defect
        try:
            reason = item.run()
        except Exception as exc:  # an uncaught program exception fails the item
            reason = f"uncaught {type(exc).__name__}"
        if reason is not None:
            self.failed += 1
            self.defects += item.known_defect
            key = f"{reason} [{item.label}]" if not item.known_defect else f"known defect: {reason}"
            self.reasons[key] = self.reasons.get(key, 0) + 1
        return reason is None

    @property
    def correct(self) -> bool:
        """True when every failure is an input recorded as a known defect."""
        return self.failed == self.defects


def timed_phase(wl, seconds: float, min_items: int) -> tuple:
    """Whole cycles, through the pool and round again, until `seconds` of
    item time have passed and `min_items` have run (or TIMED_CAP_S); whole
    cycles keep the mix of items the same in every run.  The calibration
    loop is timed before the first item and after every CHUNK_NS of item
    time; each item time is scaled by CAL_REF_NS over the mean of the
    calibrations either side of it.  Returns the tally and, per item, the
    raw and scaled time (ns) and whether it passed."""
    tally, clock = Tally(), time.perf_counter_ns
    raw_ns, scaled_ns, passed, calibrations = [], [], [], [calibration_ns()]
    limit_ns, cap_ns = seconds * 1e9, TIMED_CAP_S * 1e9
    timed_ns = chunk_ns = c = 0

    def calibrate():
        calibrations.append(calibration_ns())
        scale = CAL_REF_NS / ((calibrations[-2] + calibrations[-1]) / 2)
        scaled_ns.extend(t * scale for t in raw_ns[len(scaled_ns):])

    while True:
        for item in wl.cycles[c % len(wl.cycles)]:
            start = clock()
            passed.append(tally.run(item))
            took = clock() - start
            raw_ns.append(took)
            timed_ns += took
            chunk_ns += took
            if chunk_ns >= CHUNK_NS:
                calibrate()
                chunk_ns = 0
        c += 1
        if (timed_ns >= limit_ns and len(raw_ns) >= min_items) or timed_ns >= cap_ns:
            break
    if len(scaled_ns) < len(raw_ns):
        calibrate()
    return tally, raw_ns, scaled_ns, passed, calibrations


def end_to_end(wl, workload: str, seed: int, seconds: float, min_items: int,
               setup_reps: int):
    setup = [cold_set_up_s(workload, seed) for _ in range(setup_reps)]
    tally, raw_ns, scaled_ns, passed, calibrations = timed_phase(wl, seconds, min_items)
    lat_ms = [t / 1e6 for t in scaled_ns]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(s for _, s in setup), len(setup)),
        "items_per_s": (sum(passed) / (sum(lat_ms) / 1e3), len(lat_ms)),
        "item_ms.p50": (statistics.median(lat_ms), len(lat_ms)),
        "item_ms.p90": (statistics.quantiles(lat_ms, n=10)[8] if len(lat_ms) > 1
                        else lat_ms[0], len(lat_ms)),
        "peak_rss_mb": (peak_kb / 1024, 1),
    }
    raw_ms = [t / 1e6 for t in raw_ns]
    extra = {
        "timed_s": sum(raw_ms) / 1e3,
        "p90_valid": len(lat_ms) >= MIN_ITEMS,
        "raw_setup_s": statistics.median(r for r, _ in setup),
        "raw_items_per_s": sum(passed) / (sum(raw_ms) / 1e3),
        "raw_item_ms.p50": statistics.median(raw_ms),
        "raw_item_ms.p90": statistics.quantiles(raw_ms, n=10)[8] if len(raw_ms) > 1 else raw_ms[0],
        "calibration_ms": {"n": len(calibrations), "min": min(calibrations) / 1e6,
                           "median": statistics.median(calibrations) / 1e6,
                           "max": max(calibrations) / 1e6},
        "known_defect_runs": tally.defect_runs,
    }
    return tally, metrics, extra


def traced(wl, trace_cycles: int):
    """Each item untraced and traced back to back, then a traced pass that
    scans outputs.  Which of the pair runs first alternates from item to
    item, so a drift in machine speed cancels out of the overhead ratio."""
    items = [item for cycle in wl.cycles[:trace_cycles] for item in cycle]
    clock = time.perf_counter_ns
    plain, tally, rescan = Tally(), Tally(), Tally()
    timing, scanning = spans.Tracer(), spans.Tracer(bits=True)
    plain_ns = 0

    for i, item in enumerate(items):
        for with_spans in ((False, True) if i % 2 == 0 else (True, False)):
            if with_spans:
                timing.install()
                try:
                    timing.run_item(i, partial(tally.run, item))
                finally:
                    timing.uninstall()
            else:
                start = clock()
                plain.run(item)
                plain_ns += clock() - start
    traced_ns = sum(end - start for name, _, _, start, end, _ in timing.spans
                    if name == spans.ROOT)
    scanning.install()
    try:
        for i, item in enumerate(items):
            scanning.run_item(i, partial(rescan.run, item))
    finally:
        scanning.uninstall()

    problems = timing.integrity_problems() + scanning.integrity_problems()
    if timing.calls() != scanning.calls():
        problems.append("span call counts differ between the two traced passes")
    if not plain.failed == tally.failed == rescan.failed:
        problems.append("tracing changed which items fail")

    layer = timing.layer_metrics()
    values = {name: (layer[name], len(items)) for name in layer}
    values["series.compose.per_comp_inverse"] = (
        timing.composes_per_comp_inverse(), layer["series.comp_inverse.calls"])
    values["riordan.is_riordan.per_item"] = (
        layer["riordan.is_riordan.calls"] / len(items), len(items))
    values["scalars.coeff_bits.max"] = (scanning.max_bits, len(items))
    values["trace.overhead_ratio"] = (traced_ns / plain_ns, len(items))
    extra = {
        "baseline_per_call_ms": timing.keyed_medians_ms(),
        "untraced_s": plain_ns / 1e9,
        "traced_s": traced_ns / 1e9,
        "integrity_problems": problems,
        "spans_recorded": len(timing.spans),
    }
    return tally, values, extra, timing


# -- reporting -------------------------------------------------------------------


def provenance(lab, workload: str, seed: int) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "riordanlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    backend = sys.modules["riordanlab.scalars"]._Q
    return {
        "workload": workload,
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "rational_backend": f"{backend.__module__}.{backend.__qualname__}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": src.hexdigest(),
        "riordanlab_version": getattr(lab, "__version__", "?"),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.is_file():
                return ref_path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def report(out, tally, values: dict, units: dict, prov: dict, extra: dict) -> None:
    lines = [f"# riordanlab benchmark: workload={prov['workload']} seed={prov['seed']}"]
    lines.append("# " + " ".join(f"{k}={v}" for k, v in prov.items()
                                  if k not in ("workload", "seed")))
    for name, (value, n) in values.items():
        lines.append(f"metric {name} = {value!r} {units[name]} (n={n})")
    lines.append(f"metric fail_ratio = {tally.failed / tally.attempted!r} ratio "
                 f"(n={tally.attempted})")
    for reason, count in sorted(tally.reasons.items()):
        lines.append(f"failure x{count}: {reason}")
    for key, value in extra.items():
        if key == "baseline_per_call_ms":
            for span, by_key in value.items():
                for k, v in by_key.items():
                    lines.append(f"baseline {span} {k}: median {v['median_ms']!r} ms "
                                 f"(calls={v['calls']})")
        else:
            lines.append(f"# {key}: {value}")
    for line in lines:
        print(line, file=out)


def result_line(tally, values: dict, units: dict) -> dict:
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name][0], "unit": units[name]} for name in units},
    }


def write_results(tag: str, payload: dict, tracer=None) -> None:
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{tag}.json").write_text(json.dumps(payload, indent=1) + "\n")
    if tracer is not None:
        with open(RESULTS / f"{tag}.spans.jsonl", "w") as fh:
            for rec in tracer.records():
                fh.write(json.dumps(rec) + "\n")


def run(workload: str, seed: int, seconds: float, trace: bool, out=sys.stdout,
        cycles: int | None = None, min_items: int = MIN_ITEMS, setup_reps: int = SETUP_REPS,
        keep: bool = True):
    """One benchmark run; prints the report and returns the result object."""
    wl, mods = set_up(workload, seed, cycles)
    prov = provenance(mods[0], workload, seed)
    if trace:
        units = per_layer_units()
        tally, values, extra, tracer = traced(wl, min(wl.trace_cycles, len(wl.cycles)))
        if extra["integrity_problems"]:
            raise BenchmarkError("; ".join(extra["integrity_problems"]))
    else:
        units = END_TO_END
        tally, values, extra = end_to_end(wl, workload, seed, seconds, min_items, setup_reps)
        tracer = None
    report(out, tally, values, units, prov, extra)
    result = result_line(tally, values, units)
    if keep:
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        write_results(tag, {"provenance": prov, "result": result, "extra": extra,
                            "samples": {k: n for k, (_, n) in values.items()},
                            "fail_ratio": tally.failed / tally.attempted,
                            "failures": tally.reasons}, tracer)
    return result


# -- self-check and digest recording ----------------------------------------------

# (workload, program function to corrupt once, corruption of its result)
FAULTS = {
    "group-qq": ("riordanlab.riordan", "matrix_to_pair",
                 lambda lab, pair: lab.identity_pair(pair.field, pair.order)),
    "classify-gfp": ("riordanlab.operators", "is_appell", lambda lab, verdict: not verdict),
    "cli-session": ("riordanlab.operators", "check_report",
                    lambda lab, rep: {**rep, "verdict": not rep["verdict"]}),
}


def self_check() -> None:
    """Few-item runs that prove the metrics print and the gate can fail."""
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    for workload in workloads.BUILDERS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            buf = io.StringIO()
            result = run(workload, DEFAULT_SEED, 0, trace, out=buf, cycles=1,
                         min_items=1, setup_reps=1, keep=False)
            text = buf.getvalue()
            names = {m["name"]: m["unit"] for m in declared[group]}
            assert set(result["metrics"]) == set(names), (workload, group)
            for name, unit in names.items():
                assert result["metrics"][name]["unit"] == unit, (workload, name)
                assert f"metric {name} = " in text and f" {unit} (n=" in text, (workload, name)
            if not trace:
                assert "metric fail_ratio = " in text, workload
            assert result["correct"], (workload, trace, text)

        wl, mods = set_up(workload, DEFAULT_SEED, cycles=1)
        clean = Tally()
        for item in wl.cycles[0]:
            clean.run(item)
        module, attr, corrupt = FAULTS[workload]
        fired = []

        def once(fn):
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                if not fired:
                    fired.append(True)
                    return corrupt(mods[0], out)
                return out
            return wrapper

        undo = spans.rebind(module, attr, once)
        try:
            faulty = Tally()
            for item in wl.cycles[0]:
                faulty.run(item)
        finally:
            spans.unbind(undo)
        assert fired, workload
        assert faulty.failed == clean.failed + 1, (workload, clean.failed, faulty.failed)
        assert not faulty.correct and clean.correct, workload
        span_faults = check_span_integrity_fires(wl.cycles[0][0])
        print(f"self-check {workload}: metrics printed with units; injected wrong "
              f"verdict counted ({clean.failed} -> {faulty.failed} failed of "
              f"{faulty.attempted}); span checks caught {span_faults} corrupted traces")
    print("self-check passed")


def check_span_integrity_fires(item) -> int:
    """Trace one item: its spans pass the integrity checks, and each of four
    corrupted copies of them fails.  Returns the number caught."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.run_item(0, partial(Tally().run, item))
    finally:
        tracer.uninstall()
    assert not tracer.integrity_problems(), tracer.integrity_problems()
    assert len(tracer.spans) > 1, "the item entered no span"
    w0, w1 = tracer.walls[0]
    corruptions = [
        lambda t: t.spans.append(["series.mul", -1, -1, w0, w1, None]),  # outside any item
        lambda t: t.spans[1].__setitem__(4, t.spans[0][4] + 10**6),  # child outlasts its root
        lambda t: t.spans[0].__setitem__(4, w1 - 1),  # root ends before its item does
        lambda t: t.walls.__setitem__(0, (w0, w0 + (w1 - w0) // 2)),  # root far longer than wall
    ]
    for corrupt in corruptions:
        copy = spans.Tracer()
        copy.spans = [list(rec) for rec in tracer.spans]
        copy.walls = dict(tracer.walls)
        corrupt(copy)
        assert copy.integrity_problems(), "a corrupted trace passed the span checks"
    return len(corruptions)


def record_digests() -> None:
    _, _, cli = fresh_import()
    cases = workloads.record_digests(cli)
    payload = {
        "about": "sha256[:32] of the stdout of every OK cli-session case, "
                 "recorded by `python3 bench/run.py --record-digests`",
        "git_commit": git_commit(),
        "cases": cases,
    }
    workloads.DIGESTS.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(cases)} digests in {workloads.DIGESTS}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="only set up, then say so (the child process behind setup_s)")
    ns = parser.parse_args(argv)
    try:
        if ns.self_check:
            self_check()
            return 0
        if ns.record_digests:
            record_digests()
            return 0
        if ns.workload is None:
            parser.error("--workload is required")
        if ns.setup_only:
            set_up(ns.workload, ns.seed)
            print(SETUP_READY, flush=True)
            return 0
        result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
