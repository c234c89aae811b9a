"""Every entry point the benchmark traces, and every public name, resolves.

bench/spans.py rebinds each callable listed in its SPANS table; a refactor
that renames or inlines one of them would pass every other test and then
stop the benchmark with "bound nowhere".  The check runs the benchmark's own
`rebind` with the identity as wrapper, so it changes no binding.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import riordanlab

SPANS_FILE = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize("name, module, attr", spans.SPANS)
def test_traced_entry_point_is_bound(name, module, attr):
    importlib.import_module(module)
    undo = spans.rebind(module, attr, lambda fn: fn)
    assert undo and all(callable(original) for _, _, original in undo)


def test_public_names_resolve():
    assert [name for name in riordanlab.__all__ if not hasattr(riordanlab, name)] == []
