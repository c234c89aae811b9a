"""Each experiment script under scripts/ runs end to end at its default order,
no module under tests/ imports a test module, and no two of them define a
top-level *_reference of one name."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_at_default_order(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert "Traceback" not in done.stdout + done.stderr


def test_conjugate_operators_verifies_every_target():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "conjugate_operators.py")],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    verdicts = [line for line in done.stdout.splitlines() if "conjugation verified" in line]
    targets = ["usual derivative", "finite difference", "q-derivative (q=2)", "random"]
    assert verdicts == [f"== {name}: conjugation verified: True" for name in targets]


def test_scripts_are_found():
    assert len(SCRIPTS) >= 3


def test_no_test_module_imports_a_test_module():
    # shared helpers live in tests/support.py, replaced code in tests/references.py
    paths = sorted((ROOT / "tests").glob("*.py"))
    assert {"support.py", "references.py"} <= {path.name for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):  # function-level imports too
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [alias.name for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names if name.startswith("test_")]
    assert found == []


def test_each_reference_name_is_defined_in_one_test_module():
    # one name, one generation of replaced code: a second copy takes a name of its own
    modules = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.endswith("_reference"):
                modules.setdefault(node.name, set()).add(path.name)
    assert modules
    assert {name: sorted(m) for name, m in modules.items() if len(m) > 1} == {}


def test_code_lines_against_a_revision():
    if subprocess.run(["git", "cat-file", "-e", "HEAD:./src/riordanlab"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout of the package")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "code_lines.py"),
                           "--against", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()]
    modules = {path.name for path in (ROOT / "src" / "riordanlab").glob("*.py")}
    assert {name for name, *_ in rows[:-1]} >= modules
    assert all(len(row) == 4 and row[2] == "->" for row in rows)
    assert rows[-1][0] == "total"
    for side in (1, 3):
        assert int(rows[-1][side]) == sum(int(row[side]) for row in rows[:-1])


def test_ab_layers_against_a_revision():
    if subprocess.run(["git", "cat-file", "-e", "HEAD:./src/riordanlab"], cwd=ROOT,
                      capture_output=True).returncode:
        pytest.skip("not a git checkout of the package")
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_layers.py"),
                           "--against", "HEAD", "--field", "GF", "--order", "6"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    header, columns, *rows = done.stdout.splitlines()
    assert header.startswith("HEAD -> working tree, GF(1000003), N = 6")
    assert columns.split() == ["layer", "before", "ms", "after", "ms", "ratio"]
    assert len(rows) == 38
    for row in rows:
        *name, before, after, ratio = row.split()
        assert name and float(before) > 0 and float(after) > 0 and float(ratio) > 0
