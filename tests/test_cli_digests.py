"""The CLI's output bytes, against the digests the benchmark checks.

bench/cli_digests.json holds the sha256 prefix of the stdout of every OK
case of the cli-session workload, in text and --json mode.  The benchmark
counts a call whose bytes differ as failed; this test replays every such
case in-process through the benchmark's own `call_cli`, so a byte change
in any command fails here first.  It reads bench/ and writes nothing there.
"""

import importlib.util
import sys
from pathlib import Path

from riordanlab import cli

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no bench/__pycache__
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


def test_every_ok_cli_case_prints_its_recorded_bytes():
    digests = workloads.load_digests()
    replayed = set()
    for case in workloads.cli_cases():
        if case.kind != workloads.OK:
            continue
        for json_mode in (False, True):
            key = case.key(json_mode)
            code, out, err = workloads.call_cli(cli, case.argv(json_mode), case.script)
            assert (code, "Traceback" in err) == (case.exit, False), key
            assert workloads.digest(out) == digests[key], key
            replayed.add(key)
    assert replayed == set(digests)
