"""Machine output stays byte-identical to the benchmark's reference outputs.

bench/data/reference.json records, for every ``cuspidal`` command any
benchmark seed can run, its exit code and the first 20 hex digits of the
sha256 of its ``--format machine`` stdout.  This replays every such command
in-process and compares both, so a change to machine output fails here and
not only in a benchmark run.  It only reads from bench/.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

import cuspidal
from cuspidal import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()
REFERENCE = json.loads((BENCH / "data" / "reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_cli_ops_match_reference(workload, tmp_path):
    specs = [spec for spec in workloads.universe(workload, cuspidal, workloads.load_pool())
             if spec[0] == "cli"]
    assert specs
    paths = {}
    mismatches = []
    for spec in specs:
        _, argv, inp = spec
        if inp is not None and inp not in paths:
            # both framings of a candidate file, alternating between inputs
            fmt = ("txt", "json")[len(paths) % 2]
            path = tmp_path / workloads.input_name(inp, fmt)
            path.write_text(workloads.render_input(inp, fmt), encoding="utf-8")
            paths[inp] = str(path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run([paths[inp] if a == "FILE" else a for a in argv]
                           + ["--format", "machine"])
        key = workloads.op_key(spec)
        got = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:20]]
        if got != REFERENCE[key]:
            mismatches.append((key, got, REFERENCE[key]))
    assert not mismatches, mismatches[:5]
