"""Machine output stays byte-identical to the benchmark's reference outputs.

bench/data/reference.json records, for every ``cuspidal`` command any
benchmark seed can run, its exit code and the first 20 hex digits of the
sha256 of its ``--format machine`` stdout.  This replays every such command
in-process and compares both, so a change to machine output fails here and
not only in a benchmark run.  It also replays the library ops that read the
per-cusp series without a command: ``r_poly_series`` (the Alexander
product) and the margin-0 ``oracle_eu`` ops (the counting functions, through
the cubical weights), run and digested by bench/run.py's own Executor and
digest.  Margins 1 and
2 cost twice as much again and read the same series.  It only reads from
bench/.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import cuspidal
from conftest import collection
from cuspidal import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # bench/run.py imports its siblings by name
import workloads  # noqa: E402


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = load_bench_run()
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


@pytest.mark.parametrize("kind", ["r_poly_series", "oracle_eu"])
def test_library_ops_match_reference(kind):
    specs = [spec for workload in workloads.WORKLOADS
             for spec in workloads.universe(workload, cuspidal, workloads.load_pool())
             if spec[0] == kind and (kind != "oracle_eu" or spec[2] == 0)]
    assert specs
    collections = {}
    execute = bench_run.Executor(cuspidal, {}, collections, run_dir=None)
    mismatches = []
    for spec in specs:
        if spec[1] not in collections:
            collections[spec[1]] = collection(*spec[1])
        code, payload = execute(spec)
        key = workloads.op_key(spec)
        got = [code, bench_run.digest(spec, payload)]
        if got != REFERENCE[key]:
            mismatches.append((key, got, REFERENCE[key]))
    assert not mismatches, mismatches[:5]
