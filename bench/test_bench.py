"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import compare
import run
import speed
import workloads
from tracer import TARGETS, Tracer

sys.path.insert(0, run.SRC)
import cuspidal  # noqa: E402
import cuspidal.cli  # noqa: E402,F401


def load_reference():
    with open(run.REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def bench_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"), *args],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    doc = bench_json()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    expected = {name: "s" for name in run.LAYER_TIMES}
    expected.update({name: "count" for name in run.LAYER_COUNTS})
    expected.update({name: "s" for name in run.TRACE_TOTALS})
    assert layer == expected
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_seed(workload):
    reference = load_reference()
    pool = workloads.load_pool()
    keys = {workloads.op_key(s) for s in workloads.universe(workload, cuspidal, pool)}
    assert keys <= set(reference)
    for seed in range(30):
        ops, formats = workloads.choose(workload, seed, cuspidal, pool)
        assert {workloads.op_key(s) for s in ops} <= keys
        assert ops == workloads.choose(workload, seed, cuspidal, pool)[0]
        assert len(ops) == len(workloads.choose(workload, 0, cuspidal, pool)[0])
        p = run.tail_percentile(len(ops) * workloads.MIN_PASSES[workload])
        assert len(ops) * workloads.MIN_PASSES[workload] * (100 - p) / 100 >= 10


def test_tail_percentile_keeps_ten_beyond():
    for n in (11, 24, 45, 100, 1000):
        p = run.tail_percentile(n)
        value, beyond = run.percentile(sorted(range(n)), p)
        assert beyond >= 10
        assert n - -(-(p + 1) * n // 100) < 10


def test_speed_scales_to_reference_and_drops_probes():
    sp = speed.Speed()
    ref = speed.REFERENCE_PROBE_S
    # a machine at half speed around [10, 11): probes take twice the reference
    sp.starts = [9.99, 9.995, 10.2, 10.5, 10.8, 11.01, 11.02]
    sp.durations = [2 * ref] * 7
    # three probes ran inside the op; its own work is 1 s less their time
    assert sp.probed_within(10.0, 11.0) == pytest.approx(6 * ref)
    assert sp.at_reference(10.0, 11.0) == pytest.approx((1.0 - 6 * ref) / 2)
    # out-of-order samples (a timer probe landing inside another) are sorted
    sp.sample()
    sp.starts.append(0.0)
    sp.durations.append(ref)
    sp.ordered = False
    assert sp.scale(0.0, 0.0) > 0 and sp.starts == sorted(sp.starts)


def test_corrupted_reference_raises_fail_ratio(tmp_path, monkeypatch, capsys):
    reference = load_reference()
    ops, _ = workloads.choose("screen", 7, cuspidal, workloads.load_pool())
    key = workloads.op_key(next(s for s in ops if s[1][0] == "invariants"))
    reference[key] = [reference[key][0], "0" * 20]
    corrupted = tmp_path / "reference.json"
    corrupted.write_text(json.dumps(reference))
    monkeypatch.setattr(run, "REFERENCE_PATH", str(corrupted))
    assert run.main(["--workload", "screen", "--seed", "7", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert 0 < result["failed"] < result["attempted"]
    assert result["correct"] is False


def test_tracer_uninstall_restores_every_binding():
    modules = {n: m for n, m in sys.modules.items() if n.startswith("cuspidal")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    checks = dict(cuspidal.criteria._CHECKS)
    tracer = Tracer()
    tracer.install()
    assert cuspidal.criteria.h_function is not before["cuspidal.criteria"]["h_function"]
    assert cuspidal.criteria._CHECKS["bl"] is not checks["bl"]
    tracer.uninstall()
    for name, mod in modules.items():
        for attr, value in before[name].items():
            assert vars(mod)[attr] is value, (name, attr)
    assert cuspidal.criteria._CHECKS == checks
    assert "__post_init__" in vars(cuspidal.Semigroup)
    for modname, attr, _, _ in TARGETS:
        assert not hasattr(getattr(sys.modules[modname], attr), "__wrapped__")


@pytest.mark.parametrize("workload", ["screen", "oracle"])
def test_traced_counts_repeat_across_runs(workload):
    names = [m["name"] for m in bench_json()["per_layer"]]
    args = ["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", "1"]
    first, second = run_bench(*args), run_bench(*args)
    assert first["failed"] == 0 and second["failed"] == 0
    assert sorted(first["metrics"]) == sorted(names)
    counts = [n for n in names if first["metrics"][n]["unit"] == "count"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    calls = first["metrics"]["cubical.oracle_eu.calls"]["value"]
    assert (calls > 0) == (workload == "oracle")


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, [v * 1.5 for v in parent], "higher", 0.1)[0] == "gain"
    assert compare.verdict(parent, [v * 0.5 for v in parent], "higher", 0.1)[0] == "regressed"
    assert compare.verdict(parent, list(parent), "higher", 0.1)[0] == "same"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
