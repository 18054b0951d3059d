#!/usr/bin/env python3
"""The cuspidal benchmark: one workload, one closed-loop client, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload screen --seed 1 --seconds 15 --trace 0

The workload's ops (see workloads.py) run one after another from this
process, with no extra threads.  CLI ops run in-process through
``cuspidal.cli.run([..., "--format", "machine"])`` with stdout captured,
except in ``cli_cold`` where each op is a fresh ``python -m cuspidal.cli``
process.  Every op's exit code and output are checked against
``data/reference.json`` and by independent identities, outside the timed
region.

``--trace 0`` makes one untimed warm-up pass (in-process workloads), then
timed passes over the op list until ``--seconds`` have passed (at least
``MIN_PASSES``), and prints the end-to-end metrics from every timed op,
scaled to a reference machine speed by probes taken around and during each
op (see speed.py); the process and its children stay on one CPU, the one
the probes measure.  ``--trace 1`` makes one
warm-up pass, then alternates untraced and traced passes and prints the
per-layer metrics: self times and counts from spans recorded around the
public functions of each module (see tracer.py), per pass, medians over the
traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record (machine, tail
percentile, baseline rows, per-op times) goes to ``.bench_work/results/``
and, in traced runs, the spans to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from time import perf_counter

import workloads
from speed import REFERENCE_PROBE_S, Speed
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_PATH = os.path.join(HERE, "data", "reference.json")

SETUP_REPEATS = 9

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

# per-layer metric -> span name whose self time it is, per pass
LAYER_TIMES = {
    "semigroup.construct_s": "semigroup.construct",
    "semigroup.counting_fn_s": "semigroup.counting_fn",
    "seqcalc.min_convolve_s": "seqcalc.min_convolve",
    "seqcalc.convolve_s": "seqcalc.convolve",
    "invariants.h_function_s": "invariants.h_function",
    "invariants.f_sequence_s": "invariants.f_sequence",
    "invariants.q_coefficients_s": "invariants.q_coefficients",
    "invariants.r_poly_s": "invariants.r_poly",
    "invariants.r_poly_series_s": "invariants.r_poly_series",
    "invariants.spinc_report_s": "invariants.spinc_report",
    "invariants.eu_canonical_s": "invariants.eu_canonical",
    "criteria.check_s": "criteria.check",
    "criteria.regroupings_s": "criteria.regroupings",
    "cubical.build_rectangle_s": "cubical.build_rectangle",
    "cubical.betti_table_s": "cubical.betti_table",
    "cubical.min_w_over_diagonal_s": "cubical.min_w_over_diagonal",
    "cli.load_s": "cli.load",
    "cli.run_self_s": "cli.run",
    "startup.interpreter_s": "startup.interpreter",
    "startup.import_s": "startup.import",
    "process.exit_s": "process.exit",
}

# per-layer counts per pass, computed at the wrappers
LAYER_COUNTS = (
    "semigroup.construct.calls",
    "seqcalc.min_convolve.window_cells",
    "seqcalc.convolve.mults",
    "invariants.h_function.calls",
    "invariants.f_sequence.calls",
    "criteria.run_criterion.calls",
    "criteria.regroupings.kept",
    "cubical.oracle_eu.calls",
    "cubical.cells",
)

# whole-pass figures of the traced run: traced pass wall minus untraced pass
# wall, traced pass wall, and op time outside every layer span
TRACE_TOTALS = ("trace_overhead_s", "trace.wall_s", "trace.unattributed_s")

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import cuspidal.cli; "
                "print(time.perf_counter() - t)")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC)


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least ten of n samples beyond its rank."""
    for p in range(99, 0, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


def percentile(sorted_values, p: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = math.ceil(p * len(sorted_values) / 100)
    return sorted_values[rank - 1], len(sorted_values) - rank


def machine_record() -> dict:
    import numpy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
    }


def pin_one_cpu() -> int | None:
    """Keep this process and its children on one CPU, the one the probes measure.

    The vCPUs of a shared VM drift in speed independently, so a probe taken
    on one says little about a child process running on another.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def digest(spec, payload) -> str:
    """Short hash of an op's output: machine document bytes or a library result."""
    kind = spec[0]
    if kind == "cli":
        data = payload
    elif kind == "oracle_eu":
        oracle, minw = payload
        data = json.dumps([oracle.eu_h0, oracle.eu_hstar, oracle.min_weight,
                           oracle.table.min_level, oracle.table.rows, minw]).encode()
    else:
        data = json.dumps(list(payload.coeffs.values)).encode()
    return hashlib.sha256(data).hexdigest()[:20]


class Executor:
    """Runs op specs against the cuspidal package imported from ``src``."""

    def __init__(self, cuspidal, paths: dict, collections: dict, run_dir: str,
                 cold: bool = False):
        self.cuspidal = cuspidal
        self.paths = paths
        self.collections = collections
        self.run_dir = run_dir
        # cli ops in fresh processes; their spans come back through this file
        self.cold = cold
        self.child_trace_path = None
        self.child_rss_kib = 0

    def argv(self, spec) -> list[str]:
        _, argv, inp = spec
        return [self.paths[inp] if a == "FILE" else a for a in argv] + ["--format", "machine"]

    def __call__(self, spec):
        kind = spec[0]
        if kind == "cli":
            if self.cold:
                return self._cli_process(self.argv(spec))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cuspidal.cli.run(self.argv(spec))
            return code, out.getvalue().encode()
        if kind == "oracle_eu":
            _, literals, margin, j = spec
            c = self.collections[literals]
            cubical = self.cuspidal.cubical
            oracle = cubical.oracle_eu(c, j, box_margin=margin)
            minw = cubical.min_w_over_diagonal(c, j, box_margin=margin)
            return 0, (oracle, minw)
        if kind == "r_poly_series":
            _, literals, d = spec
            return 0, self.cuspidal.invariants.r_poly_series(self.collections[literals], d)
        raise ValueError(f"unknown op kind {kind!r}")

    def _cli_process(self, argv):
        if self.child_trace_path is None:
            cmd = [sys.executable, "-m", "cuspidal.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"),
                   self.child_trace_path, repr(perf_counter()), *argv]
        with open(os.path.join(self.run_dir, "child.err"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    env=child_env(), cwd=ROOT)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kib = max(self.child_rss_kib, usage.ru_maxrss)
        return proc.returncode, out


class Checker:
    """Exit code and output against the reference, plus independent identities."""

    def __init__(self, cuspidal, reference: dict):
        self.cuspidal = cuspidal
        self.reference = reference
        self._verdicts: dict = {}

    def __call__(self, spec, key: str, code: int, payload) -> str | None:
        """None when the op is correct, else the reason it failed."""
        ref = self.reference.get(key)
        if ref is None:
            return "no reference output"
        if code != ref[0]:
            return f"exit code {code}, reference {ref[0]}"
        dig = digest(spec, payload)
        if dig != ref[1]:
            return "output differs from the reference"
        if (key, dig) not in self._verdicts:
            self._verdicts[key, dig] = self._identities(spec, payload)
        return self._verdicts[key, dig]

    def collection(self, literals):
        cp = self.cuspidal
        return cp.CuspCollection(tuple(cp.resolve_semigroup(cp.parse_cusp(t)) for t in literals))

    def _oracle_agrees(self, c, j, e0, es, rows, minw) -> bool:
        inv = self.cuspidal.invariants
        h = inv.h_function(c)
        f = inv.f_sequence(c, window=max(2 * c.delta - 2, j))
        dl = c.delta
        formulas = j > 2 * dl - 2 or (e0 == h(j + 1) + dl - 1 - j and es == f[j] + dl - 1 - j)
        vanish = all(all(b == 0 for b in row[c.nu:]) for row in rows)
        return formulas and vanish and minw == dl - j - 1 + h(j + 1)

    def _identities(self, spec, payload) -> str | None:
        kind = spec[0]
        if kind == "oracle_eu":
            _, literals, _, j = spec
            oracle, minw = payload
            c = self.collection(literals)
            if not self._oracle_agrees(c, j, oracle.eu_h0, oracle.eu_hstar,
                                       oracle.table.rows, minw):
                return "oracle disagrees with the H/F formulas"
            return None
        if kind == "r_poly_series":
            _, literals, d = spec
            if self.cuspidal.invariants.r_poly(self.collection(literals), d) != payload:
                return "r_poly differs from r_poly_series"
            return None
        doc = json.loads(payload)
        command = doc["command"]
        if command == "catalog" and doc.get("check", {}).get("difference_matches") is False:
            return "catalog closed-form difference does not match"
        if command == "stability" and doc["h_equal"] is not True:
            return "H differs across regroupings"
        if command == "oracle":
            if doc["all_agree"] is not True:
                return "oracle all_agree is false"
            c = self.collection(doc["cusps"])
            for run in doc["runs"]:
                rows = [row[1:] for row in run["betti_rows"]]
                if not self._oracle_agrees(c, run["j"], run["eu_h0"], run["eu_hstar"],
                                           rows, run["min_w_diagonal"]):
                    return f"oracle disagrees with the H/F formulas at j={run['j']}"
        return None


class Workload:
    """One workload's inputs, set up from a seed, and its measured passes."""

    def __init__(self, name: str, seed: int, cuspidal, reference: dict, run_dir: str):
        self.name = name
        self.seed = seed
        self.cuspidal = cuspidal
        self.run_dir = run_dir
        self.checker = Checker(cuspidal, reference)
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.speed = Speed()
        self.setup_times = []
        self.setup_wall_times = []
        self.import_times = []
        for _ in range(SETUP_REPEATS):
            self._setup()
        self.keys = [workloads.op_key(spec) for spec in self.ops]
        self.executor = Executor(cuspidal, self.paths, self.collections, run_dir,
                                 cold=name == "cli_cold")

    def _setup(self):
        """Fresh-interpreter import time plus generating and writing the inputs.

        Kept at reference speed (see speed.py), from probes on either side.
        """
        self.speed.burst()
        started = perf_counter()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], env=child_env(),
                               cwd=ROOT, capture_output=True, text=True, check=True)
        import_s = float(probe.stdout)
        t0 = perf_counter()
        pool = workloads.load_pool()
        ops, formats = workloads.choose(self.name, self.seed, self.cuspidal, pool)
        input_dir = os.path.join(self.run_dir, "inputs")
        os.makedirs(input_dir, exist_ok=True)
        paths = {}
        for inp, fmt in formats.items():
            path = os.path.join(input_dir, workloads.input_name(inp, fmt))
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(workloads.render_input(inp, fmt))
            paths[inp] = path
        collections = {}
        for spec in ops:
            if spec[0] != "cli" and spec[1] not in collections:
                collections[spec[1]] = self.checker.collection(spec[1])
        wall = import_s + perf_counter() - t0
        ended = perf_counter()
        self.speed.burst()
        self.setup_wall_times.append(wall)
        self.setup_times.append(wall * self.speed.scale(started, ended))
        self.import_times.append(import_s)
        self.ops, self.paths, self.collections = ops, paths, collections

    def run_pass(self, tracer: Tracer | None = None, per_op: dict | None = None,
                 intervals: list | None = None) -> list[float]:
        """One pass over the op list; returns the op times.  Checks every op.

        With ``intervals``, probes the machine's speed around and (in-process)
        during every op and appends each op's (start, end).
        """
        times = []
        for spec, key in zip(self.ops, self.keys):
            if tracer is not None:
                tracer.active = True
                tracer.open("op")
            if intervals is not None:
                self.speed.burst()
                if not self.executor.cold:
                    self.speed.arm()
            t0 = perf_counter()
            code, payload = self.executor(spec)
            t1 = perf_counter()
            if intervals is not None:
                self.speed.disarm()
                intervals.append((t0, t1))
            if tracer is not None:
                if self.executor.cold and os.path.exists(self.executor.child_trace_path):
                    with open(self.executor.child_trace_path, encoding="utf-8") as fh:
                        tracer.add_child_trace(json.load(fh), exited=t1)
                    os.remove(self.executor.child_trace_path)
                tracer.close(end=t1)
                tracer.active = False
                if per_op is not None:
                    per_op[key].append(tracer.take_inclusive())
            elif per_op is not None:
                per_op[key].append({"op": t1 - t0})
            times.append(t1 - t0)
            self.attempted += 1
            reason = self.checker(spec, key, code, payload)
            if reason is not None:
                self.failures.append((key, reason))
        return times

    def warm_up(self):
        """One untimed pass that fills the package's caches (in-process only)."""
        if not self.executor.cold:
            self.run_pass()


def median_by_name(dicts: list[dict]) -> dict:
    names = set().union(*dicts) if dicts else set()
    return {n: statistics.median(d.get(n, 0.0) for d in dicts) for n in names}


def run_untraced(w: Workload, seconds: float):
    """Timed passes for the run's length; metrics from every op at reference speed.

    The machine a run shares drifts in speed by up to 1.7x for seconds to
    minutes at a time, so each op's wall time is scaled to reference speed
    by the probes taken around and during it (see speed.py); the wall-time
    figures go to the record beside them.  Every op of the list runs once
    per pass after an untimed warm-up pass.  The tail percentile is fixed
    per workload (the highest with ten of MIN_PASSES passes' ops beyond it)
    and every run makes at least MIN_PASSES passes, so its rank falls on the
    same ops whatever the number of passes the machine managed.
    """
    w.warm_up()
    pass_times, intervals = [], []
    t0 = perf_counter()
    while len(pass_times) < workloads.MIN_PASSES[w.name] or perf_counter() - t0 < seconds:
        pass_times.append(w.run_pass(intervals=intervals))
    w.speed.burst()
    scaled = [w.speed.at_reference(a, b) for a, b in intervals]
    walls = [b - a for a, b in intervals]
    p = tail_percentile(len(w.ops) * workloads.MIN_PASSES[w.name])
    tail, beyond = percentile(sorted(scaled), p)
    wall_tail, _ = percentile(sorted(walls), p)
    if w.executor.cold:
        rss_kib = w.executor.child_rss_kib
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ops_per_s": len(scaled) / sum(scaled),
        "latency_p50_ms": statistics.median(scaled) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_kib / 1024,
        "setup_s": statistics.median(w.setup_times),
    }
    wall = {
        "ops_per_s": len(walls) / sum(walls),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_tail_ms": wall_tail * 1e3,
        "setup_s": statistics.median(w.setup_wall_times),
    }
    keys = w.keys * len(pass_times)
    per_op = defaultdict(list)
    for key, t in zip(keys, scaled):
        per_op[key].append(t)
    detail = {
        "passes": len(pass_times),
        "ops_per_pass": len(w.ops),
        "timed_ops": len(scaled),
        "tail_percentile": p,
        "tail_ops_beyond": beyond,
        "wall_clock": wall,
        "probes": len(w.speed.durations),
        "probe_median_s": statistics.median(w.speed.durations),
        "setup_runs_s": w.setup_times,
        "setup_wall_runs_s": w.setup_wall_times,
        "setup_import_s": w.import_times,
        "op_median_s": {k: statistics.median(v) for k, v in per_op.items()},
        "pass_times_s": pass_times,
    }
    lines = [
        "at reference speed (wall clock in brackets):",
        f"ops_per_s {metrics['ops_per_s']:.4f} 1/s ({wall['ops_per_s']:.4f}; "
        f"{len(scaled)} ops in {len(pass_times)} passes of {len(w.ops)})",
        f"latency_p50_ms {metrics['latency_p50_ms']:.4f} ms ({wall['latency_p50_ms']:.4f})",
        f"latency_tail_ms {metrics['latency_tail_ms']:.4f} ms ({wall['latency_tail_ms']:.4f}; "
        f"p{p}: {beyond} of {len(scaled)} ops beyond it)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MiB"
        + (" (largest child)" if w.executor.cold else ""),
        f"setup_s {metrics['setup_s']:.4f} s ({wall['setup_s']:.4f}; median of {SETUP_REPEATS})",
        f"machine speed: median probe {detail['probe_median_s'] * 1e6:.1f} us, "
        f"reference {REFERENCE_PROBE_S * 1e6:.1f} us ({len(w.speed.durations)} probes)",
    ]
    return metrics, detail, lines


def run_traced(w: Workload, seconds: float, trace_path: str):
    tracer = Tracer()
    if w.executor.cold:
        w.executor.child_trace_path = os.path.join(w.run_dir, "child_trace.json")
    w.warm_up()
    per_op = defaultdict(list)
    untraced_walls, traced_walls, selfs, counts = [], [], [], []
    t0 = perf_counter()
    while not traced_walls or perf_counter() - t0 < seconds:
        child_trace_path, w.executor.child_trace_path = w.executor.child_trace_path, None
        untraced_walls.append(sum(w.run_pass()))
        w.executor.child_trace_path = child_trace_path
        tracer.install()
        try:
            traced_walls.append(sum(w.run_pass(tracer, per_op)))
        finally:
            tracer.uninstall()
        self_time, count = tracer.take()
        selfs.append(self_time)
        counts.append(count)
    tracer.dump(trace_path, {"workload": w.name, "seed": w.seed})

    self_med = median_by_name(selfs)
    metrics = {name: self_med.get(span, 0.0) for name, span in LAYER_TIMES.items()}
    metrics.update({name: counts[0].get(name, 0) for name in LAYER_COUNTS})
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    layer_self = sum(v for k, v in self_med.items() if k != "op")
    metrics["trace_overhead_s"] = traced - untraced
    metrics["trace.wall_s"] = traced
    metrics["trace.unattributed_s"] = self_med.get("op", 0.0)
    repeat = all(c == counts[0] for c in counts)
    op_inclusive = {k: median_by_name(v) for k, v in per_op.items()}
    detail = {
        "passes": len(traced_walls),
        "ops_per_pass": len(w.ops),
        "untraced_walls_s": untraced_walls,
        "traced_walls_s": traced_walls,
        "self_time_s": self_med,
        "counts": counts[0],
        "counts_repeat": repeat,
        "op_inclusive_s": op_inclusive,
    }
    lines = [f"{name} {metrics[name]:.6f} s" for name in LAYER_TIMES]
    lines += [f"{name} {metrics[name]} count" for name in LAYER_COUNTS]
    lines += [
        f"trace_overhead_s {metrics['trace_overhead_s']:.6f} s "
        f"(traced pass {traced:.4f} s, untraced pass {untraced:.4f} s, "
        f"{len(traced_walls)} pass pairs)",
        f"self times: layers {layer_self:.4f} s + unattributed "
        f"{metrics['trace.unattributed_s']:.4f} s = traced pass {traced:.4f} s; "
        f"unattributed is {'within' if metrics['trace.unattributed_s'] <= abs(traced - untraced) else 'above'} "
        "the trace overhead",
        f"counts repeat across traced passes: {'yes' if repeat else 'NO'}",
    ]
    lines += baseline_rows(w, op_inclusive, counts[0])
    return metrics, detail, lines


def baseline_rows(w: Workload, op_inclusive: dict, counts: dict) -> list[str]:
    """The ROADMAP baseline-table rows this workload covers, measured (per pass)."""
    def inclusive(spec):
        return op_inclusive.get(workloads.op_key(spec), {})

    rows = []
    if w.name == "highdeg":
        c601 = (("[58]", "[2_57]", "[2]"), 60)
        check = inclusive(("cli", ("check", "FILE"), c601))
        coh = inclusive(("cli", ("cohomology", "FILE", "--d", "60", "--all-spinc"), c601))
        rps = inclusive(("r_poly_series", c601[0], 60))
        inv = inclusive(("cli", ("invariants", "FILE"), (("[60]", "[60]"), None)))
        rows.append(
            "baseline C(60,1), delta = 1711 (check): build {:.4f} / H {:.4f} / F {:.4f} / "
            "4 criteria {:.4f} s (H and F summed over the criteria's calls)".format(
                check.get("cli.load", 0.0), check.get("invariants.h_function", 0.0),
                check.get("invariants.f_sequence", 0.0), check.get("criteria.check", 0.0)))
        rows.append("baseline C(60,1): spinc_report for all 60 indices {:.4f} s".format(
            coh.get("invariants.spinc_report", 0.0)))
        rows.append("baseline C(60,1): r_poly_series {:.4f} s".format(
            rps.get("invariants.r_poly_series", 0.0)))
        rows.append("baseline [60] [60]: H by min-plus {:.4f} s".format(
            inv.get("invariants.h_function", 0.0)))
    elif w.name == "oracle":
        total = sum(v.get("cubical.oracle_eu", 0.0) for v in op_inclusive.values())
        calls = counts.get("cubical.oracle_eu.calls", 0)
        rows.append(f"baseline oracle_eu: {calls} calls per pass take {total:.4f} s, "
                    f"{total / max(calls, 1) * 1e3:.3f} ms per call")
    elif w.name == "cli_cold":
        for key, v in sorted(op_inclusive.items()):
            rows.append(f"baseline {key}: {v.get('op', 0.0):.4f} s wall, interpreter start "
                        f"{v.get('startup.interpreter', 0.0):.4f} s, "
                        f"import {v.get('startup.import', 0.0):.4f} s")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cuspidal", "__init__.py")):
        print(f"error: no cuspidal package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    machine = machine_record()
    machine["pinned_cpu"] = pin_one_cpu()
    started = time.time()
    t0 = perf_counter()
    import cuspidal
    import cuspidal.cli  # noqa: F401  (the CLI ops call cuspidal.cli.run)
    inprocess_import_s = perf_counter() - t0

    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        reference = json.load(fh)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, "runs", tag)
    os.makedirs(run_dir, exist_ok=True)
    try:
        w = Workload(args.workload, args.seed, cuspidal, reference, run_dir)
        if args.trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_path = os.path.join(WORK, "traces", tag + ".json")
            metrics, detail, lines = run_traced(w, args.seconds, trace_path)
            units = {name: "s" for name in LAYER_TIMES}
            units.update({name: "count" for name in LAYER_COUNTS})
            units.update({name: "s" for name in TRACE_TOTALS})
        else:
            metrics, detail, lines = run_untraced(w, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = len(w.failures)
    result = {
        "correct": failed == 0,
        "attempted": w.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "started_at": started,
        "machine": machine,
        "inprocess_import_s": inprocess_import_s,
        "fail_ratio": failed / w.attempted,
        "failures": w.failures[:20],
        "result": result,
        "detail": detail,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    m = record["machine"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"python {m['python']}, numpy {m['numpy']}, nproc {m['nproc']}, "
          f"ram {m['ram_gib']} GiB")
    for line in lines:
        print(line)
    print(f"fail_ratio {record['fail_ratio']:.6f} ({failed} of {w.attempted} ops failed)")
    for key, reason in w.failures[:5]:
        print(f"FAILED {key}: {reason}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
