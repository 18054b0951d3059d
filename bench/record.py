#!/usr/bin/env python3
"""Record the benchmark's input pool and reference outputs.

Usage (from the repository root):

    python3 bench/record.py [--pool]

Runs every op any seed can produce (``workloads.universe``) once, in-process,
and writes ``data/reference.json``: op key -> [exit code, output hash].  The
reference is the output of the commit it was recorded at; the machine output
must stay byte-identical, so it is not re-recorded to make a change pass.
``--pool`` also regenerates ``data/pool.json``, the random admissible
collections of the screen workload, from a fixed RNG seed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import sys

import run
import workloads

POOL_SEED = 0xC05A17
VARIANTS = 6
MAX_CUSP_DELTA = 21
MAX_ENTRIES = 6
# candidate slots (degree d, 2*delta = (d-1)(d-2)) and non-candidate slots
# (delta, d) run with --force
CANDIDATE_DEGREES = (5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10)
NON_CANDIDATES = ((8, 6), (8, 6), (12, 6), (12, 6), (16, 7), (16, 7),
                  (20, 7), (20, 7), (24, 8), (24, 8), (28, 8), (28, 8))


def sequences_by_delta(cuspidal) -> dict[int, list[tuple[int, ...]]]:
    """Admissible multiplicity sequences of at most MAX_ENTRIES entries, by delta."""
    out: dict[int, list] = {}

    def extend(prefix, top, delta):
        if prefix and cuspidal.is_admissible(tuple(prefix)):
            out.setdefault(delta, []).append(tuple(prefix))
        if len(prefix) == MAX_ENTRIES:
            return
        for v in range(top, 1, -1):
            nd = delta + v * (v - 1) // 2
            if nd <= MAX_CUSP_DELTA:
                extend(prefix + [v], v, nd)

    extend([], 7, 0)
    return out


def random_collection(cuspidal, rng, by_delta, total: int) -> tuple[str, ...]:
    """Random admissible collection of 2..4 cusps, total delta, <= MAX_ENTRIES entries."""
    while True:
        nu = rng.choice((2, 3, 4))
        cuts = sorted(rng.sample(range(1, total), nu - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
        if any(p not in by_delta for p in parts):
            continue
        seqs = [rng.choice(by_delta[p]) for p in parts]
        if sum(len(s) for s in seqs) > MAX_ENTRIES:
            continue
        return tuple(sorted((cuspidal.MultSeq(s).literal() for s in seqs), reverse=True))


def make_pool(cuspidal) -> dict:
    rng = random.Random(POOL_SEED)
    by_delta = sequences_by_delta(cuspidal)
    slots = []

    def variants(total):
        found = []
        while len(found) < VARIANTS:
            c = random_collection(cuspidal, rng, by_delta, total)
            if c not in found:
                found.append(c)
        return [list(c) for c in found]

    for d in CANDIDATE_DEGREES:
        slots.append({"d": d, "candidate": True, "variants": variants((d - 1) * (d - 2) // 2)})
    for delta, d in NON_CANDIDATES:
        slots.append({"d": d, "candidate": False, "variants": variants(delta)})
    return {"seed": POOL_SEED, "screen": slots}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", action="store_true", help="regenerate data/pool.json")
    args = parser.parse_args()
    sys.path.insert(0, run.SRC)
    import cuspidal
    import cuspidal.cli  # noqa: F401

    if args.pool:
        pool = make_pool(cuspidal)
        with open(workloads.POOL_PATH, "w", encoding="utf-8") as fh:
            fh.write('{"seed": %d, "screen": [\n' % pool["seed"])
            fh.write(",\n".join(json.dumps(slot) for slot in pool["screen"]))
            fh.write("\n]}\n")
    pool = workloads.load_pool()
    run_dir = os.path.join(run.WORK, "record")
    os.makedirs(os.path.join(run_dir, "inputs"), exist_ok=True)
    checker = run.Checker(cuspidal, {})
    reference = {}
    for name in workloads.WORKLOADS:
        specs = workloads.universe(name, cuspidal, pool)
        paths, collections = {}, {}
        for spec in specs:
            if spec[0] == "cli" and spec[2] is not None and spec[2] not in paths:
                path = os.path.join(run_dir, "inputs", workloads.input_name(spec[2], "txt"))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(workloads.render_input(spec[2], "txt"))
                paths[spec[2]] = path
            elif spec[0] != "cli" and spec[1] not in collections:
                collections[spec[1]] = checker.collection(spec[1])
        executor = run.Executor(cuspidal, paths, collections, run_dir)
        for spec in specs:
            key = workloads.op_key(spec)
            code, payload = executor(spec)
            reason = checker._identities(spec, payload)
            if reason is not None:
                raise SystemExit(f"{key}: {reason}")
            reference[key] = [code, run.digest(spec, payload)]
        print(f"{name}: {len(specs)} ops recorded", flush=True)
    shutil.rmtree(run_dir)
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}"
                            for k, v in sorted(reference.items())))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
