"""Operation lists of the four benchmark workloads.

A workload is a list of *slots*.  Each slot holds one or more alternatives,
and each alternative is a tuple of operation specs.  A seed picks one
alternative per slot, shuffles the resulting ops and chooses the file format
(text or JSON) of every candidate file, so the same seed always yields the
same inputs while every seed does about the same amount of work.  The
reference outputs in ``data/reference.json`` cover every alternative of
every slot (``universe``), so any seed can be checked.

Op specs are plain tuples:

* ``("cli", argv, inp)``: a ``cuspidal`` command; ``argv`` holds ``FILE``
  where the candidate file path goes, ``inp`` is ``(literals, degree)`` or
  None;
* ``("oracle_eu", literals, margin, j)``: ``oracle_eu`` plus
  ``min_w_over_diagonal`` on one (collection, j, box margin);
* ``("r_poly_series", literals, d)``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "data", "pool.json")

WORKLOADS = ("screen", "highdeg", "oracle", "cli_cold")

# Every timed run makes at least this many passes over its op list, and its
# tail percentile is the highest with ten ops beyond it in this many passes
# (see run.py), so it is the same percentile whatever the machine speed.
# highdeg and cli_cold repeat a few ops of very different cost, so their
# samples come in clusters, one per op: 3 passes put the tail (p84, p72) in
# the middle of one op's cluster (the 4th slowest of 22; oracle --sweep, 2nd
# slowest of 6), where 2 and 4 put it on the edge between two ops and the
# value jumped between them from run to run.
MIN_PASSES = {"screen": 2, "highdeg": 3, "oracle": 2, "cli_cold": 3}

# criterion-9 style oracle sweep: every collection of 1..3 cusps over these
# types whose default box has at most 5000 points, at margins 0..2
ORACLE_DELTAS = {"[2]": 1, "[2_2]": 2, "[3]": 3, "[3,2]": 4}
ORACLE_MARGINS = (0, 1, 2)
# each (collection, margin) keeps about 1/ORACLE_SLICE of its j values per
# pass, one j drawn from each of that many contiguous strata
ORACLE_SLICE = 6
# candidates run through `oracle --j` in-process for full Betti tables
ORACLE_CLI = (("[3]", "[2_2]", "[2]"), ("[3,2]", "[2]", "[2]"), ("[2_2]", "[2_2]", "[2_2]"))


def op_key(spec) -> str:
    """Reference key: the op with its input, independent of file path and format."""
    kind = spec[0]
    if kind == "cli":
        _, argv, inp = spec
        key = "cli " + " ".join(argv)
        if inp is not None:
            literals, degree = inp
            key += " | " + " ".join(literals)
            if degree is not None:
                key += f" | degree {degree}"
        return key
    if kind == "oracle_eu":
        _, literals, margin, j = spec
        return f"oracle_eu {' '.join(literals)} | margin {margin} j {j}"
    if kind == "r_poly_series":
        _, literals, d = spec
        return f"r_poly_series {' '.join(literals)} | d {d}"
    raise ValueError(f"unknown op kind {kind!r}")


def _lits(ms_list) -> tuple[str, ...]:
    return tuple(ms.literal() for ms in ms_list)


def _catalog_argv(entry) -> tuple[str, ...]:
    argv = ("catalog", "--family", entry.family)
    if entry.family == "C":
        argv += ("--d", str(entry.params[0]), "--u", str(entry.params[1]))
    elif entry.params:
        argv += ("--l", str(entry.params[0]))
    return argv + ("--check",)


def _collection_ops(inp, d, force=False, stability=True):
    """check, invariants, cohomology --all-spinc (and stability) on one input."""
    check = ("check", "FILE", "--d", str(d)) + (("--force",) if force else ())
    ops = [
        ("cli", check, inp),
        ("cli", ("invariants", "FILE"), inp),
        ("cli", ("cohomology", "FILE", "--d", str(d), "--all-spinc"), inp),
    ]
    if stability:
        ops.append(("cli", ("stability", "FILE"), inp))
    return tuple(ops)


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _screen_slots(cuspidal, pool):
    slots = []
    for entry in cuspidal.catalog_entries(12):
        inp = (_lits(entry.cusps), entry.d)
        ops = _collection_ops(inp, entry.d, stability=entry.d <= 8)
        slots.append([ops + (("cli", _catalog_argv(entry), None),)])
    # stability runs on the fixed catalog entries only: its cost varies
    # several-fold between random collections of one slot, which would make
    # the tail depend on the seed
    for slot in pool["screen"]:
        alternatives = []
        for variant in slot["variants"]:
            inp = (tuple(variant), slot["d"])
            alternatives.append(_collection_ops(
                inp, slot["d"], force=not slot["candidate"], stability=False))
        slots.append(alternatives)
    return slots


def _highdeg_slots(cuspidal):
    def entry_input(entry):
        return (_lits(entry.cusps), entry.d)

    c601 = entry_input(cuspidal.catalog("C", d=60, u=1))
    d28 = entry_input(cuspidal.catalog("D", l=28))
    e19 = entry_input(cuspidal.catalog("E", l=19))
    one = [
        # the ROADMAP baseline rows at d = 60
        ("cli", ("cohomology", "FILE", "--d", "60", "--all-spinc"), c601),
        ("r_poly_series", c601[0], 60),
        ("cli", ("check", "FILE"), c601),
        # H of two large cusps: the min-plus window is the memory peak
        ("cli", ("invariants", "FILE"), (("[60]", "[60]"), None)),
        ("cli", ("check", "FILE"), d28),
        ("cli", ("invariants", "FILE"), d28),
        ("cli", ("check", "FILE"), e19),
        ("cli", ("invariants", "FILE"), e19),
        # long multiplicity sequences: un-blowup / blowup chains
        ("cli", ("invariants", "FILE"), (("[40,20_2,10_2,5_2,2_2]",), None)),
        ("cli", ("invariants", "FILE"), (("[24_3,12_2,6_3,3_2]",), None)),
        ("cli", ("invariants", "FILE"), (("(20,21)(2,1)",), None)),
        # regroupings of multisets below the cap
        ("cli", ("stability", "FILE"), (("[6,3]", "[4,2]", "[3,2]", "[2_2]"), None)),
        ("cli", ("stability", "FILE"), (("[6]", "[4,2]", "[3,2]", "[2_2]", "[2]"), None)),
    ]
    # C(60,u) all have delta = 1711; u picks the double-point chains
    one += [("cli", ("invariants", "FILE"), entry_input(cuspidal.catalog("C", d=60, u=u)))
            for u in range(2, 8)]
    # one large-Frobenius semigroup written three equivalent ways; all go
    # through the generator sieve and the closure check on every call
    one += [("cli", ("invariants", "FILE"), ((lit,), None))
            for lit in ("<60,61>", "<61,60>", "(60,61)")]
    # every seed runs every op (the seed picks their order and file formats):
    # with 22 ops of very different cost, a seed-chosen subset would move the
    # median and the tail from seed to seed
    return [[(op,)] for op in one]


def oracle_collections() -> list[tuple[str, ...]]:
    """The criterion-9 collections: default box at most 5000 points."""
    out = []
    for nu in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(sorted(ORACLE_DELTAS), nu):
            size = 1
            for lit in combo:
                size *= 2 * ORACLE_DELTAS[lit] + 2
            if size <= 5000:
                out.append(combo)
    return out


def _oracle_slots():
    slots = []
    for combo in oracle_collections():
        n = 2 * sum(ORACLE_DELTAS[lit] for lit in combo) - 1
        k = max(1, round(n / ORACLE_SLICE))
        bounds = [round(i * n / k) for i in range(k + 1)]
        for margin in ORACLE_MARGINS:
            for lo, hi in zip(bounds, bounds[1:]):
                slots.append([(("oracle_eu", combo, margin, j),) for j in range(lo, hi)])
    for combo in ORACLE_CLI:
        n = 2 * sum(ORACLE_DELTAS[lit] for lit in combo) - 1
        for margin in (0, 1):
            slots.append([
                (("cli", ("oracle", "FILE", "--j", str(j), "--box-margin", str(margin)),
                  (combo, None)),)
                for j in range(n)
            ])
    return slots


def _cli_cold_slots():
    octic = (("[6]", "[2_4]", "[2_2]"), 8)
    c401 = (("[38]", "[2_37]", "[2]"), 40)
    quintic = (("[3]", "[2_2]", "[2]"), 5)
    quartic = (("[2]", "[2]", "[2]"), None)
    commands = [
        ("cli", ("check", "FILE"), octic),
        ("cli", ("cohomology", "FILE", "--d", "40", "--all-spinc"), c401),
        ("cli", ("oracle", "FILE", "--sweep"), quintic),
        ("cli", ("stability", "FILE"), octic),
        ("cli", ("invariants", "FILE"), quartic),
        ("cli", ("catalog", "--family", "C", "--d", "9", "--u", "2", "--check"), None),
    ]
    # each command twice per pass, so a pass has enough ops for a tail
    return [[(op,)] for op in commands for _ in range(2)]


def slots(workload: str, cuspidal, pool: dict):
    if workload == "screen":
        return _screen_slots(cuspidal, pool)
    if workload == "highdeg":
        return _highdeg_slots(cuspidal)
    if workload == "oracle":
        return _oracle_slots()
    if workload == "cli_cold":
        return _cli_cold_slots()
    raise ValueError(f"unknown workload {workload!r}")


def universe(workload: str, cuspidal, pool: dict):
    """Every op spec any seed can produce for the workload."""
    seen = {}
    for slot in slots(workload, cuspidal, pool):
        for alternative in slot:
            for spec in alternative:
                seen.setdefault(op_key(spec), spec)
    return list(seen.values())


def choose(workload: str, seed: int, cuspidal, pool: dict):
    """The seed's op list (in run order) and its file format per input."""
    rng = random.Random(f"{workload}:{seed}")
    ops = []
    for slot in slots(workload, cuspidal, pool):
        ops.extend(rng.choice(slot))
    rng.shuffle(ops)
    formats = {}
    for spec in ops:
        if spec[0] == "cli" and spec[2] is not None and spec[2] not in formats:
            formats[spec[2]] = rng.choice(("txt", "json"))
    return ops, formats


def render_input(inp, fmt: str) -> str:
    literals, degree = inp
    if fmt == "json":
        doc = {"cusps": list(literals)}
        if degree is not None:
            doc["degree"] = degree
        return json.dumps(doc) + "\n"
    lines = [] if degree is None else [f"degree: {degree}"]
    return "\n".join(lines + [" ".join(literals)]) + "\n"


def input_name(inp, fmt: str) -> str:
    digest = hashlib.sha256(repr(inp).encode()).hexdigest()[:12]
    return f"{digest}.{fmt}"
