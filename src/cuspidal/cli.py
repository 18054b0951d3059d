"""Command-line front end.

Subcommands: invariants, check, cohomology, catalog, oracle, stability.
When argv[0] names one, ``run`` parses with that subcommand's parser alone,
built once per process and kept for later runs; any other argv (``-h``,
none, an unknown command), or one with arguments left over, goes to
``build_parser()``, which has every subcommand, so help and refusals read
the same either way.  ``cmd_<name>`` computes a report and reads the exit
code from it; ``run`` adds ``schema_version`` (1) and ``command``.
``--format`` is a subcommand's option and goes after its name:
``cuspidal --format machine check FILE`` is refused as an invalid choice.
``--format machine`` prints the document as one JSON object (integers
only): the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``, written
by ``_dumps`` through json's C encoder, built once per item separator: each
row of ints, bools and None, and each list of such rows, is one encoder
call, whose text is checked before it is used.
``--format text`` renders it as tables with ``text_<name>``, which reads
only the document (and, for the oracle, ``--sweep``).  Exit codes: 0 all
checks pass, 1 a criterion failed, 2 input or validation error, 3 resource
cap exceeded.

Candidate files are UTF-8 text, either one or more whitespace-separated cusp
literals per line with optional ``degree: N`` line and ``#`` comments, or a
JSON document with fields ``degree`` and ``cusps``.  Every spelling of a
cusp reads its delta in closed form, so ``build_collection`` caps their sum
before any chain runs; it is the one delta check.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import os
import re
import sys
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii

from . import criteria, cubical, invariants
from .invariants import CapExceeded, CuspCollection
from .semigroup import SMOOTH, Cusp, MultSeq, SemigroupError, parse_cusp

SCHEMA_VERSION = 1

_DEGREE_LINE = re.compile(r"degree\s*[:=]\s*(\d+)", re.IGNORECASE)


# the largest --window beyond 2*delta - 2 that `invariants` tabulates
_MAX_WINDOW = 1_000_000

# the largest degree any command accepts: R, the Spin^c table and the
# criteria all grow with d whatever delta is (R has d - 2 terms)
_MAX_DEGREE = 2_000

# the largest delta any command accepts, that of a candidate of degree
# _MAX_DEGREE: the counting functions, H and q all grow with delta
_MAX_DELTA = (_MAX_DEGREE - 1) * (_MAX_DEGREE - 2) // 2


def _figure(n: int) -> str:
    """``str(n)``, or n's digit count where int's string digit limit refuses it."""
    try:
        return str(n)
    except ValueError:
        k = int(math.log10(n))  # the float may round a run of nines up by one
        return f"a {k + (n >= 10 ** k)}-digit number"


def _cap_degree(d: int | None) -> None:
    if d is not None and d > _MAX_DEGREE:
        raise CapExceeded(f"degree too large: {_figure(d)} exceeds cap {_MAX_DEGREE}")


def _cap_delta(delta: int) -> None:
    if delta > _MAX_DELTA:
        raise CapExceeded(f"delta too large: {_figure(delta)} exceeds cap {_MAX_DELTA}")


def load_candidate_file(path: str) -> tuple[list[str], list[Cusp], int | None]:
    """Return the cusp literals, each parsed once, and the optional declared degree."""
    try:
        # utf-8-sig drops a leading byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also a number past int's digit limit; too deep a nesting
            raise ValueError(f"{path}: bad JSON: {exc}") from exc
        cusps = doc.get("cusps")
        if not isinstance(cusps, list) or not all(isinstance(c, str) for c in cusps):
            raise ValueError(f"{path}: field 'cusps' must be a list of literals")
        degree = doc.get("degree")
        # bool is an int subclass; the text grammar takes digits only
        if degree is not None and (type(degree) is not int or degree < 0):
            raise ValueError(f"{path}: field 'degree' must be a nonnegative integer")
        located = [(f"{path}: cusps[{i}]", lit) for i, lit in enumerate(cusps)]
    else:
        located = []
        degree = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            m = _DEGREE_LINE.fullmatch(line)
            if m:
                try:
                    degree = int(m.group(1))
                except ValueError:  # past int's digit limit
                    raise ValueError(f"{path}:{lineno}: bad degree line {line!r}") from None
                continue
            located += [(f"{path}:{lineno}: token {col + 1}", token)
                        for col, token in enumerate(line.split())]
    if not located:
        raise ValueError(f"{path}: no cusp literals found")
    parsed = []
    for where, lit in located:
        try:
            parsed.append(parse_cusp(lit))
        except SemigroupError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        if parsed[-1] == SMOOTH:  # a generator literal such as <1,5>
            raise ValueError(f"{where}: bad cusp {lit!r}: smooth point is not a cusp")
    return [lit for _, lit in located], parsed, degree


def build_collection(cusps: list[Cusp]) -> CuspCollection:
    # a collection's delta is the sum of its cusps', each read in closed form
    _cap_delta(sum(cusp.delta for cusp in cusps))
    return CuspCollection(cusps)


# ---------------------------------------------------------------------------
# commands: each computes one report and reads its exit code from it


# the H/F table's columns, in print order (the machine document sorts its keys)
_HF_COLUMNS = ("k", "H(k+1)", "F(k)", "H(k+1)-F(k)")


def _load(args, parsed) -> tuple[list[str], CuspCollection, int | None]:
    """Build args.file, parsed by load_candidate_file, and resolve its degree.

    delta is capped first, by build_collection, from the literals alone.
    The degree is --d, else the file's, else the candidate degree; whichever
    its source, it must lie in [0, _MAX_DEGREE].
    """
    literals, cusps, file_degree = parsed
    c = build_collection(cusps)
    d = args.d if args.d is not None else file_degree
    if d is None:
        d = invariants.candidate_degree(c)
    if d is not None and d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    _cap_degree(d)
    return literals, c, d


def _criteria_doc(reports) -> list[dict]:
    return [{
        "criterion": rep.criterion,
        "rows": [[r.j, r.lhs, r.rhs, r.ok] for r in rep.rows],
        "passed": rep.passed,
        "difference": rep.difference,
    } for rep in reports]


def _catalog_ok(check: dict) -> bool:
    return check["all_passed"] and check["difference_matches"] is not False


def _stability_ok(doc: dict) -> bool:
    return (doc["h_equal"] and doc["bl_constant"] is not False
            and len(doc["eu_h0_values"]) <= 1)


def cmd_invariants(args) -> tuple[dict, int]:
    if args.window is not None and args.window < 0:
        raise ValueError(f"--window must be nonnegative, got {args.window}")
    literals, c, d = _load(args, load_candidate_file(args.file))
    window = args.window if args.window is not None else 2 * c.delta - 2
    cap = max(2 * c.delta - 2, _MAX_WINDOW)
    if window > cap:
        raise CapExceeded(f"window too large: {window} exceeds cap {cap}")
    h = invariants.h_function(c)
    ks = list(range(window + 1))
    hrow = h.values(1, window + 1)
    frow = list(invariants.f_sequence(c, window=window).window(window))
    doc = {
        "cusps": literals,
        "multiplicity_sequences": [ms.literal() for ms in c.multseqs],
        "semigroups": [s.literal() for s in c.cusps],
        "nu": c.nu,
        "deltas": list(c.deltas),
        "delta": c.delta,
        "degree": d,
        "candidate_degree": invariants.candidate_degree(c),
        "is_candidate": d is not None and invariants.is_candidate(c, d),
        "p_g": invariants.geometric_genus(d) if d is not None else None,
        "alexander": list(c.alexander_product.coeffs.window(2 * c.delta)),
        "q": list(invariants.q_coefficients(c).window(2 * c.delta - 2)),
        "table": dict(zip(_HF_COLUMNS, (ks, hrow, frow, list(map(operator.sub, hrow, frow))))),
        "r": None if d is None or d < 3 else {
            "d": d,
            "terms": [[j, e, v] for j, (e, v) in enumerate(invariants._r_terms(c, d))],
        },
    }
    return doc, 0


def cmd_check(args) -> tuple[dict, int]:
    literals, c, d = _load(args, load_candidate_file(args.file))
    if d is None:
        raise ValueError(
            "no degree: 2*delta has no candidate solution; pass --d "
            "(with --force to compute for a non-candidate degree)")
    if not args.force:
        invariants.require_candidate(c, d, "; pass --force to compute anyway")
    names = args.only.split(",") if args.only else list(criteria.ALL_CRITERIA)
    reports = [criteria.run_criterion(name.strip(), c, d) for name in names]
    doc = {
        "cusps": literals,
        "delta": c.delta,
        "degree": d,
        # unforced, only a candidate gets this far
        "is_candidate": not args.force or invariants.is_candidate(c, d),
        "forced": bool(args.force),
        "criteria": _criteria_doc(reports),
        "all_passed": all(rep.passed for rep in reports),
    }
    return doc, 0 if doc["all_passed"] else 1


def cmd_cohomology(args) -> tuple[dict, int]:
    literals, c, d = _load(args, load_candidate_file(args.file))
    if d is None:
        raise ValueError("cohomology needs a degree: pass --d")
    if d < 1:
        raise ValueError(f"degree must be positive, got {d}")
    rows = []
    for a in [args.a] if args.a is not None else range(d):
        rep = invariants.spinc_report(c, d, a)
        rows.append({
            "a": a,
            "eu_h0": rep.eu_h0,
            "eu_hstar": rep.eu_hstar,
            "reflected_a": (-a) % d,
            "terms": [list(t) for t in rep.terms],
        })
    doc = {
        "cusps": literals,
        "delta": c.delta,
        "degree": d,
        "is_candidate": invariants.is_candidate(c, d),
        "congruence": "rows sum over j = a (mod d); under the reflected "
                      "labeling j = -a (mod d) the same row belongs to "
                      "index a' = (-a) mod d",
        "rows": rows,
    }
    return doc, 0


def cmd_catalog(args) -> tuple[dict, int]:
    _cap_degree(criteria.catalog_degree(args.family, d=args.d, l=args.l))
    entry = criteria.catalog(args.family, d=args.d, u=args.u, l=args.l)
    doc = {
        "family": entry.family,
        "label": entry.label,
        "degree": entry.d,
        "params": list(entry.params),
        "cusps": [ms.literal() for ms in entry.cusps],
        "newton_pairs": [np_.literal() for np_ in entry.newton],
        "delta": sum(ms.delta for ms in entry.cusps),
    }
    if not args.check:
        return doc, 0
    c = entry.collection()
    reports = [criteria.run_criterion(name, c, entry.d) for name in criteria.ALL_CRITERIA]
    e0, es = invariants.eu_canonical(c, entry.d)
    try:
        expected = criteria.expected_eu_difference(entry)
    except ValueError:
        expected = None
    doc["check"] = {
        "criteria": _criteria_doc(reports),
        "all_passed": all(rep.passed for rep in reports),
        "eu_h0": e0,
        "eu_hstar": es,
        "difference": e0 - es,
        "expected_difference": expected,
        "difference_matches": None if expected is None else expected == e0 - es,
    }
    return doc, 0 if _catalog_ok(doc["check"]) else 1


def cmd_oracle(args) -> tuple[dict, int]:
    if args.cap < 1:  # no box has fewer than one cell
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    literals, cusps, _ = load_candidate_file(args.file)
    c = build_collection(cusps)
    try:
        dims = (tuple(int(tok) for tok in args.box.split(","))
                if args.box is not None else None)
    except ValueError:
        raise ValueError(f"bad --box {args.box!r}") from None
    if args.j is None and not args.sweep:
        raise ValueError("oracle needs --j or --sweep")
    if args.j is not None and args.j < -1:  # the min-W diagonal slice |x| = j+1 is negative
        raise ValueError(f"--j must be at least -1, got {args.j}")
    window = 2 * c.delta - 2
    js = range(window + 1) if args.sweep else [args.j]
    box = cubical._box(c, args.box_margin, dims)
    if args.sweep:  # --cap bounds one box; a sweep builds one per j
        points = math.prod(m + 1 for m in box)
        if len(js) * points > args.cap:
            raise CapExceeded(f"sweep too large: {len(js)} runs of {points} lattice "
                              f"points exceed cap {args.cap}")
    h = invariants.h_function(c)
    runs = []
    for j in js:
        # the cap is checked before the min-W scan, whose cost grows with the box
        oracle = cubical.oracle_eu(c, j, dims=box, cap=args.cap)
        in_window = 0 <= j <= window
        # H(j+1) + delta - 1 - j is both eu_h0 and the minimum of W over
        # |x| = j+1; the normalised F summand F(j) + delta - 1 - j is q_j
        h0 = h(j + 1) + c.delta - 1 - j
        run = {
            "j": j,
            "min_weight": oracle.min_weight,
            "eu_h0": oracle.eu_h0,
            "eu_hstar": oracle.eu_hstar,
            "expected_eu_h0": h0 if in_window else None,
            "expected_eu_hstar": c.q[j] if in_window else None,
            "min_w_diagonal": cubical.min_w_over_diagonal(c, j, dims=box),
            "expected_min_w_diagonal": h0,
            "betti_totals": [sum(row[q] for row in oracle.table.rows)
                             for q in range(c.nu + 1)],
            "vanishing_ok": cubical.check_vanishing(oracle.table),
            "betti_rows": [[oracle.table.min_level + i, *row]
                           for i, row in enumerate(oracle.table.rows)],
        }
        run["agree"] = (run["vanishing_ok"]
                        and run["min_w_diagonal"] == run["expected_min_w_diagonal"]
                        and (not in_window or (run["eu_h0"], run["eu_hstar"])
                             == (run["expected_eu_h0"], run["expected_eu_hstar"])))
        runs.append(run)
    doc = {
        "cusps": literals,
        "nu": c.nu,
        "delta": c.delta,
        "box_margin": args.box_margin,
        "dims": list(box),
        "cap": args.cap,
        "runs": runs,
        "all_agree": all(run["agree"] for run in runs),
    }
    return doc, 0 if doc["all_agree"] else 1


def cmd_stability(args) -> tuple[dict, int]:
    if args.max_parts is not None and args.max_parts < 1:  # no regrouping would be compared
        raise ValueError(f"--max-parts must be at least 1, got {args.max_parts}")
    # the entries that the multiplicity-sequence literals spell are counted
    # before any is found inadmissible; regroupings counts the rest once built
    literals, cusps, file_degree = load_candidate_file(args.file)
    criteria.require_entries(sum(len(c.entries) for c in cusps if isinstance(c, MultSeq)))
    literals, c, d = _load(args, (literals, cusps, file_degree))
    ms = criteria.multiplicity_multiset(c)
    # each row computes H on its window [0, 2*delta]; at least one row is compared
    cap = max(1, criteria._STABILITY_CELLS // (2 * c.delta + 1))
    groups = criteria.regroupings(ms, max_parts=args.max_parts, cap=cap)
    if not groups.collections:  # each entry alone is admissible, so only --max-parts gets here
        raise ValueError(f"--max-parts {args.max_parts} leaves no admissible regrouping")
    # every regrouping has the delta of the multiset, so candidacy is shared
    candidate = d is not None and invariants.is_candidate(c, d)
    # each distinct part is rendered once; regroupings shares the MultSeq of a part
    names = {p: p.literal() for p in dict.fromkeys(chain.from_iterable(groups.collections))}
    rows = []
    for parts, coll in zip(groups.collections, groups.cusp_collections()):
        row = {
            "parts": [names[p] for p in parts],
            # both counting functions have offset delta and cutoff 2*delta,
            # so equal fields mean equal values everywhere
            "h_matches": coll.h == c.h,
        }
        if d is not None:
            row["bl_passed"] = criteria.check_bl(coll, d).passed
            if candidate:
                e0, es = invariants.eu_canonical(coll, d)
                row.update(eu_h0=e0, eu_hstar=es, difference=e0 - es)
        rows.append(row)
    doc = {
        "cusps": literals,
        "multiset": sorted(ms.elements(), reverse=True),
        "degree": d,
        "regroupings": rows,
        "truncated": groups.truncated,
        "h_equal": all(row["h_matches"] for row in rows),
        "bl_constant": (len({row["bl_passed"] for row in rows}) == 1
                        if d is not None and rows else None),
        "eu_h0_values": sorted({row["eu_h0"] for row in rows if "eu_h0" in row}),
        "eu_hstar_values": sorted({row["eu_hstar"] for row in rows if "eu_hstar" in row}),
    }
    return doc, 0 if _stability_ok(doc) else 1


# ---------------------------------------------------------------------------
# text renderers: each reads only its command's document


def _join(values, sep: str = " ") -> str:
    return sep.join(str(v) for v in values)


def _overall(ok: bool) -> str:
    return "overall: " + ("PASS" if ok else "FAIL")


def _table_lines(columns: list[tuple[str, list[int]]]) -> list[str]:
    label_w = max(len(label) for label, _ in columns)
    cell_w = max(
        (len(str(v)) for _, values in columns for v in values), default=1)
    lines = []
    for label, values in columns:
        cells = " ".join(str(v).rjust(cell_w) for v in values)
        lines.append(f"{label.ljust(label_w)} | {cells}")
    return lines


def _criteria_lines(reports: list[dict]) -> list[str]:
    lines = []
    for rep in reports:
        lines.append(f"== {rep['criterion']} ==")
        for j, lhs, rhs, ok in rep["rows"]:
            lines.append(f"  j={j}: {lhs} vs {rhs}  [{'ok' if ok else 'FAIL'}]")
        if rep["difference"] is not None:
            lines.append(f"  difference (eu_h0 - eu_hstar): {rep['difference']}")
        lines.append(f"  result: {'PASS' if rep['passed'] else 'FAIL'}")
    return lines


def text_invariants(doc: dict, args) -> list[str]:
    d = doc["degree"]
    lines = [
        "cusps: " + _join(doc["cusps"]),
        "multiplicity sequences: " + _join(doc["multiplicity_sequences"]),
        "semigroups: " + _join(doc["semigroups"]),
        f"nu: {doc['nu']}",
        f"delta: {doc['delta']}  (per cusp: {_join(doc['deltas'])})",
    ]
    if d is not None:
        lines.append(f"degree: {d}  (candidate: {'yes' if doc['is_candidate'] else 'no'})")
        lines.append(f"p_g: {doc['p_g']}")
    else:
        lines.append("degree: none (2*delta is not of the form (d-1)(d-2))")
    lines.append("alexander coefficients: " + _join(doc["alexander"]))
    lines.append("q coefficients: " + _join(doc["q"]))
    if doc["r"] is not None:
        lines.append(f"R(t) support, exponent (d-3-j)*d for d = {d}:")
        lines.extend(f"  j={j}: t^{expo}: {coeff}" for j, expo, coeff in doc["r"]["terms"])
    lines.extend(_table_lines([(label, doc["table"][label]) for label in _HF_COLUMNS]))
    return lines


def text_check(doc: dict, args) -> list[str]:
    return [
        "cusps: " + _join(doc["cusps"]),
        f"delta: {doc['delta']}  degree: {doc['degree']}  candidate: "
        + ("yes" if doc["is_candidate"] else "no (forced)"),
        *_criteria_lines(doc["criteria"]),
        _overall(doc["all_passed"]),
    ]


def text_cohomology(doc: dict, args) -> list[str]:
    rows = doc["rows"]
    return [
        "cusps: " + _join(doc["cusps"]),
        f"delta: {doc['delta']}  degree: {doc['degree']}",
        "values sum over 0 <= j <= 2*delta-2 with j = a (mod d);",
        "column a' gives the index of the same row under the reflected",
        "labeling j = -a (mod d).",
        *_table_lines([
            ("a", [r["a"] for r in rows]),
            ("eu_h0", [r["eu_h0"] for r in rows]),
            ("eu_hstar", [r["eu_hstar"] for r in rows]),
            ("a' (reflected)", [r["reflected_a"] for r in rows]),
        ]),
    ]


def text_catalog(doc: dict, args) -> list[str]:
    lines = [
        f"{doc['label']}: degree {doc['degree']}",
        "cusps: " + _join(doc["cusps"]),
        "newton pairs: " + _join(doc["newton_pairs"]),
        f"delta: {doc['delta']}",
    ]
    check = doc.get("check")
    if check is not None:
        lines.extend(_criteria_lines(check["criteria"]))
        lines.append(f"eu_h0: {check['eu_h0']}  eu_hstar: {check['eu_hstar']}  "
                     f"difference: {check['difference']}")
        if check["expected_difference"] is not None:
            verdict = "ok" if check["difference_matches"] else "MISMATCH"
            lines.append(
                f"closed-form difference: {check['expected_difference']}  [{verdict}]")
        lines.append(_overall(_catalog_ok(check)))
    return lines


def text_oracle(doc: dict, args) -> list[str]:
    lines = [
        "cusps: " + _join(doc["cusps"]),
        f"nu: {doc['nu']}  delta: {doc['delta']}  box: " + _join(doc["dims"], ","),
    ]
    for run in doc["runs"]:
        lines.append(
            f"j={run['j']}: eu_h0 {run['eu_h0']} (formula {run['expected_eu_h0']}), "
            f"eu_hstar {run['eu_hstar']} (formula {run['expected_eu_hstar']}), "
            f"min W on diagonal {run['min_w_diagonal']} "
            f"(formula {run['expected_min_w_diagonal']}), "
            f"sum btilde_q {run['betti_totals']}  "
            f"[{'agree' if run['agree'] else 'MISMATCH'}]")
        if not args.sweep:
            lines.append(f"betti table (n  b0 .. b{doc['nu']}):")
            lines.extend("  " + _join(row, "\t") for row in run["betti_rows"])
    lines.append(_overall(doc["all_agree"]))
    return lines


def text_stability(doc: dict, args) -> list[str]:
    rows = doc["regroupings"]
    lines = [
        "cusps: " + _join(doc["cusps"]),
        "multiplicity multiset: {" + _join(doc["multiset"], ",") + "}",
        f"admissible regroupings: {len(rows)}"
        + ("  (truncated)" if doc["truncated"] else ""),
    ]
    for row in rows:
        extra = ""
        if "difference" in row:
            extra = (f"  eu_h0={row['eu_h0']} eu_hstar={row['eu_hstar']}"
                     f" diff={row['difference']}")
        if "bl_passed" in row:
            extra += f"  bl={'pass' if row['bl_passed'] else 'fail'}"
        lines.append("  " + _join(row["parts"])
                     + f"  [H {'=' if row['h_matches'] else 'DIFFERS'}]" + extra)
    lines.append(f"H identical across regroupings: {'yes' if doc['h_equal'] else 'NO'}")
    if doc["bl_constant"] is not None:
        lines.append("bl verdict constant across regroupings: "
                     + ("yes" if doc["bl_constant"] else "NO"))
    eu_h0_values, eu_hstar_values = doc["eu_h0_values"], doc["eu_hstar_values"]
    if len(eu_h0_values) > 1:
        lines.append("eu_h0 VARIES: " + _join(eu_h0_values))
    elif eu_h0_values:
        lines.append(f"eu_h0 constant: {eu_h0_values[0]}")
    if eu_hstar_values:
        lines.append("eu_hstar values: " + _join(eu_hstar_values)
                     + ("  (varies, as expected)" if len(eu_hstar_values) > 1 else ""))
    lines.append(_overall(_stability_ok(doc)))
    return lines


def _file_and_degree(p) -> None:  # the degree rule is _load's
    p.add_argument("file")
    p.add_argument("--d", type=int, default=None, help="override the degree")


def _invariants_arguments(p) -> None:
    _file_and_degree(p)
    p.add_argument("--window", type=int, default=None,
                   help="extend the H/F table window beyond 2*delta-2")


def _check_arguments(p) -> None:
    _file_and_degree(p)
    p.add_argument("--only", default=None,
                   help="comma-separated subset of " + ",".join(criteria.ALL_CRITERIA))
    p.add_argument("--force", action="store_true",
                   help="compute even when the candidate equation fails")


def _cohomology_arguments(p) -> None:
    _file_and_degree(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--a", type=int, default=None)
    group.add_argument("--all-spinc", action="store_true",
                       help="tabulate every index a in [0, d); the default without --a")


def _catalog_arguments(p) -> None:
    p.add_argument("--family", required=True, choices=criteria.FAMILIES)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="run all criteria and the closed-form difference")


def _oracle_arguments(p) -> None:
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--j", type=int, default=None)
    group.add_argument("--sweep", action="store_true",
                       help="all j in [0, 2*delta-2]")
    p.add_argument("--box-margin", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--box", default=None, help="explicit box sizes m1,m2,...")
    p.add_argument("--cap", type=int, default=cubical.DEFAULT_CAP)


def _stability_arguments(p) -> None:
    _file_and_degree(p)
    p.add_argument("--max-parts", type=int, default=None)


# one row per subcommand: help line, arguments, cmd_<name> and text_<name>
_COMMANDS = {
    "invariants": ("delta, Alexander, q, R and the H/F table", _invariants_arguments,
                   cmd_invariants, text_invariants),
    "check": ("run the existence criteria", _check_arguments, cmd_check, text_check),
    "cohomology": ("eu per Spin^c index", _cohomology_arguments, cmd_cohomology, text_cohomology),
    "catalog": ("known-curve catalog entries", _catalog_arguments, cmd_catalog, text_catalog),
    "oracle": ("cubical homology oracle for the eu formulas", _oracle_arguments,
               cmd_oracle, text_oracle),
    "stability": ("H across regroupings of the multiset", _stability_arguments,
                  cmd_stability, text_stability),
}


def _add_arguments(p, name: str):
    """``p``, given subcommand ``name``'s arguments and ``--format``."""
    _COMMANDS[name][1](p)
    p.add_argument("--format", choices=("text", "machine"), default="text")
    return p


@functools.cache
def _parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser standing alone, built once per process.

    It has build_parser()'s subparser's prog and arguments, so the same help
    and refusals.  argparse reads the terminal width when it formats, not
    when it is built, so a kept parser wraps help as a fresh one would.
    """
    return _add_arguments(argparse.ArgumentParser(prog=f"cuspidal {name}"), name)


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand with its help line and arguments, so that the usage
    line, ``-h`` and refusals list all six.  ``run`` builds it, afresh each
    time, for argv that names no subcommand, or to refuse what the named
    one's parser leaves over.
    """
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Exact invariants and existence criteria for collections "
                    "of plane-curve cusp types.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, *_) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


# json.dumps falls back to its pure-Python encoder when given an indent, and
# JSONEncoder.encode builds a new C encoder on every call.  These are
# json.dumps's C encoder with key separator ":" and no circular check, built
# once per item separator: "," for the compact form, and "," plus a newline
# and one nesting depth's indent for the rows of _dumps, a handful in all.
# JSONEncoder.default raises json.dumps's TypeError
@functools.cache
def _encoder(item_separator: str):
    return c_make_encoder(None, json.JSONEncoder().default, encode_basestring_ascii,
                          None, ":", item_separator, True, False, True)


def _encode(value, item_separator: str = ",") -> str:
    # the encoder returns a list of chunks up to Python 3.11, a tuple from 3.12
    return "".join(_encoder(item_separator)(value, 0))


# the scalars, by exact type (an int subclass such as IntEnum goes to the
# C encoder, which writes it through int.__repr__ as json.dumps does)
_WRITE_SCALAR = {
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
    str: encode_basestring_ascii,
}
_SCALARS = frozenset((int, bool, type(None)))
_ARRAYS = frozenset((list, tuple))


def _dumps(value, indent: str = "\n") -> str:
    """What json.dumps writes with sort_keys and a 2-space indent, through the C encoder.

    An int, bool, None or str is written by its exact type, a str and a key
    through encode_basestring_ascii; dicts (str keys) are walked here.  A
    list is guessed from its first item, and the guess is read back from
    the encoder's text before it is used:

    * a row, whose first item is an int, bool or None, is one call to the
      encoder of its items' separator (a comma, a newline and the indent
      one level in).  With no quote and no bracket but its own, it holds
      no list and no dict but {}, and the encoder writes its scalars, and
      {}, as json.dumps does, so only its brackets move;
    * a list of rows, whose first item is a list or tuple, is one call to
      the encoder of the rows' items' separator, one level further in.
      With no quote and no empty row, len(value) + 1 brackets and a
      "],<separator>[" between each two items, every item is a non-empty
      row with no list in it (a scalar item, or a list in a row, would
      leave fewer of those), and no string holds a bracket, so the splices
      at the brackets and between the rows give the indented form.

    A non-empty dict always holds a quoted key.  Any other list, or a guess
    that fails, is walked item by item; any other value is one compact
    call to the encoder.
    """
    write = _WRITE_SCALAR.get(type(value))
    if write is not None:
        return write(value)
    if not isinstance(value, (dict, list, tuple)) or not value:
        return _encode(value)
    inner = indent + "  "
    sep = "," + inner
    if isinstance(value, dict):
        body = sep.join(f"{encode_basestring_ascii(key)}: {_dumps(value[key], inner)}"
                        for key in sorted(value))
        return "{" + inner + body + indent + "}"
    first = type(value[0])
    if first in _SCALARS:
        text = _encode(value, sep)
        if '"' not in text and text.find("[", 1) < 0:
            return "[" + inner + text[1:-1] + indent + "]"
    elif first in _ARRAYS:
        deep = inner + "  "
        text = _encode(value, "," + deep)
        if ('"' not in text and "[]" not in text and text.count("[") == len(value) + 1
                and text.count("]," + deep + "[") == len(value) - 1):
            body = (text[1:-1].replace("]," + deep + "[", "]" + sep + "[")
                    .replace("[", "[" + deep).replace("]", inner + "]"))
            return "[" + inner + body + indent + "]"
    return "[" + inner + sep.join(_dumps(item, inner) for item in value) + indent + "]"


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    name = argv[0] if argv else None
    if name in _COMMANDS:
        # leftovers are refused in full below
        args, extra = _parser(name).parse_known_args(argv[1:])
    if name not in _COMMANDS or extra:
        args = build_parser().parse_args(argv)
        name = args.subcommand
    *_, compute, render = _COMMANDS[name]
    try:
        fields, code = compute(args)
    except (ValueError, CapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceeded) else 2
    doc = {"schema_version": SCHEMA_VERSION, "command": name, **fields}
    try:
        if args.format == "machine":
            print(_dumps(doc))
        else:
            print("\n".join(render(doc, args)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early; send the rest, and the flush at
        # exit, to devnull so that the exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
