"""Command-line front end.

Subcommands: invariants, check, cohomology, catalog, oracle, stability.
Every command builds one report document; ``--format machine`` prints it as
a single JSON object (schema_version 1, integers only), ``--format text``
renders the same numbers as tables.  Exit codes: 0 all checks pass, 1 a
criterion failed, 2 input or validation error, 3 resource cap exceeded.

Candidate files are UTF-8 text, either one or more whitespace-separated cusp
literals per line with optional ``degree: N`` line and ``#`` comments, or a
JSON document with fields ``degree`` and ``cusps``.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import criteria, cubical, invariants
from .invariants import CuspCollection, NotCandidateError
from .semigroup import SemigroupError, parse_cusp, resolve_semigroup

SCHEMA_VERSION = 1

_DEGREE_LINE = re.compile(r"^degree\s*[:=]\s*(\d+)$", re.IGNORECASE)


class InputError(ValueError):
    pass


def load_candidate_file(path: str) -> tuple[list[str], int | None]:
    """Return the cusp literals and the optional declared degree."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: bad JSON: {exc}") from exc
        cusps = doc.get("cusps")
        if not isinstance(cusps, list) or not all(isinstance(c, str) for c in cusps):
            raise InputError(f"{path}: field 'cusps' must be a list of literals")
        degree = doc.get("degree")
        if degree is not None and not isinstance(degree, int):
            raise InputError(f"{path}: field 'degree' must be an integer")
        return list(cusps), degree
    literals: list[str] = []
    degree = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DEGREE_LINE.match(line)
        if m:
            degree = int(m.group(1))
            continue
        for col, token in enumerate(line.split()):
            try:
                parse_cusp(token)
            except SemigroupError as exc:
                raise InputError(f"{path}:{lineno}: token {col + 1}: {exc}") from exc
            literals.append(token)
    if not literals:
        raise InputError(f"{path}: no cusp literals found")
    return literals, degree


def build_collection(literals: list[str]) -> CuspCollection:
    semis = []
    for lit in literals:
        try:
            semis.append(resolve_semigroup(parse_cusp(lit)))
        except SemigroupError as exc:
            raise InputError(f"bad cusp {lit!r}: {exc}") from exc
    return CuspCollection(tuple(semis))


# ---------------------------------------------------------------------------
# report documents and their text rendering


def _table_lines(columns: list[tuple[str, list[int]]]) -> list[str]:
    label_w = max(len(label) for label, _ in columns)
    cell_w = max(
        (len(str(v)) for _, values in columns for v in values), default=1)
    lines = []
    for label, values in columns:
        cells = " ".join(str(v).rjust(cell_w) for v in values)
        lines.append(f"{label.ljust(label_w)} | {cells}")
    return lines


def _criterion_lines(rep: dict) -> list[str]:
    lines = [f"== {rep['criterion']} =="]
    for j, lhs, rhs, ok in rep["rows"]:
        lines.append(f"  j={j}: {lhs} vs {rhs}  [{'ok' if ok else 'FAIL'}]")
    if rep.get("difference") is not None:
        lines.append(f"  difference (eu_h0 - eu_hstar): {rep['difference']}")
    lines.append(f"  result: {'PASS' if rep['passed'] else 'FAIL'}")
    return lines


def _hf_table_doc(c: CuspCollection, window: int) -> dict:
    h = invariants.h_function(c)
    f = invariants.f_sequence(c, window=window)
    ks = list(range(window + 1))
    hrow = [h(k + 1) for k in ks]
    frow = [f[k] for k in ks]
    return {
        "k": ks,
        "H(k+1)": hrow,
        "F(k)": frow,
        "H(k+1)-F(k)": [a - b for a, b in zip(hrow, frow)],
    }


def _hf_table_lines(table: dict) -> list[str]:
    return _table_lines([
        ("k", table["k"]),
        ("H(k+1)", table["H(k+1)"]),
        ("F(k)", table["F(k)"]),
        ("H(k+1)-F(k)", table["H(k+1)-F(k)"]),
    ])


def _report_to_criteria_doc(reports) -> list[dict]:
    docs = []
    for rep in reports:
        docs.append({
            "criterion": rep.criterion,
            "rows": [[r.j, r.lhs, r.rhs, r.ok] for r in rep.rows],
            "passed": rep.passed,
            "difference": rep.difference,
        })
    return docs


def cmd_invariants(args) -> tuple[dict, list[str], int]:
    literals, file_degree = load_candidate_file(args.file)
    c = build_collection(literals)
    d = args.d if args.d is not None else file_degree
    cand_d = criteria.candidate_degree(c)
    if d is None:
        d = cand_d
    window = args.window if args.window is not None else 2 * c.delta - 2
    alex = invariants.alexander_product(c)
    q = invariants.q_coefficients(c)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "invariants",
        "cusps": literals,
        "multiplicity_sequences": [ms.literal() for ms in c.multseqs],
        "semigroups": [s.literal() for s in c.cusps],
        "nu": c.nu,
        "deltas": list(c.deltas),
        "delta": c.delta,
        "degree": d,
        "candidate_degree": cand_d,
        "is_candidate": d is not None and invariants.is_candidate(c, d),
        "p_g": invariants.geometric_genus(d) if d is not None else None,
        "alexander": list(alex.coeffs.window(2 * c.delta)),
        "q": list(q.window(max(2 * c.delta - 2, 0))),
        "table": _hf_table_doc(c, window),
    }
    if d is not None and d >= 3:
        r = invariants.r_poly(c, d)
        doc["r"] = {
            "d": d,
            "terms": [[j, (d - 3 - j) * d, r.coefficient((d - 3 - j) * d)]
                      for j in range(d - 2)],
        }
    else:
        doc["r"] = None

    lines = []
    lines.append("cusps: " + " ".join(literals))
    lines.append("multiplicity sequences: "
                 + " ".join(ms.literal() for ms in c.multseqs))
    lines.append("semigroups: " + " ".join(s.literal() for s in c.cusps))
    lines.append(f"nu: {c.nu}")
    lines.append(f"delta: {c.delta}  (per cusp: "
                 + " ".join(str(x) for x in c.deltas) + ")")
    if d is not None:
        cand = "yes" if doc["is_candidate"] else "no"
        lines.append(f"degree: {d}  (candidate: {cand})")
        lines.append(f"p_g: {doc['p_g']}")
    else:
        lines.append("degree: none (2*delta is not of the form (d-1)(d-2))")
    lines.append("alexander coefficients: "
                 + " ".join(str(v) for v in doc["alexander"]))
    lines.append("q coefficients: " + " ".join(str(v) for v in doc["q"]))
    if doc["r"] is not None:
        lines.append(f"R(t) support, exponent (d-3-j)*d for d = {d}:")
        for j, expo, coeff in doc["r"]["terms"]:
            lines.append(f"  j={j}: t^{expo}: {coeff}")
    lines.extend(_hf_table_lines(doc["table"]))
    return doc, lines, 0


def cmd_check(args) -> tuple[dict, list[str], int]:
    literals, file_degree = load_candidate_file(args.file)
    c = build_collection(literals)
    d = args.d if args.d is not None else file_degree
    if d is None:
        d = criteria.candidate_degree(c)
    if d is None:
        raise InputError(
            "no degree: 2*delta has no candidate solution; pass --d "
            "(with --force to compute for a non-candidate degree)")
    cand = criteria.Candidate(c, d)
    if not args.force:
        invariants.require_candidate(c, d, "; pass --force to compute anyway")
    names = args.only.split(",") if args.only else list(criteria.ALL_CRITERIA)
    reports = [criteria.run_criterion(name.strip(), cand, force=args.force)
               for name in names]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "check",
        "cusps": literals,
        "delta": c.delta,
        "degree": d,
        "is_candidate": cand.is_candidate,
        "forced": bool(args.force),
        "criteria": _report_to_criteria_doc(reports),
        "all_passed": all(rep.passed for rep in reports),
    }
    lines = [
        "cusps: " + " ".join(literals),
        f"delta: {c.delta}  degree: {d}  candidate: "
        + ("yes" if cand.is_candidate else "no (forced)"),
    ]
    for rep in doc["criteria"]:
        lines.extend(_criterion_lines(rep))
    lines.append("overall: " + ("PASS" if doc["all_passed"] else "FAIL"))
    return doc, lines, 0 if doc["all_passed"] else 1


def cmd_cohomology(args) -> tuple[dict, list[str], int]:
    literals, file_degree = load_candidate_file(args.file)
    c = build_collection(literals)
    d = args.d if args.d is not None else file_degree
    if d is None:
        raise InputError("cohomology needs a degree: pass --d")
    if d < 1:
        raise InputError(f"degree must be positive, got {d}")
    if args.a is not None:
        if not 0 <= args.a < d:
            raise InputError(f"Spin^c index {args.a} not in [0, {d})")
        indices = [args.a]
    else:
        indices = list(range(d))
    rows = []
    for a in indices:
        rep = invariants.spinc_report(c, d, a)
        rows.append({
            "a": a,
            "eu_h0": rep.eu_h0,
            "eu_hstar": rep.eu_hstar,
            "reflected_a": (-a) % d,
            "terms": [list(t) for t in rep.terms],
        })
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "cohomology",
        "cusps": literals,
        "delta": c.delta,
        "degree": d,
        "is_candidate": invariants.is_candidate(c, d),
        "congruence": "rows sum over j = a (mod d); under the reflected "
                      "labeling j = -a (mod d) the same row belongs to "
                      "index a' = (-a) mod d",
        "rows": rows,
    }
    lines = [
        "cusps: " + " ".join(literals),
        f"delta: {c.delta}  degree: {d}",
        "values sum over 0 <= j <= 2*delta-2 with j = a (mod d);",
        "column a' gives the index of the same row under the reflected",
        "labeling j = -a (mod d).",
    ]
    lines.extend(_table_lines([
        ("a", [r["a"] for r in rows]),
        ("eu_h0", [r["eu_h0"] for r in rows]),
        ("eu_hstar", [r["eu_hstar"] for r in rows]),
        ("a' (reflected)", [r["reflected_a"] for r in rows]),
    ]))
    return doc, lines, 0


def cmd_catalog(args) -> tuple[dict, list[str], int]:
    try:
        entry = criteria.catalog(args.family, d=args.d, u=args.u, l=args.l)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "catalog",
        "family": entry.family,
        "label": entry.label,
        "degree": entry.d,
        "params": list(entry.params),
        "cusps": [ms.literal() for ms in entry.cusps],
        "newton_pairs": [np_.literal() for np_ in entry.newton],
        "delta": sum(ms.delta for ms in entry.cusps),
    }
    lines = [
        f"{entry.label}: degree {entry.d}",
        "cusps: " + " ".join(ms.literal() for ms in entry.cusps),
        "newton pairs: " + " ".join(np_.literal() for np_ in entry.newton),
        f"delta: {doc['delta']}",
    ]
    code = 0
    if args.check:
        c = entry.collection()
        cand = criteria.Candidate(c, entry.d)
        reports = [criteria.run_criterion(name, cand)
                   for name in criteria.ALL_CRITERIA]
        e0, es = invariants.eu_canonical(c, entry.d)
        check_doc = {
            "criteria": _report_to_criteria_doc(reports),
            "eu_h0": e0,
            "eu_hstar": es,
            "difference": e0 - es,
        }
        try:
            expected = criteria.expected_eu_difference(entry)
            check_doc["expected_difference"] = expected
            check_doc["difference_matches"] = expected == e0 - es
        except ValueError:
            check_doc["expected_difference"] = None
            check_doc["difference_matches"] = None
        doc["check"] = check_doc
        for rep in check_doc["criteria"]:
            lines.extend(_criterion_lines(rep))
        lines.append(f"eu_h0: {e0}  eu_hstar: {es}  difference: {e0 - es}")
        if check_doc["expected_difference"] is not None:
            verdict = "ok" if check_doc["difference_matches"] else "MISMATCH"
            lines.append(
                f"closed-form difference: {check_doc['expected_difference']}  [{verdict}]")
        all_passed = all(rep["passed"] for rep in check_doc["criteria"])
        ok = all_passed and check_doc["difference_matches"] is not False
        doc["check"]["all_passed"] = all_passed
        lines.append("overall: " + ("PASS" if ok else "FAIL"))
        code = 0 if ok else 1
    return doc, lines, code


def cmd_oracle(args) -> tuple[dict, list[str], int]:
    literals, _ = load_candidate_file(args.file)
    c = build_collection(literals)
    dims = None
    if args.box:
        try:
            dims = tuple(int(tok) for tok in args.box.split(","))
        except ValueError:
            raise InputError(f"bad --box {args.box!r}") from None
    window = 2 * c.delta - 2
    if args.sweep:
        js = list(range(window + 1))
    else:
        if args.j is None:
            raise InputError("oracle needs --j or --sweep")
        js = [args.j]
    h = invariants.h_function(c)
    runs = []
    all_agree = True
    for j in js:
        oracle = cubical.oracle_eu(c, j, box_margin=args.box_margin, dims=dims,
                                   cap=args.cap)
        minw = cubical.min_w_over_diagonal(c, j, box_margin=args.box_margin,
                                           dims=dims)
        in_window = 0 <= j <= window
        expected0 = h(j + 1) + c.delta - 1 - j if in_window else None
        expecteds = c.f(j) + c.delta - 1 - j if in_window else None
        expected_minw = c.delta - j - 1 + h(j + 1)
        totals = [sum(row[q] for row in oracle.table.rows)
                  for q in range(c.nu + 1)]
        vanish = cubical.check_vanishing(oracle.table, c.nu)
        agree = (not in_window or (oracle.eu_h0 == expected0
                                   and oracle.eu_hstar == expecteds)) \
            and minw == expected_minw and vanish
        all_agree = all_agree and agree
        runs.append({
            "j": j,
            "min_weight": oracle.min_weight,
            "eu_h0": oracle.eu_h0,
            "eu_hstar": oracle.eu_hstar,
            "expected_eu_h0": expected0,
            "expected_eu_hstar": expecteds,
            "min_w_diagonal": minw,
            "expected_min_w_diagonal": expected_minw,
            "betti_totals": totals,
            "vanishing_ok": vanish,
            "agree": agree,
            "betti_rows": [[oracle.table.min_level + i, *row]
                           for i, row in enumerate(oracle.table.rows)],
        })
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "cusps": literals,
        "nu": c.nu,
        "delta": c.delta,
        "box_margin": args.box_margin,
        "dims": list(dims) if dims else list(cubical.default_dims(c, args.box_margin)),
        "cap": args.cap,
        "runs": runs,
        "all_agree": all_agree,
    }
    lines = [
        "cusps: " + " ".join(literals),
        f"nu: {c.nu}  delta: {c.delta}  box: "
        + ",".join(str(m) for m in doc["dims"]),
    ]
    for run in runs:
        verdict = "agree" if run["agree"] else "MISMATCH"
        lines.append(
            f"j={run['j']}: eu_h0 {run['eu_h0']} (formula {run['expected_eu_h0']}), "
            f"eu_hstar {run['eu_hstar']} (formula {run['expected_eu_hstar']}), "
            f"min W on diagonal {run['min_w_diagonal']} "
            f"(formula {run['expected_min_w_diagonal']}), "
            f"sum btilde_q {run['betti_totals']}  [{verdict}]")
        if not args.sweep:
            lines.append("betti table (n  b0 .. b%d):" % c.nu)
            for row in run["betti_rows"]:
                lines.append("  " + "\t".join(str(v) for v in row))
    lines.append("overall: " + ("PASS" if all_agree else "FAIL"))
    return doc, lines, 0 if all_agree else 1


def cmd_stability(args) -> tuple[dict, list[str], int]:
    literals, file_degree = load_candidate_file(args.file)
    c = build_collection(literals)
    ms = criteria.multiplicity_multiset(c)
    groups = criteria.regroupings(ms, max_parts=args.max_parts)
    collections = groups.cusp_collections()
    d = args.d if args.d is not None else file_degree
    if d is None:
        d = criteria.candidate_degree(c)
    base = invariants.h_function(c)
    window = 2 * c.delta
    base_vals = base.values(0, window)
    h_equal = True
    rows = []
    for parts, coll in zip(groups.collections, collections):
        hv = invariants.h_function(coll).values(0, window)
        same = hv == base_vals
        h_equal = h_equal and same
        row = {
            "parts": [p.literal() for p in parts],
            "h_matches": same,
        }
        if d is not None:
            cand = criteria.Candidate(coll, d)
            row["bl_passed"] = criteria.check_bl(cand, force=True).passed
            if cand.is_candidate:
                e0, es = invariants.eu_canonical(coll, d)
                row["eu_h0"] = e0
                row["eu_hstar"] = es
                row["difference"] = e0 - es
        rows.append(row)
    bl_constant = None
    if d is not None and rows:
        verdicts = {row["bl_passed"] for row in rows}
        bl_constant = len(verdicts) == 1
    eu_hstar_values = sorted({row["eu_hstar"] for row in rows if "eu_hstar" in row})
    eu_h0_values = sorted({row["eu_h0"] for row in rows if "eu_h0" in row})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "stability",
        "cusps": literals,
        "multiset": sorted(ms.elements(), reverse=True),
        "degree": d,
        "regroupings": rows,
        "truncated": groups.truncated,
        "h_equal": h_equal,
        "bl_constant": bl_constant,
        "eu_h0_values": eu_h0_values,
        "eu_hstar_values": eu_hstar_values,
    }
    lines = [
        "cusps: " + " ".join(literals),
        "multiplicity multiset: {{"
        + ",".join(str(v) for v in doc["multiset"]) + "}}",
        f"admissible regroupings: {len(rows)}"
        + ("  (truncated)" if groups.truncated else ""),
    ]
    for row in rows:
        extra = ""
        if "difference" in row:
            extra = (f"  eu_h0={row['eu_h0']} eu_hstar={row['eu_hstar']}"
                     f" diff={row['difference']}")
        if "bl_passed" in row:
            extra += f"  bl={'pass' if row['bl_passed'] else 'fail'}"
        lines.append("  " + " ".join(row["parts"])
                     + f"  [H {'=' if row['h_matches'] else 'DIFFERS'}]" + extra)
    lines.append(f"H identical across regroupings: {'yes' if h_equal else 'NO'}")
    if bl_constant is not None:
        lines.append(
            f"bl verdict constant across regroupings: {'yes' if bl_constant else 'NO'}")
    if len(eu_h0_values) > 1:
        lines.append("eu_h0 VARIES: " + " ".join(str(v) for v in eu_h0_values))
    elif eu_h0_values:
        lines.append(f"eu_h0 constant: {eu_h0_values[0]}")
    if eu_hstar_values:
        lines.append("eu_hstar values: " + " ".join(str(v) for v in eu_hstar_values)
                     + ("  (varies, as expected)" if len(eu_hstar_values) > 1 else ""))
    ok = h_equal and bl_constant is not False and len(eu_h0_values) <= 1
    lines.append("overall: " + ("PASS" if ok else "FAIL"))
    return doc, lines, 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cuspidal",
        description="Exact invariants and existence criteria for collections "
                    "of plane-curve cusp types.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("invariants", help="delta, Alexander, q, R and the H/F table")
    p.add_argument("file")
    p.add_argument("--d", type=int, default=None, help="override the degree")
    p.add_argument("--window", type=int, default=None,
                   help="extend the H/F table window beyond 2*delta-2")
    add_common(p)

    p = sub.add_parser("check", help="run the existence criteria")
    p.add_argument("file")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--only", default=None,
                   help="comma-separated subset of " + ",".join(criteria.ALL_CRITERIA))
    p.add_argument("--force", action="store_true",
                   help="compute even when the candidate equation fails")
    add_common(p)

    p = sub.add_parser("cohomology", help="eu per Spin^c index")
    p.add_argument("file")
    p.add_argument("--d", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--a", type=int, default=None)
    group.add_argument("--all-spinc", action="store_true")
    add_common(p)

    p = sub.add_parser("catalog", help="known-curve catalog entries")
    p.add_argument("--family", required=True, choices=criteria.FAMILIES)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--check", action="store_true",
                   help="run all criteria and the closed-form difference")
    add_common(p)

    p = sub.add_parser("oracle", help="cubical homology oracle for the eu formulas")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--j", type=int, default=None)
    group.add_argument("--sweep", action="store_true",
                       help="all j in [0, 2*delta-2]")
    p.add_argument("--box-margin", type=int, default=0, choices=(0, 1, 2))
    p.add_argument("--box", default=None, help="explicit box sizes m1,m2,...")
    p.add_argument("--cap", type=int, default=cubical.DEFAULT_CAP)
    add_common(p)

    p = sub.add_parser("stability", help="H across regroupings of the multiset")
    p.add_argument("file")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--max-parts", type=int, default=None)
    add_common(p)

    return parser


_COMMANDS = {
    "invariants": cmd_invariants,
    "check": cmd_check,
    "cohomology": cmd_cohomology,
    "catalog": cmd_catalog,
    "oracle": cmd_oracle,
    "stability": cmd_stability,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        doc, lines, code = _COMMANDS[args.subcommand](args)
    except (InputError, SemigroupError, NotCandidateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cubical.RectangleTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.format == "machine":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
