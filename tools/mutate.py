#!/usr/bin/env python3
"""Mutation testing for chosen functions, with the standard library only.

Usage (from the repository root):

    python3 tools/mutate.py src/cuspidal/semigroup.py counting_fn \\
        --tests tests/test_semigroup.py --workdir /tmp/mutants

Each mutant changes one site of the named functions: module-level
functions by name, methods as ``Class.method`` (say ``IntSeq.__init__``):

* a comparison flipped: < and <=, > and >=, == and !=, in and not in,
  is and is not swap;
* + and - swapped, in binary operations and augmented assignments;
* an integer constant (not a bool) moved by +1 and by -1, one mutant each.

The repository is copied once into the work directory (default: a new
temporary one), and for every mutant the function's source lines in the
copy are replaced by the mutated function, written back with ast.unparse.
pytest then runs the given tests with ``-x`` against the copy.  A mutant is
killed when pytest fails, survives when it passes, and counts as killed
when it runs past ten times the unmutated run (say, a loop that no longer
ends).  The report lists every survivor with its line and the mutated
source line, and the last line is a JSON summary.  The checkout itself is
never written to.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_FLIPPED = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def _sites(func: ast.FunctionDef):
    """(node, field, index, new value, label) for every mutation site in func."""
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIPPED:
                    new = _FLIPPED[type(op)]()
                    yield node, "ops", i, new, f"{type(op).__name__} -> {type(new).__name__}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
            new = _SWAPPED[type(node.op)]()
            yield node, "op", None, new, f"{type(node.op).__name__} -> {type(new).__name__}"
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            for step in (1, -1):
                yield node, "value", None, node.value + step, f"{node.value} -> {node.value + step}"


def _functions(tree: ast.Module) -> dict:
    """Module-level functions by name, and the methods of module-level classes as Class.method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    funcs = {node.name: node for node in tree.body if isinstance(node, defs)}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            funcs.update((f"{cls.name}.{node.name}", node)
                         for node in cls.body if isinstance(node, defs))
    return funcs


def mutants(source: str, names: list[str]):
    """(function name, line, label, first line, last line, new function source) per mutant."""
    tree = ast.parse(source)
    funcs = _functions(tree)
    missing = [name for name in names if name not in funcs]
    if missing:
        raise SystemExit(f"no function or method named {', '.join(missing)}")
    for name in names:
        func = funcs[name]
        first = min([func.lineno] + [d.lineno for d in func.decorator_list])
        count = sum(1 for _ in _sites(func))
        for k in range(count):
            mutated = copy.deepcopy(func)
            node, field, index, new, label = list(_sites(mutated))[k]
            if index is None:
                setattr(node, field, new)
            else:
                getattr(node, field)[index] = new
            text = textwrap.indent(ast.unparse(mutated), " " * func.col_offset)
            yield name, node.lineno, label, first, func.end_lineno, text


def run_tests(workdir: str, tests: list[str], timeout: float | None = None) -> bool:
    """Whether the tests pass against the copy in workdir, within timeout seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(workdir, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return False
    return proc.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="path of the module, relative to the repository root")
    parser.add_argument("functions", nargs="+",
                        help="module-level functions, or Class.method, to mutate")
    parser.add_argument("--tests", nargs="+", required=True,
                        help="pytest arguments, relative to the repository root")
    parser.add_argument("--workdir", default=None,
                        help="where the copy goes, made if missing "
                             "(default: a new temporary directory)")
    args = parser.parse_args(argv)

    if args.workdir is not None:
        os.makedirs(args.workdir, exist_ok=True)
    base = tempfile.mkdtemp(prefix="mutate-", dir=args.workdir)
    work = os.path.join(base, "repo")
    shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(
        ".git", ".bench_work", "__pycache__", ".pytest_cache", ".hypothesis"))
    path = os.path.join(work, args.module)
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines(keepends=True)
    started = time.perf_counter()
    if not run_tests(work, args.tests):
        raise SystemExit("the tests fail on the unmutated copy")
    timeout = 10 * (time.perf_counter() - started)

    killed, survivors = 0, []
    for name, lineno, label, first, last, text in mutants(source, args.functions):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines[:first - 1]) + text + "\n" + "".join(lines[last:]))
        if run_tests(work, args.tests, timeout):
            survivors.append((name, lineno, label, lines[lineno - 1].strip()))
            print(f"SURVIVED {name} line {lineno}: {label}: {lines[lineno - 1].strip()}",
                  flush=True)
        else:
            killed += 1
            print(f"killed   {name} line {lineno}: {label}", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)
    shutil.rmtree(base)
    total = killed + len(survivors)
    print(json.dumps({"module": args.module, "functions": args.functions,
                      "mutants": total, "killed": killed, "survived": len(survivors)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
