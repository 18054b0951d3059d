"""The library names the benchmark traces keep resolving.

bench/tracer.py wraps every (module, attribute) of its TARGETS, at every
binding site, during traced runs.  Deleting or renaming one of them breaks
the benchmark, so the unit suite checks them too.
"""

import importlib
import importlib.util
from pathlib import Path

import cuspidal.criteria
import cuspidal.invariants

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_traced_bindings_resolve():
    targets = load_targets()
    assert targets
    for modname, attr, _, _ in targets:
        assert callable(getattr(importlib.import_module(modname), attr, None)), (modname, attr)
    # the tracer rebinds these copies too
    assert cuspidal.criteria.h_function is cuspidal.invariants.h_function
    assert set(cuspidal.criteria._CHECKS) == set(cuspidal.criteria.ALL_CRITERIA)
