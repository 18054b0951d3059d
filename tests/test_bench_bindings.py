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
from conftest import collection
from cuspidal import IntSeq, Semigroup, build_rectangle, counting_fn, semigroup_from_generators

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


def test_traced_counters_count():
    # each extra counter runs on a real call of its target, so a changed
    # argument or return type fails here rather than in a traced run
    calls = {  # target: (arguments, expected count)
        "min_convolve": ((counting_fn(semigroup_from_generators([2, 3])),
                          counting_fn(semigroup_from_generators([3, 4]))), 9 * 3),
        "convolve": ((IntSeq((1, -1, 1)), IntSeq((1, 1))), 3 * 2),
        "regroupings": (([3, 2, 2, 2],), 5),
        "betti_table": ((build_rectangle(collection("[2]", "[2]"), 0),), 7 * 7),
    }
    counters = [t for t in load_targets() if t[3] is not None and t[3][1] is not None]
    assert sorted(attr for _, attr, _, _ in counters) == sorted(calls)
    for modname, attr, _, (_, count_fn) in counters:
        args, expected = calls[attr]
        n = count_fn(args, getattr(importlib.import_module(modname), attr)(*args))
        assert type(n) is int and n == expected, (attr, n)


def test_semigroup_post_init_runs_on_construction(monkeypatch):
    # the tracer times Semigroup construction by wrapping the __post_init__
    # in the class dict, so the constructor must call it through the class
    post_init = vars(Semigroup)["__post_init__"]
    seen = []

    def wrapped(self):
        seen.append(self.gaps)
        post_init(self)

    monkeypatch.setattr(Semigroup, "__post_init__", wrapped)
    s = Semigroup([1])
    assert seen == [[1]]
    assert s.gaps == (1,) and 3 in s and 1 not in s
