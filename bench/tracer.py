"""Spans around the public functions of each ``cuspidal`` module, from outside.

``Tracer.install`` replaces every binding of each traced function (module
attributes, ``from ... import`` copies in other modules, and dict tables such
as ``criteria._CHECKS``) with a wrapper, and ``uninstall`` puts the originals
back.  A wrapper records a span only while the tracer is active, that is
inside a timed op; outside it (output checks) it just calls through.

Spans (name, start, end, parent) are kept in memory and written out by
``dump``.  Self time (span time minus the time its child spans cover) and
counts are accumulated per span name while spans close.  Counts are computed
from the wrapped call's arguments and result, so they repeat exactly.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter


def _window_cells(args, result):
    # the (cut+1) x (b+1) sliding-window matrix of seqcalc.min_convolve
    f, g = args[0], args[1]
    if g.cutoff > f.cutoff:
        f, g = g, f
    return (2 * (f.offset + g.offset) + 1) * (g.cutoff + 1)


def _mults(args, result):
    return len(args[0].values) * len(args[1].values)


def _cells(args, result):
    out = 1
    for m in args[0].dims:
        out *= 2 * m + 1
    return out


def _kept(args, result):
    return len(result.collections)


# (module, attribute, span name or None for count-only, extra counter)
TARGETS = (
    ("cuspidal.semigroup", "semigroup_from_generators", "semigroup.construct", None),
    ("cuspidal.semigroup", "semigroup_from_multseq", "semigroup.construct", None),
    ("cuspidal.semigroup", "semigroup_from_newton_pairs", "semigroup.construct", None),
    ("cuspidal.semigroup", "counting_fn", "semigroup.counting_fn", None),
    ("cuspidal.seqcalc", "min_convolve", "seqcalc.min_convolve",
     ("seqcalc.min_convolve.window_cells", _window_cells)),
    ("cuspidal.seqcalc", "convolve", "seqcalc.convolve", ("seqcalc.convolve.mults", _mults)),
    ("cuspidal.invariants", "h_function", "invariants.h_function", None),
    ("cuspidal.invariants", "f_sequence", "invariants.f_sequence", None),
    ("cuspidal.invariants", "q_coefficients", "invariants.q_coefficients", None),
    ("cuspidal.invariants", "r_poly", "invariants.r_poly", None),
    ("cuspidal.invariants", "r_poly_series", "invariants.r_poly_series", None),
    ("cuspidal.invariants", "spinc_report", "invariants.spinc_report", None),
    ("cuspidal.invariants", "eu_canonical", "invariants.eu_canonical", None),
    ("cuspidal.criteria", "check_bezout", "criteria.check", None),
    ("cuspidal.criteria", "check_bl", "criteria.check", None),
    ("cuspidal.criteria", "check_conj_original", "criteria.check", None),
    ("cuspidal.criteria", "check_conj_index", "criteria.check", None),
    ("cuspidal.criteria", "run_criterion", None, ("criteria.run_criterion.calls", None)),
    ("cuspidal.criteria", "regroupings", "criteria.regroupings",
     ("criteria.regroupings.kept", _kept)),
    ("cuspidal.cubical", "build_rectangle", "cubical.build_rectangle", None),
    ("cuspidal.cubical", "betti_table", "cubical.betti_table", ("cubical.cells", _cells)),
    ("cuspidal.cubical", "min_w_over_diagonal", "cubical.min_w_over_diagonal", None),
    ("cuspidal.cubical", "oracle_eu", "cubical.oracle_eu", None),
    ("cuspidal.cli", "load_candidate_file", "cli.load", None),
    ("cuspidal.cli", "build_collection", "cli.load", None),
    ("cuspidal.cli", "run", "cli.run", None),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        # open spans: [span index, name id, child time]
        self._stack: list[list] = []
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # inclusive time per name of the outermost spans of that name, per op
        self.op_inclusive: dict[str, float] = defaultdict(float)
        self._open_by_name: dict[int, int] = defaultdict(int)
        self._restore: list = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str, start: float | None = None) -> int:
        nid = self._name_id(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(perf_counter() if start is None else start)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([idx, nid, 0.0])
        self._open_by_name[nid] += 1
        return idx

    def close(self, end: float | None = None) -> float:
        end = perf_counter() if end is None else end
        idx, nid, child = self._stack.pop()
        self.span_end[idx] = end
        dur = end - self.span_start[idx]
        name = self.names[nid]
        self.self_time[name] += dur - child
        self.counts[name + ".calls"] += 1
        self._open_by_name[nid] -= 1
        if not self._open_by_name[nid]:
            self.op_inclusive[name] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def add_child_trace(self, doc: dict, exited: float):
        """Graft a child process's spans under the open span (cli_cold).

        The span ``process.exit`` runs from the child's last span end to
        ``exited``, when the parent saw the process end: interpreter
        teardown (and, traced, writing the child's spans).
        """
        parent = self._stack[-1][0] if self._stack else -1
        base = len(self.span_name)
        covered = 0.0
        last = None
        for nid, start, end, par in doc["spans"]:
            self.span_name.append(self._name_id(doc["names"][nid]))
            self.span_start.append(start)
            self.span_end.append(end)
            self.span_parent.append(parent if par < 0 else base + par)
            if par < 0:
                covered += end - start
                last = end if last is None else max(last, end)
        for name, value in doc["self_time"].items():
            self.self_time[name] += value
        for name, value in doc["counts"].items():
            self.counts[name] += value
        for name, value in doc["op_inclusive"].items():
            self.op_inclusive[name] += value
        if self._stack:
            self._stack[-1][2] += covered
        if last is not None:
            self.open("process.exit", start=last)
            self.close(end=exited)

    def take(self):
        """Self time and counts per name since the last take."""
        out = (dict(self.self_time), dict(self.counts))
        self.self_time.clear()
        self.counts.clear()
        return out

    def take_inclusive(self) -> dict:
        """Inclusive time per name since the last call (outermost spans only)."""
        out = dict(self.op_inclusive)
        self.op_inclusive.clear()
        return out

    def _wrap(self, fn, span, counter):
        tracer = self
        count_name, count_fn = counter if counter else (None, None)

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if span is None:
                result = fn(*args, **kwargs)
            else:
                tracer.open(span)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.close()
            if count_name is not None:
                tracer.counts[count_name] += 1 if count_fn is None else count_fn(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _rebind(self, orig, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cuspidal" or modname.startswith("cuspidal.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is orig:
                            value[k] = wrapper
                            self._restore.append((value, k, orig))

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        for modname, attr, span, counter in TARGETS:
            orig = getattr(sys.modules[modname], attr)
            self._rebind(orig, self._wrap(orig, span, counter))
        # Semigroup construction runs its closure check in __post_init__
        semigroup = sys.modules["cuspidal.semigroup"].Semigroup
        post_init = semigroup.__dict__["__post_init__"]
        semigroup.__post_init__ = self._wrap(post_init, "semigroup.construct", None)
        self._restore.append((semigroup, "__post_init__", post_init))

    def uninstall(self):
        for target, key, orig in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = orig
            else:
                setattr(target, key, orig)
        self._restore.clear()

    def to_doc(self) -> dict:
        n = len(self.span_name)
        return {
            "names": self.names,
            "spans": [[self.span_name[i], self.span_start[i], self.span_end[i],
                       self.span_parent[i]] for i in range(n)],
        }

    def dump(self, path: str, extra: dict | None = None):
        doc = self.to_doc()
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
