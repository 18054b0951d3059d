"""Candidate degrees, existence criteria and the known-curve catalog.

A collection of cusp types is a *candidate* of degree d when twice its total
gap count equals (d-1)(d-2).  The four decision procedures, each a function
of (c, d), compare values of H and F at the multiples jd that
invariants._multiples reads (refusing d < 3) against triangular numbers:

* bezout:         H(jd+1) >= (j+1)(j+2)/2  for j = 0..d-3  (necessary);
* bl:             H(jd+1)  = (j+1)(j+2)/2  (the sharper necessary condition);
* conj_original:  F(jd)   <= (j+1)(j+2)/2  per j (fails for some real curves);
* conj_index:     sum_j F(jd) <= sum_j (j+1)(j+2)/2, i.e. the canonical
                  eu_hstar <= eu_h0 (holds on every curve in the catalog).

The catalog reproduces the three classical tricuspidal series C(d,u), D(l),
E(l) and the two sporadic quintics, together with the closed forms for
eu_h0 - eu_hstar on the three series.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, count, islice

from ._frozen import Frozen
from .invariants import (
    CapExceeded,
    CuspCollection,
    _multiples,
    _triangular,
    h_function,
)
from .semigroup import (
    MultSeq,
    NewtonPairs,
    counting_fn,
    is_admissible,
    semigroup_from_multseq,
)
from .seqcalc import CountingFn, min_convolve_all


class CriterionRow(Frozen):
    __slots__ = _fields = ("j", "lhs", "rhs", "ok")


class CriterionReport(Frozen):
    """Per-j comparison rows plus the aggregate verdict for one criterion."""

    __slots__ = _fields = ("criterion", "rows", "passed", "difference")


def candidate_degree(c: CuspCollection) -> int | None:
    """The unique d >= 3 with 2*delta = (d-1)(d-2), if it exists."""
    target = 2 * c.delta
    d = 3
    while (d - 1) * (d - 2) < target:
        d += 1
    return d if (d - 1) * (d - 2) == target else None


def _h_row(c: CuspCollection, d: int) -> list[int]:
    h = h_function(c)
    return [h(k + 1) for k in _multiples(d)]


def _f_row(c: CuspCollection, d: int) -> list[int]:
    return [c.f(k) for k in _multiples(d)]


def _compare(name: str, c: CuspCollection, d: int,
             row: Callable[[CuspCollection, int], list[int]],
             holds: Callable[[int, int], bool]) -> CriterionReport:
    """Compare row(c, d)[j] with (j+1)(j+2)/2 for each j = 0..d-3."""
    rows = tuple(CriterionRow(j, lhs, _triangular(j), holds(lhs, _triangular(j)))
                 for j, lhs in enumerate(row(c, d)))
    return CriterionReport(name, rows, all(r.ok for r in rows), None)


def check_bezout(c: CuspCollection, d: int) -> CriterionReport:
    """H(jd+1) >= (j+1)(j+2)/2 for each j = 0..d-3."""
    return _compare("bezout", c, d, _h_row, operator.ge)


def check_bl(c: CuspCollection, d: int) -> CriterionReport:
    """H(jd+1) = (j+1)(j+2)/2 for each j = 0..d-3."""
    return _compare("bl", c, d, _h_row, operator.eq)


def check_conj_original(c: CuspCollection, d: int) -> CriterionReport:
    """F(jd) <= (j+1)(j+2)/2 for each j = 0..d-3."""
    return _compare("conj_original", c, d, _f_row, operator.le)


def check_conj_index(c: CuspCollection, d: int) -> CriterionReport:
    """Single verdict: canonical eu_hstar = sum_j F(jd) <= eu_h0 = sum_j H(jd+1)."""
    e0 = sum(_h_row(c, d))
    es = sum(_f_row(c, d))
    row = CriterionRow(0, es, e0, es <= e0)
    return CriterionReport("conj_index", (row,), row.ok, e0 - es)


_CHECKS = {
    "bezout": check_bezout,
    "bl": check_bl,
    "conj_original": check_conj_original,
    "conj_index": check_conj_index,
}

ALL_CRITERIA = tuple(_CHECKS)


def run_criterion(name: str, c: CuspCollection, d: int) -> CriterionReport:
    """Criterion `name` on (c, d): d < 3 raises NotCandidateError, a non-candidate is computed."""
    try:
        fn = _CHECKS[name]
    except KeyError:
        raise ValueError(f"unknown criterion {name!r}") from None
    return fn(c, d)


def multiplicity_multiset(c: CuspCollection) -> Counter:
    """Bag union of all multiplicity-sequence entries of the collection."""
    out: Counter = Counter()
    for ms in c.multseqs:
        out.update(ms.entries)
    return out


class Regroupings(Frozen):
    __slots__ = _fields = ("collections", "truncated")

    def cusp_collections(self) -> list[CuspCollection]:
        """One collection per regrouping, its H already folded.

        The rows fold their H together, through one memo of the prefixes
        they share that lives for this call only (see _prefix_hs).
        """
        colls = list(map(CuspCollection, self.collections))
        for c, h in zip(colls, _prefix_hs(self.collections, _H_MEMO_CELLS)):
            c.seed_h(h)
        return colls


#: H window cells (2*delta + 1 per regrouping) one `stability` run compares.
_STABILITY_CELLS = 50_000

#: Cells (cutoff + 1 per H) that the prefix memo of one cusp_collections
#: call may hold, room for every proper prefix of [2_30] at its row cap.
_H_MEMO_CELLS = 2 * _STABILITY_CELLS


def _prefix_hs(rows, budget: int) -> list[CountingFn]:
    """H of each row of parts, the rows sharing the folds of common prefixes.

    Each row's parts are folded in ascending delta (ties by entries), so
    rows that share their smallest parts share the H of that prefix:
    H(prefix + p) = H(prefix) min-plus H_p.  The memo is keyed by the
    entries of a prefix's parts and keeps a proper prefix of two parts or
    more only while it stays within `budget` cells; past it, rows fold
    without storing.  Each distinct part's counting function is built once
    per call and kept for it: 2 * delta_p + 1 cells a part, so at most
    2 * delta + (parts) cells a row.
    """
    fns: dict = {}
    memo: dict = {}
    cells = 0
    hs = []
    for parts in rows:
        ordered = sorted(parts, key=lambda p: (p.delta, p.entries))
        key, h = (), None
        for n, part in enumerate(ordered, 1):
            key += (part.entries,)
            hit = memo.get(key)
            if hit is None:
                fn = fns.get(part.entries)
                if fn is None:
                    fn = fns[part.entries] = counting_fn(semigroup_from_multseq(part))
                hit = fn if h is None else min_convolve_all((h, fn))
                if 1 < n < len(ordered) and cells + hit.cutoff + 1 <= budget:
                    memo[key] = hit
                    cells += hit.cutoff + 1
            h = hit
        hs.append(h)
    return hs


#: Multiset entries up to which `regroupings` walks.  The walk nests one
#: generator per entry, and Python's recursion limit stops it near 700.
_MAX_ENTRIES = 256

#: Parts the walk may try.  Few rows do not mean little work: under
#: max_parts the walk can try every sub-multiset that holds the largest
#: entry, about 3 * 4**11 on twelve values three times each, and keep none.
_MAX_PARTS_TRIED = 50_000


def require_entries(n: int) -> None:
    """Raise CapExceeded if a multiset of n entries is too long for regroupings."""
    if n > _MAX_ENTRIES:
        raise CapExceeded(f"multiset too large: {n} entries exceed cap {_MAX_ENTRIES}")


def _walk(done, part, pool, parts_left, tried):
    # the regroupings that start with the parts in done, then part extended by
    # entries of the non-increasing pool.  Each part holds the largest entry
    # left and is at most the part before it, so every regrouping is met
    # once, in ascending order; an inadmissible part is never closed.
    if parts_left < 1 or done and part > done[-1]:
        return
    n = next(tried)
    if n > _MAX_PARTS_TRIED:
        raise CapExceeded(f"regroupings too costly: {n} parts tried exceed cap {_MAX_PARTS_TRIED}")
    # with one part left and entries still pooled, the closing call returns
    # at once, so the admissibility check would go unused
    if (parts_left > 1 or not pool) and is_admissible(part):
        if pool:
            yield from _walk(done + (part,), pool[:1], pool[1:], parts_left - 1, tried)
        else:
            yield done + (part,)
    for v in sorted(set(pool)):
        if v > part[-1]:
            break
        i = pool.index(v)
        yield from _walk(done, part + (v,), pool[:i] + pool[i + 1:], parts_left, tried)


def regroupings(
    multiset: Counter | Iterable[int],
    max_parts: int | None = None,
    cap: int = 10_000,
) -> Regroupings:
    """All ways to split the multiplicity multiset into admissible sequences.

    Each part is non-increasing and passes the un-blowup admissibility check.
    A depth-first walk yields the regroupings in ascending order, with at
    most `max_parts` parts, and stops after `cap` of them; `truncated` says
    that an admissible regrouping was left out.  A multiset of more than
    _MAX_ENTRIES entries raises CapExceeded before the walk, and a walk that
    tries more than _MAX_PARTS_TRIED parts raises it during the walk.
    """
    items = tuple(sorted(Counter(multiset).elements(), reverse=True))
    if not items:
        raise ValueError("empty multiplicity multiset")
    require_entries(len(items))
    walk = _walk((), items[:1], items[1:], len(items) if max_parts is None else max_parts,
                 count(1))
    kept = list(islice(walk, cap + 1))
    rows = kept[:cap]
    # one MultSeq per distinct part, shared by the rows that hold it
    seqs = {part: MultSeq(part) for part in dict.fromkeys(chain.from_iterable(rows))}
    return Regroupings(tuple(tuple(map(seqs.__getitem__, parts)) for parts in rows),
                       len(kept) > cap)


# ---------------------------------------------------------------------------
# catalog of known curves with at least three cusps

FAMILIES = ("C", "D", "E", "sporadic3", "sporadic4")


class CatalogEntry(Frozen):
    __slots__ = _fields = ("family", "label", "d", "params", "cusps", "newton")

    def __init__(self, family: str, label: str, d: int, params: tuple[int, ...],
                 cusps: tuple[MultSeq, ...], newton: tuple[NewtonPairs, ...]):
        total = sum(ms.delta for ms in cusps)
        if 2 * total != (d - 1) * (d - 2):
            raise AssertionError(
                f"catalog entry {label}: 2*delta = {2 * total} != (d-1)(d-2)")
        super().__init__(family, label, d, params, cusps, newton)

    def collection(self) -> CuspCollection:
        return CuspCollection(self.cusps)


def catalog_degree(family: str, d: int | None = None, l: int | None = None) -> int | None:
    """The degree of a catalog entry, from its series parameter, before it is built.

    d for C(d, u), 2l + 3 for D(l) and 3l + 4 for E(l); None for the other
    families, or when the parameter is missing.
    """
    if family == "C":
        return d
    if l is None:
        return None
    return {"D": 2 * l + 3, "E": 3 * l + 4}.get(family)


def catalog(family: str, d: int | None = None, u: int | None = None,
            l: int | None = None) -> CatalogEntry:
    """Build one catalog entry; parameters are validated against the series ranges."""
    if family == "C":
        if d is None or u is None:
            raise ValueError("family C needs d and u")
        if d < 4 or not 1 <= u <= d - 3:
            raise ValueError(f"family C needs d >= 4 and 1 <= u <= d-3; got d={d}, u={u}")
        # the series is symmetric in u <-> d-2-u; emit the longer double-point
        # chain first, the order the published tables use
        v1, v2 = max(u, d - 2 - u), min(u, d - 2 - u)
        cusps = (MultSeq((d - 2,)), MultSeq((2,) * v1), MultSeq((2,) * v2))
        newton = (
            NewtonPairs(((d - 2, d - 1),)),
            NewtonPairs(((2, 2 * v1 + 1),)),
            NewtonPairs(((2, 2 * v2 + 1),)),
        )
        return CatalogEntry("C", f"C({d},{u})", d, (d, u), cusps, newton)
    if family == "D":
        if l is None or l < 1:
            raise ValueError("family D needs l >= 1")
        cusps = (MultSeq((2 * l,) + (2,) * l), MultSeq((3,) * l), MultSeq((2,)))
        # l = 1 degenerates: [2,2] is the one-pair cusp (2,5)
        first = NewtonPairs(((2, 5),)) if l == 1 else NewtonPairs(((l, l + 1), (2, 1)))
        newton = (first, NewtonPairs(((3, 3 * l + 1),)), NewtonPairs(((2, 3),)))
        return CatalogEntry("D", f"D({l})", catalog_degree("D", l=l), (l,), cusps, newton)
    if family == "E":
        if l is None or l < 1:
            raise ValueError("family E needs l >= 1")
        cusps = (
            MultSeq((3 * l,) + (3,) * l),
            MultSeq((4,) * l + (2, 2)),
            MultSeq((2,)),
        )
        # l = 1 degenerates: [3,3] is the one-pair cusp (3,7)
        first = NewtonPairs(((3, 7),)) if l == 1 else NewtonPairs(((l, l + 1), (3, 1)))
        newton = (first, NewtonPairs(((2, 2 * l + 1), (2, 1))), NewtonPairs(((2, 3),)))
        return CatalogEntry("E", f"E({l})", catalog_degree("E", l=l), (l,), cusps, newton)
    if family == "sporadic3":
        cusps = (MultSeq((2, 2)),) * 3
        newton = (NewtonPairs(((2, 5),)),) * 3
        return CatalogEntry("sporadic3", "sporadic3", 5, (), cusps, newton)
    if family == "sporadic4":
        cusps = (MultSeq((2, 2, 2)), MultSeq((2,)), MultSeq((2,)), MultSeq((2,)))
        newton = (NewtonPairs(((2, 7),)),) + (NewtonPairs(((2, 3),)),) * 3
        return CatalogEntry("sporadic4", "sporadic4", 5, (), cusps, newton)
    raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")


def catalog_entries(max_d: int) -> Iterator[CatalogEntry]:
    """Every catalog entry of degree at most max_d, both sporadics included."""
    for d in range(4, max_d + 1):
        for u in range(1, d - 2):
            yield catalog("C", d=d, u=u)
    for family in ("D", "E"):
        l = 1
        while catalog_degree(family, l=l) <= max_d:
            yield catalog(family, l=l)
            l += 1
    if max_d >= 5:
        yield catalog("sporadic3")
        yield catalog("sporadic4")


def expected_eu_difference(entry: CatalogEntry) -> int:
    """Closed form for eu_h0 - eu_hstar on the C, D, E series."""
    if entry.family == "C":
        d, u = entry.params
        if d % 2 == 1:
            l = (d - 1) // 2
            return l * (l - 1)
        l = d // 2
        uu = max(u, d - 2 - u)  # the series is symmetric in u <-> d-2-u
        return (uu - l) * (uu - l + 1)
    if entry.family == "D":
        (l,) = entry.params
        if l % 3 == 2:
            p = (l + 1) // 3
            return 4 * p * (3 * p - 1) + 2
        if l % 3 == 0:
            p = l // 3
            return 4 * p * (3 * p - 1)
        p = (l - 1) // 3
        return 12 * p * (p + 1) + 2
    if entry.family == "E":
        (l,) = entry.params
        p, r = divmod(l, 4)
        return (
            60 * p * p - 2 * p,
            60 * p * p + 46 * p + 10,
            60 * p * p + 62 * p + 16,
            60 * p * p + 100 * p + 42,
        )[r]
    raise ValueError(f"no closed form for family {entry.family!r}")
