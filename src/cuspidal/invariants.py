"""Invariants of a cusp collection.

For a collection of plane-branch cusps with semigroups G_1..G_nu and total
gap count delta, this module computes:

* the Alexander polynomial of each cusp, Delta_i(t) = (1-t) sum_{k in G_i} t^k,
  and the product Delta of all of them (degree 2*delta, Delta(1) = 1);
* the quotient Q with Delta(t) = 1 + delta(t-1) + (t-1)^2 Q(t) and its
  coefficient sequence q_0..q_{2delta-2};
* the sequence F of the coefficients of Delta(t)/(1-t)^2, which is
  F(j) = q_j + j + 1 - delta for j >= 0 (q_j = 0 past 2*delta-2);
* H, the min-plus convolution of the cusp counting functions;
* the sparse polynomial R supported on multiples of a degree d, whose
  coefficients compare q at multiples of d against triangular numbers; and
* the normalized Euler characteristics eu_h0 / eu_hstar of the lattice
  cohomology of the (-d)-surgery on the connected sum of the cusp knots, per
  Spin^c index a, as explicit finite sums over H and F (F(j) + delta-1-j
  is q_j, so eu_hstar sums q over the class).

A CuspCollection takes multiplicity sequences, Newton pairs or semigroups,
keeps a sequence it is given, and computes its counting functions, H, the
Alexander product and q once, on first use; H, q, F, R and the Euler
characteristics below are read from those values.  H folds the counting
functions smallest offset first (min_convolve_all), and the Alexander
product multiplies the cusps' Apery polynomials smallest delta first; both
are exact, so the order of the cusps changes only the cost.  A caller that
already holds H (the regroupings of a multiset share the H of their common
parts) hands it over with seed_h.  The Alexander polynomial of one cusp and
the product come from one route, the cusps' Apery sets (see
_alexander_series), and q, F, R and the Spin^c sums are read from them by
slicing and running sums, with no Python step per coefficient.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import cached_property
from itertools import accumulate
from math import isqrt

from ._frozen import Frozen
from .semigroup import (
    Cusp,
    MultSeq,
    Semigroup,
    SemigroupError,
    counting_fn,
    multseq_from_semigroup,
    resolve_semigroup,
)
from .seqcalc import CountingFn, IntSeq, convolve, min_convolve_all, partial_sums


class CapExceeded(RuntimeError):
    """The size of the requested work exceeds a cap; the CLI exits 3 on it."""


class NotCandidateError(ValueError):
    """An operation that requires 2*delta = (d-1)(d-2) was refused."""


class IntPoly(Frozen):
    """Integer polynomial in t, coefficients stored as an IntSeq."""

    __slots__ = _fields = ("coeffs",)


class CuspCollection(Frozen):
    """An immutable collection of plane-branch cusps, in any of their descriptions.

    Resolves each cusp (a multiplicity sequence, Newton pairs or a semigroup)
    once to its semigroup.  A given sequence is kept; that of any other cusp
    is read off its blowup chain, which checks that it is a plane branch.
    Smooth points are rejected.  Equal cusps in any description give equal
    collections.  The counting functions, H, the Alexander product and q are
    computed on first use and kept; F is read from q.
    """

    _fields = ("cusps", "multseqs")

    def __init__(self, cusps: Iterable[Cusp]):
        semigroups, seqs = [], []
        for cusp in cusps:
            try:
                s = resolve_semigroup(cusp)
                if s.multiplicity == 1:
                    raise SemigroupError("smooth point is not a cusp")
                seqs.append(cusp if isinstance(cusp, MultSeq) else multseq_from_semigroup(s))
            except SemigroupError as exc:
                raise type(exc)(f"bad cusp {cusp.literal()!r}: {exc}") from exc
            semigroups.append(s)
        if not semigroups:
            raise SemigroupError("a cusp collection needs at least one cusp")
        super().__init__(tuple(semigroups), tuple(seqs))

    @property
    def nu(self) -> int:
        return len(self.cusps)

    @cached_property
    def deltas(self) -> tuple[int, ...]:
        return tuple(s.delta for s in self.cusps)

    @cached_property
    def delta(self) -> int:
        return sum(self.deltas)

    @cached_property
    def counting_fns(self) -> tuple[CountingFn, ...]:
        """The counting function of each cusp."""
        return tuple(counting_fn(s) for s in self.cusps)

    @cached_property
    def h(self) -> CountingFn:
        """H, the min-plus convolution of the cusp counting functions."""
        return min_convolve_all(self.counting_fns)

    def seed_h(self, h: CountingFn) -> None:
        """Take h as H, when the fold of the counting functions is already known.

        h must equal min_convolve_all(self.counting_fns); the regroupings of
        a multiset fold theirs through a shared prefix memo.
        """
        self.__dict__["h"] = h

    @cached_property
    def alexander_product(self) -> IntPoly:
        """Product of the cusp Alexander polynomials; degree 2*delta, value 1 at t=1."""
        return IntPoly(_alexander_series(self.cusps))

    @cached_property
    def q(self) -> IntSeq:
        """Coefficients of Q where Delta(t) = 1 + delta(t-1) + (t-1)^2 Q(t).

        Degree 2*delta - 2, with q_0 = delta and top coefficient 1.  The
        division is exact; a nonzero remainder signals an internal
        inconsistency.
        """
        d = self.delta
        co = list(self.alexander_product.coeffs.window(2 * d))
        co[0] -= 1 - d
        co[1] -= d
        return IntSeq(tuple(_divide_by_t_minus_1(_divide_by_t_minus_1(co))))

    def f(self, j: int) -> int:
        """F(j) = q_j + j + 1 - delta for j >= 0, and 0 below.

        F(j) is the t^j coefficient of Delta(t)/(1-t)^2: with Delta(t) =
        1 + delta(t-1) + (t-1)^2 Q(t) that is Q plus 1/(1-t)^2 - delta/(1-t).
        """
        return self.q[j] + j + 1 - self.delta if j >= 0 else 0


class EuReport(Frozen):
    """Per-Spin^c Euler characteristics with the per-j summands.

    terms holds (j, H(j+1) + delta-1-j, F(j) + delta-1-j) for the indices j
    in the congruence class; eu_h0 and eu_hstar are the two column sums.
    """

    __slots__ = _fields = ("d", "a", "eu_h0", "eu_hstar", "terms")


def candidate_degree(c: CuspCollection) -> int | None:
    """The unique d >= 3 with 2*delta = (d-1)(d-2), if it exists.

    On a candidate 8*delta + 1 = (2d - 3)^2, and delta >= 1 gives d >= 3.
    """
    d = (3 + isqrt(8 * c.delta + 1)) // 2
    return d if (d - 1) * (d - 2) == 2 * c.delta else None


def is_candidate(c: CuspCollection, d: int) -> bool:
    """Whether d >= 3 and 2*delta = (d-1)(d-2), i.e. c is a candidate of degree d."""
    return d == candidate_degree(c)


def _triangular(j: int) -> int:
    return (j + 1) * (j + 2) // 2


def _multiples(d: int) -> range:
    """The indices jd, j = 0..d-3, of the criteria, R and eu_canonical; the one d < 3 refusal."""
    if d < 3:
        raise NotCandidateError(f"degree {d} < 3")
    return range(0, d * (d - 2), d)


def require_candidate(c: CuspCollection, d: int, remedy: str) -> None:
    """Raise NotCandidateError unless is_candidate, its 2*delta message ending in `remedy`."""
    _multiples(d)  # `degree d < 3`
    if not is_candidate(c, d):
        raise NotCandidateError(
            f"not a candidate: 2*delta = {2 * c.delta} != (d-1)(d-2) = "
            f"{(d - 1) * (d - 2)}{remedy}")


def geometric_genus(d: int) -> int:
    """d(d-1)(d-2)/6, the geometric genus of the associated surface germ."""
    return d * (d - 1) * (d - 2) // 6


def alexander(s: Semigroup) -> IntPoly:
    """Alexander polynomial (1-t) * sum_{k in s} t^k, of degree at most 2*delta."""
    return IntPoly(_alexander_series((s,)))


def _alexander_series(cusps) -> IntSeq:
    """Product of the Alexander polynomials of `cusps`, from their Apery sets.

    A semigroup is its Apery set of the multiplicity m plus multiples of m,
    so sum_{k in s} t^k = A(t) / (1 - t^m) with A(t) = sum_{w in Ap} t^w.
    Modulo t^(2*delta + 2): multiply the A_i in ascending delta (one
    convolve per cusp, over m_1 * m_2 * ... nonzero pairs; the product is
    the same in any order, and this one multiplies the small factors
    first), multiply by (1 - t)^nu, and divide by each 1 - t^m_i with a
    running sum over every residue class mod m_i.
    The product has degree at most 2*delta, so the coefficient at
    2*delta + 1 must come out 0; a nonzero one raises ArithmeticError.
    """
    n = 2 * sum(s.delta for s in cusps) + 2
    out = IntSeq((1,))
    for s in sorted(cusps, key=operator.attrgetter("delta")):
        w = sorted(s.apery)
        a = [0] * (w[-1] + 1)
        for x in w:
            a[x] = 1
        out = convolve(out, IntSeq(a))
    co = list(out.window(n - 1))
    for _ in cusps:
        co[1:] = map(operator.sub, co[1:], co)
    for s in cusps:
        m = s.multiplicity
        for r in range(m):
            co[r::m] = accumulate(co[r::m])
    if co[-1]:
        raise ArithmeticError("Alexander product of degree above 2*delta")
    return IntSeq(co[:-1])


def _divide_by_t_minus_1(co: list[int]) -> list[int]:
    # co = (t - 1) * q, i.e. co_j = q_{j-1} - q_j with q_{-1} = 0, so q_j is
    # the running difference 0 - co_0 - ... - co_j; the division is exact
    # when the difference over all of co comes back to 0
    q = list(accumulate(co, operator.sub, initial=0))
    if not co or q.pop():
        raise ArithmeticError("inexact division by t - 1")
    return q[1:]


def q_coefficients(c: CuspCollection) -> IntSeq:
    """Coefficients of Q where Delta(t) = 1 + delta(t-1) + (t-1)^2 Q(t); see CuspCollection.q."""
    return c.q


def f_sequence(c: CuspCollection, window: int | None = None) -> IntSeq:
    """The sequence F on [0, window], the window defaulting to [0, 2*delta - 2].

    F(j) = q_j + j + 1 - delta (see CuspCollection.f): q.window(window) plus
    a range.
    """
    n = 2 * c.delta - 2 if window is None else window
    return IntSeq(map(operator.add, c.q.window(n), range(1 - c.delta, n + 2 - c.delta)))


def h_function(c: CuspCollection) -> CountingFn:
    """Min-plus convolution of the cusp counting functions."""
    return c.h


def r_poly(c: CuspCollection, d: int) -> IntPoly:
    """Sparse polynomial comparing q at multiples of d with triangular numbers.

    R(t) = sum_{j=0}^{d-3} (q_{(d-3-j)d} - (j+1)(j+2)/2) t^{(d-3-j)d}, with
    q read as 0 outside [0, 2*delta-2]; _r_terms refuses d < 3 before co is sized.
    """
    terms = _r_terms(c, d)
    co = [0] * (d * (d - 3) + 1)
    for e, v in terms:
        co[e] = v
    return IntPoly(IntSeq(co))


def _r_terms(c: CuspCollection, d: int) -> list[tuple[int, int]]:
    """R's d - 2 terms as (exponent, coefficient), j = 0..d-3 (see r_poly)."""
    return [(e, c.q[e] - _triangular(j)) for j, e in enumerate(reversed(_multiples(d)))]


def r_poly_series(c: CuspCollection, d: int) -> IntPoly:
    """Power-series route to R, as an independent cross-check of r_poly.

    Averaging Delta(xt)/(1-xt)^2 over the d-th roots of unity x keeps every
    d-th coefficient of the series Delta(t)/(1-t)^2; subtracting the series
    (1-t^{d*d})/(1-t^d)^3 must then leave a polynomial supported on multiples
    of d up to d(d-3).  The series is read only up to degree d(d-2) < d^2,
    where the numerator 1-t^{d*d} does not act, so the coefficient subtracted
    at t^{id} is (i+1)(i+2)/2.  Only valid when 2*delta = (d-1)(d-2), where
    the tail cancels.  Reads the Alexander product, not q, so that it stays
    independent of r_poly.
    """
    require_candidate(c, d, "; the series tail cancels only for candidates")
    top = d * (d - 3)
    n = top + d
    # g = Delta(t) / (1-t)^2 truncated at degree n; dividing by 1-t is a partial sum
    g = partial_sums(partial_sums(c.alexander_product.coeffs, n), n)
    co = [0] * (top + 1)
    for k in range(0, n + 1, d):
        i = k // d
        value = g[k] - _triangular(i)
        if k <= top:
            co[k] = value
        elif value != 0:
            raise ArithmeticError(f"series tail does not cancel at degree {k}")
    return IntPoly(IntSeq(tuple(co)))


def spinc_report(c: CuspCollection, d: int, a: int) -> EuReport:
    """Both Euler characteristics at Spin^c index a, with per-j summands.

    eu_h0, of the zeroth lattice cohomology of the (-d)-surgery, sums
    H(j+1) + delta-1-j over 0 <= j <= 2*delta-2 with j = a (mod d); eu_hstar,
    of the full lattice cohomology, is the same sum with F in place of H.
    F(j) + delta-1-j is q_j, so the eu_hstar terms are q's coefficients.
    """
    if not 0 <= a < d:
        raise ValueError(f"Spin^c index {a} not in [0, {d})")
    dl = c.delta
    top = 2 * dl - 2
    norm = range(dl - 1 - a, -dl, -d)  # delta - 1 - j for j = a, a + d, ... <= top
    # H(j + 1) is head[j + 1] (cutoff 2*delta); q has degree top, q_top = 1
    h0 = list(map(operator.add, h_function(c).head[a + 1:top + 2:d], norm))
    hstar = c.q.values[a:top + 1:d]
    return EuReport(d, a, sum(h0), sum(hstar), tuple(zip(range(a, top + 1, d), h0, hstar)))


def eu_canonical(c: CuspCollection, d: int) -> tuple[int, int]:
    """Canonical-Spin^c Euler characteristics when 2*delta = (d-1)(d-2).

    The (eu_h0, eu_hstar) of spinc_report at a = 0.  Its indices are j = kd
    for k = 0..d-3, where the normalising terms delta-1-kd sum to 0, so the
    two are sum_k H(kd+1) and sum_k F(kd), and R(1) = eu_hstar - eu_h0.
    """
    require_candidate(c, d, "; use the per-Spin^c operations for general d")
    rep = spinc_report(c, d, 0)
    return rep.eu_h0, rep.eu_hstar
