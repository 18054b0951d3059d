"""Numerical semigroups of plane-branch cusp types.

A cusp type can be given as a multiplicity sequence like ``[3,2]`` or
``[2_4]``, as Newton pairs like ``(2,3)(2,1)``, or as semigroup generators
like ``<4,6,13>``.  This module converts between the three descriptions:
multiplicity sequences are folded into semigroups through the Apery-set
un-blowup step (append a multiplicity m by shifting the j-th smallest Apery
representative up by j*m), and recovered by running the shift backwards.
Each step of either chain passes on only the Apery set, checked by the Kunz
inequalities in O(m^2) for multiplicity m, and a chain builds one Semigroup,
at its end, from that Apery set without checking it again: no step lists
the gaps, which cost delta a step.  Generators get their Apery set directly,
by the round-robin walk in O(m*k) for k generators, and build their
Semigroup the same way.

A semigroup is stored by its Apery set of the multiplicity m, indexed by
residue mod m (Rosales and Garcia-Sanchez, *Numerical Semigroups*, 2009,
ch. 1-2): the semigroup is the disjoint union of the progressions
w + m*Z>=0.  Membership, the minimal generators, the counting function,
the gaps, delta (Selmer's sum of (w_r - r) / m) and the conductor
(max w - m + 1) are read from it; the counting head marks each progression
with one slice assignment and sums the marks.  The constructor, the route
for gap sets from outside, validates the gap set through the Apery set: the
gap set must be closed under -m, and the Apery elements must satisfy the
Kunz inequalities w_i + w_j >= w_{(i+j) mod m}.  That is O(c + m^2) for
conductor c instead of a scan of every pair of elements below c.
All values are immutable and all operations are pure, so everything here is
safe to share across threads.  MultSeq, NewtonPairs and Semigroup are plain
classes on the package's frozen base (_frozen.Frozen), each with a
written-out constructor that takes its integers through operator.index, as
semigroup_from_generators does: a float raises TypeError instead of being
truncated.  The literal parser reads its numbers with int once the grammar's
digit rule has accepted them, and refuses one past int's digit limit in its
spelling's own message.  Semigroup's constructor runs its checks through
__post_init__, and its one field is the Apery set, so equality, hashing and
the repr go by it.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate, chain, groupby
from math import gcd, inf, prod
from operator import ge, index

from ._frozen import Frozen
from .seqcalc import CountingFn


#: Size of the chain cache below.  A long-lived process that calls
#: regroupings on many multisets meets a new key for every part it tries, so
#: the cache is bounded, well above the at most 67 keys that one pass of any
#: benchmark workload meets.  _semigroup_from_entries keeps, per tuple of
#: multiplicities, the chain's Semigroup (m integers) or the failed step's
#: message, which is_admissible reads.  Caching chains pays, in warm seed-7
#: passes on one CPU: without any chain cache `screen` took 390-392 ms
#: against 349-352 and `highdeg` 145-148 against 108-109, and without
#: failed chains kept, in-process `stability` on [6,3] [4,2] [3,2] [2_2]
#: took 10.8-11.0 ms against 9.7-9.9.
_CHAIN_CACHE = 4096


class SemigroupError(ValueError):
    """Invalid construction or operation on a numerical semigroup."""


class InadmissibleSequenceError(SemigroupError):
    """A multiplicity sequence whose un-blowup chain fails."""


class NotPlaneBranchError(SemigroupError):
    """A semigroup whose blowup chain does not behave like a plane branch."""


class MultSeq(Frozen):
    """A plane-branch multiplicity sequence, non-increasing entries >= 2.

    The empty sequence is the explicit smooth-point sentinel; it is a valid
    value but rejected by every operation that expects an actual cusp.
    """

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Iterable[int] = ()):
        entries = tuple(map(index, entries))
        for n in entries:
            if n < 2:
                raise SemigroupError(f"multiplicity {n} < 2")
        if any(a < b for a, b in zip(entries, entries[1:])):
            raise SemigroupError(f"multiplicity sequence {entries} is not non-increasing")
        object.__setattr__(self, "entries", entries)

    @property
    def delta(self) -> int:
        """Gap count of the associated semigroup: sum of n(n-1)/2 over entries."""
        return sum(n * (n - 1) // 2 for n in self.entries)

    def literal(self) -> str:
        """Bracket literal with u_n repetition shorthand, e.g. '[2_4]' or '[3,2]'."""
        parts = []
        for value, run in groupby(self.entries):
            count = len(list(run))
            parts.append(f"{value}_{count}" if count > 1 else f"{value}")
        return "[" + ",".join(parts) + "]"

    def __str__(self) -> str:
        return self.literal()


class NewtonPairs(Frozen):
    """Newton pairs (p_k, q_k): coprime, p_k >= 2, q_k >= 1 and q_1 > p_1."""

    __slots__ = _fields = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        pairs = tuple((index(p), index(q)) for p, q in pairs)
        if not pairs:
            raise SemigroupError("empty Newton pair list")
        for p, q in pairs:
            if p < 2:
                raise SemigroupError(f"Newton pair ({p},{q}) has p < 2")
            if q < 1:
                raise SemigroupError(f"Newton pair ({p},{q}) has q < 1")
            if gcd(p, q) != 1:
                raise SemigroupError(f"Newton pair ({p},{q}) is not coprime")
        p1, q1 = pairs[0]
        if q1 <= p1:
            raise SemigroupError(f"first Newton pair ({p1},{q1}) needs q > p")
        object.__setattr__(self, "pairs", pairs)

    def literal(self) -> str:
        return "".join(f"({p},{q})" for p, q in self.pairs)

    def __str__(self) -> str:
        return self.literal()


class Semigroup(Frozen):
    """A numerical semigroup, stored by its Apery set of the multiplicity m.

    apery[r] is the least element congruent to r mod m.  The constructor
    takes a finite gap set and checks that its complement really is closed
    under addition, so a Semigroup value is a semigroup by construction.
    """

    __slots__ = _fields = ("apery",)

    def __init__(self, gaps: Iterable[int] = ()):
        self.__post_init__(gaps)

    def __post_init__(self, gaps):
        # bench/tracer.py wraps this method; _semigroup's values skip it
        object.__setattr__(self, "apery", _checked_apery(tuple(map(index, gaps))))

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        w = self.apery
        return k >= w[k % len(w)]

    @property
    def gaps(self) -> tuple[int, ...]:
        """The sorted gaps: r, r + m, ..., apery[r] - m for each residue r."""
        w = self.apery
        m = len(w)
        return tuple(sorted(chain.from_iterable(range(r, x, m) for r, x in enumerate(w))))

    @property
    def delta(self) -> int:
        """Gap count, by Selmer's sum of (apery[r] - r) / m."""
        w = self.apery
        m = len(w)
        return sum((x - r) // m for r, x in enumerate(w))

    @property
    def conductor(self) -> int:
        w = self.apery
        return max(w) - len(w) + 1

    @property
    def multiplicity(self) -> int:
        """Smallest positive element (1 for the full semigroup)."""
        return len(self.apery)

    def min_generators(self) -> tuple[int, ...]:
        """The unique minimal generating set.

        Besides m, a generator is a nonzero Apery element w that is not
        w' + s for a smaller generator w' and an element s; the Apery
        elements are tested in increasing order.
        """
        w = self.apery
        m = len(w)
        gens = [m]
        for x in sorted(w[1:]):
            if all(x - g < w[(x - g) % m] for g in gens[1:]):
                gens.append(x)
        return tuple(gens)

    def literal(self) -> str:
        return "<" + ",".join(str(g) for g in self.min_generators()) + ">"

    def __str__(self) -> str:
        return self.literal()


def _checked_apery(gaps: tuple[int, ...]) -> tuple[int, ...]:
    """Apery set w of the multiplicity m, by residue, of the complement of `gaps`.

    Raises SemigroupError unless the complement is closed under addition,
    in O(c + m^2) for conductor c: the gap set must be closed under -m, then
    w must pass _kunz.  A failure names the least pair s <= t of elements
    with s + t a gap: if some s + t is a gap then so is m + t' or w_i + w_j
    for a pair that comes no later.
    """
    if not gaps:
        return (0,)
    if min(gaps) < 1:
        raise SemigroupError("gaps must be positive")
    if any(map(ge, gaps, gaps[1:])):
        raise SemigroupError("gaps must be strictly increasing")
    # the gaps start 1, 2, ..., m - 1
    m = 1
    while m <= len(gaps) and gaps[m - 1] == m:
        m += 1
    # w_r is m plus the largest gap of residue r, or r if there is none: for a
    # gap set closed under -m the gaps of residue r are r, r + m, ..., w_r - m
    top = dict(zip(map(m.__rmod__, gaps), gaps))
    w = tuple(top[r] + m if r in top else r for r in range(m))
    # residue class r holds at most (w_r - r) / m gaps, all of them iff the
    # gap set is closed under -m
    if sum((x - r) // m for r, x in enumerate(w)) != len(gaps):
        gapset = set(gaps)
        u = next(u for u in gaps[m - 1:] if u - m not in gapset)
        raise SemigroupError(f"not a semigroup: {m} + {u - m} = {u} is a gap")
    return _kunz(w)


def _kunz(w: tuple[int, ...], context: str = "") -> tuple[int, ...]:
    """w, if the progressions w_r + m*Z>=0 (m = len(w), w_r = r mod m) add up to a semigroup.

    The Kunz inequalities w_i + w_j >= w_{(i+j) mod m} decide it; tried in
    increasing (s, t) order, the first to fail is the least pair of elements
    whose sum is missing.
    """
    m = len(w)
    ws = sorted(w[1:])
    for i, s in enumerate(ws):
        for t in ws[i:]:
            if s + t < w[(s + t) % m]:
                raise SemigroupError(f"{context}not a semigroup: {s} + {t} = {s + t} is a gap")
    return w


def _rebase(w: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Ap(S, m) by residue from Ap(S, n) by residue (n = len(w)), for m in S.

    A progression w_r + n*Z>=0 meets all the residues mod m it ever meets in
    its first m / gcd(m, n) terms, so the walk takes O(m*n) steps.
    """
    n = len(w)
    if m == n:
        return w
    least: dict = {}
    for y in sorted(chain.from_iterable(range(x, x + m * n // gcd(m, n), n) for x in w)):
        least.setdefault(y % m, y)
    return tuple(map(least.__getitem__, range(m)))


def _unblowup(w: tuple[int, ...], m: int) -> tuple[int, ...]:
    # Ap(S, m) = {a_0 < ... < a_{m-1}} becomes {a_j + j*m}, by residue
    if m < 1 or m < w[m % len(w)]:
        raise SemigroupError(f"invalid multiplicity: {m} not in semigroup")
    b = (aj + j * m for j, aj in enumerate(sorted(_rebase(w, m))))
    return _kunz(tuple(sorted(b, key=m.__rmod__)), "un-blowup is not a semigroup: ")


def _blowup(w: tuple[int, ...]) -> tuple[int, ...]:
    # for multiplicity m = len(w) > 1, {b_0 < ... < b_{m-1}} becomes {b_j - j*m},
    # whose least nonzero element n, if below m, is the new multiplicity.
    # Layers closed under +n as well as +m are decided by Kunz at n, in
    # O(n^2) instead of O(m^2); layers that are not are no semigroup, and
    # Kunz at m names the least pair whose sum is missing
    m = len(w)
    a = [bj - j * m for j, bj in enumerate(sorted(w))]
    if any(map(ge, a, a[1:])):
        raise NotPlaneBranchError("blowup does not preserve the Apery order")
    w = tuple(sorted(a, key=m.__rmod__))
    n = a[1]
    if n < m and all(x + n >= w[(x + n) % m] for x in w):
        w = _rebase(w, n)
    return _kunz(w, "blowup is not a semigroup: ")


def _semigroup(w: tuple[int, ...]) -> Semigroup:
    # the one Semigroup a chain or the generator walk builds, from an Apery
    # set known good, past the constructor's checks
    s = object.__new__(Semigroup)
    object.__setattr__(s, "apery", w)
    return s


#: The full semigroup of all nonnegative integers (a smooth point).
SMOOTH = Semigroup(())


def semigroup_from_generators(gens) -> Semigroup:
    """Semigroup generated by `gens`, whose gcd must be 1, built from the least one's Apery set."""
    gens = sorted(set(map(index, gens)))
    if not gens:
        raise SemigroupError("empty generator list")
    if any(g < 1 for g in gens):
        raise SemigroupError("generators must be positive")
    g = 0
    for x in gens:
        g = gcd(g, x)
    if g != 1:
        raise SemigroupError(f"not numerical: gcd of generators is {g}")
    # the round-robin walk (Boecker and Liptak, Algorithmica 2007): the Apery
    # set of m = gens[0] is relaxed along each of the gcd(m, g) cycles
    # x, x + g, ... (mod m) of each further generator g, twice round, so that
    # the cycle's least entry reaches every residue of it; O(m*k) in all
    m, *rest = gens
    w = [0] + [inf] * (m - 1)
    for g in rest:
        n = gcd(m, g)
        for x in range(n):
            for y in range(x, x + 2 * m // n * g, g):
                w[(y + g) % m] = min(w[(y + g) % m], w[y % m] + g)
    return _semigroup(tuple(w))


def apery_set(s: Semigroup, m: int) -> tuple[int, ...]:
    """Apery set of `s` for an element m of `s`: the least element per residue mod m, sorted."""
    if m < 1 or m not in s:
        raise SemigroupError(f"modulus {m} not in semigroup")
    return tuple(sorted(_rebase(s.apery, m)))


def unblowup(s: Semigroup, m: int) -> Semigroup:
    """Inverse blowup: the semigroup whose blowup is `s` and whose multiplicity is m.

    With Ap(m, s) = {a_0 < ... < a_{m-1}}, the result has Apery set
    {a_j + j*m}.  Fails if m is not in `s` (so if m is below its
    multiplicity), or if the shifted layers are not closed under addition.
    """
    return _semigroup(_unblowup(s.apery, m))


def blowup(s: Semigroup) -> Semigroup:
    """Blowup of a plane-branch semigroup: shift the j-th Apery element down by j*m."""
    if s.multiplicity == 1:
        raise SemigroupError("already smooth")
    return _semigroup(_blowup(s.apery))


@lru_cache(maxsize=_CHAIN_CACHE)
def _semigroup_from_entries(entries: tuple[int, ...]) -> Semigroup | str:
    # the un-blowup chain's Semigroup, or the message of the step that failed
    w = (0,)
    for m in reversed(entries):
        try:
            w = _unblowup(w, m)
        except SemigroupError as exc:
            return f"inadmissible multiplicity sequence {list(entries)}: {exc}"
    return _semigroup(w)


def semigroup_from_multseq(ms: MultSeq) -> Semigroup:
    """Fold the un-blowup step over the multiplicity sequence, right to left.

    The one-entry sequence [m] gives the semigroup generated by m and m+1;
    un-blowing up the full semigroup reproduces exactly that base case.
    """
    if not ms.entries:
        raise SemigroupError("smooth point: empty multiplicity sequence has no cusp semigroup")
    s = _semigroup_from_entries(ms.entries)
    if isinstance(s, str):
        raise InadmissibleSequenceError(s)
    return s


def multseq_from_semigroup(s: Semigroup) -> MultSeq:
    """Record multiplicities along the blowup chain down to the full semigroup."""
    w = s.apery
    entries = []
    while len(w) > 1:
        entries.append(len(w))
        try:
            w = _blowup(w)
        except SemigroupError as exc:
            raise NotPlaneBranchError(f"not a plane-branch semigroup: {exc}") from exc
    return MultSeq(tuple(entries))


def is_admissible(entries: tuple[int, ...]) -> bool:
    """Whether a non-increasing entry tuple is a valid multiplicity sequence.

    Admissibility is operational: the un-blowup chain must succeed with all
    membership and closure checks.
    """
    return not isinstance(_semigroup_from_entries(tuple(entries)), str)


def semigroup_from_newton_pairs(np_: NewtonPairs) -> Semigroup:
    """Semigroup of the branch with the given Newton pairs.

    Uses the generator recursion b0 = p_1...p_r, b1 = q_1 p_2...p_r,
    b_{k+1} = p_k b_k + q_{k+1} p_{k+2}...p_r.  The conversion is cross
    checked in the test suite by round-tripping through multiplicity
    sequences and the gap-count formula.
    """
    pairs = np_.pairs
    ps = [p for p, _ in pairs]
    # prod(ps[k:]) is p_{k+1} * ... * p_r with 1-based indices
    beta = [prod(ps), pairs[0][1] * prod(ps[1:])]
    for k in range(1, len(pairs)):
        beta.append(ps[k - 1] * beta[k] + pairs[k][1] * prod(ps[k + 1:]))
    return semigroup_from_generators(beta)


def counting_fn(s: Semigroup) -> CountingFn:
    """Counting function H with H(k) = #{elements of s below k}.

    H(k) = k - delta for k >= 2*delta, so the head on [0, 2*delta] together
    with the linear tail determines H everywhere.  The elements are the
    Apery set of the multiplicity m plus multiples of m: each Apery element
    w marks w, w + m, ... below 2*delta with one slice assignment, and the
    head is the running sum of the marks.
    """
    d = s.delta
    n = 2 * d
    w = s.apery
    m = len(w)
    member = bytearray(n)
    for x in w:
        member[x::m] = b"\x01" * len(range(x, n, m))
    return CountingFn((0, *accumulate(member)), d)


# ---------------------------------------------------------------------------
# cusp-type literal grammar shared by the CLI and candidate files

# matched with fullmatch: a $ would also match before a trailing newline
_MULT_TOKEN = re.compile(r"(\d+)(?:_(\d+))?")
_NEWTON = re.compile(r"(?:\(\d+,\d+\))+")
_NEWTON_PAIR = re.compile(r"\((\d+),(\d+)\)")

# a cusp type in the description its literal was written in
Cusp = MultSeq | NewtonPairs | Semigroup


def parse_cusp(text: str) -> Cusp:
    """Parse a cusp-type literal: '[2_4]', '[3,2]', '(2,3)(2,1)' or '<4,6,13>'."""
    text = text.strip()
    if not text:
        raise SemigroupError("empty cusp literal")
    if text.startswith("[") and text.endswith("]"):
        body = text[1:-1]
        if not body:
            raise SemigroupError(f"empty multiplicity sequence in {text!r}")
        entries = []
        for token in body.split(","):
            m = _MULT_TOKEN.fullmatch(token)
            try:
                if not m:
                    raise ValueError
                value = int(m.group(1))
            except ValueError:  # no match, or a number past int's digit limit
                raise SemigroupError(f"bad multiplicity token {token!r} in {text!r}") from None
            try:
                count = int(m.group(2) or 1)
                if count < 1:
                    raise ValueError
            except ValueError:
                raise SemigroupError(f"bad repetition count in {token!r}") from None
            entries.extend([value] * count)
        return MultSeq(tuple(entries))
    if text.startswith("<") and text.endswith(">"):
        tokens = text[1:-1].split(",")
        try:
            # the \d+ of the other spellings (str.isdecimal accepts exactly
            # what \d does), where int also takes signs, spaces and _; int
            # still refuses a token past its digit limit
            if not all(tok.isdecimal() for tok in tokens):
                raise ValueError
            gens = [int(tok) for tok in tokens]
        except ValueError:
            raise SemigroupError(f"bad generator list {text!r}") from None
        return semigroup_from_generators(gens)
    if _NEWTON.fullmatch(text):
        try:
            pairs = tuple((int(p), int(q)) for p, q in _NEWTON_PAIR.findall(text))
        except ValueError:  # a number past int's digit limit
            raise SemigroupError(f"bad Newton pairs {text!r}") from None
        return NewtonPairs(pairs)
    raise SemigroupError(f"unrecognized cusp literal {text!r}")


def resolve_semigroup(cusp: Cusp) -> Semigroup:
    """The semigroup of a cusp type in any of the three descriptions."""
    if isinstance(cusp, Semigroup):
        return cusp
    if isinstance(cusp, MultSeq):
        return semigroup_from_multseq(cusp)
    if isinstance(cusp, NewtonPairs):
        return semigroup_from_newton_pairs(cusp)
    raise TypeError(f"not a cusp type: {cusp!r}")
