"""Exact calculus on integer sequences.

Provides the four primitives everything else is built from: the difference
operator, partial sums, ordinary convolution, and the min-plus ("minimum")
convolution of counting functions.  All arithmetic is exact integer
arithmetic.  Convolution runs on Python integers and loops over the nonzero
coefficients of both factors only; in the package it multiplies the Apery
polynomials of the cusps, m_1 * m_2 * ... nonzero pairs, and never the dense
Alexander factors.

Min-plus, result(j) = min over k of f(j - k) + g(k), needs only the split
points k where g can attain the minimum.  Counting functions step by 0 or 1,
so where g steps up (g(k) = g(k - 1) + 1) the split k - 1 does at least as
well: f(j - k + 1) <= f(j - k) + 1.  Where g stays flat after k (g(k + 1) =
g(k)), the split k + 1 does at least as well for every j > k, and at j = k
the split is worth g(j).  So the result starts from min(f, g) on [0,
cutoff(g)] (the splits 0 and k = j) and folds in one shifted copy of f per
run start of g: the k in [1, cutoff(g)] with g(k) = g(k - 1) and g(k + 1) =
g(k) + 1, one per gap run of a semigroup (59 for <60,61>, which has 1,770
gaps).  The run starts are found at C speed, as b"\\x00\\x01" in the step
bytes of g, once per fold.  min_convolve works in O(cut) memory for a result
cutoff cut, and min_convolve_all folds in ascending offset, so the largest
function joins last.  One fold, two array backends chosen by input size:
Python lists up to _LIST_CELLS candidate cells (result values times the
passes, one for min(f, g) and one per run start), so that a small collection
never loads numpy, and 64-bit numpy integers above it, imported on first
use.  int64 is exact here: every f(j - k) + g(k) is at most cut + cutoff(g).

Rows are read by slicing: IntSeq.window and CountingFn.values return slices
of the stored values, zero padding and a range for a linear tail, with no
Python call per element; both min-plus evaluators read f through
CountingFn.values.

One validation boundary: the public constructors check, the kernels trust.
IntSeq and CountingFn are plain classes on the package's frozen base
(_frozen.Frozen), each with a written-out constructor for values from
outside.  It takes its integers through operator.index, so a float raises
TypeError instead of being truncated and numpy integers are stored as
Python ints, and CountingFn's also checks the start, the steps and the
tail; the checks run through map and set, with no Python call per element.
A kernel's result is a tuple of Python ints that the kernel has just
computed, so every kernel in the package (here, in semigroup and in
invariants) stores it through _intseq or _counting_fn instead, which check
nothing; _intseq still trims trailing zeros, since partial sums can end in
them.  Semigroup makes the same split (semigroup._semigroup).
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from functools import reduce
from itertools import accumulate

from ._frozen import Frozen

#: Candidate cells, (result values) x (run starts of g + 1), up to which
#: min_convolve runs on Python lists instead of numpy.
_LIST_CELLS = 60_000


class IntSeq(Frozen):
    """A finitely supported integer sequence indexed from 0.

    Stored densely as a tuple of values; trailing zeros are trimmed so that
    equality is value equality.  Indexing outside the stored range (including
    negative indices) yields 0, matching the convention that the "(-1)st"
    element of any sequence is zero.  The values must be integers (anything
    with __index__, such as numpy integers); a float raises TypeError.
    """

    __slots__ = _fields = ("values",)

    def __init__(self, values: Iterable[int] = ()):
        object.__setattr__(self, "values", _trimmed(tuple(map(operator.index, values))))

    def __getitem__(self, j: int) -> int:
        if 0 <= j < len(self.values):
            return self.values[j]
        return 0

    def __len__(self) -> int:
        return len(self.values)

    @property
    def degree(self) -> int:
        """Index of the last nonzero entry, -1 for the zero sequence."""
        return len(self.values) - 1

    def window(self, n: int) -> tuple[int, ...]:
        """Values on [0, n], zero-padded past the support; empty for n < 0."""
        size = max(n + 1, 0)
        return self.values[:size] + (0,) * (size - len(self.values))


def _trimmed(values: tuple[int, ...]) -> tuple[int, ...]:
    """values without its trailing zeros, for both IntSeq stores."""
    n = len(values)
    while n and values[n - 1] == 0:
        n -= 1
    return values[:n]


def _intseq(values: tuple[int, ...]) -> IntSeq:
    """The IntSeq of a kernel's tuple of Python ints, stored unchecked but trimmed."""
    seq = object.__new__(IntSeq)
    object.__setattr__(seq, "values", _trimmed(values))
    return seq


def diff(a: IntSeq, window: int | None = None) -> IntSeq:
    """Difference sequence (a_j - a_{j-1}) with a_{-1} = 0.

    Evaluated on [0, window]; the window defaults to the support of `a`, so
    e.g. diff of (1, 1, 2, 3, 4) is (1, 0, 1, 1, 1).
    """
    n = a.degree if window is None else window
    return _intseq(tuple(a[j] - a[j - 1] for j in range(n + 1)))


def partial_sums(a: IntSeq, window: int | None = None) -> IntSeq:
    """Partial-sum sequence (a_0 + ... + a_j) evaluated on [0, window]."""
    n = a.degree if window is None else window
    return _intseq(tuple(accumulate(a.window(n))))


def convolve(a: IntSeq, b: IntSeq) -> IntSeq:
    """Exact convolution (a * b)_j = sum_k a_k b_{j-k}.

    Loops over the nonzero coefficients of both factors only: an Apery
    polynomial has m nonzeros spread over a long support.
    """
    if not a.values or not b.values:
        return _intseq(())
    out = [0] * (len(a.values) + len(b.values) - 1)
    bnz = [(j, y) for j, y in enumerate(b.values) if y]
    for i, x in enumerate(a.values):
        if x:
            for j, y in bnz:
                out[i + j] += x * y
    return _intseq(tuple(out))


class CountingFn(Frozen):
    """An eventually-linear nondecreasing step function on the integers.

    value(k) = 0 for k <= 0, head[k] for 0 <= k <= cutoff, and k - offset
    beyond the cutoff.  Successive values differ by 0 or 1; for the counting
    function of a numerical semigroup the offset is the gap count and the
    cutoff is twice that.  These constraints are exactly the ones satisfied
    by semigroup counting functions and are preserved by min_convolve.
    Head and offset must be integers, as for IntSeq.
    """

    __slots__ = _fields = ("head", "offset")

    def __init__(self, head: Iterable[int], offset: int):
        head = tuple(map(operator.index, head))
        offset = operator.index(offset)
        if not head or head[0] != 0:
            raise ValueError("counting function must start at value 0")
        if not set(map(operator.sub, head[1:], head)) <= {0, 1}:
            raise ValueError("counting function steps must be 0 or 1")
        if head[-1] != len(head) - 1 - offset:
            raise ValueError("head and linear tail disagree at the cutoff")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "offset", offset)

    @property
    def cutoff(self) -> int:
        return len(self.head) - 1

    def __call__(self, k: int) -> int:
        if k <= 0:
            return 0
        if k <= self.cutoff:
            return self.head[k]
        return k - self.offset

    def values(self, lo: int, hi: int) -> list[int]:
        """Values on the inclusive range [lo, hi], empty if hi < lo.

        Three pieces: zeros for k < 0, a slice of the head for 0 <= k <=
        cutoff (head[0] is the value 0 at k = 0), and a range for the linear
        tail.  On [0, hi] with hi past the cutoff the slice is the head itself.
        """
        start = max(lo, 0)
        stop = max(start, min(hi, self.cutoff) + 1)
        return [*[0] * (min(hi, -1) + 1 - lo), *self.head[start:stop],
                *range(max(lo, self.cutoff + 1) - self.offset, hi + 1 - self.offset)]


def _counting_fn(head: tuple[int, ...], offset: int) -> CountingFn:
    """The CountingFn of a kernel's head (a tuple of Python ints) and offset, stored unchecked."""
    fn = object.__new__(CountingFn)
    object.__setattr__(fn, "head", head)
    object.__setattr__(fn, "offset", offset)
    return fn


def _run_starts(g: CountingFn) -> list[int]:
    """The run starts of g, in ascending order.

    They are the k in [1, cutoff(g)] with g(k) = g(k - 1) and g(k + 1) =
    g(k) + 1; past the cutoff g steps up, so a flat stretch that reaches the
    cutoff ends in a run start.  For a semigroup they are the first elements
    of its runs of elements, one per gap run.  Found at C speed: a run start
    k is a flat step into k followed by a unit step out of it, b"\\x00\\x01"
    at step k - 1 of the step bytes.
    """
    head = g.head
    # steps[i] = g(i + 1) - g(i); the linear tail steps up past the cutoff
    steps = bytes(map(operator.sub, head[1:], head)) + b"\x01"
    # with pieces p_0, p_1, ... between the matches, the n-th run start is
    # the sum over i <= n of (len(p_i) + 2), less 1
    pieces = steps.split(b"\x00\x01")[:-1]
    return list(map((-1).__add__, accumulate(map((2).__add__, map(len, pieces)))))


def _min_convolve_lists(f: CountingFn, g: CountingFn, starts: list[int]) -> CountingFn:
    # the splits 0 and j give min(f, g) on [0, cutoff(g)] and f beyond; then
    # one shifted copy of f per run start k of g is folded in elementwise:
    # the values at j < k are dominated by a split at most j, so only the
    # part from k on is compared.  A conditional comprehension runs about 3x
    # faster here than map(min, ...).
    offset = f.offset + g.offset
    fv = f.values(0, 2 * offset)
    head = [x if x <= y else y for x, y in zip(fv, g.head)]
    head += fv[len(head):]
    for k in starts:
        c = g.head[k]
        head[k:] = [x if x <= y + c else y + c for x, y in zip(head[k:], fv)]
    return _counting_fn(tuple(head), offset)


def _min_convolve_numpy(f: CountingFn, g: CountingFn, starts: list[int]) -> CountingFn:
    # the same fold as _min_convolve_lists, on int64 vectors
    import numpy as np

    offset = f.offset + g.offset
    fv = np.array(f.values(0, 2 * offset), dtype=np.int64)
    head = fv.copy()
    low = head[:g.cutoff + 1]
    np.minimum(low, np.array(g.head[:low.size], dtype=np.int64), out=low)
    for k in starts:
        tail = head[k:]
        np.minimum(tail, fv[:tail.size] + g.head[k], out=tail)
    return _counting_fn(tuple(head.tolist()), offset)


def min_convolve(f: CountingFn, g: CountingFn) -> CountingFn:
    """Min-plus convolution: result(j) = min over j1+j2=j of f(j1) + g(j2).

    The offsets add and the new cutoff is twice the combined offset.  The
    argument with the smaller cutoff becomes g.  The result starts from
    min(f, g) on [0, cutoff(g)], and one shifted copy of f per run start of g
    is folded into it: on Python lists up to _LIST_CELLS candidate cells, on
    numpy above it.  Memory is O(cutoff) on both backends.
    """
    if g.cutoff > f.cutoff:
        f, g = g, f
    starts = _run_starts(g)
    # one pass for min(f, g), one per run start
    if (2 * (f.offset + g.offset) + 1) * (len(starts) + 1) <= _LIST_CELLS:
        return _min_convolve_lists(f, g, starts)
    return _min_convolve_numpy(f, g, starts)


def min_convolve_all(fns: Iterable[CountingFn]) -> CountingFn:
    """Fold min_convolve over one or more counting functions, smallest offset first.

    Min-plus is exact, commutative and associative, so the order changes
    only the cost: the small folds run over short windows, and the largest
    function joins last.
    """
    fns = sorted(fns, key=operator.attrgetter("offset"))
    if not fns:
        raise ValueError("need at least one counting function")
    return reduce(min_convolve, fns)
