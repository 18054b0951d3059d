"""Exact calculus on integer sequences.

Provides the four primitives everything else is built from: the difference
operator, partial sums, ordinary convolution, and the min-plus ("minimum")
convolution of counting functions.  All arithmetic is exact integer
arithmetic.  Convolution runs on Python integers and loops over the nonzero
coefficients of both factors only.

Min-plus, result(j) = min over k of f(j - k) + g(k), needs only the split
points k where g can attain the minimum.  Counting functions step by 0 or 1,
so where g steps up (g(k) = g(k - 1) + 1) the split k - 1 does at least as
well: f(j - k + 1) <= f(j - k) + 1.  That leaves k = 0 and the k in
[1, cutoff(g)] where g is flat, offset(g) + 1 candidates in all (one per gap
of a semigroup), against cutoff(g) + 1 splits.  There are two evaluators
behind min_convolve:

- up to _LIST_CELLS candidate cells (result values times candidate splits),
  one shifted copy of f per candidate, folded elementwise on Python lists.  This is every fold of a small collection, and numpy is not loaded;
- above it, a sliding window over every split on 64-bit numpy integers,
  which is exact here: with result cutoff cut and window width b + 1, every
  entry f(j1) + g(j2) is at most cut + b.  The window is reduced in blocks of
  _MIN_CONVOLVE_ROWS result values, so its memory is O(cut +
  _MIN_CONVOLVE_ROWS * b), not O(cut * b).  numpy is imported on first use.
"""

from __future__ import annotations

import dataclasses
from functools import reduce
from typing import Iterable

#: Candidate cells, (result values) x (candidate splits), up to which
#: min_convolve runs on Python lists instead of numpy.
_LIST_CELLS = 60_000

#: Result values per block of the numpy min-plus sliding window.
_MIN_CONVOLVE_ROWS = 64


@dataclasses.dataclass(frozen=True)
class IntSeq:
    """A finitely supported integer sequence indexed from 0.

    Stored densely as a tuple of values; trailing zeros are trimmed so that
    equality is value equality.  Indexing outside the stored range (including
    negative indices) yields 0, matching the convention that the "(-1)st"
    element of any sequence is zero.
    """

    values: tuple[int, ...] = ()

    def __post_init__(self):
        vals = tuple(int(v) for v in self.values)
        n = len(vals)
        while n and vals[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "values", vals[:n])

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
        """Values on [0, n], zero-padded past the support."""
        return tuple(self[j] for j in range(n + 1))


def diff(a: IntSeq, window: int | None = None) -> IntSeq:
    """Difference sequence (a_j - a_{j-1}) with a_{-1} = 0.

    Evaluated on [0, window]; the window defaults to the support of `a`, so
    e.g. diff of (1, 1, 2, 3, 4) is (1, 0, 1, 1, 1).
    """
    n = a.degree if window is None else window
    return IntSeq(tuple(a[j] - a[j - 1] for j in range(n + 1)))


def partial_sums(a: IntSeq, window: int | None = None) -> IntSeq:
    """Partial-sum sequence (a_0 + ... + a_j) evaluated on [0, window]."""
    n = a.degree if window is None else window
    out = []
    total = 0
    for j in range(n + 1):
        total += a[j]
        out.append(total)
    return IntSeq(tuple(out))


def convolve(a: IntSeq, b: IntSeq) -> IntSeq:
    """Exact convolution (a * b)_j = sum_k a_k b_{j-k}.

    Loops over the nonzero coefficients of both factors only: an Alexander
    polynomial has a few nonzeros spread over a long support.
    """
    if not a.values or not b.values:
        return IntSeq()
    out = [0] * (len(a.values) + len(b.values) - 1)
    bnz = [(j, y) for j, y in enumerate(b.values) if y]
    for i, x in enumerate(a.values):
        if x:
            for j, y in bnz:
                out[i + j] += x * y
    return IntSeq(tuple(out))


@dataclasses.dataclass(frozen=True)
class CountingFn:
    """An eventually-linear nondecreasing step function on the integers.

    value(k) = 0 for k <= 0, head[k] for 0 <= k <= cutoff, and k - offset
    beyond the cutoff.  Successive values differ by 0 or 1; for the counting
    function of a numerical semigroup the offset is the gap count and the
    cutoff is twice that.  These constraints are exactly the ones satisfied
    by semigroup counting functions and are preserved by min_convolve.
    """

    head: tuple[int, ...]
    offset: int

    def __post_init__(self):
        head = tuple(int(v) for v in self.head)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "offset", int(self.offset))
        if not head or head[0] != 0:
            raise ValueError("counting function must start at value 0")
        for u, v in zip(head, head[1:]):
            if v - u not in (0, 1):
                raise ValueError("counting function steps must be 0 or 1")
        if head[-1] != self.cutoff - self.offset:
            raise ValueError("head and linear tail disagree at the cutoff")

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
        """Values on the inclusive range [lo, hi]."""
        return [self(k) for k in range(lo, hi + 1)]


def _candidate_splits(g: CountingFn) -> list[int]:
    """0 and every k in [1, cutoff(g)] where g is flat: g(k) = g(k - 1).

    These are the split points that can attain a min-plus minimum: where g
    steps up, the split k - 1 does at least as well.  There are offset + 1 of
    them, against cutoff + 1 splits in the whole window.
    """
    head = g.head
    return [0, *(k for k in range(1, len(head)) if head[k] == head[k - 1])]


def _min_convolve_lists(f: CountingFn, g: CountingFn) -> CountingFn:
    # one shifted copy of f per candidate split k, folded in elementwise: the
    # values at j < k are dominated by a split at most j, so only the part
    # from k on is compared.  A conditional comprehension runs about 3x
    # faster here than map(min, ...).
    offset = f.offset + g.offset
    cut = 2 * offset
    fv = [*f.head[:cut + 1], *range(f.cutoff + 1 - f.offset, cut + 1 - f.offset)]
    head = fv[:]  # the split k = 0, where g(0) = 0
    for k in _candidate_splits(g)[1:]:
        c = g.head[k]
        head[k:] = [x if x <= y + c else y + c for x, y in zip(head[k:], fv)]
    return CountingFn(tuple(head), offset)


def _min_convolve_numpy(f: CountingFn, g: CountingFn) -> CountingFn:
    # the whole window of splits [0, cutoff(g)], reduced in row blocks
    import numpy as np

    def values(h: CountingFn, n: int) -> np.ndarray:
        # h on [0, n] as int64: the head, then the linear tail
        head = np.array(h.head[:n + 1], dtype=np.int64)
        tail = np.arange(h.cutoff + 1, n + 1, dtype=np.int64) - h.offset
        return np.concatenate((head, tail))

    offset = f.offset + g.offset
    cut = 2 * offset
    b = g.cutoff
    # fv[i] = f(i - b) on i in [0, cut + b], gv[i] = g(b - i) on i in [0, b]
    fv = np.concatenate((np.zeros(b, dtype=np.int64), values(f, cut)))
    gv = values(g, b)[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(fv, b + 1)
    head = np.empty(cut + 1, dtype=np.int64)
    for j in range(0, cut + 1, _MIN_CONVOLVE_ROWS):
        block = windows[j:j + _MIN_CONVOLVE_ROWS]
        np.min(block + gv, axis=1, out=head[j:j + len(block)])
    return CountingFn(tuple(head.tolist()), offset)


def min_convolve(f: CountingFn, g: CountingFn) -> CountingFn:
    """Min-plus convolution: result(j) = min over j1+j2=j of f(j1) + g(j2).

    The offsets add and the new cutoff is twice the combined offset.  The
    argument with the smaller cutoff becomes g.  Up to _LIST_CELLS candidate
    cells the candidate splits of g are folded on Python lists; above it the
    whole window is reduced with numpy, _MIN_CONVOLVE_ROWS result values at
    a time.
    """
    if g.cutoff > f.cutoff:
        f, g = g, f
    # g is flat at exactly g.offset points of [1, cutoff(g)]
    if (2 * (f.offset + g.offset) + 1) * (g.offset + 1) <= _LIST_CELLS:
        return _min_convolve_lists(f, g)
    return _min_convolve_numpy(f, g)


def min_convolve_all(fns: Iterable[CountingFn]) -> CountingFn:
    """Fold min_convolve over one or more counting functions."""
    fns = list(fns)
    if not fns:
        raise ValueError("need at least one counting function")
    return reduce(min_convolve, fns)
