"""Brute-force cubical lattice-cohomology oracle.

Builds the weighted rectangle [0,m_1] x ... x [0,m_nu] for a cusp collection,
assigns each lattice point x the surgery weight

    w_a(x) = sum_i H_i(x_i) + min(0, 1 + a - |x|),

gives every cube the maximum weight of its vertices, and computes the reduced
Betti numbers of every sublevel complex S_n exactly over the rationals.  The
normalized Euler characteristics

    eu_h0    = -min(w) + sum_n btilde_0(S_n)
    eu_hstar = -min(w) + sum_n sum_q (-1)^q btilde_q(S_n)

are the oracle values the closed-form H/F formulas are checked against.  The
degree-free weight W(x) = delta - |x| + sum_i H_i(x_i) is evaluated only for
the min-W check, as its minimum over a diagonal slice |x| = j+1.  Both
weights are read from one pair of grids, sum_i H_i(x_i) and |x|.

numpy builds the grids and the cell filtration.  The functions that build
arrays import it, so importing this module does not load it.  The grids are
the per-axis tables H_i and coordinates broadcast against each other.  A
cube's weight is np.maximum over shifted slices of its faces' weights, one
slice pair per axis of the cube (the "V-construction" of Wagner-Chen-Vucini,
2012).  Each dimension is put in filtration order by argsort: any order of
equal weights gives the same ranks at every level, and the order over all
cells (weight, then dimension) lists faces before cofaces, so every prefix
is a subcomplex.  The face rows of all q-cubes come from slicing the inverse
permutation of dimension q-1.  All weights are small integers, so int64
arrays hold them exactly.

Rank computation is exact Python-int arithmetic: sparse column elimination
with gcd normalization (cross-multiplication instead of fractions),
processed in filtration order so that one pass yields the rank of every
sublevel boundary matrix at once.  The edge boundary's rank comes from a
union-find.  For q >= 2, pivot rows of the (q+1)-boundary clear the
corresponding q-columns (Chen-Kerber, 2011), which is valid level-by-level
because row order equals filtration order.  A column whose lowest row is
not a pivot yet becomes a pivot as it is; only the others are reduced.

The top boundary is eliminated too, although btilde_nu(S_n) = 0 holds for
every subcomplex of R^nu: a zero last column is a self-test of the
elimination, which `check_vanishing` reads.
"""

from __future__ import annotations

import dataclasses
from math import gcd
from typing import TYPE_CHECKING

from .invariants import CapExceeded, CuspCollection

if TYPE_CHECKING:
    import numpy as np


class RectangleTooLarge(CapExceeded):
    """Predicted rectangle size exceeds the configured cap."""

    def __init__(self, points: int, cap: int):
        super().__init__(
            f"rectangle too large: {points} lattice points exceed cap {cap}")
        self.points = points
        self.cap = cap


DEFAULT_CAP = 2_000_000


@dataclasses.dataclass(frozen=True)
class WeightedRectangle:
    """A weighted lattice rectangle: dims m_i and one weight per lattice point.

    Vertex weights are stored flat in row-major order (last coordinate
    fastest), so the weight of x is weights[sum(x_i * strides()[i])].
    """

    dims: tuple[int, ...]
    weights: tuple[int, ...]

    @property
    def nu(self) -> int:
        return len(self.dims)

    @property
    def min_weight(self) -> int:
        return min(self.weights)

    def strides(self) -> tuple[int, ...]:
        out = [1] * self.nu
        for i in range(self.nu - 2, -1, -1):
            out[i] = out[i + 1] * (self.dims[i + 1] + 1)
        return tuple(out)


@dataclasses.dataclass(frozen=True)
class BettiTable:
    """Reduced Betti numbers of every level set S_n, n from min_level upward.

    Row q-entries run over q = 0..nu; rows become all-zero at the stable
    level where S_n is the full (contractible) rectangle.
    """

    min_level: int
    rows: tuple[tuple[int, ...], ...]


@dataclasses.dataclass(frozen=True)
class EuOracle:
    """Euler characteristics summed from a BettiTable."""

    eu_h0: int
    eu_hstar: int
    min_weight: int
    table: BettiTable


def default_dims(c: CuspCollection, box_margin: int = 0) -> tuple[int, ...]:
    """m_i = 2*delta_i + 1 + margin, the smallest box with m_i > 2*delta_i."""
    return tuple(2 * d + 1 + box_margin for d in c.deltas)


def _box(c: CuspCollection, box_margin: int, dims: tuple[int, ...] | None) -> tuple[int, ...]:
    """The box sizes: `dims` checked against the collection, else default_dims."""
    if dims is None:
        return default_dims(c, box_margin)
    if len(dims) != c.nu:
        raise ValueError(f"need {c.nu} box sizes, got {len(dims)}")
    if any(m < 0 for m in dims):
        raise ValueError(f"box sizes must be nonnegative, got {tuple(dims)}")
    return tuple(dims)


def _grids(c: CuspCollection, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """sum_i H_i(x_i) and |x| on every lattice point of the box, as int64 grids."""
    import numpy as np

    shape = tuple(m + 1 for m in dims)
    hsum = np.zeros(shape, dtype=np.int64)
    size = np.zeros(shape, dtype=np.int64)
    for i, (h, m) in enumerate(zip(c.counting_fns, dims)):
        axis = [1] * len(dims)
        axis[i] = m + 1
        hsum += np.array(h.values(0, m), dtype=np.int64).reshape(axis)
        size += np.arange(m + 1, dtype=np.int64).reshape(axis)
    return hsum, size


# below this index the w_a weights leave the exact int64 range
_MIN_INDEX = -(1 << 62)


def build_rectangle(
    c: CuspCollection,
    j: int,
    box_margin: int = 0,
    dims: tuple[int, ...] | None = None,
    cap: int = DEFAULT_CAP,
) -> WeightedRectangle:
    """Evaluate the surgery weight w_a with index a = j on every lattice point."""
    dims = _box(c, box_margin, dims)
    points = 1
    for m in dims:
        points *= m + 1
    if points > cap:
        raise RectangleTooLarge(points, cap)
    if j < _MIN_INDEX:
        raise ValueError(f"index {j} below {_MIN_INDEX}")
    import numpy as np

    weights, size = _grids(c, dims)
    # min(0, 1 + j - |x|) vanishes on the whole box once j >= sum(dims)
    weights += np.minimum(0, 1 + min(j, sum(dims)) - size)
    return WeightedRectangle(dims, tuple(weights.ravel().tolist()))


def _face_signs(q: int) -> list[int]:
    """Incidence signs of a q-cube's faces, in the column order of its face rows.

    For the t-th axis of the cube (in increasing axis order) the upper face
    x + e_i has sign (-1)^t and the lower face x has sign -(-1)^t.
    """
    out = []
    for t in range(q):
        s = -1 if t & 1 else 1
        out += (s, -s)
    return out


def _cell_filtration(rect: WeightedRectangle):
    """Cell weights and face rows of every dimension, in filtration order.

    Returns (weights, faces): weights[q] is the nondecreasing int64 array of
    the weights of all q-cubes, and faces[q] (q >= 1) the (n_q, 2q) array
    whose row k holds the positions, within dimension q-1, of the faces of
    the k-th q-cube, ordered as `_face_signs(q)`.  faces[0] is None.
    """
    import numpy as np

    nu = rect.nu
    lower_upper = (slice(None, -1), slice(1, None))

    def shifted(a, axis, k):
        # the entries of `a` at x (k = 0) or at x + e_axis (k = 1)
        return a[(slice(None),) * axis + (lower_upper[k],)]

    # cube weights per axis mask: np.maximum over the two faces along the
    # highest axis, whose weights are already the max over their vertices;
    # corner[mask] is the flat index of each cube's lowest vertex
    shape = [m + 1 for m in rect.dims]
    cube = {0: np.array(rect.weights, dtype=np.int64).reshape(shape)}
    corner = {0: np.arange(cube[0].size, dtype=np.int64).reshape(shape)}
    for mask in range(1, 1 << nu):
        i = mask.bit_length() - 1
        w = cube[mask ^ 1 << i]
        cube[mask] = np.maximum(shifted(w, i, 0), shifted(w, i, 1))
        corner[mask] = shifted(corner[mask ^ 1 << i], i, 0)
    min_w = int(cube[0].min())

    weights, faces = [], []
    below: dict[int, np.ndarray] = {}
    for q in range(nu + 1):
        masks = [m for m in range(1 << nu) if m.bit_count() == q]
        flat = np.concatenate([cube[m].ravel() for m in masks])
        # ties in weight go by lowest vertex: any order gives the same ranks,
        # this one leaves the fewest columns to reduce.  The key stays below
        # 3 * points**2, far inside int64 for any box that fits in memory.
        key = (flat - min_w) * cube[0].size
        key += np.concatenate([corner[m].ravel() for m in masks])
        order = np.argsort(key)
        weights.append(flat[order])
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        grids, start = {}, 0
        for m in masks:
            grids[m] = position[start:start + cube[m].size].reshape(cube[m].shape)
            start += cube[m].size
        if q:
            blocks = []
            for m in masks:
                rows = []
                for i in range(nu):
                    if m >> i & 1:
                        g = below[m ^ 1 << i]
                        rows += (shifted(g, i, 1).ravel(), shifted(g, i, 0).ravel())
                blocks.append(np.stack(rows, axis=1))
            faces.append(np.concatenate(blocks)[order])
        else:
            faces.append(None)
        below = grids
    return weights, faces


def _reduce_column(col: dict[int, int], pivots: dict, faces: np.ndarray,
                   signs: list[int]) -> bool:
    """Eliminate `col` against the pivot columns; register it if independent.

    Exact integer arithmetic: to kill the leading row r shared with pivot P,
    replace col by (P_r/g)*col - (col_r/g)*P with g = gcd.  Returns True when
    the column carries a new pivot (rank grows by one).  A pivot that was
    taken as it stood is stored as its column index and turned into a dict
    here the first time a reduction needs it.
    """
    while col:
        r = max(col)
        piv = pivots.get(r)
        if piv is None:
            g = 0
            for v in col.values():
                g = gcd(g, v)
            if g > 1:
                for k in col:
                    col[k] //= g
            pivots[r] = col
            return True
        if piv.__class__ is int:
            piv = pivots[r] = dict(zip(faces[piv].tolist(), signs))
        a = piv[r]
        b = col[r]
        g = gcd(a, b)
        ma = a // g
        mb = b // g
        if ma != 1:
            for k in col:
                col[k] *= ma
        for k, v in piv.items():
            nv = col.get(k, 0) - mb * v
            if nv:
                col[k] = nv
            else:
                col.pop(k, None)
    return False


def _rank_profile(rect: WeightedRectangle):
    """One filtration pass; per dimension, sorted weights of cells and pivots.

    Returns (cell_weights, pivot_weights, min_w, max_w) where cell_weights[q]
    holds the weights of all q-cells in increasing order and pivot_weights[q]
    the weights of the columns of the q-boundary that carry a pivot, i.e.
    rank of the q-boundary restricted to S_n is the number of entries <= n.
    """
    import numpy as np

    nu = rect.nu
    cell_weights, faces = _cell_filtration(rect)
    pivot_cols: list[list[int]] = [[] for _ in range(nu + 2)]

    # rank of the edge boundary via union-find: tree edges are the pivots
    parent = list(range(len(cell_weights[0])))
    tree = pivot_cols[1]
    for idx, (u, v) in enumerate(faces[1].tolist()):
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            tree.append(idx)

    # higher boundaries by exact sparse elimination, top dimension first so
    # that pivot rows clear the matching columns one dimension down
    cleared = ()
    for q in range(nu, 1, -1):
        f = faces[q]
        keep = np.ones(len(f), dtype=bool)
        keep[list(cleared)] = False
        todo = np.flatnonzero(keep)
        signs = _face_signs(q)
        pivots: dict = {}
        found = pivot_cols[q]
        for idx, r in zip(todo.tolist(), f[todo].max(axis=1).tolist()):
            if r not in pivots:
                pivots[r] = idx
                found.append(idx)
            elif _reduce_column(dict(zip(f[idx].tolist(), signs)), pivots, f, signs):
                found.append(idx)
        cleared = pivots
    pivot_weights = [ws[cols] for ws, cols in zip(cell_weights, pivot_cols)]
    pivot_weights.append(np.empty(0, dtype=np.int64))
    return cell_weights, pivot_weights, int(cell_weights[0][0]), int(cell_weights[0][-1])


def betti_table(rect: WeightedRectangle) -> BettiTable:
    """Reduced Betti numbers of S_n for every level n up to stabilization."""
    import numpy as np

    cell_weights, pivot_weights, min_w, max_w = _rank_profile(rect)
    levels = np.arange(min_w, max_w + 1)
    counts = [np.searchsorted(ws, levels, side="right") for ws in cell_weights]
    ranks = [np.searchsorted(ws, levels, side="right") for ws in pivot_weights]
    table = np.stack([counts[q] - ranks[q] - ranks[q + 1] for q in range(rect.nu + 1)],
                     axis=1)
    table[:, 0] -= 1
    return BettiTable(min_w, tuple(map(tuple, table.tolist())))


def oracle_eu(
    c: CuspCollection,
    j: int,
    box_margin: int = 0,
    dims: tuple[int, ...] | None = None,
    cap: int = DEFAULT_CAP,
) -> EuOracle:
    """Euler characteristics of the rectangle with surgery weight w_j.

    For 0 <= j <= 2*delta-2 these must equal H(j+1) + delta-1-j and
    F(j) + delta-1-j respectively.
    """
    rect = build_rectangle(c, j, box_margin=box_margin, dims=dims, cap=cap)
    table = betti_table(rect)
    min_w = table.min_level
    e0 = -min_w
    es = -min_w
    for row in table.rows:
        e0 += row[0]
        for q, b in enumerate(row):
            es += b if q % 2 == 0 else -b
    return EuOracle(e0, es, min_w, table)


def min_w_over_diagonal(
    c: CuspCollection,
    j: int,
    box_margin: int = 0,
    dims: tuple[int, ...] | None = None,
) -> int:
    """Minimum of the degree-free weight W over the diagonal slice |x| = j+1.

    Equals delta - j - 1 + H(j+1); in particular 0 once j exceeds
    2*delta - 2.  A slice beyond the box total (j + 1 > sum of the dims) is
    empty and yields 0; j + 1 < 0 is refused with ValueError.
    """
    if j + 1 < 0:
        raise ValueError(f"diagonal slice |x| = {j + 1} is negative: need j >= -1")
    dims = _box(c, box_margin, dims)
    if j + 1 > sum(dims):
        return 0
    hsum, size = _grids(c, dims)
    return c.delta - j - 1 + int(hsum[size == j + 1].min())


def check_vanishing(table: BettiTable, nu: int) -> bool:
    """Whether btilde_q(S_n) = 0 for all q >= nu at every level of the table."""
    return all(all(b == 0 for b in row[nu:]) for row in table.rows)
