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
2012); an axis of length 0 has no cubes, so only the axes of positive length
are walked.  Each dimension is put in filtration order by argsort, equal
weights by the cube's index in the doubled grid [0, 2m_1] x ... x [0, 2m_nu]:
any order of equal weights gives the same ranks at every level, and the
order over all cells (weight, then dimension) lists faces before cofaces, so
every prefix is a subcomplex.  The face rows of the q-cubes (q >= 2) come
from slicing the inverse permutation of dimension q-1, and the oldest
coface of every (q-1)-cube is np.minimum over the same slices of the q-cube
positions.  All weights are small integers, so int64 arrays hold them
exactly.

Rank computation is exact Python-int arithmetic: sparse column elimination
with gcd normalization (cross-multiplication instead of fractions),
processed in filtration order so that one pass yields the rank of every
sublevel boundary matrix at once.  Only the columns that need it reach the
Python loop.  The boundaries go top dimension first, down to the 2-boundary:
- a column is apparent when its lowest row, its youngest face, has the
  column as its oldest coface (the apparent pairs of Bauer's Ripser, 2021).
  No earlier column meets that row, so numpy registers every apparent
  column as a pivot as it stands;
- pivot rows of the (q+1)-boundary clear the corresponding q-columns
  (Chen-Kerber, 2011), which is valid level-by-level because row order
  equals filtration order;
- of the rest, a column whose lowest row is not a pivot yet becomes a pivot
  as it is; only the others are reduced.
The full box is contractible, so every q-cell with q >= 1 is either a pivot
row of the (q+1)-boundary or a pivot column of the q-boundary, and no
column that clearing leaves reduces to zero.  The edges are therefore never
eliminated: the pivot columns of the 1-boundary are the edges that the
2-boundary's pivot rows do not clear.

The top boundary is eliminated too, although btilde_nu(S_n) = 0 holds for
every subcomplex of R^nu: a zero last column is a self-test of the
elimination, which `check_vanishing` reads.  For nu = 1 the top boundary is
the edges', read off clearing, and the self-test is vacuous.
"""

from __future__ import annotations

from math import gcd, prod

from ._frozen import Frozen
from .invariants import CapExceeded, CuspCollection


class RectangleTooLarge(CapExceeded):
    """Predicted rectangle size exceeds the configured cap."""


DEFAULT_CAP = 2_000_000


class WeightedRectangle(Frozen):
    """A weighted lattice rectangle: dims m_i and one weight per lattice point.

    Vertex weights are stored flat in row-major order (last coordinate
    fastest), so the weight of x is weights[sum(x_i * strides()[i])].
    """

    __slots__ = _fields = ("dims", "weights")

    @property
    def nu(self) -> int:
        return len(self.dims)

    def strides(self) -> tuple[int, ...]:
        out = [1] * self.nu
        for i in range(self.nu - 2, -1, -1):
            out[i] = out[i + 1] * (self.dims[i + 1] + 1)
        return tuple(out)


class BettiTable(Frozen):
    """Reduced Betti numbers of every level set S_n, n from min_level upward.

    Row q-entries run over q = 0..nu; rows become all-zero at the stable
    level where S_n is the full (contractible) rectangle.
    """

    __slots__ = _fields = ("min_level", "rows")


class EuOracle(Frozen):
    """Euler characteristics summed from a BettiTable."""

    __slots__ = _fields = ("eu_h0", "eu_hstar", "min_weight", "table")


def _box(c: CuspCollection, box_margin: int, dims: tuple[int, ...] | None) -> tuple[int, ...]:
    """The box sizes: `dims` checked against the collection, else the default box.

    The default m_i = 2*delta_i + 1 + margin is the smallest box with
    m_i > 2*delta_i, widened by the margin.
    """
    if dims is None:
        dims = tuple(2 * d + 1 + box_margin for d in c.deltas)
    elif len(dims) != c.nu:
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
    points = prod(m + 1 for m in dims)
    if points > cap:
        raise RectangleTooLarge(f"rectangle too large: {points} lattice points exceed cap {cap}")
    # the cells, prod(2m_i + 1), are fewer than 2**nu times the points, so
    # only a box of three cusps or more can pass the one cap and not this one
    cells = prod(2 * m + 1 for m in dims)
    if cells > 4 * cap:
        raise RectangleTooLarge(f"rectangle too large: {cells} cells exceed cap {4 * cap}")
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


def _shifted(a, axis: int, k: int):
    """The entries of `a` at x (k = 0) or at x + e_axis (k = 1)."""
    return a[(slice(None),) * axis + ((slice(None, -1), slice(1, None))[k],)]


def _cell_filtration(rect: WeightedRectangle):
    """Cell weights of every dimension in filtration order, with the rows the elimination reads.

    Returns (weights, faces, cofaces): weights[q] is the nondecreasing int64
    array of the weights of all q-cubes, faces[q] (q >= 2) the (n_q, 2q)
    array whose row k holds the positions, within dimension q-1, of the faces
    of the k-th q-cube, ordered as `_face_signs(q)`, and cofaces[q]
    (1 <= q < nu) the position, within dimension q+1, of the oldest coface
    of the k-th q-cube (n_{q+1} if it has none).  Equal weights go by the
    cube's index in the doubled grid, so the order is total.  The edges'
    pivots come from clearing, so nothing reads their face rows or the
    vertices' positions: faces[0], faces[1], cofaces[0] and cofaces[nu] are
    None.  An axis of length 0 has no cubes, so the dimensions above the
    number of axes of positive length have empty arrays.
    """
    import numpy as np

    nu = rect.nu
    shape = [m + 1 for m in rect.dims]
    # the doubled grid [0, 2m_1] x ... x [0, 2m_nu] holds every cube once:
    # the cube at lowest vertex x along the axes of mask b has the index
    # sum_i (2 x_i + b_i) * stride[i]
    stride = [1] * nu
    for i in range(nu - 1, 0, -1):
        stride[i - 1] = stride[i] * (2 * rect.dims[i] + 1)
    cells = stride[0] * (2 * rect.dims[0] + 1)
    # cube weights per axis mask, over the submasks of the axes of positive
    # length: np.maximum over the two faces along the highest axis, whose
    # weights are already the max over their vertices; index[mask] is twice
    # the lowest vertex's index plus one stride per axis of the mask
    cube = {0: np.array(rect.weights, dtype=np.int64).reshape(shape)}
    index = {0: np.zeros(shape, dtype=np.int64)}
    for i, m in enumerate(rect.dims):
        index[0] += np.arange(0, 2 * m + 1, 2, dtype=np.int64).reshape(
            [-1 if t == i else 1 for t in range(nu)]) * stride[i]
    masks = [0]
    for i, m in enumerate(rect.dims):
        if m:
            for base in masks[:]:
                w = cube[base]
                cube[base | 1 << i] = np.maximum(_shifted(w, i, 0), _shifted(w, i, 1))
                index[base | 1 << i] = _shifted(index[base], i, 0) + stride[i]
                masks.append(base | 1 << i)
    live = sum(m > 0 for m in rect.dims)

    weights = [np.sort(cube[0], axis=None)]
    min_w = int(weights[0][0])
    faces, cofaces = [None] * (nu + 1), [None] * (nu + 1)
    for q in range(1, live + 1):
        group = [m for m in masks if m.bit_count() == q]
        flat = np.concatenate([cube[m].ravel() for m in group])
        # ties in weight go by doubled-grid index: any order gives the same
        # ranks, and this one leaves fewer columns to reduce than the lowest
        # vertex or the weight alone.  key < (weight spread + 1) * cells,
        # inside int64 for any box that fits in memory
        key = (flat - min_w) * cells
        key += np.concatenate([index[m].ravel() for m in group])
        order = np.argsort(key)
        weights.append(flat[order])
        position = np.empty_like(order)
        position[order] = np.arange(order.size)
        grids, start = {}, 0
        for m in group:
            grids[m] = position[start:start + cube[m].size].reshape(cube[m].shape)
            start += cube[m].size
        if q > 1:
            # the q-cube at x with axis i added to the mask has the one at x
            # (lower) and at x + e_i (upper) as faces; read the other way, the
            # oldest coface of a (q-1)-cube is the np.minimum of the positions
            # of the q-cubes it is a face of, and the number of q-cubes if none
            oldest = {m: np.full_like(g, order.size) for m, g in below.items()}
            blocks = []
            for m in group:
                rows = []
                for i in range(nu):
                    if m >> i & 1:
                        for k in (1, 0):
                            rows.append(_shifted(below[m ^ 1 << i], i, k).ravel())
                            view = _shifted(oldest[m ^ 1 << i], i, k)
                            np.minimum(view, grids[m], out=view)
                blocks.append(np.stack(rows, axis=1))
            faces[q] = np.concatenate(blocks)[order]
            cofaces[q - 1] = np.concatenate([o.ravel() for o in oldest.values()])[below_order]
        below, below_order = grids, order
    for q in range(live + 1, nu + 1):
        weights.append(np.empty(0, dtype=np.int64))
        if q > 1:
            faces[q] = np.empty((0, 2 * q), dtype=np.int64)
    for q in range(max(live, 1), nu):
        cofaces[q] = np.zeros(len(weights[q]), dtype=np.int64)
    return weights, faces, cofaces


def _reduce_column(col: dict[int, int], pivots: dict, apparent: np.ndarray,
                   faces: np.ndarray, signs: list[int]) -> bool:
    """Eliminate `col` against the pivot columns; register it if independent.

    Exact integer arithmetic: to kill the leading row r shared with pivot P,
    replace col by (P_r/g)*col - (col_r/g)*P with g = gcd.  Returns True when
    the column carries a new pivot (rank grows by one), at once when its
    lowest row is no pivot row yet.  The pivot of row r is pivots[r], else
    the apparent column apparent[r] (-1 for none), whose face row enters
    pivots the first time a reduction needs it.
    """
    while col:
        r = max(col)
        piv = pivots.get(r)
        if piv is None:
            piv = apparent[r]
            if piv < 0:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                if g > 1:
                    for k in col:
                        col[k] //= g
                pivots[r] = col
                return True
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


def _apparent(faces: np.ndarray, oldest: np.ndarray):
    """Lowest rows of a boundary's columns, and the mask of its apparent columns.

    A column is apparent when its lowest row (its youngest face) has the
    column as its oldest coface.  No earlier column meets that row, so an
    apparent column is a pivot of the left-to-right reduction as it stands.
    """
    import numpy as np

    # the lowest rows through a contiguous transpose: a reduction along the
    # short rows of a C-ordered array is several times slower
    low = np.ascontiguousarray(faces.T).max(axis=0)
    return low, oldest[low] == np.arange(len(faces))


def _rank_profile(rect: WeightedRectangle):
    """One filtration pass; per dimension, sorted weights of cells and pivots.

    Returns (cell_weights, pivot_weights) where cell_weights[q] holds the
    weights of all q-cells in increasing order and pivot_weights[q] the
    weights of the columns of the q-boundary that carry a pivot, i.e. rank
    of the q-boundary restricted to S_n is the number of entries <= n.

    The full box is contractible, so every q-cell with q >= 1 is either a
    pivot row of the (q+1)-boundary, cleared, or a pivot column of the
    q-boundary.  The elimination therefore stops at the 2-boundary: the
    pivot columns of the 1-boundary are the edges it does not clear.
    """
    import numpy as np

    nu = rect.nu
    cell_weights, faces, cofaces = _cell_filtration(rect)
    pivot_weights = [np.empty(0, dtype=np.int64)] * (nu + 2)

    # boundaries top dimension first, down to the 2-boundary, so that pivot
    # rows clear the matching columns one dimension down.  Apparent columns
    # are pivots as they stand, kept by row in a numpy array; only the other
    # columns reach the loop, and the pivots it finds go into a dict
    cleared = np.zeros(len(cell_weights[nu]), dtype=bool)
    for q in range(nu, 1, -1):
        f = faces[q]
        low, pivot = _apparent(f, cofaces[q - 1])
        apparent = np.full(len(cell_weights[q - 1]), -1)
        apparent[low[pivot]] = np.flatnonzero(pivot)
        signs = _face_signs(q)
        pivots: dict = {}
        for idx in np.flatnonzero(~(pivot | cleared)).tolist():
            if _reduce_column(dict(zip(f[idx].tolist(), signs)), pivots, apparent, f, signs):
                pivot[idx] = True
        pivot_weights[q] = cell_weights[q][pivot]
        cleared = apparent >= 0
        cleared[list(pivots)] = True
    pivot_weights[1] = cell_weights[1][~cleared]
    return cell_weights, pivot_weights


def betti_table(rect: WeightedRectangle) -> BettiTable:
    """Reduced Betti numbers of S_n for every level n up to stabilization."""
    import numpy as np

    cell_weights, pivot_weights = _rank_profile(rect)
    # a cell's weight is the largest of its vertices'; the last level is stable
    min_w = int(cell_weights[0][0])
    levels = np.arange(min_w, cell_weights[0][-1] + 1)
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


def check_vanishing(table: BettiTable) -> bool:
    """Whether btilde_nu(S_n) = 0 at every level; a row holds q = 0..nu."""
    return all(row[-1] == 0 for row in table.rows)
