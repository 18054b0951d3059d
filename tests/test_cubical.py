import itertools
import re
import sys
from math import prod
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    collection,
    random_admissible,
    reference_apparent,
    reference_betti_table,
    reference_filtration,
    reference_h0_barcode,
    reference_path_barcode,
    reference_path_eu_h0,
    reference_rank_profile,
)
from cuspidal import (
    CuspCollection,
    catalog_entries,
    RectangleTooLarge,
    betti_table,
    build_rectangle,
    check_vanishing,
    counting_fn,
    f_sequence,
    h_function,
    min_w_over_diagonal,
    oracle_eu,
    regroupings,
    semigroup_from_multseq,
)
from cuspidal import cubical
from cuspidal.cubical import (
    WeightedRectangle,
    _apparent,
    _box,
    _cell_filtration,
    _face_signs,
    _rank_profile,
    _reduce_column,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

QUARTIC = collection("[2]", "[2]", "[2]")
SINGLE = collection("[2]")


def weight(rect, x):
    return rect.weights[sum(xi * si for xi, si in zip(x, rect.strides()))]


class TestBuildRectangle:
    def test_dims_and_count(self):
        rect = build_rectangle(QUARTIC, 0)
        assert rect.dims == (3, 3, 3)
        assert len(rect.weights) == 64

    def test_single_cusp_axis_weights(self):
        # w_0(x) = H(x) + min(0, 1 - x) on the axis of a simple cusp:
        # H = (0,1,1,2) so the weights are 0, 1, 0, 0
        rect = build_rectangle(SINGLE, 0)
        assert [weight(rect, (x,)) for x in range(4)] == [0, 1, 0, 0]

    def test_minimum_nonpositive(self):
        for j in range(5):
            rect = build_rectangle(QUARTIC, j)
            assert min(rect.weights) <= 0
            assert weight(rect, (0, 0, 0)) == 0

    def test_cap(self):
        with pytest.raises(RectangleTooLarge):
            build_rectangle(QUARTIC, 0, cap=63)

    def test_cell_cap(self):
        # 27 points fit the cap of 31, but their 125 cells exceed 4 * 31
        with pytest.raises(RectangleTooLarge) as exc:
            build_rectangle(QUARTIC, 0, dims=(2, 2, 2), cap=31)
        assert str(exc.value) == "rectangle too large: 125 cells exceed cap 124"
        assert build_rectangle(QUARTIC, 0, dims=(2, 2, 2), cap=32).dims == (2, 2, 2)

    def test_extreme_index(self):
        # weights stay exact int64: a huge j is clamped where it no longer
        # changes w_a, and a j whose weights would wrap is refused
        assert build_rectangle(SINGLE, 10**30).weights == build_rectangle(SINGLE, 10).weights
        assert min(build_rectangle(SINGLE, -(1 << 62)).weights) == -(1 << 62)
        with pytest.raises(ValueError):
            build_rectangle(SINGLE, -(1 << 63))
        # the filtration key is taken from the weights less their minimum,
        # so such weights do not wrap it
        rect = build_rectangle(collection("[2]", "[2]"), -(1 << 62))
        assert betti_table(rect) == reference_betti_table(rect)

    def test_explicit_dims(self):
        rect = build_rectangle(QUARTIC, 0, dims=(4, 5, 6))
        assert rect.dims == (4, 5, 6)
        with pytest.raises(ValueError):
            build_rectangle(QUARTIC, 0, dims=(4, 5))

    def test_negative_default_box_refused(self):
        # the quartic's default box is 3 + margin per cusp
        calls = ((min_w_over_diagonal, -10), (min_w_over_diagonal, -4),
                 (build_rectangle, -10), (oracle_eu, -4))
        for call, margin in calls:
            message = f"box sizes must be nonnegative, got {(3 + margin,) * 3}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call(QUARTIC, 0, box_margin=margin)
        assert build_rectangle(QUARTIC, 0, box_margin=-3).dims == (0, 0, 0)


def face_rows(rect):
    """Face rows of every dimension: the edges' by definition, the rest as built."""
    _, faces, _ = _cell_filtration(rect)
    return reference_filtration(rect)[1][:2] + [f.tolist() for f in faces[2:]]


class TestBoundaryOperator:
    def test_boundary_of_boundary_vanishes(self):
        for rect in (build_rectangle(collection("[2]", "[2]"), 1),
                     build_rectangle(QUARTIC, 2, dims=(2, 3, 4))):
            faces = face_rows(rect)
            for q in range(2, rect.nu + 1):
                for row in faces[q]:
                    assert len(set(row)) == 2 * q
                    total = {}
                    for f, sign in zip(row, _face_signs(q)):
                        for g, gsign in zip(faces[q - 1][f], _face_signs(q - 1)):
                            total[g] = total.get(g, 0) + sign * gsign
                    assert all(v == 0 for v in total.values())


    def test_reduce_column_beyond_unit_entries(self):
        # cubical pivots lead with +-1, but the elimination is exact for any
        # integers: 2*col - pivot kills row 5, and the rest is a new pivot
        none = np.full(6, -1)
        pivots = {5: {5: 2, 1: 1}}
        assert _reduce_column({5: 1, 3: 1}, pivots, none, None, None)
        assert pivots[3] == {3: 2, 1: -1}
        # a multiple of a pivot reduces to zero and adds none
        assert not _reduce_column({5: 4, 1: 2}, pivots, none, None, None)
        assert len(pivots) == 2
        # a new pivot is stored divided by the gcd of its entries
        pivots = {5: {5: 1, 1: 1}}
        assert _reduce_column({5: 1, 3: 2, 1: 3}, pivots, none, None, None)
        assert pivots[3] == {3: 1, 1: 1}


class TestLevelBetti:
    def test_full_rectangle_contractible(self):
        rect = build_rectangle(QUARTIC, 2)
        top = max(rect.weights)
        table = betti_table(rect)
        assert table.min_level + len(table.rows) - 1 == top
        assert table.rows[-1] == (0, 0, 0, 0)

    def test_single_minimum_is_connected(self):
        # large j makes the weight H(x), whose unique minimum is at the origin
        rect = build_rectangle(SINGLE, 10)
        assert min(rect.weights) == 0
        assert betti_table(rect).rows[0] == (0, 0)

    def test_matches_hand_computation(self):
        # single [2] cusp, j = 0: weights 0,1,0,0 along the axis; at level 0
        # the complex is {0} and the segment [2,3]: two components
        rect = build_rectangle(SINGLE, 0)
        table = betti_table(rect)
        assert table.min_level == 0
        assert table.rows[:2] == ((1, 0), (0, 0))

    def test_table_consistent_with_rows(self):
        rect = build_rectangle(QUARTIC, 2)
        table = betti_table(rect)
        reference = reference_betti_table(rect)
        assert table.min_level == reference.min_level == min(rect.weights)
        assert table.rows == reference.rows

    def test_euler_poincare_per_level(self):
        # alternating sum of (non-reduced) Betti numbers equals the
        # alternating cube count at every level
        rect = build_rectangle(collection("[3]", "[2_2]"), 3)
        cell_weights, _, _ = _cell_filtration(rect)
        table = betti_table(rect)
        for n, row in enumerate(table.rows, start=table.min_level):
            counts = [sum(1 for w in ws.tolist() if w <= n) for ws in cell_weights]
            chi_cells = sum((-1) ** q * c for q, c in enumerate(counts))
            chi_betti = 1 + sum((-1) ** q * b for q, b in enumerate(row))
            assert chi_cells == chi_betti

    def test_monotone_filtration(self):
        # cells come in weight order and no face outweighs its cube, so every
        # sublevel set is a subcomplex
        rect = build_rectangle(QUARTIC, 1)
        cell_weights, _, _ = _cell_filtration(rect)
        faces = face_rows(rect)
        assert [len(ws) for ws in cell_weights] == [64, 144, 108, 27]
        for q, ws in enumerate(cell_weights):
            ws = ws.tolist()
            assert ws == sorted(ws)
            if q:
                for w, row in zip(ws, faces[q]):
                    assert all(cell_weights[q - 1][f] <= w for f in row)


class TestOracle:
    def test_simple_cusp_trivial(self):
        o = oracle_eu(SINGLE, 0)
        assert (o.eu_h0, o.eu_hstar) == (1, 1)

    def test_quartic_q_identity(self):
        # oracle eu_hstar at j equals q_j = F(j) + delta-1-j, q = (3,0,3,-1,1)
        got = [oracle_eu(QUARTIC, j).eu_hstar for j in range(5)]
        assert got == [3, 0, 3, -1, 1]

    def test_quartic_eu_h0_identity(self):
        h = h_function(QUARTIC)
        d = QUARTIC.delta
        for j in range(2 * d - 1):
            assert oracle_eu(QUARTIC, j).eu_h0 == h(j + 1) + d - 1 - j

    def test_formula_agreement_small_sweep(self):
        c = collection("[3]", "[2_2]")
        h = h_function(c)
        f = f_sequence(c)
        d = c.delta
        for j in range(2 * d - 1):
            o = oracle_eu(c, j)
            assert o.eu_h0 == h(j + 1) + d - 1 - j
            assert o.eu_hstar == f[j] + d - 1 - j

    def test_two_cusp_positivity(self):
        # for two cusps the difference is the total first Betti rank
        c = collection("[3]", "[2_2]")
        for j in range(2 * c.delta - 1):
            o = oracle_eu(c, j)
            b1_total = sum(row[1] for row in o.table.rows)
            assert o.eu_h0 - o.eu_hstar == b1_total >= 0

    def test_box_margin_stability(self):
        c = collection("[3,2]", "[2]")
        for j in (0, 3, 7):
            runs = [oracle_eu(c, j, box_margin=m) for m in (0, 1, 2)]
            assert len({(o.eu_h0, o.eu_hstar) for o in runs}) == 1


class TestMinWOverDiagonal:
    def test_examples(self):
        assert min_w_over_diagonal(QUARTIC, 2) == 2  # delta - 3 + H(3)
        assert min_w_over_diagonal(QUARTIC, 2 * QUARTIC.delta - 1) == 0
        assert min_w_over_diagonal(QUARTIC, 50) == 0
        assert min_w_over_diagonal(QUARTIC, 0) == QUARTIC.delta

    def test_matches_enumeration(self):
        # brute-force enumeration over the whole slice
        c = collection("[3]", "[2]")
        dims = _box(c, 0, None)
        hs = [counting_fn(s) for s in c.cusps]
        for j in range(2 * c.delta + 2):
            pts = [x for x in itertools.product(*(range(m + 1) for m in dims))
                   if sum(x) == j + 1]
            if not pts:
                continue
            expected = min(c.delta - j - 1 + sum(h(v) for h, v in zip(hs, x))
                           for x in pts)
            assert min_w_over_diagonal(c, j) == expected

    def test_formula(self):
        h = h_function(QUARTIC)
        d = QUARTIC.delta
        for j in range(2 * d + 3):
            assert min_w_over_diagonal(QUARTIC, j) == d - j - 1 + h(j + 1)

    def test_negative_index(self):
        # |x| = j + 1 = 0 is the origin alone; below that the slice is not defined
        assert min_w_over_diagonal(QUARTIC, -1) == QUARTIC.delta
        with pytest.raises(ValueError):
            min_w_over_diagonal(QUARTIC, -2)

    def test_box_size_count(self):
        # one box size per cusp, as for build_rectangle
        for dims in ((3, 3), (3, 3, 3, 3)):
            with pytest.raises(ValueError):
                min_w_over_diagonal(QUARTIC, 2, dims=dims)


class TestVanishing:
    def test_two_cusps(self):
        for j in (0, 2, 5):
            rect = build_rectangle(collection("[2_2]", "[2]"), j)
            assert check_vanishing(betti_table(rect))

    def test_single_cusp(self):
        for j in (0, 1, 3):
            rect = build_rectangle(SINGLE, j)
            table = betti_table(rect)
            assert all(row[1] == 0 for row in table.rows)

    def test_three_cusps_all_j(self):
        for j in range(2 * QUARTIC.delta - 1):
            rect = build_rectangle(QUARTIC, j)
            table = betti_table(rect)
            assert all(row[3] == 0 for row in table.rows)
            assert check_vanishing(table)


def test_zero_length_axes_add_zero_columns():
    # an axis of length 0 has no cubes, so a box with such axes has the
    # table of the box without them, with zeros in the dimensions above
    weights = (0, 3, 0, 1, 2, 4, 5, 0, 1, 3, 0, 2)
    table = betti_table(WeightedRectangle((2, 3), weights))
    assert table.rows[0] == (3, 0, 0) and table.rows[3] == (0, 1, 0)
    for dims in ((0, 2, 0, 3), (2, 0, 0, 0, 3)):
        padded = betti_table(WeightedRectangle(dims, weights))
        assert padded.min_level == table.min_level
        assert padded.rows == tuple(row + (0,) * (len(dims) - 2) for row in table.rows)


def test_oracle_respects_cap():
    with pytest.raises(RectangleTooLarge):
        oracle_eu(QUARTIC, 0, cap=10)


def random_box(rng, nu, data):
    """A random collection of nu cusps, a box of at most 81 points for nu = 4, and an index."""
    c = CuspCollection(tuple(semigroup_from_multseq(random_admissible(rng, 3, 5))
                             for _ in range(nu)))
    top = (8, 5, 3, 2)[nu - 1]
    dims = tuple(data.draw(st.lists(st.integers(0, top), min_size=nu, max_size=nu)))
    j = data.draw(st.integers(-3, 2 * c.delta + 4))
    return build_rectangle(c, j, dims=dims)


@given(rng=st.randoms(use_true_random=False), nu=st.integers(1, 4), data=st.data())
def test_betti_table_matches_reference(rng, nu, data):
    # at nu = 4 apparent pairs and clearing run through every boundary from
    # dimension 4 down to the 2-cells, and clearing gives the edges' pivots
    rect = random_box(rng, nu, data)
    table = betti_table(rect)
    assert table == reference_betti_table(rect)
    assert all(row[-1] == 0 for row in table.rows)


@settings(max_examples=100)
@given(nu=st.integers(1, 4), data=st.data())
def test_betti_table_matches_reference_on_any_weights(nu, data):
    # the route holds for any integer vertex weights, not only surgery ones
    top = (8, 5, 3, 2)[nu - 1]
    dims = tuple(data.draw(st.lists(st.integers(0, top), min_size=nu, max_size=nu)))
    points = 1
    for m in dims:
        points *= m + 1
    weights = data.draw(st.lists(st.integers(-4, 4), min_size=points, max_size=points))
    rect = WeightedRectangle(dims, tuple(weights))
    assert betti_table(rect) == reference_betti_table(rect)


@settings(max_examples=80)
@given(rng=st.randoms(use_true_random=False), nu=st.integers(1, 4), data=st.data())
def test_filtration_matches_definition(rng, nu, data):
    # ties in weight go by doubled-grid index, a total order, so every
    # position is fixed: the face rows above the edges and the oldest cofaces
    # above the vertices equal their definition exactly, and the edge rows
    # and vertex cofaces, which nothing reads, are not built
    rect = random_box(rng, nu, data)
    cell_weights, faces, cofaces = _cell_filtration(rect)
    ref_weights, ref_faces, ref_cofaces = reference_filtration(rect)
    assert len(faces) == len(cofaces) == nu + 1
    assert [ws.tolist() for ws in cell_weights] == ref_weights
    assert faces[0] is faces[1] is cofaces[0] is cofaces[nu] is None
    for q in range(2, nu + 1):
        assert faces[q].shape == (len(ref_faces[q]), 2 * q)
        assert faces[q].tolist() == ref_faces[q]
    for q in range(1, nu):
        assert cofaces[q].tolist() == ref_cofaces[q]


@given(rng=st.randoms(use_true_random=False), nu=st.integers(1, 3), data=st.data())
def test_min_w_over_diagonal_matches_enumeration(rng, nu, data):
    # W = delta - |x| + sum H_i(x_i) over the slice |x| = j+1 of an explicit
    # box, from j = -1 (the origin alone) to slices beyond the box total
    c = CuspCollection(tuple(semigroup_from_multseq(random_admissible(rng, 3, 5))
                             for _ in range(nu)))
    top = (8, 5, 3)[nu - 1]
    dims = tuple(data.draw(st.lists(st.integers(0, top), min_size=nu, max_size=nu)))
    j = data.draw(st.integers(-1, sum(dims) + 2))
    hs = [counting_fn(s) for s in c.cusps]
    slice_ = [x for x in itertools.product(*(range(m + 1) for m in dims)) if sum(x) == j + 1]
    expected = min((c.delta - j - 1 + sum(h(v) for h, v in zip(hs, x)) for x in slice_),
                   default=0)
    assert min_w_over_diagonal(c, j, dims=dims) == expected


@settings(max_examples=80)
@given(rng=st.randoms(use_true_random=False), nu=st.integers(1, 4), data=st.data())
def test_apparent_columns_and_pivots(rng, nu, data):
    # the apparent mask against its per-cube definition, and the pivot
    # weights against the loop without apparent pairs and a union-find
    rect = random_box(rng, nu, data)
    _, faces, cofaces = _cell_filtration(rect)
    apparent = reference_apparent(rect)
    for q in range(2, nu + 1):
        low, mask = _apparent(faces[q], cofaces[q - 1])
        assert low.tolist() == faces[q].max(axis=1).tolist()
        assert mask.tolist() == apparent[q]
    with patch.object(cubical, "_reduce_column", wraps=cubical._reduce_column) as reduce:
        cells, pivots = _rank_profile(rect)
    ref_cells, ref_pivots = reference_rank_profile(rect)
    assert [ws.tolist() for ws in cells] == [ws.tolist() for ws in ref_cells]
    assert [ws.tolist() for ws in pivots] == [ws.tolist() for ws in ref_pivots]
    # the box is contractible: every q-cell (q >= 1) is a pivot row of
    # d_{q+1} or a pivot column of d_q, which is what gives the edges'
    # pivots without eliminating d_1
    for q in range(1, nu + 1):
        assert len(ref_cells[q]) == len(ref_pivots[q]) + len(ref_pivots[q + 1])
    # the loop visits only the columns of d_q (q >= 2) that are neither
    # apparent nor cleared by one of the rank(d_{q+1}) pivot rows one
    # dimension up
    assert reduce.call_count == sum(len(faces[q]) - sum(apparent[q]) - len(ref_pivots[q + 1])
                                    for q in range(2, nu + 1))


@pytest.mark.parametrize("j,reduced", [(2, 18), (5, 9), (8, 5)])
def test_ties_by_grid_index_keep_the_loop_short(j, reduced):
    # any order of equal weights gives the same tables, so only the count of
    # reduced columns sees the tie-break.  Ordered by weight alone, these
    # boxes reduce 415, 357 and 232 columns, and by weight and lowest vertex,
    # with the edges eliminated too, 31, 17 and 8
    rect = build_rectangle(collection("[3,2]", "[2]", "[2]"), j, box_margin=2)
    assert len(rect.weights) == 432
    with patch.object(cubical, "_reduce_column", wraps=cubical._reduce_column) as reduce:
        _rank_profile(rect)
    assert reduce.call_count == reduced


def level_columns(c, a, margin=0):
    """min_level and the b~0 and b~1 columns, trailing zeros dropped."""
    table = betti_table(build_rectangle(c, a, box_margin=margin))
    columns = []
    for q in (0, 1):
        column = [row[q] for row in table.rows]
        while column and column[-1] == 0:
            column.pop()
        columns.append(column)
    return table.min_level, columns


@settings(max_examples=60)
@given(multiset=st.sampled_from(((3, 2, 2), (2, 2, 2, 2), (3, 3, 2), (4, 2, 2), (3, 2, 2, 2))),
       data=st.data())
def test_h0_depends_only_on_the_multiset(multiset, data):
    # the paper: H^0 of S^3_{-d}(K) depends only on the multiset of
    # multiplicities, read here off the oracle's graded b~0 ranks
    rows = regroupings(multiset).collections
    picks = data.draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2, unique=True))
    first, second = (CuspCollection(tuple(map(semigroup_from_multseq, parts))) for parts in picks)
    a = data.draw(st.integers(-1, 2 * first.delta))
    margin = data.draw(st.integers(0, 1))
    (min_first, (b0_first, _)), (min_second, (b0_second, _)) = (
        level_columns(c, a, margin) for c in (first, second))
    assert (min_first, b0_first) == (min_second, b0_second)


def test_h0_barcode_is_the_path_barcode():
    # the graded Z[U]-module H^0 is fixed by the barcode, not only by the b~0
    # counts.  On the path the weight H(k) + min(0, 1 + a - k) rises up to
    # k = a + 1 and falls after it, since H steps by 0 or 1, so every
    # sublevel set is a prefix plus a suffix and there is at most one
    # finite bar: every box of every regrouping has that path's barcode
    indices = boxes = 0
    for multiset in ((3, 2, 2), (2, 2, 2, 2), (3, 3, 2), (4, 2, 2), (3, 2, 2, 2), (4, 3, 2),
                     (2, 2, 2, 2, 2), (5, 2, 2), (3, 3, 2, 2), (4, 2, 2, 2), (3, 3, 3)):
        colls = [CuspCollection(parts) for parts in regroupings(multiset).collections]
        for margin in (0, 1):
            small = [c for c in colls if prod(m + 1 for m in _box(c, margin, None)) <= 1000]
            n = sum(_box(colls[0], margin, None))
            for a in range(-1, 2 * colls[0].delta + 1):
                min_g, bars = reference_path_barcode(colls[0], a, n)
                assert len(bars) <= 1, (multiset, margin, a)
                for c in small:
                    rect = build_rectangle(c, a, box_margin=margin)
                    assert reference_h0_barcode(rect) == (min_g, sorted(bars)), (c, margin, a)
                    boxes += 1
                indices += 1
    assert (indices, boxes) == (376, 1642)


def test_h0_pin_is_not_vacuous():
    # the same multiset (3,2,2) and index: equal minimum and b~0, but a b~1
    # class in one regrouping only, so the full lattice cohomology is no
    # multiset invariant
    one, two = (level_columns(collection(*lits), 4)
                for lits in (("[3]", "[2]", "[2]"), ("[3]", "[2_2]")))
    assert one == (0, [[1, 1], [0, 0, 1]])
    assert two == (0, [[1, 1], []])


def test_path_eu_h0_is_the_closed_form():
    # the 1-D path [0, sum(2 delta_i + 1)] has no box cap: eu_h0 from its
    # barcode is H(j+1) + delta - 1 - j at every index of the catalog up to
    # d = 12 (3,231 indices)
    checked = 0
    for entry in catalog_entries(12):
        c = entry.collection()
        n = sum(2 * d + 1 for d in c.deltas)
        for j in range(2 * c.delta - 1):
            assert reference_path_eu_h0(c, j, n) == c.h(j + 1) + c.delta - 1 - j, (entry, j)
            checked += 1
    assert checked == 3231


def test_path_barcode_counts_match_betti_table():
    # at margin 0 the box sides sum to the path's length; the path's bars
    # alive at each level are the rectangle's b~0 there (488 indices)
    checked = 0
    for combo in workloads.oracle_collections():
        c = collection(*combo)
        n = sum(_box(c, 0, None))
        for a in range(-1, 2 * c.delta + 1):
            table = betti_table(build_rectangle(c, a))
            min_g, bars = reference_path_barcode(c, a, n)
            counts = [sum(b <= level < d for b, d in bars)
                      for level in range(table.min_level, table.min_level + len(table.rows))]
            assert (min_g, counts) == (table.min_level, [row[0] for row in table.rows]), (combo, a)
            checked += 1
    assert checked == 488
