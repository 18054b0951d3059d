import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    brute_min_convolve,
    fresh_python,
    poly_mul,
    random_admissible,
    reference_min_convolve,
)
from cuspidal import (
    CountingFn,
    IntSeq,
    MultSeq,
    convolve,
    counting_fn,
    criteria,
    diff,
    min_convolve,
    min_convolve_all,
    partial_sums,
    semigroup_from_generators,
    semigroup_from_multseq,
    seqcalc,
)


def test_intseq_canonical_form():
    assert IntSeq((1, 0, 2, 0, 0)).values == (1, 0, 2)
    assert IntSeq(()) == IntSeq((0, 0))
    a = IntSeq((1, -1, 1))
    assert a[-1] == 0 and a[0] == 1 and a[99] == 0
    assert IntSeq((1, 0, -1) + (0,) * 20000).values == (1, 0, -1)
    assert IntSeq((0,) * 20000) == IntSeq(())


def test_diff_on_counting_window():
    # h_j = H(j+1) for the semigroup <2,3>
    h = IntSeq((1, 1, 2, 3, 4))
    assert diff(h).values == (1, 0, 1, 1, 1)
    assert diff(diff(h)).values == (1, -1, 1)


def test_diff_zero():
    assert diff(IntSeq(())) == IntSeq(())


def test_diff_partial_sums_inverse_pair(rng):
    for _ in range(50):
        a = IntSeq(tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 12))))
        n = max(a.degree, 0)
        assert partial_sums(diff(a, n), n) == a
        assert diff(partial_sums(a, n), n) == a


def test_partial_sums_window():
    assert partial_sums(IntSeq((1, -1, 1)), 4).values == (1, 0, 1, 1, 1)


def test_double_inverse_on_nondecreasing(rng):
    for _ in range(30):
        vals = [0]
        for _ in range(rng.randint(1, 10)):
            vals.append(vals[-1] + rng.randint(0, 3))
        h = IntSeq(tuple(vals))
        n = h.degree
        assert partial_sums(partial_sums(diff(diff(h, n), n), n), n) == h


def test_convolve():
    a = IntSeq((1, -1, 1))
    assert convolve(a, a).values == (1, -2, 3, -2, 1)
    assert convolve(a, IntSeq((1, -2, 3, -2, 1))).values == (1, -3, 6, -7, 6, -3, 1)
    assert convolve(a, IntSeq((1,))) == a
    assert convolve(a, IntSeq(())) == IntSeq(())


# mostly sparse small coefficients, with some beyond 64 bits
_COEFFS = st.lists(st.one_of(st.sampled_from((0, 0, 0, 1, -1)),
                             st.integers(-2**70, 2**70)), max_size=40)


@given(a=_COEFFS, b=_COEFFS)
def test_convolve_matches_dense_product(a, b):
    expected = IntSeq(tuple(poly_mul(a, b))) if a and b else IntSeq(())
    assert convolve(IntSeq(tuple(a)), IntSeq(tuple(b))) == expected


def test_counting_fn_validation():
    with pytest.raises(ValueError, match="must start at value 0"):
        CountingFn((1, 2), 0)  # must start at 0
    with pytest.raises(ValueError, match="must start at value 0"):
        CountingFn((), 0)
    with pytest.raises(ValueError, match="steps must be 0 or 1"):
        CountingFn((0, 2), 0)  # step of 2
    with pytest.raises(ValueError, match="steps must be 0 or 1"):
        CountingFn((0, 1, 0), 0)  # decreasing
    with pytest.raises(ValueError, match="disagree at the cutoff"):
        CountingFn((0, 1), 3)  # tail disagrees at cutoff
    f = CountingFn((0, 1, 2), 0)
    assert f(-3) == 0 and f(2) == 2 and f(10) == 10


def test_min_convolve_triple_simple_cusp():
    h = counting_fn(semigroup_from_generators([2, 3]))
    triple = min_convolve_all([h, h, h])
    assert [triple(k + 1) for k in range(5)] == [1, 1, 2, 2, 3]
    assert triple.offset == 3


def test_min_convolve_single_identity():
    h = counting_fn(semigroup_from_generators([3, 4]))
    assert min_convolve_all([h]) is h


def test_min_convolve_counterexample_row():
    fns = [counting_fn(semigroup_from_generators(g))
           for g in ([6, 7], [2, 9], [2, 5])]
    h = min_convolve_all(fns)
    assert [h(k + 1) for k in (0, 8, 16, 24, 32, 40)] == [1, 3, 6, 10, 15, 21]


def test_min_convolve_matches_brute_force(rng):
    for _ in range(25):
        fns = [counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 5)))
               for _ in range(rng.randint(2, 3))]
        got = min_convolve_all(fns)
        for j in range(0, got.cutoff + 5):
            assert got(j) == brute_min_convolve(fns, j), (fns, j)


@given(rng=st.randoms(use_true_random=False))
def test_min_convolve_matches_window_reference(rng):
    # unequal cutoffs; most draws have more result values than one row block
    f = counting_fn(semigroup_from_multseq(random_admissible(rng)))
    g = counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 5)))
    assert min_convolve(f, g) == min_convolve(g, f) == reference_min_convolve(f, g)


def test_min_convolve_large_cusps_sampled():
    # cut = 7080 for [60] [60]: the window is reduced in many row blocks
    f = counting_fn(semigroup_from_multseq(MultSeq((60,))))
    g = counting_fn(semigroup_from_multseq(MultSeq((30, 15, 15))))
    for a, b in ((f, f), (f, g), (g, f)):
        h = min_convolve(a, b)
        for j in [*range(0, h.cutoff, 61), *range(h.cutoff - 3, h.cutoff + 4)]:
            assert h(j) == brute_min_convolve([a, b], j), j


# The two evaluators behind min_convolve, called directly: each must agree
# with the full-window reference and with the brute-force scan whichever
# argument comes first and whichever side of _LIST_CELLS the pair falls.

def _random_fn(rng):
    # a semigroup counting function, or the fold of two: both are the kind
    # of argument min_convolve gets from CuspCollection.h
    f = counting_fn(semigroup_from_multseq(random_admissible(rng, 4, 7)))
    if rng.random() < 0.5:
        f = min_convolve(
            f, counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 5))))
    return f


def _evaluations(f, g):
    # each evaluator on (f, g) and on (g, f), with the run starts of its g
    for evaluate in (seqcalc._min_convolve_lists, seqcalc._min_convolve_numpy):
        for a, b in ((f, g), (g, f)):
            yield evaluate(a, b, seqcalc._run_starts(b))


@given(rng=st.randoms(use_true_random=False))
def test_both_evaluators_match_references(rng):
    f, g = _random_fn(rng), _random_fn(rng)
    expected = reference_min_convolve(f, g)
    assert list(_evaluations(f, g)) == [expected] * 4
    for j in rng.sample(range(expected.cutoff + 4), 8):
        assert expected(j) == brute_min_convolve([f, g], j), j


@settings(max_examples=50)
@given(rng=st.randoms(use_true_random=False))
def test_min_plus_results_have_cutoff_twice_offset(rng):
    # stability compares H by its fields, so a longer or shorter head with
    # the same values would read as a different H
    f, g = _random_fn(rng), _random_fn(rng)
    for h in (*_evaluations(f, g), min_convolve(f, g), min_convolve_all([f, g, f])):
        assert h.cutoff == 2 * h.offset
        assert h.offset in (f.offset + g.offset, 2 * f.offset + g.offset)


def _pair_near_list_cells(g, above):
    # f = <2, 2n + 1> (offset n) with n the largest (above=False) or smallest
    # (above=True) such that the cells, (result values) x (run starts of g
    # plus the pass for min(f, g)), are at most the constant
    passes = len(seqcalc._run_starts(g)) + 1
    n = (seqcalc._LIST_CELLS // passes - 1) // 2 - g.offset + above
    f = counting_fn(semigroup_from_generators([2, 2 * n + 1]))
    cells = (2 * (f.offset + g.offset) + 1) * passes
    step = 2 * passes  # cells added per unit of n
    top = seqcalc._LIST_CELLS + step * above
    assert top - step < cells <= top
    return f


@pytest.mark.parametrize("above", [False, True])
@settings(max_examples=6)
@given(rng=st.randoms(use_true_random=False))
def test_both_evaluators_at_the_list_cells_constant(rng, above):
    g = counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 6)))
    f = _pair_near_list_cells(g, above)
    expected = reference_min_convolve(f, g)
    starts = seqcalc._run_starts(g)
    assert seqcalc._min_convolve_lists(f, g, starts) == expected
    assert seqcalc._min_convolve_numpy(f, g, starts) == expected
    for j in rng.sample(range(expected.cutoff + 4), 4):
        assert expected(j) == brute_min_convolve([f, g], j), j
    # min_convolve puts the pair on lists up to the constant, on numpy above
    used = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_min_convolve_lists", "_min_convolve_numpy"):
            evaluate = getattr(seqcalc, name)
            mp.setattr(seqcalc, name, lambda a, b, starts, name=name, evaluate=evaluate:
                       used.append(name) or evaluate(a, b, starts))
        assert min_convolve(g, f) == expected
    assert used == ["_min_convolve_numpy" if above else "_min_convolve_lists"]


def test_exactly_list_cells_runs_on_lists(monkeypatch):
    # <2,63> has 31 run starts and f = <2,1813> offset 906, so the fold has
    # (2 * 937 + 1) * 32 = 60,000 cells: the constant itself stays on lists
    f = counting_fn(semigroup_from_generators([2, 1813]))
    g = counting_fn(semigroup_from_generators([2, 63]))
    starts = seqcalc._run_starts(g)
    assert (2 * (f.offset + g.offset) + 1) * (len(starts) + 1) == seqcalc._LIST_CELLS
    monkeypatch.setattr(seqcalc, "_min_convolve_numpy", None)
    assert min_convolve(f, g) == seqcalc._min_convolve_lists(f, g, starts)


@pytest.mark.parametrize("family, params", [
    ("C", {"d": 60, "u": 1}), ("D", {"l": 28}), ("E", {"l": 19})])
def test_both_evaluators_on_catalog_first_folds(family, params):
    # the largest folds the benchmark runs, all above _LIST_CELLS: the two
    # backends must agree there too, not only on small random pairs
    c = criteria.catalog(family, **params).collection()
    f, g = c.counting_fns[:2]
    if g.cutoff > f.cutoff:
        f, g = g, f
    starts = seqcalc._run_starts(g)
    assert (2 * (f.offset + g.offset) + 1) * (len(starts) + 1) > seqcalc._LIST_CELLS
    assert (seqcalc._min_convolve_lists(f, g, starts)
            == seqcalc._min_convolve_numpy(f, g, starts))
    # H(2 delta - k) = H(k) + delta - k on the whole window [0, 2 delta]
    h, delta = c.h, c.delta
    assert h.offset == delta
    for k in range(2 * delta + 1):
        assert h(2 * delta - k) == h(k) + delta - k, k

def _unit_step_fn(steps):
    # the counting function whose head climbs by the given 0/1 steps
    head = [0]
    for step in steps:
        head.append(head[-1] + step)
    return CountingFn(tuple(head), len(steps) - head[-1])


_STEPS = st.lists(st.integers(0, 1), max_size=30)


@given(f_steps=_STEPS, g_steps=_STEPS)
def test_candidate_splits_attain_the_minimum(f_steps, g_steps):
    # any nondecreasing unit-step function, not only a semigroup's: the
    # split 0, the split k = j inside g's head and the run starts k <= j
    # attain the minimum over every split
    f, g = _unit_step_fn(f_steps), _unit_step_fn(g_steps)
    starts = seqcalc._run_starts(g)
    # one run start per flat run of g, the tail past the cutoff stepping up
    assert len(starts) == len(re.findall("0+", "".join(map(str, g_steps))))
    assert all(g(k) == g(k - 1) and g(k + 1) == g(k) + 1 for k in starts)
    for j in range(f.cutoff + g.cutoff + 3):
        splits = [0, *[j] * (j <= g.cutoff), *(k for k in starts if k <= j)]
        assert (min(f(j - k) + g(k) for k in splits)
                == brute_min_convolve([g, f], j)), j


# steps of a unit-step function that is linear from twice its offset on,
# as a min-plus result must be: zeros are added until at least half the
# steps are flat, then a drawn number of unit steps carries the head on
_STEPS_LINEAR_PAST_TWICE_OFFSET = st.builds(
    lambda steps, pad: steps + [0] * (2 * sum(steps) - len(steps)) + [1] * pad,
    _STEPS, st.integers(0, 8))


@example(f_steps=[1] * 8, g_steps=[0, 0] + [1] * 6)
@given(f_steps=_STEPS_LINEAR_PAST_TWICE_OFFSET, g_steps=_STEPS_LINEAR_PAST_TWICE_OFFSET)
def test_both_evaluators_on_heads_past_twice_the_offset(f_steps, g_steps):
    # a CountingFn need not have cutoff 2 * offset: in the example g has
    # offset 2 and cutoff 8, so its head runs past the result's window [0, 4]
    f, g = _unit_step_fn(f_steps), _unit_step_fn(g_steps)
    assert list(_evaluations(f, g)) == [reference_min_convolve(f, g)] * 4


def test_min_convolve_memory_linear_in_cutoff():
    # a (cut + 1) x (cutoff + 1) window for H of [60] [60] would take ~200 MiB
    code = ("import resource\n"
            "from cuspidal import CuspCollection, MultSeq, semigroup_from_multseq\n"
            "s = semigroup_from_multseq(MultSeq((60,)))\n"
            "CuspCollection((s, s)).h\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 < 120  # ru_maxrss is in KiB


@settings(max_examples=50)
@given(rng=st.randoms(use_true_random=False))
def test_min_convolve_all_is_order_free(rng):
    # min_convolve_all folds in ascending offset: any order of its arguments
    # gives the H of the unsorted left fold
    fns = [counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 6)))
           for _ in range(rng.randint(1, 4))]
    expected = min_convolve_all(fns)
    for _ in range(3):
        rng.shuffle(fns)
        left = fns[0]
        for fn in fns[1:]:
            left = min_convolve(left, fn)
        assert min_convolve_all(fns) == left == expected


def test_min_convolve_associative_commutative(rng):
    for _ in range(25):
        f, g, h = (counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 6)))
                   for _ in range(3))
        left = min_convolve(min_convolve(f, g), h)
        right = min_convolve(f, min_convolve(g, h))
        swapped = min_convolve(min_convolve(g, f), h)
        assert left == right == swapped


def test_min_convolve_monotone_and_tail_law(rng):
    for _ in range(25):
        f = counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 6)))
        g = counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 6)))
        fg = min_convolve(f, g)
        vals = fg.values(0, fg.cutoff + 10)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # beyond twice the combined offset the value is k - offset; check by
        # brute-force minimization instead of trusting the stored tail
        off = f.offset + g.offset
        for k in range(2 * off, 2 * off + 8):
            assert brute_min_convolve([f, g], k) == k - off


def test_min_convolution_symmetry(rng):
    # H(2*delta - 2 - j + 1) = H(j+1) - j - 1 + delta for all j in [-1, 2*delta-1]
    for _ in range(20):
        fns = [counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 5)))
               for _ in range(rng.randint(1, 3))]
        h = min_convolve_all(fns)
        d = h.offset
        for j in range(-1, 2 * d):
            assert h(2 * d - 2 - j + 1) == h(j + 1) - j - 1 + d


# The sliced rows against their per-element definitions, on every range
# edge: n and lo below 0, hi < lo, hi at and past the cutoff or the support.

@pytest.mark.parametrize("values", [(), (0,), (3,), (1, 0, -2), (0, 0, 5, 7)])
def test_window_is_the_pointwise_prefix(values):
    s = IntSeq(values)
    for n in range(-3, len(values) + 4):
        assert s.window(n) == tuple(s[j] for j in range(n + 1))


def counting_fns_for_rows(rng):
    yield CountingFn((0,), 0)
    yield CountingFn((0, 0, 1), 1)
    yield CountingFn((0, 1, 1, 1, 2, 2, 3), 3)
    yield CountingFn((0, 0, 1, 1, 1, 2, 2, 2, 3, 4), 5)
    for _ in range(5):
        yield counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 5)))


def test_values_is_the_pointwise_row(rng):
    for f in counting_fns_for_rows(rng):
        for lo in range(-4, f.cutoff + 4):
            for hi in range(lo - 3, f.cutoff + 5):
                assert f.values(lo, hi) == [f(k) for k in range(lo, hi + 1)]
