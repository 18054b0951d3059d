import pytest
from hypothesis import given, settings
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
    with pytest.raises(ValueError):
        CountingFn((1, 2), 0)  # must start at 0
    with pytest.raises(ValueError):
        CountingFn((0, 2), 0)  # step of 2
    with pytest.raises(ValueError):
        CountingFn((0, 1, 0), 0)  # decreasing
    with pytest.raises(ValueError):
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
        f = seqcalc._min_convolve_lists(
            f, counting_fn(semigroup_from_multseq(random_admissible(rng, 3, 5))))
    return f


@given(rng=st.randoms(use_true_random=False))
def test_both_evaluators_match_references(rng):
    f, g = _random_fn(rng), _random_fn(rng)
    expected = reference_min_convolve(f, g)
    for evaluate in (seqcalc._min_convolve_lists, seqcalc._min_convolve_numpy):
        assert evaluate(f, g) == evaluate(g, f) == expected
    for j in rng.sample(range(expected.cutoff + 4), 8):
        assert expected(j) == brute_min_convolve([f, g], j), j


def _pair_near_list_cells(g, above):
    # f = <2, 2n + 1> (offset n) with n the largest (above=False) or smallest
    # (above=True) such that the candidate cells are at most the constant
    n = (seqcalc._LIST_CELLS // (g.offset + 1) - 1) // 2 - g.offset + above
    f = counting_fn(semigroup_from_generators([2, 2 * n + 1]))
    cells = (2 * (f.offset + g.offset) + 1) * (g.offset + 1)
    step = 2 * (g.offset + 1)  # cells added per unit of n
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
    assert seqcalc._min_convolve_lists(f, g) == expected
    assert seqcalc._min_convolve_numpy(f, g) == expected
    for j in rng.sample(range(expected.cutoff + 4), 4):
        assert expected(j) == brute_min_convolve([f, g], j), j
    # min_convolve puts the pair on lists up to the constant, on numpy above
    used = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_min_convolve_lists", "_min_convolve_numpy"):
            evaluate = getattr(seqcalc, name)
            mp.setattr(seqcalc, name, lambda a, b, name=name, evaluate=evaluate:
                       used.append(name) or evaluate(a, b))
        assert min_convolve(g, f) == expected
    assert used == ["_min_convolve_numpy" if above else "_min_convolve_lists"]



@pytest.mark.parametrize("family, params", [
    ("C", {"d": 60, "u": 1}), ("D", {"l": 28}), ("E", {"l": 19})])
def test_both_evaluators_on_catalog_first_folds(family, params):
    # the largest folds the benchmark runs, all above _LIST_CELLS: the two
    # backends must agree there too, not only on small random pairs
    c = criteria.catalog(family, **params).collection()
    f, g = c.counting_fns[:2]
    if g.cutoff > f.cutoff:
        f, g = g, f
    assert (2 * (f.offset + g.offset) + 1) * (g.offset + 1) > seqcalc._LIST_CELLS
    assert seqcalc._min_convolve_lists(f, g) == seqcalc._min_convolve_numpy(f, g)
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
    # any nondecreasing unit-step function, not only a semigroup's
    f, g = _unit_step_fn(f_steps), _unit_step_fn(g_steps)
    splits = seqcalc._candidate_splits(g)
    assert len(splits) == g.offset + 1
    for j in range(f.cutoff + g.cutoff + 3):
        assert (min(f(j - k) + g(k) for k in splits)
                == brute_min_convolve([g, f], j)), j


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
