import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cuspidal
from conftest import brute_min_convolve, poly_mul, random_admissible, reference_min_convolve
from cuspidal import (
    CountingFn,
    IntSeq,
    MultSeq,
    convolve,
    counting_fn,
    diff,
    min_convolve,
    min_convolve_all,
    partial_sums,
    semigroup_from_generators,
    semigroup_from_multseq,
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


def test_min_convolve_memory_linear_in_cutoff():
    # a (cut + 1) x (cutoff + 1) window for H of [60] [60] would take ~200 MiB
    code = ("import resource\n"
            "from cuspidal import CuspCollection, MultSeq, semigroup_from_multseq\n"
            "s = semigroup_from_multseq(MultSeq((60,)))\n"
            "CuspCollection((s, s)).h\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(cuspidal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=300)
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
