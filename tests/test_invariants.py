import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GHOST_QUINTIC_F,
    OCTIC_F,
    OCTIC_H,
    QUARTIC_F,
    QUARTIC_H,
    QUINTIC_F,
    QUINTIC_H,
    SPORADIC3_F,
    SPORADIC4_F,
    SPORADIC_H,
    admissible_semigroups,
    collection,
    cyclotomic_quotient,
    random_admissible,
    reference_alexander,
    reference_alexander_product,
    reference_counting_fn,
    reference_f_sequence,
    semigroups,
)
from cuspidal import (
    SMOOTH,
    CuspCollection,
    InadmissibleSequenceError,
    MultSeq,
    NotCandidateError,
    NotPlaneBranchError,
    SemigroupError,
    alexander,
    catalog,
    catalog_entries,
    counting_fn,
    diff,
    eu_canonical,
    f_sequence,
    geometric_genus,
    h_function,
    IntSeq,
    invariants,
    min_convolve_all,
    q_coefficients,
    r_poly,
    r_poly_series,
    semigroup_from_generators,
    semigroup_from_multseq,
    semigroup_from_newton_pairs,
    spinc_report,
)

QUARTIC = ("[2]", "[2]", "[2]")
QUINTIC = ("[3]", "[2_2]", "[2]")
OCTIC = ("[6]", "[2_4]", "[2_2]")
GHOST = ("[3,2]", "[2]", "[2]")


def random_collection(rng, max_nu=4, max_len=3, max_entry=5):
    nu = rng.randint(1, max_nu)
    return CuspCollection(tuple(
        semigroup_from_multseq(random_admissible(rng, max_len, max_entry))
        for _ in range(nu)))


class TestCuspCollection:
    def test_fields(self):
        c = collection(*OCTIC)
        assert c.nu == 3 and c.deltas == (15, 4, 2) and c.delta == 21
        assert [ms.literal() for ms in c.multseqs] == ["[6]", "[2_4]", "[2_2]"]

    def test_rejects_empty_and_smooth(self):
        with pytest.raises(SemigroupError):
            CuspCollection(())
        with pytest.raises(SemigroupError, match="smooth"):
            CuspCollection((SMOOTH,))

    @staticmethod
    def assert_same(colls):
        first = colls[0]
        for c in colls[1:]:
            assert c == first and hash(c) == hash(first) and repr(c) == repr(first)
            assert c.multseqs == first.multseqs
            assert c.h == first.h and c.q == first.q

    def test_any_description_gives_the_same_collection(self, rng):
        # a multiplicity sequence is kept as given, and that of a semigroup or
        # of Newton pairs is read off its blowup chain: the same value
        for _ in range(40):
            seqs = [random_admissible(rng, 4, 7) for _ in range(rng.randint(1, 4))]
            sgs = list(map(semigroup_from_multseq, seqs))
            mixed = [rng.choice(pair) for pair in zip(seqs, sgs)]
            self.assert_same([CuspCollection(seqs), CuspCollection(sgs), CuspCollection(mixed)])
        for entry in catalog_entries(12):
            sgs = list(map(semigroup_from_multseq, entry.cusps))
            assert list(map(semigroup_from_newton_pairs, entry.newton)) == sgs, entry.label
            mixed = [(ms, s, np_)[i % 3]
                     for i, (ms, s, np_) in enumerate(zip(entry.cusps, sgs, entry.newton))]
            self.assert_same([CuspCollection(entry.cusps), CuspCollection(sgs),
                              CuspCollection(entry.newton), CuspCollection(mixed),
                              entry.collection()])

    def test_bad_cusp_named_by_its_literal(self):
        with pytest.raises(InadmissibleSequenceError) as info:
            CuspCollection([MultSeq((6, 4))])
        assert str(info.value).startswith(
            "bad cusp '[6,4]': inadmissible multiplicity sequence")
        # a semigroup that is no plane branch, and a smooth point, alike
        with pytest.raises(NotPlaneBranchError) as info:
            CuspCollection([semigroup_from_generators((3, 4, 5))])
        assert str(info.value) == ("bad cusp '<3,4,5>': not a plane-branch semigroup: "
                                   "blowup does not preserve the Apery order")
        with pytest.raises(SemigroupError) as info:
            CuspCollection([MultSeq((2,)), SMOOTH])
        assert str(info.value) == "bad cusp '<1>': smooth point is not a cusp"


class TestAlexander:
    def test_simple_cusp(self):
        assert alexander(semigroup_from_generators([2, 3])).coeffs.values == (1, -1, 1)

    def test_smooth(self):
        assert alexander(SMOOTH).coeffs.values == (1,)

    def test_degree_normalization_palindrome(self, rng):
        for _ in range(25):
            s = semigroup_from_multseq(random_admissible(rng, 3, 6))
            a = alexander(s)
            assert a.coeffs.degree == 2 * s.delta
            assert sum(a.coeffs.values) == 1
            co = a.coeffs.window(2 * s.delta)
            assert co == co[::-1]

    def test_equals_double_difference_of_counting(self, rng):
        for _ in range(25):
            s = semigroup_from_multseq(random_admissible(rng, 3, 6))
            h = counting_fn(s)
            hw = IntSeq(tuple(h(j + 1) for j in range(2 * s.delta + 3)))
            assert diff(diff(hw)) == alexander(s).coeffs


class TestAlexanderSeries:
    """The Apery-set routes of H_i and Delta_i against per-element oracles that read the gaps."""

    @given(cusps=st.lists(semigroups, min_size=1, max_size=3))
    @example(cusps=[SMOOTH])
    @example(cusps=[semigroup_from_generators([3, 4, 5])])
    @example(cusps=[SMOOTH, semigroup_from_generators([3, 4, 5])])
    def test_series_equal_gap_oracles(self, cusps):
        for s in cusps:
            assert counting_fn(s) == reference_counting_fn(s)
            assert alexander(s).coeffs == reference_alexander(s)
        assert invariants._alexander_series(tuple(cusps)) == reference_alexander_product(cusps)

    def test_non_symmetric_below_top_degree(self):
        # degree c = 3 < 2*delta = 4: no top coefficient 1 at 2*delta
        assert alexander(semigroup_from_generators([3, 4, 5])).coeffs.values == (1, -1, 0, 1)

    @given(cusps=st.lists(admissible_semigroups, min_size=1, max_size=3))
    def test_product_equals_oracle(self, cusps):
        c = CuspCollection(tuple(cusps))
        assert c.alexander_product.coeffs == reference_alexander_product(cusps)

    @settings(max_examples=50)
    @given(cusps=st.lists(admissible_semigroups, min_size=2, max_size=4),
           perm=st.randoms(use_true_random=False))
    def test_cusp_order_changes_nothing(self, cusps, perm):
        # H folds in ascending offset and the Apery polynomials multiply in
        # ascending delta, whatever order the cusps come in
        c = CuspCollection(tuple(cusps))
        perm.shuffle(cusps)
        shuffled = CuspCollection(tuple(cusps))
        assert shuffled.h == c.h
        assert shuffled.alexander_product == c.alexander_product
        fns = list(c.counting_fns)
        perm.shuffle(fns)
        assert min_convolve_all(fns) == c.h

    def test_series_past_the_degree_bound_refused(self, monkeypatch):
        # a wrong Apery set {0, 5} mod 2 gives (1 + t^5)/(1 + t), of degree 4 > 2*delta
        monkeypatch.setattr(invariants, "apery_set", lambda s, m: (0, 5))
        with pytest.raises(ArithmeticError):
            alexander(semigroup_from_generators([2, 3]))

    def test_series_one_degree_too_high_refused(self, monkeypatch):
        # a wrong Apery set {0, 2, 7} mod 3 gives (1 + t^2 + t^7)/(1 + t + t^2),
        # of degree 5 = 2*delta + 1 for <3,4,5>: the first degree refused
        monkeypatch.setattr(invariants, "apery_set", lambda s, m: (0, 2, 7))
        with pytest.raises(ArithmeticError, match="degree above 2[*]delta"):
            alexander(semigroup_from_generators([3, 4, 5]))


class TestAlexanderProduct:
    def test_three_simple_cusps(self):
        c = collection(*QUARTIC)
        assert c.alexander_product.coeffs.values == (1, -3, 6, -7, 6, -3, 1)

    def test_single_cusp(self, rng):
        s = semigroup_from_multseq(random_admissible(rng))
        c = CuspCollection((s,))
        assert c.alexander_product == alexander(s)

    def test_degree5_series_closed_form(self):
        # product of the three torus-knot factor formulas for the l=1 member
        # of the D series: cusps [2,2], [3], [2]
        entry = catalog("D", l=1)
        got = entry.collection().alexander_product.coeffs.values
        factors = [
            cyclotomic_quotient([1, 4, 10], [2, 4, 5]),
            cyclotomic_quotient([1, 12], [3, 4]),
            cyclotomic_quotient([1, 6], [2, 3]),
        ]
        from conftest import poly_mul
        expected = [1]
        for f in factors:
            expected = poly_mul(expected, f)
        assert list(got) == expected


class TestQCoefficients:
    def test_three_simple_cusps(self):
        assert q_coefficients(collection(*QUARTIC)).values == (3, 0, 3, -1, 1)

    def test_single_simple_cusp(self):
        assert q_coefficients(collection("[2]")).values == (1,)

    def test_endpoints(self, rng):
        for _ in range(20):
            c = random_collection(rng)
            q = q_coefficients(c)
            d = c.delta
            assert q[0] == d and q[2 * d - 2] == 1
            assert q.degree == 2 * d - 2 or (d == 1 and q.degree == 0)

    def test_symmetry(self, rng):
        # q_{2*delta-2-j} = q_j + j + 1 - delta
        for _ in range(20):
            c = random_collection(rng)
            q = q_coefficients(c)
            d = c.delta
            for j in range(2 * d - 1):
                assert q[2 * d - 2 - j] == q[j] + j + 1 - d


class TestFSequence:
    def test_golden_rows(self):
        assert list(f_sequence(collection(*QUARTIC)).window(4)) == QUARTIC_F
        assert list(f_sequence(collection(*QUINTIC)).window(10)) == QUINTIC_F
        assert list(f_sequence(collection(*GHOST)).window(10)) == GHOST_QUINTIC_F
        f = f_sequence(collection(*OCTIC))
        assert [f[k] for k in (0, 8, 16, 24, 32, 40)] == OCTIC_F
        assert list(f_sequence(collection("[2_2]", "[2_2]", "[2_2]")).window(10)) == SPORADIC3_F
        assert list(f_sequence(collection("[2_3]", "[2]", "[2]", "[2]")).window(10)) == SPORADIC4_F

    def test_single_cusp_equals_counting(self, rng):
        for _ in range(20):
            s = semigroup_from_multseq(random_admissible(rng))
            c = CuspCollection((s,))
            f = f_sequence(c, window=2 * s.delta + 6)
            h = counting_fn(s)
            assert all(f[k] == h(k + 1) for k in range(2 * s.delta + 7))

    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def test_equals_reversed_q(self, rng, data):
        # F read from q, linear tail included, against the sequence-calculus route
        c = random_collection(rng)
        window = data.draw(st.integers(-1, 2 * c.delta + 6))
        assert f_sequence(c, window) == reference_f_sequence(c, window)
        assert f_sequence(c) == reference_f_sequence(c)


    @given(cusps=st.lists(admissible_semigroups, min_size=1, max_size=3))
    def test_pointwise_f_meets_the_reference(self, cusps):
        # c.f, the oracle of the Spin^c pointwise test, against the
        # sequence-calculus route, below 0 and past the linear tail's start
        c = CuspCollection(tuple(cusps))
        n = 2 * c.delta + 3
        ref = reference_f_sequence(c, n)
        assert [c.f(j) for j in range(-3, n + 1)] == [ref[j] for j in range(-3, n + 1)]

    @given(cusps=st.lists(admissible_semigroups, min_size=1, max_size=3))
    def test_f_is_q_reversed_on_the_window(self, cusps):
        # Delta is palindromic for plane branches, so F(j) = q_j + j + 1 - delta
        # is also q_{2delta-2-j} on [0, 2delta-2]
        c = CuspCollection(tuple(cusps))
        top = 2 * c.delta - 2
        assert [c.f(j) for j in range(top + 1)] == [c.q[top - j] for j in range(top + 1)]
        assert f_sequence(c).window(top) == c.q.window(top)[::-1]


class TestHFunction:
    def test_golden_rows(self):
        h = h_function(collection(*QUARTIC))
        assert [h(k + 1) for k in range(5)] == QUARTIC_H
        assert h(3) == 2
        h = h_function(collection(*QUINTIC))
        assert [h(k + 1) for k in range(11)] == QUINTIC_H
        h = h_function(collection(*OCTIC))
        assert [h(k + 1) for k in (0, 8, 16, 24, 32, 40)] == OCTIC_H
        assert h(9) == 3
        h = h_function(collection("[2_2]", "[2_2]", "[2_2]"))
        assert [h(k + 1) for k in range(11)] == SPORADIC_H

    def test_two_cusp_dominance(self, rng):
        # F(k) <= H(k+1) for every two-cusp collection
        for _ in range(40):
            c = CuspCollection((
                semigroup_from_multseq(random_admissible(rng, 3, 5)),
                semigroup_from_multseq(random_admissible(rng, 3, 5)),
            ))
            h = h_function(c)
            f = f_sequence(c)
            assert all(f[k] <= h(k + 1) for k in range(2 * c.delta - 1))

    def test_three_cusp_failure_example(self):
        # the simplest collection where F(k) <= H(k+1) fails (at k = 2)
        c = collection(*QUARTIC)
        f = f_sequence(c)
        h = h_function(c)
        assert f[2] == 3 > h(3) == 2


class TestRPoly:
    def test_quartic_vanishes(self):
        assert r_poly(collection(*QUARTIC), 4).coeffs.values == ()

    def test_octic_positive_coefficients(self):
        r = r_poly(collection(*OCTIC), 8)
        # the j = 1 and j = 4 comparisons fail, giving positive coefficients
        # at exponents (d-3-j)*d = 32 and 8
        assert r.coeffs[32] == 1 and r.coeffs[8] == 1
        assert {j: v for j, v in enumerate(r.coeffs.values) if v} == \
            {8: 1, 16: -1, 24: -1, 32: 1}
        assert sum(r.coeffs.values) == 0

    def test_degree_validation(self):
        with pytest.raises(ValueError, match="^degree 2 < 3$"):
            r_poly(collection(*QUARTIC), 2)

    def test_series_route_agrees(self):
        for entry in catalog_entries(9):
            c = entry.collection()
            assert r_poly(c, entry.d).coeffs.values == r_poly_series(c, entry.d).coeffs.values

    def test_palindromic_for_candidates(self):
        # R(t) = t^(d(d-3)) R(1/t) whenever 2*delta - 2 = d(d-3)
        for entry in catalog_entries(9):
            c = entry.collection()
            d = entry.d
            r = r_poly(c, d)
            top = d * (d - 3)
            assert all(r.coeffs[e] == r.coeffs[top - e]
                       for e in range(top + 1)), entry.label

    @settings(max_examples=30)
    @given(cusps=st.lists(admissible_semigroups, min_size=1, max_size=2))
    def test_reader_is_r_poly(self, cusps):
        # the d - 2 terms that r_poly places and the CLI prints, against
        # r_poly's nonzero coefficients and q read off the reference F
        c = CuspCollection(tuple(cusps))
        top = 2 * c.delta + 3
        ref = reference_f_sequence(c, top * (top - 3))
        for d in range(3, top + 1):
            terms = invariants._r_terms(c, d)
            assert terms == [(e, ref[e] - e - 1 + c.delta - (j + 1) * (j + 2) // 2)
                             for j, e in enumerate(range((d - 3) * d, -1, -d))]
            assert {e: v for e, v in terms if v} == \
                {e: v for e, v in enumerate(r_poly(c, d).coeffs.values) if v}

    def test_series_route_needs_candidate(self):
        with pytest.raises(NotCandidateError):
            r_poly_series(collection("[2]"), 5)

    def test_series_route_from_degree_three(self):
        c = collection("[2]")
        assert r_poly_series(c, 3) == r_poly(c, 3)
        with pytest.raises(ValueError, match="^degree 2 < 3$"):
            r_poly_series(c, 2)

    def test_series_tail_checked(self):
        # one more t^4 in the quartic's Delta changes the series from t^4 on:
        # R's top coefficient, at t^(d(d-3)) = t^4, and the tail, which no
        # longer cancels at t^(d(d-3) + d) = t^8
        c = collection(*QUARTIC)
        co = list(c.alexander_product.coeffs.values)
        co[4] += 1
        c.__dict__["alexander_product"] = invariants.IntPoly(IntSeq(co))
        with pytest.raises(ArithmeticError, match="at degree 8$"):
            r_poly_series(c, 4)


class TestEu:
    def test_octic_canonical(self):
        c = collection(*OCTIC)
        rep = spinc_report(c, 8, 0)
        assert rep.eu_h0 == 56 == geometric_genus(8)
        assert rep.eu_hstar == 56
        assert eu_canonical(c, 8) == (56, 56)

    def test_quartic_spinc_two(self):
        c = collection(*QUARTIC)
        rep = spinc_report(c, 4, 2)
        assert rep.eu_h0 == 2
        assert rep.eu_hstar == 3

    def test_octic_spinc_four(self):
        # reflected labeling maps index 4 to (-4) mod 8 = 4, so the published
        # values sit at a = 4 in the direct convention as well
        c = collection(*OCTIC)
        rep = spinc_report(c, 8, 4)
        assert rep.eu_h0 == 42
        assert rep.eu_hstar == 45

    def test_spinc_report_terms(self):
        rep = spinc_report(collection(*QUARTIC), 4, 2)
        assert rep.eu_h0 == 2 and rep.eu_hstar == 3
        assert rep.terms == ((2, 2, 3),)
        assert rep.eu_h0 - rep.eu_hstar == sum(t[1] - t[2] for t in rep.terms)

    def test_sporadic_differences(self):
        e0, es = eu_canonical(collection("[2_2]", "[2_2]", "[2_2]"), 5)
        assert e0 - es == 6
        e0, es = eu_canonical(collection("[2_3]", "[2]", "[2]", "[2]"), 5)
        assert e0 - es == 8

    def test_canonical_equals_spinc_zero(self, rng):
        for _ in range(10):
            c = random_collection(rng, max_nu=3)
            from cuspidal import candidate_degree
            d = candidate_degree(c)
            if d is None:
                continue
            rep = spinc_report(c, d, 0)
            assert eu_canonical(c, d) == (rep.eu_h0, rep.eu_hstar)

    def test_canonical_refuses_non_candidate(self):
        with pytest.raises(NotCandidateError):
            eu_canonical(collection("[2]"), 4)

    def test_candidate_from_degree_three(self):
        # [2] is the cuspidal cubic: 2*delta = 2 = (3-1)(3-2)
        c = collection("[2]")
        assert invariants.is_candidate(c, 3)
        invariants.require_candidate(c, 3, "")
        with pytest.raises(NotCandidateError, match=r"^degree 2 < 3$"):
            invariants.require_candidate(c, 2, "!")
        with pytest.raises(NotCandidateError) as info:
            invariants.require_candidate(c, 4, "; x")
        assert str(info.value) == "not a candidate: 2*delta = 2 != (d-1)(d-2) = 6; x"

    def test_degree_below_three_is_no_candidate(self):
        # (0-1)(0-2) = 2 = 2*delta of [2], so degree 0 passed as a candidate
        c = collection("[2]")
        assert not any(invariants.is_candidate(c, d) for d in range(3))
        with pytest.raises(NotCandidateError, match=r"^degree 0 < 3$"):
            eu_canonical(c, 0)

    def test_r_at_one_is_eu_difference(self):
        for entry in catalog_entries(8):
            c = entry.collection()
            e0, es = eu_canonical(c, entry.d)
            assert sum(r_poly(c, entry.d).coeffs.values) == es - e0

    def test_spinc_partition(self, rng):
        # summing over all Spin^c indices recovers the full j-sum
        for _ in range(10):
            c = random_collection(rng, max_nu=3)
            dl = c.delta
            h = h_function(c)
            f = f_sequence(c)
            for d in (1, 2, 5):
                reps = [spinc_report(c, d, a) for a in range(d)]
                assert sum(rep.eu_h0 for rep in reps) == \
                    sum(h(j + 1) + dl - 1 - j for j in range(2 * dl - 1))
                assert sum(rep.eu_hstar for rep in reps) == \
                    sum(f[j] + dl - 1 - j for j in range(2 * dl - 1))

    def test_spinc_report_terms_are_the_pointwise_sums(self, rng):
        # terms against their definition, one H and one F value per index j
        for _ in range(10):
            c = random_collection(rng, max_nu=3)
            dl = c.delta
            for d in (1, 2, 3, 7, 2 * dl, 2 * dl + 3):
                for a in range(min(d, 2 * dl + 1)):
                    rep = spinc_report(c, d, a)
                    assert rep.terms == tuple(
                        (j, c.h(j + 1) + dl - 1 - j, c.f(j) + dl - 1 - j)
                        for j in range(a, 2 * dl - 1, d)), (d, a)
                    assert rep.eu_h0 == sum(t[1] for t in rep.terms)
                    assert rep.eu_hstar == sum(t[2] for t in rep.terms)

    def test_index_validation(self):
        c = collection("[2]")
        with pytest.raises(ValueError):
            spinc_report(c, 4, 4)
        with pytest.raises(ValueError):
            spinc_report(c, 4, -1)


@pytest.mark.parametrize("q", [(), (1,), (3, 0, 3, -1, 1), (-2, 5, 0, 0, 7)])
def test_division_by_t_minus_1(q):
    # co = (t - 1) q divides back to q; any other last coefficient is inexact
    co = [0, *q]
    for i, x in enumerate(q):
        co[i] -= x
    assert invariants._divide_by_t_minus_1(co) == list(q)
    for bad in (co[:-1], [*co[:-1], co[-1] + 1], [*co[:-1], co[-1] - 1]):
        if bad:
            with pytest.raises(ArithmeticError, match="inexact division by t - 1"):
                invariants._divide_by_t_minus_1(bad)
    with pytest.raises(ArithmeticError, match="inexact division by t - 1"):
        invariants._divide_by_t_minus_1([])


@pytest.mark.parametrize("cusps", [("[2]",), ("[2]", "[2]"), ("[3]", "[2_2]", "[2]"),
                                   ("[4,2]", "[3]")])
def test_f_sequence_is_the_pointwise_row(cusps):
    # [2] has delta = 1: F is the one value q_0 on [0, 0], then the tail
    c = collection(*cusps)
    top = 2 * c.delta - 2
    for window in (None, *range(-3, top + 5)):
        n = top if window is None else window
        assert f_sequence(c, window) == IntSeq(tuple(c.f(j) for j in range(n + 1)))
