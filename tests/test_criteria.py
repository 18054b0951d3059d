from collections import Counter
from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import C_SERIES_ROWS, census, collection, random_admissible, reference_regroupings
from cuspidal import (
    ALL_CRITERIA,
    CatalogEntry,
    CriterionRow,
    CuspCollection,
    MultSeq,
    candidate_degree,
    catalog,
    catalog_entries,
    check_bezout,
    check_bl,
    check_conj_index,
    check_conj_original,
    counting_fn,
    eu_canonical,
    expected_eu_difference,
    f_sequence,
    h_function,
    min_convolve_all,
    multiplicity_multiset,
    r_poly,
    r_poly_series,
    regroupings,
    criteria,
    semigroup,
    semigroup_from_generators,
    semigroup_from_multseq,
    spinc_report,
)

OCTIC = ("[6]", "[2_4]", "[2_2]")


def entries(groups):
    return [tuple(ms.entries for ms in parts) for parts in groups.collections]


def multiset_h(items):
    """H of the multiset: the min-plus product of the H of <m, m+1> over its entries."""
    return min_convolve_all(counting_fn(semigroup_from_generators([m, m + 1]))
                            for m in items)


class TestCandidateDegree:
    def test_examples(self):
        assert candidate_degree(collection(*OCTIC)) == 8
        assert candidate_degree(collection("[2]", "[2]", "[2]")) == 4
        assert candidate_degree(collection("[2_2]")) is None  # delta = 2
        assert candidate_degree(collection("[2]")) == 3


def test_candidate_degree_at_least_three():
    c = collection("[2]")
    assert check_bezout(c, 3).passed
    with pytest.raises(ValueError, match="degree 2 < 3"):
        check_bezout(c, 2)


def test_catalog_entry_checks_its_delta():
    with pytest.raises(AssertionError, match=r"bad: 2\*delta = 2 != \(d-1\)\(d-2\)"):
        CatalogEntry("C", "bad", 5, (), (MultSeq((2,)),), ())


class TestBezout:
    def test_quintic_values(self):
        rep = check_bezout(collection("[3]", "[2_2]", "[2]"), 5)
        assert rep.passed
        assert [(r.lhs, r.rhs) for r in rep.rows] == [(1, 1), (3, 3), (6, 6)]

    def test_ghost_quintic(self):
        rep = check_bezout(collection("[3,2]", "[2]", "[2]"), 5)
        assert rep.passed
        assert [r.lhs for r in rep.rows] == [1, 3, 6]

    def test_octic(self):
        rep = check_bezout(collection(*OCTIC), 8)
        assert rep.passed
        assert [r.lhs for r in rep.rows] == [1, 3, 6, 10, 15, 21]


class TestBl:
    def test_catalog_passes(self):
        for entry in catalog_entries(12):
            assert check_bl(entry.collection(), entry.d).passed, entry.label

    def test_ghost_quintic_not_excluded(self):
        assert check_bl(collection("[3,2]", "[2]", "[2]"), 5).passed

    def test_broken_collection_fails_under_force(self):
        # a non-candidate is computed, as `check --force` asks
        rep = check_bl(collection("[2]"), 4)
        assert not rep.passed

    def test_aggregate_matches_canonical_eu(self):
        for entry in catalog_entries(9):
            c = entry.collection()
            rep = check_bl(c, entry.d)
            expected = eu_canonical(c, entry.d)[0] == entry.d * (entry.d - 1) * (entry.d - 2) // 6
            assert rep.passed == expected


class TestConjOriginal:
    def test_octic_fails_at_one_and_four(self):
        rep = check_conj_original(collection(*OCTIC), 8)
        assert not rep.passed
        assert [r.j for r in rep.rows if not r.ok] == [1, 4]
        assert rep.rows[1].lhs == 4 and rep.rows[1].rhs == 3
        assert rep.rows[4].lhs == 16 and rep.rows[4].rhs == 15

    def test_quintic_passes(self):
        rep = check_conj_original(collection("[3]", "[2_2]", "[2]"), 5)
        assert rep.passed
        assert [(r.lhs, r.rhs) for r in rep.rows] == [(1, 1), (1, 3), (6, 6)]

    def test_c82_failure_pattern(self):
        entry = catalog("C", d=8, u=2)
        rep = check_conj_original(entry.collection(), 8)
        h = h_function(entry.collection())
        diffs = [h(r.j * 8 + 1) - r.lhs for r in rep.rows]
        assert diffs == [0, -1, 1, 1, -1, 0]
        assert [r.j for r in rep.rows if not r.ok] == [1, 4]


class TestConjIndex:
    def test_octic_equality(self):
        rep = check_conj_index(collection(*OCTIC), 8)
        assert rep.passed and rep.difference == 0
        # one row at j = 0: sum_j F(jd) against sum_j H(jd+1) = 1 + 3 + ... + 21
        assert rep.rows == (CriterionRow(0, 56, 56, True),)

    def test_ghost_quintic_fails(self):
        rep = check_conj_index(collection("[3,2]", "[2]", "[2]"), 5)
        assert not rep.passed
        assert rep.difference < 0

    def test_sporadic_four_cusp(self):
        rep = check_conj_index(collection("[2_3]", "[2]", "[2]", "[2]"), 5)
        assert rep.passed and rep.difference == 8


# d: (candidates, all four pass, then bezout, bl, conj_original, conj_index pass)
CENSUS_COUNTS = {
    3: (1, 1, 1, 1, 1, 1),
    4: (4, 4, 4, 4, 4, 4),
    5: (19, 16, 17, 17, 18, 18),
    6: (110, 35, 106, 64, 39, 45),
    7: (772, 91, 740, 215, 205, 565),
}


def verdicts(c, d):
    return {name: criteria.run_criterion(name, c, d).passed for name in ALL_CRITERIA}


class TestCensus:
    """The four criteria on every candidate up to degree 7 (906 of them)."""

    def test_counts_and_implications(self):
        for d, counts in CENSUS_COUNTS.items():
            found = Counter()
            for parts in census(d):
                c = CuspCollection(parts)
                v = verdicts(c, d)
                found.update(name for name in v if v[name])
                found["candidates"] += 1
                found["all"] += all(v.values())
                # equality implies the bound
                assert v["bezout"] or not v["bl"], parts
                # with at most two cusps the original conjecture follows from bl
                assert v["conj_original"] or not (c.nu <= 2 and v["bl"]), parts
                # sum_j F(jd) <= sum_j (j+1)(j+2)/2 <= sum_j H(jd+1)
                assert v["conj_index"] or not (v["bezout"] and v["conj_original"]), parts
            assert tuple(found[k] for k in ("candidates", "all", *ALL_CRITERIA)) == counts, d

    def test_holds_the_catalog(self):
        def bag(cusps):
            return tuple(sorted(ms.entries for ms in cusps))

        for d in CENSUS_COUNTS:
            bags = set(map(bag, census(d)))
            for entry in catalog_entries(d):
                if entry.d == d:
                    assert bag(entry.cusps) in bags, entry.label

    def test_r_identities(self):
        # R by both routes, palindromic in degree d(d-3); R(1) = eu_hstar -
        # eu_h0 needs sum_j H(jd+1) = sum_j (j+1)(j+2)/2, i.e. bl
        at_one = Counter()
        for d in CENSUS_COUNTS:
            for parts in census(d):
                c = CuspCollection(parts)
                r = r_poly(c, d)
                assert r == r_poly_series(c, d), parts
                co = r.coeffs.window(d * (d - 3))
                assert co == co[::-1], parts
                e0, es = eu_canonical(c, d)
                at_one[check_bl(c, d).passed, sum(r.coeffs.values) == es - e0] += 1
        assert at_one == {(True, True): 301, (False, False): 605}

    @pytest.mark.parametrize("literals", [("[2]", "[2_2]", "[6,3]"), ("[2]", "[3]", "[6,2_2]"),
                                          ("[2_2]", "[4,2_3]", "[5]")])
    def test_weak_conjecture_needs_bezout(self, literals):
        # octics that pass conj_original and fail conj_index: all fail bezout
        v = verdicts(collection(*literals), 8)
        assert v["conj_original"] and not v["conj_index"] and not v["bezout"]


class TestMultiset:
    def test_examples(self):
        assert multiplicity_multiset(collection("[3]", "[2_3]")) == Counter({2: 3, 3: 1})
        assert multiplicity_multiset(collection("[3,2]", "[2_2]")) == Counter({2: 3, 3: 1})
        assert multiplicity_multiset(collection("[2]")) == Counter({2: 1})
        assert multiplicity_multiset(collection(*OCTIC)) == Counter({6: 1, 2: 6})


class TestRegroupings:
    def test_memo_caches_stay_bounded(self):
        # distinct multisets until the chain cache has missed more keys than
        # it holds: it then stays at or below its bound
        cache = semigroup._semigroup_from_entries
        cache.cache_clear()
        multisets = (ms for n in range(3, 9)
                     for ms in combinations_with_replacement(range(2, 12), n))
        while cache.cache_info().misses <= cache.cache_info().maxsize:
            for parts in regroupings(next(multisets), cap=50).collections:
                CuspCollection(parts)
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_degree5_multiset(self):
        groups = regroupings(Counter({3: 1, 2: 3}))
        lits = {tuple(ms.literal() for ms in parts) for parts in groups.collections}
        assert lits == {
            ("[3]", "[2]", "[2]", "[2]"),
            ("[3,2]", "[2]", "[2]"),
            ("[3]", "[2_2]", "[2]"),
            ("[3]", "[2_3]"),
            ("[3,2]", "[2_2]"),
        }
        assert not groups.truncated

    def test_single_entry(self):
        groups = regroupings([2])
        assert [tuple(ms.literal() for ms in parts) for parts in groups.collections] \
            == [("[2]",)]

    def test_inadmissible_part_pruned(self):
        groups = regroupings([6, 2])
        assert [tuple(ms.literal() for ms in parts) for parts in groups.collections] \
            == [("[6]", "[2]")]

    def test_one_multseq_per_distinct_part(self):
        # rows share the MultSeq of a part instead of rebuilding it
        groups = regroupings([2] * 8)
        parts = [ms for row in groups.collections for ms in row]
        shared = {}
        assert all(shared.setdefault(ms.entries, ms) is ms for ms in parts)
        assert len(parts) == 86 and len(shared) == 8

    def test_max_parts(self):
        groups = regroupings(Counter({3: 1, 2: 3}), max_parts=2)
        assert all(len(parts) <= 2 for parts in groups.collections)
        assert len(groups.collections) == 2

    @given(items=st.lists(st.integers(2, 8), min_size=1, max_size=9),
           max_parts=st.none() | st.integers(1, 4),
           cap=st.integers(1, 12) | st.just(10_000))
    def test_walk_matches_reference(self, items, max_parts, cap):
        # below the cap every admissible regrouping, in the reference's order;
        # above it the reference's first cap rows, and truncated set
        expected = reference_regroupings(items, max_parts)
        groups = regroupings(items, max_parts=max_parts, cap=cap)
        assert entries(groups) == expected[:cap]
        assert groups.truncated == (len(expected) > cap)

    def test_ten_distinct_entries_all_kept(self):
        # 115,975 partitions, of which 407 are admissible: the cap counts kept rows
        groups = regroupings(range(2, 12))
        assert len(groups.collections) == 407
        assert not groups.truncated

    def test_cap_keeps_first_rows(self):
        groups = regroupings([2] * 30, cap=100)
        assert entries(groups) == reference_regroupings([2] * 30)[:100]
        assert groups.truncated


class TestCatalog:
    def test_entries(self):
        entry = catalog("C", d=8, u=2)
        assert [ms.literal() for ms in entry.cusps] == ["[6]", "[2_4]", "[2_2]"]
        assert entry.d == 8
        entry = catalog("D", l=1)
        assert [ms.literal() for ms in entry.cusps] == ["[2_2]", "[3]", "[2]"]
        assert entry.d == 5
        assert entry.newton[0].pairs == ((2, 5),)  # degenerate one-pair form
        entry = catalog("sporadic4")
        assert [ms.literal() for ms in entry.cusps] == ["[2_3]", "[2]", "[2]", "[2]"]
        assert entry.d == 5
        entry = catalog("C", d=4, u=1)
        assert [ms.literal() for ms in entry.cusps] == ["[2]", "[2]", "[2]"]

    def test_newton_forms_match_multseqs(self):
        from cuspidal import multseq_from_semigroup, semigroup_from_newton_pairs
        for entry in catalog_entries(10):
            for ms, np_ in zip(entry.cusps, entry.newton):
                s = semigroup_from_newton_pairs(np_)
                assert multseq_from_semigroup(s) == ms, (entry.label, ms, np_)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            catalog("C", d=4, u=2)  # u must be <= d-3
        with pytest.raises(ValueError):
            catalog("C", d=3, u=1)
        with pytest.raises(ValueError):
            catalog("D", l=0)
        with pytest.raises(ValueError):
            catalog("Z")

    def test_symmetric_parameterizations_agree(self):
        # C(d,u) and C(d,d-2-u) carry the same cusps up to order
        for d in range(4, 10):
            for u in range(1, d - 2):
                a = catalog("C", d=d, u=u)
                b = catalog("C", d=d, u=d - 2 - u)
                assert sorted(ms.entries for ms in a.cusps) == \
                    sorted(ms.entries for ms in b.cusps)
                assert expected_eu_difference(a) == expected_eu_difference(b)


class TestExpectedEuDifference:
    def test_examples(self):
        assert expected_eu_difference(catalog("C", d=9, u=2)) == 12
        assert expected_eu_difference(catalog("D", l=1)) == 2
        assert expected_eu_difference(catalog("E", l=1)) == 10
        with pytest.raises(ValueError):
            expected_eu_difference(catalog("sporadic3"))

    def test_c_series_table(self):
        for label, (d, u, hf_row, diff) in C_SERIES_ROWS.items():
            entry = catalog("C", d=d, u=u)
            assert entry.label == label
            c = entry.collection()
            h = h_function(c)
            f = f_sequence(c)
            assert [h(j * d + 1) - f[j * d] for j in range(d - 2)] == hf_row, label
            e0, es = eu_canonical(c, d)
            assert e0 - es == diff == expected_eu_difference(entry), label

    def test_closed_forms_on_series(self):
        for entry in catalog_entries(12):
            if entry.family not in ("C", "D", "E"):
                continue
            c = entry.collection()
            e0, es = eu_canonical(c, entry.d)
            assert e0 - es == expected_eu_difference(entry), entry.label


class TestStabilityProperties:
    def test_h_stable_across_regroupings(self, rng):
        for _ in range(40):
            n = rng.randint(1, 6)
            items = sorted((rng.randint(2, 6) for _ in range(n)), reverse=True)
            groups = regroupings(items)
            colls = groups.cusp_collections()
            assert colls
            window = 2 * sum(v * (v - 1) // 2 for v in items)
            base = h_function(colls[0]).values(0, window)
            for coll in colls[1:]:
                assert h_function(coll).values(0, window) == base, items

    def test_blowup_convolution_identity(self, rng):
        from cuspidal import counting_fn, min_convolve, semigroup_from_generators
        for _ in range(40):
            ms = random_admissible(rng)
            s = semigroup_from_multseq(ms)
            lhs = counting_fn(s)
            m = ms.entries[0]
            head = counting_fn(semigroup_from_generators([m, m + 1]))
            if len(ms.entries) == 1:
                rhs = head
            else:
                from cuspidal import MultSeq
                tail = counting_fn(semigroup_from_multseq(MultSeq(ms.entries[1:])))
                rhs = min_convolve(head, tail)
            w = 2 * s.delta
            assert lhs.values(0, w) == rhs.values(0, w), ms

    @given(rng=st.randoms(use_true_random=False), n=st.integers(1, 4))
    def test_h_is_multiset_product(self, rng, n):
        # the paper's theorem at the level of H: H of the collection is the
        # min-plus product of the H of <m, m+1> over the multiplicity multiset
        c = CuspCollection(tuple(semigroup_from_multseq(random_admissible(rng))
                                 for _ in range(n)))
        window = 2 * c.delta + 5
        expected = multiset_h(multiplicity_multiset(c).elements()).values(0, window)
        assert c.h.values(0, window) == expected

    @settings(max_examples=40)
    @given(items=st.lists(st.integers(2, 6), min_size=1, max_size=8))
    def test_regroupings_h_is_multiset_product(self, items):
        window = 2 * sum(v * (v - 1) // 2 for v in items) + 5
        expected = multiset_h(items).values(0, window)
        for coll in regroupings(items).cusp_collections():
            assert coll.h.values(0, window) == expected

    @settings(max_examples=40)
    @given(items=st.lists(st.integers(2, 6), min_size=1, max_size=8),
           budget=st.integers(0, 300) | st.just(criteria._H_MEMO_CELLS))
    def test_memoised_h_is_the_fresh_fold(self, items, budget):
        # every row's H from the prefix memo, with a budget that runs out or
        # the one cusp_collections uses, against a new collection of the same
        # cusps that folds its own counting functions
        groups = regroupings(items, cap=60)
        hs = criteria._prefix_hs(groups.collections, budget)
        for parts, coll, h in zip(groups.collections, groups.cusp_collections(), hs):
            assert "h" in vars(coll)  # seeded, not folded on first use
            assert h == coll.h == CuspCollection(coll.cusps).h, parts

    @pytest.mark.parametrize("n", [16, 30])
    def test_prefix_memo_within_its_budget(self, n, monkeypatch):
        # [2_n] at the stability row cap.  Every part is some [2_k], so a
        # row's ascending prefixes take its shortest parts first, and the H
        # of a prefix has 2 * (its entries) + 1 cells.  The memo is seen
        # through the folds it saves
        rows = regroupings([2] * n, cap=50_000 // (2 * n + 1)).collections
        keys = [tuple(sorted(len(p.entries) for p in parts)) for parts in rows]
        prefixes = {key[:i] for key in keys for i in range(2, len(key))}
        full = sum(2 * sum(key) + 1 for key in prefixes)
        assert full <= criteria._H_MEMO_CELLS  # stability keeps every prefix
        folds = []
        fold = criteria.min_convolve_all
        monkeypatch.setattr(criteria, "min_convolve_all",
                            lambda fns: folds.append(1) or fold(fns))

        def count(budget):
            folds.clear()
            assert criteria._prefix_hs(rows, budget) == [multiset_h([2] * n)] * len(rows)
            return len(folds)

        # no room: every row folds each of its parts in
        assert count(0) == sum(len(key) - 1 for key in keys)
        # room for every proper prefix: each is folded once, and so is each
        # row of two parts or more
        assert count(full) == len(prefixes) + sum(len(key) > 1 for key in keys)
        # in between, a prefix is kept when first folded if it still fits,
        # and a row starts from its longest kept prefix
        for budget in (5, 33, 500, full // 2):
            kept, cells, expected = set(), 0, 0
            for key in keys:
                start = max((i for i in range(2, len(key)) if key[:i] in kept), default=1)
                expected += len(key) - start
                for i in range(start + 1, len(key)):
                    size = 2 * sum(key[:i]) + 1
                    if cells + size <= budget:
                        kept.add(key[:i])
                        cells += size
            assert count(budget) == expected, budget

    def test_bl_verdict_stable_across_regroupings(self, rng):
        for _ in range(15):
            n = rng.randint(2, 6)
            items = sorted((rng.randint(2, 5) for _ in range(n)), reverse=True)
            groups = regroupings(items)
            colls = groups.cusp_collections()
            d = candidate_degree(colls[0])
            if d is None:
                d = 4 + sum(items) % 5  # force some degree; verdicts still agree
            verdicts = {check_bl(coll, d).passed
                        for coll in colls}
            assert len(verdicts) == 1, items

    def test_eu_h0_stable_across_regroupings(self, rng):
        for _ in range(10):
            n = rng.randint(2, 5)
            items = sorted((rng.randint(2, 5) for _ in range(n)), reverse=True)
            colls = regroupings(items).cusp_collections()
            for d in (3, 5):
                for a in range(d):
                    values = {spinc_report(coll, d, a).eu_h0 for coll in colls}
                    assert len(values) == 1, (items, d, a)

    def test_eu_hstar_not_stable(self):
        # fixed regression: the two sporadic quintics share the multiset
        # {{2,2,2,2,2,2}} but have different canonical eu differences
        c3 = collection("[2_2]", "[2_2]", "[2_2]")
        c4 = collection("[2_3]", "[2]", "[2]", "[2]")
        assert multiplicity_multiset(c3) == multiplicity_multiset(c4)
        d3 = eu_canonical(c3, 5)
        d4 = eu_canonical(c4, 5)
        assert d3[0] == d4[0]  # eu_h0 agrees
        assert d3[1] != d4[1]  # eu_hstar differs
        assert d3[0] - d3[1] == 6 and d4[0] - d4[1] == 8
