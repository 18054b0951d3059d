"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run as ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
All comparisons are exact integer equality; the stated time budgets are
asserted where a criterion carries one.
"""

import itertools
import random
import time
from contextlib import contextmanager

from conftest import (
    C_SERIES_ROWS,
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
    collection,
    random_admissible,
)
from cuspidal import (
    CuspCollection,
    MultSeq,
    NewtonPairs,
    catalog,
    catalog_entries,
    check_bl,
    check_conj_index,
    check_conj_original,
    counting_fn,
    eu_canonical,
    expected_eu_difference,
    f_sequence,
    geometric_genus,
    h_function,
    min_convolve,
    min_w_over_diagonal,
    multseq_from_semigroup,
    multiplicity_multiset,
    oracle_eu,
    r_poly,
    r_poly_series,
    regroupings,
    semigroup_from_generators,
    semigroup_from_multseq,
    semigroup_from_newton_pairs,
    spinc_report,
)


@contextmanager
def criterion(num, name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({name}): FAIL")
        raise
    print(f"criterion {num:2d} ({name}): PASS  [{time.time() - start:.1f}s]")


def test_criterion_1_golden_tables():
    with criterion(1, "golden tables"):
        budget = 1.0

        def timed_rows(lits, window):
            t0 = time.time()
            c = collection(*lits)
            h = h_function(c)
            f = f_sequence(c, window=window)
            rows = ([h(k + 1) for k in range(window + 1)],
                    [f[k] for k in range(window + 1)])
            assert time.time() - t0 < budget
            return rows

        h, f = timed_rows(("[2]", "[2]", "[2]"), 4)
        assert h == QUARTIC_H and f == QUARTIC_F

        h, f = timed_rows(("[3]", "[2_2]", "[2]"), 10)
        assert h == QUINTIC_H and f == QUINTIC_F

        h, f = timed_rows(("[6]", "[2_4]", "[2_2]"), 40)
        assert [h[k] for k in range(0, 41, 8)] == OCTIC_H == [1, 3, 6, 10, 15, 21]
        assert [f[k] for k in range(0, 41, 8)] == OCTIC_F == [1, 4, 5, 9, 16, 21]

        h, f = timed_rows(("[3,2]", "[2]", "[2]"), 10)
        assert f == GHOST_QUINTIC_F == [1, -1, 2, 1, 0, 4, 1, 3, 5, 3, 6]

        h, f = timed_rows(("[2_2]", "[2_2]", "[2_2]"), 10)
        assert h == SPORADIC_H and f == SPORADIC3_F
        t0 = time.time()
        assert eu_canonical(collection("[2_2]", "[2_2]", "[2_2]"), 5) == (10, 4)  # diff 6
        assert time.time() - t0 < budget

        h, f = timed_rows(("[2_3]", "[2]", "[2]", "[2]"), 10)
        assert h == SPORADIC_H and f == SPORADIC4_F
        e0, es = eu_canonical(collection("[2_3]", "[2]", "[2]", "[2]"), 5)
        assert e0 - es == 8

        for label, (d, u, hf_row, diff) in C_SERIES_ROWS.items():
            t0 = time.time()
            c = catalog("C", d=d, u=u).collection()
            h_fn = h_function(c)
            f_seq = f_sequence(c)
            assert [h_fn(j * d + 1) - f_seq[j * d] for j in range(d - 2)] == hf_row, label
            e0, es = eu_canonical(c, d)
            assert e0 - es == diff, label
            assert time.time() - t0 < budget


def test_criterion_2_counterexample_verdicts():
    with criterion(2, "counterexample verdicts"):
        c = collection("[6]", "[2_4]", "[2_2]")
        assert check_bl(c, 8).passed
        conj = check_conj_original(c, 8)
        assert not conj.passed
        assert [r.j for r in conj.rows if not r.ok] == [1, 4]
        index = check_conj_index(c, 8)
        assert index.passed and index.difference == 0


def test_criterion_3_canonical_eu_law():
    with criterion(3, "canonical eu law, catalog d <= 13"):
        t0 = time.time()
        count = 0
        for entry in catalog_entries(13):
            c = entry.collection()
            e0, _ = eu_canonical(c, entry.d)
            assert e0 == geometric_genus(entry.d), entry.label
            count += 1
        assert count >= 60
        assert time.time() - t0 < 5.0


def test_criterion_4_closed_form_differences():
    with criterion(4, "closed-form eu differences"):
        for d in range(4, 13):
            for u in range(1, d - 2):
                entry = catalog("C", d=d, u=u)
                e0, es = eu_canonical(entry.collection(), d)
                assert e0 - es == expected_eu_difference(entry), entry.label
        for l in range(1, 5):
            entry = catalog("D", l=l)
            e0, es = eu_canonical(entry.collection(), entry.d)
            assert e0 - es == expected_eu_difference(entry), entry.label
        for l in range(1, 4):
            entry = catalog("E", l=l)
            e0, es = eu_canonical(entry.collection(), entry.d)
            assert e0 - es == expected_eu_difference(entry), entry.label


def test_criterion_5_spinc_values():
    with criterion(5, "per-Spin^c values with the reflected-index bridge"):
        octic = collection("[6]", "[2_4]", "[2_2]")
        a = (-4) % 8  # published values use the reflected labeling
        assert (spinc_report(octic, 8, a).eu_h0, spinc_report(octic, 8, a).eu_hstar) == (42, 45)
        quartic = collection("[2]", "[2]", "[2]")
        a = (-2) % 4
        assert (spinc_report(quartic, 4, a).eu_h0,
                spinc_report(quartic, 4, a).eu_hstar) == (2, 3)


def test_criterion_6_conversion_table():
    with criterion(6, "Newton-pair conversions and round trips"):
        def multseq_of(pairs):
            return multseq_from_semigroup(
                semigroup_from_newton_pairs(NewtonPairs(pairs))).entries

        for d in range(4, 13):
            assert multseq_of(((d - 2, d - 1),)) == (d - 2,)
        for u in range(1, 10):
            assert multseq_of(((2, 2 * u + 1),)) == (2,) * u
        for l in range(1, 5):
            assert multseq_of(((3, 3 * l + 1),)) == (3,) * l
            assert multseq_of(((2, 2 * l + 1), (2, 1))) == (4,) * l + (2, 2)
        for l in range(2, 5):
            assert multseq_of(((l, l + 1), (2, 1))) == (2 * l,) + (2,) * l
            assert multseq_of(((l, l + 1), (3, 1))) == (3 * l,) + (3,) * l

        rng = random.Random(0xAC_06)
        for _ in range(500):
            ms = random_admissible(rng)
            assert multseq_from_semigroup(semigroup_from_multseq(ms)) == ms


def test_criterion_7_multiset_stability():
    with criterion(7, "multiset stability and the blowup convolution identity"):
        t0 = time.time()
        rng = random.Random(0xAC_07)
        for _ in range(200):
            n = rng.randint(1, 7)
            items = sorted((rng.randint(2, 6) for _ in range(n)), reverse=True)
            groups = regroupings(items)
            assert not groups.truncated
            colls = groups.cusp_collections()
            assert colls
            window = 2 * sum(v * (v - 1) // 2 for v in items)
            base = h_function(colls[0]).values(0, window)
            for coll in colls[1:]:
                assert h_function(coll).values(0, window) == base, items

        for _ in range(200):
            ms = random_admissible(rng)
            s = semigroup_from_multseq(ms)
            lhs = counting_fn(s)
            m = ms.entries[0]
            rhs = counting_fn(semigroup_from_generators([m, m + 1]))
            if len(ms.entries) > 1:
                rhs = min_convolve(
                    rhs, counting_fn(semigroup_from_multseq(MultSeq(ms.entries[1:]))))
            w = 2 * s.delta
            assert lhs.values(0, w) == rhs.values(0, w), ms
        assert time.time() - t0 < 30.0


def test_criterion_8_two_cusp_theorems():
    with criterion(8, "two-cusp dominance and one-cusp equality"):
        rng = random.Random(0xAC_08)
        for _ in range(200):
            c = CuspCollection((
                semigroup_from_multseq(random_admissible(rng, 3, 6)),
                semigroup_from_multseq(random_admissible(rng, 3, 6)),
            ))
            h = h_function(c)
            f = f_sequence(c)
            assert all(f[k] <= h(k + 1) for k in range(2 * c.delta - 1)), c.multseqs
        for _ in range(60):
            c = CuspCollection((semigroup_from_multseq(random_admissible(rng)),))
            h = h_function(c)
            f = f_sequence(c, window=2 * c.delta)
            assert all(f[k] == h(k + 1) for k in range(2 * c.delta + 1)), c.multseqs


def test_criterion_9_cubical_oracle():
    with criterion(9, "cubical oracle agreement"):
        t0 = time.time()
        base = {k: collection(k).cusps[0] for k in ("[2]", "[2_2]", "[3]", "[3,2]")}
        checked = 0
        for nu in (1, 2, 3):
            for combo in itertools.combinations_with_replacement(sorted(base), nu):
                c = CuspCollection(tuple(base[k] for k in combo))
                size = 1
                for dl in c.deltas:
                    size *= 2 * dl + 2
                if size > 5000:
                    continue
                dl = c.delta
                h = h_function(c)
                f = f_sequence(c)
                for j in range(2 * dl - 1):
                    results = set()
                    for margin in (0, 1, 2):
                        o = oracle_eu(c, j, box_margin=margin)
                        assert o.eu_h0 == h(j + 1) + dl - 1 - j, (combo, margin, j)
                        assert o.eu_hstar == f[j] + dl - 1 - j, (combo, margin, j)
                        assert all(all(b == 0 for b in row[c.nu:])
                                   for row in o.table.rows), (combo, margin, j)
                        minw = min_w_over_diagonal(c, j, box_margin=margin)
                        assert minw == dl - j - 1 + h(j + 1), (combo, margin, j)
                        results.add((o.eu_h0, o.eu_hstar, minw))
                    assert len(results) == 1, (combo, j)
                    checked += 1
        assert checked >= 350
        assert time.time() - t0 < 300.0


def test_criterion_10_r_multisection():
    with criterion(10, "R multisection cross-check"):
        count = 0
        for entry in catalog_entries(9):
            c = entry.collection()
            direct = r_poly(c, entry.d)
            series = r_poly_series(c, entry.d)
            assert direct.coeffs == series.coeffs, entry.label
            count += 1
        assert count >= 20
