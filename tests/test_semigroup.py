import time
from math import gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    brute_count,
    naive_gaps,
    newton_pairs,
    random_admissible,
    reference_apery_set,
    reference_blowup,
    reference_closure_violation,
    reference_kunz_blowup,
    reference_min_generators,
    reference_multseq_from_semigroup,
    reference_semigroup_from_entries,
    reference_unblowup,
    semigroups,
)
from cuspidal import (
    SMOOTH,
    InadmissibleSequenceError,
    MultSeq,
    NewtonPairs,
    NotPlaneBranchError,
    Semigroup,
    SemigroupError,
    apery_set,
    blowup,
    counting_fn,
    is_admissible,
    multseq_from_semigroup,
    parse_cusp,
    resolve_semigroup,
    semigroup,
    semigroup_from_generators,
    semigroup_from_multseq,
    semigroup_from_newton_pairs,
    unblowup,
)
from cuspidal.semigroup import _blowup, _semigroup_from_entries


def S(*gens):
    return semigroup_from_generators(gens)


class TestExactIntegers:
    @pytest.mark.parametrize("build", [
        lambda: MultSeq((3.7, 2)),
        lambda: MultSeq((3, 2.0)),
        lambda: NewtonPairs(((2.0, 3),)),
        lambda: NewtonPairs(((2, 3.5),)),
        lambda: Semigroup((1.0,)),
        lambda: semigroup_from_generators([2.0, 3]),
    ])
    def test_float_raises_type_error(self, build):
        # a float is refused, not truncated: [3.7, 2] is not the cusp [3,2]
        with pytest.raises(TypeError):
            build()

    def test_numpy_integers_accepted(self):
        import numpy as np

        ms = MultSeq(np.array([3, 2], dtype=np.int64))
        assert ms == MultSeq((3, 2)) and set(map(type, ms.entries)) == {int}
        pairs = NewtonPairs(np.array([[2, 3], [2, 1]], dtype=np.int64))
        assert pairs == NewtonPairs(((2, 3), (2, 1)))
        assert {type(v) for pair in pairs.pairs for v in pair} == {int}
        s = Semigroup(np.array([1], dtype=np.int64))
        assert s == S(2, 3) and type(s.gaps[0]) is int
        assert semigroup_from_generators(np.array([2, 3], dtype=np.int64)) == S(2, 3)


class TestSemigroupFromGenerators:
    def test_two_three(self):
        s = S(2, 3)
        assert s.gaps == (1,) and s.delta == 1 and s.conductor == 2

    def test_full(self):
        assert S(1) == SMOOTH
        assert SMOOTH.delta == 0 and SMOOTH.conductor == 0
        assert SMOOTH.multiplicity == 1

    def test_six_seven(self):
        # frozen from an independent closure-based enumeration
        assert S(6, 7).gaps == (1, 2, 3, 4, 5, 8, 9, 10, 11, 15, 16, 17, 22, 23, 29)
        assert S(6, 7).delta == 15

    def test_matches_naive_closure(self):
        for gens in [(2, 3), (3, 5), (6, 7), (4, 6, 13), (6, 9, 19), (5, 7, 11)]:
            assert list(semigroup_from_generators(gens).gaps) == naive_gaps(gens)

    @given(gens=st.lists(st.integers(2, 40), min_size=1, max_size=4).filter(lambda g: gcd(*g) == 1))
    def test_walk_matches_naive_closure(self, gens):
        # the round-robin walk builds the Apery set without listing elements;
        # the Frobenius number stays below (39 - 1) * 39, under the scan's 1,550
        s = semigroup_from_generators(gens)
        assert list(s.gaps) == naive_gaps(gens, bound=1600)
        assert s == Semigroup(s.gaps)

    def test_not_numerical(self):
        with pytest.raises(SemigroupError, match="not numerical"):
            S(4, 6)

    @pytest.mark.parametrize("gens", [(0, 2, 3), (-1, 2, 3), (0,)])
    def test_nonpositive_generator(self, gens):
        with pytest.raises(SemigroupError, match="generators must be positive"):
            S(*gens)

    def test_empty(self):
        with pytest.raises(SemigroupError):
            semigroup_from_generators([])

    def test_min_generators(self):
        assert S(2, 3).min_generators() == (2, 3)
        assert S(4, 6, 13, 17).min_generators() == (4, 6, 13)
        assert SMOOTH.min_generators() == (1,)

    @given(rng=st.randoms(use_true_random=False),
           gens=st.lists(st.integers(2, 30), min_size=1, max_size=5))
    def test_min_generators_match_pairwise_sums(self, rng, gens):
        s = semigroup_from_multseq(random_admissible(rng))
        assert s.min_generators() == reference_min_generators(s)
        if gcd(*gens) == 1:
            s = S(*gens)
            assert s.min_generators() == reference_min_generators(s)


class TestSemigroupType:
    def test_membership(self):
        s = S(3, 5)
        assert 0 in s and 3 in s and 8 in s and 100 in s
        assert 1 not in s and -2 not in s and 7 not in s

    def test_closure_validated(self):
        with pytest.raises(SemigroupError, match="not a semigroup"):
            Semigroup((1, 4))  # 2 + 2 = 4 would be a gap

    @given(rng=st.randoms(use_true_random=False),
           gens=st.lists(st.integers(2, 12), min_size=1, max_size=4),
           toggles=st.lists(st.integers(1, 60), max_size=3))
    def test_accepts_exactly_closed_gap_sets(self, rng, gens, toggles):
        # gap sets of generated semigroups, some with a few entries toggled
        # so that most of them are no longer closed
        gaps = set(naive_gaps(gens + [rng.choice([13, 17, 19])]))
        gaps.symmetric_difference_update(toggles)
        gaps = tuple(sorted(gaps))
        violation = reference_closure_violation(gaps)
        if violation is None:
            s = Semigroup(gaps)
            assert s.gaps == gaps
            # membership is read from the Apery set, not the gap set
            assert [k for k in range(-3, s.conductor + 40) if k not in s] == [-3, -2, -1, *gaps]
        else:
            with pytest.raises(SemigroupError) as exc:
                Semigroup(gaps)
            s, t, u = violation
            assert str(exc.value) == f"not a semigroup: {s} + {t} = {u} is a gap"

    @given(ks=st.lists(st.integers(1, 4), min_size=1, max_size=5))
    def test_layers_closed_under_m_are_decided_by_kunz(self, ks):
        # residue r of m = len(ks) + 1 holds the gaps r, r + m, ..., below
        # r + k*m: the gap set is closed under -m, so only the Kunz
        # inequalities can refuse it
        m = len(ks) + 1
        gaps = tuple(sorted(g for r, k in enumerate(ks, 1) for g in range(r, r + k * m, m)))
        violation = reference_closure_violation(gaps)
        if violation is None:
            assert Semigroup(gaps).multiplicity == m
        else:
            with pytest.raises(SemigroupError) as exc:
                Semigroup(gaps)
            s, t, u = violation
            assert str(exc.value) == f"not a semigroup: {s} + {t} = {u} is a gap"

    def test_gap_order_validated(self):
        with pytest.raises(SemigroupError):
            Semigroup((3, 1))
        with pytest.raises(SemigroupError):
            Semigroup((0, 1))


class TestAperySet:
    def test_examples(self):
        assert apery_set(S(2, 3), 2) == (0, 3)
        assert apery_set(S(3, 5), 3) == (0, 5, 10)
        assert apery_set(SMOOTH, 1) == (0,)

    def test_modulus_not_in_semigroup(self):
        for m in (1, 0, -3):
            with pytest.raises(SemigroupError, match=f"^modulus {m} not in semigroup$"):
                apery_set(S(2, 3), m)

    def test_reconstruction(self, rng):
        # residues are a permutation of 0..m-1 and the layers recover the
        # semigroup on [0, conductor + 2m]
        for _ in range(30):
            s = semigroup_from_multseq(random_admissible(rng, 4, 7))
            members = [m for m in range(1, s.conductor + 5) if m in s]
            m = rng.choice(members)
            ap = apery_set(s, m)
            assert sorted(b % m for b in ap) == list(range(m))
            layered = set()
            hi = s.conductor + 2 * m
            for b in ap:
                layered.update(range(b, hi + 1, m))
            assert layered == {k for k in range(hi + 1) if k in s}


class TestBlowupCalculus:
    def test_unblowup_examples(self):
        assert unblowup(S(2, 3), 2) == S(2, 5)
        assert unblowup(S(2, 3), 3) == S(3, 5)
        assert unblowup(S(2, 5), 2) == S(2, 7)

    def test_unblowup_errors(self):
        with pytest.raises(SemigroupError, match="invalid multiplicity"):
            unblowup(S(2, 3), 1)
        with pytest.raises(SemigroupError, match="not a semigroup"):
            unblowup(S(2, 3), 6)  # the shifted layers are not closed

    def test_blowup_examples(self):
        assert blowup(S(3, 5)) == S(2, 3)
        assert blowup(S(2, 3)) == SMOOTH
        assert blowup(S(2, 9)) == S(2, 7)

    def test_blowup_smooth(self):
        with pytest.raises(SemigroupError, match="already smooth"):
            blowup(SMOOTH)

    def test_blowup_inverts_unblowup(self, rng):
        from cuspidal import SMOOTH, MultSeq
        for _ in range(40):
            ms = random_admissible(rng, 4, 7)
            m = ms.entries[0]
            tail = (semigroup_from_multseq(MultSeq(ms.entries[1:]))
                    if len(ms.entries) > 1 else SMOOTH)
            s = unblowup(tail, m)
            assert s == semigroup_from_multseq(ms)
            assert blowup(s) == tail
            assert s.delta == tail.delta + m * (m - 1) // 2

    def test_delta_additivity(self, rng):
        # holds for every m where the un-blowup succeeds, not just chain steps
        for _ in range(60):
            s = semigroup_from_multseq(random_admissible(rng, 3, 6))
            m = rng.randint(s.multiplicity, s.conductor + 4)
            if m not in s:
                continue
            try:
                up = unblowup(s, m)
            except Exception:
                continue  # the shifted layers need not be closed for exotic m
            assert up.delta == s.delta + m * (m - 1) // 2

    def test_order_preserved(self, rng):
        # b_j - j*m strictly increasing for plane-branch semigroups
        for _ in range(30):
            s = semigroup_from_multseq(random_admissible(rng, 4, 7))
            m = s.multiplicity
            b = apery_set(s, m)
            a = [bj - j * m for j, bj in enumerate(b)]
            assert all(x < y for x, y in zip(a, a[1:]))


def _outcome(fn, *args):
    """fn's value, or the type and message of the SemigroupError it raises."""
    try:
        return fn(*args)
    except SemigroupError as exc:
        return type(exc), str(exc)


# entry tuples in any order, inadmissible ones and entries below 2 among them,
# half of them sorted non-increasing so that more chains run to the end
entry_tuples = st.lists(st.integers(-1, 9), max_size=6).flatmap(
    lambda e: st.sampled_from((tuple(e), tuple(sorted(e, reverse=True)))))


@st.composite
def blowup_layers(draw):
    """An Apery tuple w by residue of m (w_0 = 0, w_r = r mod m) whose blowup keeps the order.

    The shifted layers a_0 = 0 < a_1 < ... take the residues in a drawn
    order, each the least value above the last plus up to 3*m; most are no
    semigroup, so every error path of the step is reached.
    """
    m = draw(st.integers(2, 9))
    a = [0]
    for r in draw(st.permutations(range(1, m))):
        a.append(a[-1] + (r - a[-1]) % m + m * draw(st.integers(0, 3)))
    return tuple(sorted((aj + j * m for j, aj in enumerate(a)), key=m.__rmod__))


class TestAperyFold:
    """The chains step on Apery sets; the reference is the gap-list chain.

    conftest's chain builds and validates a Semigroup at every step, as the
    chains did before they carried Apery sets: values, error types and
    messages must agree.
    """

    @given(entries=entry_tuples)
    def test_un_blowup_chain_matches_gap_list_chain(self, entries):
        # __wrapped__ runs the fold itself, past its cache; a failed fold
        # returns the message that semigroup_from_multseq raises
        outcome = _semigroup_from_entries.__wrapped__(entries)
        if isinstance(outcome, str):
            outcome = InadmissibleSequenceError, outcome
        assert outcome == _outcome(reference_semigroup_from_entries, entries)

    @given(s=semigroups, m=st.integers(-1, 40))
    def test_steps_match_gap_list_steps(self, s, m):
        assert _outcome(multseq_from_semigroup, s) == _outcome(reference_multseq_from_semigroup, s)
        assert _outcome(blowup, s) == _outcome(reference_blowup, s)
        assert _outcome(unblowup, s, m) == _outcome(reference_unblowup, s, m)
        if m >= 1 and m in s:
            assert apery_set(s, m) == reference_apery_set(s, m)

    # layers closed under +m and +n that Kunz at n refuses, rare in the draws
    @example(w=(0, 19, 44, 9, 28, 53))
    @example(w=(0, 57, 37, 10, 18, 47, 27))
    @given(w=blowup_layers())
    def test_blowup_step_matches_kunz_at_the_layer_modulus(self, w):
        assert _outcome(_blowup, w) == _outcome(reference_kunz_blowup, w)

    def test_blowup_chain_checks_kunz_at_the_new_multiplicity(self):
        # [1000] blows up to the smooth point: Kunz at m = 1000 tried about
        # 500,000 pairs, Kunz at the new multiplicity 1 tries none
        s = semigroup_from_multseq(MultSeq((1000,)))
        start = time.perf_counter()
        assert multseq_from_semigroup(s) == MultSeq((1000,))
        assert time.perf_counter() - start < 0.01

    def test_each_chain_builds_one_semigroup(self, monkeypatch):
        # the gap-list chain built one Semigroup per entry: 1,000 on [2_1000]
        built = []
        build = semigroup._semigroup

        def counted(w):
            built.append(build(w))
            return built[-1]

        monkeypatch.setattr(semigroup, "_semigroup", counted)
        s = _semigroup_from_entries.__wrapped__((2,) * 1000)
        assert built == [s] and s == S(2, 2001)
        built.clear()
        assert multseq_from_semigroup(s) == MultSeq((2,) * 1000)
        assert not built

    def test_only_gaps_from_outside_are_checked(self, monkeypatch):
        # a chain or a generator walk ends in an Apery set already checked;
        # the constructor rebuilt it from the gaps and ran Kunz again
        checked = []
        check = semigroup._checked_apery

        def counted(gaps):
            checked.append(gaps)
            return check(gaps)

        monkeypatch.setattr(semigroup, "_checked_apery", counted)
        _semigroup_from_entries.__wrapped__((2,) * 1000)
        semigroup_from_generators([60, 61])
        semigroup_from_newton_pairs(NewtonPairs(((2, 3), (2, 1))))
        assert not checked
        Semigroup((1,))
        assert checked == [(1,)]


class TestMultSeqConversion:
    def test_from_multseq_examples(self):
        assert semigroup_from_multseq(MultSeq((2, 2, 2, 2))) == S(2, 9)
        assert semigroup_from_multseq(MultSeq((6,))) == S(6, 7)
        assert semigroup_from_multseq(MultSeq((3, 2))) == S(3, 5)

    def test_from_multseq_inadmissible(self):
        with pytest.raises(InadmissibleSequenceError, match="inadmissible"):
            semigroup_from_multseq(MultSeq((6, 2)))

    def test_from_multseq_smooth_sentinel(self):
        with pytest.raises(SemigroupError, match="smooth"):
            semigroup_from_multseq(MultSeq(()))

    def test_multseq_type_validation(self):
        with pytest.raises(SemigroupError):
            MultSeq((2, 3))  # increasing
        with pytest.raises(SemigroupError):
            MultSeq((1,))

    def test_to_multseq_examples(self):
        assert multseq_from_semigroup(S(3, 5)).entries == (3, 2)
        assert multseq_from_semigroup(S(2, 3)).entries == (2,)
        assert multseq_from_semigroup(S(4, 6, 13)).entries == (4, 2, 2)
        assert multseq_from_semigroup(SMOOTH).entries == ()

    def test_to_multseq_rejects_non_plane_branch(self):
        with pytest.raises(NotPlaneBranchError):
            multseq_from_semigroup(S(3, 4, 5))

    def test_round_trip(self, rng):
        for _ in range(120):
            ms = random_admissible(rng)
            assert multseq_from_semigroup(semigroup_from_multseq(ms)) == ms

    def test_plane_branch_symmetry(self, rng):
        # s in S iff 2*delta - 1 - s not in S
        for _ in range(40):
            s = semigroup_from_multseq(random_admissible(rng, 4, 7))
            d = s.delta
            for k in range(2 * d):
                assert (k in s) == (2 * d - 1 - k not in s)


class TestNewtonPairs:
    def test_validation(self):
        with pytest.raises(SemigroupError, match="needs q > p"):
            NewtonPairs(((3, 2),))  # needs q > p in the first pair
        with pytest.raises(SemigroupError, match="has p < 2"):
            NewtonPairs(((1, 2), (2, 1)))  # p >= 2
        with pytest.raises(SemigroupError, match="not coprime"):
            NewtonPairs(((2, 4),))  # not coprime
        with pytest.raises(SemigroupError, match="has q < 1"):
            NewtonPairs(((2, 3), (2, 0)))  # q >= 1, checked before coprimality
        assert NewtonPairs(((2, 3),)).pairs == ((2, 3),)

    def test_examples(self):
        assert semigroup_from_newton_pairs(NewtonPairs(((2, 3),))) == S(2, 3)
        s = semigroup_from_newton_pairs(NewtonPairs(((2, 9),)))
        assert multseq_from_semigroup(s).entries == (2,) * 4
        s = semigroup_from_newton_pairs(NewtonPairs(((2, 3), (2, 1))))
        assert s == S(4, 6, 13)
        assert multseq_from_semigroup(s).entries == (4, 2, 2)

    @pytest.mark.parametrize("d", range(4, 13))
    def test_series_one_pair_forms(self, d):
        # [d-2] <-> (d-2, d-1)
        s = semigroup_from_newton_pairs(NewtonPairs(((d - 2, d - 1),)))
        assert multseq_from_semigroup(s).entries == (d - 2,)

    @pytest.mark.parametrize("u", range(1, 10))
    def test_series_double_point_forms(self, u):
        # [2_u] <-> (2, 2u+1)
        s = semigroup_from_newton_pairs(NewtonPairs(((2, 2 * u + 1),)))
        assert multseq_from_semigroup(s).entries == (2,) * u
        assert s.delta == u

    @pytest.mark.parametrize("l", range(2, 5))
    def test_series_two_pair_forms(self, l):
        # [2l, 2_l] <-> (l, l+1)(2, 1)
        s = semigroup_from_newton_pairs(NewtonPairs(((l, l + 1), (2, 1))))
        assert multseq_from_semigroup(s).entries == (2 * l,) + (2,) * l
        # [3l, 3_l] <-> (l, l+1)(3, 1)
        s = semigroup_from_newton_pairs(NewtonPairs(((l, l + 1), (3, 1))))
        assert multseq_from_semigroup(s).entries == (3 * l,) + (3,) * l

    @pytest.mark.parametrize("l", range(1, 5))
    def test_series_cable_forms(self, l):
        # [4_l, 2_2] <-> (2, 2l+1)(2, 1)
        s = semigroup_from_newton_pairs(NewtonPairs(((2, 2 * l + 1), (2, 1))))
        assert multseq_from_semigroup(s).entries == (4,) * l + (2, 2)

    @pytest.mark.parametrize("l", range(1, 5))
    def test_series_triple_point_forms(self, l):
        # [3_l] <-> (3, 3l+1)
        s = semigroup_from_newton_pairs(NewtonPairs(((3, 3 * l + 1),)))
        assert multseq_from_semigroup(s).entries == (3,) * l

    @given(np_=newton_pairs())
    @example(np_=NewtonPairs(((2, 3),)))
    @example(np_=NewtonPairs(((2, 3), (2, 1))))
    def test_delta_is_zariskis_closed_form(self, np_):
        # half the conductor sum (p_k - 1) b_k - b_0 + 1 over the generators
        assert np_.delta == semigroup_from_newton_pairs(np_).delta

    def test_delta_needs_no_semigroup(self, monkeypatch):
        # (2, q) is the sequence [2_delta] with delta = (q - 1) / 2; read off
        # the pairs, not off a walk over the generators
        monkeypatch.setattr(semigroup, "semigroup_from_generators", None)
        assert NewtonPairs(((2, 400000001),)).delta == 200000000
        assert NewtonPairs(((100000, 100001),)).delta == 4999950000
        assert NewtonPairs(((2, 3), (2, 1))).delta == 8

    def test_delta_cross_check(self, rng):
        # gap count of the conversion equals the multiplicity-sequence formula
        for pairs in [((2, 3), (2, 1)), ((2, 5), (2, 1)), ((3, 4), (2, 1)),
                      ((2, 3), (3, 1)), ((4, 5), (3, 2))]:
            s = semigroup_from_newton_pairs(NewtonPairs(pairs))
            assert s.delta == multseq_from_semigroup(s).delta


class TestCountingFn:
    def test_examples(self):
        h = counting_fn(S(2, 3))
        assert [h(k) for k in (1, 2, 3, 4)] == [1, 1, 2, 3]
        assert h(0) == 0 and h(-5) == 0
        assert counting_fn(S(6, 7))(31) == 16

    def test_matches_brute_count(self, rng):
        for _ in range(20):
            s = semigroup_from_multseq(random_admissible(rng, 3, 6))
            h = counting_fn(s)
            members = [k for k in range(3 * s.delta + 4) if k in s]
            for k in range(3 * s.delta + 3):
                assert h(k) == brute_count(members, k)


class TestDelta:
    def test_examples(self):
        assert S(2, 3).delta == 1
        assert S(6, 7).delta + S(2, 9).delta + S(2, 5).delta == 21
        assert 2 * 21 == (8 - 1) * (8 - 2)
        assert S(6, 9, 19).delta == 21  # [6,3,3]: 15 + 3 + 3

    def test_multseq_formula(self, rng):
        for _ in range(40):
            ms = random_admissible(rng)
            assert semigroup_from_multseq(ms).delta == ms.delta


class TestLiterals:
    @pytest.mark.parametrize("text,entries", [
        ("[6]", (6,)),
        ("[2_4]", (2, 2, 2, 2)),
        ("[3,2]", (3, 2)),
        ("[3_2,2]", (3, 3, 2)),
    ])
    def test_multseq_literals(self, text, entries):
        ms = parse_cusp(text)
        assert isinstance(ms, MultSeq) and ms.entries == entries
        assert parse_cusp(ms.literal()) == ms

    def test_newton_literal(self):
        np_ = parse_cusp("(2,3)(2,1)")
        assert isinstance(np_, NewtonPairs) and np_.pairs == ((2, 3), (2, 1))
        assert np_.literal() == "(2,3)(2,1)"

    def test_generator_literal(self):
        s = parse_cusp("<4,6,13>")
        assert isinstance(s, Semigroup) and s == S(4, 6, 13)
        assert s.literal() == "<4,6,13>"

    @pytest.mark.parametrize("bad", ["", "[]", "[2_]", "[2,]", "(2,3", "{2,3}",
                                     "[x]", "<>", "<2;3>", "(2,3)(1,2)"])
    def test_bad_literals(self, bad):
        with pytest.raises(SemigroupError):
            parse_cusp(bad)

    @pytest.mark.parametrize("bad,message", [
        # int alone would read these as <10,11>, <4,6,13> and <4,6>
        ("<1_0,11>", "bad generator list '<1_0,11>'"),
        ("<+4,6,13>", "bad generator list '<+4,6,13>'"),
        ("< 4 , 6 ,13>", "bad generator list '< 4 , 6 ,13>'"),
        ("<4,6\n>", "bad generator list '<4,6\\n>'"),
        # a $ anchor matches before a trailing newline, fullmatch does not
        ("[3\n]", "bad multiplicity token '3\\n' in '[3\\n]'"),
        ("[3\n,2]", "bad multiplicity token '3\\n' in '[3\\n,2]'"),
        ("[3,2_2\n]", "bad multiplicity token '2_2\\n' in '[3,2_2\\n]'"),
    ])
    def test_tokens_are_digits_only(self, bad, message):
        # every spelling reads its numbers by the one \d+ rule
        with pytest.raises(SemigroupError) as info:
            parse_cusp(bad)
        assert str(info.value) == message

    def test_non_ascii_decimal_digits(self):
        # \d and str.isdecimal both accept every decimal digit (category Nd)
        assert parse_cusp("<\u0664,\u0665>") == S(4, 5)
        assert parse_cusp("[\u0663]") == parse_cusp("[3]")

    def test_resolve(self):
        assert resolve_semigroup(parse_cusp("[2_4]")) == S(2, 9)
        assert resolve_semigroup(parse_cusp("(2,3)")) == S(2, 3)
        assert resolve_semigroup(parse_cusp("<2,3>")) == S(2, 3)


def test_is_admissible():
    assert is_admissible((3, 2))
    assert is_admissible((2, 2, 2))
    assert not is_admissible((6, 2))
    assert not is_admissible((3, 2, 2))  # 3 not in <2,5>
    assert is_admissible(())  # MultSeq(()), the smooth point
    # un-blowing up by 1 leaves any semigroup as it is; MultSeq refuses a 1
    for entries in [(2, 1), (1,), (1, 1), (3, 2, 1), (0,)]:
        assert not is_admissible(entries)
        with pytest.raises(SemigroupError, match=r"multiplicity \d < 2"):
            MultSeq(entries)
