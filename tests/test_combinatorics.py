import copy
import itertools
import math
import pickle

import pytest

from mapalg import combinatorics, forms, memo
from mapalg.cli import parse_multiset
from mapalg.combinatorics import (
    ALabel,
    Multiset,
    binom_int,
    fold_label,
    matched_splits,
    multinomial,
    partitions,
    splits,
    sub_multisets,
    subpartition_splits,
    subpartitions,
)
from mapalg.memo import clear_caches
from mapalg.pbw import Element, make_preset

U = ALabel([0])
T = ALabel([1])
T2 = ALabel([2])


def ms(*pairs):
    return Multiset(pairs)


def _weighted_total(psi):
    """Every part of the multiset of multisets ``psi`` added up, each as
    often as its multiplicity: the oracle of the partition checks."""
    return sum((part for part, m in psi.items() for _ in range(m)), Multiset())


class TestALabel:
    def test_mul_adds_exponents(self):
        assert T * T2 == ALabel([3])
        assert ALabel([1, 0]) * ALabel([0, 2]) == ALabel([1, 2])

    def test_unit_law(self):
        assert T * U == T
        assert ALabel.unit(3).is_unit()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            T * ALabel([1, 2])

    def test_order_is_graded_lex(self):
        labels = [ALabel([0, 2]), ALabel([1, 0]), ALabel([2, 0]), ALabel([1, 1])]
        ordered = sorted(labels)
        assert ordered == [ALabel([1, 0]), ALabel([0, 2]), ALabel([1, 1]), ALabel([2, 0])]

    def test_order_strict_total(self):
        pool = [ALabel([a, b]) for a in range(3) for b in range(3)]
        for a, b in itertools.product(pool, repeat=2):
            assert (a < b) + (b < a) + (a == b) == 1

    def test_laurent_exponents_allowed(self):
        lab = ALabel([-1, 2])
        assert lab.degree == 1
        assert (lab * ALabel([1, -2])).is_unit()

    def test_render(self):
        assert U.render() == "1"
        assert T.render() == "t"
        assert T2.render() == "t^2"
        assert ALabel([1, 0, 2]).render() == "t1*t3^2"

    def test_json_round_trip(self):
        for lab in (U, T, ALabel([3, 0, -1])):
            assert ALabel.from_json(lab.to_json()) == lab
        with pytest.raises(ValueError):
            ALabel.from_json("nope")

    def test_pickle_round_trip(self):
        for lab in (U, T2, ALabel([3, 0, -1])):
            back = pickle.loads(pickle.dumps(lab))
            assert back == lab and type(back) is ALabel
            assert back.exponents == lab.exponents and back.degree == lab.degree

    def test_tuple_arithmetic_refused(self):
        with pytest.raises(TypeError):
            2 * T
        with pytest.raises(TypeError):
            T * 2
        with pytest.raises(TypeError):
            T + T
        with pytest.raises(TypeError):
            (1,) + T

    def test_graded_lex_on_two_variables(self):
        assert ALabel([1, 0]) < ALabel([0, 2])
        assert ALabel([0, 1]) < ALabel([1, 0])
        assert not ALabel([0, 2]) < ALabel([1, 0])


class TestMultiset:
    def test_zero_mults_dropped(self):
        assert ms((T, 0)) == ms()
        assert not ms((T, 0))

    def test_negative_mult_rejected(self):
        with pytest.raises(ValueError):
            ms((T, -1))

    def test_size_and_count(self):
        chi = ms((U, 3), (T, 1))
        assert chi.size == 4
        assert chi.count(U) == 3
        assert chi.count(T2) == 0

    def test_pointwise_order(self):
        chi = ms((U, 3), (T, 1))
        assert ms((U, 1)) <= chi
        assert not (ms((T2, 1)) <= chi)
        assert chi <= chi

    def test_sub(self):
        chi = ms((U, 3), (T, 1))
        assert chi - ms((U, 1)) == ms((U, 2), (T, 1))
        assert chi - chi == ms()

    def test_sub_requires_containment(self):
        with pytest.raises(ValueError):
            ms((U, 1)) - ms((T, 1))

    def test_sub_round_trip(self):
        chi = ms((U, 2), (T, 2), (T2, 1))
        for psi in sub_multisets(chi):
            assert (chi - psi) + psi == chi

    def test_merge_on_construction(self):
        assert ms((T, 1), (T, 2)) == ms((T, 3))

    def test_json_round_trip(self):
        chi = ms((U, 2), (T, 1))
        assert Multiset.from_json(chi.to_json()) == chi
        with pytest.raises(ValueError):
            Multiset.from_json([[T.to_json(), 0]])
        with pytest.raises(ValueError):
            Multiset.from_json([[T.to_json(), True]])

    def test_empty_multiset_is_a_key(self):
        mom = Multiset(((ms(), 2),))
        assert mom.size == 2
        assert mom.count(ms()) == 2

    def test_json_round_trip_of_multisets_of_multisets(self):
        """Every value ``partitions`` and ``subpartitions`` yield, the empty
        part included, reads back from its JSON as the same object."""
        seen = 0
        for chi in [ms(), ms((T, 2)), ms((U, 1), (T, 2)), ms((U, 2), (T2, 1))]:
            for k in range(4):
                values = list(subpartitions(chi, k))
                if k:
                    values += partitions(chi, k)
                for psi in values:
                    assert Multiset.from_json(psi.to_json()) is psi
                    seen += any(not part for part in psi.support())
        assert seen
        # a key of keys of keys
        deep = Multiset(((Multiset(((ms((T, 1)), 2), (ms(), 1))), 1),))
        assert Multiset.from_json(deep.to_json()) is deep
        for bad in ([[[[0], 1, 2], 1]], [[[0], 1], [[], 1]], [[[1], 1], [[[[0], 1]], 1]]):
            with pytest.raises(ValueError):
                Multiset.from_json(bad)


class TestHashConsing:
    """One object per value: every way of building a multiset hands back
    the same object, so the identity equality and hash it inherits from
    ``object`` are the value's."""

    def test_every_construction_path_gives_the_one_object(self):
        chi = Multiset(((T, 2), (U, 1)))
        assert Multiset({U: 1, T: 2}) is chi
        assert Multiset(((T, 1), (U, 1), (T, 1))) is chi
        assert Multiset._canonical(((U, 1), (T, 2)), 3) is chi
        assert Multiset.single(U) + Multiset.single(T, 2) is chi
        assert ms((U, 2), (T, 3)) - ms((U, 1), (T, 1)) is chi
        assert Multiset.from_json(chi.to_json()) is chi
        assert parse_multiset("{[1]:2, [0]:1}", 1, False) is chi
        assert ms() is Multiset() is Multiset({}) is ms((T, 0))

    def test_enumerations_hand_out_the_one_object(self):
        chi = ms((U, 2), (T, 1))
        for sub, rest in splits(chi):
            assert Multiset(sub.items()) is sub and Multiset(rest.items()) is rest
        assert (ms((U, 1)), ms((U, 1), (T, 1))) in splits(chi)
        for psi in partitions(chi, 2):
            assert Multiset(psi.items()) is psi
            for part, _ in psi.items():
                assert Multiset(part.items()) is part
        assert Multiset(((ms((U, 1)), 1), (ms((U, 1), (T, 1)), 1))) in list(partitions(chi, 2))

    def test_basis_index_slots_are_the_one_object(self):
        sl2 = make_preset("sl2")
        x, h = (Element.generator(sl2, i, T) for i in range(2))
        (mono,) = (x * x * h * Element.generator(sl2, 2, U)).num
        idx = forms._index_of_monomial(sl2, mono)
        assert idx.minus == (ms((T, 2)),) and idx.minus[0] is Multiset.single(T, 2)
        assert idx.zero[0] is Multiset.single(T)
        assert idx.plus[0] is Multiset.single(U)

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda m: pickle.loads(pickle.dumps(m)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_pickle_and_copy_return_the_one_object(self, roundtrip):
        chi = ms((T, 2))
        mom = Multiset(((ms(), 1), (chi, 2)))
        for value in (chi, mom, ms()):
            assert roundtrip(value) is value
        assert not Multiset() and Multiset().items() == () and Multiset().size == 0
        assert chi.items() == ((T, 2),) and chi.size == 2

    def test_clear_caches_keeps_the_intern_table(self):
        chi = ms((U, 1), (T2, 3))
        list(splits(chi))
        clear_caches()
        assert Multiset(((T2, 3), (U, 1))) is chi
        assert splits(chi)[-1] == (chi, ms())

    def test_equality_and_hash_are_objects(self):
        assert Multiset.__hash__ is object.__hash__
        assert Multiset.__eq__ is object.__eq__
        assert Multiset.__ne__ is object.__ne__


def _pickle_at(protocol):
    return lambda value: pickle.loads(pickle.dumps(value, protocol))


ROUNDTRIPS = [_pickle_at(p) for p in range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy, copy.deepcopy]
ROUNDTRIP_IDS = ["pickle-%d" % p for p in range(pickle.HIGHEST_PROTOCOL + 1)] + ["copy", "deepcopy"]


class TestLabelHashConsing:
    """One object per exponent vector, as for multisets: every way of
    building a label hands back the same object, so the identity hash it
    inherits from ``object`` is the value's.  Label products are memoised
    in a registered table."""

    def test_every_construction_path_gives_the_one_object(self):
        lab = ALabel([2, 1])
        assert ALabel((2, 1)) is lab and ALabel(iter([2, 1])) is lab
        assert ALabel.from_json([2, 1]) is lab
        assert ALabel([1, 1]) * ALabel([1, 0]) is lab
        assert ALabel([1, 0]) ** 2 * ALabel([0, 1]) is lab and lab**1 is lab
        assert ALabel.unit(2) is ALabel([0, 0]) is lab**0
        assert T * T is T**2 is T2 and ALabel([-1]) * T is U
        assert parse_multiset("{[2, 1]:1}", 2, False).items()[0][0] is lab
        assert Multiset.from_json([[[2, 1], 1]]).items()[0][0] is lab

    @pytest.mark.parametrize("roundtrip", ROUNDTRIPS, ids=ROUNDTRIP_IDS)
    def test_pickle_and_copy_return_the_one_object(self, roundtrip):
        for lab in (U, T2, ALabel([3, 0, -1])):
            assert roundtrip(lab) is lab

    def test_clear_caches_empties_the_products_and_keeps_the_labels(self):
        lab = ALabel([5, 7])
        prod = lab * lab
        assert lab**2 is prod
        assert combinatorics._label_products[lab, lab] is prod
        clear_caches()
        assert not combinatorics._label_products
        assert ALabel([5, 7]) is lab and combinatorics._labels[10, 14] is prod
        assert lab**2 is prod and not combinatorics._label_products
        assert lab * lab is prod

    def test_refused_products_store_nothing(self):
        clear_caches()
        assert T**2 is T2
        products, labels = dict(combinatorics._label_products), len(combinatorics._labels)
        with pytest.raises(ValueError):
            ALabel([1, 2]) * ALabel([1])
        with pytest.raises(TypeError):
            T * 2
        with pytest.raises(TypeError):
            T**T
        assert combinatorics._label_products == products
        assert len(combinatorics._labels) == labels

    def test_hash_is_identity_and_comparison_is_tuple(self):
        assert ALabel.__hash__ is object.__hash__
        assert ALabel.__eq__ is tuple.__eq__ and ALabel.__lt__ is tuple.__lt__


class TestMultinomial:
    def test_examples(self):
        assert multinomial(ms((U, 2), (T, 1))) == 3
        assert multinomial(ms((U, 2), (T, 2))) == 6
        assert multinomial(ms()) == 1

    def test_single_block_is_one(self):
        for k in range(6):
            assert multinomial(ms((T, k))) == 1

    def test_at_least_one(self):
        pool = [U, T, T2]
        for combo in itertools.combinations_with_replacement(pool, 4):
            assert multinomial(Multiset((k, 1) for k in combo)) >= 1


# every multiset of size at most 4 over {1, t, t^2}
SMALL = [
    Multiset((k, 1) for k in combo)
    for size in range(5)
    for combo in itertools.combinations_with_replacement([U, T, T2], size)
]


class TestMemoisedScalars:
    """``multinomial`` and ``fold_label`` are process tables: each value
    equals its formula whether it is computed or read back."""

    def test_multinomial_equals_its_formula(self):
        clear_caches()
        for _ in range(2):
            for psi in SMALL:
                den = math.prod(math.factorial(m) for _, m in psi.items())
                assert multinomial(psi) == math.factorial(psi.size) // den

    def test_fold_label_equals_its_formula(self):
        def degree(*multisets):
            return sum(k.exponents[0] * m for psi in multisets for k, m in psi.items())

        clear_caches()
        for _ in range(2):
            for start in (U, T, T2):
                for psi in SMALL:
                    assert fold_label(start, psi) is ALabel([start.degree + degree(psi)])
                    for chi in SMALL:
                        want = ALabel([start.degree + degree(psi, chi)])
                        assert fold_label(start, psi, chi) is want

    def test_tables_live_for_the_process(self):
        multinomial(ms((T, 2)))
        fold_label(U, ms((T, 2)))
        for fn in (multinomial, fold_label):
            assert fn.table
            assert any(t is fn.table for t in memo._tables)
            assert not any(t is fn.table for t in memo._check_tables)
        memo.clear_check_tables()
        assert multinomial.table and fold_label.table
        clear_caches()
        assert not multinomial.table and not fold_label.table


class TestBinomInt:
    def test_both_paths_equal_the_falling_factorial(self):
        for n in range(-8, 13):
            for k in range(9):
                falling = math.prod(n - j for j in range(k))
                assert binom_int(n, k) == falling // math.factorial(k)

    def test_nonnegative_agrees_with_math(self):
        for n in range(8):
            for k in range(n + 1):
                assert binom_int(n, k) == math.comb(n, k)

    def test_negative_upper_index(self):
        assert binom_int(-1, 1) == -1
        assert binom_int(-1, 2) == 1
        assert binom_int(-2, 3) == -4

    def test_zero(self):
        assert binom_int(5, 0) == 1
        with pytest.raises(ValueError):
            binom_int(3, -1)


class TestSubMultisets:
    def test_divisor_example(self):
        chi = ms((U, 1), (T, 1))
        subs = list(sub_multisets(chi))
        assert len(subs) == 4
        assert set(subs) == {ms(), ms((U, 1)), ms((T, 1)), chi}

    def test_sized(self):
        assert list(sub_multisets(ms((T, 2)), 1)) == [ms((T, 1))]
        subs = list(sub_multisets(ms((U, 2), (T, 1)), 2))
        assert subs == [ms((U, 1), (T, 1)), ms((U, 2))] or set(subs) == {
            ms((U, 2)),
            ms((U, 1), (T, 1)),
        }
        assert len(subs) == 2

    def test_cardinality_product_rule(self):
        chi = ms((U, 2), (T, 3), (T2, 1))
        subs = list(sub_multisets(chi))
        assert len(subs) == (2 + 1) * (3 + 1) * (1 + 1)
        assert len(set(subs)) == len(subs)
        total = sum(len(list(sub_multisets(chi, k))) for k in range(chi.size + 1))
        assert total == len(subs)

    def test_deterministic(self):
        chi = ms((U, 2), (T, 2))
        assert list(sub_multisets(chi)) == list(sub_multisets(chi))


class TestMatchedSplits:
    @pytest.mark.parametrize(
        "psi1, psi2",
        [
            (ms((U, 2), (T, 1)), ms((T, 1), (T2, 2))),
            (ms((U, 1), (T, 3)), ms((U, 2), (T, 1), (T2, 1))),
            (ms(), ms((T, 2))),
            (ms((T2, 2)), ms()),
        ],
    )
    def test_equals_the_size_filtered_double_loop(self, psi1, psi2):
        want = [
            (phi1, psi1 - phi1, phi2, psi2 - phi2)
            for phi1 in sub_multisets(psi1)
            for phi2 in sub_multisets(psi2)
            if phi1.size == phi2.size
        ]
        assert list(matched_splits(psi1, psi2)) == want


class TestSplits:
    CHIS = [
        ms(),
        ms((T, 1)),
        ms((U, 2), (T, 1)),
        ms((U, 1), (T, 3), (T2, 2)),
        ms((ms(), 1), (ms((T, 1)), 2), (ms((U, 1), (T2, 1)), 1)),
    ]

    @pytest.mark.parametrize("chi", CHIS)
    def test_each_pair_sums_to_chi(self, chi):
        for sub, rest in splits(chi):
            assert sub + rest == chi
            assert sub <= chi and rest <= chi
            assert sub.size + rest.size == chi.size

    @pytest.mark.parametrize("chi", CHIS)
    def test_subs_in_sub_multisets_order(self, chi):
        want = [
            Multiset(zip(chi.support(), combo))
            for combo in itertools.product(*(range(m + 1) for _, m in chi.items()))
        ]
        assert [sub for sub, _ in splits(chi)] == want
        assert list(sub_multisets(chi)) == want

    @pytest.mark.parametrize("chi", CHIS)
    def test_second_call_returns_the_same_objects(self, chi):
        first = list(splits(chi))
        again = list(splits(Multiset(chi.items())))
        assert len(again) == len(first)
        for (sub, rest), (sub2, rest2) in zip(first, again):
            assert sub is sub2 and rest is rest2
        assert all(a is b for a, b in zip(sub_multisets(chi), (sub for sub, _ in first)))


class TestPartitions:
    def test_empty_target_forced(self):
        parts = list(partitions(ms(), 3))
        assert parts == [Multiset(((ms(), 3),))]

    def test_two_part_example(self):
        got = set(partitions(ms((T, 2)), 2))
        want = {
            Multiset(((ms((T, 1)), 2),)),
            Multiset(((ms((T, 2)), 1), (ms(), 1))),
        }
        assert got == want

    def test_single_part(self):
        assert list(partitions(ms((T, 1)), 1)) == [Multiset(((ms((T, 1)), 1),))]

    def test_postconditions_per_element(self):
        for chi in [ms(), ms((T, 2)), ms((U, 1), (T, 2)), ms((U, 2), (T2, 1))]:
            for k in range(1, 4):
                seen = set()
                for psi in partitions(chi, k):
                    assert psi.size == k
                    assert _weighted_total(psi) == chi
                    assert psi not in seen
                    seen.add(psi)

    def test_parts_bound_required(self):
        with pytest.raises(ValueError):
            list(partitions(ms((T, 1)), 0))


class TestSubpartitions:
    def test_empty_budget(self):
        assert list(subpartitions(ms(), 2)) == [Multiset(((ms(), 2),))]

    def test_single_key_example(self):
        got = set(subpartitions(ms((T, 1)), 1))
        assert got == {Multiset(((ms(), 1),)), Multiset(((ms((T, 1)), 1),))}

    def test_zero_parts(self):
        assert list(subpartitions(ms((T, 2)), 0)) == [Multiset()]

    def test_cross_enumeration_identity(self):
        for chi in [ms((T, 2)), ms((U, 1), (T, 2)), ms((U, 2), (T, 1))]:
            for k in range(1, 4):
                direct = list(subpartitions(chi, k))
                assert len(set(direct)) == len(direct)
                via_partitions = sum(
                    len(list(partitions(sub, k))) for sub in sub_multisets(chi)
                )
                assert len(direct) == via_partitions

    def test_postconditions(self):
        chi = ms((U, 2), (T, 1))
        for k in range(3):
            for psi in subpartitions(chi, k):
                assert psi.size == k
                assert _weighted_total(psi) <= chi


def _reference_sequences(chi, parts, exact):
    """Reference enumeration of the part sequences: non-increasing parts
    from freshly sorted sub-multisets, each complement by subtraction."""

    def rec(budget, left, bound):
        if left == 0:
            if not exact or not budget:
                yield ()
            return
        for part in sorted(sub_multisets(budget), key=Multiset.sort_key, reverse=True):
            key = part.sort_key()
            if bound is not None and key > bound:
                continue
            for rest in rec(budget - part, left - 1, key):
                yield (part,) + rest

    return list(rec(chi, parts, None))


# every multiset of size <= 4 over two labels
SMALL_CHIS = [Multiset(((U, a), (T, total - a))) for total in range(5) for a in range(total + 1)]


class TestPartitionOrder:
    def test_same_sequence_and_storage_as_the_validating_constructor(self):
        for chi in SMALL_CHIS:
            for k in range(4):
                for enum, exact in ((partitions, True), (subpartitions, False)):
                    if enum is partitions and k == 0:
                        continue
                    got = list(enum(chi, k))
                    want = [Multiset((p, 1) for p in seq) for seq in _reference_sequences(chi, k, exact)]
                    assert got == want
                    for psi, ref in zip(got, want):
                        assert psi.items() == ref.items() and psi.size == ref.size

    def test_leftover_is_the_unused_budget(self):
        assert len(SMALL_CHIS) == 15
        for chi in SMALL_CHIS:
            for k in range(4):
                pairs = list(subpartition_splits(chi, k))
                assert [psi for psi, _ in pairs] == list(subpartitions(chi, k))
                for psi, leftover in pairs:
                    assert leftover == chi - _weighted_total(psi)

    def test_negative_parts_refused(self):
        with pytest.raises(ValueError):
            list(subpartition_splits(ms((T, 1)), -1))
