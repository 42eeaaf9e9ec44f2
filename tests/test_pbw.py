import copy
import io
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from mapalg import forms, memo, pbw
from mapalg.cli import main
from mapalg.combinatorics import ALabel, Multiset, binom_int
from mapalg.forms import basis_element, enumerate_basis, reduce_to_basis, root_monomial
from mapalg.identities import check_names, make_spec, run_check, run_suite
from mapalg.memo import clear_caches
from mapalg.pbw import (
    ONE,
    Element,
    Gen,
    LiePreset,
    Mono,
    Sum,
    _sl_matrices,
    ad_divided,
    binom_element,
    divided_power,
    make_preset,
    omega,
)

U = ALabel([0])
T = ALabel([1])
T2 = ALabel([2])

SL2 = make_preset("sl2")
SL3 = make_preset("sl3")

XM, H, XP = 0, 1, 2


def g(preset, index, label):
    return Element.generator(preset, index, label)


class TestPresets:
    def test_sl2_shape(self):
        assert SL2.dim == 3
        assert SL2.m == 1
        assert SL2.pairing(0, 0) == 2
        assert SL2.coroot_expansion(0) == (1,)

    def test_sl3_shape(self):
        assert SL3.dim == 8
        assert SL3.m == 3
        cartan = [[SL3.pairing(j, i) for i in range(2)] for j in range(2)]
        assert cartan == [[2, -1], [-1, 2]]
        # value of the highest root on h_1 is the sum of a Cartan column
        assert SL3.pairing(2, 0) == 1
        assert SL3.coroot_expansion(2) == (1, 1)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            make_preset("so5")

    def test_presets_are_singletons(self):
        assert make_preset("sl2") is SL2

    def test_root_sum(self):
        assert SL3.root_sum_index(0, 1) == 2
        assert SL3.root_sum_index(1, 0) == 2
        assert SL3.root_sum_index(2, 0) is None

    def test_gen_names(self):
        assert SL2.gen_name(0) == "x-_a1"
        assert SL2.gen_name(1) == "h_1"
        assert SL3.gen_name(7) == "x+_a12"

    @pytest.mark.parametrize("preset", [SL2, SL3], ids=["sl2", "sl3"])
    def test_simple_root_index(self, preset):
        for i in range(preset.rank):
            unit = tuple(1 if k == i else 0 for k in range(preset.rank))
            assert preset.simple_root_index(i) == preset.positive_roots.index(unit)
        for i in (-1, preset.rank):
            with pytest.raises(ValueError):
                preset.simple_root_index(i)


class TestIndexTypes:
    """A root, a sign or a basis index is an int.  A float or a bool equals
    an int key of a table, so it is refused with ``TypeError`` before any
    lookup could answer for it, and an int out of range is ``ValueError``."""

    def test_root_index_refuses_a_float_or_bool_root(self):
        for alpha in (1.0, True):
            with pytest.raises(TypeError, match="a positive root must be an int"):
                SL3.root_index(1, alpha)
        with pytest.raises(ValueError, match="unknown positive root"):
            SL3.root_index(1, 3)

    def test_root_index_refuses_a_sign_but_the_int_one_or_minus_one(self):
        assert [SL3.root_index(s, 1) for s in (1, -1)] == [6, 1]
        for sign in (0, 2, -2):
            with pytest.raises(ValueError, match="root sign must be 1 or -1"):
                SL3.root_index(sign, 0)
        for sign in (1.0, -1.0, True):
            with pytest.raises(TypeError, match="a root sign must be an int"):
                SL3.root_index(sign, 0)

    def test_kind_refuses_a_float_or_bool_index(self):
        assert [SL3.kind(i) for i in (2, 3, 6)] == [("neg", 2), ("cartan", 0), ("pos", 1)]
        for index in (True, 6.0):
            with pytest.raises(TypeError, match="a basis index must be an int"):
                SL3.kind(index)
        for index in (-1, 8):
            with pytest.raises(ValueError, match="basis index out of range"):
                SL3.kind(index)

    def test_float_generator_index_interns_nothing(self):
        lab = ALabel([41])
        with pytest.raises(TypeError, match="a basis index must be an int"):
            Element.generator(SL3, 6.0, lab)
        assert (6, lab) not in pbw._gens
        with pytest.raises(TypeError, match="a generator index must be an int"):
            Gen(6.0, lab)
        assert (6, lab) not in pbw._gens
        gen = Element.generator(SL3, 6, lab)
        (((got, _),),) = gen.num
        assert type(got.index) is int
        assert gen.render() == "1 (x+_a2⊗t^41)"
        assert gen.to_json()[0]["monomial"] == [[6, [41], 1]]


class TestGenHashConsing:
    """One object per generator, as for labels and multisets: every way of
    building a ``Gen`` hands back the same object, so the identity hash it
    inherits from ``object`` is the value's."""

    def test_every_construction_path_gives_the_one_object(self):
        gen = Gen(H, T2)
        assert Gen(index=H, label=T * T) is gen
        assert Gen._make([H, T2]) is gen and Gen._make(iter((H, ALabel([2])))) is gen
        assert Gen(XP, T2)._replace(index=H) is gen and gen._replace(label=T2) is gen
        assert gen._replace(index=XM) is Gen(XM, T2)
        (((got, _),),) = g(SL2, H, ALabel([2])).num
        assert got is gen
        # [x+(t), x-(t)] = h(t^2): the bracket term of _mono_product's rewrite
        prod = g(SL2, XP, T) * g(SL2, XM, T)
        assert gen in {letter for mono in prod.num for letter, _ in mono}
        (((got, _),),) = ad_divided(SL2, Gen(XP, T), 1, g(SL2, XM, T)).num
        assert got is gen
        data = [{"monomial": [[H, [2], 1]], "coeff": ["1", "1"]}]
        (((got, _),),) = Element.from_json(SL2, data).num
        assert got is gen

    @pytest.mark.parametrize(
        "protocol", range(pickle.HIGHEST_PROTOCOL + 1), ids=lambda p: "pickle-%d" % p
    )
    def test_pickle_returns_the_one_object(self, protocol):
        for gen in (Gen(XM, U), Gen(H, ALabel([3]))):
            assert pickle.loads(pickle.dumps(gen, protocol)) is gen

    def test_copy_returns_the_one_object(self):
        gen = Gen(XP, T)
        assert copy.copy(gen) is gen and copy.deepcopy(gen) is gen

    def test_clear_caches_keeps_the_intern_table(self):
        gen = Gen(XP, ALabel([11]))
        clear_caches()
        assert pbw._gens[XP, ALabel([11])] is gen and Gen(XP, ALabel([11])) is gen

    def test_hash_is_identity_and_comparison_is_tuple(self):
        assert Gen.__hash__ is object.__hash__
        assert Gen.__eq__ is tuple.__eq__ and Gen.__lt__ is tuple.__lt__
        assert Gen(XM, T2) < Gen(H, U) and Gen(H, T) < Gen(H, T2)


def _in_table(letters):
    """The ``Mono`` the intern table holds for ``letters``, or None: the
    slot of their hash, or the spill table when another value holds it."""
    key = tuple(letters)
    mono = pbw._monos.get(hash(key))
    return mono if mono == key else pbw._mono_spill.get(key)


def _interned(mono):
    return type(mono) is Mono and _in_table(mono) is mono


def _entries(table):
    """The ``((m1, m2), value)`` entries of a pair table kept right factor
    first, ``table[m2][m1]``, as ``_products`` and ``_concats`` are."""
    return [((m1, m2), value) for m2, row in table.items() for m1, value in row.items()]


def _is_letters(obj):
    """A non-empty tuple of ``(Gen, exponent)`` letters: monomial-shaped."""
    return bool(obj) and all(
        type(x) is tuple and len(x) == 2 and type(x[0]) is Gen and type(x[1]) is int
        for x in obj
    )


def _memo_monomials(obj, found):
    """Collect into ``found`` every monomial reachable from ``obj``: each
    ``Mono``, each monomial-shaped tuple (so each monomial of a flat
    normal-form result), each key of a dict held inside a memo table and
    each key of an ``Element.num``.  A dict's values are ints, or, in the
    rows of a pair table, monomials and flat normal forms."""
    if isinstance(obj, Element):
        found.extend(obj.num)
    elif isinstance(obj, dict):
        found.extend(obj)
        for m, c in obj.items():
            assert type(c) is int or isinstance(c, tuple)
            _memo_monomials(m, found)
            _memo_monomials(c, found)
    elif type(obj) is Mono or isinstance(obj, tuple) and _is_letters(obj):
        found.append(obj)
    elif isinstance(obj, tuple) and not isinstance(obj, (ALabel, Multiset, Gen)):
        for item in obj:
            _memo_monomials(item, found)


class TestMonoHashConsing:
    """One object per monomial, as for generators: every way of building a
    monomial that can become a dict key hands back the one ``Mono``, so
    the identity hash it inherits from ``object`` is the value's."""

    def test_every_construction_path_gives_the_one_object(self):
        x, h = Gen(XP, T), Gen(H, U)
        assert Mono(((x, 2),)) is Mono([(x, 2)]) is Mono(Mono(((x, 2),)))
        assert Mono() is ONE and Mono(()) is ONE and _in_table(()) is ONE
        assert all(_interned(m) for m in Element(SL2, {((x, 1),): 1, (): 2}).num)
        (m,) = Element.monomial(SL2, [(h, 1), (x, 2)]).num
        assert m is Mono(((h, 1), (x, 2)))
        assert list(Element.one(SL2).num) == [ONE]
        (m,) = g(SL2, XP, T).num
        assert m is Mono(((x, 1),))
        (m,) = divided_power(SL2, x, 3).num
        assert m is Mono(((x, 3),))
        (m,) = ad_divided(SL2, Gen(XP, U), 1, g(SL2, XM, T)).num
        assert m is Mono(((Gen(H, T), 1),))
        (m,) = root_monomial(1, 0, Multiset({U: 1, T: 2})).num
        assert m is Mono(((Gen(XP, U), 1), (x, 2)))
        data = [{"monomial": [[XP, [1], 1], [H, [0], 1]], "coeff": ["1", "1"]}]
        assert all(_interned(m) for m in Element.from_json(SL2, data).num)

    def test_products_give_the_one_object(self):
        xm, h, xp = Gen(XM, T), Gen(H, U), Gen(XP, T)
        # _mono_product by one letter: a new last letter, a raised
        # exponent, and a rewrite with its prefix
        for mono, gen in (((xm, 1),), h), (((h, 1),), h), (((h, 2), (xp, 3)), xm):
            out = pbw._mono_product(SL2, Mono(mono), Mono(((gen, 1),)))
            assert out and all(_interned(m) for m in out[::2])
        out = pbw._mono_product(SL2, Mono(((h, 1),)), Mono(((h, 1),)))
        assert out == (Mono(((h, 2),)), 1) and out[0] is Mono(((h, 2),))
        # _mono_product: the sorted case, and a rewrite with its rest
        a, b = Mono(((xm, 1),)), Mono(((h, 1), (xp, 2)))
        out = pbw._mono_product(SL2, a, b)
        assert out == (Mono(a + b), 1) and out[0] is Mono(a + b)
        out = pbw._mono_product(SL2, ONE, a)
        assert out == (a, 1) and out[0] is a
        out = pbw._mono_product(SL2, b, Mono(((xm, 2),)))
        assert len(out) > 2 and all(_interned(m) for m in out[::2])
        assert all(_interned(m1) and _interned(m2) for (m1, m2), _ in _entries(SL2._products))
        # _mul_into: the inline sorted concatenation, through Element and Sum
        prod = g(SL2, XM, T) * g(SL2, H, U) * divided_power(SL2, xp, 2)
        assert list(prod.num) == [Mono(((xm, 1), (h, 1), (xp, 2)))]
        acc = Sum(SL2)
        acc.add_product(1, g(SL2, XP, T), g(SL2, XM, T))
        assert all(_interned(m) for m in acc.element().num)

    @pytest.mark.parametrize(
        "protocol", range(pickle.HIGHEST_PROTOCOL + 1), ids=lambda p: "pickle-%d" % p
    )
    def test_pickle_returns_the_one_object(self, protocol):
        for mono in (ONE, Mono(((Gen(XM, U), 1),)), Mono(((Gen(H, T), 2), (Gen(XP, T2), 1)))):
            assert pickle.loads(pickle.dumps(mono, protocol)) is mono

    def test_copy_returns_the_one_object(self):
        mono = Mono(((Gen(XP, T), 4),))
        assert copy.copy(mono) is mono and copy.deepcopy(mono) is mono
        assert list(pickle.loads(pickle.dumps(g(SL2, XP, T))).num) == list(g(SL2, XP, T).num)

    def test_colliding_hashes_keep_one_object_per_value(self, monkeypatch):
        """With every letter tuple hashed to one value, the first monomial
        takes the hash slot and the rest go to the spill table, still one
        object per value, and copies and unpickled values end there too."""
        monkeypatch.setattr(pbw, "hash", lambda letters: 7, raising=False)
        monkeypatch.setattr(pbw, "_monos", {})
        monkeypatch.setattr(pbw, "_mono_spill", {})
        letters = [(), ((Gen(XM, U), 1),), ((Gen(XM, U), 2),), ((Gen(H, T), 1), (Gen(XP, T2), 3))]
        monos = [Mono(x) for x in letters]
        assert len(set(map(id, monos))) == len(monos)
        assert list(pbw._monos) == [7] and pbw._monos[7] is monos[0]
        assert all(pbw._mono_spill[x] is m for x, m in zip(letters[1:], monos[1:]))
        for x, mono in zip(letters, monos):
            assert mono == x and type(mono) is Mono
            assert Mono(x) is mono and Mono(list(x)) is mono and Mono(mono) is mono
            assert copy.copy(mono) is mono and copy.deepcopy(mono) is mono
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(mono, protocol)) is mono
        assert len(pbw._monos) + len(pbw._mono_spill) == len(letters)

    def test_clear_caches_empties_the_concatenations_and_keeps_the_monomials(self):
        prod = g(SL2, XM, T) * g(SL2, XP, ALabel([13]))
        (mono,) = prod.num
        assert pbw._concats
        clear_caches()
        assert not pbw._concats
        assert _in_table(mono) is mono
        assert list((g(SL2, XM, T) * g(SL2, XP, ALabel([13]))).num) == [mono]

    def test_hash_is_identity_and_comparison_is_tuple(self):
        assert Mono.__hash__ is object.__hash__
        assert Mono.__eq__ is tuple.__eq__ and Mono.__lt__ is tuple.__lt__
        a, b = Mono(((Gen(XM, T), 1),)), Mono(((Gen(H, U), 1),))
        assert a < b and ONE < a and a == tuple(a)
        # equal to its plain tuple, but not found under it
        assert tuple(a) not in {a: 1}

    def test_every_monomial_in_the_memo_tables_is_interned(self):
        clear_caches()
        run_suite(["all"], "smoke")
        found = []
        for table in memo._tables:
            for key, value in table.items():
                _memo_monomials(key, found)
                _memo_monomials(value, found)
        assert len(found) > 1000
        bad = [m for m in found if not _interned(m)]
        assert not bad, bad[:3]


E12 = ((0, 1), (0, 0))
E21 = ((0, 0), (1, 0))
H2 = ((1, 0), (0, -1))


def _fresh_sl2():
    return LiePreset("sl2", **_sl_matrices(2))


class TestPresetBuildFailures:
    """Each failure of the preset build, with the brackets solved in one
    elimination."""

    def test_sl2_table_written_out(self):
        assert _fresh_sl2()._brackets == {
            (H, XP): ((XP, 2),),
            (XP, H): ((XP, -2),),
            (H, XM): ((XM, -2),),
            (XM, H): ((XM, 2),),
            (XP, XM): ((H, 1),),
            (XM, XP): ((H, -1),),
        }

    def test_dependent_basis(self):
        with pytest.raises(ValueError, match="dependent columns"):
            LiePreset("bad", ((1,),), (E21,), (H2,), (E21,))

    def test_bracket_outside_the_span(self):
        # diag(1, 0) is not traceless, so [E12, E21] = diag(1, -1) escapes
        with pytest.raises(ValueError, match="leaves the spanned algebra"):
            LiePreset("bad", ((1,),), (E21,), (((1, 0), (0, 0)),), (E12,))

    def test_non_integer_structure_constant(self):
        # [E12, E21] = H = (1/2) * (2H)
        twice_h = ((2, 0), (0, -2))
        with pytest.raises(ValueError, match="non-integer structure constant"):
            LiePreset("bad", ((1,),), (E21,), (twice_h,), (E12,))

    def test_cartan_must_act_diagonally(self):
        # E12 in the Cartan slot: [E12, H] = -2 E12 is no multiple of H
        with pytest.raises(ValueError, match="Cartan action is not diagonal"):
            LiePreset("bad", ((1,),), (E21,), (E12,), (H2,))

    def test_root_vector_pairs_must_bracket_into_cartan(self):
        # x-_a1 = E31 against x+_a1 = E12: [E12, E31] = -E32
        mats = _sl_matrices(3)
        mats["neg_mats"] = [mats["neg_mats"][k] for k in (2, 1, 0)]
        with pytest.raises(ValueError, match="is not Cartan"):
            LiePreset("bad", **mats)

    def test_antisymmetry_is_checked(self):
        preset = _fresh_sl2()
        preset._brackets[(XP, XM)] = ((H, 2),)
        with pytest.raises(ValueError, match="not antisymmetric"):
            preset._validate_table()

    def test_jacobi_is_checked(self):
        # [x+, x-] = x+ stays antisymmetric but breaks Jacobi on (h, x+, x-)
        preset = _fresh_sl2()
        preset._brackets[(XP, XM)] = ((XP, 1),)
        preset._brackets[(XM, XP)] = ((XP, -1),)
        with pytest.raises(ValueError, match="Jacobi identity fails"):
            preset._validate_table()

    def test_solve_integers_solves_each_target_on_its_own(self):
        rng = random.Random(3)
        # half the first column is an integer target with a denominator
        columns = [(2, 0, 2, 0), (0, 1, 1, 0), (3, 1, 0, 2)]
        targets, want = [], []
        for n in range(20):
            coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in columns]
            target = [sum(c * col[r] for c, col in zip(coeffs, columns)) for r in range(4)]
            scale = math.lcm(*(t.denominator for t in target))
            target = [int(t * scale) for t in target]
            coeffs = [c * scale for c in coeffs]
            if n % 3 == 0:
                target[3] += 1  # (0, 0, 0, 1) is off the span of the columns
                coeffs = None
            targets.append(tuple(target))
            want.append(coeffs)
        got = pbw.solve_integers(columns, targets)
        assert [s is None for s in got] == [w is None for w in want]
        dens = []
        for target, solution, coeffs in zip(targets, got, want):
            if solution is None:
                continue
            sums, den = solution
            assert den >= 1 and math.gcd(den, *sums) == 1
            assert all(type(c) is int for c in sums)
            assert [Fraction(c, den) for c in sums] == coeffs
            rebuilt = [sum(c * col[r] for c, col in zip(sums, columns)) for r in range(4)]
            assert rebuilt == [den * t for t in target]
            dens.append(den)
        assert 1 in dens and max(dens) > 1

    def test_solve_integers_refuses_dependent_columns(self):
        with pytest.raises(ValueError, match="dependent columns"):
            pbw.solve_integers([(1, 2, 3), (0, 1, 1), (2, 5, 7)], [(1, 2, 3)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_bracket_rebuilds_its_commutator(self, n):
        """Checked on the matrices themselves, without the solver: each
        table entry, summed over the basis matrices, is ``[a, b]``."""
        kwargs = _sl_matrices(n)
        preset = LiePreset("sl%d" % n, **kwargs)
        mats = kwargs["neg_mats"] + kwargs["cartan_mats"] + kwargs["pos_mats"]

        def product(a, b):
            return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                ab, ba = product(a, b), product(b, a)
                want = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(ab, ba)]
                got = [[0] * n for _ in range(n)]
                for k, c in preset.bracket_pairs(i, j):
                    assert type(c) is int and c
                    got = [[x + c * y for x, y in zip(r1, r2)] for r1, r2 in zip(got, mats[k])]
                assert got == want, (i, j)


def _e3(i, j):
    return tuple(tuple(int((r, c) == (i, j)) for c in range(3)) for r in range(3))


def _d3(i, j):
    return tuple(
        tuple(x - y for x, y in zip(ri, rj)) for ri, rj in zip(_e3(i, i), _e3(j, j))
    )


# sl3 as it was written out by hand before the builder
SL3_BY_HAND = dict(
    positive_roots=((1, 0), (0, 1), (1, 1)),
    neg_mats=(_e3(1, 0), _e3(2, 1), _e3(2, 0)),
    cartan_mats=(_d3(0, 1), _d3(1, 2)),
    pos_mats=(_e3(0, 1), _e3(1, 2), _e3(0, 2)),
)

DERIVED = (
    "rank", "m", "dim", "positive_roots", "_brackets", "_pairing", "_coroots",
    "_simple_roots", "_root_sum",
)


class TestSlMatrices:
    """Every preset is sl_n from ``_sl_matrices(n)``; the names accepted
    are those of ``PRESETS`` alone."""

    def test_sl3_matches_the_hand_written_matrices(self):
        by_hand = LiePreset("sl3", **SL3_BY_HAND)
        built = _sl_matrices(3)
        assert built == {k: list(v) for k, v in SL3_BY_HAND.items()}
        for attr in DERIVED:
            assert getattr(SL3, attr) == getattr(by_hand, attr), attr

    def test_sl4_builds_with_roots_by_height(self):
        sl4 = LiePreset("sl4", **_sl_matrices(4))
        assert (sl4.rank, sl4.m, sl4.dim) == (3, 6, 15)
        assert sl4.positive_roots == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1)
        )
        assert sl4._simple_roots == (0, 1, 2)
        cartan = [[sl4.pairing(sl4.simple_root_index(j), i) for i in range(3)] for j in range(3)]
        assert cartan == [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
        assert sl4.root_sum_index(3, 2) == 5 and sl4.root_sum_index(0, 2) is None

    def test_only_the_table_names_are_presets(self):
        assert list(pbw.PRESETS) == ["sl2", "sl3"]
        with pytest.raises(ValueError, match="'sl4' \\(expected sl2 or sl3\\)"):
            make_preset("sl4")

    def test_cli_refuses_sl4(self, capsys):
        out = io.StringIO()
        assert main(["basis", "--algebra", "sl4"], out=out) == 2
        assert out.getvalue() == "" and capsys.readouterr().out == ""


class TestElementRefusesOffNormalForm:
    """``Element(preset, terms)`` takes only monomials in normal form: the
    internal paths never build another, so one that gets in stays unequal
    to its own value."""

    @pytest.mark.parametrize(
        "mono",
        [
            ((Gen(XP, T), 1), (Gen(XM, T), 1)),
            ((Gen(XP, T), 1), (Gen(XP, T), 2)),
            ((Gen(XP, T), 0),),
            ((Gen(XP, T), -1),),
            ((Gen(XP, T), 1.0),),
            ((Gen(XP, T), True),),
            ((Gen(9, T), 1),),
            ((Gen(-1, T), 1),),
        ],
        ids=[
            "unsorted", "repeated", "zero-exp", "negative-exp", "float-exp", "bool-exp",
            "index-past-end", "negative-index",
        ],
    )
    def test_refused(self, mono):
        interned = len(pbw._monos)
        with pytest.raises(ValueError):
            Element(SL2, {mono: 1})
        with pytest.raises(ValueError):
            Element.monomial(SL2, mono)
        assert len(pbw._monos) == interned


class TestScalarsAreRational:
    """A coefficient or scalar is a ``numbers.Rational`` other than a bool:
    a float is not read as its binary expansion, a string is not parsed, and
    ``True`` is not 1."""

    MONO = ((Gen(XP, T), 1),)

    @pytest.mark.parametrize("bad", [0.1, 0.5, "1/3", "2", True, False, None], ids=repr)
    def test_constructor_refuses(self, bad):
        with pytest.raises(TypeError):
            Element(SL2, {self.MONO: bad})
        with pytest.raises(TypeError):
            Element.monomial(SL2, self.MONO, bad)

    @pytest.mark.parametrize("bad", [0.5, True, False], ids=repr)
    def test_arithmetic_refuses(self, bad):
        x = g(SL2, XP, T)
        for op in (lambda: x * bad, lambda: bad * x, lambda: x / bad):
            with pytest.raises(TypeError):
                op()

    def test_ints_and_fractions_are_taken(self):
        x = g(SL2, XP, T)
        assert Element(SL2, {self.MONO: 3}) == 3 * x == x * 3
        third = Element(SL2, {self.MONO: Fraction(1, 3)})
        assert (third.num, third.den) == ({Mono(self.MONO): 1}, 3)
        assert third == x / 3 == x * Fraction(1, 3)
        assert Element.monomial(SL2, self.MONO, Fraction(-2, 4)) == x * Fraction(-1, 2)
        assert Element(SL2, {self.MONO: 0}) is Element.zero(SL2)


# Each entry point that takes an integer count, as a function of that count.
_INTEGER_ARGUMENTS = {
    "label-exponent": lambda k: ALabel((k,)),
    "multiplicity": lambda k: Multiset([(T, k)]),
    "single-multiplicity": lambda k: Multiset.single(T, k),
    "label-power": lambda k: T**k,
    "multiset-scale": lambda k: Multiset({T: 1}).scale(k),
    "element-power": lambda k: g(SL2, XP, T) ** k,
    "divided-power": lambda k: divided_power(SL2, Gen(XP, T), k),
    "binom-element": lambda k: binom_element(g(SL2, H, U), k),
    "ad-divided": lambda k: ad_divided(SL2, Gen(XP, U), k, g(SL2, XM, T)),
}


class TestIntegerArguments:
    """A count given as a float or a bool is refused, never truncated with
    ``int()``: 1.5 is not 1 and ``True`` is not 1."""

    @pytest.mark.parametrize("build", _INTEGER_ARGUMENTS.values(), ids=_INTEGER_ARGUMENTS)
    def test_refused(self, build):
        build(1)
        build(2)
        for bad in (1.5, 2.0, 2.7, True):
            with pytest.raises(TypeError):
                build(bad)


class TestMul:
    def test_sl2_relation(self):
        lhs = g(SL2, XP, U) * g(SL2, XM, U)
        rhs = g(SL2, XM, U) * g(SL2, XP, U) + g(SL2, H, U)
        assert lhs == rhs

    def test_cartan_past_raising_with_labels(self):
        lhs = g(SL2, H, T) * g(SL2, XP, T)
        rhs = g(SL2, XP, T) * g(SL2, H, T) + 2 * g(SL2, XP, T2)
        assert lhs == rhs

    def test_cancelled_term_is_dropped(self):
        """(x+ - x-)(x+ + x-) = x+^2 + h - x-^2: the x- x+ terms cancel in
        the straightening loop, and the product keeps no zero numerator."""
        xp, xm = g(SL2, XP, U), g(SL2, XM, U)
        prod = (xp - xm) * (xp + xm)
        assert prod == xp * xp + g(SL2, H, U) - xm * xm
        assert len(prod.num) == 3 and 0 not in prod.num.values()

    def test_commuting_pair_stays_single(self):
        prod = g(SL2, XM, U) * g(SL2, XM, T)
        assert len(prod.terms) == 1
        ((mono, coeff),) = prod.terms.items()
        assert coeff == 1
        assert mono == ((Gen(XM, U), 1), (Gen(XM, T), 1))

    def test_preset_mismatch(self):
        with pytest.raises(ValueError):
            g(SL2, XP, U) * g(SL3, 0, U)

    def test_bilinear(self):
        a = g(SL2, XP, U) + 2 * g(SL2, H, T)
        b = g(SL2, XM, T) - g(SL2, XP, T2)
        c = g(SL2, H, U)
        assert a * (b + c) == a * b + a * c
        assert (Fraction(1, 2) * a) * b == Fraction(1, 2) * (a * b)

    def test_bracket_closure_degree_one(self):
        rng = random.Random(7)
        pool = [Gen(i, lab) for i in range(3) for lab in (U, T, T2)]
        for _ in range(40):
            u = g(SL2, *rng.choice(pool))
            v = g(SL2, *rng.choice(pool))
            comm = u * v - v * u
            assert comm.is_zero() or comm.degree() <= 1


def _normalize_rightmost(preset, word, memo=None):
    """Independent oracle: rightmost-inversion rewriting of whole words.

    It shares no code or cache with the engine; ``memo``, when given, is a
    dict owned by the caller, so long words stay affordable in one test."""
    if memo is not None and word in memo:
        return memo[word]
    for i in reversed(range(len(word) - 1)):
        if word[i] > word[i + 1]:
            out = {}
            swapped = word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
            for m, c in _normalize_rightmost(preset, swapped, memo).items():
                out[m] = out.get(m, 0) + c
            lab = word[i].label * word[i + 1].label
            for k, cc in preset.bracket_pairs(word[i].index, word[i + 1].index):
                shorter = word[:i] + (Gen(k, lab),) + word[i + 2 :]
                for m, c in _normalize_rightmost(preset, shorter, memo).items():
                    out[m] = out.get(m, 0) + cc * c
            out = {m: c for m, c in out.items() if c}
            if memo is not None:
                memo[word] = out
            return out
    mono = []
    for letter in word:
        if mono and mono[-1][0] == letter:
            mono[-1][1] += 1
        else:
            mono.append([letter, 1])
    return {tuple((x, e) for x, e in mono): Fraction(1)}


def _flat_word(mono):
    return tuple(x for x, e in mono for _ in range(e))


def _oracle_product(u, v, memo):
    """``u * v`` through the word oracle, pair of monomials by pair."""
    out = Element.zero(u.preset)
    for m1, a in u.terms.items():
        for m2, b in v.terms.items():
            word = _flat_word(m1) + _flat_word(m2)
            out = out + a * b * Element(u.preset, _normalize_rightmost(u.preset, word, memo))
    return out


def _run_element(rng, preset, labels, runs, max_exp, terms):
    """A sum of ``terms`` monomials, each up to ``runs`` sorted exponent runs
    (a product of divided powers of distinct generators)."""
    pool = [Gen(i, lab) for i in range(preset.dim) for lab in labels]
    out = {}
    while len(out) < terms:
        gens = sorted(rng.sample(pool, rng.randint(1, runs)))
        mono = tuple((x, rng.randint(1, max_exp)) for x in gens)
        out[mono] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 6]))
    return Element(preset, out)


class TestNormalization:
    def test_against_independent_normalizer(self):
        rng = random.Random(11)
        pool = [Gen(i, lab) for i in range(3) for lab in (U, T)]
        for _ in range(60):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 5)))
            via_engine = Element.one(SL2)
            for letter in word:
                via_engine = via_engine * g(SL2, *letter)
            oracle = Element(SL2, _normalize_rightmost(SL2, word))
            assert via_engine == oracle

    def test_against_independent_normalizer_sl3(self):
        rng = random.Random(11)
        pool = [Gen(i, lab) for i in range(SL3.dim) for lab in (U, T)]
        for _ in range(80):
            word = tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))
            via_engine = Element.one(SL3)
            for letter in word:
                via_engine = via_engine * g(SL3, *letter)
            oracle = Element(SL3, _normalize_rightmost(SL3, word))
            assert via_engine == oracle

    @pytest.mark.parametrize("preset", [SL2, SL3], ids=["sl2", "sl3"])
    def test_divided_power_products_against_oracle(self, preset):
        # up to three divided powers of degree <= 4 in any order: words of
        # up to 12 letters, as in the integrality ``product`` kind
        rng = random.Random(17)
        memo = {}
        roots = [preset.root_index(sign, a) for sign in (1, -1) for a in range(preset.m)]
        for _ in range(25 if preset is SL2 else 12):
            factors = [
                (Gen(rng.choice(roots), rng.choice((U, T))), rng.randint(1, 4))
                for _ in range(rng.randint(2, 3))
            ]
            via_engine = Element.one(preset)
            word = ()
            scale = 1
            for x, r in factors:
                via_engine = via_engine * divided_power(preset, x, r)
                word += (x,) * r
                scale *= math.factorial(r)
            oracle = Element(preset, _normalize_rightmost(preset, word, memo)) / scale
            assert via_engine == oracle

    @pytest.mark.parametrize("preset", [SL2, SL3], ids=["sl2", "sl3"])
    def test_multi_term_run_products_against_oracle(self, preset):
        rng = random.Random(19)
        memo = {}
        max_exp = 3 if preset is SL2 else 2
        for _ in range(20 if preset is SL2 else 10):
            u = _run_element(rng, preset, (U, T), 2, max_exp, 3)
            v = _run_element(rng, preset, (U, T), 2, max_exp, 2)
            assert len(u.num) > 1 and len(v.num) > 1
            assert any(e > 1 for m in list(u.num) + list(v.num) for _, e in m)
            assert u * v == _oracle_product(u, v, memo)

    @pytest.mark.parametrize("preset", [SL2, SL3], ids=["sl2", "sl3"])
    def test_associativity_with_exponent_runs(self, preset):
        rng = random.Random(23)
        for _ in range(20 if preset is SL2 else 10):
            u, v, w = (_run_element(rng, preset, (U, T), 2, 3, 2) for _ in range(3))
            assert (u * v) * w == u * (v * w)

    def test_left_right_words(self):
        pool = [Gen(i, lab) for i in range(3) for lab in (U, T)]
        for word in itertools.product(pool, repeat=3):
            left = Element.one(SL2)
            for letter in word:
                left = left * g(SL2, *letter)
            right = Element.one(SL2)
            for letter in reversed(word):
                right = g(SL2, *letter) * right
            assert left == right

    def test_associativity_random(self):
        rng = random.Random(13)
        pool = [Gen(i, lab) for i in range(3) for lab in (U, T)]

        def rand_elem():
            out = Element.zero(SL2)
            for _ in range(rng.randint(1, 2)):
                term = Element.one(SL2)
                for _ in range(rng.randint(1, 2)):
                    term = term * g(SL2, *rng.choice(pool))
                out = out + rng.choice([-2, -1, 1, 2]) * term
            return out

        for _ in range(50):
            u, v, w = rand_elem(), rand_elem(), rand_elem()
            assert (u * v) * w == u * (v * w)

    def test_sl3_simple_root_bracket(self):
        xp1 = g(SL3, SL3.pos_index(0), T)
        xp2 = g(SL3, SL3.pos_index(1), T)
        comm = xp1 * xp2 - xp2 * xp1
        assert len(comm.terms) == 1
        ((mono, coeff),) = comm.terms.items()
        assert mono == ((Gen(SL3.pos_index(2), T2), 1),)
        assert coeff in (1, -1)


class TestFlatNormalForms:
    """Every memoised product is one flat tuple ``(m1, c1, m2, c2, ...)``
    of interned monomials and nonzero ints."""

    @staticmethod
    def _smoke_checks():
        """Run the smoke checks one at a time, starting from cold caches,
        and yield after each: the normal-form tables then hold that check's
        forms only."""
        clear_caches()
        for name in check_names():
            assert run_check(make_spec(name, "smoke")).passed
            yield name

    def test_layout_of_every_table_entry(self):
        filled = set()
        for name in self._smoke_checks():
            warm = {}
            for preset in (SL2, SL3):
                table = preset._products
                for _, form in _entries(table):
                    assert type(form) is tuple and len(form) >= 2 and len(form) % 2 == 0
                    monos, coeffs = form[::2], form[1::2]
                    assert all(_interned(m) for m in monos)
                    assert len(set(map(id, monos))) == len(monos)
                    assert all(type(c) is int and c for c in coeffs)
                if table:
                    filled.add(preset)
                warm[preset] = _entries(table)
            clear_caches()
            for preset, products in warm.items():
                assert not preset._products
                for (m1, m2), form in products:
                    assert pbw._mono_product(preset, m1, m2) == form, name
        assert filled == {SL2, SL3}

    def test_only_pairs_out_of_order_are_stored(self):
        filled = set()
        for name in self._smoke_checks():
            for preset in (SL2, SL3):
                assert all(
                    m1[-1][0] > m2[0][0] for (m1, m2), _ in _entries(preset._products)
                ), name
                if preset._products:
                    filled.add(preset)
        assert filled == {SL2, SL3}
        clear_caches()
        xp, ht = Gen(XP, T), Gen(H, T)
        prod = divided_power(SL2, xp, 2) * divided_power(SL2, xp, 3)
        assert prod == 10 * divided_power(SL2, xp, 5)
        assert g(SL2, H, T) * g(SL2, H, T) == Element.monomial(SL2, [(ht, 2)])
        assert pbw._mono_product(SL2, Mono(((xp, 2),)), Mono(((xp, 3),))) == (
            Mono(((xp, 5),)),
            1,
        )
        assert not SL2._products
        assert pbw._concats[Mono(((ht, 1),))][Mono(((ht, 1),))] is Mono(((ht, 2),))

    def test_an_empty_factor_is_not_joined_through_the_table(self):
        """A pair with the empty monomial gives the other factor as it is,
        with no ``_concats`` entry."""
        clear_caches()
        x = g(SL2, XM, T) + divided_power(SL2, Gen(XP, U), 2) + 3 * Element.one(SL2)
        one = Element.one(SL2)
        assert one * x == x == x * one
        acc = Sum(SL2)
        acc.add_product(2, one, x)
        acc.add_product(-1, x, one)
        assert acc.element() == x
        assert not pbw._concats
        assert x * x and pbw._concats
        assert not any(ONE in row for row in pbw._concats.values())
        assert ONE not in pbw._concats

    def test_normal_forms_live_for_one_check(self):
        """After straightening then self-consistency the check tables of
        the registry (the normal forms among them) hold what
        self-consistency alone builds from cold caches, while the block
        table keeps straightening's entries."""

        def check_tables():
            return [dict(table) for table in memo._check_tables]

        clear_caches()
        run_suite(["straightening"], "smoke")
        blocks = dict(forms._root_block.table)
        clear_caches()
        run_suite(["self-consistency"], "smoke")
        cold = check_tables()
        assert SL2._products and pbw._concats and not forms._root_block.table
        assert any(t is SL2._products for t in memo._check_tables)
        assert any(t is pbw._concats for t in memo._check_tables)
        clear_caches()
        run_suite(["straightening", "self-consistency"], "smoke")
        assert check_tables() == cold
        assert blocks and blocks.items() <= forms._root_block.table.items()

    @pytest.mark.parametrize(
        "preset, max_degree, count", [(SL2, 2, 28), (SL3, 1, 17)], ids=["sl2", "sl3"]
    )
    def test_basis_products_against_oracle(self, preset, max_degree, count):
        # every product of two basis elements: long left factors, as in the
        # closure of the integral form under products
        basis = [basis_element(preset, idx) for idx in enumerate_basis(preset, max_degree, 1)]
        assert len(basis) == count
        words = {}
        for u in basis:
            for v in basis:
                prod = u * v
                assert prod == _oracle_product(u, v, words)
                assert reduce_to_basis(prod).integral


def _chained(terms, preset):
    """The sum of ``k * x * y`` (or ``k * x`` when ``y`` is None) by
    chained ``+`` and ``*``."""
    out = Element.zero(preset)
    for k, x, y in terms:
        out = out + k * (x if y is None else x * y)
    return out


def _summed(terms, preset, div=1):
    acc = Sum(preset)
    for k, x, y in terms:
        if y is None:
            acc.add(k, x)
        else:
            acc.add_product(k, x, y)
    return acc.element(div)


def _assert_canonical(elem):
    assert type(elem.den) is int and elem.den > 0
    assert math.gcd(elem.den, *elem.num.values()) == 1
    assert all(type(c) is int and c for c in elem.num.values())


class TestSum:
    @pytest.mark.parametrize("preset", [SL2, SL3], ids=["sl2", "sl3"])
    def test_matches_chained_arithmetic_and_the_oracle(self, preset):
        rng = random.Random(29)
        memo = {}
        scalars = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6)]
        for _ in range(8 if preset is SL2 else 4):
            terms = []
            for _ in range(rng.randint(1, 4)):
                x = _run_element(rng, preset, (U, T), 2, 2, rng.randint(1, 2))
                y = _run_element(rng, preset, (U, T), 2, 2, rng.randint(1, 2))
                terms.append((rng.choice(scalars), x, y if rng.random() < 0.7 else None))
            got = _summed(terms, preset)
            _assert_canonical(got)
            assert got == _chained(terms, preset)
            oracle = Element.zero(preset)
            for k, x, y in terms:
                oracle = oracle + k * (x if y is None else _oracle_product(x, y, memo))
            assert got == oracle

    def test_rescale_between_products_keeps_earlier_terms(self):
        # the second product's denominator 3 does not divide the running 2,
        # so the numerators of the first must be scaled, not dropped
        a = Fraction(1, 2) * g(SL2, XP, T)
        b = g(SL2, XM, U)
        c = Fraction(1, 3) * g(SL2, XP, U)
        d = g(SL2, XM, T)
        terms = [(1, a, b), (1, c, d)]
        got = _summed(terms, SL2)
        assert got == a * b + c * d
        assert got.den == 6
        # and once more with a scalar's denominator forcing the rescale
        terms = [(Fraction(1, 2), b, a), (Fraction(1, 5), d, c), (3, a, c)]
        assert _summed(terms, SL2) == _chained(terms, SL2)

    def test_full_cancellation_is_canonical_zero(self):
        x = Fraction(1, 2) * g(SL2, XP, T) + g(SL2, H, U)
        y = Fraction(2, 3) * g(SL2, XM, U)
        for terms in (
            [(1, x, y), (-1, x, y)],
            [(Fraction(1, 7), x, y), (3, y, x), (Fraction(-1, 7), x, y), (-3, y, x)],
            [(Fraction(1, 3), x, None), (Fraction(-1, 3), x, None)],
        ):
            for div in (1, 4):
                zero = _summed(terms, SL2, div)
                assert zero.num == {} and zero.den == 1
        assert _summed([], SL2).num == {} and _summed([], SL2).den == 1

    def test_element_divides_into_canonical_storage(self):
        x = 2 * g(SL2, XP, T) + 4 * g(SL2, H, U)
        y = Fraction(3, 2) * g(SL2, XM, U)
        terms = [(3, x, y), (2, x, None)]
        for div in (1, 2, 3, 6, 12):
            got = _summed(terms, SL2, div)
            _assert_canonical(got)
            assert got == _chained(terms, SL2) / div

    def test_preset_mismatch(self):
        acc = Sum(SL2)
        with pytest.raises(ValueError):
            acc.add(1, g(SL3, 0, U))
        with pytest.raises(ValueError):
            acc.add_product(1, g(SL3, 0, U), g(SL2, XP, U))
        with pytest.raises(ValueError):
            acc.add_product(1, g(SL2, XP, U), g(SL3, 0, U))


class TestUnit:
    """Each algebra has one unit, built with its preset.  After the preset
    test, a product with it is the other factor itself, and
    ``Sum.add_product`` with it is one ``Sum.add``."""

    def test_one_is_shared(self):
        for preset in (SL2, SL3):
            one = Element.one(preset)
            assert Element.one(preset) is one and one.preset is preset
            assert one.num == {ONE: 1} and one.den == 1
        assert Element.one(SL2) is not Element.one(SL3)

    def test_product_with_one_is_the_other_factor(self):
        one = Element.one(SL2)
        for x in (
            g(SL2, XP, T),
            Fraction(1, 2) * g(SL2, H, U) - g(SL2, XM, T2) * g(SL2, XP, U),
            Element.zero(SL2),
            one,
        ):
            assert x * one is x and one * x is x
        assert one * Fraction(3, 2) == Element(SL2, {(): Fraction(3, 2)})
        assert divided_power(SL2, Gen(XP, T), 0) is one
        assert g(SL2, XM, U) ** 1 is not one and g(SL2, XM, U) ** 0 is one

    def test_sum_equal_to_one_is_the_unit(self):
        one, x = Element.one(SL3), g(SL3, 4, T)
        assert (one + x) - x is one
        assert Fraction(1, 2) * one + Fraction(1, 2) * one is one
        assert Fraction(1, 2) * one is not one

    def test_foreign_unit_is_refused(self):
        one2, one3, x3 = Element.one(SL2), Element.one(SL3), g(SL3, 0, U)
        for x, y in ((one2, x3), (x3, one2), (one2, one3)):
            with pytest.raises(ValueError, match="preset mismatch"):
                x * y
            for acc in (Sum(SL2), Sum(SL3)):
                with pytest.raises(ValueError, match="preset mismatch"):
                    acc.add_product(1, x, y)

    @pytest.mark.parametrize("k", [3, Fraction(-2, 3)], ids=["int", "Fraction"])
    def test_add_product_with_one_is_add(self, k, monkeypatch):
        one = Element.one(SL2)
        y = Fraction(1, 2) * g(SL2, XP, T) + g(SL2, H, U)
        before = Fraction(1, 5) * g(SL2, XM, U)
        calls = []
        real = pbw._mul_into
        monkeypatch.setattr(pbw, "_mul_into", lambda *args: calls.append(args) or real(*args))
        for x1, y1 in ((one, y), (y, one)):
            got, want = Sum(SL2), Sum(SL2)
            got.add(1, before)
            want.add(1, before)
            got.add_product(k, x1, y1)
            want.add(k, y)
            assert (got.num, got.den) == (want.num, want.den)
            assert got.element() == want.element() == before + k * y
        assert calls == []

    def test_no_unit_reaches_the_straightening_loop(self, monkeypatch):
        """Over a smoke suite from cold tables, no product that reaches
        ``_mul_into`` has a factor whose numerators are ``{ONE: 1}``: every
        unit the checks multiply by is the shared one."""
        seen = []
        real = pbw._mul_into

        def spy(preset, num, f, x, y):
            seen.append(x == {ONE: 1} or y == {ONE: 1})
            return real(preset, num, f, x, y)

        monkeypatch.setattr(pbw, "_mul_into", spy)
        clear_caches()
        assert all(report.passed for report in run_suite(["all"], "smoke"))
        assert seen and not any(seen)


class TestDividedPowers:
    def test_definition(self):
        dp = divided_power(SL2, Gen(XP, T), 3)
        assert dp.terms == {Mono(((Gen(XP, T), 3),)): Fraction(1, 6)}

    def test_zero_power(self):
        assert divided_power(SL2, Gen(XP, T), 0) == Element.one(SL2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            divided_power(SL2, Gen(XP, T), -1)

    def test_product_law(self):
        for index in (XM, H, XP):
            gen = Gen(index, T)
            for r in range(5):
                for s in range(5 - r):
                    lhs = divided_power(SL2, gen, r) * divided_power(SL2, gen, s)
                    rhs = binom_int(r + s, r) * divided_power(SL2, gen, r + s)
                    assert lhs == rhs

    def test_binom_element(self):
        h = g(SL2, H, U)
        expect = Fraction(1, 2) * (h * h) - Fraction(1, 2) * h
        assert binom_element(h, 2) == expect
        assert binom_element(h, 0) == Element.one(SL2)
        assert binom_element(h, 1) == h


class TestDegree:
    def test_examples(self):
        assert g(SL2, H, U).degree() == 1
        mixed = g(SL2, XM, U) * g(SL2, XP, T) + g(SL2, H, T)
        assert mixed.degree() == 2
        assert divided_power(SL2, Gen(XP, T), 5).degree() == 5

    def test_zero_sentinel(self):
        assert Element.zero(SL2).degree() is None


class TestOmega:
    def test_generator_images(self):
        assert omega(0, g(SL2, XP, T), SL3) == g(SL3, SL3.pos_index(0), T)
        assert omega(1, g(SL2, XM, T2), SL3) == g(SL3, SL3.neg_index(1), T2)

    def test_highest_root_coroot(self):
        image = omega(2, g(SL2, H, U), SL3)
        assert image == g(SL3, SL3.cartan_index(0), U) + g(SL3, SL3.cartan_index(1), U)

    def test_homomorphism_random(self):
        rng = random.Random(5)
        pool = [Gen(i, lab) for i in range(3) for lab in (U, T)]

        def rand_elem():
            out = Element.zero(SL2)
            for _ in range(rng.randint(1, 2)):
                term = Element.one(SL2)
                for _ in range(rng.randint(1, 2)):
                    term = term * g(SL2, *rng.choice(pool))
                out = out + rng.choice([-2, 1, 3]) * term
            return out

        for alpha in range(3):
            for _ in range(15):
                u, v = rand_elem(), rand_elem()
                assert omega(alpha, u * v, SL3) == omega(alpha, u, SL3) * omega(
                    alpha, v, SL3
                )

    def test_preserves_degree_and_integrality(self):
        u = g(SL2, H, U) * g(SL2, H, T) + 3 * g(SL2, XP, T)
        for alpha in range(3):
            image = omega(alpha, u, SL3)
            assert image.degree() == u.degree()
            assert image.den == 1

    def test_requires_sl2_source(self):
        with pytest.raises(ValueError):
            omega(0, g(SL3, 0, U), SL3)

    def test_invalid_root(self):
        with pytest.raises(ValueError):
            omega(5, g(SL2, XP, U), SL3)


class TestAdDivided:
    def test_single_bracket(self):
        got = ad_divided(SL2, Gen(XP, U), 1, g(SL2, XM, T))
        assert got == g(SL2, H, T)

    def test_square_halved(self):
        got = ad_divided(SL2, Gen(XP, U), 2, g(SL2, XM, T))
        assert got == -g(SL2, XP, T)

    def test_nilpotent(self):
        got = ad_divided(SL2, Gen(XP, U), 3, g(SL2, XM, T))
        assert got.is_zero()

    def test_zero_power_is_identity(self):
        v = g(SL2, XM, T) + 2 * g(SL2, H, U)
        assert ad_divided(SL2, Gen(XP, U), 0, v) == v

    def test_rejects_higher_degree(self):
        with pytest.raises(ValueError):
            ad_divided(SL2, Gen(XP, U), 1, g(SL2, XM, T) * g(SL2, XM, U))

    def test_integer_coordinates_preserved(self):
        for sign_index in (XM, XP):
            for b in (U, T):
                for r in range(5):
                    for z in range(3):
                        for c in (U, T):
                            got = ad_divided(SL2, Gen(sign_index, b), r, g(SL2, z, c))
                            assert got.den == 1


class TestElementInterface:
    def test_json_round_trip(self):
        elem = Fraction(1, 2) * (g(SL2, H, U) * g(SL2, H, U)) - 3 * g(SL2, XP, T)
        assert Element.from_json(SL2, elem.to_json()) == elem

    def test_json_normalizes_unsorted_products(self):
        data = [
            {
                "monomial": [[XP, [0], 1], [XM, [0], 1]],
                "coeff": ["1", "1"],
            }
        ]
        assert Element.from_json(SL2, data) == g(SL2, XP, U) * g(SL2, XM, U)

    def test_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            Element.from_json(SL2, [{"monomial": [[0, [0], 0]], "coeff": ["1", "1"]}])
        with pytest.raises(ValueError):
            Element.from_json(SL2, {"not": "a list"})

    def test_json_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            Element.from_json(SL2, [{"monomial": [[1, [0], 1]], "coeff": ["1", "0"]}])

    def test_render(self):
        assert Element.zero(SL2).render() == "0"
        assert Element.one(SL2).render() == "1"
        assert (-g(SL2, H, U)).render() == "-1 (h_1⊗1)"
        dp = divided_power(SL2, Gen(XP, T), 2)
        assert dp.render() == "(1/2) (x+_a1⊗t)^2"

    def test_pow(self):
        h = g(SL2, H, U)
        assert h**0 == Element.one(SL2)
        assert h**3 == h * h * h


class TestIntegerCheckPath:
    """A check runs on integers: only the views that return a ``Fraction``
    build one."""

    def test_a_check_process_never_imports_fractions(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(pbw.__file__)))
        code = (
            "import sys\n"
            "import mapalg.cli\n"
            "from mapalg.identities import run_suite\n"
            "assert all(report.passed for report in run_suite(['all'], 'smoke'))\n"
            "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["[]"]

    def test_the_edges_return_fractions(self):
        x = Fraction(1, 2) * g(SL2, XP, T) + 3 * g(SL2, H, U)
        assert all(type(c) is Fraction for c in x.terms.values())
        assert x.terms == {Mono(((Gen(H, U), 1),)): 3, Mono(((Gen(XP, T), 1),)): Fraction(1, 2)}
        back = Element.from_json(SL2, x.to_json())
        assert back == x and all(type(c) is Fraction for c in back.terms.values())
        result = reduce_to_basis(divided_power(SL2, Gen(XP, T), 2) / 3)
        assert [c for _, c in result.terms] == [Fraction(1, 3)]
        assert type(result.terms[0][1]) is Fraction and not result.integral

    def test_division_by_a_rational(self):
        x = Fraction(1, 2) * g(SL2, XP, T) + Fraction(2, 3) * g(SL2, H, U)
        assert x / Fraction(-2, 3) == x * Fraction(-3, 2)
        assert x / -4 == x * Fraction(-1, 4) and (x / 1) == x
        assert Element.zero(SL2) / 5 is Element.zero(SL2)
        for zero in (0, Fraction(0)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        with pytest.raises(TypeError):
            x / 0.5


class TestRepresentation:
    def test_pickle_round_trip(self):
        gen = Gen(XP, ALabel([2]))
        assert pickle.loads(pickle.dumps(gen)) == gen
        elem = Fraction(1, 3) * g(SL3, 0, T) * g(SL3, 5, T2) - 2 * g(SL3, 3, U)
        back = pickle.loads(pickle.dumps(elem))
        assert back.terms == elem.terms
        assert back.preset.name == "sl3"

    def test_normal_form_cache_holds_ints(self):
        a = g(SL3, 5, T) * g(SL3, 4, U) * g(SL3, 0, T2)
        b = divided_power(SL2, Gen(XP, T), 3) * divided_power(SL2, Gen(XM, U), 3)
        assert a and b
        for preset in (SL2, SL3):
            assert preset._products
            for _, form in _entries(preset._products):
                assert all(type(c) is int and c for c in form[1::2])

    def test_arithmetic_keeps_nonzero_fractions(self):
        x = Fraction(1, 2) * g(SL2, XP, T) + Fraction(2, 3) * g(SL2, H, U)
        y = Fraction(3, 4) * g(SL2, XM, U) - Fraction(2, 3) * g(SL2, H, U)
        results = [x * y, y * x, x + y, x - y, x - x, x * 0, x * Fraction(5, 7), 3 * y, x / 6]
        results.append(divided_power(SL2, Gen(XP, U), 2) * divided_power(SL2, Gen(XM, U), 2))
        h, ht = g(SL2, H, U), g(SL2, H, T)
        results.append((h + ht) * (h - ht))  # the cross terms cancel inside the product
        assert not (x - x).terms and not (x * 0).terms
        assert Mono(((Gen(H, U), 1),)) in x.num and Mono(((Gen(H, U), 1),)) in y.num
        assert not (x + y).terms.get(Mono(((Gen(H, U), 1),)))
        for elem in results:
            for c in elem.terms.values():
                assert type(c) is Fraction and c != 0

    def test_pickle_keeps_preset_singleton(self):
        for preset in (SL2, SL3):
            elem = Fraction(1, 2) * g(preset, 0, T) + g(preset, 1, U)
            back = pickle.loads(pickle.dumps(elem))
            assert back.preset is preset
            assert back * elem == elem * elem
            assert pickle.loads(pickle.dumps(preset)) is preset

    def test_canonical_storage(self):
        x = Fraction(1, 2) * g(SL2, XP, T) + Fraction(2, 3) * g(SL2, H, U)
        assert (x / 6) * 3 == x / 2
        zero = x - x
        assert zero.num == {} and zero.den == 1
        assert x.den == 6 and x.num == {Mono(((Gen(XP, T), 1),)): 3, Mono(((Gen(H, U), 1),)): 4}

    def test_arithmetic_keeps_reduced_storage(self):
        x = Fraction(1, 2) * g(SL2, XP, T) + Fraction(2, 3) * g(SL2, H, U)
        y = Fraction(3, 4) * g(SL2, XM, U) - Fraction(2, 3) * g(SL2, H, U)
        results = [x * y, y * x, x + y, x - y, x - x, x * 0, x * Fraction(5, 7), 3 * y, x / 6]
        results.append(divided_power(SL2, Gen(XP, U), 2) * divided_power(SL2, Gen(XM, U), 2))
        h, ht = g(SL2, H, U), g(SL2, H, T)
        results.append((h + ht) * (h - ht))
        for elem in results:
            assert type(elem.den) is int and elem.den > 0
            assert math.gcd(elem.den, *elem.num.values()) == 1
            assert all(type(c) is int and c for c in elem.num.values())
