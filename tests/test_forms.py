import itertools
import re
from fractions import Fraction

import pytest

from mapalg.combinatorics import (
    ALabel,
    Multiset,
    label_product,
    multinomial,
    sub_multisets,
)
from mapalg.forms import (
    BasisIndex,
    basis_element,
    cartan_at_root,
    cartan_pair,
    cartan_pair_at_root,
    cartan_single,
    dressed_block,
    enumerate_basis,
    reduce_to_basis,
    root_block,
    root_block_expanded,
    root_monomial,
)
from mapalg import forms
from mapalg.identities import CHECKS, CheckFailure, _multisets_up_to, make_spec, run_suite
from mapalg.pbw import Element, Gen, Mono, Sum, binom_element, divided_power, make_preset, omega

U = ALabel([0])
T = ALabel([1])
T2 = ALabel([2])

SL2 = make_preset("sl2")
SL3 = make_preset("sl3")

XM, H, XP = 0, 1, 2


def ms(*pairs):
    return Multiset(pairs)


def chi(key, mult=1):
    return Multiset.single(key, mult)


def g(index, label, preset=SL2):
    return Element.generator(preset, index, label)


# --- independent oracle for the Cartan recursion -------------------------
#
# The Cartan part of the algebra is a commutative polynomial ring in the
# symbols (h tensor label), so the recursion can be replayed in a plain
# dict-based commutative ring with no shared code beyond the multisets.


def _poly_mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            merged = {}
            for lab, e in m1 + m2:
                merged[lab] = merged.get(lab, 0) + e
            key = tuple(sorted(merged.items()))
            out[key] = out.get(key, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _poly_sym(label):
    return {((label.exponents, 1),): Fraction(1)}


def _oracle_pair(phi, chi_arg):
    if phi.size != chi_arg.size:
        return {}
    if not phi:
        return {(): Fraction(1)}
    acc = {}
    for psi1 in sub_multisets(phi):
        if not psi1:
            continue
        for psi2 in sub_multisets(chi_arg):
            if not psi2 or psi1.size != psi2.size:
                continue
            rest = _oracle_pair(phi - psi1, chi_arg - psi2)
            if not rest:
                continue
            lab = label_product(psi1 + psi2)
            weight = multinomial(psi1) * multinomial(psi2)
            term = _poly_mul(_poly_sym(lab), rest)
            for m, c in term.items():
                acc[m] = acc.get(m, 0) + weight * c
    return {
        m: Fraction(-c, phi.size) for m, c in acc.items() if c
    }


def _elem_to_poly(elem):
    out = {}
    for mono, coeff in elem.terms.items():
        key = []
        for gen, e in mono:
            assert gen.index == H
            key.append((gen.label.exponents, e))
        out[tuple(sorted(key))] = coeff
    return out


def _greedy_reduction(elem):
    """Reference for :func:`reduce_to_basis`: the max-scan loop it replaced.
    Each round takes the maximal monomial (total degree, then monomial
    order) of what is left, indexes it with the validating multiset
    constructor and subtracts its multiple of the basis element."""
    preset = elem.preset
    rest = elem
    terms = []
    while rest.num:
        mono = max(rest.num, key=lambda m: (sum(e for _, e in m), m))
        parts = [dict() for _ in range(preset.dim)]
        for gen, e in mono:
            parts[gen.index][gen.label] = e
        parts = [Multiset(d) for d in parts]
        m, r = preset.m, preset.rank
        idx = BasisIndex(tuple(parts[:m]), tuple(parts[m : m + r]), tuple(parts[m + r :]))
        basis = forms.basis_element(preset, idx)
        coeff = Fraction(rest.num[mono], rest.den) / Fraction(basis.num[mono], basis.den)
        terms.append((idx, coeff))
        rest = rest - coeff * basis
    return terms


def _random_elements(preset, seed, count):
    """Seeded sums of scaled products of generators and divided powers over
    labels {1, t}, with an explicit zero first."""
    import random

    rng = random.Random(seed)
    pool = [Gen(i, lab) for i in range(preset.dim) for lab in (U, T)]
    out = [Element.zero(preset)]
    for _ in range(count - 1):
        elem = Element.zero(preset)
        for _ in range(rng.randint(1, 3)):
            term = Element.one(preset)
            for _ in range(rng.randint(0, 3)):
                term = term * divided_power(preset, rng.choice(pool), rng.randint(1, 3))
            elem = elem + Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3))) * term
        out.append(elem)
    return out


class TestCartanPair:
    def test_base_case(self):
        assert cartan_pair(ms(), ms()) == Element.one(SL2)

    def test_size_mismatch_is_zero(self):
        assert cartan_pair(chi(T), ms()).is_zero()
        assert cartan_pair(ms(), chi(T, 2)).is_zero()

    def test_one_step_unroll(self):
        assert cartan_pair(chi(T), chi(T2)) == -g(H, ALabel([3]))

    def test_two_step_unroll(self):
        got = cartan_pair(chi(U, 2), chi(U, 2))
        h = g(H, U)
        assert got == Fraction(1, 2) * (h * h) - Fraction(1, 2) * h

    def test_lands_in_cartan_part(self):
        for phi_arg in [chi(T, 2), ms((U, 1), (T, 1))]:
            elem = cartan_pair(phi_arg, chi(U, 2))
            for mono in elem.terms:
                assert all(gen.index == H for gen, _ in mono)

    def test_against_commutative_oracle(self):
        pool = [U, T, T2]
        shapes = [ms()] + [chi(a) for a in pool]
        shapes += [Multiset(((a, 1), (b, 1))) for a, b in itertools.combinations_with_replacement(pool, 2)]
        shapes += [ms((U, 2), (T, 1)), ms((T, 3))]
        for phi_arg in shapes:
            for chi_arg in shapes:
                got = _elem_to_poly(cartan_pair(phi_arg, chi_arg))
                want = _oracle_pair(phi_arg, chi_arg)
                assert got == want

    def test_single_variant(self):
        assert cartan_single(ms()) == Element.one(SL2)
        assert cartan_single(chi(T)) == -g(H, T)
        assert cartan_single(chi(U)) == -g(H, U)

    def test_unit_label_is_signed_binomial(self):
        # p({1:k}) = (-1)^k binom(h(x)1, k): the constant-label case of
        # Garland's Lambda-series, computed here without the recursion.
        for k in range(6):
            assert cartan_single(chi(U, k)) == (-1) ** k * binom_element(g(H, U), k), k

    def test_binomial_oracle_needs_the_unit_label(self):
        assert cartan_single(chi(T, 2)) != binom_element(g(H, T), 2)

    def test_at_root(self):
        got = cartan_at_root(0, chi(U), SL3)
        assert got == -g(SL3.cartan_index(0), U, SL3)


class TestRootMonomial:
    def test_empty(self):
        assert root_monomial(1, 0, ms()) == Element.one(SL2)

    def test_plain_power(self):
        assert root_monomial(1, 0, chi(T, 3)) == divided_power(SL2, Gen(XP, T), 3)

    def test_mixed_labels(self):
        got = root_monomial(-1, 0, ms((U, 1), (T, 2)))
        want = Element.monomial(
            SL2, ((Gen(XM, U), 1), (Gen(XM, T), 2)), Fraction(1, 2)
        )
        assert got == want

    def test_bad_sign(self):
        for bad in ("x", "+", "-", "+1", 0, True, 1.0):
            with pytest.raises(ValueError):
                root_monomial(bad, 0, ms())
        # the sign is checked before the memo table is read, so True and
        # 1.0 are refused too, with sizes that agree or differ
        root_block(1, ms(), ms(), chi(T))
        for bad in ("x", "+", "-", "+1", 0, True, 1.0):
            with pytest.raises(ValueError):
                root_block(bad, ms(), ms(), chi(T))
            with pytest.raises(ValueError):
                root_block(bad, chi(T), ms(), chi(U))


class TestRootBlock:
    def test_empty_base(self):
        assert root_block(1, ms(), ms(), ms()) == Element.one(SL2)
        assert root_block(1, chi(T), chi(T), ms()).is_zero()

    def test_singleton(self):
        assert root_block(1, ms(), ms(), chi(T2)) == g(XP, T2)
        assert root_block(-1, ms(), ms(), chi(T2)) == g(XM, T2)

    def test_size_mismatch_zero(self):
        assert root_block(1, chi(T), ms(), chi(U)).is_zero()

    def test_pure_third_argument_gives_root_monomial(self):
        for psi in [chi(U, 2), chi(T, 3), ms((U, 1), (T, 2))]:
            for sign in (1, -1):
                assert root_block(sign, ms(), ms(), psi) == root_monomial(sign, 0, psi)

    def test_singleton_clause_matches_general_clause(self):
        # the closed singleton form must agree with the averaged recursion
        shapes = [ms(), chi(U), chi(T), ms((U, 1), (T, 1)), chi(T, 2)]
        for psi1 in shapes:
            for psi2 in shapes:
                if psi1.size != psi2.size:
                    continue
                for b in (U, T):
                    direct = root_block(1, psi1, psi2, chi(b))
                    total = Element.zero(SL2)
                    for phi1 in sub_multisets(psi1):
                        for phi2 in sub_multisets(psi2):
                            left = root_block(1, phi1, phi2, chi(b))
                            right = root_block(
                                1, psi1 - phi1, psi2 - phi2, ms()
                            )
                            if left.is_zero() or right.is_zero():
                                continue
                            total = total + left * right
                    assert direct == total

    def test_explicit_formula_examples(self):
        got = root_block_expanded(1, ms(), U, 2, U)
        assert got == divided_power(SL2, Gen(XP, U), 2)
        got = root_block_expanded(1, chi(T, 2), U, 2, U)
        want = divided_power(SL2, Gen(XP, T), 2) + g(XP, T2) * g(XP, U)
        assert got == want

    def test_explicit_matches_recursion(self):
        pool = (U, T)
        shapes = [ms()] + [chi(a) for a in pool]
        shapes += [
            Multiset((a, 1) for a in combo)
            for combo in itertools.combinations_with_replacement(pool, 2)
        ]
        for sign in (1, -1):
            for psi in shapes:
                for k in (1, 2):
                    for b in pool:
                        for c in pool:
                            lhs = root_block_expanded(sign, psi, b, k, c)
                            rhs = root_block(
                                sign, psi, Multiset.single(b, psi.size), chi(c, k)
                            )
                            assert lhs == rhs

    def test_explicit_requires_positive_k(self):
        with pytest.raises(ValueError):
            root_block_expanded(1, ms(), U, 0, U)


class TestDressedBlock:
    def test_pure_positive(self):
        phi = ms((U, 1), (T, 1))
        assert dressed_block(ms(), ms(), phi) == root_monomial(1, 0, phi)

    def test_cartan_only(self):
        assert dressed_block(chi(U), chi(U), ms()) == -g(H, U)

    def test_degree_bound(self):
        shapes = [ms(), chi(U), chi(T), chi(T, 2), ms((U, 1), (T, 1))]
        for psi1 in shapes:
            for psi2 in shapes:
                if psi1.size != psi2.size:
                    continue
                for psi3 in shapes:
                    elem = dressed_block(psi1, psi2, psi3)
                    deg = elem.degree()
                    assert deg is None or deg <= psi3.size + psi1.size


class TestBasisElement:
    def test_identity(self):
        idx = BasisIndex((ms(),), (ms(),), (ms(),))
        assert basis_element(SL2, idx) == Element.one(SL2)

    def test_single_lowering(self):
        idx = BasisIndex((chi(U),), (ms(),), (ms(),))
        assert basis_element(SL2, idx) == g(XM, U)

    def test_cartan_block(self):
        idx = BasisIndex((ms(),), (chi(U, 2),), (ms(),))
        h = g(H, U)
        assert basis_element(SL2, idx) == Fraction(1, 2) * (h * h) - Fraction(1, 2) * h

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            basis_element(SL2, BasisIndex((ms(), ms()), (ms(),), (ms(),)))
        with pytest.raises(ValueError):
            basis_element(SL3, BasisIndex((ms(),) * 3, (ms(),), (ms(),) * 3))

    def test_json_round_trip(self):
        idx = BasisIndex((chi(U),), (chi(T, 2),), (ms(),))
        assert BasisIndex.from_json(idx.to_json()) == idx


class TestReduce:
    def test_single_generator(self, reconstructs):
        result = reduce_to_basis(g(XM, U))
        assert len(result.terms) == 1
        idx, coeff = result.terms[0]
        assert coeff == 1
        assert idx == BasisIndex((chi(U),), (ms(),), (ms(),))
        assert result.integral
        reconstructs(result, g(XM, U))

    def test_straightened_product(self, reconstructs):
        elem = g(XP, U) * g(XM, U)
        result = reduce_to_basis(elem)
        got = {(idx.minus, idx.zero, idx.plus): coeff for idx, coeff in result.terms}
        want = {
            ((chi(U),), (ms(),), (chi(U),)): Fraction(1),
            ((ms(),), (chi(U),), (ms(),)): Fraction(-1),
        }
        assert got == want
        assert result.integral
        reconstructs(result, elem)

    def test_non_integral_detected(self, reconstructs):
        elem = Fraction(1, 2) * g(H, U)
        result = reduce_to_basis(elem)
        assert not result.integral
        reconstructs(result, elem)

    def test_zero_element(self, reconstructs):
        result = reduce_to_basis(Element.zero(SL2))
        assert result.terms == []
        assert result.integral
        reconstructs(result, Element.zero(SL2))

    def test_round_trip_reconstruction(self, reconstructs):
        import random

        rng = random.Random(3)
        pool = [Gen(i, lab) for i in range(3) for lab in (U, T)]
        for _ in range(25):
            elem = Element.zero(SL2)
            for _ in range(rng.randint(1, 3)):
                term = Element.one(SL2)
                for _ in range(rng.randint(0, 3)):
                    term = term * Element.generator(SL2, *rng.choice(pool))
                elem = elem + Fraction(rng.randint(-6, 6), rng.randint(1, 3)) * term
            reconstructs(reduce_to_basis(elem), elem)

    def test_sl3_reduction(self, reconstructs):
        elem = g(SL3.pos_index(0), U, SL3) * g(SL3.neg_index(0), T, SL3)
        result = reduce_to_basis(elem)
        assert result.integral
        reconstructs(result, elem)

    def test_matches_greedy_loop(self):
        """Layered elimination gives the max-scan loop's terms, in its order
        and with its coefficients, on seeded sl2 and sl3 elements; its
        ``integral``, read off numerators over the input's denominator, and
        its JSON are those of the loop's coefficients."""
        seen = {"den > 1": 0, "non-integral": 0, "zero": 0, "integral": 0}
        for preset, seed in ((SL2, 11), (SL3, 12)):
            for elem in _random_elements(preset, seed, 150):
                result = reduce_to_basis(elem)
                greedy = _greedy_reduction(elem)
                integral = all(c.denominator == 1 for _, c in greedy)
                assert result.terms == greedy
                assert result.integral == all(c.denominator == 1 for _, c in result.terms)
                assert result.integral == integral
                assert result.to_json() == {
                    "terms": [[idx.to_json(), str(c)] for idx, c in greedy],
                    "integral": integral,
                }
                seen["den > 1"] += elem.den > 1
                seen["zero"] += elem.is_zero()
                seen["integral" if result.integral else "non-integral"] += 1
        assert all(seen.values()), seen

    def test_steps_keep_no_index(self):
        """A reduction step holds its inverse leading coefficient and its
        integer tail, no :class:`BasisIndex`: the result reads each index
        off its monomial when ``terms`` is read."""
        forms.clear_caches()
        for preset, seed in ((SL2, 11), (SL3, 12)):
            for elem in _random_elements(preset, seed, 40):
                reduce_to_basis(elem)
        steps = [(mono, step) for preset in (SL2, SL3) for mono, step in preset._steps.items()]
        assert len(steps) > 100
        for mono, (inv_lead, tail) in steps:
            assert type(mono) is Mono
            assert type(inv_lead) is int and inv_lead
            for degree, group in tail:
                assert type(degree) is int
                for m, c in group:
                    assert type(m) is Mono and type(c) is int

    def test_fractional_tail_is_refused(self, corrupted_basis):
        """A basis element patched with a fractional lower-degree term (top
        term and its coefficient kept) breaks the integral-tail premise:
        its step and every reduction through it are refused, naming the
        index."""
        idx = BasisIndex((chi(T),), (ms(),), (chi(U),))
        (mono,) = (g(XM, T) * g(XP, U)).num
        elem = g(XM, T) * g(XP, U) + 3 * g(XM, U) + g(H, T) + 5 * Element.one(SL2)
        good = basis_element(SL2, idx)
        with corrupted_basis(idx, good + Fraction(1, 2) * g(XM, U) + g(H, U)):
            with pytest.raises(ValueError, match=re.escape(idx.render())):
                forms._reduction_step(SL2, mono)
            with pytest.raises(ValueError, match=re.escape(idx.render())):
                reduce_to_basis(elem)
        assert reduce_to_basis(elem).integral

    def test_every_basis_element_reduces_to_itself(self):
        """Each basis element is its own one-term reduction, over one- and
        two-variable labels, which runs every premise on each of them."""
        cases = [(SL2, 4, 2, 1), (SL2, 3, 1, 2), (SL3, 2, 1, 1)]
        count = 0
        for preset, d, l, nvars in cases:
            for idx in enumerate_basis(preset, d, l, nvars=nvars):
                assert reduce_to_basis(basis_element(preset, idx)).terms == [(idx, 1)], idx
                count += 1
        assert count == 1088

    def test_corrupted_basis_element_is_refused(self, corrupted_basis):
        """Negative control for the premise check: a basis element of
        x-(t) x+(1) with a second top-degree monomial x-(1) x+(1) must stop
        the reduction, and the integrality check must report it as a failed
        instance."""
        idx = BasisIndex((chi(T),), (ms(),), (chi(U),))
        elem = g(XM, T) * g(XP, U)
        good = basis_element(SL2, idx)
        with corrupted_basis(idx, good + g(XM, U) * g(XP, U)):
            with pytest.raises(ValueError, match=re.escape(idx.render())):
                reduce_to_basis(elem)
            evaluate = CHECKS["integrality"].kinds["product"]
            failure = evaluate(((-1, T, 1), (1, U, 1)))
            assert isinstance(failure, CheckFailure)
            assert idx.render() in failure.diff
        assert reduce_to_basis(elem).terms == [(idx, 1)]

    def test_wrong_leading_coefficient_is_refused(self, corrupted_basis):
        idx = BasisIndex((chi(T),), (ms(),), (chi(U),))
        (mono,) = (g(XM, T) * g(XP, U)).num
        good = basis_element(SL2, idx)
        with corrupted_basis(idx, 2 * good):
            with pytest.raises(ValueError, match=re.escape(idx.render())):
                forms._reduction_step(SL2, mono)


class TestVacuousBlocks:
    """Blocks whose first two sizes differ are zero, answered with the
    preset's one shared zero before any memo table is read."""

    # each memoised body with the position of its first size in a key
    BODIES = [
        (forms._root_block, 1),
        (forms._dressed_block, 0),
        (forms._cartan_pair, 0),
        (forms._cartan_pair_at_root, 1),
    ]

    @pytest.mark.parametrize("profile", ["smoke", "desk"])
    def test_tables_hold_matched_sizes_only(self, profile):
        forms.clear_caches()
        assert all(report.passed for report in run_suite(["all"], profile))
        for body, at in self.BODIES:
            assert body.table, body.__name__
            assert all(key[at].size == key[at + 1].size for key in body.table), body.__name__

    def test_mismatched_calls_return_the_shared_zero(self):
        zero = Element.zero(SL2)
        assert root_block(1, chi(T), ms(), chi(U)) is zero
        assert root_block(-1, ms(), chi(T, 2), ms()) is zero
        assert dressed_block(chi(T), ms(), chi(U)) is zero
        assert dressed_block(ms(), chi(U), ms()) is zero
        assert cartan_pair(chi(T), chi(U, 2)) is zero
        assert cartan_pair_at_root(1, chi(T), ms(), SL3) is Element.zero(SL3)
        with pytest.raises(ValueError):
            cartan_pair_at_root(SL3.m, chi(T), ms(), SL3)

    def test_shared_zero_stays_empty_after_a_run(self):
        zeros = [Element.zero(SL2), Element.zero(SL3)]
        assert all(report.passed for report in run_suite(["all"], "smoke"))
        for preset, zero in zip((SL2, SL3), zeros):
            assert Element.zero(preset) is zero and zero.preset is preset
            assert zero.num == {} and zero.den == 1

    def test_every_empty_result_is_the_shared_zero(self):
        import copy
        import pickle

        zero, x = Element.zero(SL2), g(XP, T)
        assert Element(SL2, {}) is zero
        assert Element.monomial(SL2, ((Gen(XP, T), 1),), 0) is zero
        assert x - x is zero and -zero is zero and 0 * x is zero
        assert x * zero is zero and zero * x is zero
        assert Sum(SL2).element() is zero
        assert pickle.loads(pickle.dumps(zero)) is zero and copy.deepcopy(zero) is zero
        assert pickle.loads(pickle.dumps(x)) == x and copy.deepcopy(x) == x
        assert Element.zero(SL3) is not zero

    def test_bodies_compute_zero_on_mismatched_sizes(self):
        """The memoised bodies, called past the size test on every
        mismatched triple of the deep D-consistency shapes, compute zero:
        the test in front of ``dressed_block`` and ``cartan_pair_at_root``
        only answers what the body would."""
        params = make_spec("D-consistency", profile="deep").params
        shapes = _multisets_up_to(params["labels"], params["deg_size"])
        zero = Element.zero(SL2)
        try:
            mismatched = [
                (psi1, psi2, psi3)
                for psi1, psi2, psi3 in itertools.product(shapes, repeat=3)
                if psi1.size != psi2.size
            ]
            assert len(mismatched) == 2550
            for psi1, psi2, psi3 in mismatched:
                assert forms._dressed_block(psi1, psi2, psi3) is zero
            for alpha in range(SL3.m):
                for phi, c in itertools.product(shapes, repeat=2):
                    if phi.size != c.size:
                        assert forms._cartan_pair_at_root(alpha, phi, c, SL3).is_zero()
        finally:
            forms.clear_caches()


class TestCartanPairAtRootChecksAlpha:
    """``cartan_pair_at_root`` checks an int ``alpha`` once per key in its
    memoised body, and anything else before the table: an invalid root is
    refused on matched and mismatched sizes, with cold and warm tables."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize(
        "phi, c", [(chi(T), chi(U)), (chi(T), ms())], ids=["matched", "mismatched"]
    )
    def test_invalid_alpha_is_refused(self, phi, c, warm):
        forms.clear_caches()
        try:
            if warm:
                for alpha in range(SL3.m):
                    cartan_pair_at_root(alpha, phi, c, SL3)
                cartan_pair_at_root(0, phi, c, SL2)
            for _ in range(2):
                for alpha, target in ((SL3.m, SL3), (-1, SL3), (1, SL2)):
                    with pytest.raises(ValueError, match="unknown positive root"):
                        cartan_pair_at_root(alpha, phi, c, target)
                # a float or bool key equals an int one in the table
                for alpha in (1.0, True):
                    with pytest.raises(TypeError, match="a positive root must be an int"):
                        cartan_pair_at_root(alpha, phi, c, SL3)
            assert all(
                0 <= key[0] < key[3].m and type(key[0]) is int
                for key in forms._cartan_pair_at_root.table
            )
        finally:
            forms.clear_caches()

    def test_root_block_refuses_a_sign_but_the_int_one_or_minus_one(self):
        for sign in (0, 2, 1.0, True, "1"):
            for psi2 in (chi(U), ms()):
                with pytest.raises(ValueError, match="sign must be 1 or -1, not"):
                    root_block(sign, chi(T), psi2, chi(U))


class TestMemoisedValues:
    """The memo tables return the same values from a cold and a warm cache."""

    AT_ROOT_CASES = [
        (0, ms((U, 1), (T, 1)), chi(T, 2)),
        (1, chi(T), chi(U)),
        (2, ms((U, 2)), ms((T2, 1), (U, 1))),
        (0, chi(T), ms()),
    ]

    def _at_root_values(self):
        """The memoised body on every case, then the one-argument form."""
        pairs = [forms._cartan_pair_at_root(a, phi, c, SL3) for a, phi, c in self.AT_ROOT_CASES]
        singles = [cartan_at_root(a, c, SL3) for a, _, c in self.AT_ROOT_CASES]
        return pairs + singles

    def test_at_root_cold_and_warm(self):
        before = self._at_root_values()
        forms.clear_caches()
        cold = self._at_root_values()
        warm = self._at_root_values()
        assert cold == warm == before
        # the fourth pair has sizes 1 and 0: zero, the one shared object;
        # the fourth single pushes the empty pair's 1: the one shared unit
        zero = Element.zero(SL3)
        assert before[3] is cold[3] is zero
        assert before[7] is cold[7] is Element.one(SL3)
        assert all(a is not b for k, (a, b) in enumerate(zip(before, cold)) if k not in (3, 7))
        assert all(a is b for a, b in zip(cold, warm))
        for (a, phi, c), got in zip(self.AT_ROOT_CASES, cold):
            assert got == omega(a, cartan_pair(phi, c), SL3)
            assert cartan_pair_at_root(a, phi, c, SL3) is got

    def test_reduction_step_is_the_one_basis_table(self, monkeypatch):
        """Basis elements are kept only in the reduction step's table: a
        second reduction of the same element builds none, and neither
        ``basis_element`` nor ``cartan_at_root`` has a table of its own."""
        elem = divided_power(SL2, Gen(XP, T), 2) * divided_power(SL2, Gen(XM, U), 3)
        builds = []
        real = forms.basis_element
        monkeypatch.setattr(forms, "basis_element", lambda *a: builds.append(a) or real(*a))
        forms.clear_caches()
        first = reduce_to_basis(elem)
        assert len(builds) == len(first.terms) > 1
        builds.clear()
        assert reduce_to_basis(elem) == first
        assert builds == []
        assert not hasattr(basis_element, "table")
        assert not hasattr(cartan_at_root, "table")

    def test_reduce_cold_and_warm(self, reconstructs):
        elems = [
            divided_power(SL2, Gen(XP, T), 2) * divided_power(SL2, Gen(XM, U), 3),
            Fraction(1, 2) * g(H, U) * g(H, T) + g(XM, T2),
            cartan_pair_at_root(2, ms((U, 1), (T, 1)), chi(T, 2), SL3)
            * g(SL3.pos_index(0), U, SL3),
        ]
        forms.clear_caches()
        cold = [reduce_to_basis(e) for e in elems]
        warm = [reduce_to_basis(e) for e in elems]
        for c, w, e in zip(cold, warm, elems):
            assert c.terms == w.terms and c.terms
            assert c.integral == w.integral
            reconstructs(c, e)
            reconstructs(w, e)

    def _registry_values(self):
        u = divided_power(SL2, Gen(XP, T), 3) * divided_power(SL2, Gen(XM, U), 2)
        v = g(H, T) + divided_power(SL2, Gen(XM, T), 2)
        return [
            u * v,
            root_block(1, ms((U, 1), (T, 1)), ms((T, 2)), ms((U, 2))),
            dressed_block(ms((U, 1), (T, 1)), ms((T, 1), (T2, 1)), chi(T)),
        ]

    def test_clear_caches_empties_every_table(self):
        from mapalg import combinatorics, memo, pbw

        named = [
            SL2._products,
            pbw._concats,
            combinatorics.splits.table,
            forms._root_block.table,
            forms._dressed_block.table,
            forms._cartan_pair.table,
        ]
        warm = self._registry_values()
        assert all(named)
        assert all(any(t is r for r in memo._tables) for t in named)
        forms.clear_caches()
        assert not any(memo._tables)
        cold = self._registry_values()
        assert cold == warm
        assert all(c is not w for c, w in zip(cold, warm))
        assert all(named)



class TestEnumerateBasis:
    def test_degree_zero(self):
        got = list(enumerate_basis(SL2, 0, 1, 1))
        assert got == [BasisIndex((ms(),), (ms(),), (ms(),))]

    def test_seven_at_degree_one(self):
        got = list(enumerate_basis(SL2, 1, 1, 1))
        assert len(got) == 7

    def test_count_matches_combinatorial_formula(self):
        # slots choose independent multisets over the label pool; the count
        # is the number of weak compositions weighted by multiset counts
        import math

        max_degree = 2
        pool_size = 2  # labels of degree <= 1 in one variable
        slots = 3

        def multisets_of_size(s):
            return math.comb(pool_size + s - 1, s)

        total = 0
        for d in range(max_degree + 1):
            for sizes in itertools.product(range(d + 1), repeat=slots):
                if sum(sizes) == d:
                    prod = 1
                    for s in sizes:
                        prod *= multisets_of_size(s)
                    total += prod
        got = list(enumerate_basis(SL2, max_degree, 1, 1))
        assert len(got) == total
        assert len(set(got)) == total

    def test_deterministic(self):
        a = list(enumerate_basis(SL2, 2, 1, 1))
        b = list(enumerate_basis(SL2, 2, 1, 1))
        assert a == b

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_basis(SL2, -1, 0, 1))

    @pytest.mark.parametrize("nvars", [0, -1])
    def test_no_variables(self, nvars):
        with pytest.raises(ValueError, match="^nvars must be >= 1$"):
            list(enumerate_basis(SL2, 1, 1, nvars))
