"""Instance verification of the engine's algebraic identities.

Each check enumerates a bounded family of argument tuples, evaluates both
sides of one identity (or one degree / integrality claim) through the
exact engine and compares canonical forms.  "Pass" always means exact
structural equality; there are no numeric tolerances anywhere.  Bounds
come from named profiles so the same checks scale from smoke tests to
overnight runs, and failures carry the first counterexample with the
recomputed nonzero difference.

A check is declared as data: one :class:`Check` row in :data:`CHECKS`
holds an instance generator, whose tuples start with their kind, a kind
table mapping every kind to its evaluator, and the algebras the check
accepts.  An evaluator is a function of the instance's fields alone.
Nearly all are one of two properties: :func:`_equal`, two sides built
from the instance agree, and :func:`_integral`, an element built from the
instance reduces over the integral basis with integer coefficients
(optionally below a degree bound).  Degree claims are equations too: an
element equals its part in a degree range (:func:`_graded_part`).  A
reduction whose basis premise fails is reported as a failed instance.
Only the Cartan product, the adjoint integrality and the A2 sign
extraction keep an evaluator of their own.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from .combinatorics import (
    ALabel,
    Multiset,
    binom_int,
    fold_label,
    matched_splits,
    multinomial,
    multisets_of_size,
    splits,
    sub_multisets,
    subpartition_splits,
)
from .forms import (
    cartan_at_root,
    cartan_pair,
    cartan_pair_at_root,
    cartan_single,
    dressed_block,
    reduce_to_basis,
    root_block,
    root_block_expanded,
    root_monomial,
)
from .memo import memoised
from .pbw import Element, Gen, Sum, ad_divided, divided_power, exact_solve, make_preset, omega


class CheckSpec(NamedTuple):
    """Everything one check run depends on: the identity name, the bound
    parameters, an optional forced algebra and the seed for sampled parts."""

    name: str
    params: dict
    preset: str | None = None
    profile: str = "desk"
    seed: int = 0


class CheckFailure(NamedTuple):
    args: str
    lhs: str
    rhs: str
    diff: str

    def to_json(self):
        return self._asdict()


class CheckReport(NamedTuple):
    name: str
    instances: int
    failures: list
    elapsed_ms: float
    seed: int
    notes: list

    @property
    def passed(self):
        return not self.failures

    def to_json(self):
        return {
            "name": self.name,
            "instances": self.instances,
            "pass": self.passed,
            "failures": [f.to_json() for f in self.failures],
            "elapsedMs": round(self.elapsed_ms, 3),
            "seed": self.seed,
        }


# ---------------------------------------------------------------------------
# profiles: every bound the desk profile pins comes from the acceptance table


def _default_profiles():
    return {
        "smoke": {
            "straightening": dict(exh_size=1, exh_labels=(0, 1), rand_size=2, rand_labels=(0, 1), rand_count=5),
            "D-consistency": dict(max_psi=1, max_k=1, labels=(0, 1), deg_size=1),
            "p-properties": dict(lead_size=2, lead_labels=(0, 1), prod_size=1, prod_labels=(0, 1), mult_l=2, mult_labels=(0, 1)),
            "commutation": dict(size=1, labels=(0, 1), max_r=1, presets=("sl2",)),
            "D-identities": dict(size=1, labels=(0, 1)),
            "integrality": dict(qinuz_size=1, bbd_size=1, labels=(0, 1), ad_r=2, prod_len=2, prod_r=2, bracket_r=2, bracket_chi=1, sl3_size=1, presets=("sl2",)),
            "A2": dict(max_r=1, labels=(0, 1)),
            "divided-powers": dict(max_total=4, labels=(0, 1)),
            "self-consistency": dict(assoc_count=20, word_len=2, labels=(0, 1)),
        },
        "desk": {
            "straightening": dict(exh_size=2, exh_labels=(0, 1, 2), rand_size=3, rand_labels=(0, 1), rand_count=200),
            "D-consistency": dict(max_psi=3, max_k=3, labels=(0, 1), deg_size=3),
            "p-properties": dict(lead_size=4, lead_labels=(0, 1), prod_size=2, prod_labels=(0, 1), mult_l=4, mult_labels=(0, 1, 2)),
            "commutation": dict(size=2, labels=(0, 1), max_r=2, presets=("sl2", "sl3")),
            "D-identities": dict(size=2, labels=(0, 1)),
            "integrality": dict(qinuz_size=3, bbd_size=2, labels=(0, 1), ad_r=4, prod_len=3, prod_r=3, bracket_r=3, bracket_chi=2, sl3_size=2, presets=("sl2", "sl3")),
            "A2": dict(max_r=3, labels=(0, 1)),
            "divided-powers": dict(max_total=8, labels=(0, 1)),
            "self-consistency": dict(assoc_count=500, word_len=4, labels=(0, 1)),
        },
        "deep": {
            "straightening": dict(exh_size=3, exh_labels=(0, 1, 2), rand_size=4, rand_labels=(0, 1), rand_count=500),
            "D-consistency": dict(max_psi=4, max_k=4, labels=(0, 1), deg_size=4),
            "p-properties": dict(lead_size=5, lead_labels=(0, 1), prod_size=3, prod_labels=(0, 1), mult_l=5, mult_labels=(0, 1, 2)),
            "commutation": dict(size=3, labels=(0, 1), max_r=3, presets=("sl2", "sl3")),
            "D-identities": dict(size=3, labels=(0, 1)),
            "integrality": dict(qinuz_size=4, bbd_size=3, labels=(0, 1), ad_r=6, prod_len=3, prod_r=4, bracket_r=4, bracket_chi=3, sl3_size=3, presets=("sl2", "sl3")),
            "A2": dict(max_r=4, labels=(0, 1)),
            "divided-powers": dict(max_total=10, labels=(0, 1)),
            "self-consistency": dict(assoc_count=1000, word_len=4, labels=(0, 1)),
        },
    }


PROFILES = _default_profiles()


# ---------------------------------------------------------------------------
# shared helpers and the two shared properties


def _pool(exps):
    return tuple(ALabel([e]) for e in exps)


def _multisets_up_to(pool, max_size):
    out = []
    for s in range(max_size + 1):
        out.extend(multisets_of_size(pool, s))
    return out


def _failure(args, lhs, rhs):
    diff = lhs - rhs
    if diff.is_zero():
        return None
    return CheckFailure(args=str(args), lhs=lhs.render(), rhs=rhs.render(), diff=diff.render())


def _property_failure(args, elem, expectation, finding):
    return CheckFailure(args=str(args), lhs=elem.render(), rhs=expectation, diff=finding)


def _equal(fmt, sides):
    """Evaluator of "both sides agree": ``sides(*fields)`` returns the two
    elements, and ``fmt % fields`` names a failing instance.  The storage
    is canonical, so ``==`` decides equality."""

    def evaluate(*fields):
        lhs, rhs = sides(*fields)
        if lhs == rhs:
            return None
        return _failure(fmt % fields, lhs, rhs)

    return evaluate


def _graded_part(elem, lo=0, hi=None):
    """The terms of ``elem`` whose total degree lies in ``[lo, hi]``.

    Rebuilt through ``Element._reduced``: the kept numerators may share a
    factor with the denominator, and ``==`` is only exact on canonical
    storage, so a part equal in value must also be equal in storage.
    """
    num = {}
    for m, c in elem.num.items():
        deg = sum(e for _, e in m)
        if lo <= deg and (hi is None or deg <= hi):
            num[m] = c
    return Element._reduced(elem.preset, num, elem.den)


def _reduction(elem):
    """``(reduce_to_basis(elem), None)``, or ``(None, message)`` when the
    basis violates the reduction's premise, so that callers report it as a
    failed instance."""
    try:
        return reduce_to_basis(elem), None
    except ValueError as exc:
        return None, str(exc)


def _integral(fmt, build, bound=None):
    """Evaluator of "reduces integrally": ``build(*fields)`` must reduce
    over the basis with integer coefficients and, when ``bound`` is given,
    have degree below ``bound(*fields)``."""

    def evaluate(*fields):
        elem = build(*fields)
        result, error = _reduction(elem)
        limit = None if bound is None else bound(*fields)
        deg = None if limit is None else elem.degree()
        ok = result is not None and result.integral
        if ok and (deg is None or deg < limit):
            return None
        expectation = "integral reduction"
        finding = error or "integral=%s" % result.integral
        if limit is not None:
            expectation += ", degree < %d" % limit
            finding += " degree=%s" % deg
        return _property_failure(fmt % fields, elem, expectation, finding)

    return evaluate


def _root_power(sign, b, r):
    """The ``r``-th divided power of the sl2 root vector of ``sign`` at label ``b``."""
    sl2 = make_preset("sl2")
    return divided_power(sl2, Gen(sl2.root_index(sign, 0), b), r)


def _bracket(x, y):
    return x * y - y * x


def _at_preset(sides, side):
    """Adapt ``sides(preset, *rest, side)`` to instances that name their
    preset."""
    return lambda name, *rest: sides(make_preset(name), *rest, side)


# ---------------------------------------------------------------------------
# straightening of x+(phi) x-(chi)


def _instances_straightening(spec):
    p = spec.params
    pool = _pool(p["exh_labels"])
    for phi in _multisets_up_to(pool, p["exh_size"]):
        for chi in _multisets_up_to(pool, p["exh_size"]):
            yield ("exh", phi, chi)
    rng = random.Random(spec.seed)
    rpool = _pool(p["rand_labels"])
    shapes = list(multisets_of_size(rpool, p["rand_size"]))
    for _ in range(p["rand_count"]):
        yield ("rand", rng.choice(shapes), rng.choice(shapes))


@memoised
def _straightening_sides(phi, chi):
    lhs = root_monomial(1, 0, phi) * root_monomial(-1, 0, chi)
    rhs = Sum(make_preset("sl2"))
    for psi1, chi_left in splits(chi):
        for psi2, rest_chi in splits(chi_left):
            sign = (-1) ** (psi1.size + psi2.size)
            for phi1, phi_left in splits(phi):
                left = root_block(-1, phi1, psi1, rest_chi)
                if left.is_zero():
                    continue
                for phi2, rest_phi in splits(phi_left):
                    rhs.add_product(sign, left, dressed_block(phi2, psi2, rest_phi))
    return lhs, rhs.element()


# ---------------------------------------------------------------------------
# closed partition formula, homogeneity, dressed-block degree bound


def _instances_D_consistency(spec):
    p = spec.params
    pool = _pool(p["labels"])
    shapes = _multisets_up_to(pool, p["max_psi"])
    for sign in (1, -1):
        for psi in shapes:
            for k in range(1, p["max_k"] + 1):
                for b in pool:
                    for c in pool:
                        yield ("expanded", sign, psi, b, k, c)
    deg_shapes = _multisets_up_to(pool, p["deg_size"])
    for sign in (1, -1):
        for psi1 in deg_shapes:
            for psi2 in deg_shapes:
                for psi3 in deg_shapes:
                    yield ("homogeneous", sign, psi1, psi2, psi3)
    for psi1 in deg_shapes:
        for psi2 in deg_shapes:
            for psi3 in deg_shapes:
                yield ("dressed-degree", psi1, psi2, psi3)


def _expanded_sides(sign, psi, b, k, c):
    lhs = root_block_expanded(sign, psi, b, k, c)
    rhs = root_block(sign, psi, Multiset.single(b, psi.size), Multiset.single(c, k))
    return lhs, rhs


def _homogeneous_sides(sign, psi1, psi2, psi3):
    """The block against its part of degree ``|psi3|``."""
    block = root_block(sign, psi1, psi2, psi3)
    return block, _graded_part(block, psi3.size, psi3.size)


def _dressed_degree_sides(psi1, psi2, psi3):
    """The dressed block against its part of degree at most ``|psi1| + |psi3|``."""
    block = dressed_block(psi1, psi2, psi3)
    return block, _graded_part(block, hi=psi1.size + psi3.size)


# ---------------------------------------------------------------------------
# Cartan element properties: leading term, binomial products, multiplicativity


def _instances_p_properties(spec):
    p = spec.params
    for chi in _multisets_up_to(_pool(p["lead_labels"]), p["lead_size"]):
        yield ("leading", chi)
    prod_shapes = _multisets_up_to(_pool(p["prod_labels"]), p["prod_size"])
    for chi in prod_shapes:
        for chi2 in prod_shapes:
            yield ("product", chi, chi2)
    mpool = _pool(p["mult_labels"])
    for l in range(p["mult_l"] + 1):
        for a in mpool:
            for b in mpool:
                yield ("multiplicative", l, a, b)


def _leading_term(chi):
    sl2 = make_preset("sl2")
    mono = tuple((Gen(sl2.cartan_index(0), a), m) for a, m in chi.items())
    coeff = Fraction((-1) ** chi.size)
    for _, m in chi.items():
        coeff /= math.factorial(m)
    return Element.monomial(sl2, mono, coeff)


def _leading_sides(chi):
    """The part of degree at least ``|chi|`` against the leading term.  The
    leading term is homogeneous of degree ``|chi|``, so equality says that
    everything else has lower degree; for ``chi = {}`` both sides are 1."""
    return _graded_part(cartan_single(chi), chi.size), _leading_term(chi)


def _cartan_product(chi, chi2):
    both = chi + chi2
    factor = 1
    for a in both.support():
        factor *= binom_int(both.count(a), chi.count(a))
    elem = cartan_single(chi) * cartan_single(chi2) - factor * cartan_single(both)
    result, finding = _reduction(elem)
    if finding is None:
        pure_cartan = all(
            all(not ms for ms in idx.minus) and all(not ms for ms in idx.plus)
            for idx, _ in result.terms
        )
        if result.integral and pure_cartan:
            return None
        finding = "integral=%s pure_cartan=%s" % (result.integral, pure_cartan)
    return _property_failure(
        "chi=%s chi'=%s" % (chi, chi2), elem, "integral reduction over the Cartan block", finding
    )


def _multiplicative_sides(l, a, b):
    lhs = cartan_pair(Multiset.single(a, l), Multiset.single(b, l))
    rhs = cartan_single(Multiset.single(a * b, l))
    return lhs, rhs


# ---------------------------------------------------------------------------
# commutation of root vectors past Cartan elements


def _root_cartan_pairs(preset):
    for alpha in range(preset.m):
        for i in range(preset.rank):
            if preset.pairing(alpha, i) != 0:
                yield alpha, i


def _instances_commutation(spec):
    p = spec.params
    pool = _pool(p["labels"])
    shapes = _multisets_up_to(pool, p["size"])
    for preset_name in p["presets"]:
        preset = make_preset(preset_name)
        for alpha, i in _root_cartan_pairs(preset):
            for b in pool:
                for phi in shapes:
                    for chi in shapes:
                        yield ("xq-i", preset_name, alpha, i, b, phi, chi)
                        yield ("xq-ii", preset_name, alpha, i, b, phi, chi)
                for chi in shapes:
                    for r in range(p["max_r"] + 1):
                        yield ("xrq-i", preset_name, alpha, i, b, chi, r)
                        yield ("xrq-ii", preset_name, alpha, i, b, chi, r)
    for b in pool:
        for phi in shapes:
            for chi in shapes:
                yield ("qpx", b, phi, chi)


def _xq_sides(preset, alpha, i, b, phi, chi, side):
    pair = cartan_pair_at_root(preset.simple_root_index(i), phi, chi, preset)
    weight_base = preset.pairing(alpha, i)
    xgen = Element.generator(preset, preset.root_index(1 if side == "i" else -1, alpha), b)
    lhs = xgen * pair if side == "i" else pair * xgen
    rhs = Sum(preset)
    for psi1, rest1, psi2, rest2 in matched_splits(phi, chi):
        coeff = (
            binom_int(weight_base + psi1.size - 1, psi1.size)
            * multinomial(psi1)
            * multinomial(psi2)
        )
        lab = fold_label(b, psi1, psi2)
        rest = cartan_pair_at_root(preset.simple_root_index(i), rest1, rest2, preset)
        gen = Element.generator(
            preset, preset.root_index(1 if side == "i" else -1, alpha), lab
        )
        if side == "i":
            rhs.add_product(coeff, rest, gen)
        else:
            rhs.add_product(coeff, gen, rest)
    return lhs, rhs.element()


def _xrq_sides(preset, alpha, i, b, chi, r, side):
    sri = preset.simple_root_index(i)
    weight_base = preset.pairing(alpha, i)
    sign = 1 if side == "i" else -1
    dp = divided_power(preset, Gen(preset.root_index(sign, alpha), b), r)
    single = cartan_at_root(sri, chi, preset)
    lhs = dp * single if side == "i" else single * dp
    rhs = Sum(preset)
    for psi, leftover in subpartition_splits(chi, r):
        rest = cartan_at_root(sri, leftover, preset)
        scalar = 1
        for part, cnt in psi.items():
            scalar *= (
                binom_int(weight_base + part.size - 1, part.size) * multinomial(part)
            ) ** cnt
        if not scalar:
            continue
        prod = Element.one(preset)
        for part, cnt in psi.items():
            lab = fold_label(b, part)
            prod = prod * divided_power(preset, Gen(preset.root_index(sign, alpha), lab), cnt)
        if side == "i":
            rhs.add_product(scalar, rest, prod)
        else:
            rhs.add_product(scalar, prod, rest)
    return lhs, rhs.element()


def _qpx_sides(b, phi, chi, literal=False):
    """Cartan pair moved past a raising generator.

    The three-term identity's last sum binds one pair of size-2
    sub-multisets but its summand names a second pair; the corrected
    reading identifies the two.  ``literal=True`` keeps them independent
    (a double sum), which demonstrably fails once the bound pair ranges
    over more than one value.
    """
    sl2 = make_preset("sl2")
    pair = cartan_pair(phi, chi)
    xb = Element.generator(sl2, sl2.pos_index(0), b)
    lhs = pair * xb
    rhs = Sum(sl2)
    rhs.add_product(1, xb, pair)
    for c in phi.support():
        for d in chi.support():
            rhs.add_product(
                -2,
                Element.generator(sl2, sl2.pos_index(0), b * c * d),
                cartan_pair(phi - Multiset.single(c), chi - Multiset.single(d)),
            )
    f1s = list(sub_multisets(phi, 2))
    f2s = list(sub_multisets(chi, 2))
    for f1 in f1s:
        for f2 in f2s:
            inner = [(f1, f2)] if not literal else [(a, b2) for a in f1s for b2 in f2s]
            for ps1, ps2 in inner:
                rhs.add_product(
                    multinomial(f1) * multinomial(f2),
                    Element.generator(sl2, sl2.pos_index(0), fold_label(b, ps1, ps2)),
                    cartan_pair(phi - ps1, chi - ps2),
                )
    return lhs, rhs.element()


# ---------------------------------------------------------------------------
# block recursion identities


def _instances_D_identities(spec):
    p = spec.params
    pool = _pool(p["labels"])
    shapes = _multisets_up_to(pool, p["size"])
    for sign in (1, -1):
        for b in pool:
            for psi1 in shapes:
                for psi2 in shapes:
                    if psi1.size != psi2.size:
                        continue
                    for psi3 in shapes:
                        if not psi3:
                            continue
                        yield ("idD-i", sign, b, psi1, psi2, psi3)
                        yield ("idD-ii", sign, b, psi1, psi2, psi3)
    for b in pool:
        for varphi in shapes:
            for chi in shapes:
                yield ("idbbd", b, varphi, chi)
                yield ("eqnq", b, varphi, chi)
    for varphi in shapes:
        for phi in sub_multisets(varphi):
            for chi in shapes:
                yield ("eqnbbd", varphi, phi, chi)


def _idD_sides(sign, b, psi1, psi2, psi3, variant):
    if variant == "i":
        lhs = psi2.count(b) * root_block(sign, psi1, psi2, psi3)
    else:
        lhs = (psi2.size + psi3.size) * root_block(sign, psi1, psi2, psi3)
    rhs = Sum(make_preset("sl2"))
    trims = [(single, psi3 - single) for single in map(Multiset.single, psi3.support())]
    for phi1, rest1, phi2, rest2 in matched_splits(psi1, psi2):
        weight = phi2.count(b) if variant == "i" else phi1.size + 1
        if weight == 0:
            continue
        for single, rest3 in trims:
            left = root_block(sign, phi1, phi2, single)
            right = root_block(sign, rest1, rest2, rest3)
            rhs.add_product(weight, left, right)
    return lhs, rhs.element()


def _idbbd_sides(b, varphi, chi):
    sl2 = make_preset("sl2")
    xminus = Element.generator(sl2, sl2.neg_index(0), b)
    lhs = Sum(sl2)
    for phi, rest in splits(varphi):
        lhs.add_product(1, dressed_block(phi, chi, rest), xminus)
    rhs = Sum(sl2)
    single = Multiset.single(b)
    grown = chi + single
    for phi, rest in splits(varphi):
        rhs.add(-(chi.count(b) + 1), dressed_block(phi, grown, rest))
    for phi, rest in splits(varphi):
        for phi1, rest1, phi2, rest2 in matched_splits(phi, chi):
            left = root_block(-1, phi1, phi2, single)
            if left.is_zero():
                continue
            rhs.add_product(phi1.size + 1, left, dressed_block(rest1, rest2, rest))
    return lhs.element(), rhs.element()


def _eqnq_sides(b, varphi, chi):
    sl2 = make_preset("sl2")
    lhs = -(chi.count(b) + 1) * cartan_pair(varphi, chi + Multiset.single(b))
    rhs = Sum(sl2)
    for c in varphi.support():
        trimmed = varphi - Multiset.single(c)
        for phi1, rest1, phi2, rest2 in matched_splits(trimmed, chi):
            rest = cartan_pair(rest1, rest2)
            if rest.is_zero():
                continue
            lab = fold_label(b * c, phi1, phi2)
            rhs.add_product(
                multinomial(phi1) * multinomial(phi2),
                Element.generator(sl2, sl2.cartan_index(0), lab),
                rest,
            )
    return lhs, rhs.element()


def _eqnbbd_sides(varphi, phi, chi):
    sl2 = make_preset("sl2")
    lhs = (varphi.size - phi.size) * dressed_block(phi, chi, varphi - phi)
    rhs = Sum(sl2)
    for c in (varphi - phi).support():
        shrunk = varphi - phi - Multiset.single(c)
        rhs.add_product(
            1, Element.generator(sl2, sl2.pos_index(0), c), dressed_block(phi, chi, shrunk)
        )
        for d in phi.support():
            for d2 in chi.support():
                rhs.add_product(
                    -1,
                    Element.generator(sl2, sl2.pos_index(0), c * d * d2),
                    dressed_block(phi - Multiset.single(d), chi - Multiset.single(d2), shrunk),
                )
    return lhs, rhs.element()


# ---------------------------------------------------------------------------
# integrality and degree bounds


def _instances_integrality(spec):
    p = spec.params
    pool = _pool(p["labels"])
    shapes = _multisets_up_to(pool, p["qinuz_size"])
    for sign in (1, -1):
        for phi in shapes:
            for chi in shapes:
                for psi in shapes:
                    yield ("reduce-D", sign, phi, chi, psi)
    for phi in shapes:
        for chi in shapes:
            yield ("reduce-p", phi, chi)
    bshapes = _multisets_up_to(pool, p["bbd_size"])
    for phi in bshapes:
        for chi in bshapes:
            for psi in bshapes:
                yield ("reduce-bbD", phi, chi, psi)
    if "sl3" in p["presets"]:
        s3shapes = _multisets_up_to(pool, p["sl3_size"])
        sl3 = make_preset("sl3")
        for alpha in range(sl3.m):
            for sign in (1, -1):
                for phi in s3shapes:
                    for chi in s3shapes:
                        if phi.size != chi.size:
                            continue
                        for psi in s3shapes:
                            yield ("reduce-omega", alpha, sign, phi, chi, psi)
    for preset_name in p["presets"]:
        preset = make_preset(preset_name)
        for alpha in range(preset.m):
            for sign in (1, -1):
                for b in pool:
                    for r in range(p["ad_r"] + 1):
                        for z in range(preset.dim):
                            for c in pool:
                                yield ("ad", preset_name, sign, alpha, b, r, z, c)
    gens = [
        (sign, b, r)
        for sign in (1, -1)
        for b in pool
        for r in range(1, p["prod_r"] + 1)
    ]
    for length in range(1, p["prod_len"] + 1):
        for combo in itertools.product(gens, repeat=length):
            yield ("product", combo)
    for a in pool:
        for b in pool:
            for r in range(1, p["bracket_r"] + 1):
                for s in range(1, p["bracket_r"] + 1):
                    yield ("bracket-xx", a, b, r, s)
    chis = _multisets_up_to(pool, p["bracket_chi"])
    for a in pool:
        for chi in chis:
            for r in range(1, p["bracket_r"] + 1):
                yield ("bracket-xp", a, chi, r)
                yield ("bracket-px", a, chi, r)


def _ad_integral(preset_name, sign, alpha, b, r, z, c):
    preset = make_preset(preset_name)
    x = Gen(preset.root_index(sign, alpha), b)
    w = ad_divided(preset, x, r, Element.generator(preset, z, c))
    if w.is_integral():
        return None
    return _property_failure(
        "ad %s sign=%+d alpha=%d b=%s r=%d z=%d c=%s"
        % (preset_name, sign, alpha, b, r, z, c),
        w,
        "integer coordinates",
        "fractional coefficient",
    )


def _divided_product(combo):
    elem = Element.one(make_preset("sl2"))
    for sign, b, r in combo:
        elem = elem * _root_power(sign, b, r)
    return elem


# ---------------------------------------------------------------------------
# rank-two straightening with sign extraction


def _instances_A2(spec):
    p = spec.params
    pool = _pool(p["labels"])
    for sign in (1, -1):
        for aidx, bidx in ((0, 1), (1, 0)):
            for r in range(p["max_r"] + 1):
                for s in range(p["max_r"] + 1):
                    for a in pool:
                        for b in pool:
                            yield ("a2", sign, aidx, bidx, r, s, a, b)


def _a2_signs(sign, aidx, bidx, r, s, a, b):
    sl3 = make_preset("sl3")
    theta = sl3.root_sum_index(aidx, bidx)
    ga = Gen(sl3.root_index(sign, aidx), a)
    gb = Gen(sl3.root_index(sign, bidx), b)
    gth = Gen(sl3.root_index(sign, theta), a * b)
    lhs = divided_power(sl3, ga, r) * divided_power(sl3, gb, s)
    cands = [
        divided_power(sl3, gb, s - k)
        * divided_power(sl3, gth, k)
        * divided_power(sl3, ga, r - k)
        for k in range(min(r, s) + 1)
    ]
    cand_terms = [e.terms for e in cands]
    lhs_terms = lhs.terms
    monos = sorted({m for t in cand_terms for m in t} | set(lhs_terms))
    columns = [tuple(t.get(m, 0) for m in monos) for t in cand_terms]
    target = tuple(lhs_terms.get(m, 0) for m in monos)
    args_str = "sign=%+d roots=(%d,%d) r=%d s=%d a=%s b=%s" % (sign, aidx, bidx, r, s, a, b)
    try:
        eps = exact_solve(columns, target)
    except ValueError:
        eps = None
    if eps is None:
        return _property_failure(
            args_str, lhs, "combination of divided-power products", "no exact solution"
        )
    if any(e not in (1, -1) for e in eps):
        return _property_failure(
            args_str, lhs, "signs in {+1, -1}", "coefficients %s" % (eps,)
        )
    rebuilt = Sum(sl3)
    for e, cand in zip(eps, cands):
        rebuilt.add(int(e), cand)
    fail = _failure(args_str, lhs, rebuilt.element())
    if fail is not None:
        return fail
    if min(r, s) >= 1:
        return "signs %s: eps=%s" % (
            "sign=%+d roots=(%d,%d) r=%d s=%d" % (sign, aidx, bidx, r, s),
            [int(e) for e in eps],
        )
    return None


# ---------------------------------------------------------------------------
# engine self checks: divided-power law, associativity, fold order


def _instances_divided_powers(spec):
    p = spec.params
    pool = _pool(p["labels"])
    sl2 = make_preset("sl2")
    for index in range(sl2.dim):
        for b in pool:
            for r in range(p["max_total"] + 1):
                for s in range(p["max_total"] + 1 - r):
                    yield ("dp", index, b, r, s)


def _divided_power_law_sides(index, b, r, s):
    sl2 = make_preset("sl2")
    g = Gen(index, b)
    lhs = divided_power(sl2, g, r) * divided_power(sl2, g, s)
    rhs = binom_int(r + s, r) * divided_power(sl2, g, r + s)
    return lhs, rhs


def _instances_self_consistency(spec):
    p = spec.params
    gens = [Gen(i, b) for i in range(make_preset("sl2").dim) for b in _pool(p["labels"])]
    rng = random.Random(spec.seed)

    def rand_elem_spec():
        words = []
        for _ in range(rng.randint(1, 2)):
            length = rng.randint(1, 2)
            word = tuple(gens[rng.randrange(len(gens))] for _ in range(length))
            coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            words.append((coeff, word))
        return tuple(words)

    for n in range(p["assoc_count"]):
        yield ("assoc", n, rand_elem_spec(), rand_elem_spec(), rand_elem_spec())
    for length in range(1, p["word_len"] + 1):
        for word in itertools.product(gens, repeat=length):
            yield ("word", word)


def _build_from_spec(espec):
    """The sum of ``coeff`` times the left-folded product of each word."""
    sl2 = make_preset("sl2")
    out = Sum(sl2)
    for coeff, word in espec:
        term = Element.one(sl2)
        for g in word:
            term = term * Element.generator(sl2, g.index, g.label)
        out.add(coeff, term)
    return out.element()


def _associativity_sides(n, su, sv, sw):
    u, v, w = _build_from_spec(su), _build_from_spec(sv), _build_from_spec(sw)
    return (u * v) * w, u * (v * w)


def _fold_order_sides(word):
    """A word multiplied from the left against the same word from the right."""
    sl2 = make_preset("sl2")
    right = Element.one(sl2)
    for g in reversed(word):
        right = Element.generator(sl2, g.index, g.label) * right
    return _build_from_spec(((1, word),)), right


# ---------------------------------------------------------------------------
# the check table and the runner


class Check(NamedTuple):
    """One check as data.  ``instances(spec)`` yields tuples whose first
    entry is their kind and whose other entries are the instance's fields;
    ``kinds`` maps every kind to an evaluator called with those fields
    alone, returning None on success, a :class:`CheckFailure`, or a note
    string for the report; ``presets`` are the algebras the check may be
    forced onto."""

    instances: Callable
    kinds: dict
    presets: tuple


# Rows call traced public functions through a lambda, never store them:
# the name is then looked up at call time, so wrappers installed on the
# module from outside (profilers, tracers) see every call.
CHECKS = {
    "straightening": Check(
        _instances_straightening,
        dict.fromkeys(("exh", "rand"), _equal("phi=%s chi=%s", _straightening_sides)),
        ("sl2",),
    ),
    "D-consistency": Check(
        _instances_D_consistency,
        {
            "expanded": _equal("sign=%+d psi=%s b=%s k=%d c=%s", _expanded_sides),
            "homogeneous": _equal("sign=%+d psi1=%s psi2=%s psi3=%s", _homogeneous_sides),
            "dressed-degree": _equal("psi1=%s psi2=%s psi3=%s", _dressed_degree_sides),
        },
        ("sl2",),
    ),
    "p-properties": Check(
        _instances_p_properties,
        {
            "leading": _equal("chi=%s", _leading_sides),
            "product": _cartan_product,
            "multiplicative": _equal("l=%d a=%s b=%s", _multiplicative_sides),
        },
        ("sl2",),
    ),
    "commutation": Check(
        _instances_commutation,
        {
            "xq-i": _equal(
                "xq-i %s alpha=%d i=%d b=%s phi=%s chi=%s", _at_preset(_xq_sides, "i")
            ),
            "xq-ii": _equal(
                "xq-ii %s alpha=%d i=%d b=%s phi=%s chi=%s", _at_preset(_xq_sides, "ii")
            ),
            "xrq-i": _equal(
                "xrq-i %s alpha=%d i=%d b=%s chi=%s r=%d", _at_preset(_xrq_sides, "i")
            ),
            "xrq-ii": _equal(
                "xrq-ii %s alpha=%d i=%d b=%s chi=%s r=%d", _at_preset(_xrq_sides, "ii")
            ),
            "qpx": _equal("qpx b=%s phi=%s chi=%s", _qpx_sides),
        },
        ("sl2", "sl3"),
    ),
    "D-identities": Check(
        _instances_D_identities,
        {
            "idD-i": _equal(
                "idD-i sign=%+d b=%s psi1=%s psi2=%s psi3=%s", lambda *a: _idD_sides(*a, "i")
            ),
            "idD-ii": _equal(
                "idD-ii sign=%+d b=%s psi1=%s psi2=%s psi3=%s", lambda *a: _idD_sides(*a, "ii")
            ),
            "idbbd": _equal("idbbd b=%s varphi=%s chi=%s", _idbbd_sides),
            "eqnq": _equal("eqnq b=%s varphi=%s chi=%s", _eqnq_sides),
            "eqnbbd": _equal("eqnbbd varphi=%s phi=%s chi=%s", _eqnbbd_sides),
        },
        ("sl2",),
    ),
    "integrality": Check(
        _instances_integrality,
        {
            "reduce-D": _integral("D sign=%+d %s %s %s", lambda *a: root_block(*a)),
            "reduce-p": _integral("p %s %s", lambda *a: cartan_pair(*a)),
            "reduce-bbD": _integral("bbD %s %s %s", lambda *a: dressed_block(*a)),
            "reduce-omega": _integral(
                "omega-D alpha=%d sign=%+d %s %s %s",
                lambda alpha, sign, *psis: omega(
                    alpha, root_block(sign, *psis), make_preset("sl3")
                ),
            ),
            "ad": _ad_integral,
            "product": _integral("product %s", _divided_product),
            "bracket-xx": _integral(
                "bracket-xx a=%s b=%s r=%d s=%d",
                lambda a, b, r, s: _bracket(_root_power(1, a, r), _root_power(-1, b, s)),
                lambda a, b, r, s: r + s,
            ),
            "bracket-xp": _integral(
                "bracket-xp a=%s chi=%s r=%d",
                lambda a, chi, r: _bracket(_root_power(1, a, r), cartan_single(chi)),
                lambda a, chi, r: r + chi.size,
            ),
            "bracket-px": _integral(
                "bracket-px a=%s chi=%s r=%d",
                lambda a, chi, r: _bracket(cartan_single(chi), _root_power(-1, a, r)),
                lambda a, chi, r: r + chi.size,
            ),
        },
        ("sl2", "sl3"),
    ),
    "A2": Check(_instances_A2, {"a2": _a2_signs}, ("sl3",)),
    "divided-powers": Check(
        _instances_divided_powers,
        {"dp": _equal("gen=%d b=%s r=%d s=%d", _divided_power_law_sides)},
        ("sl2",),
    ),
    "self-consistency": Check(
        _instances_self_consistency,
        {
            "assoc": _equal("assoc #%d %s %s %s", _associativity_sides),
            "word": _equal("word %s", _fold_order_sides),
        },
        ("sl2",),
    ),
}


def check_names():
    return list(CHECKS)


def make_spec(name, profile="desk", preset=None, seed=0, overrides=None):
    if name not in CHECKS:
        raise ValueError("unknown check %r (known: %s)" % (name, ", ".join(CHECKS)))
    if profile not in PROFILES:
        raise ValueError("unknown profile %r" % (profile,))
    allowed = CHECKS[name].presets
    if preset is not None and preset not in allowed:
        raise ValueError(
            "check %r needs one of %s, got %r" % (name, "/".join(allowed), preset)
        )
    params = dict(PROFILES[profile][name])
    if preset is not None and "presets" in params:
        params["presets"] = (preset,)
    for key, value in (overrides or {}).items():
        if key in params:
            params[key] = value
    return CheckSpec(name=name, preset=preset, profile=profile, params=params, seed=seed)


def _check_overrides(specs, overrides):
    """Refuse an override that no check has as an integer bound, that none
    of the selected checks has, or that is negative, instead of silently
    dropping it or running an empty family."""
    bounds = {
        key
        for checks in PROFILES.values()
        for params in checks.values()
        for key, value in params.items()
        if isinstance(value, int)
    }
    selected = {key for spec in specs for key in spec.params}
    for key, value in (overrides or {}).items():
        if key not in bounds:
            raise ValueError(
                "unknown override key %r: not an integer bound of any check (bounds: %s)"
                % (key, ", ".join(sorted(bounds)))
            )
        if key not in selected:
            raise ValueError(
                "override key %r applies to none of the selected checks (%s)"
                % (key, ", ".join(spec.name for spec in specs))
            )
        if value < 0:
            raise ValueError("override %s=%d: a bound must be >= 0" % (key, value))


def run_check(spec):
    """Run one check and collect its report.  Instances are evaluated in
    their fixed order in this process, so reports are deterministic for a
    given spec and seed.  A family with no instances is refused: it would
    pass without testing anything."""
    check = CHECKS[spec.name]
    instances = list(check.instances(spec))
    if not instances:
        raise ValueError(
            "check %r has no instances under these bounds; an empty family proves nothing"
            % spec.name
        )
    start = time.perf_counter()
    failures = []
    notes = []
    for args in instances:
        res = check.kinds[args[0]](*args[1:])
        if res is None:
            continue
        if isinstance(res, str):
            if res not in notes:
                notes.append(res)
        else:
            failures.append(res)
    elapsed = (time.perf_counter() - start) * 1000.0
    return CheckReport(
        name=spec.name,
        instances=len(instances),
        failures=failures,
        elapsed_ms=elapsed,
        seed=spec.seed,
        notes=notes,
    )


def run_suite(names, profile="desk", preset=None, seed=0, overrides=None):
    """Run several checks and return their reports in order.  ``all``
    stands for every check and must be named alone; no check may be named
    twice."""
    names = list(names)
    if "all" in names:
        if len(names) > 1:
            raise ValueError("'all' already names every check; give it alone")
        names = check_names()
    for name in names:
        if names.count(name) > 1:
            raise ValueError("check %r is named more than once" % name)
    specs = [
        make_spec(name, profile=profile, preset=preset, seed=seed, overrides=overrides)
        for name in names
    ]
    _check_overrides(specs, overrides)
    return [run_check(spec) for spec in specs]
