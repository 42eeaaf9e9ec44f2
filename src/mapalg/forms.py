"""Named element families of the integral form and reduction to its basis.

Everything here lives over the rank-one engine first: the Cartan-valued
pair elements, the root blocks built from divided powers and the dressed
blocks combining both.  The rank-one objects are pushed into a larger
algebra along a chosen root when needed.  The integral basis consists of
products (negative part) x (Cartan part) x (positive part) indexed by
tuples of label multisets, and arbitrary elements are reduced against it
by exact leading-term elimination, one degree layer at a time from the
top, over integer numerators.  Its premise (each basis element has one
top-degree term) is checked once per monomial.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .combinatorics import (
    ALabel,
    Multiset,
    fold_label,
    matched_splits,
    multinomial,
    multisets_of_size,
    partitions,
)
from .memo import clear_caches, memoised  # noqa: F401  (clear_caches is re-exported)
from .pbw import Element, Gen, Sum, divided_power, make_preset, omega


def _sl2():
    return make_preset("sl2")


def _sign(sign):
    if sign in (1, "+", "+1"):
        return 1
    if sign in (-1, "-", "-1"):
        return -1
    raise ValueError("sign must be + or -")


def root_monomial(sign, alpha, psi, preset=None):
    """Ordered product of divided powers of one root vector, one factor
    per label in ``psi`` with exponent its multiplicity.  The factors
    commute, so this is a single monomial with coefficient the inverse
    product of multiplicity factorials."""
    preset = preset or _sl2()
    index = preset.root_index(_sign(sign), alpha)
    if not psi:
        return Element.one(preset)
    mono = tuple((Gen(index, a), m) for a, m in psi.items())
    den = 1
    for _, m in psi.items():
        den *= math.factorial(m)
    return Element._trusted(preset, {mono: 1}, den)


@memoised
def cartan_pair(phi, chi):
    """The Cartan-valued element attached to a pair of label multisets.

    Defined by a recursion over proper sub-multiset splits; it vanishes
    whenever the two sizes differ and equals 1 on the empty pair.  Values
    are memoized, shared and must not be mutated.
    """
    sl2 = _sl2()
    if phi.size != chi.size:
        return Element.zero(sl2)
    if not phi:
        return Element.one(sl2)
    acc = Sum(sl2)
    for psi1, rest1, psi2, rest2 in matched_splits(phi, chi):
        if not psi1:
            continue
        rest = cartan_pair(rest1, rest2)
        if rest.is_zero():
            continue
        lab = fold_label(ALabel.unit(psi1.items()[0][0].nvars), psi1, psi2)
        weight = multinomial(psi1) * multinomial(psi2)
        acc.add_product(-weight, Element.generator(sl2, sl2.cartan_index(0), lab), rest)
    return acc.element(phi.size)


def cartan_single(chi):
    """One-argument form: pair ``chi`` with size-many copies of the unit."""
    if not chi:
        return Element.one(_sl2())
    nvars = chi.items()[0][0].nvars
    return cartan_pair(chi, Multiset.single(ALabel.unit(nvars), chi.size))


@memoised
def cartan_at_root(alpha, chi, target):
    """:func:`cartan_single` pushed into ``target`` along root ``alpha``;
    memoized like :func:`cartan_pair_at_root`."""
    return omega(alpha, cartan_single(chi), target)


@memoised
def cartan_pair_at_root(alpha, phi, chi, target):
    """:func:`cartan_pair` pushed into ``target`` along root ``alpha``.
    Values are memoized, shared and must not be mutated."""
    return omega(alpha, cartan_pair(phi, chi), target)


@memoised
def root_block(sign, psi1, psi2, psi3):
    """The straightening block of root vectors for three label multisets.

    Recursion on the third argument: empty gives 1 or 0, a singleton
    gives one weighted generator, larger sizes average over all splits.
    The singleton closed form agrees with the general clause there (the
    overlap is exercised by the tests).  Zero whenever the first two
    sizes differ.
    """
    sign = _sign(sign)
    sl2 = _sl2()
    if psi1.size != psi2.size:
        return Element.zero(sl2)
    if not psi3:
        return Element.one(sl2) if not psi1 else Element.zero(sl2)
    if psi3.size == 1:
        b = psi3.items()[0][0]
        lab = fold_label(b, psi1, psi2)
        weight = multinomial(psi1) * multinomial(psi2)
        return weight * Element.generator(sl2, sl2.root_index(sign, 0), lab)
    acc = Sum(sl2)
    for b in psi3.support():
        single = Multiset.single(b)
        rest3 = psi3 - single
        for phi1, rest1, phi2, rest2 in matched_splits(psi1, psi2):
            left = root_block(sign, phi1, phi2, single)
            right = root_block(sign, rest1, rest2, rest3)
            acc.add_product(1, left, right)
    return acc.element(psi3.size)


def root_block_expanded(sign, psi, b, k, c):
    """Closed partition formula for the block with second argument
    ``size-of-psi`` copies of ``b`` and third argument ``k`` copies of
    ``c``.  Must agree with :func:`root_block` on that whole domain; the
    empty part in partitions is what makes the pure divided power appear
    when ``psi`` is empty."""
    sign = _sign(sign)
    if k < 1:
        raise ValueError("k must be >= 1")
    sl2 = _sl2()
    index = sl2.root_index(sign, 0)
    acc = Sum(sl2)
    for split in partitions(psi, k):
        scalar = 1
        term = Element.one(sl2)
        for part, cnt in split.items():
            lab = fold_label(c * b**part.size, part)
            scalar *= multinomial(part) ** cnt
            term = term * divided_power(sl2, Gen(index, lab), cnt)
        acc.add(scalar, term)
    return acc.element()


@memoised
def dressed_block(psi1, psi2, psi3):
    """Root block dressed with Cartan pairs over all sub-multiset splits
    of its first two arguments."""
    acc = Sum(_sl2())
    for phi1, rest1, phi2, rest2 in matched_splits(psi1, psi2):
        pair = cartan_pair(phi1, phi2)
        if pair.is_zero():
            continue
        acc.add_product(1, pair, root_block(1, rest1, rest2, psi3))
    return acc.element()


class BasisIndex(NamedTuple):
    """Index of one basis element: a label multiset per positive root for
    the negative and positive parts, one per simple root for the Cartan
    part."""

    minus: tuple
    zero: tuple
    plus: tuple

    def render(self):
        def block(mss):
            return "[" + ", ".join(ms.render() for ms in mss) + "]"

        return "minus=%s zero=%s plus=%s" % (
            block(self.minus),
            block(self.zero),
            block(self.plus),
        )

    def to_json(self):
        return {
            "minus": [ms.to_json() for ms in self.minus],
            "zero": [ms.to_json() for ms in self.zero],
            "plus": [ms.to_json() for ms in self.plus],
        }

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or set(data) != {"minus", "zero", "plus"}:
            raise ValueError("basis index needs 'minus', 'zero' and 'plus'")
        return cls(
            tuple(Multiset.from_json(ms) for ms in data["minus"]),
            tuple(Multiset.from_json(ms) for ms in data["zero"]),
            tuple(Multiset.from_json(ms) for ms in data["plus"]),
        )


@memoised
def basis_element(preset, idx):
    """The basis element for ``idx``: negative root monomials, then the
    Cartan factors, then positive root monomials, normalized."""
    if len(idx.minus) != preset.m or len(idx.plus) != preset.m:
        raise ValueError("index arity does not match the %d positive roots" % preset.m)
    if len(idx.zero) != preset.rank:
        raise ValueError("index arity does not match rank %d" % preset.rank)
    out = Element.one(preset)
    for j, ms in enumerate(idx.minus):
        out = out * root_monomial(-1, j, ms, preset)
    for i, ms in enumerate(idx.zero):
        out = out * cartan_at_root(preset.simple_root_index(i), ms, preset)
    for j, ms in enumerate(idx.plus):
        out = out * root_monomial(1, j, ms, preset)
    return out


class ReductionResult(NamedTuple):
    """Exact decomposition over the basis: the input equals the sum of
    coeff * basis element over ``terms``, and ``integral`` is true exactly
    when every coefficient is an integer."""

    terms: list
    integral: bool

    def to_json(self):
        return {
            "terms": [[idx.to_json(), str(c)] for idx, c in self.terms],
            "integral": self.integral,
        }


def _index_of_monomial(preset, mono):
    """The basis index whose top term is ``mono``.  A sorted monomial lists
    the labels of each generator slot in ascending order, which is the
    canonical order of a multiset, so each slot's multiset is wrapped as
    it is."""
    slots = [[] for _ in range(preset.dim)]
    for g, e in mono:
        slots[g.index].append((g.label, e))
    parts = [Multiset._canonical(tuple(s), sum(e for _, e in s)) for s in slots]
    m, r = preset.m, preset.rank
    return BasisIndex(tuple(parts[:m]), tuple(parts[m : m + r]), tuple(parts[m + r :]))


def _inverse_leading_coeff(idx):
    """The leading coefficient of a basis element is a sign over a product
    of factorials; its inverse is that sign times the product."""
    inv = 1
    for ms in idx.minus + idx.plus:
        for _, m in ms.items():
            inv *= math.factorial(m)
    for ms in idx.zero:
        inv *= (-1) ** ms.size
        for _, m in ms.items():
            inv *= math.factorial(m)
    return inv


@memoised
def _reduction_step(preset, mono):
    """``(index, inverse leading coefficient, tail denominator, tail)`` for
    the basis element whose top term is ``mono``, memoized per preset and
    monomial; the element is the one stored by :func:`basis_element`.

    The tail is ``inv_lead * basis - mono``, the correction that
    eliminating ``mono`` leaves behind, as integer numerators over the
    tail denominator (reduced to lowest terms), grouped by total degree:
    a tuple of ``(degree, ((monomial, numerator), ...))``.

    Raises ValueError unless ``mono`` is that element's only monomial of
    top degree, with coefficient one over the inverse leading coefficient:
    the premise that makes greedy elimination exact.
    """
    idx = _index_of_monomial(preset, mono)
    inv_lead = _inverse_leading_coeff(idx)
    basis = basis_element(preset, idx)
    top = sum(e for _, e in mono)
    groups = {}
    premise = basis.num.get(mono, 0) * inv_lead == basis.den
    for m, c in basis.num.items():
        if m == mono:
            continue
        degree = sum(e for _, e in m)
        if degree >= top:
            premise = False
            break
        groups.setdefault(degree, []).append((m, c * inv_lead))
    if not premise:
        raise ValueError(
            "basis element %s does not have %s as its only top-degree term "
            "with coefficient %s" % (
                idx.render(), Element.monomial(preset, mono).render(), Fraction(1, inv_lead)
            )
        )
    den = basis.den
    g = math.gcd(den, *(c for group in groups.values() for _, c in group))
    tail = tuple(
        (degree, tuple((m, c // g) for m, c in group))
        for degree, group in groups.items()
    )
    return idx, inv_lead, den // g, tail


def reduce_to_basis(elem):
    """Exact leading-term elimination against the basis, one degree layer
    at a time.

    Every monomial's exponent pattern names a unique index whose basis
    element has exactly that monomial as its top-degree term (the Cartan
    factors contribute an alternating sign and lower-degree corrections);
    :func:`_reduction_step` checks this once per monomial and raises
    ValueError if it fails.  Eliminating a monomial therefore only adds
    terms of lower degree, so each layer of the residual is final once
    the layers above it are done.  Layers are taken from the top degree
    down, each in descending monomial order, and every step subtracts its
    tail into the residual's integer numerators, which share one
    denominator (scaled up when a tail's denominator is not 1).  The
    terms come out in the order of "take the maximal monomial of what is
    left" and reconstruct the input exactly.
    """
    den = elem.den
    layers = {}
    for mono, c in elem.num.items():
        layers.setdefault(sum(e for _, e in mono), {})[mono] = c
    terms = []
    for degree in range(max(layers, default=-1), -1, -1):
        layer = layers.pop(degree, None)
        if not layer:
            continue
        for mono in sorted(layer, reverse=True):
            c = layer[mono]
            if not c:
                continue
            idx, inv_lead, tail_den, tail = _reduction_step(elem.preset, mono)
            terms.append((idx, Fraction(c * inv_lead, den)))
            if tail_den != 1:
                den *= tail_den
                for residual in (layer, *layers.values()):
                    for m in residual:
                        residual[m] *= tail_den
            for lower, group in tail:
                residual = layers.setdefault(lower, {})
                for m, t in group:
                    residual[m] = residual.get(m, 0) - c * t
    integral = all(c.denominator == 1 for _, c in terms)
    return ReductionResult(terms=terms, integral=integral)


def _labels_up_to(nvars, max_degree):
    out = []
    for total in range(max_degree + 1):
        for exps in _compositions(total, nvars):
            out.append(ALabel(exps))
    out.sort(key=ALabel.sort_key)
    return out


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def enumerate_basis(preset, max_degree, max_label_degree, nvars=1):
    """All basis indices with total multiset size at most ``max_degree``
    over polynomial labels of degree at most ``max_label_degree``, in a
    fixed deterministic order.  Laurent labels are not enumerable by
    degree and are out of scope here."""
    if max_degree < 0 or max_label_degree < 0:
        raise ValueError("bounds must be >= 0")
    pool = _labels_up_to(nvars, max_label_degree)
    slots = 2 * preset.m + preset.rank
    for total in range(max_degree + 1):
        for sizes in _compositions(total, slots):
            pools = [list(multisets_of_size(pool, s)) for s in sizes]
            for combo in itertools.product(*pools):
                yield BasisIndex(
                    tuple(combo[: preset.m]),
                    tuple(combo[preset.m : preset.m + preset.rank]),
                    tuple(combo[preset.m + preset.rank :]),
                )
