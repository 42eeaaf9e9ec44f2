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

The four block families vanish when their first two multisets differ in
size.  Each public function answers that case with the preset's one zero
before any memo table is read, and otherwise calls its memoised body
(``_cartan_pair``, ``_cartan_pair_at_root``, ``_root_block``,
``_dressed_block``), so the tables hold matched sizes only.  The
recursions call the public names.
"""

from __future__ import annotations

import itertools
import math
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
from .pbw import Element, Gen, Mono, Sum, degree_of, divided_power, make_preset, omega, product


def _sl2():
    return make_preset("sl2")


def _sign(sign):
    """``sign`` if it is the int 1 or -1, the one spelling of each sign."""
    if type(sign) is int and sign in (1, -1):
        return sign
    raise ValueError("sign must be 1 or -1, not %r" % (sign,))


def root_monomial(sign, alpha, psi, preset=None):
    """Ordered product of divided powers of one root vector, one factor
    per label in ``psi`` with exponent its multiplicity.  The factors
    commute, so this is a single monomial with coefficient the inverse
    product of multiplicity factorials."""
    preset = preset or _sl2()
    index = preset.root_index(_sign(sign), alpha)
    if not psi:
        return Element.one(preset)
    mono = Mono((Gen(index, a), m) for a, m in psi.items())
    den = 1
    for _, m in psi.items():
        den *= math.factorial(m)
    return Element._trusted(preset, {mono: 1}, den)


def cartan_pair(phi, chi):
    """The Cartan-valued element attached to a pair of label multisets.

    Defined by a recursion over proper sub-multiset splits; it vanishes
    whenever the two sizes differ and equals 1 on the empty pair.  Values
    are memoized, shared and must not be mutated.
    """
    if phi.size != chi.size:
        return Element.zero(_sl2())
    return _cartan_pair(phi, chi)


@memoised
def _cartan_pair(phi, chi):
    """The memoised body of :func:`cartan_pair`."""
    sl2 = _sl2()
    if not phi:
        return Element.one(sl2)
    acc = Sum(sl2)
    for psi1, rest1, psi2, rest2 in matched_splits(phi, chi):
        if not psi1:
            continue
        rest = cartan_pair(rest1, rest2)
        lab = fold_label(ALabel.unit(psi1.items()[0][0].nvars), psi1, psi2)
        weight = multinomial(psi1) * multinomial(psi2)
        acc.add_product(-weight, Element.generator(sl2, sl2.cartan_index(0), lab), rest)
    return acc.element(phi.size)


def _units(chi):
    """Size-many copies of the unit label (empty for the empty ``chi``)."""
    if not chi:
        return chi
    return Multiset.single(ALabel.unit(chi.items()[0][0].nvars), chi.size)


def cartan_single(chi):
    """One-argument form: pair ``chi`` with size-many copies of the unit."""
    return cartan_pair(chi, _units(chi))


def cartan_at_root(alpha, chi, target):
    """:func:`cartan_single` pushed into ``target`` along root ``alpha``,
    read from the table of :func:`cartan_pair_at_root`."""
    return cartan_pair_at_root(alpha, chi, _units(chi), target)


def cartan_pair_at_root(alpha, phi, chi, target):
    """:func:`cartan_pair` pushed into ``target`` along root ``alpha``,
    checked even where the sizes differ: an int once per key, in the
    memoised body, and a float or bool, which would find an int's entry,
    before the table.  Values are memoized, shared and must not be mutated."""
    if phi.size != chi.size or type(alpha) is not int:
        target.root_index(1, alpha)
        if phi.size != chi.size:
            return Element.zero(target)
    return _cartan_pair_at_root(alpha, phi, chi, target)


@memoised
def _cartan_pair_at_root(alpha, phi, chi, target):
    """The memoised body of :func:`cartan_pair_at_root`."""
    target.root_index(1, alpha)
    return omega(alpha, cartan_pair(phi, chi), target)


def root_block(sign, psi1, psi2, psi3):
    """The straightening block of root vectors for three label multisets.

    Recursion on the third argument: empty gives 1 or 0, a singleton
    gives one weighted generator, larger sizes average over all splits.
    The singleton closed form agrees with the general clause there (the
    overlap is exercised by the tests).  Zero whenever the first two
    sizes differ; the sign is checked first.
    """
    if not (type(sign) is int and sign in (1, -1)):
        _sign(sign)
    if psi1.size != psi2.size:
        return Element.zero(_sl2())
    return _root_block(sign, psi1, psi2, psi3)


@memoised
def _root_block(sign, psi1, psi2, psi3):
    """The memoised body of :func:`root_block`, for a checked sign."""
    sl2 = _sl2()
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
        factors = []
        for part, cnt in split.items():
            scalar *= multinomial(part) ** cnt
            factors.append(divided_power(sl2, Gen(index, fold_label(c * b**part.size, part)), cnt))
        acc.add(scalar, product(sl2, factors))
    return acc.element()


def dressed_block(psi1, psi2, psi3):
    """Root block dressed with Cartan pairs over all sub-multiset splits
    of its first two arguments.  Zero whenever the first two sizes
    differ: each split pairs two parts of one size, so the two rests
    differ in size and their root block is zero."""
    if psi1.size != psi2.size:
        return Element.zero(_sl2())
    return _dressed_block(psi1, psi2, psi3)


@memoised
def _dressed_block(psi1, psi2, psi3):
    """The memoised body of :func:`dressed_block`."""
    acc = Sum(_sl2())
    for phi1, rest1, phi2, rest2 in matched_splits(psi1, psi2):
        acc.add_product(1, cartan_pair(phi1, phi2), root_block(1, rest1, rest2, psi3))
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


def basis_element(preset, idx):
    """The basis element for ``idx``: negative root monomials, then the
    Cartan factors, then positive root monomials, normalized.  Not
    memoised: :func:`_reduction_step` is the one table of basis elements."""
    if len(idx.minus) != preset.m or len(idx.plus) != preset.m:
        raise ValueError("index arity does not match the %d positive roots" % preset.m)
    if len(idx.zero) != preset.rank:
        raise ValueError("index arity does not match rank %d" % preset.rank)
    minus = [root_monomial(-1, j, ms, preset) for j, ms in enumerate(idx.minus)]
    zero = [cartan_at_root(preset.simple_root_index(i), ms, preset) for i, ms in enumerate(idx.zero)]
    plus = [root_monomial(1, j, ms, preset) for j, ms in enumerate(idx.plus)]
    return product(preset, minus + zero + plus)


class ReductionResult(NamedTuple):
    """Exact decomposition over the basis: the input equals the sum of
    coeff * basis element over ``terms``, and ``integral`` is true exactly
    when every coefficient is an integer.

    Held as ``(monomial, numerator)`` pairs over the input's denominator
    ``den``, each monomial the top term of its basis element; ``terms``, the
    ``(BasisIndex, Fraction)`` pairs, is built on each read.  ``==``
    compares the fields."""

    preset: object
    pairs: list
    den: int
    integral: bool

    @property
    def terms(self):
        from fractions import Fraction

        preset, den = self.preset, self.den
        return [(_index_of_monomial(preset, m), Fraction(n, den)) for m, n in self.pairs]

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
    parts = [Multiset._canonical(tuple(s), degree_of(s)) for s in slots]
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


def _reduction_step(preset, mono):
    """``(inverse leading coefficient, tail)`` for the basis element whose
    top term is ``mono``, memoized in ``preset._steps`` (a memo table per
    preset, keyed by the monomial, which names the index one-to-one): each
    element is built once, and the index is not kept
    (:class:`ReductionResult` reads it off ``mono`` when asked).

    The tail is ``inv_lead * basis - mono``, the correction that
    eliminating ``mono`` leaves behind, as integers grouped by total
    degree: a tuple of ``(degree, ((monomial, coefficient), ...))``.

    Raises ValueError unless ``mono`` is that element's only monomial of
    top degree, with coefficient one over the inverse leading coefficient,
    and ``inv_lead * basis`` is integral: the premises that make greedy
    elimination exact and keep it over the integers.  The paper's basis
    meets the last one: ``prod(m_a!) * p(chi)`` is an integer polynomial
    (its coefficients count set partitions, as in Newton's identities for
    Garland's Lambda_r), a push along a root substitutes integer coroot
    coefficients, and a divided-power root monomial times its factorials
    is a plain monomial.
    """
    step = preset._steps.get(mono)
    if step is not None:
        return step
    idx = _index_of_monomial(preset, mono)
    inv_lead = _inverse_leading_coeff(idx)
    basis = basis_element(preset, idx)
    den = basis.den
    top = degree_of(mono)
    groups = {}
    premise = basis.num.get(mono, 0) * inv_lead == den
    for m, c in basis.num.items():
        if m == mono:
            continue
        degree = degree_of(m)
        c *= inv_lead
        if degree >= top or c % den:
            premise = False
            break
        groups.setdefault(degree, []).append((m, c // den))
    if not premise:
        from fractions import Fraction

        raise ValueError(
            "basis element %s does not have %s as its only top-degree term with coefficient %s"
            " and lower terms integral times %d"
            % (idx.render(), Element._trusted(preset, {mono: 1}, 1).render(), Fraction(1, inv_lead), inv_lead)
        )
    step = preset._steps[mono] = inv_lead, tuple(
        (degree, tuple(group)) for degree, group in groups.items()
    )
    return step


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
    integer tail into the residual's integer numerators, over the input's
    own denominator.  The terms come out in the order of "take the
    maximal monomial of what is left" and reconstruct the input exactly.
    """
    layers = {}
    for mono, c in elem.num.items():
        layers.setdefault(degree_of(mono), {})[mono] = c
    pairs = []
    for degree in range(max(layers, default=-1), -1, -1):
        layer = layers.pop(degree, None)
        if not layer:
            continue
        for mono in sorted(layer, reverse=True):
            c = layer[mono]
            if not c:
                continue
            inv_lead, tail = _reduction_step(elem.preset, mono)
            pairs.append((mono, c * inv_lead))
            for lower, group in tail:
                residual = layers.setdefault(lower, {})
                for m, t in group:
                    residual[m] = residual.get(m, 0) - c * t
    den = elem.den
    return ReductionResult(elem.preset, pairs, den, den == 1 or all(n % den == 0 for _, n in pairs))


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
    if nvars < 1:
        raise ValueError("nvars must be >= 1")
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
