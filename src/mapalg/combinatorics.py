"""Monomial labels and multiset machinery for the coefficient algebra.

The coefficient algebra is realized concretely as the span of a monomial
monoid: a label is an integer exponent vector over a fixed number of
variables, and the all-zero vector is the unit.  Multisets of labels (and
multisets of multisets, used for partitions) drive every enumeration in
the engine, so all orderings here are total and deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator

from .memo import memoised, new_table


# ``exponents`` -> the one ALabel with that exponent vector; see ALabel.
_labels = {}

# ``(label, label)`` -> their product and ``(k, label)`` -> ``label**k``
# for an int ``k``.  A power's key starts with the int, so ``label * k``
# never finds one.  Emptying it is safe: results re-intern in ``_labels``.
_label_products = new_table()


def as_int(k, what):
    """``k`` itself if it is an int and not a bool, else ``TypeError``:
    ``int()`` would truncate 1.5 to 1 and read ``True`` as 1."""
    if type(k) is not int:
        raise TypeError("%s must be an int, not %r" % (what, k))
    return k


def _label(exps):
    """The one label with the exponent vector ``exps``, a non-empty tuple
    of ints; built only if the value is new."""
    label = _labels.get(exps)
    if label is None:
        label = _labels[exps] = tuple.__new__(ALabel, (sum(exps), exps))
    return label


class ALabel(tuple):
    """A basis monomial of the coefficient algebra, as an exponent vector.

    Labels of one session share a fixed vector length.  In polynomial mode
    the exponents are non-negative; Laurent mode admits any integers (mode
    is enforced at the input boundary, not here).  The total order is
    graded-lex: total degree first, then the exponent vector.

    A label is stored as the plain tuple ``(degree, exponents)``, so that
    equality and the graded-lex order are tuple comparisons, done in C.
    Labels are hash-consed like :class:`Multiset`: one object per value,
    kept in the module table ``_labels`` (which ``clear_caches()`` leaves
    alone), so the hash is ``object``'s identity hash.  The constructor,
    :meth:`unit`, :meth:`from_json`, ``*`` and ``**`` (both memoised) and
    unpickling and copying (``__reduce__``) all end in that table.  The
    tuple arithmetic that would otherwise leak through is closed off:
    ``*`` is the label product and ``+`` is refused.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __new__(cls, exponents):
        exps = tuple(as_int(e, "a label exponent") for e in exponents)
        if not exps:
            raise ValueError("a label needs at least one variable")
        return _label(exps)

    def __reduce__(self):
        # not __getnewargs__: pickle protocols 0 and 1 would skip __new__
        return (ALabel, (self[1],))

    @classmethod
    def unit(cls, nvars):
        return cls((0,) * nvars)

    @property
    def exponents(self):
        return self[1]

    @property
    def nvars(self):
        return len(self[1])

    @property
    def degree(self):
        return self[0]

    def is_unit(self):
        return not any(self[1])

    def sort_key(self):
        return self

    def __mul__(self, other):
        hit = _label_products.get((self, other))
        if hit is None:
            if not isinstance(other, ALabel):
                self._no_tuple_arithmetic(other)
            a, b = self[1], other[1]
            if len(a) != len(b):
                raise ValueError("label length mismatch: %d vs %d" % (len(a), len(b)))
            hit = _label_products[self, other] = _label(tuple(map(operator.add, a, b)))
        return hit

    def _no_tuple_arithmetic(self, other):
        # tuple repetition and concatenation would otherwise answer for a label
        raise TypeError(
            "a label multiplies only with a label, not with %r" % type(other).__name__
        )

    __rmul__ = __add__ = __radd__ = _no_tuple_arithmetic

    def __pow__(self, k):
        k = as_int(k, "a label power")
        hit = _label_products.get((k, self))
        if hit is None:
            hit = _label_products[k, self] = _label(tuple(e * k for e in self[1]))
        return hit

    def render(self):
        if self.is_unit():
            return "1"
        if self.nvars == 1:
            e = self.exponents[0]
            return "t" if e == 1 else "t^%d" % e
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 0:
                continue
            parts.append("t%d" % (i + 1) if e == 1 else "t%d^%d" % (i + 1, e))
        return "*".join(parts)

    def __repr__(self):
        return self.render()

    def to_json(self):
        return list(self.exponents)

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or not all(
            isinstance(e, int) and not isinstance(e, bool) for e in data
        ):
            raise ValueError("label must be a JSON array of integers")
        return cls(data)


# ``_items`` -> the one Multiset with those items; see Multiset.
_interned = {}


class Multiset:
    """A finite-support multiplicity function with totally ordered keys.

    Keys are labels, or multisets themselves when used one level up (a
    partition stores its parts as keys, and the empty multiset is a legal
    part).  Zero multiplicities are never stored, so the empty multiset is
    the additive unit.

    ``psi <= chi`` is the pointwise partial order from the math; use
    ``sort_key()`` when a total order is needed for sorting.

    Multisets are hash-consed: there is one object per value, kept in a
    module table from ``_items`` to that object, so equality is identity
    and hashing is the identity hash, both done in C by ``object``.
    ``_items`` is never mutated.  The table only grows (one entry per
    distinct value ever built); it is not a memo table, and
    :func:`~mapalg.memo.clear_caches` leaves it alone, because a second
    object of a live value would break identity equality.

    The public constructor validates, merges and sorts its entries; the
    enumerations and ``-`` build results that are already canonical
    through :meth:`_canonical`, which does none of that.  Both end in the
    table, and so does unpickling and copying, through ``__reduce__``.
    """

    __slots__ = ("_items", "_size")

    def __new__(cls, entries=()):
        acc = {}
        items = entries.items() if isinstance(entries, dict) else entries
        for key, mult in items:
            mult = as_int(mult, "a multiplicity")
            if mult < 0:
                raise ValueError("negative multiplicity %d for %r" % (mult, key))
            if mult:
                acc[key] = acc.get(key, 0) + mult
        items = tuple(sorted(acc.items(), key=lambda kv: kv[0].sort_key()))
        return cls._canonical(items, sum(acc.values()))

    @classmethod
    def _canonical(cls, items, size):
        """The one multiset with ``items``, a tuple of (key, multiplicity)
        pairs already in canonical form: distinct keys in sort order,
        positive integer multiplicities summing to ``size``.  Nothing is
        checked; the object is built only if the value is new."""
        self = _interned.get(items)
        if self is None:
            self = _interned[items] = object.__new__(cls)
            self._items = items
            self._size = size
        return self

    def __reduce__(self):
        return (Multiset._canonical, (self._items, self._size))

    @classmethod
    def single(cls, key, mult=1):
        """The characteristic multiset of one key (scaled by ``mult``)."""
        if as_int(mult, "a multiplicity") == 1:
            return cls._canonical(((key, 1),), 1)
        return cls(((key, mult),))

    # read in C: the block families and the split loops test sizes everywhere
    size = property(operator.attrgetter("_size"))

    def items(self):
        return self._items

    def support(self):
        return tuple(k for k, _ in self._items)

    def count(self, key):
        # a scan: the multisets of the engine have at most a few keys
        for k, m in self._items:
            if k == key:
                return m
        return 0

    def __bool__(self):
        return bool(self._items)

    def sort_key(self):
        return (self._size, tuple((k.sort_key(), m) for k, m in self._items))

    def __le__(self, other):
        """Pointwise comparison: every multiplicity fits inside ``other``."""
        if not isinstance(other, Multiset):
            return NotImplemented
        return all(m <= other.count(k) for k, m in self._items)

    def __add__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        return Multiset(self._items + other._items)

    def __sub__(self, other):
        if not isinstance(other, Multiset):
            return NotImplemented
        taken = dict(other._items)
        items = []
        matched = 0
        for k, m in self._items:
            t = taken.get(k)
            if t is None:
                items.append((k, m))
                continue
            matched += 1
            if t < m:
                items.append((k, m - t))
            elif t > m:
                break
        else:
            if matched == len(taken):
                return Multiset._canonical(tuple(items), self._size - other._size)
        raise ValueError("cannot subtract %r from %r: not contained" % (other, self))

    def scale(self, k):
        k = as_int(k, "a scale")
        if k < 0:
            raise ValueError("negative scale")
        return Multiset((key, m * k) for key, m in self._items) if k else Multiset()

    def weighted_total(self):
        """Sum of key * multiplicity; keys must themselves be multisets."""
        out = Multiset()
        for key, m in self._items:
            out = out + key.scale(m)
        return out

    def render(self):
        if not self._items:
            return "{}"
        return "{" + ", ".join("%s:%d" % (k.render(), m) for k, m in self._items) + "}"

    def __repr__(self):
        return self.render()

    def to_json(self):
        return [[k.to_json(), m] for k, m in self._items]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list):
            raise ValueError("multiset must be a JSON array of [key, mult] pairs")
        pairs = []
        for entry in data:
            if not (isinstance(entry, list) and len(entry) == 2):
                raise ValueError("multiset entry must be a [key, mult] pair")
            key, mult = entry
            if type(mult) is not int or mult <= 0:
                raise ValueError("multiset multiplicity must be a positive integer")
            pairs.append((ALabel.from_json(key), mult))
        return cls(pairs)


def multisets_of_size(pool, size):
    """Every multiset of ``size`` keys drawn with repetition from ``pool``,
    in the order of ``itertools.combinations_with_replacement``."""
    for combo in itertools.combinations_with_replacement(pool, size):
        yield Multiset((k, 1) for k in combo)


@memoised
def multinomial(ms):
    """Number of distinct arrangements: size! over the product of
    multiplicity factorials.  Always a positive integer.  Memoised for the
    process, keyed by the interned multiset."""
    num = math.factorial(ms.size)
    den = 1
    for _, m in ms.items():
        den *= math.factorial(m)
    assert num % den == 0
    return num // den


def binom_int(n, k):
    """Generalized binomial coefficient for any integer ``n`` and k >= 0:
    ``math.comb`` for ``n >= 0``, the falling factorial over ``k!`` for a
    negative ``n``."""
    if k < 0:
        raise ValueError("negative lower index")
    if n >= 0:
        return math.comb(n, k)
    num = 1
    for j in range(k):
        num *= n - j
    den = math.factorial(k)
    assert num % den == 0
    return num // den


def label_product(ms, nvars=None):
    """Product of every key raised to its multiplicity, as a single label.

    The empty multiset maps to the unit, which needs an explicit variable
    count since there is no key to infer it from.
    """
    if not ms:
        if nvars is None:
            raise ValueError("empty multiset: pass nvars to produce the unit label")
        return ALabel.unit(nvars)
    return fold_label(ALabel.unit(ms.items()[0][0].nvars), ms)


@memoised
def fold_label(start, *multisets):
    """``start`` times every key of the multisets raised to its multiplicity.
    Memoised for the process, keyed by the interned label and multisets."""
    out = start
    for ms in multisets:
        for key, m in ms.items():
            out = out * key**m
    return out


def sub_multisets(chi, size=None):
    """All multisets contained pointwise in ``chi``, each exactly once.

    Without ``size`` the count is the product of (multiplicity + 1) over
    the support.  With ``size`` only those of that total size are yielded.
    The order is deterministic (per-key multiplicities counted up in key
    order, last key fastest).  They are read from the shared table of
    :func:`splits`, so they are shared between callers too.
    """
    if size is not None and size < 0:
        raise ValueError("size must be >= 0")
    for psi, _ in splits(chi):
        if size is None or psi.size == size:
            yield psi


@memoised
def splits(chi):
    """Every pair ``(sub, chi - sub)``, the subs in :func:`sub_multisets`
    order, built once per ``chi`` and shared: no complement is computed
    per call."""
    # The subs count up in mixed radix, so the complement of the i-th sub
    # is the i-th from the end: no multiset is built twice.
    keys = [k for k, _ in chi.items()]
    ranges = [range(m + 1) for _, m in chi.items()]
    subs = [
        Multiset._canonical(tuple((k, m) for k, m in zip(keys, combo) if m), sum(combo))
        for combo in itertools.product(*ranges)
    ]
    return tuple(zip(subs, reversed(subs)))


def matched_splits(psi1, psi2):
    """Every ``(phi1, psi1 - phi1, phi2, psi2 - phi2)`` with ``phi1`` and
    ``phi2`` of equal size, in the order of two nested :func:`splits`
    loops, complements included."""
    splits2 = splits(psi2)
    for phi1, rest1 in splits(psi1):
        size = phi1._size
        for phi2, rest2 in splits2:
            if phi2._size == size:
                yield phi1, rest1, phi2, rest2


@memoised
def _parts_descending(budget):
    """Every ``(sort key, part, budget - part)`` of the split table, parts
    in descending sort order, sorted once per budget."""
    keyed = [(part.sort_key(), part, rest) for part, rest in splits(budget)]
    return tuple(sorted(keyed, key=operator.itemgetter(0), reverse=True))


def _part_sequences(chi, parts):
    """Every ``(seq, leftover)``: ``seq`` is ``parts`` sub-multisets in
    non-increasing sort order whose sum is contained in ``chi``, and
    ``leftover`` is ``chi`` minus that sum, the recursion's final budget,
    read from the split table."""

    def rec(budget, left, bound):
        if left == 0:
            yield (), budget
            return
        for key, part, others in _parts_descending(budget):
            if bound is not None and key > bound:
                continue
            for rest, leftover in rec(others, left - 1, key):
                yield (part,) + rest, leftover

    return rec(chi, parts, None)


def _multiset_of_parts(seq):
    """``Multiset((p, 1) for p in seq)`` for parts in non-increasing sort
    order: equal parts are adjacent, so the reversed run lengths are
    already canonical."""
    items = []
    for part in reversed(seq):
        if items and items[-1][0] == part:
            items[-1] = (part, items[-1][1] + 1)
        else:
            items.append((part, 1))
    return Multiset._canonical(tuple(items), len(seq))


def partitions(chi, parts):
    """All ways to write ``chi`` as a sum of exactly ``parts`` multisets,
    counted with multiplicity and emitted as a multiset of parts.

    The empty multiset is an allowed part.  This is forced by the engine's
    closed product formulas: splitting into k parts must cover the case
    where some factors carry no label content at all, otherwise the k-th
    divided power of a single generator would not arise from any split.
    Consequently the partition count without a part bound is infinite;
    only the fixed-size families enumerated here are materialized.
    """
    if parts < 1:
        raise ValueError("parts must be >= 1")
    for seq, leftover in _part_sequences(chi, parts):
        if not leftover:
            yield _multiset_of_parts(seq)


def subpartitions(chi, parts):
    """Like :func:`partitions` but the parts need only sum to something
    contained in ``chi``.  Enumerated directly (not by unioning partition
    sets over sub-multisets), so the two counts can cross-check each other.
    """
    for psi, _ in subpartition_splits(chi, parts):
        yield psi


def subpartition_splits(chi, parts):
    """Every ``(psi, leftover)`` with ``psi`` from :func:`subpartitions`, in
    its order, and ``leftover`` equal to ``chi - psi.weighted_total()``,
    handed out by the enumeration instead of recomputed."""
    if parts < 0:
        raise ValueError("parts must be >= 0")
    for seq, leftover in _part_sequences(chi, parts):
        yield _multiset_of_parts(seq), leftover
