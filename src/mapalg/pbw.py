"""Exact PBW-ordered arithmetic in enveloping algebras of map algebras.

A Lie algebra is given by an ordered integer basis with the negative root
vectors first, the Cartan generators in the middle and the positive root
vectors last, so that a monomial whose generators weakly increase is
already in triangular normal form.  Elements are finite rational linear
combinations of such monomials over generators ``z tensor a`` where ``a``
is a monomial label; products are straightened exactly with the rewrite
``x y = y x + [x, y]`` and never touch floating point.

Monomials are multiplied as monomials, never flattened into words, with
runs ``(g, e)`` kept as exponents, by one recursion, :func:`_mono_product`:
a pair already in order is joined into one monomial, a one-letter right
factor below the last letter takes the rewrite, and a longer right factor
is peeled letter by letter.  Each product that needs rewriting is memoised
per preset in ``LiePreset._products``, the one normal-form table, which
joins the registry of :mod:`mapalg.memo`.  That table and the join table
``_concats`` are check tables of that registry: ``identities.run_check``
empties them before its first instance.  An entry is one rewrite step
over sub-forms that are memoised too, so a check rebuilds what it needs
cheaply, and the tables never hold more than one check's forms; the
family tables of :mod:`mapalg.forms`, whose entries are costly and shared
between checks, live for the process.  A memoised normal form
is one flat tuple ``(m1, c1, m2, c2, ...)`` of monomials and nonzero
ints, in the order its terms were first reached, and is read pair by pair
with ``it = iter(form); zip(it, it)``: a dict of a few terms would take
several times the memory.

Tables are keyed by the interned objects they hold, never by a tuple
built for the key.  Both pair tables are nested right factor first,
``table[m2][m1]``: a check multiplies many left factors by few right
ones (30 right against 1,323 left in ``_products`` at the end of desk
integrality), so the rows are few and long.  A letter ``(Gen, e)`` of a
monomial holds a hash-consed :class:`Gen` over a hash-consed label, and
monomials themselves are hash-consed as :class:`Mono`: each value is one
object, so every table key, every ``Element.num`` key and every reduction
step hashes a monomial by identity, and a label product is one lookup in
a memo table.  The intern table ``_monos`` is keyed by the hash of the
letters, so no letter tuple is kept beside its ``Mono``.  Each algebra has
one zero and one unit, shared by every caller; a product with the unit is
the other factor itself, with no straightening.

Sums of products, the shape of every identity the engine checks, are
built in one exact accumulator, :class:`Sum`: ``add_product(k, x, y)``
straightens ``x * y`` with the same loop as ``*`` straight into one
integer dict over one running denominator, and ``element()`` reduces once
at the end.

Rationals live only at the edges, the solver included: the one linear
solver, :func:`solve_integers`, behind a preset's structure constants and
the A2 signs, eliminates over the integers and returns integers over one
denominator.  A scalar is any ``numbers.Rational`` but a bool, read
through its ``numerator`` and ``denominator``; ``fractions`` is imported
only by the views and parsers that build a ``Fraction``, so a check
process never imports it.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
from typing import NamedTuple

from .combinatorics import ALabel, as_int
from .memo import new_table


class _GenFields(NamedTuple):
    index: int
    label: ALabel


# ``(index, label)`` -> the one Gen with those fields; see Gen.
_gens = {}


class Gen(_GenFields):
    """One generator ``basis[index] tensor label``.

    Tuple comparison gives the PBW order directly because the preset basis
    is stored negative roots first, then Cartan, then positive roots.

    Generators are hash-consed like labels: one object per value, kept in
    the module table ``_gens`` and left alone by ``clear_caches()``, so
    the hash is ``object``'s identity hash, while equality and the order
    stay tuple comparisons.  The constructor, ``_make``, ``_replace`` and
    unpickling and copying all end in that table.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __new__(cls, index, label):
        key = (index, label)
        gen = _gens.get(key)
        if gen is None:
            # a float or bool index equals its int, so it would take the int's entry
            as_int(index, "a generator index")
            gen = _gens[key] = tuple.__new__(cls, key)
        return gen

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return (Gen, tuple(self))


# hash(letters) -> the one Mono with those letters, so that no letter tuple
# is kept beside its Mono; a Mono whose hash another value already holds
# is kept in _mono_spill, letters -> Mono.  See Mono.
_monos = {}
_mono_spill = {}


class Mono(tuple):
    """A PBW monomial: a strictly increasing tuple of ``(Gen, exponent)``
    letters: the key of every ``Element.num`` and each monomial of a
    memoised normal form.

    Monomials are hash-consed like generators: one object per value, kept
    in the module table ``_monos`` (keyed by the hash of the letters, with
    ``_mono_spill`` for a value whose hash is taken) and left alone by
    ``clear_caches()``, so the hash is ``object``'s identity hash, while
    equality and the order stay tuple comparisons.  A plain tuple is equal
    to its ``Mono`` but hashes differently, so a dict keyed by monomials is
    looked up with ``Mono(...)`` keys only.  Unpickling and copying end in
    the table.
    """

    __slots__ = ()
    __hash__ = object.__hash__

    def __new__(cls, letters=()):
        key = tuple(letters)
        h = hash(key)
        mono = _monos.get(h)
        if mono is None:
            mono = _monos[h] = tuple.__new__(cls, key)
        elif mono != key:
            mono = _mono_spill.get(key)
            if mono is None:
                mono = _mono_spill[key] = tuple.__new__(cls, key)
        return mono

    def __reduce__(self):
        return (Mono, (tuple(self),))


ONE = Mono()

_exponent = operator.itemgetter(1)


def degree_of(mono):
    """The total degree of a monomial, or of any ``(key, exponent)`` pairs:
    the sum of the exponents."""
    return sum(map(_exponent, mono))


# m2 -> {m1: _join(m1, m2)} for nonempty m1 and m2 already in PBW order,
# right factor first, filled by _mul_into only; lives for one check
_concats = new_table("check")


def _join(m1, m2):
    """``m1 · m2`` as one monomial for a pair already in PBW order
    (``m1[-1][0] <= m2[0][0]``): the two concatenated, with the boundary
    runs merged when they share a generator."""
    if m1 and m2:
        x, e = m1[-1]
        g, f = m2[0]
        if x == g:
            return Mono(m1[:-1] + ((x, e + f),) + m2[1:])
    return Mono(m1 + m2)


# An integer written in ASCII digits: int() alone would also take "1_0",
# "+1", blanks and other scripts' digits.
INTEGER_TEXT = re.compile(r"-?[0-9]+")


def _commutator(a, b):
    """``ab - ba`` for square matrices ``a`` and ``b``, flattened row by row."""
    n = len(a)
    return tuple(
        sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
        for i in range(n)
        for j in range(n)
    )


def solve_integers(columns, targets):
    """Solve ``sum_k c_k * columns[k] = target`` for every target at once
    by one Gauss-Jordan elimination over the integers, the targets carried
    as extra columns: a row step cross-multiplies and divides out the row's
    content, so no entry is ever a fraction.  Returns, per target, integers
    ``(coeffs, den)`` in lowest terms with ``den >= 1`` and
    ``sum_k coeffs[k] * columns[k] == den * target``, or None for a target
    off the span.  Raises ``ValueError`` if the columns are linearly
    dependent, since all callers expand against a basis."""
    ncols = len(columns)
    rows = [list(row) for row in zip(*columns, *targets)]
    for k in range(ncols):
        pivot = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if pivot is None:
            raise ValueError("dependent columns in solve_integers")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for r, row in enumerate(rows):
            if r != k and row[k]:
                g = math.gcd(top[k], row[k])
                a, b = top[k] // g, row[k] // g
                row = [a * x - b * y for x, y in zip(row, top)]
                g = math.gcd(*row)
                rows[r] = [x // g for x in row] if g > 1 else row
    # now rows[k][k] * c_k == rows[k][t] for k < ncols and every target t
    pivots, rest = rows[:ncols], rows[ncols:]
    out = []
    for t in range(ncols, ncols + len(targets)):
        den = math.lcm(*(row[k] // math.gcd(row[k], row[t]) for k, row in enumerate(pivots)))
        coeffs = [row[t] * den // row[k] for k, row in enumerate(pivots)]
        out.append(None if any(row[t] for row in rest) else (coeffs, den))
    return out


class LiePreset:
    """A Lie algebra with integer structure constants and root bookkeeping.

    Built from explicit matrices so the bracket table, the root pairings
    and the coroot expansions are computed rather than transcribed.  The
    constructor checks antisymmetry and the Jacobi identity exhaustively
    on the finished table; a failure there is a build-stopping defect.
    """

    def __init__(self, name, positive_roots, neg_mats, cartan_mats, pos_mats):
        self.name = name
        self.rank = rank = len(cartan_mats)
        self.positive_roots = tuple(tuple(r) for r in positive_roots)
        self.m = len(self.positive_roots)
        self.dim = 2 * self.m + rank
        if len(neg_mats) != self.m or len(pos_mats) != self.m:
            raise ValueError("basis size does not match root data")

        mats = list(neg_mats) + list(cartan_mats) + list(pos_mats)
        pairs = [(i, j) for i in range(self.dim) for j in range(self.dim) if i != j]
        comms = [_commutator(mats[i], mats[j]) for i, j in pairs]
        columns = [tuple(x for row in mat for x in row) for mat in mats]
        brackets = {}
        for pair, solution in zip(pairs, solve_integers(columns, comms)):
            if solution is None:
                raise ValueError("bracket leaves the spanned algebra")
            coeffs, den = solution
            if den != 1:
                raise ValueError("non-integer structure constant")
            entry = tuple((k, c) for k, c in enumerate(coeffs) if c)
            if entry:
                brackets[pair] = entry
        self._brackets = brackets
        self._validate_table()

        # kind and root_index each answer with one lookup in these tables
        kinds = [("neg", j) for j in range(self.m)] + [("cartan", i) for i in range(rank)]
        self._kinds = dict(enumerate(kinds + [("pos", j) for j in range(self.m)]))
        signs = {"neg": -1, "pos": 1}
        self._root_indices = {(signs[c], j): k for k, (c, j) in self._kinds.items() if c in signs}

        # beta_j(h_i) read off from [h_i, x^+_j] = beta_j(h_i) x^+_j
        pairing = []
        for j in range(self.m):
            x = self.pos_index(j)
            entries = [dict(self.bracket_pairs(self.cartan_index(i), x)) for i in range(rank)]
            if any(set(entry) - {x} for entry in entries):
                raise ValueError("Cartan action is not diagonal on root vectors")
            pairing.append(tuple(entry.get(x, 0) for entry in entries))
        self._pairing = tuple(pairing)

        # h for each positive root: expansion of [x^+_j, x^-_j] in h_1..h_n
        coroots = []
        for j in range(self.m):
            entry = dict(self.bracket_pairs(self.pos_index(j), self.neg_index(j)))
            if any(self.kind(k)[0] != "cartan" for k in entry):
                raise ValueError("[x+, x-] is not Cartan")
            coroots.append(tuple(entry.get(self.cartan_index(i), 0) for i in range(rank)))
        self._coroots = tuple(coroots)

        roots_by_vec = {r: j for j, r in enumerate(self.positive_roots)}
        self._simple_roots = tuple(
            roots_by_vec[tuple(int(k == i) for k in range(rank))] for i in range(rank)
        )
        self._root_sum = {}
        for j1, r1 in enumerate(self.positive_roots):
            for j2, r2 in enumerate(self.positive_roots):
                s = tuple(a + b for a, b in zip(r1, r2))
                if s in roots_by_vec:
                    self._root_sum[(j1, j2)] = roots_by_vec[s]

        # m2 -> {m1: the normal form of m1 · m2 as a flat (mono, int, ...)
        # tuple} for every pair out of order, right factor first; see
        # _mono_product; lives for one check
        self._products = new_table("check")
        # leading monomial -> the reduction step of its basis element,
        # filled by forms._reduction_step only
        self._steps = new_table()
        # the one zero and one unit, Element.zero(self) and Element.one(self);
        # not memo tables, so clear_caches() leaves them alone
        self._zero = Element._trusted(self, {}, 1)
        self._one = Element._trusted(self, {ONE: 1}, 1)

    def _validate_table(self):
        table = self.bracket_pairs
        for i in range(self.dim):
            for j in range(self.dim):
                forward = dict(table(i, j))
                backward = dict(table(j, i))
                if forward != {k: -c for k, c in backward.items()}:
                    raise ValueError("bracket table is not antisymmetric")
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    acc = {}
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for l, c1 in table(a, b):
                            for m, c2 in table(l, c):
                                acc[m] = acc.get(m, 0) + c1 * c2
                    if any(acc.values()):
                        raise ValueError("Jacobi identity fails on the bracket table")

    # basis layout -------------------------------------------------------
    def neg_index(self, j):
        return j

    def cartan_index(self, i):
        return self.m + i

    def pos_index(self, j):
        return self.m + self.rank + j

    def root_index(self, sign, alpha):
        """The basis index of the root vector of ``sign``, the int 1 or -1,
        at the positive root ``alpha``, an int.  A float or a bool is
        ``TypeError``: it equals an int key of the table."""
        if type(sign) is int and type(alpha) is int:
            index = self._root_indices.get((sign, alpha))
            if index is not None:
                return index
        if as_int(sign, "a root sign") not in (1, -1):
            raise ValueError("root sign must be 1 or -1, not %d" % sign)
        raise ValueError("unknown positive root %r" % as_int(alpha, "a positive root"))

    def kind(self, index):
        """Classify a basis index, an int, as ('neg', j), ('cartan', i) or
        ('pos', j).  A float or a bool is ``TypeError``."""
        if type(index) is int:
            hit = self._kinds.get(index)
            if hit is not None:
                return hit
        raise ValueError("basis index out of range: %d" % as_int(index, "a basis index"))

    def simple_root_index(self, i):
        """Positive-root index of the i-th simple root."""
        if not 0 <= i < self.rank:
            raise ValueError("no simple root %r in rank %d" % (i, self.rank))
        return self._simple_roots[i]

    def bracket_pairs(self, i, j):
        return self._brackets.get((i, j), ())

    def pairing(self, alpha, i):
        """Value of positive root ``alpha`` on the i-th Cartan generator."""
        return self._pairing[alpha][i]

    def coroot_expansion(self, alpha):
        return self._coroots[alpha]

    def root_sum_index(self, a, b):
        """Index of root a + b, or None when the sum is not a root."""
        return self._root_sum.get((a, b))

    def root_name(self, j):
        coeffs = self.positive_roots[j]
        return "a" + "".join(str(i + 1) * c for i, c in enumerate(coeffs))

    def gen_name(self, index):
        cls, pos = self.kind(index)
        if cls == "cartan":
            return "h_%d" % (pos + 1)
        return ("x+_" if cls == "pos" else "x-_") + self.root_name(pos)

    def __repr__(self):
        return "LiePreset(%s)" % self.name

    def __reduce__(self):
        # Pickle by name, so an unpickled element keeps the singleton.
        return (make_preset, (self.name,))


def _sl_matrices(n):
    """``LiePreset``'s keyword arguments for sl_n in its Chevalley basis
    (Steinberg 1967, *Lectures on Chevalley groups*): the positive roots
    e_i - e_j (i < j), by height and then by i, as coefficient vectors over
    the simple roots e_k - e_{k+1}; E_ji as the negative root vectors,
    E_ii - E_{i+1,i+1} as the Cartan generators and E_ij as the positive
    root vectors."""
    pairs = [(i, i + h) for h in range(1, n) for i in range(n - h)]

    def mat(*entries):
        d = dict(entries)
        return tuple(tuple(d.get((r, c), 0) for c in range(n)) for r in range(n))

    return {
        "positive_roots": [tuple(int(i <= k < j) for k in range(n - 1)) for i, j in pairs],
        "neg_mats": [mat(((j, i), 1)) for i, j in pairs],
        "cartan_mats": [mat(((i, i), 1), ((i + 1, i + 1), -1)) for i in range(n - 1)],
        "pos_mats": [mat(((i, j), 1)) for i, j in pairs],
    }


# The accepted preset names, each with the n of its sl_n.
PRESETS = {"sl2": 2, "sl3": 3}

_PRESET_CACHE = {}


def make_preset(name):
    """Return the validated preset for a name in :data:`PRESETS`, built
    from the matrices of :func:`_sl_matrices`.

    Presets are cached singletons, so identity comparison is safe and the
    normal-form cache is shared across all elements of one algebra.
    """
    preset = _PRESET_CACHE.get(name)
    if preset is None:
        if name not in PRESETS:
            raise ValueError("unknown preset %r (expected %s)" % (name, " or ".join(PRESETS)))
        preset = _PRESET_CACHE[name] = LiePreset(name, **_sl_matrices(PRESETS[name]))
    return preset


def _flat(out):
    """The flat normal form of an accumulated dict, zero terms dropped and
    the dict's order kept.  A plain loop: ``tuple()`` of a generator
    expression took about twice as long per form."""
    form = []
    for m, c in out.items():
        if c:
            form += m, c
    return tuple(form)


# Gen -> Mono(((gen, 1),)), the one-letter monomials of _mono_product
_letters = new_table()


def _letter(gen):
    """Build and store ``_letters[gen]``, read as ``_letters.get(gen) or _letter(gen)``."""
    mono = _letters[gen] = Mono(((gen, 1),))
    return mono


def _mono_product(preset, m1, m2):
    """Normal form of the product of two sorted monomials, as a flat tuple
    ``(m1, c1, m2, c2, ...)`` of monomials and nonzero ints: the one
    straightening recursion.

    A pair already in order is one monomial, :func:`_join`.  A right
    factor of one letter ``g`` below the last letter of ``m1``, written
    ``m1 = prefix · x`` with one copy of ``x`` split off, takes the one
    rewrite ``x g = g x + [x, g]``: ``prefix·x·g = (prefix·g)·x + sum_k
    c_k prefix·z_k`` for ``[x, g] = sum_k c_k z_k``.  Every letter of
    ``prefix·g``'s leading term is at most ``x``, and every other term is
    shorter, so the recursion ends.  A longer right factor is peeled: its
    last letter is multiplied onto every monomial of ``m1`` times the
    rest.  The structure constants are integers, so are the coefficients.
    Every product that needs rewriting is memoised per preset, in
    ``preset._products[m2][m1]``."""
    if not m1 or not m2 or m1[-1][0] <= m2[0][0]:
        return (_join(m1, m2), 1)
    products = preset._products
    row = products.get(m2)
    hit = row.get(m1) if row is not None else None
    if hit is not None:
        return hit
    g, e = m2[-1]
    if e > 1 or len(m2) > 1:
        # m2 = rest · g: (m1 · rest) · g
        left, right = m1, Mono(m2[:-1] + ((g, e - 1),) if e > 1 else m2[:-1])
        last = _letters.get(g) or _letter(g)
        bracket = ()
    else:
        # m1 = prefix · x with g < x: (prefix · g) · x + sum_k c_k prefix · z_k
        x, e = m1[-1]
        left, right = Mono(m1[:-1] + ((x, e - 1),) if e > 1 else m1[:-1]), m2
        last = _letters.get(x) or _letter(x)
        bracket = preset.bracket_pairs(x.index, g.index)
    out = {}
    it = iter(_mono_product(preset, left, right))
    for m, c in zip(it, it):
        it2 = iter(_mono_product(preset, m, last))
        for m3, f in zip(it2, it2):
            out[m3] = out.get(m3, 0) + c * f
    if bracket:
        lab = x.label * g.label
        for k, ck in bracket:
            z = Gen(k, lab)
            it = iter(_mono_product(preset, left, _letters.get(z) or _letter(z)))
            for m, f in zip(it, it):
                out[m] = out.get(m, 0) + ck * f
    out = products.setdefault(m2, {})[m1] = _flat(out)
    return out


def _mul_into(preset, num, f, x, y):
    """Add ``f`` times the product of the numerator dicts ``x`` and ``y``
    into ``num``, leaving zero entries in place: the one straightening
    loop behind :meth:`Element.__mul__` and :meth:`Sum.add_product`.  A
    pair with an empty factor gives the other factor; any other pair
    already in order is joined through the memo table ``_concats``, and
    the rest go through :func:`_mono_product`, whose flat normal form is
    read pair by pair."""
    concats = _concats
    right = y.items()
    for m1, a in x.items():
        a *= f
        for m2, b in right:
            if not m1 or not m2 or m1[-1][0] <= m2[0][0]:
                # already in order: the common case, kept inline
                if not (m1 and m2):
                    m = m1 or m2
                else:
                    row = concats.get(m2)
                    if row is None:
                        row = concats[m2] = {}
                    m = row.get(m1)
                    if m is None:
                        m = row[m1] = _join(m1, m2)
                num[m] = num.get(m, 0) + a * b
                continue
            c = a * b
            it = iter(_mono_product(preset, m1, m2))
            for m, g in zip(it, it):
                num[m] = num.get(m, 0) + c * g


def _is_scalar(k):
    """Whether ``k`` is a rational scalar: a ``numbers.Rational`` that is
    not a bool, which would be read as 0 or 1."""
    return isinstance(k, numbers.Rational) and type(k) is not bool


class Element:
    """A finite rational combination of PBW-ordered monomials.

    Storage: ``num`` maps each monomial to a nonzero integer numerator and
    ``den`` is one positive common denominator, reduced so that
    ``gcd(den, *num.values()) == 1``; zero is ``({}, 1)``.  This form is
    canonical, so equality compares the integers directly.  Every monomial
    is a :class:`Mono`, a strictly increasing tuple of (generator, positive
    exponent) pairs; ``terms`` may be keyed by plain tuples, which are
    interned on the way in.  The constructor refuses with ``ValueError`` a
    monomial out of that form (unsorted or repeated generators, an
    exponent that is not an int >= 1, an index outside the preset), and
    with ``TypeError`` a coefficient that is not a rational scalar (a
    float, a string, a bool), as ``*`` and ``/`` refuse one; the
    internal paths (``_trusted``, ``_reduced``, :class:`Sum`) build only
    normal forms and are not checked.
    Elements are immutable by convention, so sharing across threads is
    safe.  Every operation returns a fresh instance, except that a result
    with no terms is the preset's one zero, :meth:`zero`, a sum equal to 1
    is its one unit, :meth:`one`, and a product with that unit is the
    other factor itself, with no straightening.

    Rationals live only at the edges: sums, scalar multiples and products
    are integer dict operations followed by one common-factor reduction,
    and :attr:`terms` is a derived read-only view of the coefficients as
    ``Fraction`` values, built on each access for rendering and export.
    A product runs over pairs of monomials through :func:`_mul_into`.
    Sums and scalar multiples go through one :class:`Sum`; a sum of many
    terms is built in a single one, not by chaining ``+``.
    """

    __slots__ = ("preset", "num", "den")

    def __new__(cls, preset, terms=None):
        from fractions import Fraction

        fracs = {}
        if terms:
            for m, c in terms.items():
                for k, (g, e) in enumerate(m):
                    preset.kind(g.index)
                    if type(e) is not int or e < 1:
                        raise ValueError("monomial exponent must be an int >= 1: %r" % (e,))
                    if k and not m[k - 1][0] < g:
                        raise ValueError("monomial generators must strictly increase: %r" % (m,))
                if not _is_scalar(c):
                    raise TypeError("coefficient must be a rational (int or Fraction), not %r" % (c,))
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                if c:
                    fracs[Mono(m)] = c
        if not fracs:
            return preset._zero
        # Over the LCM of reduced denominators the numerators share no
        # factor with it, so the result is already canonical.
        den = math.lcm(*(c.denominator for c in fracs.values()))
        num = {m: c.numerator * (den // c.denominator) for m, c in fracs.items()}
        return cls._trusted(preset, num, den)

    @classmethod
    def _trusted(cls, preset, num, den):
        """Wrap canonical storage as it is: nonzero ints over a reduced ``den``."""
        self = object.__new__(cls)
        self.preset = preset
        self.num = num
        self.den = den
        return self

    @classmethod
    def _reduced(cls, preset, num, den):
        """Wrap nonzero integer numerators over ``den > 0``, dividing out
        their common factor; no numerators give the preset's zero."""
        if not num:
            return preset._zero
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {m: c // g for m, c in num.items()}
                den //= g
        self = object.__new__(cls)
        self.preset, self.num, self.den = preset, num, den
        return self

    def __reduce__(self):
        # through _reduced, so that an unpickled zero is its preset's one zero
        return (Element._reduced, (self.preset, self.num, self.den))

    @property
    def terms(self):
        """The coefficients as a fresh ``{monomial: Fraction}`` dict."""
        from fractions import Fraction

        den = self.den
        return {m: Fraction(c, den) for m, c in self.num.items()}

    @classmethod
    def zero(cls, preset):
        """The preset's one zero, built with the preset and shared by every
        caller: its ``num`` must stay empty."""
        return preset._zero

    @classmethod
    def one(cls, preset):
        """The preset's one unit, shared like :meth:`zero`: never mutate it."""
        return preset._one

    @classmethod
    def generator(cls, preset, index, label):
        preset.kind(index)
        g = Gen(index, label)
        return cls._trusted(preset, {_letters.get(g) or _letter(g): 1}, 1)

    @classmethod
    def monomial(cls, preset, mono, coeff=1):
        return cls(preset, {tuple(mono): coeff})

    def _check_same(self, other):
        if self.preset is not other.preset:
            raise ValueError(
                "preset mismatch: %s vs %s" % (self.preset.name, other.preset.name)
            )

    def is_zero(self):
        return not self.num

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.preset is other.preset and self.den == other.den and self.num == other.num
        )

    __hash__ = None

    def _sum(self, k, other):
        """``self + k * other``, built in one :class:`Sum`."""
        if not isinstance(other, Element):
            return NotImplemented
        acc = Sum(self.preset)
        acc.add(1, self)
        acc.add(k, other)
        return acc.element()

    def __add__(self, other):
        return self._sum(1, other)

    def __sub__(self, other):
        return self._sum(-1, other)

    def __neg__(self):
        if not self.num:
            return self
        return Element._trusted(self.preset, {m: -c for m, c in self.num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Element):
            preset = self.preset
            if other.preset is not preset:
                self._check_same(other)
            one = preset._one
            if self is one or other is one:
                return other if self is one else self
            out = {}
            _mul_into(preset, out, 1, self.num, other.num)
            if 0 in out.values():
                out = {m: v for m, v in out.items() if v}
            return Element._reduced(preset, out, self.den * other.den)
        if _is_scalar(other):
            acc = Sum(self.preset)
            acc.add(other, self)
            return acc.element()
        return NotImplemented

    def __rmul__(self, other):
        if _is_scalar(other):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other):
        if _is_scalar(other):
            num, den = other.numerator, other.denominator
            if not num:
                raise ZeroDivisionError("Element division by zero")
            acc = Sum(self.preset)
            acc.add(den if num > 0 else -den, self)
            return acc.element(abs(num))
        return NotImplemented

    def __pow__(self, k):
        k = as_int(k, "a power")
        if k < 0:
            raise ValueError("negative power")
        out = Element.one(self.preset)
        for _ in range(k):
            out = out * self
        return out

    def degree(self):
        """Largest total exponent over the normal form; None for zero.

        The None sentinel is deliberate: the zero element has no degree
        and must never take part in numeric comparisons.
        """
        if not self.num:
            return None
        return max(map(degree_of, self.num))

    def sorted_terms(self):
        """Highest degree first, then ascending monomial order within a degree."""
        return sorted(
            self.terms.items(),
            key=lambda kv: (-degree_of(kv[0]), kv[0]),
        )

    def render(self):
        if not self.num:
            return "0"
        chunks = []
        for mono, coeff in self.sorted_terms():
            head = "" if not chunks else (" - " if coeff < 0 else " + ")
            mag = coeff if not chunks else abs(coeff)
            body = " ".join(
                "(%s⊗%s)" % (self.preset.gen_name(g.index), g.label.render())
                + ("^%d" % e if e > 1 else "")
                for g, e in mono
            )
            if mag.denominator == 1:
                cs = str(mag.numerator)
            else:
                cs = "(%s)" % mag
            chunks.append(head + (cs if not body else cs + " " + body))
        return "".join(chunks)

    def __repr__(self):
        return "<%s: %s>" % (self.preset.name, self.render())

    def to_json(self):
        out = []
        for mono, coeff in self.sorted_terms():
            out.append(
                {
                    "monomial": [[g.index, g.label.to_json(), e] for g, e in mono],
                    "coeff": [str(coeff.numerator), str(coeff.denominator)],
                }
            )
        return out

    @classmethod
    def from_json(cls, preset, data, nvars=None, laurent=True):
        """Parse an element; monomials are products in the written order
        and are normalized on load, so inputs need not be PBW-sorted.

        With ``nvars`` given, every label must have that many exponents,
        and none may be negative unless ``laurent``."""
        from fractions import Fraction

        if not isinstance(data, list):
            raise ValueError("element must be a JSON array of terms")
        total = Sum(preset)
        for term in data:
            if not isinstance(term, dict) or set(term) != {"monomial", "coeff"}:
                raise ValueError("element term must have 'monomial' and 'coeff'")
            coeff = term["coeff"]
            if not (isinstance(coeff, list) and len(coeff) == 2):
                raise ValueError("coefficient must be a JSON array [numerator, denominator]")
            num, den = coeff
            if not all(
                type(x) is int or type(x) is str and INTEGER_TEXT.fullmatch(x)
                for x in (num, den)
            ):
                raise ValueError(
                    "coefficient %r must hold integers or ASCII integer strings" % [num, den]
                )
            num, den = int(num), int(den)
            if not den:
                raise ValueError("coefficient denominator must be nonzero")
            coeff = Fraction(num, den)
            monomial = term["monomial"]
            if not isinstance(monomial, list) or not all(
                isinstance(entry, list) and len(entry) == 3 for entry in monomial
            ):
                raise ValueError("monomial must be a list of [index, label, exponent] entries")
            factor = cls.one(preset)
            for index, label, exp in monomial:
                if not isinstance(index, int) or isinstance(index, bool):
                    raise ValueError("generator index must be an integer")
                if not isinstance(exp, int) or isinstance(exp, bool) or exp < 1:
                    raise ValueError("monomial exponent must be a positive integer")
                label = ALabel.from_json(label)
                if nvars is not None and label.nvars != nvars:
                    raise ValueError(
                        "label %s has %d entries, session has %d variables"
                        % (label.to_json(), label.nvars, nvars)
                    )
                if not laurent and any(e < 0 for e in label.exponents):
                    raise ValueError(
                        "label %s has a negative exponent in polynomial mode" % label.to_json()
                    )
                gen = cls.generator(preset, index, label)
                factor = factor * gen**exp
            total.add(coeff, factor)
        return total.element()


class Sum:
    """An exact running sum of scaled elements and products, in place.

    Integer numerators share one running denominator, which is scaled up
    only when an incoming denominator does not divide it.  Zeros are kept
    until :meth:`element`, which filters them and reduces once, so a sum
    of ``n`` products builds one ``Element`` instead of ``3n``.
    """

    __slots__ = ("preset", "num", "den")

    def __init__(self, preset):
        self.preset = preset
        self.num = {}
        self.den = 1

    def _factor(self, k, d):
        """Make ``den`` a multiple of ``d`` times ``k``'s denominator, scaling
        the numerators in place, and return what an incoming numerator over
        ``d`` is multiplied by: ``k`` over the running denominator.  ``k`` is
        read through ``numerator`` and ``denominator``, so no ``Fraction``
        is built."""
        d *= k.denominator
        k = k.numerator
        den = self.den
        if den % d:
            s = d // math.gcd(den, d)
            num = self.num
            for m in num:
                num[m] *= s
            self.den = den = den * s
        return k * (den // d)

    _check_same = Element._check_same

    def add(self, k, x):
        """``self += k * x`` for a rational ``k``: an int or a Fraction."""
        if x.preset is not self.preset:
            self._check_same(x)
        if not k or not x.num:
            return
        f = self._factor(k, x.den)
        num = self.num
        for m, c in x.num.items():
            num[m] = num.get(m, 0) + f * c

    def add_product(self, k, x, y):
        """``self += k * x * y`` for a rational ``k``, straightened by
        the same loop as ``x * y``."""
        preset = self.preset
        if x.preset is not preset or y.preset is not preset:
            self._check_same(x)
            self._check_same(y)
        if not k or not x.num or not y.num:
            return
        one = preset._one
        if x is one or y is one:
            return self.add(k, y if x is one else x)
        f = self._factor(k, x.den * y.den)
        _mul_into(preset, self.num, f, x.num, y.num)

    def element(self, div=1):
        """The sum divided by the positive integer ``div``, as a canonical
        Element; a sum equal to 1 is the preset's one unit."""
        num = {m: c for m, c in self.num.items() if c}
        if len(num) == 1 and num.get(ONE) == self.den * div:
            return self.preset._one
        return Element._reduced(self.preset, num, self.den * div)


def divided_power(preset, gen, r):
    """``gen^r / r!`` as a single monomial; r = 0 gives the identity."""
    r = as_int(r, "a divided power")
    if r < 0:
        raise ValueError("negative divided power")
    if r == 0:
        return Element.one(preset)
    return Element._trusted(preset, {Mono(((gen, r),)): 1}, math.factorial(r))


def binom_element(u, r):
    """``u (u-1) ... (u-r+1) / r!`` expanded and normalized exactly."""
    r = as_int(r, "a binomial power")
    if r < 0:
        raise ValueError("negative binomial power")
    out = Element.one(u.preset)
    for j in range(r):
        out = out * (u - j * Element.one(u.preset))
    return out / math.factorial(r)


def omega(alpha, u, target):
    """Algebra map from the rank-one engine into ``target`` along root
    ``alpha``: root vectors go to the corresponding root vectors, the
    Cartan generator goes to the coroot expansion of ``alpha``."""
    if u.preset.name != "sl2":
        raise ValueError("omega expects an element over the sl2 preset")
    if not 0 <= alpha < target.m:
        raise ValueError("invalid root index %r for %s" % (alpha, target.name))
    images = {}

    def image(gen):
        img = images.get(gen)
        if img is None:
            cls, _ = u.preset.kind(gen.index)
            if cls == "neg":
                img = Element.generator(target, target.neg_index(alpha), gen.label)
            elif cls == "pos":
                img = Element.generator(target, target.pos_index(alpha), gen.label)
            else:
                acc = Sum(target)
                for i, c in enumerate(target.coroot_expansion(alpha)):
                    acc.add(c, Element.generator(target, target.cartan_index(i), gen.label))
                img = acc.element()
            images[gen] = img
        return img

    out = Sum(target)
    for mono, c in u.num.items():
        prod = Element.one(target)
        for g, e in mono:
            prod = prod * image(g) ** e
        out.add(c, prod)
    return out.element(u.den)


def ad_divided(preset, x, r, v):
    """Apply ``(ad x)^r / r!`` to an element of the underlying Lie algebra
    (constants and single generators only; anything of higher degree is
    outside the adjoint action we need and is rejected)."""
    r = as_int(r, "a divided power")
    if r < 0:
        raise ValueError("negative divided power")
    deg = v.degree()
    if deg is not None and deg > 1:
        raise ValueError("ad_divided expects an element of degree <= 1")
    cur = v
    for _ in range(r):
        acc = Sum(preset)
        for mono, c in cur.num.items():
            if not mono:
                continue
            ((g, _e),) = mono
            for k, cc in preset.bracket_pairs(x.index, g.index):
                acc.add(c * cc, Element.generator(preset, k, x.label * g.label))
        cur = acc.element(cur.den)
    return cur / math.factorial(r)
