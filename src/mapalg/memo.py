"""One registry for every cache of the engine.

Each cache is a plain dict made by :func:`new_table`, either directly or
through the :func:`memoised` decorator.  Cached values are shared between
callers and must not be mutated.  The tables made directly are keyed by
the interned objects they hold, so no tuple is built per key: the
per-preset normal-form table ``LiePreset._products`` and the ordered-pair
table ``_concats`` in :mod:`mapalg.pbw` are nested right factor first,
``table[m2][m1]``, and the per-preset reduction-step table
``LiePreset._steps``, filled by ``forms._reduction_step``, is keyed by the
leading monomial.  A ``memoised`` table is keyed by the tuple of the
call's arguments.

Each table has one of two lifetimes, given when it is made.  A ``check``
table lives for one check: ``identities.run_check`` empties every such
table before its first instance with :func:`clear_check_tables`.  These
are the two normal-form tables and the word-prefix tables of
:mod:`mapalg.identities`: each entry is one step over entries that are
memoised too, so a check refills what it needs cheaply.  A ``process``
table lives for the process: its entries (blocks, Cartan pairs,
reduction steps, splits) are costly to build and later checks reuse them,
so emptying them per check would recompute them.  So do the small tables
of per-call bookkeeping that the block families read on every call: the
multinomials and label folds of :mod:`mapalg.combinatorics` (memoised on
their interned arguments), its label products and powers, and the
one-letter monomials ``pbw._letters`` keyed by the generator.
:func:`clear_caches` empties every table of either lifetime.

The four intern tables are deliberately not registered here:
``combinatorics._interned`` (:class:`~mapalg.combinatorics.Multiset`),
``combinatorics._labels`` (:class:`~mapalg.combinatorics.ALabel`),
``pbw._gens`` (:class:`~mapalg.pbw.Gen`) and ``pbw._monos`` with its
spill table ``pbw._mono_spill`` (:class:`~mapalg.pbw.Mono`).  Each is
what makes equal values the same object, so emptying one would let a
second object of a live value be built, and the identity equality or
identity hash would then be wrong.
"""

from __future__ import annotations

import functools

_tables = []
_check_tables = []


def new_table(lifetime="process"):
    """A fresh dict registered for :func:`clear_caches`, and for
    :func:`clear_check_tables` too when its ``lifetime`` is ``"check"``."""
    if lifetime not in ("process", "check"):
        raise ValueError("unknown table lifetime %r" % (lifetime,))
    table = {}
    _tables.append(table)
    if lifetime == "check":
        _check_tables.append(table)
    return table


_MISS = object()


def memoised(fn=None, *, lifetime="process"):
    """Cache ``fn`` on its positional arguments, one dict per function
    (exposed as ``.table``) of the given ``lifetime``; used bare or as
    ``@memoised(lifetime="check")``.  A call that raises stores nothing.  A
    miss is marked by a private sentinel, so a ``None`` result is cached
    too."""
    if fn is None:
        return functools.partial(memoised, lifetime=lifetime)
    table = new_table(lifetime)

    @functools.wraps(fn)
    def wrapper(*args):
        hit = table.get(args, _MISS)
        if hit is _MISS:
            hit = table[args] = fn(*args)
        return hit

    wrapper.table = table
    return wrapper


def clear_check_tables():
    """Empty every table that lives for one check."""
    for table in _check_tables:
        table.clear()


def clear_caches():
    """Empty every registered table, of either lifetime."""
    for table in _tables:
        table.clear()
