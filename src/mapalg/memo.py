"""One registry for every cache of the engine.

Each cache is a plain dict made by :func:`new_table`, either directly or
through the :func:`memoised` decorator, and :func:`clear_caches` empties
them all.  Cached values are shared between callers and must not be
mutated.  The tables made directly are keyed by the interned objects they
hold, so no tuple is built per key: the per-preset normal-form table
``LiePreset._products`` and the ordered-pair table ``_concats`` in
:mod:`mapalg.pbw` are nested right factor first, ``table[m2][m1]``, and
the per-preset reduction-step table ``LiePreset._steps``, filled by
``forms._reduction_step``, is keyed by the leading monomial.  A
``memoised`` table is keyed by the tuple of the call's arguments.

The two normal-form tables live for one check: ``identities.run_check``
empties them before its first instance (``pbw.clear_normal_forms``).  Each
entry is one rewrite step over sub-forms that are memoised too, so a check
refills what it needs cheaply.  Every other table lives for the process:
its entries (blocks, Cartan pairs, reduction steps, splits) are costly to
build and later checks reuse them, so emptying them per check would
recompute them.

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


def new_table():
    """A fresh dict registered for :func:`clear_caches`."""
    table = {}
    _tables.append(table)
    return table


_MISS = object()


def memoised(fn):
    """Cache ``fn`` on its positional arguments, one dict per function
    (exposed as ``.table``).  A call that raises stores nothing.  A miss is
    marked by a private sentinel, so a ``None`` result is cached too."""
    table = new_table()

    @functools.wraps(fn)
    def wrapper(*args):
        hit = table.get(args, _MISS)
        if hit is _MISS:
            hit = table[args] = fn(*args)
        return hit

    wrapper.table = table
    return wrapper


def clear_caches():
    """Empty every registered table."""
    for table in _tables:
        table.clear()
