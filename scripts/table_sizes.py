"""Where the engine's memory sits after a run of checks.

Usage: PYTHONPATH=src python3 scripts/table_sizes.py PROFILE CHECK...

Runs the named checks (``all`` for every check) one after the other in
this process, as ``mapalg check`` does, and prints the peak resident set
after each.  Then it prints every engine table as the last check left it:
its entries and bytes, and for a pair table (``pbw._concats`` and each
preset's ``_products``, kept right factor first) its distinct right and
left factors, and its lifetime: ``check`` for a table that
``run_check`` empties before each check, ``process`` for one that lives
on (the intern tables included, which nothing empties).  The tables are
measured only after the last check, so the measuring does not raise any
printed peak, and a check table holds the last check's entries only.

The package is compiled to byte code in a child process first, as
``scripts/same_reports.sh`` compiles both trees, so no printed peak
includes compiling it (which importing it without a current ``.pyc``
would).

Bytes are ``sys.getsizeof`` summed over the table's dicts and everything
reachable from its keys and values, each object once per table, without
the interned objects (labels, multisets, generators, monomials) that the
intern tables hold and are charged to, the presets and the cached small
ints.  An intern table is charged with its own objects.
"""

from __future__ import annotations

import importlib.util
import resource
import subprocess
import sys

subprocess.run(
    [sys.executable, "-m", "compileall", "-q"]
    + importlib.util.find_spec("mapalg").submodule_search_locations,
    check=True,
    stdout=subprocess.DEVNULL,
)

from mapalg import combinatorics, forms, identities, memo, pbw  # noqa: E402
from mapalg.combinatorics import ALabel, Multiset  # noqa: E402
from mapalg.pbw import Gen, LiePreset, Mono  # noqa: E402

INTERNED = (ALabel, Multiset, Gen, Mono)


def _size(obj, seen, own):
    """Bytes of ``obj`` and what it reaches, skipping ``seen`` objects and
    the interned objects not of type ``own``."""
    stack, total = [obj], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or obj is None or isinstance(obj, (bool, LiePreset)):
            continue
        if isinstance(obj, INTERNED) and not isinstance(obj, own or ()):
            continue
        if type(obj) is int and -5 <= obj <= 256:
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        else:
            for slot in getattr(type(obj), "__slots__", ()):
                stack.append(getattr(obj, slot, None))
    return total


def engine_tables():
    """``(name, table, intern type or None, pair table?)`` for every intern
    table and every table registered with :mod:`mapalg.memo`."""
    out = [
        ("combinatorics._labels", combinatorics._labels, ALabel, False),
        ("combinatorics._interned", combinatorics._interned, Multiset, False),
        ("pbw._gens", pbw._gens, Gen, False),
        ("pbw._monos", pbw._monos, Mono, False),
        ("pbw._mono_spill", pbw._mono_spill, Mono, False),
    ]
    named = [("pbw._concats", pbw._concats)]
    for name, preset in pbw._PRESET_CACHE.items():
        named += [(name + "._products", preset._products), (name + "._steps", preset._steps)]
    for module in (combinatorics, pbw, forms, identities):
        for name, obj in vars(module).items():
            named.append((module.__name__[len("mapalg.") :] + "." + name, getattr(obj, "table", obj)))
    for check, spec in identities.CHECKS.items():
        for kind, fn in spec.kinds.items():
            named.append(("identities.%s.%s" % (check, kind), getattr(fn, "table", None)))
    registered = {id(t): t for t in memo._tables}
    pairs = {id(pbw._concats)} | {id(p._products) for p in pbw._PRESET_CACHE.values()}
    for name, table in named:
        if id(table) in registered:
            out.append((name, registered.pop(id(table)), None, id(table) in pairs))
    for k, table in enumerate(registered.values()):
        out.append(("memo table %d" % k, table, None, False))
    return out


def main(argv):
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    profile, names = argv[0], argv[1:]
    if names == ["all"]:
        names = identities.check_names()
    for name in names:
        report = identities.run_check(identities.make_spec(name, profile))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("%-18s %s  peak RSS %.2f MiB" % (name, "pass" if report.passed else "FAIL", peak))
    print()
    print("%-40s %-8s %9s %11s %7s %7s" % ("table", "lifetime", "entries", "bytes", "right", "left"))
    total = 0
    for name, table, own, pair in engine_tables():
        if not table:
            continue
        size = _size(table, set(), own)
        total += size
        lifetime = "check" if any(t is table for t in memo._check_tables) else "process"
        if pair:
            left = {m1 for row in table.values() for m1 in row}
            entries = sum(map(len, table.values()))
            extra = "%7d %7d" % (len(table), len(left))
        else:
            entries, extra = len(table), ""
        print("%-40s %-8s %9d %11d %s" % (name, lifetime, entries, size, extra))
    print("%-40s %-8s %9s %11d" % ("total", "", "", total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
