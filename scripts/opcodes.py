"""Bytecodes executed per check: a deterministic second measure of time.

Usage: PYTHONPATH=src python3 scripts/opcodes.py PROFILE CHECK...

Runs each named check (``all`` for every check) in a fresh process, as
the benchmark's ``equalities-deep`` workload runs them, under
``sys.settrace`` with opcode events on (``frame.f_trace_opcodes``), and
counts the opcode events of each function.  It prints the bytecodes each
check executed, their total, and the 20 functions that executed the most
over all the checks, with their share of the total.  The package is
imported before the trace starts, so importing it is not counted.

Work done in C (a builtin, a dict lookup, ``math.comb``) executes no
bytecode, so the count weighs Python-level work only.  Unlike a timing it
repeats exactly from run to run on the same source, so a change that
moves it by a few percent shows where a timing on a noisy host would not.
The trace costs about a microsecond per bytecode, some 60 times the
untraced run: the desk suite (some 33 million bytecodes) takes about 25 s on
a 2-core x86 VM.
"""

from __future__ import annotations

import collections
import json
import os
import subprocess
import sys


def _name(code):
    """``module.qualname`` of a code object, the module by its file name."""
    module = os.path.splitext(os.path.basename(code.co_filename))[0]
    return "%s.%s" % (module, code.co_qualname)


def count_one(profile, name):
    """``(total, {function: count})`` of one check's run in this process."""
    from mapalg import identities

    spec = identities.make_spec(name, profile)
    counts = collections.Counter()

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return local

    def call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(call)
    try:
        identities.run_check(spec)
    finally:
        sys.settrace(None)
    by_name = collections.Counter()
    for code, n in counts.items():
        by_name[_name(code)] += n
    return sum(by_name.values()), dict(by_name)


def main(argv):
    if argv[:1] == ["--one"]:  # a child: one check, its counts as JSON on stdout
        total, functions = count_one(*argv[1:3])
        json.dump({"total": total, "functions": functions}, sys.stdout)
        return 0
    from mapalg import identities

    profile, names = argv[:1], argv[1:]
    if names == ["all"]:
        names = identities.check_names()
    unknown = [n for n in names if n not in identities.check_names()]
    if not names or unknown or profile[0] not in identities.PROFILES:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    profile = profile[0]
    grand, functions = 0, collections.Counter()
    for name in names:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--one", profile, name],
            check=True,
            stdout=subprocess.PIPE,
        )
        one = json.loads(out.stdout)
        grand += one["total"]
        functions.update(one["functions"])
        print("%-18s %12d bytecodes" % (name, one["total"]))
    print("%-18s %12d bytecodes" % ("total", grand))
    print()
    for func, n in functions.most_common(20):
        print("%12d  %5.1f%%  %s" % (n, 100.0 * n / grand, func))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
