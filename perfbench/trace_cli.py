"""Run the mapalg CLI in this process with timing wrappers installed.

    python3 perfbench/trace_cli.py TRACE_FILE mapalg-args...

The wrappers replace, in every loaded ``mapalg`` module, the functions named
in ``mapalg.__all__`` and the arithmetic methods of ``Element``.  Nothing
inside the package is edited, so any refactor that keeps the public API
keeps this trace working.  Spans are aggregated in memory per name and per
(parent, child) edge; the few coarse spans (one per check, one per suite)
are kept whole.  Everything is written to TRACE_FILE as JSON when the CLI
returns, and the process exits with the CLI's own exit code.

A span's self time is its duration minus the time spent in the wrappers of
its child spans, so the children's bookkeeping is not charged to it.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

clock = time.perf_counter

# Functions whose repeat_ratio is measured: the share of calls whose
# arguments were already seen earlier in the same process.
REPEAT_TRACKED = frozenset(
    {
        "forms.basis_element",
        "forms.root_block",
        "forms.cartan_pair",
        "forms.dressed_block",
        "forms.root_block_expanded",
    }
)

# Spans kept whole, with start and end; everything else is aggregated.
COARSE = frozenset({"identities.run_suite", "identities.run_check"})


class Tracer:
    """Span and counter store of one traced process."""

    def __init__(self):
        self.origin = clock()
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent, name) -> [calls, total_s]
        self.counters = {}
        self.spans = []  # coarse spans: dicts with name, start, end, parent
        self.reports = []
        self.names = ["root"]
        self.child = [0.0]

    def timed(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span called ``name``; ``before(args, kwargs)``
        and ``after(args, kwargs, result, duration)`` run outside the span."""
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        names = self.names
        child = self.child
        edges = self.edges
        coarse = name in COARSE
        spans = self.spans

        def wrapper(*args, **kwargs):
            t_in = clock()
            if before is not None:
                before(args, kwargs)
            parent = names[-1]
            names.append(name)
            child.append(0.0)
            if coarse:
                record = {"name": name, "parent": parent, "start": t_in - self.origin}
                spans.append(record)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                names.pop()
                inner = child.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                edge = edges.get((parent, name))
                if edge is None:
                    edge = edges[(parent, name)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
                if coarse:
                    record["end"] = record["start"] + dt
                child[-1] += clock() - t_in
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return wrapper

    def counting(self, name, fn):
        """Wrap a generator function so every yielded item is counted."""
        key = name + ".yielded"
        self.counters.setdefault(key, 0)
        counters = self.counters

        def wrapper(*args, **kwargs):
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                counters[key] += n

        return wrapper

    def repeat_hook(self, name):
        """A ``before`` hook counting calls whose arguments were seen before."""
        seen = set()
        key = name + ".repeats"
        self.counters.setdefault(key, 0)
        counters = self.counters

        def before(args, kwargs):
            probe = (args, tuple(sorted(kwargs.items())))
            if probe in seen:
                counters[key] += 1
            else:
                seen.add(probe)

        return before

    def dump(self, path, extra):
        doc = dict(extra)
        doc["stats"] = {
            n: {"calls": c, "total_s": t, "self_s": s} for n, (c, t, s) in sorted(self.stats.items())
        }
        doc["edges"] = [
            {"parent": p, "name": n, "calls": c, "total_s": t}
            for (p, n), (c, t) in sorted(self.edges.items())
        ]
        doc["counters"] = dict(sorted(self.counters.items()))
        doc["spans"] = self.spans
        doc["reports"] = self.reports
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)


def _element_size(elem):
    """Number of terms and total letters over all monomials of ``elem``."""
    return len(elem.terms), sum(e for mono in elem.terms for _, e in mono)


def install(tracer, mapalg):
    """Replace the public functions and Element arithmetic with wrappers."""
    modules = [m for n, m in list(sys.modules.items()) if n == "mapalg" or n.startswith("mapalg.")]
    counters = tracer.counters
    counters["forms.reduce_to_basis.rounds"] = 0

    def reduce_after(args, kwargs, result, dt):
        # One elimination round per basis term of the result.
        counters["forms.reduce_to_basis.rounds"] += len(result.terms)

    def run_check_after(args, kwargs, report, dt):
        tracer.reports.append(
            {
                "name": report.name,
                "instances": report.instances,
                "pass": report.passed,
                "notes": list(report.notes),
                "elapsed_ms": report.elapsed_ms,
                "run_check_s": dt,
            }
        )

    afters = {
        "forms.reduce_to_basis": reduce_after,
        "identities.run_check": run_check_after,
    }
    for public in mapalg.__all__:
        obj = getattr(mapalg, public)
        if not inspect.isfunction(obj):
            continue
        name = obj.__module__.replace("mapalg.", "", 1) + "." + obj.__name__
        if inspect.isgeneratorfunction(obj):
            wrapped = tracer.counting(name, obj)
        else:
            before = tracer.repeat_hook(name) if name in REPEAT_TRACKED else None
            wrapped = tracer.timed(name, obj, before=before, after=afters.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is obj:
                    setattr(module, attr, wrapped)

    element = mapalg.Element
    counters["pbw.mul.term_pairs"] = 0
    counters["pbw.mul.letters"] = 0

    def mul_before(args, kwargs):
        a, b = args
        if isinstance(b, element):
            na, la = _element_size(a)
            nb, lb = _element_size(b)
            counters["pbw.mul.term_pairs"] += na * nb
            counters["pbw.mul.letters"] += la * nb + na * lb

    element.__mul__ = tracer.timed("pbw.mul", element.__mul__, before=mul_before)
    element.__add__ = tracer.timed("pbw.addsub", element.__add__)
    element.__sub__ = tracer.timed("pbw.addsub", element.__sub__)


def main(argv):
    if len(argv) < 2:
        print("usage: trace_cli.py TRACE_FILE mapalg-args...", file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[1:]
    t0 = clock()
    import mapalg
    import mapalg.cli

    import_s = clock() - t0
    tracer = Tracer()
    install(tracer, mapalg)
    t1 = clock()
    code = mapalg.cli.main(cli_args)
    main_s = clock() - t1
    tracer.dump(
        trace_path,
        {
            "argv": cli_args,
            "package": mapalg.__file__,
            "import_s": import_s,
            "main_s": main_s,
            "exit_code": code,
        },
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
