"""Benchmark of the mapalg verifier: time to verdict, set-up time and memory.

One run of one workload:

    python3 perfbench/run.py --workload suite-desk --seed 0 --seconds 56 --trace 0

runs the workload's CLI processes (``mapalg check NAMES --profile P --seed S
--format json --jobs 1``) again and again for about ``--seconds`` seconds,
checks every report against ``reference.json`` and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (medians over the repetitions, times scaled to a fixed
host speed as explained under "host speed" below); with ``--trace 1`` each
repetition runs the workload once untraced and once under
``trace_cli.py``, and the metrics are the per-layer ones.  A table of every
metric with its quartiles goes to standard error.

Every workload, untraced and then traced, with the spread over seeds:

    python3 perfbench/run.py --all --runs 10

The program is run from the ``src`` directory next to this one; the
benchmark reads and writes nothing outside the repository root, and keeps
its scratch files and traces in ``.perfbench/`` there.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")

# Every run must end within this many seconds; children are killed at it.
RUN_LIMIT_S = 170.0

ALL_CHECKS = (
    "straightening",
    "D-consistency",
    "p-properties",
    "commutation",
    "D-identities",
    "integrality",
    "A2",
    "divided-powers",
    "self-consistency",
)
EQUALITY_CHECKS = tuple(c for c in ALL_CHECKS if c != "integrality")

# Workload name -> (profile, one tuple of check names per fresh process).
# Checks are always named, never ``all``, so a check added to the program
# later does not change what a workload measures.  BENCHMARK.json declares
# only equalities-deep and suite-desk: on a noisy two-core host each needs
# about a minute per run to give a steady median, so a third would not fit
# the time the whole set of runs may take.  integrality-deep is the one left
# out: its single process of about 13 s leaves only two or three
# repetitions in a run of the length three workloads would allow, too few
# for a steady median.  ``--all`` still runs all three.
WORKLOADS = {
    # The heaviest check: long-word multiplication and basis reduction.
    "integrality-deep": ("deep", (("integrality",),)),
    # The recursive block builders and short-word products; reduction is
    # nearly idle here, and eight interpreter starts weigh on set-up.
    "equalities-deep": ("deep", tuple((c,) for c in EQUALITY_CHECKS)),
    # All nine checks in one process, so later checks reuse the module
    # caches filled by earlier ones.
    "suite-desk": ("desk", (ALL_CHECKS,)),
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

BLOCK_BUILDERS = ("root_block", "cartan_pair", "dressed_block", "root_block_expanded")


def _per_layer():
    out = [
        ("pbw.mul.calls", "count"),
        ("pbw.mul.self_s", "s"),
        ("pbw.mul.term_pairs", "count"),
        ("pbw.mul.letters", "count"),
        ("pbw.addsub.calls", "count"),
        ("pbw.addsub.self_s", "s"),
        ("pbw.omega.calls", "count"),
        ("pbw.omega.self_s", "s"),
        ("forms.reduce_to_basis.calls", "count"),
        ("forms.reduce_to_basis.self_s", "s"),
        ("forms.reduce_to_basis.rounds", "count"),
    ]
    for fn in ("basis_element",) + BLOCK_BUILDERS:
        out += [
            ("forms.%s.calls" % fn, "count"),
            ("forms.%s.self_s" % fn, "s"),
            ("forms.%s.repeat_ratio" % fn, "ratio"),
        ]
    for fn in ("sub_multisets", "partitions", "subpartitions"):
        out.append(("combinatorics.%s.yielded" % fn, "count"))
    for check in ALL_CHECKS:
        out.append(("identities.check.%s.s" % check, "s"))
    out += [
        ("identities.generate_s", "s"),
        ("cli.import_s", "s"),
        ("pbw.make_preset.s", "s"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return tuple(out)


# Every per-layer metric with its unit, in report order.
PER_LAYER = _per_layer()


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported without a result line."""


# ---------------------------------------------------------------------------
# host speed
#
# On the shared host this benchmark was tuned on, the same code runs up to
# 1.8 times slower for a minute or more at a time while other tenants load
# the machine, so raw medians of runs made minutes apart differ by more
# than any useful bound.  ``wall_s`` and ``setup_s`` are therefore scaled
# to a fixed host speed: a calibration process is timed, spawn to exit,
# before the first and after every CLI process, and each CLI process's
# times are multiplied by CALIBRATION_REF_S over the mean of the
# calibrations just before and just after it.  The calibration is a fresh
# interpreter that fills and reads a dict of tuples of about 20 MB, so it
# pays for interpreter start, allocation and cache misses as the CLI does;
# it tracked the host much better than an in-process loop.  It never
# imports mapalg, so a change to the program scales the reported times
# exactly as it scales the raw ones.

# Calibration time that counts as the reference speed (scale 1.0): about
# what the calibration takes on the tuning host.
CALIBRATION_REF_S = 0.15
CALIBRATION_CODE = """
def fill_and_read():
    d = {}
    for i in range(150000):
        d[(i % 1013, i % 997, i)] = i
    s = 0
    for i in range(0, 150000, 3):
        s += d[(i % 1013, i % 997, i)]
    return s
fill_and_read()
"""


def calibrate(run_dir, deadline):
    """Seconds the calibration process takes now, spawn to exit."""
    wall, code, _, _, err = spawn(["-c", CALIBRATION_CODE], run_dir, "calibrate", deadline)
    if code != 0:
        raise BenchError("the calibration process failed:\n" + err)
    return wall


# ---------------------------------------------------------------------------
# processes


def spawn(argv, run_dir, stem, deadline):
    """Run ``argv`` with stdout and stderr in files under ``run_dir``.

    Returns (wall seconds from spawn to exit, exit code, ru_maxrss in KiB,
    stdout text, stderr text).  The child is killed at ``deadline``.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    # Installed programs run from compiled byte code, and set-up time must
    # not depend on whether the caller's environment forbids writing it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    out_path = os.path.join(run_dir, stem + ".out")
    err_path = os.path.join(run_dir, stem + ".err")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable] + argv, env, file_actions=actions)
    timer = threading.Timer(max(0.0, deadline - t0), os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        # Interrupted (SIGTERM or Ctrl-C): stop the child before leaving.
        os.kill(pid, signal.SIGTERM)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        err = fh.read()
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss, out, err


def check_argv(checks, profile, seed):
    return ["check", *checks, "--profile", profile, "--seed", str(seed), "--format", "json", "--jobs", "1"]


class Verifier:
    """Compares reports with the reference and keeps the failure tally.

    A check counts all of its reference instances as attempted; they all
    count as failed when the process crashes, the check fails, or its
    report differs from the reference."""

    def __init__(self, reference, profile):
        try:
            self.expected = reference["profiles"][profile]
        except KeyError:
            raise BenchError("reference has no profile %r" % profile)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def reports(self, what, checks, code, out):
        """Tally one CLI process; returns its reports keyed by check name."""
        try:
            reports = {r["name"]: r for r in json.loads(out)["reports"]}
        except (ValueError, KeyError, TypeError):
            reports = {}
        for check in checks:
            want = self.expected["checks"].get(check, {"instances": 0, "verdict": "missing"})
            got = reports.get(check)
            n = max(want["instances"], 1)
            self.attempted += n
            problem = None
            if code != 0:
                problem = "exit %d" % code
            elif got is None:
                problem = "no report"
            elif got["instances"] != want["instances"]:
                problem = "%d instances, reference %d" % (got["instances"], want["instances"])
            elif ("pass" if got["pass"] else "fail") != want["verdict"]:
                problem = "verdict %s, reference %s" % (got["pass"], want["verdict"])
            if problem is not None:
                self.failed += n
                self.problems.append("%s %s: %s" % (what, check, problem))
        return reports

    def a2_notes(self, what, notes):
        """Compare A2 notes (``signs KEY: eps=[...]``) with the reference."""
        signs = {}
        for note in notes:
            m = re.match(r"signs (.*): eps=\[(.*)\]$", note)
            if m:
                signs[m.group(1)] = [int(x) for x in m.group(2).split(",")]
        if signs != self.expected["a2_signs"]:
            self.failed += self.expected["checks"]["A2"]["instances"]
            self.problems.append("%s A2: sign vectors differ from the reference" % what)


def text_a2_notes(out):
    return [line[len("  note: ") :] for line in out.splitlines() if line.startswith("  note: ")]


# ---------------------------------------------------------------------------
# one repetition of a workload


class LayerSums:
    """Per-layer figures summed over the traced processes of one repetition."""

    def __init__(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counters = {}
        self.checks_s = {}
        self.import_s = 0.0
        self.generate_s = 0.0

    def add(self, trace):
        self.import_s += trace["import_s"]
        for name, s in trace["stats"].items():
            acc = self.stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += s["calls"]
            acc[1] += s["total_s"]
            acc[2] += s["self_s"]
        for name, n in trace["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + n
        for report in trace["reports"]:
            name = report["name"]
            self.checks_s[name] = self.checks_s.get(name, 0.0) + report["run_check_s"]
            self.generate_s += report["run_check_s"] - report["elapsed_ms"] / 1000.0

    def metrics(self):
        def stat(name):
            return self.stats.get(name, [0, 0.0, 0.0])

        counters = self.counters
        out = {}
        for name in ("pbw.mul", "pbw.addsub", "pbw.omega"):
            out[name + ".calls"] = stat(name)[0]
            out[name + ".self_s"] = stat(name)[2]
        out["pbw.mul.term_pairs"] = counters.get("pbw.mul.term_pairs", 0)
        out["pbw.mul.letters"] = counters.get("pbw.mul.letters", 0)
        out["forms.reduce_to_basis.calls"] = stat("forms.reduce_to_basis")[0]
        out["forms.reduce_to_basis.self_s"] = stat("forms.reduce_to_basis")[2]
        out["forms.reduce_to_basis.rounds"] = counters.get("forms.reduce_to_basis.rounds", 0)
        for fn in ("basis_element",) + BLOCK_BUILDERS:
            name = "forms." + fn
            calls = stat(name)[0]
            out[name + ".calls"] = calls
            out[name + ".self_s"] = stat(name)[2]
            out[name + ".repeat_ratio"] = counters.get(name + ".repeats", 0) / calls if calls else 0.0
        for fn in ("sub_multisets", "partitions", "subpartitions"):
            key = "combinatorics.%s.yielded" % fn
            out[key] = counters.get(key, 0)
        for check in ALL_CHECKS:
            out["identities.check.%s.s" % check] = self.checks_s.get(check, 0.0)
        out["identities.generate_s"] = self.generate_s
        out["cli.import_s"] = self.import_s
        out["pbw.make_preset.s"] = stat("pbw.make_preset")[1]
        return out


def run_rep(groups, profile, seed, verifier, run_dir, deadline, traced, calibration):
    """Run every process of the workload once, each followed by a
    calibration; ``calibration`` is the time of the one just before.
    Returns the repetition's figures and the time of its last calibration.
    When ``traced``, each process is followed at once by its traced twin,
    so that the overhead ratio compares runs made under the same host
    conditions."""
    rep = {"wall_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0, "raw_wall_s": 0.0, "traced_wall_s": 0.0}
    layers = LayerSums()
    for i, checks in enumerate(groups):
        argv = check_argv(checks, profile, seed)
        wall, code, maxrss, out, _ = spawn(["-m", "mapalg.cli"] + argv, run_dir, "run%d" % i, deadline)
        before, calibration = calibration, calibrate(run_dir, deadline)
        scale = CALIBRATION_REF_S / ((before + calibration) / 2)
        reports = verifier.reports("untraced", checks, code, out)
        rep["raw_wall_s"] += wall
        rep["wall_s"] += wall * scale
        rep["setup_s"] += (wall - sum(r["elapsedMs"] for r in reports.values()) / 1000.0) * scale
        rep["peak_rss_mb"] = max(rep["peak_rss_mb"], maxrss / 1024.0)
        if not traced:
            continue
        trace_path = os.path.join(run_dir, "trace-%d.json" % i)
        if os.path.exists(trace_path):
            os.remove(trace_path)
        wall, code, _, out, _ = spawn([TRACE_CLI, trace_path] + argv, run_dir, "trace%d" % i, deadline)
        rep["traced_wall_s"] += wall
        for name, report in verifier.reports("traced", checks, code, out).items():
            plain = reports.get(name)
            if plain is not None and (plain["instances"], plain["pass"]) != (report["instances"], report["pass"]):
                verifier.failed += report["instances"]
                verifier.problems.append("traced %s: report differs from the untraced one" % name)
        if not os.path.exists(trace_path):
            verifier.problems.append("traced %s: no trace written" % ", ".join(checks))
            continue
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        layers.add(trace)
        for report in trace["reports"]:
            if report["name"] == "A2":
                verifier.a2_notes("traced", report["notes"])
    if traced:
        rep.update(layers.metrics())
        rep["trace.overhead_ratio"] = rep["traced_wall_s"] / rep["raw_wall_s"]
    rep["host_scale"] = rep["wall_s"] / rep["raw_wall_s"]
    return rep, calibration


# ---------------------------------------------------------------------------
# one run


def quartiles(values):
    """(median, first quartile, third quartile) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def print_table(title, rows, out):
    """rows: (name, unit, values).  The spread is (q3 - q1) / median."""
    print(title, file=out)
    print("  %-40s %-6s %14s %14s %14s %7s %4s" % ("metric", "unit", "median", "q1", "q3", "spread", "n"), file=out)
    for name, unit, values in rows:
        med, q1, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        print("  %-40s %-6s %14.6g %14.6g %14.6g %7.4f %4d" % (name, unit, med, q1, q3, spread, len(values)), file=out)


def load_reference(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError("cannot read reference %s: %s" % (path, exc))


def prepare(prefix):
    """Make a fresh scratch directory for this run and start the program
    once, so that its byte code is compiled before anything is timed."""
    if not os.path.isfile(os.path.join(SRC, "mapalg", "cli.py")):
        raise BenchError("no program to measure: %s/mapalg/cli.py is missing" % SRC)
    os.makedirs(OUT, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=prefix + "-", dir=OUT)
    _, code, _, _, err = spawn(["-m", "mapalg.cli", "--help"], run_dir, "warmup", time.perf_counter() + 60)
    if code != 0:
        raise BenchError("the program does not start:\n" + err)
    return run_dir


def run_workload(args):
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    profile, groups = WORKLOADS[args.workload]
    profile = args.profile or profile
    run_dir = prepare("%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    verifier = Verifier(load_reference(args.reference), profile)
    reps = []
    calibration = calibrate(run_dir, deadline)
    while True:
        t0 = time.perf_counter()
        rep, calibration = run_rep(groups, profile, args.seed, verifier, run_dir, deadline, args.trace, calibration)
        reps.append(rep)
        took = time.perf_counter() - t0
        if verifier.problems or time.perf_counter() + took - start > args.seconds:
            break
    if not args.trace and any("A2" in checks for checks in groups) and not verifier.problems:
        # JSON reports leave out the A2 sign vectors; read them once from
        # the text report, outside the timed repetitions.
        _, code, _, out, _ = spawn(["-m", "mapalg.cli", "check", "A2", "--profile", profile, "--seed", str(args.seed), "--format", "text", "--jobs", "1"], run_dir, "a2", deadline)
        verifier.a2_notes("text", text_a2_notes(out) if code == 0 else [])

    declared = PER_LAYER if args.trace else END_TO_END
    rows = [(name, unit, [r[name] for r in reps]) for name, unit in declared]
    shown = rows + [(name, unit, [r[name] for r in reps]) for name, unit in (("raw_wall_s", "s"), ("host_scale", "ratio"))]
    print_table("%s seed=%d trace=%d profile=%s: %d repetitions" % (args.workload, args.seed, args.trace, profile, len(reps)), shown, sys.stderr)
    for problem in verifier.problems:
        print("MISMATCH " + problem, file=sys.stderr)
    # Exact counts repeat in every repetition; report them as the integers they are.
    metrics = {
        name: {"value": statistics.median_low(values) if unit == "count" else quartiles(values)[0], "unit": unit}
        for name, unit, values in rows
    }
    correct = not verifier.problems
    print(json.dumps({"correct": correct, "attempted": verifier.attempted, "failed": verifier.failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------
# every workload


EXACT_COUNT = re.compile(r"\.(calls|term_pairs|letters|rounds|yielded)$")


def run_all(args):
    """Run each workload ``--runs`` times untraced (seeds base, base+1, ...)
    and twice traced on the base seed, each run in its own process."""
    run_dir = prepare("all")
    summary = {}
    ok = True
    for workload in WORKLOADS:
        for trace, seeds in ((0, [args.seed + i for i in range(args.runs)]), (1, [args.seed, args.seed])):
            results = []
            for seed in seeds:
                argv = [os.path.abspath(__file__), "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace), "--reference", args.reference]
                if args.profile:
                    argv += ["--profile", args.profile]
                _, code, _, out, err = spawn(argv, run_dir, "run", time.perf_counter() + 3600)
                try:
                    result = json.loads(out.strip().splitlines()[-1])
                except (IndexError, ValueError):
                    result = None
                if code != 0 or result is None or not result["correct"]:
                    ok = False
                    print("FAILED %s seed=%d trace=%d (exit %d)\n%s" % (workload, seed, trace, code, err), file=sys.stderr)
                if result is not None:
                    results.append(result)
            if not results:
                continue
            names = list(results[0]["metrics"])
            rows = [(n, results[0]["metrics"][n]["unit"], [r["metrics"][n]["value"] for r in results]) for n in names]
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            rows.append(("failed_share", "ratio", [r["failed"] / r["attempted"] for r in results]))
            title = "%s trace=%d: %d runs of %ds, seeds %s, %d instances attempted, %d failed" % (
                workload, trace, len(results), args.seconds, sorted(set(seeds)), attempted, failed)
            print_table(title, rows, sys.stdout)
            sys.stdout.flush()
            if trace:
                for name, _, values in rows:
                    if EXACT_COUNT.search(name) and len(set(values)) != 1:
                        ok = False
                        print("FAILED %s: exact count %s differs between traced runs: %s" % (workload, name, values), file=sys.stderr)
            summary["%s/trace=%d" % (workload, trace)] = {
                "seeds": seeds,
                "results": results,
            }
    path = os.path.join(run_dir, "summary.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    print("every result: %s" % os.path.relpath(path, ROOT))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=10, help="untraced runs per workload with --all")
    parser.add_argument("--profile", choices=("smoke", "desk", "deep"), help="replace every workload's profile")
    parser.add_argument("--reference", default=REFERENCE)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        return run_all(args) if args.all else run_workload(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
