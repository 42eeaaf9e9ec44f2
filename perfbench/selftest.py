"""Self-test of the benchmark at smoke size, in well under a minute.

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, exits 0 with a correct result that
  carries exactly the metrics BENCHMARK.json declares, with their units;
- a corrupted reference (one instance count, or one A2 sign) makes the run
  exit nonzero with ``correct`` false and failed instances counted;
- in a directory holding only BENCHMARK.json and the benchmark's own files,
  the benchmark exits nonzero without printing a result.
Exits 0 when all hold and prints one line per failed expectation otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench", "selftest")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload, trace, cwd=ROOT, reference=None):
    argv = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--profile", "smoke",
    ]
    if reference is not None:
        argv += ["--reference", reference]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def corrupted(name, edit):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    edit(reference["profiles"]["smoke"])
    path = os.path.join(WORK, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh)
    return path


def main():
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    errors = []

    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            code, result, err = bench(workload, trace)
            what = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                errors.append("%s: exit %d, no result\n%s" % (what, code, err))
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s: result keys %s" % (what, sorted(result)))
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append("%s: not a clean pass: %s" % (what, {k: result[k] for k in ("correct", "attempted", "failed")}))
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                errors.append("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
                    what,
                    sorted(set(want) - set(got)),
                    sorted(set(got) - set(want)),
                    sorted(n for n in set(want) & set(got) if want[n] != got[n]),
                ))

    def bad_count(profile):
        profile["checks"]["integrality"]["instances"] += 1

    def bad_sign(profile):
        key = sorted(profile["a2_signs"])[0]
        profile["a2_signs"][key][0] *= -1

    cases = (
        ("integrality-deep", 0, corrupted("bad-count.json", bad_count)),
        ("suite-desk", 1, corrupted("bad-count.json", bad_count)),
        ("equalities-deep", 0, corrupted("bad-sign.json", bad_sign)),
        ("suite-desk", 1, corrupted("bad-sign.json", bad_sign)),
    )
    for workload, trace, reference in cases:
        code, result, _ = bench(workload, trace, reference=reference)
        what = "%s trace=%d with %s" % (workload, trace, os.path.basename(reference))
        if code == 0:
            errors.append("%s: exit 0" % what)
        if result is None or result["correct"] or result["failed"] < 1:
            errors.append("%s: mismatch not reported: %s" % (what, result))

    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path), ignore=shutil.ignore_patterns("__pycache__"))
    code, result, _ = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
    if code == 0 or result is not None:
        errors.append("without the program: exit %d, result %s" % (code, result))

    for error in errors:
        print("FAIL " + error)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
