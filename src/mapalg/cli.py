"""Batch command line front end.

Subcommands: ``eval`` renders one of the named element families, ``reduce``
decomposes an element file over the integral basis, ``check`` runs identity
suites and ``basis`` lists basis indices.  Exit codes are a stable
contract: 0 for success (all checks passing), 1 for a failed check, 2 for
usage or parse errors, 141 when standard output was closed by its reader.
Every output carries the session configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import NamedTuple

from .combinatorics import ALabel, Multiset
from .forms import (
    cartan_pair,
    cartan_single,
    dressed_block,
    enumerate_basis,
    reduce_to_basis,
    root_block,
    root_monomial,
)
from .identities import PROFILES, run_suite
from .pbw import Element, make_preset, omega


class CliError(ValueError):
    """Usage-level error: reported on stderr with exit status 2."""


class SessionConfig(NamedTuple):
    algebra: str
    variables: int
    mode: str
    output_format: str
    seed: int
    profile: str | None = None

    def to_json(self):
        out = {
            "algebra": self.algebra,
            "variables": self.variables,
            "mode": self.mode,
            "format": self.output_format,
            "jobs": 1,  # the only accepted value, kept so reports keep their shape
            "seed": self.seed,
        }
        if self.profile is not None:
            out["profile"] = self.profile
        return out

    def header(self):
        parts = ["%s=%s" % (k, v) for k, v in self.to_json().items()]
        return "# " + " ".join(parts)


def parse_multiset(text, nvars, laurent):
    """Parse the inline multiset syntax ``{[e1,e2,...]:mult, ...}``.

    The bracketed vector is a label exponent vector; ``{}`` is the empty
    multiset.  Errors carry the offending position.
    """
    s = text.strip()
    pos = 0

    def fail(msg, at):
        raise CliError("multiset syntax error at position %d: %s (in %r)" % (at, msg, text))

    def skip_ws(i):
        while i < len(s) and s[i].isspace():
            i += 1
        return i

    pos = skip_ws(pos)
    if pos >= len(s) or s[pos] != "{":
        fail("expected '{'", pos)
    pos = skip_ws(pos + 1)
    entries = []
    if pos < len(s) and s[pos] == "}":
        pos += 1
    else:
        while True:
            if pos >= len(s) or s[pos] != "[":
                fail("expected '['", pos)
            end = s.find("]", pos)
            if end < 0:
                fail("unterminated label", pos)
            body = s[pos + 1 : end].strip()
            try:
                exps = [int(x.strip()) for x in body.split(",")] if body else []
            except ValueError:
                fail("label entries must be integers", pos + 1)
            if len(exps) != nvars:
                fail("label has %d entries, session has %d variables" % (len(exps), nvars), pos)
            if not laurent and any(e < 0 for e in exps):
                fail("negative exponent in polynomial mode", pos)
            pos = skip_ws(end + 1)
            if pos >= len(s) or s[pos] != ":":
                fail("expected ':'", pos)
            pos = skip_ws(pos + 1)
            start = pos
            while pos < len(s) and (s[pos].isdigit() or s[pos] == "-"):
                pos += 1
            if start == pos:
                fail("expected a multiplicity", pos)
            mult = int(s[start:pos])
            if mult < 1:
                fail("multiplicity must be >= 1", start)
            entries.append((ALabel(exps), mult))
            pos = skip_ws(pos)
            if pos < len(s) and s[pos] == ",":
                pos = skip_ws(pos + 1)
                continue
            if pos < len(s) and s[pos] == "}":
                pos += 1
                break
            fail("expected ',' or '}'", pos)
    pos = skip_ws(pos)
    if pos != len(s):
        fail("trailing characters", pos)
    return Multiset(entries)


def _session_parser():
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--algebra", choices=("sl2", "sl3"), default=None)
    parent.add_argument("--variables", type=int, default=1)
    parent.add_argument("--mode", choices=("polynomial", "laurent"), default="polynomial")
    parent.add_argument("--format", choices=("text", "json"), default="text")
    parent.add_argument("--jobs", type=int, default=1, help="must be 1")
    parent.add_argument("--seed", type=int, default=0)
    return parent


def build_parser():
    session = _session_parser()
    parser = argparse.ArgumentParser(
        prog="mapalg",
        description="Exact integral-form engine for enveloping algebras of map algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[session], help="evaluate a named element")
    p_eval.add_argument("object", choices=("p", "D", "bbD", "xpow"))
    p_eval.add_argument("--phi")
    p_eval.add_argument("--chi")
    p_eval.add_argument("--psi")
    p_eval.add_argument("--psi1")
    p_eval.add_argument("--psi2")
    p_eval.add_argument("--psi3")
    p_eval.add_argument("--sign", choices=("+", "-"), default="+")
    p_eval.add_argument("--alpha", type=int, default=None)

    p_reduce = sub.add_parser("reduce", parents=[session], help="reduce an element file over the basis")
    p_reduce.add_argument("file", help="element JSON file, or - for stdin")

    p_check = sub.add_parser("check", parents=[session], help="run identity suites")
    p_check.add_argument("names", nargs="+")
    p_check.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default=os.environ.get("MAPALG_PROFILE", "desk"),
    )
    p_check.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=INT",
        help="override one bound parameter on every selected check that has it",
    )

    p_basis = sub.add_parser("basis", parents=[session], help="list basis indices")
    p_basis.add_argument("--max-degree", type=int, default=2)
    p_basis.add_argument("--max-label-degree", type=int, default=1)

    return parser


def _config_from(args, profile=None):
    if args.variables < 1:
        raise CliError("--variables must be >= 1")
    if args.jobs != 1:
        raise CliError("--jobs must be 1: instances are evaluated in one process")
    return SessionConfig(
        algebra=args.algebra or ("auto" if args.command == "check" else "sl2"),
        variables=args.variables,
        mode=args.mode,
        output_format=args.format,
        seed=args.seed,
        profile=profile,
    )


def _emit(config, payload_json, text_lines, out):
    if config.output_format == "json":
        doc = {"config": config.to_json()}
        doc.update(payload_json)
        print(json.dumps(doc, indent=2), file=out)
    else:
        print(config.header(), file=out)
        for line in text_lines:
            print(line, file=out)


def _require(args, names):
    out = []
    for n in names:
        value = getattr(args, n.replace("-", "_"))
        if value is None:
            raise CliError("eval %s requires --%s" % (args.object, n))
        out.append(value)
    return out


def _cmd_eval(args, out):
    config = _config_from(args)
    nvars = config.variables
    laurent = config.mode == "laurent"
    algebra = config.algebra

    def ms(text):
        return parse_multiset(text, nvars, laurent)

    if args.object == "xpow":
        preset = make_preset(algebra)
        alpha = args.alpha if args.alpha is not None else 0
        (psi_text,) = _require(args, ["psi"])
        elem = root_monomial(args.sign, alpha, ms(psi_text), preset)
    else:
        if args.object == "p":
            (chi_text,) = _require(args, ["chi"])
            chi = ms(chi_text)
            if args.phi is not None:
                elem = cartan_pair(ms(args.phi), chi)
            else:
                elem = cartan_single(chi)
        elif args.object == "D":
            p1, p2, p3 = _require(args, ["psi1", "psi2", "psi3"])
            elem = root_block(args.sign, ms(p1), ms(p2), ms(p3))
        else:
            p1, p2, p3 = _require(args, ["psi1", "psi2", "psi3"])
            elem = dressed_block(ms(p1), ms(p2), ms(p3))
        if algebra != "sl2":
            if args.alpha is None:
                raise CliError(
                    "object %s lives over sl2; pass --alpha to map it into %s"
                    % (args.object, algebra)
                )
            elem = omega(args.alpha, elem, make_preset(algebra))
    _emit(config, {"element": elem.to_json()}, [elem.render()], out)
    return 0


def _cmd_reduce(args, out):
    config = _config_from(args)
    preset = make_preset(config.algebra)
    if args.file == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (args.file, exc))
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CliError("malformed JSON: %s" % exc)
    if isinstance(data, dict) and "element" in data:
        data = data["element"]
    try:
        elem = Element.from_json(
            preset, data, nvars=config.variables, laurent=config.mode == "laurent"
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise CliError("malformed element: %s" % exc)
    result = reduce_to_basis(elem)
    lines = ["%s * (%s)" % (coeff, idx.render()) for idx, coeff in result.terms]
    lines.append("integral: %s" % ("true" if result.integral else "false"))
    payload = result.to_json()
    _emit(config, payload, lines, out)
    return 0


def _cmd_check(args, out):
    config = _config_from(args, profile=args.profile)
    if config.variables != 1 or config.mode != "polynomial":
        raise CliError(
            "check instances use one-variable polynomial labels; "
            "--variables must be 1 and --mode polynomial"
        )
    overrides = {}
    for item in args.override:
        if "=" not in item:
            raise CliError("override must look like KEY=INT: %r" % item)
        key, _, value = item.partition("=")
        try:
            overrides[key.strip()] = int(value.strip())
        except ValueError:
            raise CliError("override value must be an integer: %r" % item)
    reports = run_suite(
        args.names,
        profile=args.profile,
        preset=args.algebra,
        seed=args.seed,
        overrides=overrides,
    )
    lines = []
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        lines.append(
            "check %s: %s  instances=%d elapsed=%.0fms"
            % (report.name, status, report.instances, report.elapsed_ms)
        )
        lines.extend("  note: %s" % note for note in report.notes)
        if report.failures:
            first = report.failures[0]
            lines.append("  first counterexample: %s" % first.args)
            lines.append("    lhs:  %s" % first.lhs)
            lines.append("    rhs:  %s" % first.rhs)
            lines.append("    diff: %s" % first.diff)
    passed = sum(1 for r in reports if r.passed)
    lines.append("summary: %d/%d passed" % (passed, len(reports)))
    _emit(config, {"reports": [r.to_json() for r in reports]}, lines, out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_basis(args, out):
    config = _config_from(args)
    if args.max_degree < 0 or args.max_label_degree < 0:
        raise CliError("bounds must be >= 0")
    if config.mode == "laurent":
        raise CliError(
            "basis lists polynomial labels only; Laurent labels are not enumerable by degree"
        )
    preset = make_preset(config.algebra)
    indices = list(
        enumerate_basis(preset, args.max_degree, args.max_label_degree, config.variables)
    )
    lines = [idx.render() for idx in indices]
    lines.append("count: %d" % len(indices))
    _emit(config, {"basis": [i.to_json() for i in indices], "count": len(indices)}, lines, out)
    return 0


def main(argv=None, out=None):
    if out is None:
        out = sys.stdout
        # all output is UTF-8 regardless of locale
        if hasattr(out, "reconfigure"):
            try:
                out.reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "eval": _cmd_eval,
        "reduce": _cmd_reduce,
        "check": _cmd_check,
        "basis": _cmd_basis,
    }
    try:
        return handlers[args.command](args, out)
    except (CliError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def entry():
    """Run :func:`main` as a process and end it once its output is written.

    The process ends through ``os._exit`` rather than interpreter shutdown,
    so the memo tables are reclaimed by the OS instead of being freed one
    entry at a time, which grows with the caches (about half a second
    after a deep ``check all``).  Nothing is lost: both streams are flushed
    first, and mapalg registers no ``atexit`` handler.  A reader that
    closes standard output early (``mapalg ... | head``) gives exit status
    141, 128 + SIGPIPE, with nothing on stderr.  An exception raised out of
    ``main`` propagates.
    """
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(141)
    os._exit(code)


if __name__ == "__main__":
    entry()
