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
import re
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
from .pbw import INTEGER_TEXT, PRESETS, Element, make_preset, omega


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


# ASCII digits only, as INTEGER_TEXT reads exponents
_MULTIPLICITY = re.compile(r"[0-9]+")


def parse_multiset(text, nvars, laurent):
    """Parse the inline multiset syntax ``{[e1,e2,...]:mult, ...}``.

    The bracketed vector is a label exponent vector; ``{}`` is the empty
    multiset.  Errors carry the offending position.
    """
    s = text
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
            body = s[pos + 1 : end]
            exps = []
            at = pos + 1
            for field in body.split(",") if body.strip() else ():
                entry = field.strip()
                if not INTEGER_TEXT.fullmatch(entry):
                    fail("label entries must be integers", at + len(field) - len(field.lstrip()))
                exps.append(int(entry))
                at += len(field) + 1
            if len(exps) != nvars:
                fail("label has %d entries, session has %d variables" % (len(exps), nvars), pos)
            if not laurent and any(e < 0 for e in exps):
                fail("negative exponent in polynomial mode", pos)
            pos = skip_ws(end + 1)
            if pos >= len(s) or s[pos] != ":":
                fail("expected ':'", pos)
            pos = skip_ws(pos + 1)
            digits = _MULTIPLICITY.match(s, pos)
            if digits is None:
                fail("expected a multiplicity", pos)
            mult = int(digits.group())
            if mult < 1:
                fail("multiplicity must be >= 1", pos)
            pos = digits.end()
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


def _integer(text):
    """Read an integer option or override value written in ASCII digits
    (``pbw.INTEGER_TEXT``); ``int`` alone would also take "1_0", "+1",
    blanks and other scripts' digits."""
    if not INTEGER_TEXT.fullmatch(text):
        raise argparse.ArgumentTypeError("%r is not an integer in ASCII digits" % text)
    return int(text)


def _session_parser():
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--algebra", choices=tuple(PRESETS), default=None)
    parent.add_argument("--variables", type=_integer, default=1)
    parent.add_argument("--mode", choices=("polynomial", "laurent"), default="polynomial")
    parent.add_argument("--format", choices=("text", "json"), default="text")
    parent.add_argument("--jobs", type=_integer, default=1, help="must be 1")
    parent.add_argument("--seed", type=_integer, default=0)
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
    p_eval.add_argument("--sign", choices=("+", "-"), help="default +")
    p_eval.add_argument("--alpha", type=_integer, default=None)

    p_reduce = sub.add_parser("reduce", parents=[session], help="reduce an element file over the basis")
    p_reduce.add_argument("file", help="element JSON file, or - for stdin")

    p_check = sub.add_parser("check", parents=[session], help="run identity suites")
    p_check.add_argument("names", nargs="+")
    p_check.add_argument(
        "--profile",
        choices=tuple(PROFILES),
        default="desk",
    )
    p_check.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=INT",
        help="override one bound parameter on every selected check that has it",
    )

    p_basis = sub.add_parser("basis", parents=[session], help="list basis indices")
    p_basis.add_argument("--max-degree", type=_integer, default=2)
    p_basis.add_argument("--max-label-degree", type=_integer, default=1)

    return parser


def _config_from(args, profile=None):
    if args.variables < 1:
        raise CliError("--variables must be >= 1")
    if args.jobs != 1:
        raise CliError("--jobs must be 1: instances are evaluated in one process")
    if args.seed < 0:
        raise CliError("--seed must be >= 0")
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


# The options each eval object requires, and those it may take; it
# refuses the others.
_EVAL_OPTIONS = {
    "p": (("chi",), ("phi", "alpha")),
    "D": (("psi1", "psi2", "psi3"), ("sign", "alpha")),
    "bbD": (("psi1", "psi2", "psi3"), ("alpha",)),
    "xpow": (("psi",), ("sign", "alpha")),
}


def _cmd_eval(args, out):
    config = _config_from(args)
    required, optional = _EVAL_OPTIONS[args.object]
    for name in ("phi", "chi", "psi", "psi1", "psi2", "psi3", "sign", "alpha"):
        given = getattr(args, name) is not None
        if given and name not in required + optional:
            raise CliError("eval %s does not read --%s" % (args.object, name))
        if not given and name in required:
            raise CliError("eval %s requires --%s" % (args.object, name))
    nvars = config.variables
    laurent = config.mode == "laurent"
    algebra = config.algebra
    sign = -1 if args.sign == "-" else 1

    def ms(text):
        return parse_multiset(text, nvars, laurent)

    if args.object == "xpow":
        elem = root_monomial(sign, args.alpha or 0, ms(args.psi), make_preset(algebra))
    else:
        if args.object == "p":
            chi = ms(args.chi)
            elem = cartan_single(chi) if args.phi is None else cartan_pair(ms(args.phi), chi)
        elif args.object == "D":
            elem = root_block(sign, ms(args.psi1), ms(args.psi2), ms(args.psi3))
        else:
            elem = dressed_block(ms(args.psi1), ms(args.psi2), ms(args.psi3))
        if args.alpha is not None:
            elem = omega(args.alpha, elem, make_preset(algebra))
        elif algebra != "sl2":
            raise CliError(
                "object %s lives over sl2; pass --alpha to map it into %s"
                % (args.object, algebra)
            )
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
    if isinstance(data, dict):
        # an eval --format json document: refuse what it does not hold,
        # and a config written for another session
        foreign = sorted(set(data) - {"config", "element"})
        if foreign:
            raise CliError("element file: unknown top-level key %s" % json.dumps(foreign)[1:-1])
        written = data.get("config", {})
        if not isinstance(written, dict):
            raise CliError("element file: config must be an object")
        for key in ("algebra", "variables", "mode"):
            # compared as JSON text, so that true or 1.0 is not the int 1
            theirs, ours = json.dumps(written.get(key)), json.dumps(getattr(config, key))
            if key in written and theirs != ours:
                raise CliError(
                    "element file: written with %s=%s, but this session has %s=%s"
                    % (key, theirs, key, ours)
                )
        data = data.get("element")
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
    if args.algebra is not None:
        raise CliError("check takes its algebras from the profile; --algebra is not accepted")
    overrides = {}
    for item in args.override:
        if "=" not in item:
            raise CliError("override must look like KEY=INT: %r" % item)
        key, _, value = item.partition("=")
        key = key.strip()
        if key in overrides:
            raise CliError("override %s is given more than once" % key)
        try:
            overrides[key] = _integer(value.strip())
        except argparse.ArgumentTypeError:
            raise CliError("override value must be an integer: %r" % item)
    reports = run_suite(args.names, profile=args.profile, seed=args.seed, overrides=overrides)
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
    except RecursionError:
        # a block or a product that recurses deeper than the interpreter allows
        print("error: input too large for Python's recursion limit", file=sys.stderr)
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

    Python's limit on the digits of an integer converted to or from a
    string (4300 by default) is lifted for the process, so that an exact
    coefficient such as 1600! prints in full.
    """
    if hasattr(sys, "set_int_max_str_digits"):  # Python 3.10.7 and later
        sys.set_int_max_str_digits(0)
    try:
        code = main()
        sys.stdout.flush()
        sys.stderr.flush()
    except BrokenPipeError:
        os._exit(141)
    os._exit(code)


if __name__ == "__main__":
    entry()
