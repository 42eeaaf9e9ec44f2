"""Acceptance suite: every criterion at its pinned desk-scale bounds.

Each test runs one criterion against the desk profile (exact equality
everywhere, no tolerances) and prints a single PASS/FAIL line.  The desk
checks are executed once per session and shared.
"""

import json
import os
import re
from fractions import Fraction

import pytest

from mapalg import pbw
from mapalg.combinatorics import ALabel, Multiset, binom_int
from mapalg.forms import cartan_single, root_monomial
from mapalg.identities import CHECKS, make_spec, run_check
from mapalg.pbw import Element, Gen, divided_power, make_preset

U = ALabel([0])
T = ALabel([1])
SL2 = make_preset("sl2")

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")

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


@pytest.fixture(scope="module")
def desk():
    results = {}
    for name in ALL_CHECKS:
        spec = make_spec(name, profile="desk", seed=0)
        results[name] = (spec, run_check(spec))
    return results


def _kinds(spec, name):
    counts = {}
    for args in CHECKS[name][0](spec):
        counts[args[0]] = counts.get(args[0], 0) + 1
    return counts


def _family_failures(report, prefixes):
    return [f for f in report.failures if f.args.startswith(prefixes)]


def _verdict(number, label, ok):
    print("ACCEPTANCE %2d %-58s %s" % (number, label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d failed: %s" % (number, label)


def test_criterion_01_straightening(desk):
    spec, report = desk["straightening"]
    lhs = root_monomial(1, 0, Multiset.single(U)) * root_monomial(-1, 0, Multiset.single(U))
    anchor = (
        Element.generator(SL2, 0, U) * Element.generator(SL2, 2, U)
        + Element.generator(SL2, 1, U)
    )
    counts = _kinds(spec, "straightening")
    ok = (
        report.passed
        and lhs == anchor
        and counts.get("exh") == 100
        and counts.get("rand") == 200
    )
    _verdict(1, "straightening lemma, exhaustive <=2 plus 200 random", ok)


def test_criterion_02_closed_formula(desk):
    spec, report = desk["D-consistency"]
    counts = _kinds(spec, "D-consistency")
    ok = (
        not _family_failures(report, ("sign",))
        and counts.get("expanded") == 240
        and not any(f.args.startswith("sign=") for f in report.failures)
    )
    _verdict(2, "closed partition formula == recursion, |psi|<=3 k<=3", ok)


def test_criterion_03_degrees(desk):
    spec, report = desk["D-consistency"]
    counts = _kinds(spec, "D-consistency")
    ok = (
        report.passed
        and counts.get("homogeneous") == 2000
        and counts.get("dressed-degree") == 1000
    )
    _verdict(3, "block homogeneity and dressed degree bound, sizes <=3", ok)


def test_criterion_04_leading_term(desk):
    spec, report = desk["p-properties"]
    counts = _kinds(spec, "p-properties")
    h = Element.generator(SL2, 1, U)
    anchor = cartan_single(Multiset.single(U, 2)) == Fraction(1, 2) * (h * h) - Fraction(
        1, 2
    ) * h
    ok = report.passed and counts.get("leading") == 15 and anchor
    _verdict(4, "Cartan leading term with sign, |chi|<=4", ok)


def test_criterion_05_integral_reduction(desk):
    spec, report = desk["integrality"]
    counts = _kinds(spec, "integrality")
    ok = (
        not _family_failures(report, ("D ", "p "))
        and counts.get("reduce-D") == 2000
        and counts.get("reduce-p") == 100
    )
    _verdict(5, "block and Cartan reductions integral, sizes <=3", ok)


def test_criterion_06_divided_power_law(desk):
    spec, report = desk["divided-powers"]
    gen = Gen(2, T)
    anchor = divided_power(SL2, gen, 3) * divided_power(SL2, gen, 5) == binom_int(
        8, 3
    ) * divided_power(SL2, gen, 8)
    ok = report.passed and report.instances == 270 and anchor
    _verdict(6, "divided-power product law, r+s<=8", ok)


def test_criterion_07_rank_two_straightening(desk):
    spec, report = desk["A2"]
    ok = report.passed and report.instances == 256 and len(report.notes) > 0
    _verdict(7, "rank-two straightening with extracted signs, r,s<=3", ok)


def test_criterion_08_commutation(desk):
    spec, report = desk["commutation"]
    counts = _kinds(spec, "commutation")
    ok = (
        report.passed
        and counts.get("xq-i", 0) > 0
        and counts.get("xq-ii", 0) > 0
        and counts.get("xrq-i", 0) > 0
        and counts.get("xrq-ii", 0) > 0
        and counts.get("qpx", 0) > 0
    )
    _verdict(8, "commutation identities incl. corrected reading, sizes <=2", ok)


def test_criterion_09_block_identities(desk):
    spec, report = desk["D-identities"]
    counts = _kinds(spec, "D-identities")
    ok = (
        report.passed
        and counts.get("idD-i", 0) == 280
        and counts.get("idD-ii", 0) == 280
        and counts.get("idbbd", 0) == 72
        and counts.get("eqnq", 0) == 72
        and counts.get("eqnbbd", 0) == 90
    )
    _verdict(9, "block recursion identity suite, sizes <=2", ok)


def test_criterion_10_triangular_decomposition(desk):
    spec, report = desk["integrality"]
    counts = _kinds(spec, "integrality")
    ok = (
        not _family_failures(report, ("product", "bracket-"))
        and counts.get("product") == 1884
        and counts.get("bracket-xx") == 36
        and counts.get("bracket-xp") == 36
        and counts.get("bracket-px") == 36
    )
    _verdict(10, "divided-power products reduce integrally, brackets bounded", ok)


def test_criterion_11_adjoint_integrality(desk):
    spec, report = desk["integrality"]
    counts = _kinds(spec, "integrality")
    ok = not _family_failures(report, ("ad ",)) and counts.get("ad") == 1080
    _verdict(11, "divided adjoint powers keep integer coordinates, r<=4", ok)


def test_criterion_12_engine_self_consistency(desk):
    spec, report = desk["self-consistency"]
    counts = _kinds(spec, "self-consistency")
    ok = (
        report.passed
        and counts.get("assoc") == 500
        and counts.get("word") == 6 + 36 + 216 + 1296
    )
    _verdict(12, "associativity and fold-order agreement", ok)


def test_degree_of_every_interned_monomial(desk):
    """``pbw.degree_of`` is the exponent sum of every monomial the desk
    suite built."""
    monos = list(pbw._monos.values()) + list(pbw._mono_spill.values())
    assert len(monos) > 1000
    for mono in monos:
        assert pbw.degree_of(mono) == sum(e for _, e in mono)


def test_desk_matches_reference(desk):
    """The desk counts, verdicts and A2 sign vectors equal the benchmark's
    reference report (read only)."""
    with open(REFERENCE, encoding="utf-8") as fh:
        want = json.load(fh)["profiles"]["desk"]
    got = {
        name: {"instances": report.instances, "verdict": "pass" if report.passed else "fail"}
        for name, (_, report) in desk.items()
    }
    assert got == want["checks"]
    signs = {}
    for note in desk["A2"][1].notes:
        key, eps = re.fullmatch(r"signs (.*): eps=\[(.*)\]", note).groups()
        signs[key] = [int(x) for x in eps.split(",")]
    assert signs == want["a2_signs"]
