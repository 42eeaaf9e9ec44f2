import hashlib
import json
import os
import re
from fractions import Fraction

import pytest

from mapalg import forms, identities, memo, pbw
from mapalg.combinatorics import ALabel, Multiset
from mapalg.forms import cartan_pair, cartan_single, dressed_block, root_block
from mapalg.identities import (
    CHECKS,
    PROFILES,
    Check,
    CheckFailure,
    CheckSpec,
    _eqnq_sides,
    _graded_part,
    _idbbd_sides,
    _qpx_sides,
    _straightening_sides,
    _xq_sides,
    check_names,
    make_spec,
    run_check,
    run_suite,
)
from mapalg.forms import reduce_to_basis
from mapalg.memo import clear_caches
from mapalg.pbw import Element, Gen, Mono, divided_power, make_preset

U = ALabel([0])
T = ALabel([1])

SL2 = make_preset("sl2")

REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "reference.json")


def ms(*pairs):
    return Multiset(pairs)


def chi(key, mult=1):
    return Multiset.single(key, mult)


def g(index, label):
    return Element.generator(SL2, index, label)


class TestAnchors:
    def test_straightening_hand_instance(self):
        lhs, rhs = _straightening_sides(chi(U), chi(U))
        want = g(0, U) * g(2, U) + g(1, U)
        assert lhs == want
        assert rhs == want

    def test_straightening_empty_phi(self):
        for chi_arg in (ms(), chi(T), chi(T, 2)):
            lhs, rhs = _straightening_sides(ms(), chi_arg)
            assert lhs == rhs

    def test_xq_hand_instance(self):
        # moving one raising generator past a one-pair Cartan element
        c, d = T, ALabel([2])
        b = U
        lhs, rhs = _xq_sides(SL2, 0, 0, b, chi(c), chi(d), "i")
        hand = -(g(1, c * d) * g(2, b)) + 2 * g(2, b * c * d)
        assert lhs == hand
        assert rhs == hand

    def test_eqnq_hand_instance(self):
        c, b = T, ALabel([2])
        lhs, rhs = _eqnq_sides(b, chi(c), ms())
        assert lhs == g(1, b * c)
        assert rhs == g(1, b * c)

    def test_idbbd_base_case_is_pair_commutation(self):
        # with the first argument maximal only the Cartan pair survives
        b = T
        varphi, chi_arg = chi(U), chi(T)
        lhs, rhs = _idbbd_sides(b, varphi, chi_arg)
        assert lhs == rhs

    def test_pair_product_binomial_defect(self):
        # p(chi_1)^2 - C(2,1) p(2 chi_1) collapses to h = -p(chi_1)
        one = chi(U)
        lhs = cartan_single(one) * cartan_single(one) - 2 * cartan_single(chi(U, 2))
        assert lhs == g(1, U)
        assert lhs == -cartan_single(one)

    def test_adjoint_square_with_labels(self):
        from mapalg.pbw import Gen, ad_divided

        got = ad_divided(SL2, Gen(2, T), 2, g(0, U))
        assert got == -g(2, ALabel([2]))

    def test_qpx_corrected_vs_literal(self):
        phi = ms((U, 2), (T, 1))
        chi_arg = ms((U, 1), (T, 2))
        lc, rc = _qpx_sides(U, phi, chi_arg, literal=False)
        assert lc == rc
        ll, rl = _qpx_sides(U, phi, chi_arg, literal=True)
        assert ll != rl


class TestRunner:
    def test_smoke_suite_passes(self):
        reports = run_suite(["all"], profile="smoke")
        assert len(reports) == len(check_names())
        for report in reports:
            assert report.passed, report.name
            assert report.instances > 0
        # the same counts, verdicts and A2 sign vectors as the benchmark's
        # reference report (read only)
        with open(REFERENCE, encoding="utf-8") as fh:
            want = json.load(fh)["profiles"]["smoke"]
        got = {
            r.name: {"instances": r.instances, "verdict": "pass" if r.passed else "fail"}
            for r in reports
        }
        assert got == want["checks"]
        (a2,) = [r for r in reports if r.name == "A2"]
        signs = {}
        for note in a2.notes:
            key, eps = re.fullmatch(r"signs (.*): eps=\[(.*)\]", note).groups()
            signs[key] = [int(x) for x in eps.split(",")]
        assert signs == want["a2_signs"]

    def test_unknown_check(self):
        with pytest.raises(ValueError):
            run_suite(["nonsense"], profile="smoke")

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            make_spec("straightening", profile="huge")

    def test_overrides(self):
        spec = make_spec("straightening", profile="smoke", overrides={"rand_count": 2})
        assert spec.params["rand_count"] == 2
        # refused as run_suite refuses them, not dropped: a key that is no
        # integer bound of this check, a negative bound, a count not an int
        with pytest.raises(ValueError, match="'bogus' is not an integer bound of check"):
            make_spec("straightening", profile="smoke", overrides={"rand_count": 2, "bogus": 9})
        for key in ("labels", "max_total"):
            with pytest.raises(ValueError, match="not an integer bound of check 'straightening'"):
                make_spec("straightening", profile="smoke", overrides={key: 3})
        with pytest.raises(ValueError, match="must be >= 0"):
            make_spec("straightening", profile="smoke", overrides={"exh_size": -1})
        for bad in (2.0, True, "2"):
            with pytest.raises(TypeError):
                make_spec("straightening", profile="smoke", overrides={"exh_size": bad})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ValueError, match="unknown override key 'exh_szie'"):
            run_suite(["straightening"], profile="smoke", overrides={"exh_szie": 5})
        with pytest.raises(ValueError, match="not an integer bound"):
            run_suite(["straightening"], profile="smoke", overrides={"labels": 3})

    def test_override_absent_from_selected_checks_rejected(self):
        with pytest.raises(ValueError, match="none of the selected checks"):
            run_suite(["straightening", "A2"], profile="smoke", overrides={"max_total": 3})

    def test_empty_family_rejected(self):
        spec = make_spec(
            "self-consistency", profile="smoke", overrides={"assoc_count": 0, "word_len": 0}
        )
        with pytest.raises(ValueError, match="no instances"):
            run_check(spec)

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            run_suite(["divided-powers"], profile="smoke", overrides={"max_total": -1})
        with pytest.raises(ValueError, match="must be >= 0"):
            run_suite(
                ["straightening"], profile="smoke", overrides={"exh_size": -1, "rand_count": -3}
            )

    def test_negative_or_non_int_seed_rejected(self):
        """``random.Random(-3)`` draws seed 3's family, so the report would
        carry a seed that did not make it."""
        for seed in (-1, -3):
            with pytest.raises(ValueError, match="seed must be >= 0"):
                make_spec("straightening", profile="smoke", seed=seed)
            with pytest.raises(ValueError, match="seed must be >= 0"):
                run_suite(["straightening"], profile="smoke", seed=seed)
        for seed in (1.0, True, "3", None):
            with pytest.raises(TypeError, match="seed must be an int"):
                make_spec("straightening", profile="smoke", seed=seed)
            with pytest.raises(TypeError, match="seed must be an int"):
                run_suite(["A2"], profile="smoke", seed=seed)

    def test_report_json_schema(self):
        spec = make_spec("divided-powers", profile="smoke")
        report = run_check(spec)
        doc = report.to_json()
        assert set(doc) == {"name", "instances", "pass", "failures", "elapsedMs", "seed"}
        assert doc["pass"] is True
        assert doc["failures"] == []

    def test_deterministic_given_seed(self):
        spec1 = make_spec("straightening", profile="smoke", seed=42)
        spec2 = make_spec("straightening", profile="smoke", seed=42)
        r1 = run_check(spec1)
        r2 = run_check(spec2)
        d1, d2 = r1.to_json(), r2.to_json()
        d1.pop("elapsedMs")
        d2.pop("elapsedMs")
        assert d1 == d2

    def test_a2_emits_sign_table(self):
        report = run_check(make_spec("A2", profile="smoke"))
        assert report.passed
        assert report.notes
        assert all("eps=" in note for note in report.notes)

    def test_failures_carry_recomputable_difference(self):
        # evaluate a deliberately wrong identity through the same plumbing
        from mapalg.identities import _failure

        lhs = g(1, U)
        rhs = 2 * g(1, U)
        failure = _failure("demo", lhs, rhs)
        assert isinstance(failure, CheckFailure)
        assert failure.diff == (lhs - rhs).render()
        assert (lhs - rhs).render() != "0"
        assert _failure("demo", lhs, lhs) is None

    def test_profiles_cover_all_checks(self):
        for profile, table in PROFILES.items():
            assert set(table) == set(check_names()), profile

    def _probe(self, monkeypatch, events, clock=None):
        """Run a throwaway check of three instances whose generator and
        evaluator log to ``events``; each moves ``clock`` on, when given,
        by 10 s and by 0.5 s."""

        def generate(spec):
            for n in range(3):
                events.append(("generate", n))
                if clock is not None:
                    clock.now += 10.0
                yield ("probe", n)

        def evaluate(n):
            events.append(("evaluate", n))
            if clock is not None:
                clock.now += 0.5
            return None

        monkeypatch.setitem(CHECKS, "probe", Check(generate, {"probe": evaluate}))
        return run_check(CheckSpec("probe", {}))

    def test_instances_stream(self, monkeypatch):
        """Each instance is evaluated before the next one is generated, so
        no list of the family is built first."""
        events = []
        report = self._probe(monkeypatch, events)
        assert report.instances == 3 and report.passed
        assert events == [(step, n) for n in range(3) for step in ("generate", "evaluate")]

    def test_elapsed_leaves_out_generation(self, monkeypatch):
        class Clock:
            now = 0.0

            def perf_counter(self):
                return self.now

        clock = Clock()
        monkeypatch.setattr(identities, "time", clock)
        report = self._probe(monkeypatch, [], clock)
        assert clock.now == 3 * 10.5
        assert report.elapsed_ms == 3 * 500.0

    def test_straightening_keeps_one_verdict_per_pair(self):
        """Both kinds share one verdict table, which holds the family's
        distinct (phi, chi) pairs, each with the verdict None, and no sides."""
        spec = make_spec("straightening", "desk")
        check = CHECKS["straightening"]
        verdict = check.kinds["exh"]
        assert check.kinds["rand"] is verdict
        clear_caches()
        assert verdict.table == {}
        report = run_check(spec)
        pairs = {args[1:] for args in check.instances(spec)}
        assert report.passed and report.instances == 300 and len(pairs) == 116
        assert set(verdict.table) == pairs
        assert all(value is None for value in verdict.table.values())
        clear_caches()
        assert verdict.table == {}


def _dependent(columns, targets):
    raise ValueError("dependent columns in solve_integers")


def _negated(real):
    def solve(columns, targets):
        ((coeffs, den),) = real(columns, targets)
        return [([-c for c in coeffs], den)]

    return solve


class TestA2Failures:
    """Each way the sign extraction can go wrong fails the smoke A2 report,
    at its first instance (r = s = 0, where the one candidate is 1)."""

    NO_SOLUTION = ("combination of divided-power products", "no exact solution")

    @pytest.mark.parametrize(
        "solve, expectation, finding",
        [
            (lambda real: lambda columns, targets: [None], *NO_SOLUTION),
            (lambda real: _dependent, *NO_SOLUTION),
            (
                lambda real: lambda columns, targets: [([2], 1)],
                "signs in {+1, -1}",
                "coefficients [2]",
            ),
            (_negated, "-1", "2"),
            (
                lambda real: lambda columns, targets: [([1], 2)],
                "signs in {+1, -1}",
                "coefficients [1]/2",
            ),
        ],
        ids=["off-span", "raises", "not-a-sign", "negated", "not-integral"],
    )
    def test_first_failure(self, monkeypatch, solve, expectation, finding):
        monkeypatch.setattr(identities, "solve_integers", solve(identities.solve_integers))
        report = run_check(make_spec("A2", "smoke"))
        assert not report.passed and not report.notes
        assert len(report.failures) == report.instances == 64
        first = report.failures[0]
        assert first.args == "sign=+1 roots=(0,1) r=0 s=0 a=1 b=1"
        assert first.lhs == "1"
        assert first.rhs == expectation
        assert first.diff == finding


class TestCheckTable:
    def test_every_kind_has_a_row_and_every_row_is_reached(self):
        for name in check_names():
            check = CHECKS[name]
            yielded = set()
            for profile in PROFILES:
                spec = make_spec(name, profile=profile)
                yielded |= {args[0] for args in check.instances(spec)}
            assert yielded == set(check.kinds), name

    # (check, profile, seed): (instances, sha256 of their reprs, one a line,
    # first 16 hex digits), pinned from the nested-loop generators that the
    # grid rows replaced, with the fields of "expanded" and "ad" in the
    # rows' order
    STREAMS = {
    ('straightening', 'smoke', 0): (14, '482fea2728031b42'),
    ('straightening', 'smoke', 3): (14, '40c9005869b8ccc1'),
    ('straightening', 'desk', 0): (300, '210dae6f70ee275b'),
    ('straightening', 'desk', 3): (300, '7ff85f2841d051f0'),
    ('D-consistency', 'smoke', 0): (105, 'da3f972a01e56e34'),
    ('D-consistency', 'smoke', 3): (105, 'da3f972a01e56e34'),
    ('D-consistency', 'desk', 0): (3240, '673a99324555e201'),
    ('D-consistency', 'desk', 3): (3240, '673a99324555e201'),
    ('p-properties', 'smoke', 0): (27, 'e8d9957d8cc1d61a'),
    ('p-properties', 'smoke', 3): (27, 'e8d9957d8cc1d61a'),
    ('p-properties', 'desk', 0): (96, '8b83779af34a4417'),
    ('p-properties', 'desk', 3): (96, '8b83779af34a4417'),
    ('commutation', 'smoke', 0): (78, 'c9fa7c5333868de6'),
    ('commutation', 'smoke', 3): (78, 'c9fa7c5333868de6'),
    ('commutation', 'desk', 0): (1584, '97008c4549be050c'),
    ('commutation', 'desk', 3): (1584, '97008c4549be050c'),
    ('D-identities', 'smoke', 0): (131, 'c1060b76981a3cb5'),
    ('D-identities', 'smoke', 3): (131, 'c1060b76981a3cb5'),
    ('D-identities', 'desk', 0): (794, 'feaec1aa202fc95f'),
    ('D-identities', 'desk', 3): (794, 'feaec1aa202fc95f'),
    ('integrality', 'smoke', 0): (274, 'c5dc58cddaccb3dc'),
    ('integrality', 'smoke', 3): (274, 'c5dc58cddaccb3dc'),
    ('integrality', 'desk', 0): (5892, '5909f038a80753fb'),
    ('integrality', 'desk', 3): (5892, '5909f038a80753fb'),
    ('A2', 'smoke', 0): (64, 'd6dda810a0517275'),
    ('A2', 'smoke', 3): (64, 'd6dda810a0517275'),
    ('A2', 'desk', 0): (256, 'ccb3472ede3112f2'),
    ('A2', 'desk', 3): (256, 'ccb3472ede3112f2'),
    ('divided-powers', 'smoke', 0): (90, 'fd70fb94b6761bf6'),
    ('divided-powers', 'smoke', 3): (90, 'fd70fb94b6761bf6'),
    ('divided-powers', 'desk', 0): (270, 'c1f40ff5cdc47b8e'),
    ('divided-powers', 'desk', 3): (270, 'c1f40ff5cdc47b8e'),
    ('self-consistency', 'smoke', 0): (62, '4157188926f6cc24'),
    ('self-consistency', 'smoke', 3): (62, '5c59830bcbbabb9a'),
    ('self-consistency', 'desk', 0): (2054, '7b54a01a6754a447'),
    ('self-consistency', 'desk', 3): (2054, 'fec433ae3d0c46eb'),
    }

    @pytest.mark.parametrize("key", list(STREAMS), ids=lambda key: "%s-%s-%d" % key)
    def test_instance_stream_is_pinned(self, key):
        """Every instance, its kind, fields and place in the stream: a row
        that drops, repeats or reorders an instance changes the digest."""
        name, profile, seed = key
        digest = hashlib.sha256()
        count = 0
        for args in CHECKS[name].instances(make_spec(name, profile, seed)):
            digest.update(repr(args).encode() + b"\n")
            count += 1
        assert (count, digest.hexdigest()[:16]) == self.STREAMS[key]


class TestDegreeRowsFire:
    """Negative controls for the degree rows: one monomial of the wrong
    degree added to a memoised block, in the table of its memoised body,
    must make its row report a failure."""

    H = Element.generator(SL2, SL2.cartan_index(0), U)

    def _fires(self, check, kind, fields, table, key, extra):
        evaluate = CHECKS[check].kinds[kind]
        assert evaluate(*fields) is None
        table[key] = table[key] + extra
        try:
            assert isinstance(evaluate(*fields), CheckFailure)
        finally:
            clear_caches()
        assert evaluate(*fields) is None

    def test_graded_part_is_canonical(self):
        # over the denominator 4 the kept numerator is 2: equal in value
        # to h/2, and it must be equal in storage too
        elem = Fraction(1, 2) * self.H + Fraction(1, 4) * self.H * self.H
        assert _graded_part(elem, 1, 1) == Fraction(1, 2) * self.H
        assert _graded_part(elem, 2) == Fraction(1, 4) * self.H * self.H
        assert _graded_part(elem, 3).is_zero()

    def test_homogeneous(self):
        fields = (1, chi(T), chi(U), ms((U, 1), (T, 1)))
        self._fires("D-consistency", "homogeneous", fields, forms._root_block.table, fields, self.H)

    def test_dressed_degree(self):
        fields = (chi(U, 2), chi(T, 2), chi(T))
        self._fires(
            "D-consistency", "dressed-degree", fields, forms._dressed_block.table, fields, self.H**4
        )

    def test_leading(self):
        key = (chi(T, 2), chi(U, 2))
        self._fires("p-properties", "leading", (chi(T, 2),), forms._cartan_pair.table, key, self.H**3)


class TestDeskSubfamilies:
    def test_block_homogeneity_instance(self):
        elem = root_block(1, chi(T), chi(U), ms((U, 1), (T, 1)))
        for mono in elem.terms:
            assert sum(e for _, e in mono) == 2

    def test_dressed_degree_instance(self):
        elem = dressed_block(chi(U, 2), chi(T, 2), chi(T))
        deg = elem.degree()
        assert deg is not None and deg <= 3

    def test_integrality_of_pair_reduction(self, reconstructs):
        from mapalg.forms import reduce_to_basis

        elem = cartan_pair(chi(T, 2), chi(U, 2))
        result = reduce_to_basis(elem)
        assert result.integral
        reconstructs(result, elem)


def _plain_fold(factors):
    """The product of ``factors`` from the left, one ``Element.__mul__`` at
    a time from one: the oracle of the word tables."""
    elem = Element.one(SL2)
    for factor in factors:
        elem = elem * factor
    return elem


def _divided_letter(sign, b, r):
    return divided_power(SL2, Gen(SL2.root_index(sign, 0), b), r)


def _generator_letter(gen):
    return Element.generator(SL2, gen.index, gen.label)


def _instances(name, profile, kind):
    return [args[1:] for args in CHECKS[name].instances(make_spec(name, profile)) if args[0] == kind]


class TestWordTables:
    """The word kinds read each prefix from a table that lives for one
    check; every value must be the plain left fold of its word."""

    @pytest.mark.parametrize("profile, words, prefixes", [("smoke", 72, 9), ("desk", 1884, 157)])
    def test_divided_power_words(self, profile, words, prefixes):
        clear_caches()
        combos = [combo for (combo,) in _instances("integrality", profile, "product")]
        assert len(combos) == words
        for combo in combos:
            assert identities._divided_product(combo) == _plain_fold(
                _divided_letter(*letter) for letter in combo
            )
        table = identities._divided_prefix.table
        assert len(table) == prefixes
        for (combo,), value in table.items():
            assert value == _plain_fold(_divided_letter(*letter) for letter in combo)

    @pytest.mark.parametrize("profile", ["smoke", "desk"])
    def test_generator_words_and_triples(self, profile):
        clear_caches()
        for n, *specs in _instances("self-consistency", profile, "assoc"):
            for spec in specs:
                want = Element.zero(SL2)
                for coeff, word in spec:
                    want = want + coeff * _plain_fold(map(_generator_letter, word))
                assert identities._build_from_spec(spec) == want, n
        for (word,) in _instances("self-consistency", profile, "word"):
            assert identities._word_product(word) == _plain_fold(map(_generator_letter, word))
        table = identities._word_prefix.table
        assert len(table) > 1
        for (word,), value in table.items():
            assert value == _plain_fold(map(_generator_letter, word))


class TestTableLifetimes:
    """A check table of the memo registry lives for one check, a process
    table for the process; ``clear_caches`` empties both."""

    def test_which_tables_live_for_one_check(self):
        check = [
            pbw._concats,
            SL2._products,
            make_preset("sl3")._products,
            identities._divided_prefix.table,
            identities._word_prefix.table,
        ]
        process = [forms._root_block.table, SL2._steps, make_preset("sl3")._steps]
        assert all(any(t is c for c in memo._check_tables) for t in check)
        assert not any(any(t is c for c in memo._check_tables) for t in process)
        assert all(any(t is r for r in memo._tables) for t in check + process)

    def test_check_tables_are_empty_when_each_check_starts(self, monkeypatch):
        started = []
        for name, check in CHECKS.items():

            def instances(spec, _real=check.instances):
                started.append(spec.name)
                assert not any(memo._check_tables), spec.name
                yield from _real(spec)

            monkeypatch.setitem(CHECKS, name, check._replace(instances=instances))
        run_suite(["all"], "smoke")
        assert started == check_names()
        assert any(memo._check_tables)
        clear_caches()
        assert not any(memo._check_tables) and not any(memo._tables)

    def test_process_tables_survive_run_check(self):
        clear_caches()
        run_suite(["integrality"], "smoke")
        sl3 = make_preset("sl3")
        reduce_to_basis(Element.generator(sl3, 7, T) * Element.generator(sl3, 0, T))
        kept = [forms._root_block.table, SL2._steps, sl3._steps]
        before = [dict(table) for table in kept]
        assert all(before)
        run_suite(["divided-powers", "self-consistency"], "smoke")
        assert all(b.items() <= table.items() for b, table in zip(before, kept))


def _join_plus_one(m1, m2):
    """``pbw._join`` with the census mutant: a boundary run merged as
    ``e + f + 1``."""
    if m1 and m2 and m1[-1][0] == m2[0][0]:
        (x, e), (_, f) = m1[-1], m2[0]
        return Mono(m1[:-1] + ((x, e + f + 1),) + m2[1:])
    return Mono(m1 + m2)


@pytest.fixture
def join_mutant(monkeypatch):
    """``pbw._join`` patched to :func:`_join_plus_one` on emptied tables;
    the patch is undone and the tables emptied again at the end."""
    monkeypatch.setattr(pbw, "_join", _join_plus_one)
    clear_caches()
    yield
    monkeypatch.undo()
    clear_caches()


def test_word_tables_hide_no_failure(join_mutant):
    """The word checks fail the mutant as often as the plain folds did."""
    reports = run_suite(["self-consistency", "integrality", "divided-powers"], "smoke")
    got = {r.name: (len(r.failures), r.instances) for r in reports}
    assert got == {
        "self-consistency": (11, 62),
        "integrality": (24, 274),
        "divided-powers": (36, 90),
    }
