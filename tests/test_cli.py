import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

import mapalg
from mapalg import forms, memo
from mapalg.cli import main, parse_multiset
from mapalg.combinatorics import ALabel, Multiset
from mapalg.identities import check_names
from mapalg.pbw import Element, LiePreset, make_preset


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def _process_env():
    src = os.path.dirname(os.path.dirname(mapalg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # keep standard output block-buffered, as it is by default, so that a
    # child which ends without flushing it loses its output
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_process(*argv, stdout=subprocess.PIPE):
    """Run ``python -m mapalg.cli argv`` as its own process, through
    ``entry``, the path of the ``mapalg`` console script."""
    return subprocess.run(
        [sys.executable, "-m", "mapalg.cli", *argv],
        env=_process_env(),
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


class TestMultisetSyntax:
    def test_empty(self):
        assert parse_multiset("{}", 1, False) == Multiset()

    def test_single_entry(self):
        got = parse_multiset("{[0]:1}", 1, False)
        assert got == Multiset.single(ALabel([0]))

    def test_multi_entry_with_spaces(self):
        got = parse_multiset("{ [1,0]:2 , [0,0]:1 }", 2, False)
        assert got == Multiset(((ALabel([1, 0]), 2), (ALabel([0, 0]), 1)))

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            parse_multiset("{[1,2]:1}", 1, False)

    def test_polynomial_mode_rejects_negative(self):
        with pytest.raises(ValueError):
            parse_multiset("{[-1]:1}", 1, False)
        assert parse_multiset("{[-1]:1}", 1, True) == Multiset.single(ALabel([-1]))

    def test_error_carries_position(self):
        with pytest.raises(ValueError) as err:
            parse_multiset("{[0:1}", 1, False)
        assert "position" in str(err.value)

    def test_zero_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            parse_multiset("{[0]:0}", 1, False)

    def test_surrounding_blanks(self):
        assert parse_multiset(" \t{[1]:2} \n", 1, False) is Multiset.single(ALabel([1]), 2)
        with pytest.raises(ValueError, match="position 3: expected '{'"):
            parse_multiset("   ", 1, False)


class TestEval:
    def test_p_single(self):
        code, out = run_cli("eval", "p", "--chi", "{[0]:1}")
        assert code == 0
        assert out.splitlines()[-1] == "-1 (h_1⊗1)"

    def test_divided_power(self):
        code, out = run_cli(
            "eval", "D", "--sign", "+", "--psi1", "{}", "--psi2", "{}", "--psi3", "{[1]:2}"
        )
        assert code == 0
        assert out.splitlines()[-1] == "(1/2) (x+_a1⊗t)^2"

    def test_p_size_mismatch_gives_zero(self):
        code, out = run_cli("eval", "p", "--phi", "{[1]:1}", "--chi", "{}")
        assert code == 0
        assert out.splitlines()[-1] == "0"

    def test_bbd(self):
        code, out = run_cli(
            "eval", "bbD", "--psi1", "{[0]:1}", "--psi2", "{[0]:1}", "--psi3", "{}"
        )
        assert code == 0
        assert out.splitlines()[-1] == "-1 (h_1⊗1)"

    def test_xpow_on_sl3(self):
        code, out = run_cli(
            "eval", "xpow", "--algebra", "sl3", "--sign", "-", "--alpha", "2",
            "--psi", "{[1]:1}",
        )
        assert code == 0
        assert out.splitlines()[-1] == "1 (x-_a12⊗t)"

    def test_p_into_sl3_needs_alpha(self):
        code, _ = run_cli("eval", "p", "--algebra", "sl3", "--chi", "{[0]:1}")
        assert code == 2
        code, out = run_cli(
            "eval", "p", "--algebra", "sl3", "--alpha", "2", "--chi", "{[0]:1}"
        )
        assert code == 0
        assert out.splitlines()[-1] == "-1 (h_1⊗1) - 1 (h_2⊗1)"

    def test_alpha_over_sl2(self, capsys):
        code, plain = run_cli("eval", "D", "--psi1", "{[0]:1}", "--psi2", "{[1]:1}", "--psi3", "{}")
        assert code == 0
        code, pushed = run_cli(
            "eval", "D", "--psi1", "{[0]:1}", "--psi2", "{[1]:1}", "--psi3", "{}", "--alpha", "0"
        )
        assert code == 0 and pushed == plain
        code, out = run_cli("eval", "p", "--chi", "{[0]:1}", "--alpha", "7")
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert "invalid root index 7 for sl2" in err and err.count("\n") == 1

    def test_missing_argument(self):
        code, _ = run_cli("eval", "p")
        assert code == 2

    def test_parse_error_is_exit_2(self):
        code, _ = run_cli("eval", "p", "--chi", "{[0:1}")
        assert code == 2

    @pytest.mark.parametrize(
        "chi, at",
        [
            ("{[1_0]:1}", 2),
            ("{[+1]:1}", 2),
            ("{[0, 1.5]:1}", 5),
            ("{[1]:1-2}", 6),
            ("{[1]:\u0663}", 5),
            ("{[\u0661]:1}", 2),
            ("{[1]:-1}", 5),
        ],
        ids=["underscore", "plus", "float", "dash", "arabic-indic-mult", "arabic-indic-exp", "negative-mult"],
    )
    def test_only_ascii_integers_are_read(self, capsys, chi, at):
        """Exponents are ``-?[0-9]+`` and multiplicities ``[0-9]+``; any
        other spelling that ``int()`` would take is refused at its position."""
        code, out = run_cli("eval", "p", "--mode", "laurent", "--chi", chi)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at position %d:" % at in err

    def test_position_counts_leading_blanks(self, capsys):
        """The position indexes the quoted text, blanks and all."""
        code, out = run_cli("eval", "p", "--chi", "   {[x]:1}")
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "at position 5:" in err and "'   {[x]:1}'" in err

    def test_config_echo_in_text(self):
        code, out = run_cli("eval", "p", "--chi", "{}")
        assert out.startswith("# algebra=sl2 variables=1 mode=polynomial")

    def test_json_carries_config(self):
        code, out = run_cli("eval", "p", "--chi", "{[0]:1}", "--format", "json")
        doc = json.loads(out)
        assert doc["config"]["algebra"] == "sl2"
        assert doc["element"]

    @pytest.mark.parametrize(
        "argv, option",
        [
            (("p", "--chi", "{[0]:1}", "--sign", "-"), "sign"),
            (("D", "--psi1", "{[0]:1}", "--psi2", "{[0]:1}", "--psi3", "{}", "--phi", "{[0]:1}"), "phi"),
            (("bbD", "--psi1", "{}", "--psi2", "{}", "--psi3", "{}", "--sign", "+"), "sign"),
            (("xpow", "--psi", "{[1]:1}", "--chi", "{[0]:1}"), "chi"),
        ],
        ids=["p", "D", "bbD", "xpow"],
    )
    def test_option_the_object_does_not_read_is_exit_2(self, capsys, argv, option):
        code, out = run_cli("eval", *argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err == "error: eval %s does not read --%s\n" % (argv[0], option)


class TestReduce:
    def test_round_trip_from_eval(self, tmp_path):
        code, out = run_cli(
            "eval", "D", "--sign", "+", "--psi1", "{}", "--psi2", "{}",
            "--psi3", "{[0]:1,[1]:1}", "--format", "json",
        )
        assert code == 0
        path = tmp_path / "elem.json"
        path.write_text(out, encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 0
        assert "integral: true" in out

    def test_unsorted_product_input(self, tmp_path):
        data = [{"monomial": [[2, [0], 1], [0, [0], 1]], "coeff": ["1", "1"]}]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 0
        assert "integral: true" in out
        assert len([l for l in out.splitlines() if l.startswith("# ") is False and "*" in l]) == 2

    def test_half_h_not_integral(self, tmp_path):
        data = [{"monomial": [[1, [0], 1]], "coeff": ["1", "2"]}]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 0
        assert "integral: false" in out

    def test_empty_element(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text("[]", encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 0
        assert "integral: true" in out

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        code, _ = run_cli("reduce", str(path))
        assert code == 2

    def test_missing_file(self):
        code, _ = run_cli("reduce", "/nonexistent/e.json")
        assert code == 2

    def test_broken_basis_premise_is_exit_2(self, tmp_path, capsys, corrupted_basis):
        sl2 = make_preset("sl2")
        t, one = ALabel([1]), ALabel([0])
        idx = forms.BasisIndex((Multiset.single(t),), (Multiset(),), (Multiset.single(one),))
        good = forms.basis_element(sl2, idx)
        extra = Element.generator(sl2, 0, one) * Element.generator(sl2, 2, one)
        path = tmp_path / "e.json"
        path.write_text(json.dumps([{"monomial": [[0, [1], 1], [2, [0], 1]], "coeff": ["1", "1"]}]))
        with corrupted_basis(idx, good + extra):
            code, out = run_cli("reduce", str(path))
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and idx.render() in err

    def test_zero_denominator_is_exit_2(self, tmp_path, capsys):
        data = [{"monomial": [[1, [0], 1]], "coeff": ["1", "0"]}]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, _ = run_cli("reduce", str(path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_exponent_in_polynomial_mode_is_exit_2(self, tmp_path, capsys):
        data = [{"monomial": [[1, [-1], 1]], "coeff": ["1", "1"]}]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and "integral" not in out
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        code, out = run_cli("reduce", str(path), "--mode", "laurent")
        assert code == 0 and "integral: true" in out

    def test_label_length_must_match_variables(self, tmp_path, capsys):
        data = [{"monomial": [[1, [1, 2], 1]], "coeff": ["1", "1"]}]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and "integral" not in out
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        code, out = run_cli("reduce", str(path), "--variables", "2")
        assert code == 0 and "integral: true" in out

    def test_foreign_top_level_key_is_exit_2(self, tmp_path, capsys):
        """The wrapper holds ``config`` and ``element`` only; another key is
        refused, not ignored."""
        path = tmp_path / "e.json"
        path.write_text(json.dumps({"element": [], "x": 1}), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and '"x"' in err

    @pytest.mark.parametrize(
        "written, session, mismatch",
        [
            (("--algebra", "sl3", "--alpha", "1"), (), 'algebra="sl3"'),
            (("--variables", "2"), (), "variables=2"),
            (("--mode", "laurent"), (), 'mode="laurent"'),
            ((), ("--algebra", "sl3"), 'algebra="sl2"'),
        ],
        ids=["sl3-file", "two-variables", "laurent-file", "sl2-file-sl3-session"],
    )
    def test_config_of_another_session_is_exit_2(
        self, tmp_path, capsys, written, session, mismatch
    ):
        """A file written by ``eval --format json`` under another algebra,
        variable count or mode is refused, not read in this session; under
        the same options it reduces."""
        chi = "{[0,1]:1}" if "--variables" in written else "{[1]:1}"
        code, out = run_cli("eval", "p", "--chi", chi, *written, "--format", "json")
        assert code == 0
        path = tmp_path / "e.json"
        path.write_text(out, encoding="utf-8")
        capsys.readouterr()
        code, out = run_cli("reduce", str(path), *session)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and mismatch in err
        same = [arg for arg in written if arg not in ("--alpha", "1")]
        code, out = run_cli("reduce", str(path), *same)
        assert code == 0 and "integral: true" in out

    @pytest.mark.parametrize(
        "monomial, coeff",
        [
            ([[True, [1], 1]], ["1", "1"]),
            ([[1, [1], True]], ["1", "1"]),
            ([[1, [True], 1]], ["1", "1"]),
            ([[1, [1], 1]], [True, "1"]),
            ([[1.0, [1], 1]], ["1", "1"]),
            ([[1, [1], 1.0]], ["1", "1"]),
            ([[1, [1.0], 1]], ["1", "1"]),
            ([[1, [1], 1]], [1.5, 1]),
            ([[1, [1], 1]], [3, 2.7]),
        ],
        ids=[
            "index", "exponent", "label", "coeff",
            "float-index", "float-exponent", "float-label", "float-numerator",
            "float-denominator",
        ],
    )
    def test_non_integer_number_is_exit_2(self, tmp_path, capsys, monomial, coeff):
        """Booleans and floats are JSON numbers but not integers: each is
        refused instead of truncated."""
        path = tmp_path / "e.json"
        path.write_text(json.dumps([{"monomial": monomial, "coeff": coeff}]), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and "integral" not in out
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "monomial", [[None], [[2, [0]]], 5], ids=["null-entry", "two-fields", "number"]
    )
    def test_malformed_monomial_is_exit_2(self, tmp_path, capsys, monomial):
        """A monomial is a list of ``[index, label, exponent]`` entries, and
        the error says so in its own words."""
        path = tmp_path / "e.json"
        path.write_text(json.dumps([{"monomial": monomial, "coeff": ["1", "1"]}]), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err == (
            "error: malformed element: monomial must be a list of"
            " [index, label, exponent] entries\n"
        )

    @pytest.mark.parametrize(
        "coeff",
        [{"3": 0, "2": 1}, "12", ["1"], ["1", "2", "3"]],
        ids=["object", "string", "one-entry", "three-entries"],
    )
    def test_coefficient_must_be_a_pair_array(self, tmp_path, capsys, coeff):
        """Only a JSON array of length 2 is a coefficient: an object or a
        string of two characters would otherwise unpack as one."""
        path = tmp_path / "e.json"
        data = [{"monomial": [[1, [1], 1]], "coeff": coeff}]
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and "integral" not in out
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "coeff",
        [["1_0", "3"], ["+1", "1"], [" 3 ", "1"], ["1", "\u0663"], ["\u0661", "1"], ["", "1"]],
        ids=["underscore", "plus", "padded", "arabic-indic-den", "arabic-indic-num", "empty"],
    )
    def test_coefficient_strings_are_ascii_integers(self, tmp_path, capsys, coeff):
        """A string entry is read as ``-?[0-9]+``, as label exponents are:
        ``int()`` would also take each of these."""
        path = tmp_path / "e.json"
        data = [{"monomial": [[1, [1], 1]], "coeff": coeff}]
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_string_coefficient(self, tmp_path):
        path = tmp_path / "e.json"
        data = [{"monomial": [[1, [0], 1]], "coeff": ["-4", "2"]}]
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["integral"] is True

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficient_beyond_the_digit_limit_prints(self, tmp_path, fmt):
        """x-(t)^1600 is 1600! times one basis element, a coefficient of 4,412
        digits, more than Python converts to a string by default; the
        process lifts that limit and prints it in full."""
        path = tmp_path / "e.json"
        path.write_text(json.dumps([{"monomial": [[0, [1], 1600]], "coeff": ["1", "1"]}]))
        done = run_process("reduce", str(path), "--format", fmt)
        assert done.returncode == 0, done.stderr
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        try:
            if limit:
                sys.set_int_max_str_digits(0)
            coeff = str(math.factorial(1600))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
        assert len(coeff) > 4300
        if fmt == "json":
            assert [c for _, c in json.loads(done.stdout)["terms"]] == [coeff]
        else:
            assert done.stdout.splitlines()[1].startswith(coeff + " * (")

    def test_json_output_schema(self, tmp_path):
        data = [{"monomial": [[0, [0], 1]], "coeff": ["1", "1"]}]
        path = tmp_path / "e.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_cli("reduce", str(path), "--format", "json")
        doc = json.loads(out)
        assert doc["integral"] is True
        assert doc["terms"][0][1] == "1"


class TestCheck:
    def test_smoke_pass(self):
        code, out = run_cli("check", "straightening", "--profile", "smoke")
        assert code == 0
        assert "check straightening: PASS" in out

    def test_a2_on_sl2_is_config_error(self):
        code, _ = run_cli("check", "A2", "--algebra", "sl2")
        assert code == 2

    @pytest.mark.parametrize("algebra", ["sl2", "sl3"])
    @pytest.mark.parametrize("name", check_names() + ["all"])
    def test_algebra_is_refused(self, capsys, name, algebra):
        code, out = run_cli("check", name, "--profile", "smoke", "--algebra", algebra)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "--algebra" in err and err.count("\n") == 1

    def test_unknown_suite(self):
        code, _ = run_cli("check", "bogus", "--profile", "smoke")
        assert code == 2

    def test_repeated_check_is_exit_2(self, capsys):
        code, out = run_cli("check", "straightening", "straightening", "--profile", "smoke")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "more than once" in err and err.count("\n") == 1

    def test_all_with_other_names_is_exit_2(self, capsys):
        code, out = run_cli("check", "all", "straightening", "--profile", "smoke")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "'all'" in err and err.count("\n") == 1

    def test_all_json(self):
        code, out = run_cli("check", "all", "--profile", "smoke", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["profile"] == "smoke"
        names = [r["name"] for r in doc["reports"]]
        assert "straightening" in names and "A2" in names
        assert all(r["pass"] for r in doc["reports"])

    def test_override(self):
        code, out = run_cli(
            "check", "straightening", "--profile", "smoke", "--override", "rand_count=1"
        )
        assert code == 0

    def test_unknown_override_key_is_exit_2(self, capsys):
        code, out = run_cli(
            "check", "straightening", "--profile", "smoke", "--override", "exh_szie=5"
        )
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "exh_szie" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            ["divided-powers", "--override", "max_total=-1"],
            ["straightening", "--override", "exh_size=-1", "--override", "rand_count=-3"],
        ],
    )
    def test_negative_override_is_exit_2(self, capsys, overrides):
        code, out = run_cli("check", "--profile", "smoke", *overrides)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "straightening", "--profile", "smoke", "--seed", "-3"],
            ["basis", "--max-degree", "0", "--seed", "-1"],
        ],
        ids=["check", "basis"],
    )
    def test_negative_seed_is_exit_2(self, capsys, argv):
        code, out = run_cli(*argv)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err == "error: --seed must be >= 0\n"

    def test_empty_family_is_exit_2(self, capsys):
        code, out = run_cli(
            "check", "self-consistency", "--profile", "smoke",
            "--override", "assoc_count=0", "--override", "word_len=0",
        )
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "no instances" in err and err.count("\n") == 1

    def test_override_no_selected_check_has_is_exit_2(self, capsys):
        code, _ = run_cli(
            "check", "straightening", "--profile", "smoke", "--override", "max_total=3"
        )
        assert code == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_jobs_echoes_requested_value(self):
        code, out = run_cli(
            "check", "divided-powers", "--profile", "smoke", "--jobs", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["config"]["jobs"] == 1

    @pytest.mark.parametrize("jobs", ["0", "2"])
    def test_jobs_other_than_one_is_exit_2(self, capsys, jobs):
        code, out = run_cli("check", "divided-powers", "--profile", "smoke", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags",
        [["--variables", "2"], ["--mode", "laurent"], ["--variables", "3", "--mode", "laurent"]],
    )
    def test_label_session_other_than_check_labels_is_exit_2(self, capsys, flags):
        code, out = run_cli("check", "straightening", "--profile", "smoke", *flags)
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--variables must be 1" in err

    def test_default_label_session_is_echoed(self):
        code, out = run_cli(
            "check", "divided-powers", "--profile", "smoke", "--format", "json",
            "--variables", "1", "--mode", "polynomial",
        )
        assert code == 0
        config = json.loads(out)["config"]
        assert config["variables"] == 1 and config["mode"] == "polynomial"

    def test_import_loads_no_process_pool(self):
        code = (
            "import sys, mapalg.cli; "
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_process_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_import_loads_no_dataclasses(self):
        # Modules the interpreter's own start-up (site, .pth files) loaded
        # already are not charged to mapalg.
        code = (
            "import sys; bare = set(sys.modules); import mapalg.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules and m not in bare))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=_process_env(), capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_bad_override(self):
        code, _ = run_cli("check", "straightening", "--override", "rand_count=x")
        assert code == 2

    def test_repeated_override_key_is_exit_2(self, capsys):
        code, out = run_cli(
            "check", "straightening", "--profile", "smoke",
            "--override", "exh_size=1", "--override", "exh_size=0",
        )
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: override exh_size is given more than once\n"


@pytest.fixture
def flipped_bracket(monkeypatch):
    """``with flipped_bracket():`` runs its body with every structure
    constant of the rewrite negated (``LiePreset.bracket_pairs``) and the
    memo tables emptied; the patch is undone and the tables are emptied
    again when it ends."""

    @contextlib.contextmanager
    def flip():
        real = LiePreset.bracket_pairs
        try:
            with monkeypatch.context() as patch:
                patch.setattr(
                    LiePreset,
                    "bracket_pairs",
                    lambda self, i, j: tuple((k, -c) for k, c in real(self, i, j)),
                )
                memo.clear_caches()
                yield
        finally:
            memo.clear_caches()

    return flip


class TestFailurePath:
    """A broken engine makes a check fail: exit 1, with the first
    counterexample in both report formats."""

    ARGV = ("check", "straightening", "--profile", "smoke")

    def test_flipped_bracket_fails_straightening(self, flipped_bracket):
        # an unpatched run first, so that the verdict table is full whatever
        # ran before: the flip must not be answered from stale verdicts
        code, out = run_cli(*self.ARGV, "--format", "json")
        assert code == 0
        with flipped_bracket():
            code, out = run_cli(*self.ARGV, "--format", "json")
            text_code, text = run_cli(*self.ARGV, "--format", "text")
        assert code == text_code == 1
        (report,) = json.loads(out)["reports"]
        assert report["pass"] is False
        assert report["instances"] == 14 and len(report["failures"]) == 9
        first = report["failures"][0]
        assert first["args"] == "phi={1:1} chi={1:1}"
        assert first["lhs"] == "1 (x-_a1⊗1) (x+_a1⊗1) - 1 (h_1⊗1)"
        assert first["rhs"] == "1 (x-_a1⊗1) (x+_a1⊗1) + 1 (h_1⊗1)"
        assert first["diff"] == "-2 (h_1⊗1)"
        lines = text.splitlines()
        at = lines.index("  first counterexample: phi={1:1} chi={1:1}")
        assert lines[at + 1 : at + 4] == [
            "    lhs:  " + first["lhs"],
            "    rhs:  " + first["rhs"],
            "    diff: " + first["diff"],
        ]
        assert lines[1].startswith("check straightening: FAIL  instances=14 ")
        assert lines[-1] == "summary: 0/1 passed"
        # the patch is gone and the tables were emptied: the check passes again
        code, out = run_cli(*self.ARGV, "--format", "json")
        assert code == 0
        assert json.loads(out)["reports"][0]["failures"] == []


class TestCheckEnvDefault:
    def test_profile_ignores_environment(self, monkeypatch):
        """The profile is chosen by ``--profile`` alone; without it the
        check runs at desk, whatever the environment holds."""
        monkeypatch.setenv("MAPALG_PROFILE", "smoke")
        code, out = run_cli("check", "divided-powers", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["profile"] == "desk"

    def test_report_json_schema_via_cli(self):
        code, out = run_cli("check", "divided-powers", "--profile", "smoke", "--format", "json")
        doc = json.loads(out)
        (report,) = doc["reports"]
        assert set(report) == {"name", "instances", "pass", "failures", "elapsedMs", "seed"}


class TestBasis:
    def test_degree_zero(self):
        code, out = run_cli("basis", "--max-degree", "0")
        assert code == 0
        assert "count: 1" in out

    def test_seven_elements(self):
        code, out = run_cli("basis", "--max-degree", "1", "--max-label-degree", "1")
        assert code == 0
        assert "count: 7" in out

    def test_byte_identical_runs(self):
        _, out1 = run_cli("basis", "--max-degree", "2", "--max-label-degree", "1")
        _, out2 = run_cli("basis", "--max-degree", "2", "--max-label-degree", "1")
        assert out1 == out2

    def test_json(self):
        code, out = run_cli("basis", "--max-degree", "1", "--format", "json")
        doc = json.loads(out)
        assert doc["count"] == len(doc["basis"])

    def test_laurent_mode_is_exit_2(self, capsys):
        code, out = run_cli("basis", "--max-degree", "1", "--mode", "laurent")
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Laurent" in err


class TestIntegerOptions:
    """Every integer option and override value is read as ``-?[0-9]+``:
    ``int`` would take each of the refused values, and read it as 10, 1 or
    3."""

    ARGV = {
        "--seed": ["basis", "--max-degree", "0", "--seed", "%s"],
        "--variables": ["basis", "--max-degree", "0", "--variables", "%s"],
        "--jobs": ["basis", "--max-degree", "0", "--jobs", "%s"],
        "--alpha": ["eval", "xpow", "--algebra", "sl3", "--psi", "{}", "--alpha", "%s"],
        "--max-degree": ["basis", "--max-degree", "%s"],
        "--max-label-degree": ["basis", "--max-degree", "0", "--max-label-degree", "%s"],
        "--override": ["check", "divided-powers", "--profile", "smoke", "--override", "max_total=%s"],
    }

    def argv(self, option, value):
        return [arg.replace("%s", value) for arg in self.ARGV[option]]

    @pytest.mark.parametrize("option", list(ARGV))
    @pytest.mark.parametrize(
        "value",
        ["1_0", "+1", "\u0661", "\u0663", "\uff11"],
        ids=["underscore", "plus", "arabic-indic-1", "arabic-indic-3", "fullwidth-1"],
    )
    def test_non_ascii_integer_is_exit_2(self, capsys, option, value):
        code, out = run_cli(*self.argv(option, value))
        assert code == 2 and out == ""
        assert value in capsys.readouterr().err

    @pytest.mark.parametrize("option", list(ARGV))
    def test_ascii_integer_is_read(self, option):
        code, out = run_cli(*self.argv(option, "1"))
        assert code == 0 and out


class TestProcessExit:
    """The process path: ``entry`` flushes both streams and ends with
    ``os._exit``, so nothing written may be lost and the exit codes must
    match those of ``main``."""

    BASIS = ("basis", "--max-degree", "3", "--max-label-degree", "2", "--format", "json")

    def test_check_matches_in_process_main(self):
        argv = ("check", "divided-powers", "--profile", "smoke", "--format", "json")
        done = run_process(*argv)
        assert done.returncode == 0, done.stderr
        code, out = run_cli(*argv)
        assert code == 0

        def untimed(text):
            return re.sub(r'"elapsedMs": [0-9.e+-]+', '"elapsedMs": 0', text)

        assert untimed(done.stdout) == untimed(out)

    def test_reports_agree_across_processes(self):
        """Labels, generators and multisets hash by identity, and string
        hashes vary with the hash seed, so two processes hash every value
        differently: a report that iterated a set of them in hash order
        would differ between them."""
        argv = ("check", "all", "--profile", "smoke", "--format", "json")
        reports = []
        for hash_seed in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "mapalg.cli", *argv],
                env=dict(_process_env(), PYTHONHASHSEED=hash_seed),
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert done.returncode == 0, done.stderr
            reports.append(re.sub(r'"elapsedMs": [0-9.e+-]+', '"elapsedMs": 0', done.stdout))
        assert reports[0] == reports[1]

    def test_large_output_arrives_whole(self, tmp_path):
        path = tmp_path / "basis.json"
        with open(path, "w", encoding="utf-8") as fh:
            done = run_process(*self.BASIS, stdout=fh)
        assert done.returncode == 0, done.stderr
        text = path.read_text(encoding="utf-8")
        assert len(text) > 65536  # more than a pipe's buffer
        doc = json.loads(text)
        assert doc["count"] == len(doc["basis"])
        assert text == run_cli(*self.BASIS)[1]

    def test_usage_error_is_exit_2_with_one_line(self):
        done = run_process("check", "straightening", "--jobs", "0")
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")

    def _assert_recursion_refused(self, done):
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
        assert "recursion limit" in done.stderr

    def test_deep_block_is_exit_2_with_one_line(self):
        """A third argument of 700 labels recurses past the stack."""
        done = run_process("eval", "D", "--psi1", "{}", "--psi2", "{}", "--psi3", "{[0]:700}")
        self._assert_recursion_refused(done)

    def test_deep_product_is_exit_2_with_one_line(self, tmp_path):
        """x+(t^k) for k < 1200, then h(1): moving h past 1,200 letters
        recurses past the stack."""
        letters = [[2, [k], 1] for k in range(1200)] + [[1, [1], 1]]
        path = tmp_path / "deep.json"
        path.write_text(json.dumps([{"monomial": letters, "coeff": ["1", "1"]}]))
        self._assert_recursion_refused(run_process("reduce", str(path)))

    def test_closed_stdout_is_exit_141_without_traceback(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "mapalg.cli", *self.BASIS],
            env=_process_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert err == b"", err
