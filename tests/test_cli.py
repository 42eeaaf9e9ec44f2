import io
import json
import os
import re
import subprocess
import sys

import pytest

import mapalg
from mapalg import forms
from mapalg.cli import main, parse_multiset
from mapalg.combinatorics import ALabel, Multiset
from mapalg.pbw import Element, make_preset


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

    def test_missing_argument(self):
        code, _ = run_cli("eval", "p")
        assert code == 2

    def test_parse_error_is_exit_2(self):
        code, _ = run_cli("eval", "p", "--chi", "{[0:1}")
        assert code == 2

    def test_config_echo_in_text(self):
        code, out = run_cli("eval", "p", "--chi", "{}")
        assert out.startswith("# algebra=sl2 variables=1 mode=polynomial")

    def test_json_carries_config(self):
        code, out = run_cli("eval", "p", "--chi", "{[0]:1}", "--format", "json")
        doc = json.loads(out)
        assert doc["config"]["algebra"] == "sl2"
        assert doc["element"]


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

    def test_broken_basis_premise_is_exit_2(self, tmp_path, capsys):
        sl2 = make_preset("sl2")
        t, one = ALabel([1]), ALabel([0])
        idx = forms.BasisIndex((Multiset.single(t),), (Multiset(),), (Multiset.single(one),))
        good = forms.basis_element(sl2, idx)
        extra = Element.generator(sl2, 0, one) * Element.generator(sl2, 2, one)
        path = tmp_path / "e.json"
        path.write_text(json.dumps([{"monomial": [[0, [1], 1], [2, [0], 1]], "coeff": ["1", "1"]}]))
        forms._reduction_step.table.clear()
        forms.basis_element.table[(sl2, idx)] = good + extra
        try:
            code, out = run_cli("reduce", str(path))
        finally:
            forms.clear_caches()
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

    @pytest.mark.parametrize(
        "monomial, coeff",
        [
            ([[True, [1], 1]], ["1", "1"]),
            ([[1, [1], True]], ["1", "1"]),
            ([[1, [True], 1]], ["1", "1"]),
            ([[1, [1], 1]], [True, "1"]),
        ],
        ids=["index", "exponent", "label", "coeff"],
    )
    def test_boolean_is_exit_2(self, tmp_path, capsys, monomial, coeff):
        path = tmp_path / "e.json"
        path.write_text(json.dumps([{"monomial": monomial, "coeff": coeff}]), encoding="utf-8")
        code, out = run_cli("reduce", str(path))
        assert code == 2 and "integral" not in out
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

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


class TestCheckEnvDefault:
    def test_profile_from_environment(self, monkeypatch):
        monkeypatch.setenv("MAPALG_PROFILE", "smoke")
        code, out = run_cli("check", "divided-powers", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["profile"] == "smoke"

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
