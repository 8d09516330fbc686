"""CLI behavior: exit codes, JSON shape, determinism."""

import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from liecp.catalog import data_text
from liecp.cli import build_parser, main
from liecp.index import invariant_symmetric_forms
from liecp.liealg import new_lie_algebra, serialize_algebra
from liecp.parabolic import CompositionA, borel_data_classical, nilradical_A

README = Path(__file__).resolve().parent.parent / "README.md"
ROOT = README.parent


@pytest.fixture
def diamond_file(tmp_path):
    path = tmp_path / "diamond.alg"
    path.write_text(data_text("diamond.alg"))
    return str(path)


@pytest.fixture
def morozov_file(tmp_path):
    path = tmp_path / "morozov6_4.alg"
    path.write_text(data_text("morozov6_4.alg"))
    return str(path)


@pytest.fixture
def h3_file(tmp_path):
    path = tmp_path / "h3.alg"
    path.write_text(data_text("h3.alg"))
    return str(path)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def run_json(argv):
    code, out = run(argv + ["--json"])
    return code, json.loads(out)


class TestBasicCommands:
    def test_index(self, diamond_file):
        code, payload = run_json(["index", diamond_file])
        assert code == 0 and payload["index"] == 2 and payload["certified"]
        assert payload["schema"] == "liecp/1"

    def test_index_with_rational_structure_constants(self, tmp_path):
        # the A4 Borel in the basis y_i = q_i x_i: the file has non-integer constants
        L = borel_data_classical("A", 4)[1]
        q = [F(2, 3), F(-5, 7), F(3)] * 5
        sc = {(i, j): {k: q[i] * q[j] * c / q[k] for k, c in t.items()} for (i, j), t in L.sc.items()}
        path = tmp_path / "borel_A4_rescaled.alg"
        path.write_text(serialize_algebra(new_lie_algebra(L.dim, L.labels, sc)))
        assert "/" in path.read_text()
        code, payload = run_json(["index", str(path)])
        assert code == 0 and (payload["index"], payload["certified"]) == (2, True)

    def test_center(self, diamond_file):
        code, payload = run_json(["center", diamond_file])
        assert code == 0 and payload["center_dim"] == 1 and payload["basis"] == ["z"]

    def test_fsr(self, diamond_file):
        # fsr samples to convergence: the certificate's early stop does not reach it
        code, payload = run_json(["fsr", diamond_file])
        assert code == 0 and payload["fsr_dim"] == 4 and payload["converged"]
        assert payload["samples_used"] == 6

    def test_invariant_form(self, diamond_file, h3_file):
        assert run_json(["invariant-form", diamond_file])[0] == 0
        assert run_json(["invariant-form", h3_file])[0] == 1

    def test_invariant_form_on_the_dim_45_type_a_nilradical(self, tmp_path):
        # the invariance system here is 10260 rows in 1035 unknowns, almost all zero
        L, _ = nilradical_A(CompositionA((1,) * 10))
        assert L.dim == 45 and invariant_symmetric_forms(L).nvars == 45
        path = tmp_path / "nil_A_1x10.alg"
        path.write_text(serialize_algebra(L))
        code, payload = run_json(["invariant-form", str(path)])
        assert code == 1 and payload["nondegenerate_invariant_form"] is False and payload["certified"]

    def test_uncertified_no_exits_2(self, diamond_file):
        # diamond has a nondegenerate invariant form; one sample at bound 2 misses full rank
        argv = ["invariant-form", diamond_file, "--certify", "off", "--bound", "2", "--samples", "1", "--seed", "4"]
        code, payload = run_json(argv)
        assert code == 2 and payload["exit"] == 2
        assert payload["nondegenerate_invariant_form"] is False and payload["certified"] is False

    def test_center_and_derived_algebra_certify_no_without_sampling(self, h3_file):
        # dim Z + dim [L, L] = 2 < 3 for h3: a certified no under --certify off too
        code, payload = run_json(["invariant-form", h3_file, "--certify", "off", "--samples", "1"])
        assert code == 1 and payload["nondegenerate_invariant_form"] is False and payload["certified"]


class TestCPCommands:
    def test_cp_check_negative(self, diamond_file):
        code, payload = run_json(["cp-check", diamond_file, "--span", "y,z"])
        assert code == 1 and not payload["is_cp"]

    def test_cp_check_positive(self, morozov_file):
        code, payload = run_json(["cp-check", morozov_file, "--span", "e3,e4,e5,e6"])
        assert code == 0 and payload["is_cp"] and payload["is_ideal"]

    def test_cp_find(self, morozov_file, diamond_file):
        code, payload = run_json(["cp-find", morozov_file])
        assert code == 0 and payload["found"] and payload["dim"] == 4
        assert run_json(["cp-find", diamond_file])[0] == 1

    def test_certify_no_cp(self, diamond_file, morozov_file):
        code, payload = run_json(["certify-no-cp", diamond_file])
        assert code == 0 and payload["verified"]
        code, payload = run_json(["certify-no-cp", diamond_file, "--kind", "form"])
        assert code == 0 and payload["certificate"] == "invariant_form_nonabelian"
        assert run_json(["certify-no-cp", morozov_file])[0] == 1

    def test_chain(self, morozov_file, diamond_file):
        code, payload = run_json(
            ["chain", morozov_file, "--levels", "e2,e3,e4,e5,e6;e3,e4,e5,e6"]
        )
        assert code == 0 and payload["indices"] == [2, 3, 4]
        code, payload = run_json(["chain", diamond_file, "--levels", "x,y,z"])
        assert code == 1 and payload["indices"] == [2, 1]

    def test_quotient(self, tmp_path):
        path = tmp_path / "dl.alg"
        path.write_text(data_text("dixmier_lister.alg"))
        code, payload = run_json(["quotient", str(path), "--ideal", "e8", "--f", "e7"])
        assert code == 0
        assert payload["index_parent"] == 2 and payload["index_quotient"] == 1


class TestCatalogCommands:
    def test_list(self):
        code, payload = run_json(["catalog", "list"])
        assert code == 0
        names = [item["name"] for item in payload["entries"]]
        assert "morozov6_4" in names and "diamond" in names

    def test_verify_single(self):
        code, payload = run_json(["catalog", "verify", "morozov6_4"])
        assert code == 0 and payload["reports"][0]["ok"]

    def test_verify_with_param(self):
        code, payload = run_json(["catalog", "verify", "seeley_12457n", "--param", "xi=1"])
        assert code == 0 and payload["reports"][0]["params"]["xi"] == "1"

    def test_verify_unknown(self):
        code, _ = run(["catalog", "verify", "nonsense", "--json"])
        assert code == 2


class TestParabolicCommands:
    def test_parabolic_verify(self):
        code, payload = run_json(
            ["parabolic", "--type", "A", "--composition", "1,1,1,1,1", "--verify"]
        )
        assert code == 0 and payload["computed_index"] == 2 and payload["ok"]

    def test_parabolic_plain(self):
        code, payload = run_json(["parabolic", "--type", "C", "--composition", "1,2,2,1"])
        assert code == 0 and payload["dim_n"] == 8 and payload["formula_index"] == 4

    def test_table1(self):
        code, payload = run_json(["table1", "--type", "C", "--rank", "3"])
        assert code == 0 and payload["index_n"] == 3 and payload["ok"]

    def test_bad_composition(self):
        code, _ = run(["parabolic", "--type", "C", "--composition", "1,2", "--json"])
        assert code == 2


class TestProductFiles:
    def test_frobenius_assoc(self, tmp_path):
        dual = {
            "name": "dual",
            "dim": 2,
            "basis": ["1", "t"],
            "product": [
                {"lhs": "1", "rhs": "1", "terms": {"1": "1"}},
                {"lhs": "1", "rhs": "t", "terms": {"t": "1"}},
                {"lhs": "t", "rhs": "1", "terms": {"t": "1"}},
            ],
            "unit": {"1": "1"},
        }
        path = tmp_path / "dual.alg"
        path.write_text(json.dumps(dual))
        code, payload = run_json(["frobenius-assoc", str(path)])
        assert code == 0 and all(payload["conditions"].values())

    @pytest.fixture
    def line_action(self, tmp_path):
        # the identity acting on a line, over the one-dimensional algebra
        gfile = tmp_path / "line.alg"
        gfile.write_text(json.dumps({"name": "line", "dim": 1, "basis": ["x"], "brackets": []}))
        afile = tmp_path / "identity.json"
        afile.write_text(json.dumps({"dim_v": 1, "matrices": [[["1"]]]}))
        return ["semidirect", str(gfile), "--action", str(afile)]

    def test_semidirect_inconsistent_is_not_a_verified_negative(self, monkeypatch, line_action):
        # the sampled witness misses although the other conditions hold
        from liecp import constructions

        code, payload = run_json(line_action)
        assert code == 0 and payload["consistent"]
        monkeypatch.setattr(constructions, "_stabilizer_vanishes_somewhere", lambda form, policy: False)
        code, payload = run_json(line_action + ["--certify", "off"])
        assert code == 2 and payload["exit"] == 2
        assert payload["consistent"] is False and payload["conditions"]["stabilizer_vanishes"] is False
        code, out = run(line_action + ["--json"])
        assert code == 2
        assert_error_line(out, "semidirect")
        assert "equivalent conditions disagree" in json.loads(out)["error"]

    def test_semidirect(self, tmp_path, h3_file):
        two_dim = {
            "name": "aff",
            "dim": 2,
            "basis": ["x", "y"],
            "brackets": [{"lhs": "x", "rhs": "y", "terms": {"y": "1"}}],
        }
        gfile = tmp_path / "aff.alg"
        gfile.write_text(json.dumps(two_dim))
        # adjoint action matrices of the 2-dim nonabelian algebra
        action = {
            "dim_v": 2,
            "matrices": [[["0", "0"], ["0", "1"]], [["0", "0"], ["-1", "0"]]],
        }
        afile = tmp_path / "action.json"
        afile.write_text(json.dumps(action))
        code, payload = run_json(["semidirect", str(gfile), "--action", str(afile)])
        assert code == 0 and all(payload["conditions"].values())


class TestDeterminism:
    def test_byte_identical_json(self, diamond_file):
        for seed in ("0", "1", "2"):
            argv = ["index", diamond_file, "--seed", seed, "--json"]
            _, out1 = run(argv)
            _, out2 = run(argv)
            assert out1 == out2

    def test_conclusions_stable_across_seeds(self, morozov_file):
        results = set()
        for seed in ("0", "1", "2"):
            code, payload = run_json(["cp-check", morozov_file, "--span", "e3,e4,e5,e6", "--seed", seed])
            results.add((code, payload["is_cp"], payload["is_ideal"]))
        assert results == {(0, True, True)}

    def test_human_output(self, diamond_file):
        code, out = run(["index", diamond_file])
        assert code == 0 and "index 2" in out


class TestEntryPoint:
    def test_python_dash_m_runs_the_cli(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "liecp", "catalog", "verify", "--json"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["exit"] == 0


class TestReadme:
    def test_certify_choices_match_the_parser(self):
        # the common-options paragraph names exactly the parser's --certify choices
        text = " ".join(README.read_text().split())
        options = text[text.index("Common options:"):].split(". ")[0]
        documented = re.search(r"`--certify ([a-z|]+)`", options).group(1).split("|")
        commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        certify = next(a for a in commands.choices["index"]._actions if "--certify" in a.option_strings)
        assert documented == list(certify.choices)


def assert_error_line(out: str, command: str) -> None:
    """One JSON error line: schema, command, seed and the message, no exit code."""
    doc = json.loads(out)
    assert set(doc) == {"schema", "command", "seed", "error"}
    assert doc["command"] == command and doc["error"]


class TestErrors:
    def test_missing_file(self):
        # OSError from the file read
        code, out = run(["index", "/nonexistent/file.alg", "--json"])
        assert code == 2
        assert_error_line(out, "index")

    def test_bad_span_label(self, diamond_file):
        # LiecpError from the span parser
        code, out = run(["cp-check", diamond_file, "--span", "nope", "--json"])
        assert code == 2
        assert_error_line(out, "cp-check")

    def test_zero_denominator_in_span(self, diamond_file):
        # was an uncaught ZeroDivisionError with exit 1, the verified negative
        code, out = run(["cp-check", diamond_file, "--span", "1/0*z", "--json"])
        assert code == 2
        assert_error_line(out, "cp-check")
        assert json.loads(out)["error"] == "cannot parse span expression '1/0*z' at offset 0"

    @pytest.mark.parametrize("label", ["a-b", "a+b"])
    def test_signed_label_rejected(self, tmp_path, label):
        # a label with + or - would render x_a - x_b as the label a-b
        path = tmp_path / "signed.alg"
        path.write_text(json.dumps({"name": "s", "dim": 3, "basis": ["a", "b", label], "brackets": []}))
        code, out = run(["index", str(path), "--json"])
        assert code == 2
        assert_error_line(out, "index")
        assert json.loads(out)["error"] == f"bad basis label {label!r} at basis[2]"

    def test_non_string_bracket_label(self, tmp_path):
        # ParseError for an lhs that is a JSON array, not a label
        path = tmp_path / "bad.alg"
        entry = {"lhs": ["x"], "rhs": "y", "terms": {}}
        path.write_text(json.dumps({"name": "x", "dim": 2, "basis": ["x", "y"], "brackets": [entry]}))
        code, out = run(["index", str(path), "--json"])
        assert code == 2
        assert_error_line(out, "index")

    @pytest.mark.parametrize(
        "spec, where",
        [
            ({"matrices": []}, "at dim_v"),
            ({"dim_v": 3, "matrices": 3}, "at matrices"),
            ({"dim_v": 3, "matrices": [None, None, None]}, "at matrices[0]"),
            ({"dim_v": 3, "matrices": [[["0"] * 3] * 3] * 2 + [[["0", None, "0"]] * 3]}, "at matrices[2][0][1]"),
            ([{"dim_v": 3, "matrices": []}], "must be an object"),
            ({"dim_v": 3.7, "matrices": [[["0"] * 3] * 3] * 3}, "at dim_v"),  # was truncated to 3
            ({"dim_v": 3, "matrices": [[["0"] * 3] * 3] * 2 + [[["0", 0.1, "0"]] * 3]}, "at matrices[2][0][1]"),
        ],
    )
    def test_malformed_action_file(self, tmp_path, h3_file, spec, where):
        # ParseError naming the place, not KeyError or TypeError with exit 1
        path = tmp_path / "action.json"
        path.write_text(json.dumps(spec))
        code, out = run(["semidirect", h3_file, "--action", str(path), "--json"])
        assert code == 2
        assert_error_line(out, "semidirect")
        assert json.loads(out)["error"].endswith(where)

    @pytest.mark.parametrize(
        "name, ideal, functional, message",
        [
            ("diamond", "x", "z", "A must be an ideal of L"),
            ("dixmier_lister", "e8", "e8", "f must vanish on A"),
            ("h3", "z", "y", "f must be regular"),
        ],
    )
    def test_quotient_rejections(self, tmp_path, name, ideal, functional, message):
        # without --span the checks are quotient_cp_check's, with its messages
        path = tmp_path / f"{name}.alg"
        path.write_text(data_text(f"{name}.alg"))
        code, out = run(["quotient", str(path), "--ideal", ideal, "--f", functional, "--json"])
        assert code == 2
        assert_error_line(out, "quotient")
        assert json.loads(out)["error"] == message

    @pytest.mark.parametrize("flags", [["--samples", "0"], ["--bound", "1"]])
    def test_invalid_policy_option(self, h3_file, flags):
        # RankPolicy's ValueError is an error (exit 2), not a verified negative
        code, out = run(["index", h3_file, "--json"] + flags)
        assert code == 2
        assert_error_line(out, "index")
        assert "must be >=" in json.loads(out)["error"]

    def test_attempts_below_one_rejected(self, diamond_file):
        # was SamplingExhausted's "...this indicates a wrong index value"
        code, out = run(["fsr", diamond_file, "--attempts", "0", "--json"])
        assert code == 2
        assert_error_line(out, "fsr")
        assert json.loads(out)["error"] == "attempts must be >= 1"

    @pytest.mark.parametrize("name, param", [("free_two_step", "n=5/2"), ("heisenberg", "m=3/2")])
    def test_non_integral_catalog_parameter(self, name, param):
        # was truncated to n = 2 (m = 1) and reported ok under the unrounded value
        code, out = run(["catalog", "verify", name, "--param", param, "--json"])
        assert code == 2
        assert_error_line(out, "catalog")
        assert "must be an integer" in json.loads(out)["error"]

    def test_param_without_entry_name(self):
        # was dropped silently while every entry was verified
        code, out = run(["catalog", "verify", "--param", "n=3", "--json"])
        assert code == 2
        assert_error_line(out, "catalog")
