"""End-to-end runs of every CLI subcommand via main(argv)."""

import ast
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import involutive
from involutive import (BasisPair, CartanCharacters, RatMatrix, Tableau,
                        characters_in_basis, cli)
from involutive.cli import build_parser, main
from involutive.document import (
    load_document,
    matrix_to_lists,
    save_presentation,
)
from involutive.guillemin import (
    ZeroCovector,
    check_gnf_commutativity,
    dim_w1_generic,
    w1_of_phi,
    w_minus_of_phi,
)
from involutive.involutivity import (
    build_b_array,
    prolongation_dimension,
    search_endovolutive_basis,
)
from involutive.linalg import format_rational, parse_rational
from involutive.tableau import find_generic_basis
from conftest import make_310, staircase_corpus


@pytest.fixture
def involutive_doc(tmp_path):
    path = tmp_path / "involutive.json"
    save_presentation(make_310(T2=2, R3=2, Q=1), str(path))
    return str(path)


@pytest.fixture
def non_involutive_doc(tmp_path):
    path = tmp_path / "non_involutive.json"
    save_presentation(make_310(T2=1, R3=2), str(path))
    return str(path)


class TestCharacters:
    def test_reports_characters(self, involutive_doc, capsys):
        assert main(["characters", "--input", involutive_doc]) == 0
        out = capsys.readouterr().out
        assert "characters: 3 1 0" in out
        assert "dim A = 4" in out
        assert "dim H^1 = 5" in out
        assert "characters certified: yes" in out

    def test_uncertified_characters_say_so(self, non_involutive_doc, capsys):
        assert main(["characters", "--input", non_involutive_doc]) == 0
        out = capsys.readouterr().out
        assert "characters: 3 1 0" in out
        assert "characters certified: no" in out


class TestAnalyze:
    def test_involutive_exit_zero(self, involutive_doc, capsys):
        assert main(["analyze", "--input", involutive_doc]) == 0
        out = capsys.readouterr().out
        assert "involutive (oracle): yes" in out
        assert "dim A^(1) = 5, bound = 5" in out
        assert "endovolutive: yes" in out

    def test_non_involutive_exit_one(self, non_involutive_doc, capsys):
        assert main(["analyze", "--input", non_involutive_doc]) == 1
        out = capsys.readouterr().out
        assert "involutive (oracle): no" in out
        assert "quadratic violations" in out

    def test_json_output(self, involutive_doc, capsys):
        assert main(["analyze", "--input", involutive_doc, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["involutive"] is True
        assert data["characters"] == [3, 1, 0]
        assert data["dim_A1"] == 5 and data["cartan_bound"] == 5
        assert data["violations"] == []
        assert data["characters_certified"] is True

    def test_json_uncertified(self, non_involutive_doc, capsys):
        assert main(["analyze", "--input", non_involutive_doc, "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["characters_certified"] is False

    def test_variant_flag(self, non_involutive_doc, capsys):
        assert main(["analyze", "--input", non_involutive_doc,
                     "--variant", "proof"]) == 1
        assert "proof variant" in capsys.readouterr().out

    def test_bad_document_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["analyze", "--input", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_boolean_dimension_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"r": True, "n": 1, "presentation": "basis",
                                    "basis": [[["1"]]]}))
        assert main(["analyze", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: r: must be a positive integer"]


class TestGnf:
    def test_subspaces_for_u1(self, involutive_doc, capsys):
        assert main(["gnf", "--input", involutive_doc, "--phi", "1,0,0"]) == 0
        out = capsys.readouterr().out
        assert "W^-(phi): dim 3" in out
        assert "W^1(phi): dim 2" in out
        assert "generic dim W^1 = 1 (s_ell = 1)" in out
        assert "pass" in out

    def test_phi_with_second_component(self, involutive_doc, capsys):
        assert main(["gnf", "--input", involutive_doc, "--phi", "1,1"]) == 0
        assert "W^1(phi): dim 1" in capsys.readouterr().out

    def test_zero_phi_errors(self, involutive_doc, capsys):
        assert main(["gnf", "--input", involutive_doc, "--phi", "0,0,0"]) == 2

    def test_unparsable_phi(self, involutive_doc):
        with pytest.raises(SystemExit):
            main(["gnf", "--input", involutive_doc, "--phi", "x,y"])

    @pytest.mark.parametrize("phi, message", [
        ("0,,1", "error: --phi: empty value in '0,,1'"),
        ("1,0,", "error: --phi: empty value in '1,0,'"),
        ("1,0,0,0,0", "error: --phi: 5 values given, but n = 3"),
    ])
    def test_malformed_phi_refused(self, involutive_doc, capsys, phi,
                                   message):
        with pytest.raises(SystemExit) as exc:
            main(["gnf", "--input", involutive_doc, "--phi", phi])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [message]


class TestIdeal:
    def test_310_count(self, capsys):
        assert main(["ideal", "3", "1", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("8 generators")
        assert "B[" in out

    def test_trivial_ideal(self, capsys):
        assert main(["ideal", "1", "1", "1"]) == 0
        assert capsys.readouterr().out.startswith("0 generators")

    def test_rejects_non_staircase(self):
        with pytest.raises(SystemExit):
            main(["ideal", "1", "2"])

    def test_n4_ideal(self, capsys):
        assert main(["ideal", "2", "2", "1", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        gens = involutive.export_ideal(involutive.CartanCharacters((2, 2, 1, 1)))
        assert lines[0] == f"{len(gens)} generators"
        assert lines[1:] == [g.to_text() for g in gens]
        assert gens and all("B[" in line for line in lines[1:])


class TestSample:
    def test_writes_documents(self, tmp_path, capsys):
        out_dir = tmp_path / "kept"
        assert main(["sample", "3", "1", "0", "--seed", "1",
                     "--count", "40", "--set", "0,1",
                     "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "oracle-verified" in out
        written = sorted(out_dir.glob("involutive_*.json"))
        assert written
        data = json.loads(written[0].read_text())
        assert data["characters"] == [3, 1, 0]


class TestCensus:
    def test_small_census(self, capsys):
        assert main(["census", "2", "0", "--set", "0,1", "--cap", "100"]) == 0
        out = capsys.readouterr().out
        assert "total assignments: 16" in out
        assert "involutive: 16" in out

    def test_cap_exceeded(self, capsys):
        assert main(["census", "3", "1", "0", "--set", "0,1",
                     "--cap", "10"]) == 2
        assert "exceed" in capsys.readouterr().err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


# Documents for the error-contract runs, named in argv by these keys.
_CONTRACT_DOCS = {
    "{321}": {"r": 3, "n": 3, "presentation": "coefficients",
              "characters": [3, 2, 1], "coefficients": []},
    "{repeated}": {"r": 3, "n": 3, "presentation": "coefficients",
                   "characters": [2, 1, 0], "coefficients": [
                       {"a": 3, "lambda": 1, "i": 1, "b": 1, "value": "1"},
                       {"a": 3, "lambda": 1, "i": 1, "b": 1, "value": "0"}]},
}


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["sample", "3", "2", "1", "--count", "50"],   # OracleDisagreement
        ["sample", "2", "1", "--set", ""],            # empty coefficient set
        ["sample", "2", "1", "--count", "x"],         # argparse rejection
        ["sample", "3", "1", "0", "--count", "-5"],   # negative count
        ["census", "2", "1", "0", "--set", "0,0,1"],  # repeated value
        ["census", "2", "1", "0", "--set", "0,,1"],   # empty field
        ["gnf", "--input", "{321}", "--phi", "0,,1"],        # empty field
        ["gnf", "--input", "{321}", "--phi", "1,0,0,0,0"],   # more than n
        ["analyze", "--input", "{repeated}"],         # repeated record
    ])
    def test_one_line_exit_two(self, argv, tmp_path):
        src = os.path.dirname(os.path.dirname(involutive.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        for key, doc in _CONTRACT_DOCS.items():
            path = tmp_path / f"{key.strip('{}')}.json"
            path.write_text(json.dumps(doc))
            argv = [str(path) if arg == key else arg for arg in argv]
        out = ["--out", str(tmp_path / "kept")] if argv[0] == "sample" else []
        proc = subprocess.run(
            [sys.executable, "-m", "involutive.cli", *argv, *out],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "error:" in lines[0]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_closed_stdout_exits_two_silently(self, involutive_doc,
                                              json_flag):
        src = os.path.dirname(os.path.dirname(involutive.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "involutive.cli", "analyze",
                 "--input", involutive_doc, *json_flag],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120)
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert proc.stderr == ""


def _check_characters_output(tab, out: str):
    """The ``characters`` output read back: the printed characters are
    those of the printed basis, and the certified line is the one that
    the prolongation oracle gives them."""
    lines = out.splitlines()
    assert len(lines) == 7 and lines[4] == "generic basis used:"
    chars = CartanCharacters(tuple(int(x) for x in lines[0].split()[1:]))
    assert lines[0] == f"characters: {' '.join(map(str, chars.s))}"
    mats = []
    for line, label in zip(lines[5:], ("W change", "V* change")):
        assert line.startswith(f"  {label}: ")
        entries = ast.literal_eval(line[len(label) + 4:])
        mats.append(RatMatrix.from_rows(
            [[parse_rational(e) for e in row] for row in entries]))
    assert characters_in_basis(tab, BasisPair(*mats)) == chars
    dim_a1, _ = prolongation_dimension(tab)
    assert lines[1] == cli._certified_line(dim_a1 == chars.cartan_bound)
    assert lines[2:4] == [f"dim A = {tab.dim}",
                          f"dim H^1 = {tab.r * tab.n - tab.dim}"]


# The gnf command assembled stage by stage from the public
# prolongation_dimension, find_generic_basis and
# search_endovolutive_basis, instead of through cartan_test: the
# reference for the rerouted command.

def _assembled_gnf(args) -> int:
    tab = load_document(args.input).tableau()
    dim_a1, _ = prolongation_dimension(tab)
    basis, chars = find_generic_basis(tab, args.seed, args.trials, dim_a1)
    certified = dim_a1 == chars.cartan_bound
    found = search_endovolutive_basis(tab, basis)
    if found is None:
        print("endovolutive search inconclusive; normal form unavailable")
        return 2
    barr = build_b_array(found[1])
    phi = cli._parse_rational_list(args.phi, "--phi")
    if len(phi) < tab.n:
        phi = phi + [Fraction(0)] * (tab.n - len(phi))
    try:
        wm = w_minus_of_phi(barr, phi)
        w1 = w1_of_phi(barr, phi)
    except ZeroCovector as exc:
        print(f"error: --phi: {exc}", file=sys.stderr)
        return 2
    print(f"characters: {' '.join(str(x) for x in chars.s)}")
    print(cli._certified_line(certified))
    print(f"W^-(phi): dim {wm.dim}, basis "
          f"{[[format_rational(e) for e in v.entries()] for v in wm.basis]}")
    print(f"W^1(phi): dim {w1.dim}, basis "
          f"{[[format_rational(e) for e in v.entries()] for v in w1.basis]}")
    print(f"generic dim W^1 = {dim_w1_generic(barr, seed=args.seed)} "
          f"(s_ell = {chars.s[chars.ell - 1] if chars.ell else 0})")
    ok, witness = check_gnf_commutativity(barr, phi)
    print(f"endomorphism + commutativity on W^1(phi): "
          f"{'pass' if ok else 'FAIL'}")
    if not ok:
        print(f"  witness: {witness}")
    return 0


def _run(func, argv, capsys):
    try:
        code = func(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReroutedCommands:
    def test_match_the_assembled_pipeline(self, tmp_path, capsys):
        tabs = (staircase_corpus(3, 10, "random")
                + staircase_corpus(3, 6, "rows") + [Tableau.zero(3, 2)])
        seen = set()
        for k, tab in enumerate(tabs):
            path = tmp_path / f"{k}.json"
            path.write_text(json.dumps(
                {"r": tab.r, "n": tab.n, "presentation": "basis",
                 "basis": [matrix_to_lists(m) for m in tab.span]}))
            common = ["--input", str(path), "--seed", str(k)]
            code, out, err = _run(main, ["characters"] + common, capsys)
            assert (code, err) == (0, "")
            _check_characters_output(tab, out)
            phis = ["0", "1", ",".join(str(j + 1) for j in range(tab.n))]
            for phi in phis:
                argv = ["gnf", "--phi", phi] + common
                new = _run(main, argv, capsys)
                old = _run(lambda a: _assembled_gnf(
                    build_parser().parse_args(a)), argv, capsys)
                assert new == old, argv
                seen.add(new[0])
                if "inconclusive" in new[1]:
                    seen.add("inconclusive")
                if "no component in U*" in new[2]:
                    seen.add("zero tableau")
        assert {0, 2, "inconclusive", "zero tableau"} <= seen
