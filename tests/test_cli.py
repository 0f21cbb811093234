"""End-to-end runs of every CLI subcommand via main(argv)."""

import json
import os
import subprocess
import sys

import pytest

import involutive
from involutive.cli import main
from involutive.document import save_presentation
from conftest import make_310


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


class TestErrorContract:
    @pytest.mark.parametrize("argv", [
        ["sample", "3", "2", "1", "--count", "50"],   # OracleDisagreement
        ["sample", "2", "1", "--set", ""],            # empty coefficient set
        ["sample", "2", "1", "--count", "x"],         # argparse rejection
    ])
    def test_one_line_exit_two(self, argv, tmp_path):
        src = os.path.dirname(os.path.dirname(involutive.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "involutive.cli", *argv,
             "--out", str(tmp_path / "kept")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and "error:" in lines[0]
