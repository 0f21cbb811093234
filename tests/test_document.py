"""JSON document parsing, validation messages, and round-trips."""

import json

import pytest

from involutive.document import (
    DocumentError,
    document_from_dict,
    load_document,
    matrix_to_lists,
    presentation_to_dict,
    save_presentation,
)
from involutive.linalg import RatMatrix
from conftest import make_310


def basis_doc():
    return {
        "r": 1,
        "n": 2,
        "presentation": "basis",
        "basis": [[["1", "0"]], [["0", "1/2"]]],
    }


def coeff_doc():
    return {
        "r": 2,
        "n": 2,
        "presentation": "coefficients",
        "characters": [2, 1],
        "coefficients": [
            {"a": 2, "lambda": 1, "i": 2, "b": 1, "value": "-3/2"},
        ],
    }


class TestBasisDocuments:
    def test_parses_matrices(self):
        doc = document_from_dict(basis_doc())
        tab = doc.tableau()
        assert tab.dim == 2
        assert tab.span[1][0, 1] == RatMatrix.from_rows([["1/2"]])[0, 0]

    def test_bad_row_count(self):
        data = basis_doc()
        data["basis"][0] = [["1", "0"], ["0", "0"]]
        with pytest.raises(DocumentError, match=r"basis\[0\]"):
            document_from_dict(data)

    def test_bad_entry_count(self):
        data = basis_doc()
        data["basis"][0] = [["1"]]
        with pytest.raises(DocumentError, match=r"basis\[0\]\[0\]"):
            document_from_dict(data)

    def test_float_rejected(self):
        data = basis_doc()
        data["basis"][0][0][0] = 0.5
        with pytest.raises(DocumentError, match="strings"):
            document_from_dict(data)

    def test_two_parses_are_equal(self):
        first, second = (document_from_dict(basis_doc()) for _ in range(2))
        assert first == second and first.basis is not second.basis
        assert first.basis == second.basis
        assert hash(first.basis) == hash(second.basis)
        assert len({first.basis, second.basis}) == 1

    def test_other_spanning_sets_of_the_subspace_are_unequal(self):
        # equality is of the stored spanning set, not of the subspace
        tab = document_from_dict(basis_doc()).basis
        for basis in ([[["0", "1/2"]], [["1", "0"]]],     # reordered
                      [[["2", "0"]], [["0", "1/2"]]],     # rescaled
                      [[["1", "0"]], [["0", "1/2"]], [["1", "1"]]]):
            data = basis_doc()
            data["basis"] = basis
            other = document_from_dict(data).basis
            assert other.dim == tab.dim == 2
            assert other != tab
        assert tab != document_from_dict(coeff_doc()).tableau()


class TestCoefficientDocuments:
    def test_parses_presentation(self):
        doc = document_from_dict(coeff_doc())
        assert doc.symbol.characters.s == (2, 1)
        assert doc.tableau().dim == 3

    def test_missing_slot_field(self):
        data = coeff_doc()
        del data["coefficients"][0]["b"]
        with pytest.raises(DocumentError, match=r"coefficients\[0\]\.b"):
            document_from_dict(data)

    def test_bad_characters_length(self):
        data = coeff_doc()
        data["characters"] = [2]
        with pytest.raises(DocumentError, match="characters"):
            document_from_dict(data)

    def test_non_staircase_characters(self):
        data = coeff_doc()
        data["characters"] = [1, 2]
        with pytest.raises(DocumentError, match="characters"):
            document_from_dict(data)

    def test_invalid_slot(self):
        data = coeff_doc()
        data["coefficients"][0]["a"] = 1  # staircase row, not free
        with pytest.raises(DocumentError, match="coefficients"):
            document_from_dict(data)


    @pytest.mark.parametrize("values", [("1", "0"), ("1", "1")])
    def test_repeated_slot_names_both_records(self, values):
        doc = coeff_doc()
        doc["r"], doc["n"], doc["characters"] = 3, 3, [2, 1, 0]
        doc["coefficients"] = [
            {"a": 3, "lambda": 1, "i": 1, "b": 1, "value": values[0]},
            {"a": 2, "lambda": 1, "i": 2, "b": 1, "value": "1"},
            {"a": 3, "lambda": 1, "i": 1, "b": 1, "value": values[1]},
        ]
        with pytest.raises(DocumentError,
                           match=r"coefficients\[2\].*coefficients\[0\]"):
            document_from_dict(doc)
        del doc["coefficients"][2]
        assert document_from_dict(doc).symbol.coefficients[(3, 1, 1, 1)] == 1


class TestTopLevelValidation:
    def test_missing_field(self):
        with pytest.raises(DocumentError, match="presentation"):
            document_from_dict({"r": 1, "n": 1})

    def test_bad_presentation_kind(self):
        data = basis_doc()
        data["presentation"] = "other"
        with pytest.raises(DocumentError, match="presentation"):
            document_from_dict(data)

    def test_bad_r(self):
        data = basis_doc()
        data["r"] = 0
        with pytest.raises(DocumentError, match="r"):
            document_from_dict(data)


class TestBooleansRejected:
    # JSON true and false load as bool, which Python counts as an int
    @pytest.mark.parametrize("make, path, value, field", [
        (basis_doc, ["r"], True, "r"),
        (basis_doc, ["n"], True, "n"),
        (coeff_doc, ["characters"], [True, False], "characters"),
        (coeff_doc, ["coefficients", 0, "a"], True, r"coefficients\[0\]\.a"),
        (coeff_doc, ["coefficients", 0, "lambda"], True,
         r"coefficients\[0\]\.lambda"),
        (coeff_doc, ["coefficients", 0, "i"], True, r"coefficients\[0\]\.i"),
        (coeff_doc, ["coefficients", 0, "b"], True, r"coefficients\[0\]\.b"),
    ], ids=["r", "n", "characters", "a", "lambda", "i", "b"])
    def test_names_the_field(self, make, path, value, field):
        data = make()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(DocumentError, match=rf"^{field}: "):
            document_from_dict(data)


class TestFiles:
    def test_load_missing_file(self, tmp_path):
        with pytest.raises(DocumentError, match="cannot read"):
            load_document(str(tmp_path / "missing.json"))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DocumentError, match="invalid JSON"):
            load_document(str(path))

    def test_save_load_round_trip(self, tmp_path):
        pres = make_310(P2=3, T2=2, R3=2)
        path = tmp_path / "doc.json"
        save_presentation(pres, str(path))
        doc = load_document(str(path))
        assert doc.symbol.coefficients == pres.coefficients
        assert doc.symbol.characters.s == pres.characters.s

    def test_saved_values_are_strings(self, tmp_path):
        pres = make_310()
        path = tmp_path / "doc.json"
        save_presentation(pres, str(path))
        data = json.loads(path.read_text())
        for rec in data["coefficients"]:
            assert isinstance(rec["value"], str)


class TestSerializers:
    def test_matrix_to_lists(self):
        m = RatMatrix.from_rows([["1/2", "-3"]])
        assert matrix_to_lists(m) == [["1/2", "-3"]]

    def test_presentation_dict_sorted(self):
        d = presentation_to_dict(make_310(P1=1, Q=1))
        keys = [(r["a"], r["lambda"], r["i"], r["b"])
                for r in d["coefficients"]]
        assert keys == sorted(keys)
