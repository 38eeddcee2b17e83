import json
from pathlib import Path

import jsonschema
import pytest

from vgroups import StructuralError, boolean, lawvere_chain
from vgroups.document import (SCHEMA, canonical_json, document_text,
                              load_document, parse_document)

DOCS = Path(__file__).parent.parent / "documents"


def minimal_doc():
    return {
        "quantale": {"builtin": "boolean"},
        "group": {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]},
        "structure": [["top", "bot"], ["bot", "top"]],
    }


class TestParsing:
    def test_minimal(self):
        doc = parse_document(minimal_doc())
        assert doc.quantale == boolean()
        assert doc.vgroup.size == 2
        assert doc.vgroup.entry(0, 0) == 1

    def test_indices_accepted(self):
        data = minimal_doc()
        data["structure"] = [[1, 0], [0, 1]]
        data["group"]["table"] = [[0, 1], [1, 0]]
        doc = parse_document(data)
        assert doc.vgroup.entry(0, 1) == 0

    def test_builtin_with_length(self):
        data = minimal_doc()
        data["quantale"] = {"builtin": "lawvere_chain", "m": 2}
        data["structure"] = [["0", "2"], ["2", "0"]]
        doc = parse_document(data)
        assert doc.quantale == lawvere_chain(2)

    def test_explicit_quantale_tables(self):
        data = minimal_doc()
        data["quantale"] = {
            "elements": ["bot", "top"],
            "leq": [[True, True], [False, True]],
            "tensor": [["bot", "bot"], ["bot", "top"]],
            "unit": "top", "bottom": "bot", "top": "top",
        }
        doc = parse_document(data)
        assert doc.quantale == boolean()

    def test_unknown_label_rejected(self):
        data = minimal_doc()
        data["structure"][0][0] = "weird"
        with pytest.raises(StructuralError, match="unknown quantale label"):
            parse_document(data)

    def test_index_out_of_range_rejected(self):
        data = minimal_doc()
        data["structure"][0][0] = 9
        with pytest.raises(StructuralError, match="out of range"):
            parse_document(data)

    def test_non_square_structure_rejected(self):
        data = minimal_doc()
        data["structure"] = [["top", "bot"]]
        with pytest.raises(StructuralError):
            parse_document(data)

    def test_schema_violation_rejected(self):
        with pytest.raises(StructuralError, match="schema"):
            parse_document({"quantale": {"builtin": "boolean"}})

    def test_inline_morphism_target(self):
        data = minimal_doc()
        data["morphisms"] = [{
            "name": "collapse",
            "target": {"group": {"elements": ["e"], "table": [["e"]]},
                       "structure": [["top"]]},
            "map": ["e", "e"],
        }]
        doc = parse_document(data)
        hom = doc.morphism("collapse")
        assert hom.cod.size == 1

    def test_missing_morphism_name(self):
        doc = parse_document(minimal_doc())
        with pytest.raises(StructuralError):
            doc.morphism("nope")

    def test_map_length_checked(self):
        data = minimal_doc()
        data["morphisms"] = [{
            "name": "bad",
            "target": {"group": {"elements": ["e"], "table": [["e"]]},
                       "structure": [["top"]]},
            "map": ["e"],
        }]
        with pytest.raises(StructuralError, match="one target element"):
            parse_document(data)


_NO_STRUCTURE = {k: v for k, v in minimal_doc().items() if k != "structure"}
MALFORMED = [
    ("root-not-object", [_NO_STRUCTURE]),
    ("structure-missing", _NO_STRUCTURE),
    ("extra-top-level-key", {**minimal_doc(), "extra": 1}),
    ("bad-leq-entry", {**minimal_doc(), "quantale": {
        "elements": ["bot", "top"], "leq": [[True, "yes"], [False, True]],
        "tensor": [["bot", "bot"], ["bot", "top"]],
        "unit": "top", "bottom": "bot", "top": "top"}}),
    ("map-not-an-array", {**minimal_doc(), "morphisms": [{
        "name": "f", "target": {"group": {"elements": ["e"], "table": [["e"]]},
                                "structure": [["top"]]},
        "map": "e"}]}),
    ("200000-integers", list(range(200_000))),
]


class TestSchemaCheck:
    def test_shipped_schema_is_draft_2020_12(self):
        cls = jsonschema.validators.validator_for(SCHEMA)
        assert cls is jsonschema.Draft202012Validator
        cls.check_schema(SCHEMA)

    @pytest.mark.parametrize("data", [data for _, data in MALFORMED],
                             ids=[name for name, _ in MALFORMED])
    def test_message_matches_jsonschema_validate(self, data):
        with pytest.raises(jsonschema.ValidationError) as old:
            jsonschema.validate(data, SCHEMA)
        with pytest.raises(StructuralError) as new:
            parse_document(data)
        assert str(new.value) == ("document does not match the schema: "
                                  f"{old.value.validator!r} fails at {old.value.json_path}")


class TestRoundTrip:
    def test_canonical_round_trip(self):
        text = canonical_json(json.loads(document_text(parse_document(minimal_doc()))))
        assert document_text(parse_document(json.loads(text))) == text

    @pytest.mark.parametrize("name", ["z4_boolean.json", "z4_lawvere.json",
                                      "z4_boolean_morphism.json"])
    def test_shipped_documents_are_canonical(self, name):
        path = DOCS / name
        text = path.read_text(encoding="utf-8")
        doc = load_document(path)
        assert document_text(doc) == text

    def test_explicit_tables_round_trip(self):
        data = minimal_doc()
        data["quantale"] = {
            "elements": ["bot", "top"],
            "leq": [[True, True], [False, True]],
            "tensor": [["bot", "bot"], ["bot", "top"]],
            "unit": "top", "bottom": "bot", "top": "top",
        }
        text = document_text(parse_document(data))
        assert document_text(parse_document(json.loads(text))) == text
        assert "builtin" not in json.loads(text)["quantale"]


class TestFileTargets:
    def test_path_target_resolved(self, tmp_path):
        target = minimal_doc()
        (tmp_path / "codomain.json").write_text(canonical_json(target), encoding="utf-8")
        data = minimal_doc()
        data["morphisms"] = [{"name": "id", "target": "codomain.json",
                              "map": ["0", "1"]}]
        (tmp_path / "main.json").write_text(canonical_json(data), encoding="utf-8")
        doc = load_document(tmp_path / "main.json")
        assert doc.morphism("id").cod.size == 2

    def test_quantale_mismatch_rejected(self, tmp_path):
        target = minimal_doc()
        target["quantale"] = {"builtin": "lawvere_chain", "m": 2}
        target["structure"] = [["0", "2"], ["2", "0"]]
        (tmp_path / "codomain.json").write_text(canonical_json(target), encoding="utf-8")
        data = minimal_doc()
        data["morphisms"] = [{"name": "id", "target": "codomain.json",
                              "map": ["0", "1"]}]
        (tmp_path / "main.json").write_text(canonical_json(data), encoding="utf-8")
        with pytest.raises(StructuralError, match="different quantale"):
            load_document(tmp_path / "main.json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(StructuralError, match="cannot read"):
            load_document(tmp_path / "missing.json")

    def test_bad_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        with pytest.raises(StructuralError, match="not valid JSON"):
            load_document(tmp_path / "bad.json")
