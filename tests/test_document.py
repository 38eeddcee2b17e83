import copy
import importlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from vgroups import StructuralError, VHom, boolean, document, lawvere_chain
from vgroups.builders import standard_suite
from vgroups.cli import run
from vgroups.document import (SCHEMA, _VALIDATOR, WorkbenchDocument, _accepts, _compile,
                              canonical_json, document_text, emit_document, load_document,
                              parse_document)

DOCS = Path(__file__).parent.parent / "documents"
TEST_DOCS = Path(__file__).parent / "documents"
PERFBENCH = Path(__file__).parent.parent / "perfbench"


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


    def test_morphisms_without_specs_emit_their_targets_inline(self):
        shipped = load_document(DOCS / "z4_boolean_morphism.json")
        built = WorkbenchDocument(quantale=shipped.quantale, vgroup=shipped.vgroup,
                                  morphisms=shipped.morphisms,
                                  quantale_spec=shipped.quantale_spec)
        emitted = emit_document(built)
        assert [m["name"] for m in emitted["morphisms"]] == ["q"]
        parsed = parse_document(json.loads(canonical_json(emitted)))
        (hom,), (want,) = parsed.morphisms, shipped.morphisms
        assert hom.mapping == want.mapping and hom.cod == want.cod

    def test_named_morphisms_round_trip_and_an_unnamed_one_raises(self):
        shipped = load_document(DOCS / "z4_boolean_morphism.json")
        (q,) = shipped.morphisms
        named = [VHom(q.dom, q.cod, q.mapping, name=name) for name in ("a", "b")]
        built = WorkbenchDocument(quantale=shipped.quantale, vgroup=shipped.vgroup,
                                  morphisms=named, quantale_spec=shipped.quantale_spec)
        text = document_text(built)
        parsed = parse_document(json.loads(text))
        assert [(h.name, h.mapping, h.cod) for h in parsed.morphisms] == \
            [(h.name, h.mapping, h.cod) for h in named]
        assert document_text(parsed) == text
        unnamed = VHom(q.dom, q.cod, q.mapping)
        built.morphisms = [named[0], unnamed]
        with pytest.raises(StructuralError, match="morphism 1 has no name"):
            emit_document(built)

    def test_a_repeated_morphism_name_raises_at_emit(self):
        # parse_document refuses a document that names two morphisms alike,
        # so emit refuses to write one, naming the repeated name
        shipped = load_document(DOCS / "z4_boolean_morphism.json")
        (q,) = shipped.morphisms
        twice = [q, VHom(q.dom, q.cod, q.mapping, name=q.name)]
        built = WorkbenchDocument(quantale=shipped.quantale, vgroup=shipped.vgroup,
                                  morphisms=twice, quantale_spec=shipped.quantale_spec)
        with pytest.raises(StructuralError, match="morphism 'q' is named twice"):
            emit_document(built)
        with pytest.raises(StructuralError, match="morphism 'q' is named twice"):
            document_text(built)


def float_indices(data, base_dir):
    """``data`` emitted with every label it references written as its
    index, a float such as 1.0, and a chain length as a float: values that
    Draft 2020-12's ``integer`` admits."""
    doc = parse_document(data, base_dir=base_dir)
    out = emit_document(doc)
    labels = list(doc.quantale.labels)

    def indices(rows, names):
        return [[float(names.index(v)) for v in row] for row in rows]

    def encode(group, structure):
        group["table"] = indices(group["table"], group["elements"])
        return indices(structure, labels)

    spec = out["quantale"]
    if "m" in spec:
        spec["m"] = float(spec["m"])
    if "tensor" in spec:
        spec["tensor"] = indices(spec["tensor"], labels)
        spec.update({k: float(labels.index(spec[k])) for k in ("unit", "bottom", "top")})
    out["structure"] = encode(out["group"], out["structure"])
    for spec, hom in zip(out.get("morphisms", ()), doc.morphisms):
        spec["map"] = [float(v) for v in hom.mapping]
        if isinstance(spec["target"], dict):
            target = spec["target"]
            target["structure"] = encode(target["group"], target["structure"])
    return out


@pytest.mark.parametrize("name", sorted(p.name for p in DOCS.glob("*.json")) +
                         ["lawless_z4.json", "s3_lawvere.json", "tables"])
def test_float_indices_read_as_their_integers(tmp_path, name):
    """A copy of a shipped document whose entries and chain length are
    integral floats is the same document: it emits the same text, and the
    validate, classify and decompose commands print the same bytes on it."""
    if name == "tables":  # the boolean quantale given by its tables
        data = json.loads((DOCS / "z4_boolean.json").read_text(encoding="utf-8"))
        data["quantale"] = _TABLES
    else:
        path = DOCS / name if (DOCS / name).exists() else TEST_DOCS / name
        data = json.loads(path.read_text(encoding="utf-8"))
    original, copy_ = tmp_path / "original.json", tmp_path / "copy.json"
    original.write_text(canonical_json(data), encoding="utf-8")
    copy_.write_text(canonical_json(float_indices(data, DOCS)), encoding="utf-8")
    assert "1.0" in copy_.read_text(encoding="utf-8")
    assert document_text(load_document(copy_)) == document_text(load_document(original))
    for command in ("validate", "classify", "decompose"):
        for fmt in ("text", "json"):
            printed = []
            for path in (original, copy_):
                out = io.StringIO()
                printed.append((run([command, "--input", str(path), "--format", fmt], out),
                                out.getvalue()))
            assert printed[0] == printed[1], (command, fmt)


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

    def test_only_a_followed_reference_resolves_paths(self, tmp_path, monkeypatch):
        """Loading a shipped document or a document of the ``cli_documents``
        benchmark, whose targets are inline, resolves no path; following a
        path target resolves the chain, the root document included."""
        paths = (sorted(DOCS.glob("*.json")) + sorted(TEST_DOCS.glob("*.json"))
                 + perfbench_paths(tmp_path, monkeypatch))
        resolved = []
        resolve = Path.resolve
        monkeypatch.setattr(Path, "resolve", lambda self, *args, **kwargs:
                            resolved.append(self) or resolve(self, *args, **kwargs))
        for path in paths:
            load_document(path)
        assert len(paths) == 117 and resolved == []
        self.test_path_target_resolved(tmp_path)
        assert resolved == [tmp_path / "main.json", tmp_path / "codomain.json"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(StructuralError, match="cannot read"):
            load_document(tmp_path / "missing.json")

    def test_bad_json(self, tmp_path):
        (tmp_path / "bad.json").write_text("{", encoding="utf-8")
        with pytest.raises(StructuralError, match="not valid JSON"):
            load_document(tmp_path / "bad.json")


def shipped_documents():
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(DOCS.glob("*.json")) + sorted(TEST_DOCS.glob("*.json"))]


def morphism_documents(suite):
    """Each morphism of ``suite`` as the document of its domain with the
    morphism, its target given inline."""
    docs = suite.export_documents()
    return [{**docs[dom.name],
             "morphisms": [{"name": "f",
                            "target": {"group": docs[cod.name]["group"],
                                       "structure": docs[cod.name]["structure"]},
                            "map": [cod.vgroup.group.names[v] for v in hom.mapping]}]}
            for dom, cod, hom in suite.all_homs()]


_SMOKE = standard_suite("smoke")
# Valid documents to mutate: the shipped ones, every smoke object and
# every smoke morphism.
BASES = (shipped_documents() + list(_SMOKE.export_documents().values())
         + morphism_documents(_SMOKE))

_TABLES = {"elements": ["bot", "top"], "leq": [[True, True], [False, True]],
           "tensor": [["bot", "bot"], ["bot", "top"]],
           "unit": "top", "bottom": "bot", "top": "top"}
# Quantale specs on both sides of the schema's oneOf: builtins with every
# kind of chain length, explicit tables, the keys of both branches at
# once, and of neither.
QUANTALES = ([{"builtin": kind, "m": m}
              for kind in ("boolean", "lawvere_chain", "ultrametric_chain", "chain")
              for m in (0, 1, 1.0, True, 2)]
             + [{"builtin": "boolean"}, _TABLES, {**_TABLES, "builtin": "boolean"},
                {**_TABLES, "m": 1}, {}])
NODES = st.one_of(
    st.sampled_from([True, False, 0, 1, 1.0, 2.5, -1, math.inf, -math.inf, math.nan,
                     "", "0", "e", "top", "bot", "boolean", None, [], {}]),
    st.sampled_from(QUANTALES),
    st.text(max_size=3),
    st.integers(-2, 6),
    st.lists(st.sampled_from(["0", "1", 0, 1, True, None]), max_size=3))
KEYS = st.sampled_from(["quantale", "group", "structure", "morphisms", "builtin", "m",
                        "elements", "table", "leq", "tensor", "unit", "bottom", "top",
                        "name", "target", "map", "extra"])


def _nodes(value, path=()):
    """Every node of a JSON value with its path, the root first."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated_documents(draw):
    """A valid document with one to three nodes replaced, deleted or
    added, or its quantale swapped for one of ``QUANTALES``."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 3))):
        path, node = draw(st.sampled_from(list(_nodes(doc))))
        op = draw(st.sampled_from(["replace", "delete", "add", "quantale"]))
        new = copy.deepcopy(draw(NODES))
        if op == "quantale" and isinstance(doc, dict):
            doc["quantale"] = copy.deepcopy(draw(st.sampled_from(QUANTALES)))
        elif op == "add" and isinstance(node, dict):
            node[draw(KEYS)] = new
        elif op == "add" and isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), new)
        elif not path:
            doc = new
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if op == "delete":
                del parent[path[-1]]
            else:
                parent[path[-1]] = new
    return doc


def perfbench_paths(tmp_path, monkeypatch):
    """The paths of the object and morphism documents the ``cli_documents``
    benchmark workload parses, written by its own set-up code."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    return workloads.write_documents(tmp_path / "pool", workloads.DOCUMENT_DRAW)[1]


def perfbench_documents(tmp_path, monkeypatch):
    """The documents at ``perfbench_paths``, parsed as JSON."""
    return [json.loads(path.read_text(encoding="utf-8"))
            for path in perfbench_paths(tmp_path, monkeypatch)]


class TestAcceptor:
    """``_accepts`` decides what ``_VALIDATOR.is_valid`` decides."""

    def test_agrees_on_suite_benchmark_and_shipped_documents(self, tmp_path, monkeypatch):
        values = (list(standard_suite("full").export_documents().values())
                  + perfbench_documents(tmp_path, monkeypatch) + shipped_documents())
        assert any("morphisms" in v for v in values)
        for value in values:
            assert (_accepts(value), _VALIDATOR.is_valid(value)) == (True, True)

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents())
    def test_agrees_on_mutants(self, value):
        assert _accepts(value) == _VALIDATOR.is_valid(value)

    @pytest.mark.parametrize("schema,values", [
        # both branches, one, none
        ({"oneOf": [{"type": "integer"}, {"minimum": 1}]}, [2, 0, 0.5, "x", True]),
        ({"type": "integer", "minimum": 1},
         [0, 1, 1.0, True, 2.5, math.inf, math.nan, -math.inf]),
        ({"minimum": 1}, [True, False, "0", None, math.nan, 0.5]),
        ({"type": ["string", "integer"]}, ["", 0, 2.0, False, None, [], {}]),
        ({"type": "array", "items": {"type": "boolean"}, "minItems": 1},
         [[], [True], [1], [True, 0], (True,), {}]),
        ({"enum": ["a", "b"]}, ["a", "c", 0, None, ["a"]]),
        ({"required": ["k"], "properties": {"k": {"type": "string"}},
          "additionalProperties": False},
         [{}, {"k": "v"}, {"k": 1}, {"k": "v", "j": 1}, [], "k"]),
        ({"$defs": {"d": {"type": "string"}}, "items": {"$ref": "#/$defs/d"}},
         [[], ["s"], [1], "s"]),
    ])
    def test_keyword_semantics(self, schema, values):
        accepts = _compile(schema)
        validator = jsonschema.Draft202012Validator(schema)
        for value in values:
            assert accepts(value) == validator.is_valid(value), value

    @pytest.mark.parametrize("schema", [
        {"pattern": "x"},
        {"enum": ["a", 1]},
        {"type": "number"},
        {"additionalProperties": {"type": "string"}},
        {"$ref": "https://example.com/schema"},
        {"$ref": "#/$defs/missing"},
        {"items": True},
        {"properties": {"k": {"$defs": {}}}},
    ])
    def test_uncovered_schema_raises(self, schema):
        with pytest.raises(ValueError, match="schema acceptor does not cover"):
            _compile(schema)

    def test_valid_document_never_asks_jsonschema(self, monkeypatch):
        class Refusing:
            def iter_errors(self, value):
                raise AssertionError("jsonschema was asked")

        monkeypatch.setattr(document, "_VALIDATOR", Refusing())
        for value in shipped_documents() + BASES[-3:]:
            parse_document(value, base_dir=DOCS)
        with pytest.raises(AssertionError, match="jsonschema was asked"):
            parse_document({"quantale": {"builtin": "boolean"}})

    def test_disagreement_is_an_error(self, monkeypatch):
        monkeypatch.setattr(document, "_accepts", lambda value: False)
        with pytest.raises(StructuralError,
                           match="acceptor rejects a document that jsonschema accepts"):
            parse_document(minimal_doc())
