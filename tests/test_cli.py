import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings

from vgroups import (FiniteGroup, boolean, discrete_vgroup, enumerate_structures, laws,
                     lawvere_chain, validate_vgroup)
from vgroups.cli import run
from vgroups.document import _VALIDATOR, canonical_json, document_from_vgroup
from vgroups.errors import TheoremCheckError

from test_document import mutated_documents
from test_vgroup import dihedral8, quaternion8

DOCS = Path(__file__).parent.parent / "documents"
TEST_DOCS = Path(__file__).parent / "documents"
EXPECTED = Path(__file__).parent / "expected"


def invoke(*argv):
    out = io.StringIO()
    code = run(list(argv), out=out)
    return code, out.getvalue()


def referencing_document(target):
    """Z2 over the booleans with one morphism whose target is a file path."""
    return {"quantale": {"builtin": "boolean"},
            "group": {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]},
            "structure": [["top", "bot"], ["bot", "top"]],
            "morphisms": [{"name": "f", "target": target, "map": ["0", "1"]}]}


class TestValidate:
    def test_shipped_documents_pass(self):
        code, text = invoke("validate",
                            "--input", str(DOCS / "z4_boolean.json"),
                            "--input", str(DOCS / "z4_lawvere.json"),
                            "--input", str(DOCS / "z4_boolean_morphism.json"),
                            "--format", "json")
        assert code == 0
        assert json.loads(text)["ok"] is True

    def test_law_violation_exits_one_with_witness(self, tmp_path):
        # transitivity broken: profile (top, top, bot) over Z3
        doc = {
            "quantale": {"builtin": "boolean"},
            "group": {"elements": ["0", "1", "2"],
                      "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]},
            "structure": [["top", "top", "bot"],
                          ["bot", "top", "top"],
                          ["top", "bot", "top"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        code, text = invoke("validate", "--input", str(path), "--format", "json")
        assert code == 1
        report = json.loads(text)
        violations = report["documents"][0]["structure"]["violations"]
        assert {"law": "transitivity", "witness": ["0", "1", "2"]} in violations

    def test_structural_error_exits_two(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"quantale\": {\"builtin\": \"boolean\"}}", encoding="utf-8")
        code, _ = invoke("validate", "--input", str(path))
        assert code == 2

    @pytest.mark.parametrize("table, message", [
        # a Latin square with identity 0 and unique inverses
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
          [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
         "Cayley table not associative at (1, 1, 2)"),
        ([[0, 0], [0, 0]], "Cayley table has no identity element"),
    ])
    def test_lawless_cayley_table_exits_two(self, tmp_path, capsys, table, message):
        n = len(table)
        path = tmp_path / "lawless.json"
        path.write_text(canonical_json({
            "quantale": {"builtin": "boolean"},
            "group": {"elements": [str(i) for i in range(n)], "table": table},
            "structure": [["top" if x == y else "bot" for y in range(n)]
                          for x in range(n)]}), encoding="utf-8")
        assert invoke("validate", "--input", str(path)) == (2, "")
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_non_utf8_document_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{")
        code, text = invoke("validate", "--input", str(path))
        assert (code, text) == (2, "")

    def test_self_referencing_target_exits_two(self, tmp_path, capsys):
        path = tmp_path / "self.json"
        path.write_text(canonical_json(referencing_document("self.json")),
                        encoding="utf-8")
        assert invoke("validate", "--input", str(path))[0] == 2
        assert "self.json is part of a document reference cycle" in \
            capsys.readouterr().err

    def test_two_file_reference_cycle_exits_two(self, tmp_path, capsys):
        for name, other in (("a.json", "b.json"), ("b.json", "a.json")):
            (tmp_path / name).write_text(
                canonical_json(referencing_document(other)), encoding="utf-8")
        assert invoke("validate", "--input", str(tmp_path / "a.json"))[0] == 2
        err = capsys.readouterr().err
        assert "a.json is part of a document reference cycle" in err
        assert "b.json ->" in err

    def test_fractional_chain_length_exits_two(self, tmp_path, capsys):
        # JSON Schema's "integer" admits 2.0
        path = tmp_path / "doc.json"
        path.write_text(canonical_json(cyclic_document(
            2, {"builtin": "lawvere_chain", "m": 2.0})), encoding="utf-8")
        assert invoke("validate", "--input", str(path)) == (2, "")
        assert "input error: lawvere_chain length m must be an integer, not 2.0" in \
            capsys.readouterr().err

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        # Near the recursion limit the parser gives up, then (a few levels
        # shallower, where exactly depends on the stack) the schema check,
        # then neither: walk down until the schema rejects the document.
        path = tmp_path / "deep.json"
        for depth in (100_000, *range(1000, 0, -1)):
            path.write_text("[" * depth + "]" * depth, encoding="utf-8")
            assert invoke("validate", "--input", str(path)) == (2, ""), depth
            err = capsys.readouterr().err
            assert err.startswith("input error: "), depth
            if "does not match the schema" in err:
                break
        assert depth < 1000

    def test_schema_error_names_the_place_not_the_value(self, tmp_path, capsys):
        # jsonschema's own message quotes the whole rejected value
        path = tmp_path / "integers.json"
        path.write_text(json.dumps(list(range(200_000))), encoding="utf-8")
        assert invoke("validate", "--input", str(path)) == (2, "")
        err = capsys.readouterr().err
        assert "document does not match the schema: 'type' fails at $" in err
        assert len(err.encode()) < 1024

    def test_missing_input_exits_two(self):
        code, _ = invoke("classify")
        assert code == 2

    def test_unknown_flag_exits_two(self):
        code, _ = invoke("validate", "--frobnicate")
        assert code == 2

    def test_seed_order_flag_is_gone(self):
        assert invoke("suite", "--seed-order", "canonical")[0] == 2

    def test_computing_command_on_lawless_input_exits_one(self, tmp_path):
        doc = {
            "quantale": {"builtin": "boolean"},
            "group": {"elements": ["0", "1", "2"],
                      "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]},
            "structure": [["top", "top", "bot"],
                          ["bot", "top", "top"],
                          ["top", "bot", "top"]],
        }
        path = tmp_path / "bad.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        code, text = invoke("decompose", "--input", str(path), "--format", "json")
        assert code == 1
        assert json.loads(text)["ok"] is False

    def test_route_disagreement_over_a_lawless_quantale_is_reported(self, tmp_path,
                                                                   capsys):
        # the route equivalence is a theorem over lawful quantales only
        doc = {
            "quantale": {"elements": ["e0", "e1"],
                         "leq": [[True, True], [True, True]],
                         "tensor": [["e0", "e0"], ["e0", "e0"]],
                         "unit": "e1", "bottom": "e0", "top": "e1"},
            "group": {"elements": ["0", "1", "2"],
                      "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]},
            "structure": [["e1", "e1", "e1"], ["e0", "e1", "e0"], ["e1", "e0", "e0"]],
        }
        path = tmp_path / "lawless_quantale.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        code, text = invoke("validate", "--input", str(path), "--format", "json")
        assert code == 1
        report = json.loads(text)["documents"][0]
        assert report["quantale"]["ok"] is False
        assert report["structure"]["notes"]["routes_agree"] is False
        assert "theorem check failed" not in capsys.readouterr().err

    def test_route_disagreement_over_a_lawful_quantale_raises(self, monkeypatch, bool_q,
                                                              z2):
        monkeypatch.setattr(laws, "addition_compatibility",
                            lambda q, a, op: (0, 0, 0, 0))
        with pytest.raises(TheoremCheckError):
            validate_vgroup(discrete_vgroup(z2, bool_q))

    def test_invalid_inline_target_detected(self, tmp_path):
        doc = {
            "quantale": {"builtin": "lawvere_chain", "m": 2},
            "group": {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]},
            "structure": [["0", "1"], ["1", "0"]],
            "morphisms": [{
                "name": "f",
                # target structure violates reflexivity: diagonal below the unit
                "target": {"group": {"elements": ["0", "1"],
                                     "table": [["0", "1"], ["1", "0"]]},
                           "structure": [["1", "2"], ["2", "1"]]},
                "map": ["0", "0"],
            }],
        }
        path = tmp_path / "doc.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        code, text = invoke("validate", "--input", str(path), "--format", "json")
        assert code == 1
        morphism_report = json.loads(text)["documents"][0]["morphisms"]["f"]
        assert morphism_report["target_structure"]["ok"] is False


class TestCommandsAgainstFrozenOutputs:
    @pytest.mark.parametrize("name,argv", [
        ("classify_z4_boolean.json",
         ("classify", "--input", str(DOCS / "z4_boolean.json"))),
        ("classify_z4_lawvere.json",
         ("classify", "--input", str(DOCS / "z4_lawvere.json"))),
        ("classify_morphism_q.json",
         ("classify", "--input", str(DOCS / "z4_boolean_morphism.json"),
          "--morphism", "q")),
        ("decompose_z4_boolean.json",
         ("decompose", "--input", str(DOCS / "z4_boolean.json"))),
        ("decompose_z4_lawvere.json",
         ("decompose", "--input", str(DOCS / "z4_lawvere.json"))),
        ("factorize_q.json",
         ("factorize", "--input", str(DOCS / "z4_boolean_morphism.json"),
          "--morphism", "q")),
        ("ml_factorize_q.json",
         ("ml-factorize", "--input", str(DOCS / "z4_boolean_morphism.json"),
          "--morphism", "q")),
        ("cover_q.json",
         ("cover", "--input", str(DOCS / "z4_boolean_morphism.json"),
          "--morphism", "q")),
        ("pretorsion_z4_lawvere.json",
         ("pretorsion", "--input", str(DOCS / "z4_lawvere.json"))),
        ("validate_z4_boolean.json",
         ("validate", "--input", str(DOCS / "z4_boolean.json"))),
        ("descent_z4_boolean_w2.json",
         ("descent", "--input", str(DOCS / "z4_boolean.json"), "--window", "2")),
        # every structure law but reflexivity fails, so the first witness of
        # each scan is frozen; the morphism's target fails reflexivity
        ("validate_lawless_z4.json",
         ("validate", "--input", str(TEST_DOCS / "lawless_z4.json"))),
        # a nonabelian base with three structure values
        ("descent_s3_lawvere_w2.json",
         ("descent", "--input", str(TEST_DOCS / "s3_lawvere.json"), "--window", "2")),
        # every check of the smoke battery, its counts and failures
        ("suite_smoke.json", ("suite", "--suite-level", "smoke")),
        # the largest descent outputs: the kernel pair at radius 3
        ("descent_z4_boolean_w3.json",
         ("descent", "--input", str(DOCS / "z4_boolean.json"), "--window", "3")),
        ("descent_s3_lawvere_w3.json",
         ("descent", "--input", str(TEST_DOCS / "s3_lawvere.json"), "--window", "3")),
        # the smallest windows, on which every descent law is decided
        ("descent_z4_boolean_w1.json",
         ("descent", "--input", str(DOCS / "z4_boolean.json"), "--window", "1")),
        ("descent_s3_lawvere_w1.json",
         ("descent", "--input", str(TEST_DOCS / "s3_lawvere.json"), "--window", "1")),
    ])
    def test_byte_identical(self, name, argv):
        code, text = invoke(*argv, "--format", "json")
        expected = (EXPECTED / name).read_text(encoding="utf-8")
        assert code == (0 if json.loads(expected).get("ok", True) else 1)
        assert text == expected

    def test_classify_semantic_values(self):
        code, text = invoke("classify", "--input", str(DOCS / "z4_boolean.json"),
                            "--format", "json")
        report = json.loads(text)
        assert report["object"] == {"discrete": False, "indiscrete": False,
                                    "separated": False, "symmetric": True}

    def test_decompose_semantic_values(self):
        code, text = invoke("decompose", "--input", str(DOCS / "z4_boolean.json"),
                            "--format", "json")
        report = json.loads(text)["decomposition"]
        assert report["torsion_carrier"] == ["0", "2"]
        assert report["quotient_structure"] == [["top", "bot"], ["bot", "top"]]

    def test_cover_semantic_values(self):
        code, text = invoke("cover", "--input", str(DOCS / "z4_boolean_morphism.json"),
                            "--morphism", "q", "--format", "json")
        report = json.loads(text)
        assert report["is_covering"] is False
        assert report["kernel_carrier"] == ["0", "2"]
        assert report["kernel_class"]["indiscrete"] is True


class TestRunsInOneProcess:
    """``run`` shares one parser and one dispatch table between calls."""

    ONE = ("validate", "--input", str(DOCS / "z4_boolean.json"), "--format", "json")

    def expected(self):
        return 0, (EXPECTED / "validate_z4_boolean.json").read_text(encoding="utf-8")

    def test_repeated_input_does_not_accumulate(self):
        code, text = invoke("validate", "--input", str(DOCS / "z4_lawvere.json"), *self.ONE[1:])
        assert code == 0 and len(json.loads(text)["documents"]) == 2
        assert invoke(*self.ONE) == self.expected()

    def test_bad_flag_leaves_the_next_call_unchanged(self, capsys):
        assert invoke(*self.ONE, "--window", "wide") == (2, "")
        assert "invalid int value" in capsys.readouterr().err
        assert invoke(*self.ONE) == self.expected()


class TestDescentCommand:
    def test_runs_clean(self):
        code, text = invoke("descent", "--input", str(DOCS / "z4_boolean.json"),
                            "--window", "2", "--format", "json")
        assert code == 0
        report = json.loads(text)
        assert report["window_checks"]["ok"] is True
        assert report["kernel_pair_checks"]["ok"] is True
        assert report["window_dump"]["radius"] == 2
        assert len(report["window_dump"]["elements"]) == 5 * 4

    def test_text_format(self):
        code, text = invoke("descent", "--input", str(DOCS / "z4_boolean.json"),
                            "--window", "1")
        assert code == 0
        assert "window_checks" in text


class TestSuiteCommand:
    def test_smoke_suite_exits_zero(self):
        code, text = invoke("suite", "--suite-level", "smoke")
        assert code == 0
        assert "all checks passed" in text
        assert text.count("[PASS]") == 13

    def test_json_format(self):
        code, text = invoke("suite", "--suite-level", "smoke", "--format", "json")
        assert code == 0
        report = json.loads(text)
        assert report["ok"] is True
        assert len(report["checks"]) == 13


class TestMorphismLookup:
    def test_unknown_morphism_exits_two(self):
        code, _ = invoke("cover", "--input", str(DOCS / "z4_boolean_morphism.json"),
                         "--morphism", "nope")
        assert code == 2

    def test_factorize_needs_morphism(self):
        code, _ = invoke("factorize", "--input", str(DOCS / "z4_boolean_morphism.json"))
        assert code == 2


class TestNonIntegralGuards:
    def test_decompose_on_non_integral_exits_two(self, tmp_path, non_integral_q):
        doc = {
            "quantale": {
                "elements": list(non_integral_q.labels),
                "leq": [list(row) for row in non_integral_q.leq_table],
                "tensor": [[non_integral_q.labels[v] for v in row]
                           for row in non_integral_q.tensor_table],
                "unit": "1", "bottom": "0", "top": "2",
            },
            "group": {"elements": ["0", "1"], "table": [["0", "1"], ["1", "0"]]},
            "structure": [["1", "0"], ["0", "1"]],
        }
        path = tmp_path / "noint.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        code, _ = invoke("decompose", "--input", str(path))
        assert code == 2
        # but the pretorsion command accepts any quantale
        code, text = invoke("pretorsion", "--input", str(path), "--format", "json")
        assert code == 0


def cyclic_document(n, quantale):
    """Z_n with the indiscrete structure (every entry the top)."""
    names = [str(i) for i in range(n)]
    top = "top" if quantale == {"builtin": "boolean"} else "0"
    return {"quantale": quantale,
            "group": {"elements": names,
                      "table": [[names[(i + j) % n] for j in range(n)] for i in range(n)]},
            "structure": [[top] * n for _ in range(n)]}


class TestCapacityGuards:
    def write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        return str(path)

    def test_builtin_chain_length_over_the_cap_exits_three(self, tmp_path):
        for m, code in ((16, 0), (17, 3)):
            path = self.write(tmp_path, cyclic_document(
                2, {"builtin": "lawvere_chain", "m": m}))
            assert invoke("validate", "--input", path)[0] == code

    def test_window_over_the_cap_exits_three(self, tmp_path):
        # (2 * 24 + 1) levels of one point: 49 window elements, cap 48
        path = self.write(tmp_path, cyclic_document(1, {"builtin": "boolean"}))
        assert invoke("descent", "--input", path, "--window", "24") == (3, "")

    def test_kernel_pair_over_the_cap_exits_three(self, tmp_path):
        # 13 * 13 * 2 = 338 kernel-pair elements, cap 336; the window (26) fits
        path = self.write(tmp_path, cyclic_document(2, {"builtin": "boolean"}))
        assert invoke("descent", "--input", path, "--window", "6") == (3, "")


class TestPretorsionOnLargerCarriers:
    """Carriers of 7 and 8 elements, whose hom searches the pretorsion
    verifiers once priced at |B|^|A| maps and refused (exit 3)."""

    @pytest.mark.parametrize("group", [FiniteGroup.cyclic(7), FiniteGroup.cyclic(8),
                                       dihedral8(), quaternion8()],
                             ids=["Z7", "Z8", "D4", "Q8"])
    @pytest.mark.parametrize("spec,quantale", [
        ({"builtin": "boolean"}, boolean()),
        ({"builtin": "lawvere_chain", "m": 2}, lawvere_chain(2))],
        ids=["boolean", "lawvere_chain_2"])
    def test_first_middle_and_last_structure(self, tmp_path, group, spec, quantale):
        structures = enumerate_structures(group, quantale)
        for k in sorted({0, len(structures) // 2, len(structures) - 1}):
            path = tmp_path / f"{k}.json"
            path.write_text(canonical_json(document_from_vgroup(structures[k], spec)),
                            encoding="utf-8")
            code, text = invoke("pretorsion", "--input", str(path), "--format", "json")
            assert code == 0, k
            dec = json.loads(text)["decomposition"]
            assert dec["kernel_verification"]["ok"] and dec["cokernel_verification"]["ok"]


class TestMutatedDocuments:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=mutated_documents())
    def test_every_input_ends_in_an_exit_code(self, tmp_path, value):
        # ROADMAP's rule: exit 0, 1, 2 or 3, never a traceback
        path = tmp_path / "mutant.json"
        path.write_text(json.dumps(value), encoding="utf-8")
        valid = _VALIDATOR.is_valid(value)
        for command in ("validate", "classify", "decompose"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, _ = invoke(command, "--input", str(path))
            assert code in (0, 1, 2, 3), (command, code)
            if not valid:
                assert code == 2, command
                assert "input error: document does not match the schema: " in \
                    err.getvalue(), command
