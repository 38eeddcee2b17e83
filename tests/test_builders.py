import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vgroups import (builtin_quantale, classify_object, enumerate_structures,
                     standard_suite, trivial_vgroup, validate_quantale, validate_vgroup)
from vgroups.builders import SUITE_LEVELS, HomSet, group_roster
from vgroups.document import SCHEMA, document_from_vgroup, parse_document

SRC = Path(__file__).parent.parent / "src"
# suite_digest of each level, pinned: a changed object or hom-set moves it.
SMOKE_DIGEST = "0533ef8844e0386ec7bd82e7c90d78a461948815c40b132f49c5e2957c8280a0"
FULL_DIGEST = "d6e10978ac355a878ff7381bcf888e74bafb934ae728867db0888eb963823eb0"


def suite_digest(suite):
    """A digest of every object (name and structure) and every hom-set
    (ends, truncation, candidate count and mappings), in suite order."""
    digest = hashlib.sha256()
    for obj in suite.objects:
        digest.update(repr((obj.name, obj.vgroup.structure.entries)).encode())
    for hs in suite.hom_sets:
        digest.update(repr((hs.dom, hs.cod, hs.truncated, hs.candidates,
                            [f.mapping for f in hs.homs])).encode())
    return digest.hexdigest()


def digests_in_fresh_interpreters(levels, hash_seeds):
    """{hash seed: [digest per level]}, each seed's suites built in a
    ``python -c`` subprocess of its own; the subprocesses run side by side."""
    script = "\n".join([
        "import hashlib",
        "from vgroups import standard_suite",
        inspect.getsource(suite_digest),
        f"for level in {tuple(levels)!r}:",
        "    print(suite_digest(standard_suite(level)))",
    ])
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    runs = {seed: subprocess.Popen(
                [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed})
            for seed in hash_seeds}
    out = {}
    for seed, run in runs.items():
        stdout, _ = run.communicate(timeout=300)
        assert run.returncode == 0, seed
        out[seed] = stdout.split()
    return out


class TestRoster:
    def test_groups_present(self):
        roster = group_roster()
        assert set(roster) == {"Z1", "Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "S3"}
        assert roster["S3"].size == 6 and not roster["S3"].is_abelian
        assert roster["Z2xZ2"].size == 4


@pytest.fixture(scope="module")
def suite():
    return standard_suite("smoke")


class TestSmokeSuite:

    def test_level_composition(self, suite):
        assert [name for name, _ in suite.quantales] == ["boolean", "lawvere_chain_2"]
        assert [name for name, _ in suite.groups] == ["Z1", "Z2", "Z3", "Z4"]

    def test_object_counts(self, suite):
        def count(qname, gname):
            return sum(1 for o in suite.objects
                       if o.quantale_name == qname and o.group_name == gname)
        assert count("boolean", "Z2") == 2
        assert count("lawvere_chain_2", "Z2") == 3
        assert count("boolean", "Z1") == 1
        assert count("lawvere_chain_2", "Z1") == 1
        assert count("lawvere_chain_2", "Z3") == 5

    def test_every_object_validates(self, suite):
        for obj in suite.objects:
            assert validate_vgroup(obj.vgroup).ok

    def test_boolean_objects_symmetric(self, suite):
        for obj in suite.objects_over("boolean"):
            assert classify_object(obj.vgroup).symmetric

    def test_regeneration_bit_stable(self, suite):
        again = standard_suite("smoke")
        assert [o.vgroup for o in again.objects] == [o.vgroup for o in suite.objects]
        assert again.hom_sets == suite.hom_sets
        # across interpreters too, whatever the hash seed, at both levels
        here = [suite_digest(suite), suite_digest(standard_suite("full"))]
        assert here == [SMOKE_DIGEST, FULL_DIGEST]
        assert digests_in_fresh_interpreters(("smoke", "full"), ("0", "1")) == \
            {"0": here, "1": here}

    def test_no_truncation_at_smoke(self, suite):
        assert all(not hs.truncated for hs in suite.hom_sets)

    def test_hom_sets_only_within_a_quantale(self, suite):
        for hs in suite.hom_sets:
            assert (suite.objects[hs.dom].quantale_name
                    == suite.objects[hs.cod].quantale_name)

    def test_hom_sets_are_immutable_named_records(self, suite):
        assert HomSet._fields == ("dom", "cod", "homs", "truncated", "candidates")
        hs = suite.hom_sets[0]
        for name in HomSet._fields:
            with pytest.raises(AttributeError):
                setattr(hs, name, getattr(hs, name))
        with pytest.raises(AttributeError):
            hs.extra = 1
        assert hs == HomSet(hs.dom, hs.cod, hs.homs, hs.truncated, hs.candidates)

    def test_truncation_marker(self, monkeypatch):
        monkeypatch.setattr("vgroups.builders.TOTAL_HOM_BUDGET", 1000)
        tiny = standard_suite("smoke")
        assert any(hs.truncated for hs in tiny.hom_sets)
        assert any(hs.homs for hs in tiny.hom_sets)
        # in suite order, a hom-set is enumerated iff it fits what is left
        left = 1000
        for hs in tiny.hom_sets:
            if hs.truncated:
                assert hs.homs == () and hs.candidates > left
            else:
                left -= hs.candidates
        assert left >= 0

    def test_bad_level(self):
        for level in ("enormous", "Smoke", None, ["smoke"]):
            with pytest.raises(ValueError, match="unknown suite level"):
                standard_suite(level)

    def test_export_documents_round_trip(self, suite):
        from vgroups.document import document_text, parse_document
        exported = suite.export_documents()
        assert len(exported) == len(suite.objects)
        for obj in suite.objects:
            doc = parse_document(exported[obj.name])
            assert doc.vgroup == obj.vgroup
            text = document_text(doc)
            assert document_text(parse_document(json.loads(text))) == text


@pytest.mark.parametrize("level", ["smoke", "full"])
def test_structures_on_is_the_enumeration(level):
    # check_pretorsion reads its greatest-symmetric candidates from here
    suite = standard_suite(level)
    for qname, q in suite.quantales:
        for gname, grp in suite.groups:
            assert suite.structures_on(qname, gname) == \
                list(enumerate_structures(grp, q)), (qname, gname)
    assert suite.structures_on("boolean", "no such group") == []


@pytest.mark.slow
def test_full_suite_generates():
    suite = standard_suite("full")
    assert [name for name, _ in suite.quantales] == [
        "boolean", "lawvere_chain_2", "ultrametric_chain_3", "lawvere_chain_3"]
    assert [name for name, _ in suite.groups] == [
        "Z1", "Z2", "Z3", "Z4", "Z2xZ2", "Z5", "S3"]
    for obj in suite.objects:
        assert validate_vgroup(obj.vgroup).ok
    # nonabelian boolean objects are exactly the normal-subgroup indicators
    s3_bool = [o for o in suite.objects
               if o.group_name == "S3" and o.quantale_name == "boolean"]
    assert len(s3_bool) == 3


def test_full_level_extends_smoke():
    smoke, full = SUITE_LEVELS["smoke"], SUITE_LEVELS["full"]
    assert list(SUITE_LEVELS) == ["smoke", "full"]
    assert full.quantales[:len(smoke.quantales)] == smoke.quantales
    assert full.groups[:len(smoke.groups)] == smoke.groups


def schema_builtin_kinds():
    """The builtin quantale kinds the shipped document schema admits."""
    (kinds,) = [alt["properties"]["builtin"]["enum"]
                for alt in SCHEMA["properties"]["quantale"]["oneOf"]
                if "builtin" in alt.get("properties", {})]
    return kinds


def test_every_schema_builtin_kind_builds():
    for kind in schema_builtin_kinds():
        assert validate_quantale(builtin_quantale(kind, 2)).ok, kind


@pytest.mark.parametrize("level", list(SUITE_LEVELS))
def test_every_level_quantale_exports_a_document_that_parses(level):
    for name, spec in SUITE_LEVELS[level].quantales:
        assert spec["builtin"] in schema_builtin_kinds(), name
        q = builtin_quantale(spec["builtin"], spec.get("m"))
        doc = parse_document(document_from_vgroup(trivial_vgroup(q), spec))
        assert doc.quantale == q, name
