"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is exact (zero failures tolerated) except the stated
wall-clock budgets, which are asserted directly.
"""

import io
import json
import time
from pathlib import Path

import pytest

from vgroups import (Quantale, VRel, boolean, classify_morphism,
                     classify_object, decompose, descent_cover, is_covering,
                     kernel, lawvere_chain, monotone_light_factorize,
                     pretorsion_decompose, quotient_vgroup,
                     reflective_factorize, standard_suite, subobject,
                     symmetric_coreflect, ultrametric_chain, validate_quantale,
                     verify_cover_window, zero_hom)
from vgroups.battery import (check_kernel_cokernel_roundtrips,
                             check_ses_morphism_pullback,
                             route_agreement_counts)
from vgroups.cli import run as cli_run
from vgroups.torsion import default_test_family

DOCS = Path(__file__).parent.parent / "documents"
EXPECTED = Path(__file__).parent / "expected"


@pytest.fixture(scope="module")
def suite():
    return standard_suite("smoke")


def verdict(number, name, ok, detail=""):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def builtin_quantales():
    """Criterion 1's builtins."""
    return [boolean()] + [lawvere_chain(m) for m in (1, 2, 3, 4)] + \
        [ultrametric_chain(m) for m in (1, 2, 3, 4)]


def corrupted_quantales():
    """(tables, the law they break): criterion 1's corruptions."""
    corrupted = []
    # annihilation broken: top tensor bottom = top
    corrupted.append((Quantale(["bot", "top"], [[True, True], [False, True]],
                               [[0, 0], [1, 1]], 1, 0, 1),
                      "tensor-annihilates-bottom"))
    # associativity broken on the 3-chain
    base = lawvere_chain(2)
    tensor = [list(r) for r in base.tensor_table]
    tensor[2][2] = 1
    corrupted.append((Quantale(base.labels, base.leq_table, tensor, 0, 2, 0),
                      "tensor-associative"))
    # unit misdeclared at the middle of the chain
    corrupted.append((Quantale(base.labels, base.leq_table, base.tensor_table,
                               1, 2, 0), "tensor-unit"))
    # order broken: bottom no longer below top
    corrupted.append((Quantale(["bot", "top"], [[True, False], [False, True]],
                               [[0, 0], [0, 1]], 1, 0, 1), "bottom-is-least"))
    # diamond lattice: meets fail to distribute over joins
    leq = [[True] * 5,
           [False, True, False, False, True],
           [False, False, True, False, True],
           [False, False, False, True, True],
           [False, False, False, False, True]]
    def meet(u, v):
        if leq[u][v]:
            return u
        if leq[v][u]:
            return v
        return 0
    diamond = Quantale(["bot", "a", "b", "c", "top"], leq,
                       [[meet(u, v) for v in range(5)] for u in range(5)],
                       4, 0, 4)
    corrupted.append((diamond, "frame-meets-distribute-over-joins"))
    return corrupted


def test_criterion_1_quantale_laws():
    start = time.monotonic()
    for q in builtin_quantales():
        assert validate_quantale(q).ok

    corrupted = corrupted_quantales()
    failures = []
    for q, law in corrupted:
        report = validate_quantale(q)
        if report.ok or law not in report.laws_violated():
            failures.append((law, report.laws_violated()))
    elapsed = time.monotonic() - start
    verdict(1, "quantale laws", not failures and elapsed < 1.0,
            f"(9 builtins pass, {len(corrupted)} corruptions rejected, "
            f"{elapsed:.2f}s)")


def test_criterion_2_shift_compatibility_equivalence(suite):
    start = time.monotonic()
    total = disagreements = 0
    for _, q in suite.quantales:
        for _, grp in suite.groups:
            cands, dis, _, _ = route_agreement_counts(grp, q)
            total += cands
            disagreements += dis
    elapsed = time.monotonic() - start
    verdict(2, "shift/compatibility equivalence",
            disagreements == 0 and total >= 10_000 and elapsed < 30.0,
            f"({total} candidates, {disagreements} disagreements, {elapsed:.1f}s)")


def test_criterion_3_torsion_theory(suite):
    failures = []
    for obj in suite.objects:
        dec = decompose(obj.vgroup)
        if not classify_object(dec.torsion).indiscrete:
            failures.append((obj.name, "kernel not indiscrete"))
        if not classify_object(dec.quotient).separated:
            failures.append((obj.name, "quotient not separated"))
        # both structure equations, recomputed by relation composition
        q = obj.vgroup.quantale
        inc = VRel.from_function(q, dec.injection.mapping, obj.vgroup.size)
        if inc.then(obj.vgroup.structure).then(inc.converse()) \
                != dec.torsion.structure:
            failures.append((obj.name, "kernel equation"))
        proj = VRel.from_function(q, dec.projection.mapping, dec.quotient.size)
        if proj.converse().then(obj.vgroup.structure).then(proj) \
                != dec.quotient.structure:
            failures.append((obj.name, "cokernel equation"))
        if obj.vgroup.size <= 4:
            canonical = set(dec.injection.mapping)
            for alt in obj.vgroup.group.all_normal_subgroups():
                t_alt, _ = subobject(obj.vgroup, alt)
                f_alt, _ = quotient_vgroup(obj.vgroup, alt)
                if classify_object(t_alt).indiscrete and \
                        classify_object(f_alt).separated and set(alt) != canonical:
                    failures.append((obj.name, "non-unique sequence"))
    pairs = 0
    for i, t_obj in enumerate(suite.objects):
        if not classify_object(t_obj.vgroup).indiscrete:
            continue
        for j, f_obj in enumerate(suite.objects):
            if t_obj.quantale_name != f_obj.quantale_name:
                continue
            if not classify_object(f_obj.vgroup).separated:
                continue
            hs = suite.homs_between(i, j)
            pairs += 1
            if hs.homs != (zero_hom(t_obj.vgroup, f_obj.vgroup),):
                failures.append((t_obj.name, f_obj.name, "hom not vanishing"))
    verdict(3, "torsion theory", not failures,
            f"({len(suite.objects)} objects, {pairs} vanishing pairs)")


def test_criterion_4_factorization_characterizations(suite):
    failures = []
    checked = 0
    for dom, cod, f in suite.all_homs():
        checked += 1
        try:
            classify_morphism(f)  # raises if any route pair disagrees
            refl = reflective_factorize(f)
            light = monotone_light_factorize(f)
        except Exception as exc:  # noqa: BLE001 - report and fail below
            failures.append((dom.name, cod.name, f.mapping, repr(exc)))
            continue
        if refl.e.then(refl.m) != f or light.e.then(light.m) != f:
            failures.append((dom.name, cod.name, f.mapping, "composite"))
    verdict(4, "factorization characterizations", not failures,
            f"({checked} morphisms, both systems post-verified)")


def test_criterion_5_covering_predicate(suite, z4_bool, quotient_to_z2):
    failures = []
    checked = 0
    for dom, cod, f in suite.all_homs():
        checked += 1
        ker_obj, _ = kernel(f)
        if is_covering(f) != classify_object(ker_obj).separated:
            failures.append((dom.name, cod.name, f.mapping))
    worked_ok = (is_covering(quotient_to_z2) is False)
    ker_obj, inc = kernel(quotient_to_z2)
    worked_ok &= inc.mapping == (0, 2) and classify_object(ker_obj).indiscrete
    verdict(5, "covering predicate", not failures and worked_ok,
            f"({checked} morphisms, worked example covering=False kernel=(0,2))")


def test_criterion_6_descent_cover(suite):
    start = time.monotonic()
    failures = []
    for obj in suite.objects:
        cover, _ = descent_cover(obj.vgroup)
        joins = []
        for radius in (1, 2, 3, 4):
            report = verify_cover_window(cover, radius)
            if not report.ok:
                failures.append((obj.name, radius, report.laws_violated()))
            joins.append(tuple(report.notes["finality_joins"]))
        if any(j != joins[0] for j in joins):
            failures.append((obj.name, "joins not stable across radii"))
    elapsed = time.monotonic() - start
    verdict(6, "descent cover windows", not failures and elapsed < 60.0,
            f"({len(suite.objects)} objects, radii 1-4, {elapsed:.1f}s)")


def test_criterion_7_pretorsion(suite):
    failures = []
    for qname in ("boolean", "lawvere_chain_2"):
        small = [o.vgroup for o in suite.objects_over(qname) if o.vgroup.size <= 3]
        for obj in suite.objects_over(qname):
            family = default_test_family(obj.vgroup)
            for extra in small:
                if extra not in family:
                    family.append(extra)
            try:
                dec = pretorsion_decompose(obj.vgroup, test_objects=family)
            except Exception as exc:  # noqa: BLE001
                failures.append((obj.name, repr(exc)))
                continue
            if not dec.kernel_report.ok or not dec.cokernel_report.ok:
                failures.append((obj.name, "universal property"))
    greatest = 0
    for obj in suite.objects:
        if obj.vgroup.size > 4:
            continue
        hat = symmetric_coreflect(obj.vgroup)
        if not classify_object(hat).symmetric or \
                not hat.structure.leq(obj.vgroup.structure):
            failures.append((obj.name, "symmetrization"))
        from vgroups import enumerate_structures
        for cand in enumerate_structures(obj.vgroup.group, obj.vgroup.quantale):
            if classify_object(cand).symmetric and \
                    cand.structure.leq(obj.vgroup.structure):
                greatest += 1
                if not cand.structure.leq(hat.structure):
                    failures.append((obj.name, "not greatest", cand.delta()))
    verdict(7, "pretorsion theory", not failures,
            f"({len(suite.objects)} objects, {greatest} greatest-symmetric candidates)")


def test_criterion_8_normal_category_lemmas(suite):
    first = check_kernel_cokernel_roundtrips(suite)
    second = check_ses_morphism_pullback(suite)
    verdict(8, "normal-category lemmas, parts 1 and 2",
            first.ok and second.ok,
            f"({first.details['checked']} roundtrips, "
            f"{second.details['checked']} sequence morphisms)")


def test_criterion_9_cli_byte_identical():
    cases = {
        "classify_z4_boolean.json":
            ["classify", "--input", str(DOCS / "z4_boolean.json")],
        "classify_z4_lawvere.json":
            ["classify", "--input", str(DOCS / "z4_lawvere.json")],
        "classify_morphism_q.json":
            ["classify", "--input", str(DOCS / "z4_boolean_morphism.json"),
             "--morphism", "q"],
        "decompose_z4_boolean.json":
            ["decompose", "--input", str(DOCS / "z4_boolean.json")],
        "decompose_z4_lawvere.json":
            ["decompose", "--input", str(DOCS / "z4_lawvere.json")],
        "factorize_q.json":
            ["factorize", "--input", str(DOCS / "z4_boolean_morphism.json"),
             "--morphism", "q"],
        "ml_factorize_q.json":
            ["ml-factorize", "--input", str(DOCS / "z4_boolean_morphism.json"),
             "--morphism", "q"],
        "cover_q.json":
            ["cover", "--input", str(DOCS / "z4_boolean_morphism.json"),
             "--morphism", "q"],
    }
    failures = []
    for name, argv in cases.items():
        out = io.StringIO()
        code = cli_run(argv + ["--format", "json"], out=out)
        expected = (EXPECTED / name).read_text(encoding="utf-8")
        if code != 0 or out.getvalue() != expected:
            failures.append(name)

    # the documented values, independently of the frozen bytes
    out = io.StringIO()
    cli_run(["decompose", "--input", str(DOCS / "z4_boolean.json"),
             "--format", "json"], out=out)
    dec = json.loads(out.getvalue())["decomposition"]
    if dec["torsion_carrier"] != ["0", "2"]:
        failures.append("torsion carrier value")
    if dec["quotient_structure"] != [["top", "bot"], ["bot", "top"]]:
        failures.append("quotient structure value")

    # exit-code taxonomy: 0 ok, 1 math failure, 2 input error
    out = io.StringIO()
    if cli_run(["validate", "--input", str(DOCS / "z4_boolean.json")], out=out) != 0:
        failures.append("exit 0")
    bad_law = {
        "quantale": {"builtin": "boolean"},
        "group": {"elements": ["0", "1", "2"],
                  "table": [["0", "1", "2"], ["1", "2", "0"], ["2", "0", "1"]]},
        "structure": [["top", "top", "bot"], ["bot", "top", "top"],
                      ["top", "bot", "top"]],
    }
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        bad_path = Path(tmp) / "bad.json"
        bad_path.write_text(json.dumps(bad_law), encoding="utf-8")
        if cli_run(["validate", "--input", str(bad_path)], out=io.StringIO()) != 1:
            failures.append("exit 1")
        broken = Path(tmp) / "broken.json"
        broken.write_text("{}", encoding="utf-8")
        if cli_run(["validate", "--input", str(broken)], out=io.StringIO()) != 2:
            failures.append("exit 2")
    verdict(9, "command line reproducibility", not failures, f"{failures or ''}")
