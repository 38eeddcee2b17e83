import itertools
import sys

import pytest

from vgroups import (CapacityError, FiniteGroup, NonIntegralQuantaleError,
                     Quantale, StructuralError, VHom, builtin_quantale,
                     classify_hom, classify_object,
                     coreflect, coreflect_morphism, decompose,
                     discrete_vgroup, enumerate_homs, enumerate_structures,
                     identity_hom, image_factorize, indiscrete_vgroup,
                     is_isomorphism, is_null_morphism, is_null_object,
                     lawvere_chain, pretorsion_decompose, quotient_vgroup,
                     reflect, reflect_morphism, standard_suite,
                     structure_from_delta, symmetric_coreflect, torsion_part,
                     trivial_vgroup, validate_hom, validate_quantale,
                     verify_pretorsion_cokernel, verify_pretorsion_kernel,
                     vgroup_isomorphism, zero_hom)
from vgroups.builders import SUITE_LEVELS, group_roster
from vgroups import laws, torsion
from vgroups.battery import (PRETORSION_FAMILY_MAX_CARRIER, PRETORSION_QUANTALES,
                             THEOREM_FAILURES, check_pretorsion)
from vgroups.torsion import ClassCache, default_test_family


class TestTorsionPart:
    def test_indiscrete_is_all(self, z2_indiscrete):
        assert torsion_part(z2_indiscrete) == (0, 1)

    def test_discrete_is_zero(self, z2_discrete):
        assert torsion_part(z2_discrete) == (0,)

    def test_worked_example(self, z4_bool):
        assert torsion_part(z4_bool) == (0, 2)

    def test_chain_example(self, z4_law):
        assert torsion_part(z4_law) == (0,)

    def test_normal_over_non_integral(self, non_integral_q):
        z4 = FiniteGroup.cyclic(4)
        for structures in [enumerate_structures(z4, non_integral_q)]:
            for vg in structures:
                members = torsion_part(vg)
                assert vg.group.is_normal_subgroup(members)

    def test_normal_over_every_builtin(self, bool_q, law2, ultra2):
        z4 = FiniteGroup.cyclic(4)
        for q in (bool_q, law2, ultra2):
            for vg in enumerate_structures(z4, q):
                assert vg.group.is_normal_subgroup(torsion_part(vg))


class TestDecompose:
    def test_separated_object(self, z4_law):
        dec = decompose(z4_law)
        assert dec.torsion.size == 1
        assert is_isomorphism(dec.projection)

    def test_indiscrete_object(self, z2_indiscrete):
        dec = decompose(z2_indiscrete)
        assert is_isomorphism(dec.injection)
        assert dec.quotient.size == 1

    def test_worked_example(self, z4_bool):
        dec = decompose(z4_bool)
        assert dec.injection.mapping == (0, 2)
        assert classify_object(dec.torsion).indiscrete
        assert classify_object(dec.quotient).separated
        assert classify_object(dec.quotient).discrete
        assert dec.quotient.size == 2

    def test_non_integral_rejected(self, non_integral_q, z2):
        obj = discrete_vgroup(z2, non_integral_q)
        with pytest.raises(NonIntegralQuantaleError):
            decompose(obj)

    def test_ultrametric_examples(self, ultra2, z3):
        # profile (0, 1, 1): only the identity sits at unit level both ways
        separated_obj = structure_from_delta(z3, ultra2, (0, 1, 1))
        dec = decompose(separated_obj)
        assert dec.torsion.size == 1 and is_isomorphism(dec.projection)
        full = indiscrete_vgroup(z3, ultra2)
        dec2 = decompose(full)
        assert dec2.torsion.size == 3 and dec2.quotient.size == 1

    def test_structure_equations_via_relations(self, z4_bool):
        # independent recomputation of both structure equations by
        # composing function-embedded relations
        from vgroups import VRel
        dec = decompose(z4_bool)
        inc = VRel.from_function(z4_bool.quantale, dec.injection.mapping, 4)
        induced = inc.then(z4_bool.structure).then(inc.converse())
        assert induced == dec.torsion.structure
        proj = VRel.from_function(z4_bool.quantale, dec.projection.mapping, 2)
        final = proj.converse().then(z4_bool.structure).then(proj)
        assert final == dec.quotient.structure


class TestReflection:
    def test_reflect_separated_is_iso(self, z4_law):
        quotient, unit = reflect(z4_law)
        assert is_isomorphism(unit)

    def test_coreflect_indiscrete_is_iso(self, z2_indiscrete):
        part, counit = coreflect(z2_indiscrete)
        assert is_isomorphism(counit)

    def test_reflect_worked_example(self, z4_bool, z2_discrete):
        quotient, unit = reflect(z4_bool)
        assert vgroup_isomorphism(quotient, z2_discrete) is not None

    def test_functoriality_and_naturality(self, bool_q, law2):
        # every morphism of the smoke suite
        roster = group_roster()
        for q in (bool_q, law2):
            objs = [vg for name in SUITE_LEVELS["smoke"].groups
                    for vg in enumerate_structures(roster[name], q)]
            for dom, cod in itertools.product(objs, repeat=2):
                for f in enumerate_homs(dom, cod):
                    reflected = reflect_morphism(f)
                    assert validate_hom(reflected).ok
                    _, unit_dom = reflect(dom)
                    _, unit_cod = reflect(cod)
                    assert unit_dom.then(reflected) == f.then(unit_cod)
                    restricted = coreflect_morphism(f)
                    assert validate_hom(restricted).ok
                    _, counit_dom = coreflect(dom)
                    _, counit_cod = coreflect(cod)
                    assert restricted.then(counit_cod) == counit_dom.then(f)


class TestSymmetricCoreflection:
    def test_symmetric_fixed(self, z4_bool):
        hat = symmetric_coreflect(z4_bool)
        assert hat.structure == z4_bool.structure

    def test_indiscrete_fixed(self, z2_indiscrete):
        hat = symmetric_coreflect(z2_indiscrete)
        assert hat.structure == z2_indiscrete.structure

    def test_chain_example(self, z4_law):
        hat = symmetric_coreflect(z4_law)
        assert hat.delta() == (0, 2, 2, 2)

    def test_greatest_symmetric_below(self, law2):
        z4 = FiniteGroup.cyclic(4)
        for vg in enumerate_structures(z4, law2):
            hat = symmetric_coreflect(vg)
            for other in enumerate_structures(z4, law2):
                if classify_object(other).symmetric and \
                        other.structure.leq(vg.structure):
                    assert other.structure.leq(hat.structure)


class TestNullClass:
    def test_discrete_is_null(self, z2_discrete):
        assert is_null_object(z2_discrete)

    def test_indiscrete_nontrivial_not_null(self, z2_indiscrete):
        assert not is_null_object(z2_indiscrete)

    def test_one_sided_example(self, law2, z2):
        obj = structure_from_delta(z2, law2, (0, 1))
        assert is_null_object(obj)

    def test_zero_morphism_null(self, z4_bool, z2_discrete):
        report = is_null_morphism(zero_hom(z4_bool, z2_discrete))
        assert report["is_null"] and report["method"] == "via-image"

    def test_symmetric_to_separated_always_null(self, bool_q, law2):
        z4 = FiniteGroup.cyclic(4)
        for q in (bool_q, law2):
            objs = enumerate_structures(z4, q)
            for dom, cod in itertools.product(objs, repeat=2):
                if not classify_object(dom).symmetric:
                    continue
                if not classify_object(cod).separated:
                    continue
                for f in enumerate_homs(dom, cod):
                    assert is_null_morphism(f)["is_null"]

    def test_identity_on_indiscrete_not_null(self, z2_indiscrete):
        assert not is_null_morphism(identity_hom(z2_indiscrete))["is_null"]


class TestRelativeUniversalProperties:
    def test_canonical_kernel_and_cokernel(self, z4_bool):
        dec = pretorsion_decompose(z4_bool)
        assert dec.kernel_report.ok
        assert dec.cokernel_report.ok

    def test_a_map_that_is_no_homomorphism_is_refused(self, bool_q, z3, z4, z2_discrete):
        """[0, 1, 1, 0] from discrete Z4 to Z2 is no homomorphism (it is
        null on its fibres but not on the cosets of {0, 3}), nor is
        [0, 1, 1] on Z3, whose image is no subgroup either:
        ``is_null_morphism`` refuses both, and each verifier refuses the
        first as ``candidate`` or as ``of``, with a run store given or not,
        naming the broken law."""
        obj = discrete_vgroup(z4, bool_q)
        of = VHom(obj, z2_discrete, [0, 1, 1, 0])
        on_z3 = discrete_vgroup(z3, bool_q)
        for f in (of, VHom(on_z3, on_z3, [0, 1, 1])):
            with pytest.raises(StructuralError, match="group-homomorphism law"):
                is_null_morphism(f)
        ident, ident_z2 = identity_hom(obj), identity_hom(z2_discrete)
        for verify, candidate, other in ((verify_pretorsion_kernel, ident, of),
                                         (verify_pretorsion_kernel, of, ident_z2),
                                         (verify_pretorsion_cokernel, ident_z2, of),
                                         (verify_pretorsion_cokernel, of, ident)):
            for cache in (None, ClassCache()):
                with pytest.raises(StructuralError, match="group-homomorphism law"):
                    verify(candidate, other, cache=cache)

    def test_zero_candidate_fails(self, z4_bool, bool_q):
        members = torsion_part(z4_bool)
        quotient, projection = quotient_vgroup(z4_bool, members)
        zero_candidate = zero_hom(trivial_vgroup(bool_q), z4_bool)
        report = verify_pretorsion_kernel(zero_candidate, projection)
        assert not report.ok
        assert "factorization-exists" in report.laws_violated()

    def test_wrong_cokernel_fails(self, z4_bool, bool_q):
        # the map to the one-point object is not the relative cokernel of
        # the symmetric comparison unless the symmetric part is everything
        comparison = VHom(symmetric_coreflect(z4_bool), z4_bool, range(4))
        to_point = zero_hom(z4_bool, trivial_vgroup(bool_q))
        report = verify_pretorsion_cokernel(to_point, comparison)
        assert not report.ok


    def test_quantification_capacity_guard(self, z4_bool, monkeypatch):
        # the whole quantification is refused before any hom-set is listed
        dec = pretorsion_decompose(z4_bool)
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 10)
        with pytest.raises(CapacityError, match="universal-property quantification"):
            verify_pretorsion_kernel(dec.comparison, dec.projection)
        with pytest.raises(CapacityError, match="universal-property quantification"):
            verify_pretorsion_cokernel(dec.projection, dec.comparison)


class TestPretorsionDecompose:
    def test_symmetric_object_comparison_identity(self, z4_bool):
        dec = pretorsion_decompose(z4_bool)
        assert dec.symmetric_part.structure == z4_bool.structure
        assert dec.comparison.mapping == tuple(range(4))

    def test_separated_object_projection_iso(self, z4_law):
        dec = pretorsion_decompose(z4_law)
        assert is_isomorphism(dec.projection)

    def test_chain_example(self, z4_law):
        dec = pretorsion_decompose(z4_law)
        assert dec.symmetric_part.delta() == (0, 2, 2, 2)
        assert dec.quotient.size == 4

    def test_works_over_non_integral(self, non_integral_q):
        """The pretorsion side works over any quantale: over the chain
        0 < 1 < 2 with unit 1, every structure on Z2 and Z3 has a verified
        pretorsion sequence, its family holding the top-valued point, and
        each null verdict the run keeps is that of the image route on the
        projection with its domain and kernel."""
        q, cache = non_integral_q, ClassCache()
        assert validate_quantale(q).ok and not q.is_integral
        checked = []
        for n in (2, 3):
            for g in enumerate_structures(FiniteGroup.cyclic(n), q):
                dec = pretorsion_decompose(g, cache=cache)
                assert dec.kernel_report.ok and dec.cokernel_report.ok
                assert trivial_vgroup(q, value=q.top) in default_test_family(g)
                checked.append(dec.notes["null_spot_checks"])
        assert checked == [17, 10, 17, 9, 21, 10, 21, 9]
        verdicts = cache.store[torsion._null_image]
        for (dom, members), verdict in verdicts.items():
            projection = quotient_vgroup(dom, members)[1]
            assert verdict == image_route(projection), (dom, members)
        assert set(verdicts.values()) == {True, False}

    def test_family_includes_symmetrization(self, z4_law):
        family = default_test_family(z4_law)
        assert any(o.structure == symmetric_coreflect(z4_law).structure
                   for o in family)


def full_level_objects():
    """The objects of the full suite (a superset of the smoke suite's),
    without its hom-sets."""
    roster = group_roster()
    return [vg for _, spec in SUITE_LEVELS["full"].quantales
            for name in SUITE_LEVELS["full"].groups
            for vg in enumerate_structures(
                roster[name], builtin_quantale(spec["builtin"], spec.get("m")))]


class TestHoldsByConstruction:
    """What the torsion constructions guarantee without re-checking it."""

    def test_decomposition_legs_are_normal_mono_and_regular_epi(self):
        objects = full_level_objects()
        assert len(objects) == 259
        for g in objects:
            dec = decompose(g)
            assert classify_hom(dec.injection).normal_mono, g
            assert classify_hom(dec.projection).regular_epi, g

    def test_structure_is_constant_on_torsion_cosets(self):
        # the lemma behind classify_morphism's characterizations: the
        # reflection's entry at (eta x, eta y) is a(x, y), so neither
        # characterization needs a structure clause
        for g in full_level_objects():
            d = decompose(g)
            for x in range(g.size):
                for y in range(g.size):
                    assert g.entry(x, y) == d.quotient.entry(
                        d.projection(x), d.projection(y)), (g, x, y)

    def test_symmetric_part_lies_below_its_object(self):
        for g in full_level_objects():
            assert symmetric_coreflect(g).structure.leq(g.structure), g


def lawless_quantales():
    """Order-and-tensor tables that break a quantale law each."""
    base = lawvere_chain(2)
    tensor = [list(row) for row in base.tensor_table]
    tensor[2][2] = 1
    return [
        # top tensor bottom is top
        Quantale(["bot", "top"], [[True, True], [False, True]],
                 [[0, 0], [1, 1]], 1, 0, 1),
        # associativity broken on the 3-chain
        Quantale(base.labels, base.leq_table, tensor, 0, 2, 0),
        # the unit declared at the middle of the chain
        Quantale(base.labels, base.leq_table, base.tensor_table, 1, 2, 0),
    ]


def image_route(f):
    """The null test of ``image_factorize``'s middle object: the final
    structure on f's own fibres, apart from the run store's cosets."""
    return is_null_object(image_factorize(f)[1])


class TestNullMorphismRoute:
    """``is_null_morphism`` reads the final structure on the cosets of the
    kernel; it must agree with the image route."""

    def test_every_smoke_morphism(self):
        seen = set()
        for _, _, f in standard_suite("smoke").all_homs():
            direct = is_null_morphism(f)["is_null"]
            assert direct == image_route(f), f
            seen.add(direct)
        assert seen == {True, False}

    def test_every_map_over_lawless_quantales(self):
        """On every homomorphism, ``is_null_morphism`` and the run store's
        verdict agree with the image route, one store for the whole grid,
        so a verdict may come from another map with the same domain and
        kernel; every other map is refused."""
        groups = (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3), FiniteGroup.cyclic(4))
        seen, cache, homs, refused = set(), ClassCache(), 0, 0
        for q in lawless_quantales():
            assert not validate_quantale(q).ok
            for grp in groups[:2]:
                cod = indiscrete_vgroup(grp, q)
                for src in groups:
                    for delta in itertools.product(range(q.size), repeat=src.size):
                        dom = structure_from_delta(src, q, delta)
                        for mapping in itertools.product(range(grp.size),
                                                         repeat=src.size):
                            f = VHom(dom, cod, mapping)
                            if laws.homomorphism(src.table, grp.table, mapping) is not None:
                                refused += 1
                                with pytest.raises(StructuralError,
                                                   match="group-homomorphism law"):
                                    is_null_morphism(f)
                                continue
                            homs += 1
                            via_image = image_route(f)
                            assert is_null_morphism(f)["is_null"] == via_image == \
                                torsion._is_null_hom(cache, f), (q, delta, mapping)
                            seen.add(via_image)
        assert seen == {True, False}
        assert refused > 0
        assert homs > len(cache.store[torsion._null_image]) > 0

    @pytest.mark.parametrize("level", ["smoke", "full"])
    def test_the_run_store_decides_as_is_null_morphism(self, monkeypatch, level):
        """Every map that ``check_pretorsion`` decides, in the verifiers and
        in the spot checks, gets from the run store the verdict of the
        image route."""
        original = torsion._is_null_hom
        callers, maps = set(), set()

        def compared(cache, f):
            verdict = original(cache, f)
            assert verdict == image_route(f), f
            callers.add(sys._getframe(1).f_code.co_name)
            maps.add(f)
            return verdict

        monkeypatch.setattr(torsion, "_is_null_hom", compared)
        suite = standard_suite(level)
        assert check_pretorsion(suite).ok
        assert callers == {"_verify_relative", "_null_spot_check"}
        assert len(maps) > len(suite.cache.store[torsion._null_image])


# -- the null class against the one-sided formula it replaced -----------------

def reference_is_null_structure(q, a):
    """Symmetric, and a(x, y) reaches the unit only on the diagonal."""
    n = len(a)
    return all(a[x][y] == a[y][x] and (x == y or not q.leq(q.unit, a[x][y]))
               for x in range(n) for y in range(n))


def test_null_class_matches_the_one_sided_formula(monkeypatch):
    """On every smoke structure, and on every final structure that
    ``is_null_morphism`` builds on a smoke morphism or the smoke
    pretorsion check builds; each reached through one of the two routes,
    ``is_null_object`` for an object and ``_null_image`` for a
    homomorphism."""
    suite = standard_suite("smoke")
    original = torsion._is_null_structure
    verdicts = []

    def compared(q, a):
        verdict = original(q, a)
        assert verdict == reference_is_null_structure(q, a), a
        assert sys._getframe(1).f_code.co_name in {"is_null_object", "_null_image"}
        verdicts.append(verdict)
        return verdict

    monkeypatch.setattr(torsion, "_is_null_structure", compared)
    for obj in suite.objects:
        is_null_object(obj.vgroup)
    for _, _, f in suite.all_homs():
        is_null_morphism(f)
    assert check_pretorsion(suite).ok
    assert True in verdicts and False in verdicts


# -- the null spot checks shared between decompositions ------------------------

def battery_family(suite, obj):
    """The test family ``check_pretorsion`` gives ``obj``: its default
    family, widened by the small suite objects over its quantale."""
    family = default_test_family(obj.vgroup)
    for o in suite.objects_over(obj.quantale_name):
        if o.vgroup.size <= PRETORSION_FAMILY_MAX_CARRIER and o.vgroup not in family:
            family.append(o.vgroup)
    return family


def test_shared_spot_checks_leave_every_decomposition_unchanged(monkeypatch):
    """On every smoke object over a pretorsion quantale, with its default
    family and with the battery's, one shared ``ClassCache`` gives the
    decomposition of a fresh one, spot-check count included, and checks
    each pair once."""
    suite = standard_suite("smoke")
    objects = [o for q in PRETORSION_QUANTALES for o in suite.objects_over(q)]
    original = torsion._null_spot_check
    log = {}  # "to": the list each spot check is recorded in
    monkeypatch.setattr(torsion, "_null_spot_check",
                        lambda cache, t, f: log["to"].append((t, f))
                        or original(cache, t, f))
    for families in ([None] * len(objects), [battery_family(suite, o) for o in objects]):
        shared, unshared, checked = ClassCache(), [], []
        for obj, family in zip(objects, families):
            log["to"] = unshared
            alone = pretorsion_decompose(obj.vgroup, test_objects=family).as_dict()
            log["to"] = now = []
            before = set(shared.store[torsion._null_spot_check])
            assert pretorsion_decompose(obj.vgroup, test_objects=family,
                                        cache=shared).as_dict() == alone, obj.name
            assert not before & set(now), obj.name
            checked += now
        assert len(checked) == len(set(checked)) == \
            len(shared.store[torsion._null_spot_check])
    # the battery's families share their small objects
    assert len(shared.store[torsion._null_spot_check]) < len(unshared)


def test_run_wide_dicts_leave_every_decomposition_unchanged(monkeypatch):
    """On every smoke object over a pretorsion quantale, with its default
    family and with the battery's, one ``ClassCache`` shared by every call
    gives the decomposition of a call with a fresh one, and each distinct
    object is classified once and symmetrized once."""
    suite = standard_suite("smoke")
    objects = [o for q in PRETORSION_QUANTALES for o in suite.objects_over(q)]
    counted = {"on": False, "classify_object": [], "symmetric_coreflect": []}
    for name in ("classify_object", "symmetric_coreflect"):
        original = getattr(torsion, name)
        monkeypatch.setattr(torsion, name,
                            lambda g, name=name, original=original:
                            (counted["on"] and counted[name].append(g)) or original(g))
    for families in ([None] * len(objects), [battery_family(suite, o) for o in objects]):
        cache = ClassCache()
        counted["classify_object"], counted["symmetric_coreflect"] = [], []
        for obj, family in zip(objects, families):
            counted["on"] = False
            alone = pretorsion_decompose(obj.vgroup, test_objects=family).as_dict()
            counted["on"] = True
            shared = pretorsion_decompose(obj.vgroup, test_objects=family,
                                          cache=cache).as_dict()
            assert shared == alone, obj.name
        for name, build in (("classify_object", torsion.object_class),
                            ("symmetric_coreflect", torsion.symmetric_part)):
            calls = counted[name]
            assert len(calls) == len(set(calls)) == len(cache.store[build]), name


def test_each_null_verdict_is_decided_once(monkeypatch):
    """One smoke ``check_pretorsion`` computes the null test of at most one
    final structure per (domain, kernel) of the maps it decides."""
    calls, keys = [], set()
    null_structure, null_hom = torsion._is_null_structure, torsion._is_null_hom
    monkeypatch.setattr(torsion, "_is_null_structure",
                        lambda q, a: calls.append(a) or null_structure(q, a))
    monkeypatch.setattr(torsion, "_is_null_hom",
                        lambda cache, f: keys.add((f.dom, torsion.kernel_members(f)))
                        or null_hom(cache, f))
    assert check_pretorsion(standard_suite("smoke")).ok
    assert len(calls) <= len(keys) == 66


def unshared_pretorsion_failures(suite):
    """The decomposition loop of ``check_pretorsion``, each call with its
    own spot checks."""
    failures = []
    for qname in PRETORSION_QUANTALES:
        for obj in suite.objects_over(qname):
            try:
                pretorsion_decompose(obj.vgroup, test_objects=battery_family(suite, obj))
            except THEOREM_FAILURES as exc:
                failures.append((obj.name, str(exc)))
    return failures


def test_a_failing_spot_pair_is_recorded_by_every_object(monkeypatch, z2_discrete):
    """A small-by-small morphism that is not null, where the verifiers and
    the spot checks decide (``_is_null_hom``), fails the spot check of
    every object whose family meets its pair, as it does unshared."""
    suite = standard_suite("smoke")
    bad = identity_hom(z2_discrete)
    original = torsion._is_null_hom
    monkeypatch.setattr(torsion, "_is_null_hom",
                        lambda cache, f: f != bad and original(cache, f))
    failures = check_pretorsion(suite).failures
    assert failures == unshared_pretorsion_failures(suite)
    # Z2 discrete is small, so every boolean object's family meets the pair
    spotted = [name for name, message in failures if "non-null morphism" in message]
    assert spotted == [o.name for o in suite.objects_over("boolean")]
