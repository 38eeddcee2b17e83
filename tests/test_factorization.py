import dataclasses
import importlib
import itertools
import pkgutil
import re
from collections import Counter

import pytest

import vgroups
from vgroups import battery, factorization, torsion
from vgroups import (FiniteGroup, NonIntegralQuantaleError, StructuralError,
                     TheoremCheckError, VGroup, VHom, VRel,
                     classify_morphism, classify_object, discrete_vgroup,
                     enumerate_homs, enumerate_structures, identity_hom,
                     is_covering, is_isomorphism, kernel,
                     monotone_light_factorize, product, pullback,
                     reflective_factorize, run_battery, standard_suite,
                     symmetric_coreflect,
                     trivial_vgroup, validate_hom, zero_hom)
from vgroups.battery import _exact_sequences
from vgroups.factorization import (ClassCache, _class_report, _decomposition,
                                   _stabilized_quotient, kernel_members)
from vgroups.torsion import (_null_spot_check, kernel_class, object_class,
                             symmetric_part, torsion_members)
from vgroups.vgroup import factorization_middle_iso, quotient_vgroup

from test_interning import held_objects


class TestClassifyMorphism:
    def test_identity_all_flags(self, z4_bool):
        rep = classify_morphism(identity_hom(z4_bool))
        assert rep.reflector_inverted and rep.trivial_covering
        assert rep.stably_inverted and rep.covering

    def test_worked_quotient(self, quotient_to_z2):
        rep = classify_morphism(quotient_to_z2)
        assert rep.reflector_inverted
        assert rep.stably_inverted
        assert not rep.trivial_covering
        assert not rep.covering

    def test_product_projection_is_trivial_covering(self, bool_q, z2_discrete):
        # projecting away a discrete factor: torsion parts match and the
        # structure is the meet of the pulled-back ones
        prod = product(z2_discrete, z2_discrete)
        proj = VHom(prod, z2_discrete, [0, 0, 1, 1])
        rep = classify_morphism(proj)
        assert rep.trivial_covering and rep.covering

    def test_inclusion_into_product_is_trivial_covering(self, bool_q, z2_discrete):
        prod = product(z2_discrete, z2_discrete)
        inc = VHom(z2_discrete, prod, [0, 3])
        rep = classify_morphism(inc)
        assert rep.trivial_covering

    def test_zero_to_indiscrete_is_inverted(self, bool_q, z2_indiscrete):
        f = zero_hom(trivial_vgroup(bool_q), z2_indiscrete)
        rep = classify_morphism(f)
        # the reflector collapses the indiscrete codomain to a point
        assert rep.reflector_inverted
        assert not rep.stably_inverted  # not surjective, so not a normal epi

    def test_non_integral_rejected(self, non_integral_q, z2):
        obj = discrete_vgroup(z2, non_integral_q)
        with pytest.raises(NonIntegralQuantaleError):
            classify_morphism(identity_hom(obj))


class TestCovering:
    def test_mono_is_covering(self, z2_discrete, z4_bool):
        mono = VHom(z2_discrete, z4_bool, [0, 2])
        assert is_covering(mono)

    def test_worked_quotient_is_not(self, quotient_to_z2):
        assert not is_covering(quotient_to_z2)
        ker, _ = kernel(quotient_to_z2)
        assert classify_object(ker).indiscrete and ker.size == 2

    def test_discrete_kernel_gives_covering(self, bool_q, z2_discrete):
        z4_discrete = discrete_vgroup(FiniteGroup.cyclic(4), bool_q)
        f = VHom(z4_discrete, z2_discrete, [0, 1, 0, 1])
        ker, _ = kernel(f)
        assert classify_object(ker).discrete
        assert is_covering(f)

    def test_matches_kernel_separation_everywhere(self, bool_q, law2):
        z4 = FiniteGroup.cyclic(4)
        for q in (bool_q, law2):
            objs = enumerate_structures(z4, q)
            for dom, cod in itertools.product(objs, repeat=2):
                for f in enumerate_homs(dom, cod):
                    ker, _ = kernel(f)
                    assert is_covering(f) == classify_object(ker).separated


class TestReflectiveFactorize:
    def test_trivial_covering_gives_iso_left_leg(self, bool_q, z2_discrete):
        prod = product(z2_discrete, z2_discrete)
        inc = VHom(z2_discrete, prod, [0, 3])
        fact = reflective_factorize(inc)
        assert is_isomorphism(fact.e)

    def test_inverted_gives_iso_right_leg(self, quotient_to_z2):
        fact = reflective_factorize(quotient_to_z2)
        assert is_isomorphism(fact.m)
        assert fact.middle.size == 2

    def test_composite(self, z4_bool, z2_indiscrete, bool_q):
        for f in enumerate_homs(z4_bool, z2_indiscrete):
            fact = reflective_factorize(f)
            assert fact.e.then(fact.m) == f

    def test_every_smoke_hom_postverifies(self, law2):
        z4 = FiniteGroup.cyclic(4)
        z2 = FiniteGroup.cyclic(2)
        objs = enumerate_structures(z4, law2) + enumerate_structures(z2, law2)
        for dom, cod in itertools.product(objs, repeat=2):
            for f in enumerate_homs(dom, cod):
                fact = reflective_factorize(f)
                rep_e = classify_morphism(fact.e)
                rep_m = classify_morphism(fact.m)
                assert rep_e.reflector_inverted and rep_m.trivial_covering


class TestMonotoneLightFactorize:
    def test_separated_kernel_gives_iso_left_leg(self, bool_q, z2_discrete):
        z4_discrete = discrete_vgroup(FiniteGroup.cyclic(4), bool_q)
        f = VHom(z4_discrete, z2_discrete, [0, 1, 0, 1])
        fact = monotone_light_factorize(f)
        assert is_isomorphism(fact.e)

    def test_worked_quotient(self, quotient_to_z2):
        fact = monotone_light_factorize(quotient_to_z2)
        assert fact.e.mapping == quotient_to_z2.mapping
        assert is_isomorphism(fact.m)

    def test_zero_from_indiscrete(self, z2_indiscrete, z2_discrete):
        f = zero_hom(z2_indiscrete, z2_discrete)
        fact = monotone_light_factorize(f)
        assert fact.middle.size == 1
        assert classify_morphism(fact.m).covering

    def test_uniqueness_against_alternatives(self, bool_q, quotient_to_z2):
        fact = monotone_light_factorize(quotient_to_z2)
        # an alternative splitting with the same class flags through an
        # equal-size middle must be connected by a commuting isomorphism
        alt_middle = quotient_to_z2.cod
        e2 = quotient_to_z2
        m2 = identity_hom(alt_middle)
        assert classify_morphism(e2).stably_inverted
        assert classify_morphism(m2).covering
        iso = factorization_middle_iso(fact.e, fact.m, e2, m2)
        assert iso is not None


class TestStability:
    def test_stably_inverted_pullbacks_stay_inverted(self, bool_q, z4_bool,
                                                     quotient_to_z2, z2_discrete):
        f = quotient_to_z2
        assert classify_morphism(f).stably_inverted
        for g in enumerate_homs(z2_discrete, z2_discrete):
            _, _, pulled = pullback(f, g)
            assert classify_morphism(pulled).reflector_inverted

    def test_trivial_coverings_closed_under_pullback(self, bool_q, z2_discrete):
        prod = product(z2_discrete, z2_discrete)
        inc = VHom(z2_discrete, prod, [0, 3])
        for g in enumerate_homs(prod, prod):
            p, pi1, pi2 = pullback(inc, g)
            assert classify_morphism(pi2).trivial_covering


def test_smoke_factorizations_hold_by_construction():
    """What the factorizations guarantee without re-checking it: both
    compose to f, and the reflective right leg (a pullback projection) is
    a valid hom."""
    suite = standard_suite("smoke")
    for _, _, f in suite.all_homs():
        refl = reflective_factorize(f, suite.cache)
        light = monotone_light_factorize(f, suite.cache)
        assert refl.e.then(refl.m) == f, f
        assert light.e.then(light.m) == f, f
        assert validate_hom(refl.m).ok, f


@pytest.mark.parametrize("factorize", ["reflective_factorize",
                                       "monotone_light_factorize"])
def test_failed_post_check_names_the_morphism(monkeypatch, quotient_to_z2, factorize):
    refuted = factorization.MorphismClassReport(False, False, False, False)
    monkeypatch.setattr(factorization, "classify_morphism",
                        lambda f, cache=None: refuted)
    with pytest.raises(TheoremCheckError, match=re.escape(repr(quotient_to_z2))):
        getattr(factorization, factorize)(quotient_to_z2)


def _entries(cache):
    """Each value of ``cache``'s store, by (build, key)."""
    return {(build, key): value for build, entries in cache.store.items()
            for key, value in entries.items()}


def _irreflexive_z2(z2_discrete):
    """Z2 with bottom at (1, 1): its symmetrization fails validation."""
    q = z2_discrete.quantale
    return VGroup(z2_discrete.group, q, VRel(q, [[q.top, q.bottom], [q.bottom, q.bottom]]))


def _kernel_key(f):
    """(domain, kernel members), computed apart from ``kernel_members``."""
    return f.dom, tuple(x for x in range(f.dom.size) if f(x) == f.cod.group.identity)


class TestClassCache:
    @pytest.fixture(scope="class")
    def factorized_smoke(self):
        """The smoke suite's cache after both factorizations and the report
        of every morphism, each distinct morphism and leg they touched, and
        the calls of ``kernel`` from torsion.py, where the kernel-class build
        lives, and of ``quotient_vgroup`` from factorization.py, where the
        stabilized quotients are built, while the cache filled, counted per
        key."""
        suite = standard_suite("smoke")
        touched, builds = {}, Counter()

        def counted(module, name, key):
            original = getattr(module, name)

            def build(*args, **kwargs):
                builds[name, key(*args)] += 1
                return original(*args, **kwargs)
            return build

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(torsion, "kernel", counted(torsion, "kernel", _kernel_key))
            patch.setattr(factorization, "quotient_vgroup",
                          counted(factorization, "quotient_vgroup",
                                  lambda g, members: (g, members)))
            for _, _, f in suite.all_homs():
                touched[f] = None
                for fact in (reflective_factorize(f, suite.cache),
                             monotone_light_factorize(f, suite.cache)):
                    touched[fact.e] = touched[fact.m] = None
            for f in touched:
                classify_morphism(f, suite.cache)
        return suite.cache, list(touched), builds

    def test_cached_report_matches_fresh_classification(self, factorized_smoke):
        cache, morphisms, _ = factorized_smoke
        for f in morphisms:
            report = classify_morphism(f, cache)
            assert classify_morphism(f, cache) is report
            assert report.as_dict() == classify_morphism(f).as_dict()

    def test_reports_are_keyed_by_morphism(self, factorized_smoke):
        cache, morphisms, _ = factorized_smoke
        assert set(cache.store[_class_report]) == set(morphisms)

    def test_kernel_classes_match_fresh_classification(self, factorized_smoke):
        cache, morphisms, _ = factorized_smoke
        keys = set()
        for f in morphisms:
            ker_obj, inclusion = kernel(f)
            assert (f.dom, kernel_members(f)) == _kernel_key(f)
            assert kernel_members(f) == inclusion.mapping
            assert cache.store[kernel_class][_kernel_key(f)] == classify_object(ker_obj)
            keys.add(_kernel_key(f))
        assert set(cache.store[kernel_class]) == keys

    def test_quotients_match_fresh_quotients(self, factorized_smoke):
        cache, morphisms, _ = factorized_smoke
        quotients = cache.store[_stabilized_quotient]
        keys = {(f.dom, torsion_members(f.dom, kernel_members(f))) for f in morphisms}
        assert quotients and set(quotients) <= keys
        for (dom, members), e in quotients.items():
            fresh_middle, fresh_e = quotient_vgroup(dom, members)
            assert e.cod == fresh_middle and e == fresh_e
            assert e.cod.group.names == fresh_middle.group.names

    def test_each_key_is_built_once(self, factorized_smoke):
        cache, morphisms, builds = factorized_smoke
        quotients = cache.store[_stabilized_quotient]
        keys = {(f.dom, torsion_members(f.dom, kernel_members(f))) for f in morphisms}
        assert quotients and set(quotients) <= keys
        assert max(builds.values()) == 1
        assert {key for name, key in builds if name == "kernel"} == \
            set(cache.store[kernel_class])
        assert {key for name, key in builds if name == "quotient_vgroup"} == set(quotients)

    def test_an_entry_is_stored_on_pooled_objects_once_its_build_returns(
            self, z4_bool, z2_discrete):
        """``derived`` stores what its build returns under the key with its
        objects moved onto the pool, and returns it to every later request
        for an equal key; a build that raises stores and pools nothing."""
        cache = ClassCache()
        copy = VGroup(z4_bool.group, z4_bool.quantale, z4_bool.structure)
        report = classify_morphism(VHom(z4_bool, z2_discrete, [0, 1, 0, 1]), cache)
        assert classify_morphism(VHom(copy, z2_discrete, [0, 1, 0, 1]), cache) is report
        f, = cache.store[_class_report]
        assert cache.objects[copy] is f.dom is z4_bool and f.cod is z2_discrete
        stored, pooled = _entries(cache), dict(cache.objects)
        for _ in range(2):
            with pytest.raises(TheoremCheckError):
                cache.derived(torsion.symmetric_part, _irreflexive_z2(z2_discrete))
        assert _entries(cache) == stored and cache.objects == pooled

    def test_shared_quotients_give_each_morphism_its_factorization(self, quotient_to_z2):
        cache = ClassCache()
        first = monotone_light_factorize(quotient_to_z2, cache)
        again = monotone_light_factorize(quotient_to_z2, cache)
        assert len(cache.store[_stabilized_quotient]) == 1
        assert (again.middle, again.e) == (first.middle, first.e)
        assert again.as_dict() == monotone_light_factorize(quotient_to_z2).as_dict()

    def test_lookup_raises_like_an_uncached_call(self, monkeypatch, non_integral_q, z2,
                                                 quotient_to_z2):
        """A call that raises raises what a call with a fresh cache raises,
        and leaves in the cache only what builds that returned stored:
        ``classify_morphism`` leaves it as it was; ``reflective_factorize``
        keeps the decomposition of a codomain it decomposed before it
        failed, ``monotone_light_factorize`` the quotient it split through,
        and each the objects it pooled."""
        cache = ClassCache()
        classify_morphism(quotient_to_z2, cache)  # both endpoints are now decomposed
        monotone_light_factorize(quotient_to_z2, cache)
        not_a_hom = VHom(quotient_to_z2.dom, quotient_to_z2.cod, [0, 1, 1, 0])
        # a group hom that is not compatible: its stabilized quotient exists
        z4 = quotient_to_z2.dom
        incompatible = VHom(z4, discrete_vgroup(z4.group, z4.quantale), range(4))
        non_integral = identity_hom(discrete_vgroup(z2, non_integral_q))

        def raises_alike(call, f, error):
            with pytest.raises(error) as uncached:
                call(f)
            with pytest.raises(error) as cached:
                call(f, cache)
            assert str(cached.value) == str(uncached.value)

        stored, pooled = _entries(cache), dict(cache.objects)
        for f, error in ((not_a_hom, StructuralError),
                         (incompatible, StructuralError),
                         (non_integral, NonIntegralQuantaleError)):
            raises_alike(classify_morphism, f, error)
        assert _entries(cache) == stored and cache.objects == pooled

        returned = []  # (build, key) of each entry that its build returned
        derived = ClassCache.derived

        def recorded(self, build, *key):
            value = derived(self, build, *key)
            if self is cache:
                returned.append((build, key[0] if len(key) == 1 else key))
            return value
        monkeypatch.setattr(ClassCache, "derived", recorded)
        for call, kept in ((reflective_factorize, {_decomposition, object_class}),
                           (monotone_light_factorize, {_stabilized_quotient})):
            stored, pooled = _entries(cache), dict(cache.objects)
            returned.clear()
            for f, error in ((not_a_hom, TheoremCheckError),
                             (incompatible, TheoremCheckError),
                             (non_integral, NonIntegralQuantaleError)):
                raises_alike(call, f, error)
            new = {entry: value for entry, value in _entries(cache).items()
                   if entry not in stored}
            assert set(new) == set(returned) - set(stored), call.__name__
            assert {build for build, _ in new} == kept, call.__name__
            assert set(cache.objects) - set(pooled) == \
                {obj for (_, key), value in new.items()
                 for obj in held_objects((key, value))} - set(pooled)

    def test_object_stores_match_fresh_builds(self):
        """After the smoke suite's object checks, each class, symmetric
        part, spot-check count and list of exact sequences the suite's
        cache holds is what a fresh build gives, and the ses and torsion
        checks have left one list of sequences per suite object."""
        suite = standard_suite("smoke")
        for check in (battery.check_objects, battery.check_ses_morphism_pullback,
                      battery.check_torsion_theory, battery.check_pretorsion):
            assert check(suite).ok, check.__name__
        store = suite.cache.store
        classes, symmetric_parts, spot_checks = (
            store[object_class], store[symmetric_part], store[_null_spot_check])
        assert classes and symmetric_parts and spot_checks
        for g, found in classes.items():
            assert found == classify_object(g)
        for g, found in symmetric_parts.items():
            assert found == symmetric_coreflect(g)
        for (t, f), count in spot_checks.items():
            assert count == len(enumerate_homs(t, f))
        assert len(store[_exact_sequences]) == len(suite.objects) == 28
        for g, sequences in store[_exact_sequences].items():
            assert sequences == _exact_sequences(ClassCache(), g)

    def test_report_is_frozen(self, quotient_to_z2):
        report = classify_morphism(quotient_to_z2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.covering = not report.covering

    def test_battery_runs_do_not_share_state(self):
        first = [r.as_dict() for r in run_battery("smoke")]
        assert [r.as_dict() for r in run_battery("smoke")] == first
        assert not hasattr(factorization, "_DECOMPOSE_CACHE")
        # no module keeps a container between runs but these constant tables
        modules = [vgroups] + [importlib.import_module(f"vgroups.{info.name}")
                               for info in pkgutil.iter_modules(vgroups.__path__)
                               if info.name != "__main__"]  # importing it runs the CLI
        held = {f"{module.__name__}.{name}" for module in modules
                for name, value in vars(module).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")}
        assert held == {"vgroups.cli._COMPUTING", "vgroups.document.SCHEMA",
                        "vgroups.document._TYPE_CLASSES"}
