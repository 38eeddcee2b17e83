"""One store and one instance per stored object and per group in a run.

The constructions build fresh values; ``ClassCache.derived`` moves each
object of a key onto the run's instance of its value as the entry is
stored, and each build pools the objects its value holds.  Below a run,
each parent group builds each pullback, subobject and quotient group
once, through ``FiniteGroup.derived``, so the groups need no pool of
their own.  After a smoke battery, every object and group reachable from
the suite or from the store is one instance per value, each object its
pool's instance, every report key ends at the decomposed instances, and
every pooled object equals, names included, the object it stands in for.
Every entry of the store equals a fresh build of its key, and the stores
``derived`` leaves on the groups equal fresh builds.
"""

import importlib
import inspect
import io
import pkgutil
import sys
from collections import Counter

import pytest

import vgroups
from vgroups import battery, factorization, groups, vgroup
from vgroups.builders import group_roster, standard_suite
from vgroups.cli import run
from vgroups.factorization import (ClassCache, _class_report, _decomposition,
                                   _square, monotone_light_factorize,
                                   reflective_factorize)
from vgroups.groups import FiniteGroup, group_homs, subgroup_group
from vgroups.torsion import TorsionDecomposition, kernel_class
from vgroups.vgroup import VGroup, VHom, pullback

from test_groups import check_derived_store, searched
from test_module_state import _commands


def held_objects(x):
    """The objects that x holds, in order: x itself if it is an object,
    the ends of a map, and what a tuple, a list or a torsion decomposition
    holds."""
    if isinstance(x, VGroup):
        return [x]
    if isinstance(x, VHom):
        return [x.dom, x.cod]
    if isinstance(x, TorsionDecomposition):
        x = (x.object, x.torsion, x.injection, x.quotient, x.projection)
    if isinstance(x, (tuple, list)):
        return [obj for y in x for obj in held_objects(y)]
    return []


def _objects_of(suite):
    """Each object that the suite's objects, its hom-sets and its cache's
    store and pool hold, keys included."""
    cache = suite.cache
    objects = [o.vgroup for o in suite.objects] + list(cache.objects)
    objects += [end for hs in suite.hom_sets for h in hs.homs for end in (h.dom, h.cod)]
    for entries in cache.store.values():
        objects += held_objects(list(entries.items()))
    return objects


def _instances(values):
    """The distinct instances among ``values``, by id."""
    return {id(x): x for x in values}.values()


@pytest.fixture(scope="module")
def battery_run():
    """The smoke suite after all 13 checks, each of them passed, and each
    (object, instance) pair for which ``ClassCache.intern`` returned
    another instance than the object it was given."""
    replaced = []
    original = ClassCache.intern

    def intern(self, g):
        found = original(self, g)
        if found is not g:
            replaced.append((g, found))
        return found

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ClassCache, "intern", intern)
        suite = standard_suite("smoke")
        for check in battery.ALL_CHECKS:
            assert check(suite).ok, check.__name__
    return suite, replaced


def test_one_instance_per_group_after_a_smoke_battery(battery_run):
    """One instance per object value, each its pool's, and per group value."""
    suite, _ = battery_run
    objects = _instances(_objects_of(suite))
    assert len(objects) == len(set(objects))
    cache = suite.cache
    assert all(cache.objects[obj] is obj for obj in objects)
    groups = _instances([obj.group for obj in objects])
    assert len(groups) == len(set(groups))
    # the roster's 4 groups and what the stores derived from them
    assert len(groups) > len(suite.groups)


def test_stored_decompositions_hold_the_pooled_parts(battery_run):
    cache = battery_run[0].cache
    assert cache.store[_decomposition]
    for g, d in cache.store[_decomposition].items():
        assert d.object is g
        assert cache.objects[d.torsion] is d.torsion is d.injection.dom
        assert cache.objects[d.quotient] is d.quotient is d.projection.cod
        assert d.injection.cod is d.projection.dom is g


def test_pooled_objects_equal_what_they_replace(battery_run):
    suite, replaced = battery_run
    assert replaced
    for given, found in replaced:
        assert found == given
        assert found.group.names == given.group.names
        assert (found.group.table, found.group.identity, found.group.inverse) == \
            (given.group.table, given.group.identity, given.group.inverse)
        assert found.structure == given.structure
        assert suite.cache.objects[given] is found


def test_report_keys_end_at_the_decomposed_instances(battery_run):
    store = battery_run[0].cache.store
    decompositions = store[_decomposition]
    ends = [end for f in store[_class_report] for end in (f.dom, f.cod)]
    assert ends and all(decompositions[end].object is end for end in ends)
    assert all(decompositions[g].object is g for g, _ in store[kernel_class])


def test_stored_squares_equal_fresh_pullbacks(battery_run):
    """Each naturality square the run keeps is the pullback of its reflected
    map along the codomain's projection, built afresh, names included, and
    its P is the pool's instance, which both legs share."""
    cache = battery_run[0].cache
    squares = cache.store[_square]
    assert squares
    for (cod, reflected_dom, mapping), (to_cod, to_refl) in squares.items():
        projection = cache.store[_decomposition][cod].projection
        reflected = VHom(reflected_dom, projection.cod, mapping)
        p, fresh_to_cod, fresh_to_refl = pullback(projection, reflected)
        assert (to_cod.dom, to_cod, to_refl) == (p, fresh_to_cod, fresh_to_refl)
        assert to_cod.dom.group.names == p.group.names
        assert cache.objects[p] is to_cod.dom is to_refl.dom
        assert to_cod.cod is cod and to_refl.cod is reflected_dom


@pytest.fixture(scope="module")
def store_run():
    """The smoke suite after all 13 checks, each of them passed, with the
    number of entries each build then held, and then each leg of both
    factorizations of every morphism classified in the suite's cache."""
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    counts = {build.__name__: len(entries) for build, entries in suite.cache.store.items()}
    for _, _, f in suite.all_homs():
        for fact in (reflective_factorize(f, suite.cache),
                     monotone_light_factorize(f, suite.cache)):
            factorization.classify_morphism(fact.e, suite.cache)
            factorization.classify_morphism(fact.m, suite.cache)
    return suite.cache, counts


def test_every_entry_is_a_fresh_build_on_pooled_objects(store_run):
    """Each entry of the store equals what its build makes of its key
    afresh, names included; a second request returns the stored value;
    and every object that a key or a value holds is its pool's instance,
    so a stored map ends at the instances that the store's objects are."""
    cache, counts = store_run
    assert counts == {"object_class": 235, "_exact_sequences": 28, "_decomposition": 308,
                      "_class_report": 1222, "_square": 718, "kernel_class": 161,
                      "_stabilized_quotient": 39, "symmetric_part": 28,
                      "_null_spot_check": 192, "_null_image": 66}
    for build, entries in cache.store.items():
        for key, stored in entries.items():
            if not isinstance(key, tuple):  # a key of one argument
                key = (key,)
            assert stored == build(ClassCache(), *key), (build.__name__, key)
            assert cache.derived(build, *key) is stored
            for obj in held_objects((key, stored)):
                assert cache.objects[obj] is obj, (build.__name__, key)


def test_every_build_is_a_module_level_function(monkeypatch):
    """A build is the key of its dict in the store, so a lambda or a
    nested function, made anew on each call, would never be found again.
    Every build that reaches ``ClassCache.derived`` in a smoke battery and
    in every command line command on the shipped documents is a function
    that its module holds under its name, and every dict of the suite's
    store belongs to one of them: nothing writes to the store but
    ``derived``."""
    builds = set()
    derived = ClassCache.derived
    monkeypatch.setattr(ClassCache, "derived", lambda self, build, *key:
                        builds.add(build) or derived(self, build, *key))
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    for argv in _commands():
        assert run(argv, io.StringIO()) == 0, argv
    assert {build.__name__ for build in builds} == {
        "object_class", "symmetric_part", "kernel_class", "_decomposition",
        "_class_report", "_square", "_exact_sequences", "_stabilized_quotient",
        "_null_spot_check", "_null_image"}
    assert set(suite.cache.store) <= builds
    for build in builds:
        assert inspect.isfunction(build) and build.__qualname__ == build.__name__
        assert getattr(sys.modules[build.__module__], build.__name__) is build


def test_the_whole_carrier_is_the_group_itself():
    for group in group_roster().values():
        assert subgroup_group(group, range(group.size)) is group


def test_pooled_groups_find_the_homs_of_a_fresh_copy(battery_run):
    """The groups of the pooled objects carry the homomorphism searches of
    the whole run in ``_derived``; each gives what a fresh copy of it
    gives."""
    roster = list(group_roster().values())
    pooled = list(_instances([obj.group for obj in battery_run[0].cache.objects]))
    for g in pooled:
        fresh = FiniteGroup(g.table, g.names)
        assert fresh == g and fresh is not g
        for h in roster + [g]:
            assert group_homs(g, h) == group_homs(fresh, h)
            assert group_homs(h, g) == group_homs(h, fresh)
    assert any(searched(g) for g in pooled)


# The arguments of each construction that builds through
# ``FiniteGroup._trusted``: the parent group, then the rest of the key
# ``FiniteGroup.derived`` stores its result under.
CONSTRUCTIONS = {"pair_group": ("a", "b", "pairs"),
                 "subgroup_group": ("group", "subset"),
                 "quotient_group": ("group", "normal_subset")}


@pytest.fixture(scope="module")
def derived_run():
    """The smoke suite after all 13 checks, and each group built through
    ``FiniteGroup._trusted`` during them, as (construction, parent, the
    rest of its arguments, the construction's caller)."""
    builds = []
    original = FiniteGroup.__dict__["_trusted"].__func__

    def trusted(cls, *args):
        frame = sys._getframe(1)
        name = frame.f_code.co_name
        parent, *rest = [frame.f_locals[arg] for arg in CONSTRUCTIONS[name]]
        rest = tuple([tuple(x) if isinstance(x, list) else x for x in rest])
        # the parent is kept, so that no other group takes its id
        builds.append((name, parent, rest, frame.f_back.f_code.co_name))
        return original(cls, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteGroup, "_trusted", classmethod(trusted))
        suite = standard_suite("smoke")
        for check in battery.ALL_CHECKS:
            assert check(suite).ok, check.__name__
    return suite, builds


def test_each_derived_group_is_built_once_per_parent(derived_run):
    """Without the store on ``FiniteGroup`` a smoke battery builds most
    pullback, subobject and quotient groups many times over."""
    _, builds = derived_run
    counts = Counter((name, id(parent), rest) for name, parent, rest, _ in builds)
    assert {name for name, _, _, _ in builds} == set(CONSTRUCTIONS)
    assert max(counts.values()) == 1
    # the roster's Klein four-group is the one product built directly
    assert [(name, via) for name, _, _, via in builds if via != "derived"] == \
        [("pair_group", "direct_product")]


def test_derived_stores_equal_fresh_builds_after_a_smoke_battery(derived_run):
    suite, builds = derived_run
    parents = {id(g): g for _, g in suite.groups}
    parents.update((id(parent), parent) for _, parent, _, _ in builds)
    stored = sum((check_derived_store(g) for g in parents.values()), Counter())
    assert sum(stored[name] for name in CONSTRUCTIONS) == \
        sum(via == "derived" for _, _, _, via in builds)
    # and the generators, hom searches, pullback projections and pair indexes
    # kept beside them
    assert stored["_greedy_generators"] and stored["_search_homs"]
    assert stored["pair_projections"] == stored["pair_group"]
    assert stored["pair_index"] > 0


def test_each_pair_index_is_built_once_per_pullback_carrier_and_legs(monkeypatch):
    """``pullback_comparison`` reads its index from the pullback's group,
    keyed by the two mapping tuples: a smoke battery builds each key once,
    and far fewer indexes than it makes comparisons (122 for 6,647, where
    an index built per call made 3,978)."""
    builds, carriers, comparisons = Counter(), [], [0]
    build, compare = groups.pair_index, vgroup.pullback_comparison

    def pair_index(group, first, second):
        carriers.append(group)  # kept, so that no other group takes its id
        builds[id(group), first, second] += 1
        return build(group, first, second)

    def pullback_comparison(*args):
        comparisons[0] += 1
        return compare(*args)

    monkeypatch.setattr(groups, "pair_index", pair_index)
    for info in pkgutil.iter_modules(vgroups.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"vgroups.{info.name}")
        if getattr(module, "pullback_comparison", None) is compare:
            monkeypatch.setattr(module, "pullback_comparison", pullback_comparison)
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    assert builds and max(builds.values()) == 1
    assert sum(builds.values()) < comparisons[0]
