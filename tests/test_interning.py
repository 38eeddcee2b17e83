"""One instance per stored object and per group in a run.

The constructions build fresh values; ``ClassCache.intern`` maps each
object that a store keeps to the run's instance of its value as it is
stored.  Below a run, each parent group builds each pullback, subobject
and quotient group once, through ``FiniteGroup.derived``, so the groups
need no pool of their own.  After a smoke battery, every object and group
reachable from the suite or from a store is one instance per value, each
object its pool's instance, every report key ends at the decomposed
instances, and every pooled object equals, names included, the object it
stands in for.  The stores ``derived`` leaves equal fresh builds.
"""

import sys
from collections import Counter

import pytest

from vgroups import battery
from vgroups.builders import group_roster, standard_suite
from vgroups.factorization import ClassCache
from vgroups.groups import FiniteGroup, group_homs, subgroup_group
from vgroups.vgroup import VHom, pullback

from test_groups import check_derived_store, searched


def _objects_of(suite):
    """Each object that the suite's objects, its hom-sets and its cache's
    stores and pools hold, keys included."""
    cache = suite.cache
    objects = [o.vgroup for o in suite.objects] + list(cache.objects)
    objects += [end for hs in suite.hom_sets for h in hs.homs for end in (h.dom, h.cod)]
    for g, d in cache.decompositions.items():
        objects += [g, d.object, d.torsion, d.quotient, d.injection.dom,
                    d.injection.cod, d.projection.dom, d.projection.cod]
    objects += [end for f in cache.reports for end in (f.dom, f.cod)]
    objects += [g for g, _ in cache.kernel_classes]
    for (g, _), (middle, e) in cache.quotients.items():
        objects += [g, middle, e.dom, e.cod]
    for (cod, reflected_dom, _), (to_cod, to_refl) in cache.squares.items():
        objects += [cod, reflected_dom, to_cod.dom, to_cod.cod, to_refl.dom, to_refl.cod]
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
    assert cache.decompositions
    for g, d in cache.decompositions.items():
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
    decompositions = battery_run[0].cache.decompositions
    ends = [end for f in battery_run[0].cache.reports for end in (f.dom, f.cod)]
    assert ends and all(decompositions[end].object is end for end in ends)
    assert all(decompositions[g].object is g
               for g, _ in battery_run[0].cache.kernel_classes)


def test_stored_squares_equal_fresh_pullbacks(battery_run):
    """Each naturality square the run keeps is the pullback of its reflected
    map along the codomain's projection, built afresh, names included, and
    its P is the pool's instance, which both legs share."""
    cache = battery_run[0].cache
    assert cache.squares
    for (cod, reflected_dom, mapping), (to_cod, to_refl) in cache.squares.items():
        projection = cache.decompositions[cod].projection
        reflected = VHom(reflected_dom, projection.cod, mapping)
        p, fresh_to_cod, fresh_to_refl = pullback(projection, reflected)
        assert (to_cod.dom, to_cod, to_refl) == (p, fresh_to_cod, fresh_to_refl)
        assert to_cod.dom.group.names == p.group.names
        assert cache.objects[p] is to_cod.dom is to_refl.dom
        assert to_cod.cod is cod and to_refl.cod is reflected_dom


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
    # and the generators and hom searches kept beside them
    assert stored["_greedy_generators"] and stored["_search_homs"]
