"""One instance per derived group and per report endpoint in a run.

``ClassCache.groups`` pools the groups of each stored decomposition by
``pool_key``, and the constructions whose results the cache keeps read
that pool: ``pair_group``, ``subgroup_group`` and ``quotient_group``,
and through them ``pullback``, ``subobject``, ``quotient_vgroup`` and
``decompose``.  After a smoke battery, every group reachable from the
suite or from a store is its pool's instance, and every report key ends
at the instances in ``decompositions``.  Each pooled construction gives
the value of an unpooled one, names included, and a pooled group finds
the homomorphisms of a fresh copy.
"""

from itertools import islice

import pytest

from vgroups import battery
from vgroups.builders import group_roster, standard_suite
from vgroups.groups import (FiniteGroup, group_homs, pair_group, pool_key,
                            quotient_group, subgroup_group)
from vgroups.vgroup import pullback, quotient_vgroup, subobject


def _groups_of(suite):
    """Each group that the suite's objects, its hom-sets and its cache's
    stores hold, by id."""
    cache = suite.cache
    objects = [o.vgroup for o in suite.objects]
    objects += [end for hs in suite.hom_sets for h in hs.homs for end in (h.dom, h.cod)]
    for g, d in cache.decompositions.items():
        objects += [g, d.object, d.torsion, d.quotient, d.injection.dom,
                    d.injection.cod, d.projection.dom, d.projection.cod]
    objects += [end for f in cache.reports for end in (f.dom, f.cod)]
    objects += [g for g, _ in cache.kernel_classes]
    for (g, _), (middle, e) in cache.quotients.items():
        objects += [g, middle, e.dom, e.cod]
    return {id(obj.group): obj.group for obj in objects}


@pytest.fixture(scope="module")
def battery_suite():
    """The smoke suite after all 13 checks, each of them passed."""
    suite = standard_suite("smoke")
    for check in battery.ALL_CHECKS:
        assert check(suite).ok, check.__name__
    return suite


def test_one_instance_per_group_after_a_smoke_battery(battery_suite):
    groups = _groups_of(battery_suite)
    assert len(groups) == len(set(groups.values()))
    pool = battery_suite.cache.groups
    assert all(pool[pool_key(g.table, g.names)] is g for g in groups.values())
    # the roster's 4 groups and what the stores derived from them
    assert len(groups) > len(battery_suite.groups)


def test_report_keys_end_at_the_decomposed_instances(battery_suite):
    decompositions = battery_suite.cache.decompositions
    ends = [end for f in battery_suite.cache.reports for end in (f.dom, f.cod)]
    assert ends and all(decompositions[end].object is end for end in ends)
    assert all(decompositions[g].object is g for g, _ in battery_suite.cache.kernel_classes)


# -- pooled and unpooled constructions -----------------------------------------

def _same_group(got, expected):
    assert (got.table, got.names, got.identity, got.inverse) == \
        (expected.table, expected.names, expected.identity, expected.inverse)


# The group each construction's result holds.
GROUP_OF = {
    "subgroup_group": lambda r: r,
    "pair_group": lambda r: r,
    "quotient_group": lambda r: r[0],
    "subobject": lambda r: r[0].group,
    "quotient_vgroup": lambda r: r[0].group,
    "pullback": lambda r: r[0].group,
}


def _builds(suite):
    """(name, build) for each construction on the smoke suite, build(pool)
    making it with that pool; each is built before the next is made."""
    for obj in suite.objects:
        g = obj.vgroup
        for s in g.group.all_subgroups():
            yield "subgroup_group", lambda pool: subgroup_group(g.group, s, pool)
            yield "subobject", lambda pool: subobject(g, s, pool=pool)
        for s in g.group.all_normal_subgroups():
            yield "quotient_group", lambda pool: quotient_group(g.group, s, pool)
            yield "quotient_vgroup", lambda pool: quotient_vgroup(g, s, pool=pool)
    homs = [f for _, _, f in suite.all_homs()]
    into = {}
    for f in homs:
        into.setdefault(f.cod, []).append(f)
    for f, h in islice(((f, h) for f in homs for h in into[f.cod]), 600):
        pairs = [(i, j) for i, z in enumerate(f.mapping)
                 for j, y in enumerate(h.mapping) if y == z]
        yield "pullback", lambda pool: pullback(f, h, pool)
        yield "pair_group", lambda pool: pair_group(f.dom.group, h.dom.group, pairs, pool)


def test_pooled_constructions_give_the_unpooled_values():
    """Each build equals its unpooled build, names included; after its
    group is pooled, an equal build returns that instance; and a pooled
    group with the same table under other names is never returned."""
    suite = standard_suite("smoke")
    pool = {}
    names = set()
    for name, build in _builds(suite):
        names.add(name)
        unpooled, first = build(None), build(pool)
        group, first_group = GROUP_OF[name](unpooled), GROUP_OF[name](first)
        assert first == unpooled, name
        _same_group(first_group, group)
        pool.setdefault(pool_key(first_group.table, first_group.names), first_group)
        again = build(pool)
        assert again == unpooled, name
        assert GROUP_OF[name](again) is pool[pool_key(group.table, group.names)], name
    assert names == {"pair_group", "subgroup_group", "quotient_group", "pullback",
                     "subobject", "quotient_vgroup"}
    # one table, many names: the trivial groups alone
    trivial = [g for g in pool.values() if g.size == 1]
    assert len({g.names for g in trivial}) == len(trivial) > 1


def test_the_whole_carrier_is_the_group_itself():
    for group in group_roster().values():
        assert subgroup_group(group, range(group.size)) is group


def test_pooled_groups_find_the_homs_of_a_fresh_copy(battery_suite):
    """The pool's groups carry the homomorphism searches of the whole run
    in ``_homs``; each gives what a fresh copy of it gives."""
    roster = list(group_roster().values())
    pooled = list(battery_suite.cache.groups.values())
    for g in pooled:
        fresh = FiniteGroup(g.table, g.names)
        assert fresh == g and fresh is not g
        for h in roster + [g]:
            assert group_homs(g, h) == group_homs(fresh, h)
            assert group_homs(h, g) == group_homs(h, fresh)
    assert any(g._homs for g in pooled)
