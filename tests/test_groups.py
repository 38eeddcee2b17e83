from collections import Counter
from itertools import permutations, product

import pytest

from vgroups import (CapacityError, FiniteGroup, StructuralError, group_isomorphism,
                     laws, quotient_group, subgroup_group)
from vgroups.builders import group_roster
from vgroups.quantale import boolean
from vgroups.vgroup import discrete_vgroup, subobject
from vgroups.groups import (_search_homs, group_homs, group_isomorphisms,
                            hom_search_size, pair_group, right_shifts)

from test_vgroup import dihedral8, quaternion8


def brute_group_homs(g, h):
    """Every map g -> h fixing the identity that passes the homomorphism
    law, in lexicographic order: the search group_homs replaces."""
    return [m for m in product(range(h.size), repeat=g.size)
            if m[g.identity] == h.identity
            and laws.homomorphism(g.table, h.table, m) is None]


def brute_group_isomorphisms(g, h):
    """Every permutation of h's non-identity elements that is a
    homomorphism, in permutation order: the search group_isomorphisms
    replaces."""
    n = g.size
    if n != h.size:
        return []
    others = [x for x in range(n) if x != g.identity]
    out = []
    for perm in permutations([y for y in range(n) if y != h.identity]):
        mapping = [0] * n
        mapping[g.identity] = h.identity
        for x, y in zip(others, perm):
            mapping[x] = y
        if laws.homomorphism(g.table, h.table, mapping) is None:
            out.append(tuple(mapping))
    return out


def relabelled_s3():
    """S3 with its elements listed in another order, identity at index 2."""
    s3 = FiniteGroup.symmetric3()
    order = [3, 1, 0, 5, 2, 4]  # new index i holds old element order[i]
    pos = {old: new for new, old in enumerate(order)}
    table = [[pos[s3.op(x, y)] for y in order] for x in order]
    return FiniteGroup(table, names=[s3.names[x] for x in order])


def search_pairs():
    """All ordered roster pairs, plus the relabelled S3 on either side of
    every roster group and of itself."""
    groups = list(group_roster().values())
    pairs = [(g, h) for g in groups for h in groups]
    assert len(pairs) == 64
    s3 = relabelled_s3()
    assert s3.identity == 2
    pairs += [(s3, h) for h in groups] + [(g, s3) for g in groups] + [(s3, s3)]
    return pairs


class TestConstruction:
    def test_cyclic(self):
        z4 = FiniteGroup.cyclic(4)
        assert z4.size == 4
        assert z4.identity == 0
        assert z4.inv(1) == 3
        assert z4.op(2, 3) == 1
        assert z4.is_abelian

    def test_trivial(self):
        assert FiniteGroup.trivial().size == 1

    def test_symmetric3(self):
        s3 = FiniteGroup.symmetric3()
        assert s3.size == 6
        assert not s3.is_abelian
        # every element composed with its inverse gives the identity
        for x in range(6):
            assert s3.op(x, s3.inv(x)) == s3.identity

    def test_direct_product(self):
        k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        assert k4.size == 4
        assert k4.is_abelian
        assert all(k4.op(x, x) == k4.identity for x in range(4))

    def test_direct_product_table_and_names(self):
        z2x3 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
        # element (i, j) sits at 3 * i + j
        assert z2x3.table == ((0, 1, 2, 3, 4, 5), (1, 2, 0, 4, 5, 3),
                              (2, 0, 1, 5, 3, 4), (3, 4, 5, 0, 1, 2),
                              (4, 5, 3, 1, 2, 0), (5, 3, 4, 2, 0, 1))
        assert z2x3.names == ("(0,0)", "(0,1)", "(0,2)", "(1,0)", "(1,1)", "(1,2)")

    def test_pair_group_rejects_unclosed_pairs(self):
        z2 = FiniteGroup.cyclic(2)
        with pytest.raises(StructuralError, match="subset is not a subgroup"):
            pair_group(z2, z2, [(0, 0), (1, 0), (0, 1)])

    def test_rejects_non_associative(self):
        # a Latin square with identity 0 and unique inverses: only the
        # associativity scan can reject it
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(StructuralError,
                           match=r"not associative at \(1, 1, 2\)"):
            FiniteGroup(loop)

    def test_rejects_no_identity(self):
        with pytest.raises(StructuralError):
            FiniteGroup([[0, 0], [0, 0]])

    def test_rejects_ragged(self):
        with pytest.raises(StructuralError):
            FiniteGroup([[0, 1], [1]])


class TestDerivedGroupErrors:
    """The derived constructions store their groups unchecked, so each
    raises on a bad input itself, with the message the Cayley-table check
    gave."""

    def test_pair_group_rejects_empty_pairs(self):
        z2 = FiniteGroup.cyclic(2)
        with pytest.raises(StructuralError, match="empty Cayley table"):
            pair_group(z2, z2, [])

    def test_pair_group_rejects_repeated_pairs(self):
        z2 = FiniteGroup.cyclic(2)
        with pytest.raises(StructuralError, match="element names must be distinct"):
            pair_group(z2, z2, [(0, 0), (1, 1), (0, 0)])

    def test_subgroup_group_rejects_non_subgroup(self):
        with pytest.raises(StructuralError, match="subset is not a subgroup"):
            subgroup_group(FiniteGroup.cyclic(4), (0, 1))

    def test_subgroup_group_rejects_repeated_elements(self):
        # -2 names the same element as 2; (0, 0, 2, 2) has the group's
        # length, but is not its whole carrier
        z4 = FiniteGroup.cyclic(4)
        for subset in ((0, 0, 2), (-2, 0, 2), (0, 0, 2, 2)):
            with pytest.raises(StructuralError, match="element names must be distinct"):
                subgroup_group(z4, subset)
            with pytest.raises(StructuralError, match="element names must be distinct"):
                subobject(discrete_vgroup(z4, boolean()), subset)

    def test_quotient_group_rejects_non_subgroup(self):
        with pytest.raises(StructuralError, match="subset is not a normal subgroup"):
            quotient_group(FiniteGroup.cyclic(4), (0, 1))

    def test_quotient_group_rejects_non_normal_subgroup(self):
        s3 = FiniteGroup.symmetric3()
        two = next(s for s in s3.all_subgroups() if len(s) == 2)
        with pytest.raises(StructuralError, match="subset is not a normal subgroup"):
            quotient_group(s3, two)

    def test_derived_groups_read_identity_and_inverses_off_parents(self):
        s3 = FiniteGroup.symmetric3()
        relabelled = relabelled_s3()
        for g in (s3, relabelled):
            built = [FiniteGroup.direct_product(g, FiniteGroup.cyclic(2))]
            built += [subgroup_group(g, s) for s in g.all_subgroups()]
            built += [quotient_group(g, s)[0] for s in g.all_normal_subgroups()]
            for h in built:
                checked = FiniteGroup(h.table, h.names)
                assert (h.identity, h.inverse) == (checked.identity, checked.inverse)


def group_fields(g):
    return (g.table, g.names, g.identity, g.inverse)


def check_derived_store(parent):
    """Require each entry of ``parent._derived`` to equal a fresh build from
    its key: a group with its names and a quotient's projection, the
    generators or a hom search; and a second call to return it.  The
    number of entries, by construction name."""
    counts = Counter()
    for key, stored in list(parent._derived.items()):
        build, *args = key
        fresh = build(parent, *args)
        if build is quotient_group:
            (stored, stored_projection), (fresh, fresh_projection) = stored, fresh
            assert stored_projection == fresh_projection
        if isinstance(stored, FiniteGroup):
            assert group_fields(stored) == group_fields(fresh), (parent, key)
            assert stored is not parent
        else:
            assert stored == fresh, (parent, key)
        assert parent.derived(build, *args) is parent._derived[key]
        counts[build.__name__] += 1
    return counts


def searched(g):
    """The codomains of the hom searches that g keeps, in search order."""
    return [args[0] for build, *args in g._derived if build is _search_homs]


class TestDerived:
    """``FiniteGroup.derived`` keeps each group built from a group, by the
    construction and its other arguments."""

    def test_roster_derived_groups_equal_fresh_builds(self):
        roster = list(group_roster().values())
        for g in roster:
            subgroups, normal = g.all_subgroups(), g.all_normal_subgroups()
            for s in subgroups:
                g.derived(subgroup_group, s)
            for n in normal:
                g.derived(quotient_group, n)
            for h in roster:
                pairs = tuple(product(range(g.size), range(h.size)))
                assert g.derived(pair_group, h, pairs) == FiniteGroup.direct_product(g, h)
            # every subgroup but the whole carrier, every quotient, every product
            assert sum(check_derived_store(g).values()) == \
                len(subgroups) - 1 + len(normal) + len(roster)

    def test_a_construction_that_raises_stores_nothing(self):
        z4, s3 = FiniteGroup.cyclic(4), FiniteGroup.symmetric3()
        two = next(s for s in s3.all_subgroups() if len(s) == 2)
        z4.derived(subgroup_group, (0, 2))
        s3.derived(quotient_group, tuple(range(6)))
        for g, build, args in ((z4, pair_group, (z4, ((0, 0), (1, 0)))),
                               (z4, subgroup_group, ((0, 1),)),
                               (z4, quotient_group, ((0, 1),)),
                               (s3, quotient_group, (two,))):
            before = dict(g._derived)
            for _ in range(2):
                with pytest.raises(StructuralError, match="subgroup"):
                    g.derived(build, *args)
            assert g._derived == before and len(before) == 1

    def test_the_whole_carrier_is_not_stored(self):
        for g in group_roster().values():
            whole = tuple(range(g.size))
            assert g.derived(subgroup_group, whole) is g
            assert (subgroup_group, whole) not in g._derived

    def test_another_argument_order_only_misses_the_store(self):
        z4 = FiniteGroup.cyclic(4)
        first = z4.derived(quotient_group, (0, 2))
        again = z4.derived(quotient_group, (2, 0))
        assert again == first and again is not first
        assert z4.derived(quotient_group, (0, 2)) is first


def moved_z4():
    """Z4 under x + y + 1, whose identity is 3, not 0 as on the roster."""
    moved = FiniteGroup([[(x + y + 1) % 4 for y in range(4)] for x in range(4)])
    assert moved.identity == 3
    return moved


def test_right_shifts_are_the_group_operation():
    """On every roster group and on the moved-identity Z4, entry s of the
    shift table lists (x, op(x, s)) for every x, in x order, and the
    table is built once per group."""
    for g in [*group_roster().values(), moved_z4()]:
        rng = range(g.size)
        want = tuple(tuple((x, g.op(x, s)) for x in rng) for s in rng)
        assert right_shifts(g) == want, g
        assert g.derived(right_shifts) == want
        assert g.derived(right_shifts) is g.derived(right_shifts)


class TestSubgroups:
    def test_all_subgroups_z4(self):
        z4 = FiniteGroup.cyclic(4)
        assert z4.all_subgroups() == [(0,), (0, 1, 2, 3), (0, 2)]

    def test_s3_normal_subgroups(self):
        s3 = FiniteGroup.symmetric3()
        normals = s3.all_normal_subgroups()
        sizes = sorted(len(n) for n in normals)
        assert sizes == [1, 3, 6]
        # and a two-element subgroup exists but is not normal
        two = [s for s in s3.all_subgroups() if len(s) == 2]
        assert two and all(s3.normality_witness(s) is not None for s in two)

    def test_normal_closure(self):
        s3 = FiniteGroup.symmetric3()
        two = [s for s in s3.all_subgroups() if len(s) == 2][0]
        closure = s3.normal_closure(two)
        assert s3.is_normal_subgroup(closure)
        assert set(two) <= set(closure)

    def test_quotient(self):
        z4 = FiniteGroup.cyclic(4)
        q, proj = quotient_group(z4, (0, 2))
        assert q.size == 2
        assert proj == (0, 1, 0, 1)
        with pytest.raises(StructuralError):
            quotient_group(z4, (0, 1))

    def test_subgroup_group(self):
        z4 = FiniteGroup.cyclic(4)
        sub = subgroup_group(z4, (0, 2))
        assert sub.size == 2
        assert sub.names == ("0", "2")
        with pytest.raises(StructuralError):
            subgroup_group(z4, (0, 3))

    def test_the_whole_carrier_skips_the_subgroup_scan(self, monkeypatch):
        scanned = []
        is_subgroup = FiniteGroup.is_subgroup
        monkeypatch.setattr(FiniteGroup, "is_subgroup", lambda self, subset:
                            scanned.append(tuple(subset)) or is_subgroup(self, subset))
        for g in group_roster().values():
            assert subgroup_group(g, range(g.size)) is g
            assert subgroup_group(g, reversed(range(g.size))) is g
        assert scanned == []
        subgroup_group(FiniteGroup.cyclic(4), (0, 2))
        assert scanned == [(0, 2)]

    def test_cosets_deterministic(self):
        z4 = FiniteGroup.cyclic(4)
        assert z4.cosets((0, 2)) == [(0, 2), (1, 3)]

    def test_all_subgroups_capacity_guard(self, monkeypatch):
        with pytest.raises(CapacityError, match="1048576 candidate subsets"):
            FiniteGroup.cyclic(20).all_subgroups()
        # 2^n subsets: Z4 has 16, Z5 32
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 16)
        assert len(FiniteGroup.cyclic(4).all_subgroups()) == 3
        with pytest.raises(CapacityError):
            FiniteGroup.cyclic(5).all_subgroups()


class TestHomSearch:
    def test_group_homs_match_brute_force_in_order(self):
        counts = []
        for g, h in search_pairs():
            homs = group_homs(g, h)
            assert homs == brute_group_homs(g, h)
            counts.append(len(homs))
        # the zero map at least; S3 -> S3 has its six automorphisms, one
        # map onto each of its three order-2 subgroups, and the zero map
        assert min(counts) == 1
        assert len(group_homs(FiniteGroup.symmetric3(), FiniteGroup.symmetric3())) == 10

    def test_search_size_is_at_most_the_brute_force_count(self):
        groups = list(group_roster().values()) + \
            [dihedral8(), quaternion8(), FiniteGroup.cyclic(8)]
        for g in groups:
            assert 2 ** len(g.generators) <= g.size
            assert g.subgroup_closure(g.generators) == tuple(range(g.size))
            for h in groups:
                assert hom_search_size(g, h) <= h.size ** g.size

    def test_generators_are_found_once(self):
        s3 = FiniteGroup.symmetric3()
        assert s3.generators == (1, 2)
        assert s3.generators is s3.generators
        assert FiniteGroup.trivial().generators == ()

    def test_search_capacity_guard(self, monkeypatch):
        z2, z4 = FiniteGroup.cyclic(2), FiniteGroup.cyclic(4)
        k4 = FiniteGroup.direct_product(z2, z2)
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 4)
        assert len(group_homs(z4, z4)) == 4
        # the Klein group needs two generators: 4^2 image choices
        with pytest.raises(CapacityError, match="16 generator image choices"):
            group_homs(k4, k4)
        with pytest.raises(CapacityError):
            group_isomorphisms(k4, k4)

    def test_equal_groups_share_one_search(self):
        s3, z2 = FiniteGroup.symmetric3(), FiniteGroup.cyclic(2)
        first = group_homs(s3, z2)
        # an equal but distinct codomain finds the stored search
        again = FiniteGroup.cyclic(2)
        assert again == z2 and again is not z2
        assert group_homs(s3, again) == first
        assert searched(s3) == [z2]
        # an equal but distinct domain searches again, to the same list
        assert group_homs(FiniteGroup.symmetric3(), again) == first

    def test_trusted_groups_share_the_search_of_equal_checked_ones(self):
        z4 = FiniteGroup.cyclic(4)
        quotient, _ = quotient_group(z4, (0, 2))
        rebuilt = FiniteGroup(quotient.table, quotient.names)
        assert rebuilt == quotient and hash(rebuilt) == hash(quotient)
        assert group_homs(z4, quotient) == group_homs(z4, rebuilt)
        assert len(searched(z4)) == 1
        # Z4/{0, 2} has Z2's table under other names: the maps are the same
        z2 = FiniteGroup.cyclic(2)
        assert quotient.table == z2.table and quotient != z2
        assert group_homs(z4, quotient) == group_homs(z4, z2)
        assert group_homs(quotient, z4) == group_homs(z2, z4)

    def test_changing_a_result_leaves_the_next_call_unchanged(self):
        s3 = FiniteGroup.symmetric3()
        homs = group_homs(s3, s3)
        want = list(homs)
        homs.pop()
        homs.append((0,) * 6)
        assert group_homs(s3, s3) == want
        assert group_homs(s3, s3) is not group_homs(s3, s3)

    def test_the_cap_is_checked_on_every_call(self, monkeypatch):
        z2 = FiniteGroup.cyclic(2)
        k4 = FiniteGroup.direct_product(z2, z2)
        stored = group_homs(k4, k4)
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 4)
        for _ in range(2):
            with pytest.raises(CapacityError, match="16 generator image choices"):
                group_homs(k4, k4)
        # a search that fails stores nothing
        fresh = FiniteGroup.direct_product(z2, z2)
        for _ in range(2):
            with pytest.raises(CapacityError):
                group_homs(fresh, fresh)
        assert searched(fresh) == []
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 16)
        assert group_homs(k4, k4) == group_homs(fresh, fresh) == stored

    def test_group_isomorphisms_match_permutation_search(self):
        found = 0
        for g, h in search_pairs():
            isos = group_isomorphisms(g, h)
            assert isos == brute_group_isomorphisms(g, h)
            found += len(isos)
        assert found > 0


class TestIsomorphism:
    def test_z4_not_klein(self):
        z4 = FiniteGroup.cyclic(4)
        k4 = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2))
        assert group_isomorphism(z4, k4) is None

    def test_z6_is_z2_x_z3(self):
        z6 = FiniteGroup.cyclic(6)
        other = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(3))
        assert group_isomorphism(z6, other) is not None

    def test_self_iso(self):
        s3 = FiniteGroup.symmetric3()
        mapping = group_isomorphism(s3, s3)
        assert mapping is not None
