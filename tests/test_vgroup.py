import itertools
import re
from collections import defaultdict
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from vgroups import laws
from vgroups import (CapacityError, FiniteGroup, Quantale, StructuralError,
                     TheoremCheckError, VGroup, VHom, VRel, builtin_quantale,
                     classify_hom,
                     classify_object, cokernel, coequalizer, discrete_vgroup,
                     enumerate_homs, enumerate_structures, equalizer,
                     identity_hom, image_factorize, indiscrete_vgroup,
                     is_isomorphism, kernel, lawvere_chain, product, pullback,
                     standard_suite, structure_from_delta, subobject,
                     trivial_vgroup, validate_hom, validate_vgroup,
                     vgroup_isomorphism, zero_hom)
from vgroups.builders import group_roster
from vgroups.groups import ENUMERATION_CAP, difference_rows, pair_projections
from vgroups.vgroup import (factor_through_epi, factor_through_mono, fibers,
                            final_structure, is_final, is_regular_epi,
                            profile_matrix, pullback_comparison)


class TestValidation:
    def test_indiscrete_and_discrete_are_valid(self, bool_q, law2, z3):
        for q in (bool_q, law2):
            assert validate_vgroup(indiscrete_vgroup(z3, q)).ok
            assert validate_vgroup(discrete_vgroup(z3, q)).ok

    def test_transitivity_failure_with_witness(self, bool_q, z3):
        bad = structure_from_delta(z3, bool_q, (1, 1, 0))
        report = validate_vgroup(bad)
        assert not report.ok
        t = [v for v in report.violations if v.law == "transitivity"]
        assert t and t[0].witness == ("0", "1", "2")

    def test_shift_profile_spread(self, bool_q, z4, z4_bool):
        # a(x, y) = profile at y - x
        for x, y in itertools.product(range(4), repeat=2):
            assert z4_bool.entry(x, y) == (1, 0, 1, 0)[(y - x) % 4]
        assert validate_vgroup(z4_bool).ok

    def test_profile_extremes(self, bool_q, z3):
        unit_at_zero = structure_from_delta(z3, bool_q, (1, 0, 0))
        assert unit_at_zero.structure == discrete_vgroup(z3, bool_q).structure
        all_top = structure_from_delta(z3, bool_q, (1, 1, 1))
        assert all_top.structure == indiscrete_vgroup(z3, bool_q).structure

    def test_reflexivity_failure(self, law2, z2):
        bad = structure_from_delta(z2, law2, (1, 0))
        report = validate_vgroup(bad)
        assert "reflexivity" in report.laws_violated()

    def test_nonabelian_profile_can_break_compatibility(self, bool_q):
        # indicator of a non-normal two-element subgroup: reflexive,
        # transitive and right-shift invariant, yet addition-incompatible
        s3 = FiniteGroup.symmetric3()
        two = [s for s in s3.all_subgroups() if len(s) == 2][0]
        delta = [1 if x in two else 0 for x in range(6)]
        candidate = structure_from_delta(s3, bool_q, delta)
        report = validate_vgroup(candidate)
        assert not report.ok
        assert report.laws_violated() == ["addition-compatibility"]
        assert report.notes["nonabelian_shift_finding"]

    def test_structure_shape_checked(self, bool_q, z2):
        with pytest.raises(StructuralError):
            from vgroups import VGroup
            VGroup(z2, bool_q, VRel(bool_q, [[0, 0]]))


class TestClassification:
    def test_discrete_z2(self, z2_discrete):
        cls = classify_object(z2_discrete)
        assert cls == type(cls)(indiscrete=False, separated=True,
                                symmetric=True, discrete=True)

    def test_indiscrete_z2(self, z2_indiscrete):
        cls = classify_object(z2_indiscrete)
        assert cls.indiscrete and cls.symmetric
        assert not cls.separated and not cls.discrete

    def test_z4_chain_example(self, z4_law):
        cls = classify_object(z4_law)
        assert cls.separated and not cls.symmetric
        assert not cls.indiscrete and not cls.discrete

    def test_z4_bool_example(self, z4_bool):
        cls = classify_object(z4_bool)
        assert cls.symmetric and not cls.separated

    def test_discrete_implies_separated_non_integral(self, non_integral_q, z3):
        obj = discrete_vgroup(z3, non_integral_q)
        assert validate_vgroup(obj).ok
        cls = classify_object(obj)
        assert cls.discrete and cls.separated


class TestHoms:
    def test_identity_and_zero(self, z4_bool, z2_discrete):
        assert validate_hom(identity_hom(z4_bool)).ok
        assert validate_hom(zero_hom(z4_bool, z2_discrete)).ok

    def test_quotient_map_valid(self, quotient_to_z2):
        assert validate_hom(quotient_to_z2).ok

    def test_group_law_witness(self, z2_discrete):
        bad = VHom(z2_discrete, z2_discrete, [1, 0])
        report = validate_hom(bad)
        assert "group-homomorphism" in report.laws_violated()

    def test_structure_law_witness(self, z2_indiscrete, z2_discrete):
        bad = VHom(z2_indiscrete, z2_discrete, [0, 1])
        report = validate_hom(bad)
        assert report.laws_violated() == ["structure-compatibility"]


class TestKernelCokernel:
    def test_kernel_of_identity(self, z4_bool):
        ker, inc = kernel(identity_hom(z4_bool))
        assert ker.size == 1
        assert inc.mapping == (0,)

    def test_kernel_of_zero(self, z4_bool, z2_discrete):
        ker, inc = kernel(zero_hom(z4_bool, z2_discrete))
        assert ker.size == 4
        assert ker.structure == z4_bool.structure

    def test_kernel_of_quotient_is_indiscrete(self, quotient_to_z2):
        ker, inc = kernel(quotient_to_z2)
        assert inc.mapping == (0, 2)
        assert classify_object(ker).indiscrete
        assert classify_hom(inc).normal_mono

    def test_cokernel_of_trivial_inclusion(self, z4_bool, bool_q):
        zero = trivial_vgroup(bool_q)
        coker, proj = cokernel(VHom(zero, z4_bool, [0]))
        assert coker.size == 4
        assert coker.structure.entries == z4_bool.structure.entries

    def test_cokernel_of_identity(self, z4_bool, bool_q):
        coker, proj = cokernel(identity_hom(z4_bool))
        assert coker.size == 1
        assert coker.entry(0, 0) == bool_q.join_all(
            z4_bool.entry(x, y) for x in range(4) for y in range(4))

    def test_cokernel_of_torsion_inclusion(self, z4_bool, quotient_to_z2):
        ker, inc = kernel(quotient_to_z2)
        coker, proj = cokernel(inc)
        assert coker.size == 2
        assert classify_object(coker).discrete

    def test_cokernel_requires_normal_image(self, bool_q):
        s3 = indiscrete_vgroup(FiniteGroup.symmetric3(), bool_q)
        two = [s for s in s3.group.all_subgroups() if len(s) == 2][0]
        sub_obj = indiscrete_vgroup(FiniteGroup.cyclic(2), bool_q)
        inc = VHom(sub_obj, s3, list(two))
        assert validate_hom(inc).ok
        with pytest.raises(StructuralError, match="conjugating"):
            cokernel(inc)


class TestLimits:
    def test_product_with_trivial(self, z4_bool, bool_q):
        prod = product(z4_bool, trivial_vgroup(bool_q))
        iso = vgroup_isomorphism(prod, z4_bool)
        assert iso is not None

    def test_product_structure_is_meet(self, z2_discrete, z2_indiscrete):
        prod = product(z2_discrete, z2_indiscrete)
        q = prod.quantale
        for i, j in itertools.product(range(4), repeat=2):
            x1, y1 = divmod(i, 2)
            x2, y2 = divmod(j, 2)
            assert prod.entry(i, j) == q.meet(z2_discrete.entry(x1, x2),
                                              z2_indiscrete.entry(y1, y2))

    def test_pullback_of_identities_is_diagonal(self, z4_bool):
        ident = identity_hom(z4_bool)
        p, pi1, pi2 = pullback(ident, ident)
        assert p.size == 4
        assert pi1.mapping == pi2.mapping
        assert vgroup_isomorphism(p, z4_bool) is not None

    def test_pullbacks_on_one_pair_list_share_their_projections(self, z4_bool,
                                                                 z2_discrete):
        """Both projection mappings depend on the pair list alone, so
        pullbacks on one list read them from the first group's store, as
        they read their group."""
        q = VHom(z4_bool, z2_discrete, [0, 1, 0, 1])
        p, pi1, pi2 = pullback(q, q)
        again, again1, again2 = pullback(q, VHom(z4_bool, z2_discrete, [0, 1, 0, 1]))
        assert again.group is p.group
        assert again1.mapping is pi1.mapping and again2.mapping is pi2.mapping
        pairs = tuple(zip(pi1.mapping, pi2.mapping))
        assert z4_bool.group.derived(pair_projections, z4_bool.group, pairs) == \
            (pi1.mapping, pi2.mapping)

    def test_equalizer_of_equal_pair(self, z4_bool):
        ident = identity_hom(z4_bool)
        eq, inc = equalizer(ident, ident)
        assert eq.size == 4
        assert eq.structure == z4_bool.structure

    def test_equalizer_picks_fixed_points(self, z4_bool, quotient_to_z2, z2_discrete):
        other = VHom(z4_bool, z2_discrete, [0, 0, 0, 0])
        eq, inc = equalizer(quotient_to_z2, other)
        assert inc.mapping == (0, 2)

    def test_coequalizer_of_equal_pair(self, z4_bool):
        ident = identity_hom(z4_bool)
        coeq, proj = coequalizer(ident, ident)
        assert coeq.size == 4

    def test_coequalizer_collapses_difference(self, z4_bool, z2_discrete, quotient_to_z2):
        zero = zero_hom(z4_bool, z2_discrete)
        coeq, proj = coequalizer(quotient_to_z2, zero)
        assert coeq.size == 1

    def test_pullback_comparison_unique(self, z4_bool):
        ident = identity_hom(z4_bool)
        p, pi1, pi2 = pullback(ident, ident)
        u = pullback_comparison(p, pi1, pi2, ident, ident)
        assert is_isomorphism(u)

    def test_pullback_comparison_names_the_cone_element(self, z4_bool):
        ident = identity_hom(z4_bool)
        p, pi1, pi2 = pullback(ident, ident)
        # (identity, zero) does not commute: element 1 goes to (1, 0),
        # which no pair of the diagonal pullback hits.
        message = f"at element '1' of {z4_bool!r}: 0 hits"
        with pytest.raises(TheoremCheckError, match=re.escape(message)):
            pullback_comparison(p, pi1, pi2, ident, zero_hom(z4_bool, z4_bool))


def reference_product(g, h):
    """The product as built before pullbacks were built from pair lists."""
    q = g.quantale
    entries = [[q.meet(g.entry(i1, i2), h.entry(j1, j2))
                for i2 in range(g.size) for j2 in range(h.size)]
               for i1 in range(g.size) for j1 in range(h.size)]
    return VGroup(FiniteGroup.direct_product(g.group, h.group), q, VRel(q, entries))


def test_pullback_without_agreeing_pairs_raises(bool_q, z2):
    # neither map is a homomorphism, so they need not meet at the identity
    point = trivial_vgroup(bool_q)
    target = discrete_vgroup(z2, bool_q)
    f, g = VHom(point, target, [1]), VHom(point, target, [0])
    with pytest.raises(StructuralError, match="empty Cayley table"):
        pullback(f, g)


def test_pullback_matches_subobject_of_product():
    """Over every cospan among the smoke objects and among the
    endomorphisms of one lawvere-chain object on S3, the pullback equals
    the subobject of the product on the agreeing pairs, legs and names
    included.  Each distinct (domains, agreeing pairs) reference is built
    once."""
    into = defaultdict(list)
    for _, cod, f in standard_suite("smoke").all_homs():
        into[cod.name].append(f)
    s3 = structure_from_delta(FiniteGroup.symmetric3(), lawvere_chain(2),
                              (0, 1, 1, 2, 2, 1))
    assert validate_vgroup(s3).ok
    into["s3"] = enumerate_homs(s3, s3)
    products, expected = {}, {}
    for homs in into.values():
        for f, g in itertools.product(homs, repeat=2):
            x, w = f.dom, g.dom
            nb = w.size
            subset = tuple(i * nb + j for i in range(x.size) for j in range(nb)
                           if f(i) == g(j))
            key = (x, w, subset)
            if key not in expected:
                if (x, w) not in products:
                    products[x, w] = reference_product(x, w)
                    assert product(x, w) == products[x, w]
                p, include = subobject(products[x, w], subset)
                expected[key] = (p, VHom(p, x, [s // nb for s in include.mapping]),
                                 VHom(p, w, [s % nb for s in include.mapping]))
            got = pullback(f, g)
            assert got == expected[key]
            assert got[0].group.names == expected[key][0].group.names
    assert len(products) > 400


class TestInducedMaps:
    def test_into_subobject(self, z4_bool, z2_discrete):
        _, inc = subobject(z4_bool, (0, 2))
        assert factor_through_mono(identity_hom(z4_bool), inc) is None
        zero = zero_hom(z2_discrete, z4_bool)
        h = factor_through_mono(zero, inc)
        assert h.then(inc) == zero

    def test_out_of_quotient(self, z4_bool, quotient_to_z2):
        assert factor_through_epi(quotient_to_z2, identity_hom(z4_bool)) is None
        h = factor_through_epi(quotient_to_z2, quotient_to_z2)
        assert h == identity_hom(quotient_to_z2.cod)

    def test_out_of_a_map_that_is_not_onto(self, z2_discrete, z4_bool):
        # 1 and 3 have no preimage under e, so no h has e.then(h) == e
        e = VHom(z2_discrete, z4_bool, [0, 2])
        assert factor_through_epi(e, e) is None
        assert factor_through_epi(e, identity_hom(z2_discrete)) is None

    def test_across_quantales_raises(self, z2_discrete, law2, z2):
        # the induced maps are stored unchecked, so each refuses a pair of
        # maps over two quantales itself, as the VHom check did
        own, other = identity_hom(z2_discrete), identity_hom(discrete_vgroup(z2, law2))
        p, pi1, pi2 = pullback(own, own)
        for induced in (lambda: factor_through_epi(own, other),
                        lambda: factor_through_mono(other, own),
                        lambda: pullback_comparison(p, pi1, pi2, other, other)):
            with pytest.raises(StructuralError, match="shared quantale"):
                induced()


class TestImageFactorization:
    def test_composite_recovers_map(self, quotient_to_z2):
        smoke = [f for _, _, f in standard_suite("smoke").all_homs()]
        for f in [quotient_to_z2] + smoke:
            e, mid, m = image_factorize(f)
            assert e.then(m) == f
            assert classify_hom(e).regular_epi
            assert classify_hom(m).mono

    def test_mono_gives_iso_left_leg(self, z2_discrete, z4_bool):
        mono = VHom(z2_discrete, z4_bool, [0, 2])
        e, mid, m = image_factorize(mono)
        assert is_isomorphism(e)

    def test_regular_epi_gives_iso_right_leg(self, quotient_to_z2):
        e, mid, m = image_factorize(quotient_to_z2)
        assert is_isomorphism(m)

    def test_zero_map_middle_is_join(self, z4_bool, z2_discrete, bool_q):
        e, mid, m = image_factorize(zero_hom(z4_bool, z2_discrete))
        assert mid.size == 1
        assert mid.entry(0, 0) == bool_q.join_all(
            z4_bool.entry(x, y) for x in range(4) for y in range(4))


class TestHomClassification:
    def test_identity_all_flags(self, z4_bool):
        cls = classify_hom(identity_hom(z4_bool))
        assert cls.mono and cls.epi and cls.regular_epi and cls.normal_mono

    def test_quotient_flags(self, quotient_to_z2):
        cls = classify_hom(quotient_to_z2)
        assert cls.epi and cls.regular_epi and not cls.mono
        assert cls.normal_epi_alias

    def test_inclusion_flags(self, z4_bool, quotient_to_z2):
        ker, inc = kernel(quotient_to_z2)
        cls = classify_hom(inc)
        assert cls.mono and cls.normal_mono and not cls.epi

    def test_epi_but_not_final(self, z2_indiscrete, z2_discrete):
        # identity carrier map from discrete to indiscrete is surjective
        # but the indiscrete structure is strictly above the pushed one
        f = VHom(z2_discrete, z2_indiscrete, [0, 1])
        cls = classify_hom(f)
        assert cls.epi and not cls.regular_epi
        assert not is_final(f)

    def test_alias_not_set_over_non_integral(self, non_integral_q, z2):
        obj = discrete_vgroup(z2, non_integral_q)
        cls = classify_hom(identity_hom(obj))
        assert cls.regular_epi and not cls.normal_epi_alias

    def test_is_regular_epi_is_the_classified_flag(self):
        # every smoke morphism and a surjection that is not final
        smoke = [f for _, _, f in standard_suite("smoke").all_homs()]
        q = builtin_quantale("boolean")
        z2 = FiniteGroup.cyclic(2)
        not_final = VHom(discrete_vgroup(z2, q), indiscrete_vgroup(z2, q), [0, 1])
        flags = [is_regular_epi(f) for f in smoke + [not_final]]
        assert flags == [classify_hom(f).regular_epi for f in smoke + [not_final]]
        assert 0 < sum(flags) < len(flags) and not flags[-1]


class TestEnumeration:
    def test_trivial_group_boolean(self, bool_q):
        structures = enumerate_structures(FiniteGroup.trivial(), bool_q)
        assert len(structures) == 1
        assert structures[0].entry(0, 0) == bool_q.top

    def test_z2_boolean_two_structures(self, bool_q, z2):
        structures = enumerate_structures(z2, bool_q)
        assert [s.delta() for s in structures] == [(1, 0), (1, 1)]

    def test_z2_chain_three_structures(self, law2, z2):
        structures = enumerate_structures(z2, law2)
        assert [s.delta() for s in structures] == [(0, 0), (0, 1), (0, 2)]

    def test_matches_independent_full_matrix_scan(self, bool_q, z3):
        # oracle: filter every 3x3 matrix with a direct law check
        from vgroups import VGroup
        expected = []
        for flat in itertools.product(range(2), repeat=9):
            entries = [flat[0:3], flat[3:6], flat[6:9]]
            vg = VGroup(z3, bool_q, VRel(bool_q, entries))
            if validate_vgroup(vg).ok:
                expected.append(vg.structure.entries)
        got = [s.structure.entries for s in enumerate_structures(z3, bool_q)]
        assert sorted(expected) == sorted(got)

    def test_s3_boolean_structures_are_normal_subgroups(self, bool_q):
        s3 = FiniteGroup.symmetric3()
        structures = enumerate_structures(s3, bool_q)
        supports = [tuple(i for i, v in enumerate(s.delta()) if v == 1)
                    for s in structures]
        assert sorted(supports) == [tuple(n) for n in s3.all_normal_subgroups()]

    def test_capacity_guard(self, law2, monkeypatch):
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 10)
        with pytest.raises(CapacityError):
            enumerate_structures(FiniteGroup.cyclic(6), law2)

    def test_homs_from_trivial(self, bool_q, z4_bool):
        homs = enumerate_homs(trivial_vgroup(bool_q), z4_bool)
        assert homs == [zero_hom(trivial_vgroup(bool_q), z4_bool)]

    def test_homs_indiscrete_to_discrete(self, z2_indiscrete, z2_discrete):
        homs = enumerate_homs(z2_indiscrete, z2_discrete)
        assert homs == [zero_hom(z2_indiscrete, z2_discrete)]

    def test_homs_discrete_to_discrete(self, z2_discrete):
        homs = enumerate_homs(z2_discrete, z2_discrete)
        assert homs == [zero_hom(z2_discrete, z2_discrete),
                        identity_hom(z2_discrete)]

    def test_homs_from_z8_to_z6(self, bool_q):
        # Hom(Z8, Z6) holds x -> 0 and x -> 3x; 8 -> 6 elements was past
        # the cap while it counted 6^8 maps
        z8, z6 = FiniteGroup.cyclic(8), FiniteGroup.cyclic(6)
        zero, triple = (0,) * 8, tuple(3 * x % 6 for x in range(8))
        homs = enumerate_homs(discrete_vgroup(z8, bool_q), indiscrete_vgroup(z6, bool_q))
        assert [f.mapping for f in homs] == [zero, triple]
        homs = enumerate_homs(indiscrete_vgroup(z8, bool_q), discrete_vgroup(z6, bool_q))
        assert [f.mapping for f in homs] == [zero]

    def test_hom_capacity_guard(self, z4_bool, monkeypatch):
        # Z4 has one generator, so the search tries 4 image choices
        monkeypatch.setattr("vgroups.groups.ENUMERATION_CAP", 3)
        with pytest.raises(CapacityError):
            enumerate_homs(z4_bool, z4_bool)


def brute_homs(dom, cod):
    """Every map fixing the identity that is a homomorphism and compatible
    with the structures, in lexicographic order: the search enumerate_homs
    made before it read generator images."""
    q = dom.quantale
    ta, tb = dom.group.table, cod.group.table
    a, b = dom.structure.entries, cod.structure.entries
    return [m for m in itertools.product(range(cod.size), repeat=dom.size)
            if m[dom.group.identity] == cod.group.identity
            and laws.homomorphism(ta, tb, m) is None
            and laws.compatibility(q, a, b, m) is None]


def assert_homs_match_brute_force(suite, max_candidates):
    compared = 0
    for hs in suite.hom_sets:
        if hs.truncated or hs.candidates > max_candidates:
            continue
        dom, cod = suite.objects[hs.dom].vgroup, suite.objects[hs.cod].vgroup
        assert [f.mapping for f in enumerate_homs(dom, cod)] == brute_homs(dom, cod)
        compared += 1
    return compared


def test_enumerate_homs_matches_brute_force_on_smoke():
    assert assert_homs_match_brute_force(standard_suite("smoke"), 5_000) == 464


@pytest.mark.slow
def test_enumerate_homs_matches_brute_force_on_full():
    assert assert_homs_match_brute_force(standard_suite("full"), 5_000) == 2_605


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 5), st.integers(1, 3), st.data())
def test_profile_routes_agree_on_cyclic_groups(n, m, data):
    # on abelian carriers the shift route and the compatibility route
    # must agree for every candidate profile, valid or not
    from vgroups import lawvere_chain
    group = FiniteGroup.cyclic(n)
    q = lawvere_chain(m)
    delta = tuple(data.draw(st.integers(0, m)) for _ in range(n))
    report = validate_vgroup(structure_from_delta(group, q, delta))
    assert report.notes["routes_agree"]


def reference_enumerate_structures(group, quantale):
    """enumerate_structures before one profile test served every carrier,
    verbatim: abelian carriers by the profile test, nonabelian ones by
    validate_vgroup of the spread matrix."""
    n = group.size
    count = quantale.size ** n
    if count > ENUMERATION_CAP:
        raise CapacityError(
            f"{count} candidate profiles exceed the cap of {ENUMERATION_CAP}")
    q = quantale
    abelian = group.is_abelian
    out = []
    for delta in iproduct(range(q.size), repeat=n):
        if not q.leq(q.unit, delta[group.identity]):
            continue
        if abelian:
            ok = all(q.leq(q.tensor(delta[u], delta[v]), delta[group.op(u, v)])
                     for u in range(n) for v in range(n))
            if not ok:
                continue
            out.append(structure_from_delta(group, q, delta))
        else:
            candidate = structure_from_delta(group, q, delta)
            if validate_vgroup(candidate).ok:
                out.append(candidate)
    return out


def group_of(elements, op):
    """The group with the Cayley table of ``op`` over ``elements``."""
    index = {x: i for i, x in enumerate(elements)}
    return FiniteGroup([[index[op(x, y)] for y in elements] for x in elements])


def dihedral8():
    """Symmetries of the square: (r, s) is rotation by r after s reflections."""
    def op(x, y):
        return ((x[0] + (-y[0] if x[1] else y[0])) % 4, (x[1] + y[1]) % 2)
    return group_of([(r, s) for s in range(2) for r in range(4)], op)


def quaternion8():
    """Q8 as signed units (sign, axis), axis 0 the unit and 1-3 i, j, k."""
    def op(x, y):
        (s, a), (t, b) = x, y
        if a == 0 or b == 0:
            return (s * t, a + b)
        if a == b:
            return (-s * t, 0)
        c = 6 - a - b
        return (s * t * (1 if (b - a) % 3 == 1 else -1), c)
    return group_of([(s, a) for s in (1, -1) for a in range(4)], op)


def test_profile_matrix_equals_the_per_entry_spread():
    """On every roster group, Z2xZ2 and S3 included, spreading a profile
    through the difference table gives delta[group.sub(y, x)] at (x, y),
    for every profile over three values, as tuple or list; the table is
    built once per group."""
    roster = group_roster()
    assert {"Z2xZ2", "S3"} <= set(roster)
    for name, group in roster.items():
        rng = range(group.size)
        for delta in iproduct(range(3), repeat=group.size):
            want = tuple(tuple(delta[group.sub(y, x)] for y in rng) for x in rng)
            assert profile_matrix(group, delta) == want, (name, delta)
            assert profile_matrix(group, list(delta)) == want, (name, delta)
        assert group.derived(difference_rows) is group.derived(difference_rows)


class TestEnumerationDifferential:
    """The profile test keeps what the reference kept, in the same order."""

    def assert_same(self, groups, quantales):
        for group in groups:
            for q in quantales:
                got = [s.structure for s in enumerate_structures(group, q)]
                want = [s.structure for s in reference_enumerate_structures(group, q)]
                assert got == want, (group.names, q.labels)

    def test_roster_over_suite_quantales(self):
        from vgroups.builders import SUITE_LEVELS
        self.assert_same(group_roster().values(),
                         [builtin_quantale(spec["builtin"], spec.get("m"))
                          for _, spec in SUITE_LEVELS["full"].quantales])

    def test_roster_over_lawless_quantales(self, non_integral_q):
        # a chain whose tensor is neither commutative nor unital
        lawless = Quantale(labels=["a", "b", "c"],
                           leq=[[u <= v for v in range(3)] for u in range(3)],
                           tensor=[[(u + 2 * v) % 3 for v in range(3)] for u in range(3)],
                           unit=1, bottom=0, top=2)
        assert lawless.tensor(0, 1) != lawless.tensor(1, 0)
        self.assert_same(group_roster().values(), [non_integral_q, lawless])

    def test_order_eight_nonabelian(self, bool_q, law2):
        groups = [dihedral8(), quaternion8()]
        for group in groups:
            assert group.size == 8 and not group.is_abelian
        # D4 has four subgroups that are not normal, Q8 none
        assert [len(g.all_subgroups()) - len(g.all_normal_subgroups())
                for g in groups] == [4, 0]
        self.assert_same(groups, [bool_q, law2])


class TestPropositionChecks:
    def test_regular_epi_is_cokernel_of_kernel(self, quotient_to_z2):
        ker, inc = kernel(quotient_to_z2)
        coker, proj = cokernel(inc)
        mapping = [0] * coker.size
        for x in range(4):
            mapping[proj(x)] = quotient_to_z2(x)
        canonical = VHom(coker, quotient_to_z2.cod, mapping)
        assert validate_hom(canonical).ok and is_isomorphism(canonical)

    def test_normal_mono_is_kernel_of_cokernel(self, z4_bool, quotient_to_z2):
        _, inc = kernel(quotient_to_z2)
        coker, proj = cokernel(inc)
        ker2, inc2 = kernel(proj)
        assert set(inc2.mapping) == set(inc.mapping)
        assert ker2.structure.entries == inc.dom.structure.entries


def reference_join_all(q, items):
    """The fold ``final_structure`` replaces: the join of a finite family
    from bottom through ``Quantale.join``, in the family's order."""
    acc = q.bottom
    for u in items:
        acc = q.join(acc, u)
    return acc


def reference_final_structure(g, classes):
    q = g.quantale
    return tuple(tuple(reference_join_all(q, (g.entry(x, y) for x in c for y in d))
                       for d in classes) for c in classes)


class TestFinalStructureReadsTables:
    def test_matches_reference_on_smoke_cosets_and_image_fibers(self):
        suite = standard_suite("smoke")
        partitions = 0
        for obj in suite.objects:
            g = obj.vgroup
            for normal in g.group.all_normal_subgroups():
                classes = g.group.cosets(normal)
                assert final_structure(g, classes) == reference_final_structure(g, classes)
                partitions += 1
        for _, _, f in suite.all_homs():
            classes = fibers(f, f.image_set())
            assert final_structure(f.dom, classes) == \
                reference_final_structure(f.dom, classes)
            partitions += 1
        assert partitions > 769

    def test_missing_join_raises_as_the_reference(self):
        # 0 < a, b < c, d < 1: a and b have the upper bounds c, d and 1
        # but no least one.  Over Z2 with the rows [a, b] and [1, 1], the
        # single class {0, 1} folds join(0, a) = a and then join(a, b),
        # which is missing; the classes {0} and {1} fold one value each.
        up = {0: {0, 1, 2, 3, 4, 5}, 1: {1, 3, 4, 5}, 2: {2, 3, 4, 5},
              3: {3, 5}, 4: {4, 5}, 5: {5}}
        q = Quantale(labels=["0", "a", "b", "c", "d", "1"],
                     leq=[[v in up[u] for v in range(6)] for u in range(6)],
                     tensor=[[v if u == 5 else u if v == 5 else 0
                              for v in range(6)] for u in range(6)],
                     unit=5, bottom=0, top=5)
        assert q.join_table[1][2] is None
        g = VGroup(FiniteGroup.cyclic(2), q, VRel(q, [[1, 2], [5, 5]]))
        assert final_structure(g, [[0], [1]]) == reference_final_structure(g, [[0], [1]])
        with pytest.raises(StructuralError) as new:
            final_structure(g, [[0, 1]])
        with pytest.raises(StructuralError) as old:
            reference_final_structure(g, [[0, 1]])
        assert str(new.value) == str(old.value) == "order has no join for (a, b)"
