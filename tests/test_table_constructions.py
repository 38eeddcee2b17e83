"""Differential test of the constructions that read Cayley rows and
mapping tuples directly.

``pair_group``, ``subgroup_group``, ``quotient_group``, ``cosets``,
``is_subgroup`` and ``normality_witness`` read the rows of the Cayley
table and the inverses; ``pullback``, ``pullback_comparison``, ``fibers``
and ``equalizer`` read mapping tuples; ``zero_hom``, ``VRel.converse``
and ``VRel.from_function`` build through the trusted constructors.  Each
is compared here with a copy of the version it replaced, which called
``FiniteGroup.op``, ``inv`` or ``conj`` and ``VHom.__call__`` once per
entry and built maps and relations through the checking constructors:
on the smoke suite, on the roster's nonabelian and larger carriers, on
the cospans the pullback-stability checks visit, and on the error paths,
which must raise the same exception with the same message.
``VRel.then`` has its per-entry reference in ``test_vrel.py``.
"""

from itertools import islice

import pytest

from vgroups import (FiniteGroup, StructuralError, TheoremCheckError, VGroup, VHom, VRel,
                     battery, classify_morphism)
from vgroups.builders import group_roster, standard_suite
from vgroups.groups import _distinct, pair_group, quotient_group, subgroup_group
from vgroups.vgroup import (discrete_vgroup, equalizer, fibers, identity_hom, is_regular_epi,
                            pair_meets, pullback, pullback_comparison, subobject,
                            zero_hom)


# -- the per-element versions ----------------------------------------------

def reference_is_subgroup(group, subset):
    s = set(subset)
    if group.identity not in s:
        return False
    return all(group.op(x, y) in s for x in s for y in s) and \
        all(group.inv(x) in s for x in s)


def reference_normality_witness(group, subset):
    s = set(subset)
    for g in range(group.size):
        for n in s:
            if group.conj(g, n) not in s:
                return (g, n)
    return None


def reference_cosets(group, normal_subset):
    s = set(normal_subset)
    seen = set()
    cosets = []
    for x in range(group.size):
        if x in seen:
            continue
        coset = tuple(sorted(group.op(x, m) for m in s))
        seen.update(coset)
        cosets.append(coset)
    return sorted(cosets, key=lambda c: c[0])


def reference_subgroup_group(group, subset):
    subset = tuple(sorted(subset))
    if not reference_is_subgroup(group, subset):
        raise StructuralError("subset is not a subgroup")
    names = _distinct(tuple([group.names[x] for x in subset]))
    pos = {x: i for i, x in enumerate(subset)}
    table = tuple([tuple([pos[group.op(x, y)] for y in subset]) for x in subset])
    inverse = tuple([pos[group.inv(x)] for x in subset])
    return FiniteGroup._trusted(table, names, pos[group.identity], inverse)


def reference_pair_group(a, b, pairs):
    if not pairs:
        raise StructuralError("empty Cayley table")
    pos = {pair: k for k, pair in enumerate(pairs)}
    try:
        table = tuple([tuple([pos[a.op(i1, i2), b.op(j1, j2)] for i2, j2 in pairs])
                       for i1, j1 in pairs])
    except KeyError:
        raise StructuralError("subset is not a subgroup") from None
    names = _distinct(tuple([f"({a.names[i]},{b.names[j]})" for i, j in pairs]))
    inverse = tuple([pos[a.inv(i), b.inv(j)] for i, j in pairs])
    return FiniteGroup._trusted(table, names, pos[a.identity, b.identity], inverse)


def reference_quotient_group(group, normal_subset):
    witness = reference_normality_witness(group, normal_subset)
    if not reference_is_subgroup(group, normal_subset) or witness is not None:
        raise StructuralError("subset is not a normal subgroup")
    cosets = reference_cosets(group, normal_subset)
    coset_of = {}
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    reps = [c[0] for c in cosets]
    table = tuple([tuple([coset_of[group.op(c, d)] for d in reps]) for c in reps])
    names = tuple([f"[{group.names[c]}]" for c in reps])
    inverse = tuple([coset_of[group.inv(c)] for c in reps])
    quotient = FiniteGroup._trusted(table, names, coset_of[group.identity], inverse)
    return quotient, tuple([coset_of[x] for x in range(group.size)])


def reference_pullback(f, g):
    x, w, q = f.dom, g.dom, f.cod.quantale
    pairs = [(i, j) for i in range(x.size) for j in range(w.size) if f(i) == g(j)]
    entries = pair_meets(q, x.structure.entries, w.structure.entries, pairs)
    p = VGroup(reference_pair_group(x.group, w.group, pairs), q, VRel(q, entries))
    return p, VHom(p, x, [i for i, _ in pairs]), VHom(p, w, [j for _, j in pairs])


def reference_pullback_comparison(p, pi1, pi2, u1, u2):
    hits = {}
    for i in range(p.size):
        hits.setdefault((pi1(i), pi2(i)), []).append(i)
    mapping = []
    for x in range(u1.dom.size):
        found = hits.get((u1(x), u2(x)), ())
        if len(found) != 1:
            raise TheoremCheckError(
                f"pullback comparison is not well-defined at element "
                f"{u1.dom.group.names[x]!r} of {u1.dom!r}: {len(found)} hits")
        mapping.append(found[0])
    return VHom(u1.dom, p, mapping)


def reference_fibers(f, targets):
    return [[x for x in range(f.dom.size) if f(x) == y] for y in targets]


def reference_equalizer(f, g):
    return subobject(f.dom, [x for x in range(f.dom.size) if f(x) == g(x)])


def reference_zero_hom(g, h):
    return VHom(g, h, [h.group.identity] * g.size)


def reference_converse(r):
    return VRel(r.quantale, [[r.entries[x][y] for x in range(r.src_size)]
                             for y in range(r.dst_size)])


def reference_from_function(quantale, mapping, dst_size):
    k, bot = quantale.unit, quantale.bottom
    for y in mapping:
        if not 0 <= y < dst_size:
            raise StructuralError(f"function value out of range: {y!r}")
    return VRel(quantale, [[k if mapping[x] == y else bot for y in range(dst_size)]
                           for x in range(len(mapping))])


def reference_pulled_back(suite, keep, cap):
    homs = [f for _, _, f in suite.all_homs()]
    cospans = ((f, g) for f in homs if keep(f) for g in homs if g.cod == f.cod)
    for f, g in islice(cospans, cap):
        yield f, g, reference_pullback(f, g)[2]


# -- comparisons -----------------------------------------------------------

def _group_fields(g):
    return (g.table, g.names, g.identity, g.inverse)


def _same_pullback(got, expected):
    """Equal carriers, structures and projections, down to the group's
    identity and inverses, which ``VGroup`` equality does not compare."""
    assert got == expected
    assert _group_fields(got[0].group) == _group_fields(expected[0].group)


def _same_error(call, reference):
    """Both calls raise, with one exception type and one message."""
    with pytest.raises(Exception) as expected:
        reference()
    with pytest.raises(Exception) as got:
        call()
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def _assert_group_constructions(group):
    """Cosets, subgroup and quotient groups on every normal subgroup, and
    the direct square; returns the number of normal subgroups."""
    normals = group.all_normal_subgroups()
    for normal in normals:
        assert group.cosets(normal) == reference_cosets(group, normal)
        assert _group_fields(subgroup_group(group, normal)) == \
            _group_fields(reference_subgroup_group(group, normal))
        quotient, projection = quotient_group(group, normal)
        expected, expected_projection = reference_quotient_group(group, normal)
        assert (_group_fields(quotient), projection) == \
            (_group_fields(expected), expected_projection)
    pairs = [(i, j) for i in range(group.size) for j in range(group.size)]
    assert _group_fields(FiniteGroup.direct_product(group, group)) == \
        _group_fields(reference_pair_group(group, group, pairs))
    return len(normals)


def test_group_constructions_match_on_smoke_objects():
    suite = standard_suite("smoke")
    normals = sum(_assert_group_constructions(obj.vgroup.group) for obj in suite.objects)
    # 2 objects on Z1, 5 on Z2, 7 on Z3 and 14 on Z4, with 1, 2, 2 and 3 normal subgroups
    assert (len(suite.objects), normals) == (28, 68)


def test_group_constructions_match_on_the_roster():
    """Every subset of each roster group, S3 and Z2xZ2 among them, for the
    two subgroup tests; the normal subgroups for the constructions."""
    subgroups = witnesses = normals = 0
    for group in group_roster().values():
        for bits in range(1 << group.size):
            subset = [x for x in range(group.size) if bits >> x & 1]
            found = group.is_subgroup(subset)
            assert found == reference_is_subgroup(group, subset)
            witness = group.normality_witness(subset)
            assert witness == reference_normality_witness(group, subset)
            subgroups += found
            witnesses += found and witness is not None
        normals += _assert_group_constructions(group)
    # S3's three subgroups of order 2 are its only ones that are not normal
    assert (subgroups, witnesses, normals) == (25, 3, 22)


def test_morphism_constructions_match_on_smoke_morphisms():
    """Fibres, equalizers, the zero map and the graph relation of every
    smoke morphism f: X -> Z, the converses of that graph and of X's
    structure, and the pullbacks of f along the identity of Z, of the
    identity along f and of f along itself, each with a comparison from X."""
    suite = standard_suite("smoke")
    checked = 0
    for dom, cod, f in suite.all_homs():
        x, z, q = dom.vgroup, cod.vgroup, dom.vgroup.quantale
        for targets in (range(z.size), f.image_set()):
            assert fibers(f, targets) == reference_fibers(f, targets)
        zero = zero_hom(x, z)
        assert (zero, zero.name) == (reference_zero_hom(x, z), None)
        for other in (zero, f):
            assert equalizer(f, other) == reference_equalizer(f, other)
        graph = VRel.from_function(q, f.mapping, z.size)
        assert graph == reference_from_function(q, f.mapping, z.size)
        for r in (graph, x.structure):
            assert r.converse() == reference_converse(r)
        ident_x, ident_z = identity_hom(x), identity_hom(z)
        for cospan, cone in (((f, ident_z), (ident_x, f)),
                             ((ident_z, f), (f, ident_x)),
                             ((f, f), (ident_x, ident_x))):
            got = pullback(*cospan)
            _same_pullback(got, reference_pullback(*cospan))
            assert pullback_comparison(*got, *cone) == \
                reference_pullback_comparison(*got, *cone)
        checked += 1
    assert checked == 769


def test_pulled_back_cospans_match_in_yield_order():
    """The cospans of both pullback-stability checks, at their caps, in the
    order they are visited, with their pullbacks."""
    suite = standard_suite("smoke")
    visits = ((is_regular_epi, battery.REGULAR_EPI_COSPAN_CAP),
              (lambda f: classify_morphism(f, suite.cache).stably_inverted, battery.STABLE_CLASS_CAP))
    counts = []
    for keep, cap in visits:
        got = list(battery._cospans(suite, keep, cap))
        expected = list(reference_pulled_back(suite, keep, cap))
        assert got == [(f, g) for f, g, _ in expected]
        for (f, g), (_, _, reference) in zip(got, expected):
            assert pullback(f, g)[2] == reference
            _same_pullback(pullback(f, g), reference_pullback(f, g))
        counts.append(len(got))
    assert counts == [battery.REGULAR_EPI_COSPAN_CAP, battery.STABLE_CLASS_CAP]


def test_subgroup_and_quotient_groups_raise_as_the_reference():
    s3, z4 = FiniteGroup.symmetric3(), FiniteGroup.cyclic(4)
    # {0, 1} is S3's subgroup of order 2 on the first transposition
    assert s3.normality_witness([0, 1]) is not None
    _same_error(lambda: quotient_group(s3, [0, 1]),
                lambda: reference_quotient_group(s3, [0, 1]))
    _same_error(lambda: subgroup_group(z4, [0, 1]),
                lambda: reference_subgroup_group(z4, [0, 1]))


@pytest.mark.parametrize("pairs", [[(0, 0), (1, 0)], [], [(0, 0), (0, 0)]],
                         ids=["not-closed", "empty", "repeated"])
def test_pair_group_raises_as_the_reference(pairs):
    z4, z1 = FiniteGroup.cyclic(4), FiniteGroup.trivial()
    _same_error(lambda: pair_group(z4, z1, pairs),
                lambda: reference_pair_group(z4, z1, pairs))


def test_pullback_comparison_raises_as_the_reference(z4_bool, z2_discrete, quotient_to_z2):
    # no pair of the kernel pair of z4 -> z2 is (1, 0): zero hits at 1
    p, pi1, pi2 = pullback(quotient_to_z2, quotient_to_z2)
    ident, zero = identity_hom(z4_bool), zero_hom(z4_bool, z4_bool)
    # with both legs z4 -> z2, 0 and 2 share the pair (0, 0): two hits at 0
    cone = identity_hom(z2_discrete)
    for args, hits in (((p, pi1, pi2, ident, zero), "0 hits"),
                       ((z4_bool, quotient_to_z2, quotient_to_z2, cone, cone), "2 hits")):
        _same_error(lambda: pullback_comparison(*args),
                    lambda: reference_pullback_comparison(*args))
        with pytest.raises(TheoremCheckError, match=hits):
            pullback_comparison(*args)


def test_zero_hom_across_quantales_raises_as_the_reference(z2_discrete, law2, z2):
    other = discrete_vgroup(z2, law2)
    _same_error(lambda: zero_hom(z2_discrete, other),
                lambda: reference_zero_hom(z2_discrete, other))


@pytest.mark.parametrize("mapping", [[0, 2], [-1, 0]], ids=["above", "below"])
def test_from_function_raises_as_the_reference(bool_q, mapping):
    _same_error(lambda: VRel.from_function(bool_q, mapping, 2),
                lambda: reference_from_function(bool_q, mapping, 2))
