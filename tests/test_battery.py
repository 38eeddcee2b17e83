"""What the battery checks rely on without re-checking it, on the smoke suite."""

from vgroups import (VHom, battery, is_isomorphism, pullback, standard_suite,
                     validate_hom)
from vgroups.battery import SMALL_CARRIER, _exact_sequences
from vgroups.factorization import ClassCache, cached_decomposition
from vgroups.torsion import reflected_map
from vgroups.vgroup import (factor_through_epi, factor_through_mono,
                            factorization_middle_iso, pullback_comparison)


def test_sequence_restrictions_validate_and_compare_into_the_pullback():
    """For every smoke morphism b and normal subgroups nx, ny of its ends
    with b(nx) inside ny, the restriction a of b is a valid hom, the cone
    (a, inclusion of nx) has exactly one comparison into the pullback of
    the inclusion of ny along b, and the map c that b induces between the
    quotients exists and is a valid hom."""
    suite = standard_suite("smoke")
    assert all(obj.vgroup.size <= SMALL_CARRIER for obj in suite.objects)
    sequences = [_exact_sequences(obj.vgroup) for obj in suite.objects]
    restrictions = 0
    for hs in suite.hom_sets:
        for b in hs.homs:
            for _, inc_x, proj_x in sequences[hs.dom]:
                for _, inc_y, proj_y in sequences[hs.cod]:
                    a_vert = factor_through_mono(inc_x.then(b), inc_y)
                    if a_vert is None:
                        continue
                    restrictions += 1
                    assert validate_hom(a_vert).ok, (b, inc_x, inc_y)
                    p, to_ty, to_x = pullback(inc_y, b)
                    comparison = pullback_comparison(p, to_ty, to_x, a_vert, inc_x)
                    assert comparison.then(to_x) == inc_x
                    c_vert = factor_through_epi(proj_x, b.then(proj_y))
                    assert c_vert is not None, (b, inc_x, inc_y)
                    assert validate_hom(c_vert).ok, (b, inc_x, inc_y)
    # as many as the battery's ses_morphism_pullback check counts at smoke
    assert restrictions == 4656


def test_reflected_maps_validate_and_torsion_parts_restrict():
    """For every smoke morphism f, the map between the separated
    reflections is a valid hom and f restricts to the torsion parts."""
    suite = standard_suite("smoke")
    cache = ClassCache()
    morphisms = suite.all_homs()
    for _, _, f in morphisms:
        dd = cached_decomposition(f.dom, cache)
        cd = cached_decomposition(f.cod, cache)
        assert validate_hom(reflected_map(f, dd, cd)).ok, f
        assert factor_through_mono(dd.injection.then(f), cd.injection) is not None, f
    # as many as the battery's morphism_classification check counts at smoke
    assert len(morphisms) == 769


def reference_middle_iso(e1, m1, e2, m2):
    """The backtracking search factorization_middle_iso made before it
    filtered group_isomorphisms, verbatim."""
    mid1, mid2 = e1.cod, m2.dom
    if mid1.size != mid2.size:
        return None
    n = mid1.size
    assign = [None] * n
    for x in range(e1.dom.size):
        v = e2(x)
        if assign[e1(x)] not in (None, v):
            return None
        assign[e1(x)] = v

    candidates = []
    for p in range(n):
        if assign[p] is not None:
            candidates.append([assign[p]])
        else:
            candidates.append([v for v in range(n) if m2(v) == m1(p)])

    def extend(i, used):
        if i == n:
            yield []
            return
        for v in candidates[i]:
            if v in used:
                continue
            for rest in extend(i + 1, used | {v}):
                yield [v] + rest

    for mapping in extend(0, set()):
        h = VHom(mid1, mid2, mapping)
        if not validate_hom(h).ok or not is_isomorphism(h):
            continue
        if all(m2(h(p)) == m1(p) for p in range(n)):
            return h
    return None


def test_middle_iso_agrees_with_the_backtracking_search(monkeypatch):
    """On every quadruple the smoke battery's uniqueness checks pass to
    factorization_middle_iso, and on each with its second pair of legs
    replaced by every other pair between the same objects, the search
    finds an isomorphism exactly when the backtracking search does."""
    suite = standard_suite("smoke")
    passed = []

    def recording(*legs):
        passed.append(legs)
        return factorization_middle_iso(*legs)

    monkeypatch.setattr(battery, "factorization_middle_iso", recording)
    assert battery.check_image_factorization(suite).ok
    assert battery.check_factorizations(suite).ok
    assert len(passed) == 503

    index = {obj.name: i for i, obj in enumerate(suite.objects)}

    def homs(dom, cod):
        hs = suite.homs_between(index[dom.name], index[cod.name])
        return hs.homs if hs is not None else ()

    quadruples = dict.fromkeys(passed)
    for e1, m1, e2, m2 in passed:
        for e3 in homs(e2.dom, e2.cod):
            for m3 in homs(m2.dom, m2.cod):
                quadruples.setdefault((e1, m1, e3, m3))
    found = [factorization_middle_iso(*legs) is not None for legs in quadruples]
    assert found == [reference_middle_iso(*legs) is not None for legs in quadruples]
    assert (len(found), found.count(False)) == (1515, 1012)
