"""What the battery checks rely on without re-checking it, on the smoke suite,
and what they build against the code it replaced."""

import sys
from itertools import product as iproduct
from pathlib import Path

import pytest

from vgroups import (FiniteGroup, IntegerIndexedCover, Quantale, StructuralError, VGroup,
                     VHom, VRel, battery, factorization,
                     builtin_quantale, classify_hom, classify_morphism, classify_object,
                     image_factorize, is_isomorphism, is_regular_epi, laws,
                     monotone_light_factorize, pullback, reflective_factorize,
                     standard_suite, torsion, trivial_vgroup, validate_hom, zero_hom)
from vgroups.battery import SMALL_CARRIER, _alternative_factorizations, _exact_sequences
from vgroups.builders import SUITE_LEVELS, group_roster
from vgroups.document import canonical_json
from vgroups.factorization import ClassCache, cached_decomposition
from vgroups.torsion import reflected_map
from vgroups.vgroup import (factor_through_epi, factor_through_mono,
                            factorization_middle_iso, profile_matrix,
                            pullback_comparison)

from test_groups import moved_z4
from test_laws import reference_addition_compatibility, shift_pairs

EXPECTED = Path(__file__).parent / "expected"


def test_sequence_restrictions_validate_and_compare_into_the_pullback():
    """For every smoke morphism b and normal subgroups nx, ny of its ends
    with b(nx) inside ny, the restriction a of b is a valid hom, the cone
    (a, inclusion of nx) has exactly one comparison into the pullback of
    the inclusion of ny along b, and the map c that b induces between the
    quotients exists and is a valid hom."""
    suite = standard_suite("smoke")
    assert all(obj.vgroup.size <= SMALL_CARRIER for obj in suite.objects)
    sequences = [_exact_sequences(suite.cache, obj.vgroup) for obj in suite.objects]
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


def reference_pullback_entries(f, g):
    """The pullback structure as built before ``pair_meets``."""
    x, w, q = f.dom, g.dom, f.cod.quantale
    pairs = [(i, j) for i in range(x.size) for j in range(w.size) if f(i) == g(j)]
    return tuple(tuple(q.meet(x.entry(i1, i2), w.entry(j1, j2)) for i2, j2 in pairs)
                 for i1, j1 in pairs)


def test_stability_pullbacks_match_the_reference():
    """Every cospan the two pullback-stability checks visit at smoke."""
    suite = standard_suite("smoke")
    visits = ((is_regular_epi, battery.REGULAR_EPI_COSPAN_CAP),
              (lambda f: classify_morphism(f, suite.cache).stably_inverted, battery.STABLE_CLASS_CAP))
    cospans = 0
    for keep, cap in visits:
        for f, g in battery._cospans(suite, keep, cap):
            cospans += 1
            assert pullback(f, g)[0].structure.entries == reference_pullback_entries(f, g)
    # the cospans and pullbacks the two checks count at smoke
    assert cospans == 400 + 250


def test_pullback_raises_the_reference_error_on_a_missing_meet(z2):
    # 0 and 1 are incomparable: the order has no meet for them
    q = Quantale(labels=["0", "1", "2"], leq=[[1, 0, 1], [0, 1, 1], [0, 0, 1]],
                 tensor=[[min(u, v) for v in range(3)] for u in range(3)],
                 unit=2, bottom=0, top=2)
    point = trivial_vgroup(q)
    f = zero_hom(VGroup(z2, q, VRel(q, [[2, 0], [0, 2]])), point)
    g = zero_hom(VGroup(z2, q, VRel(q, [[2, 1], [1, 2]])), point)
    with pytest.raises(StructuralError, match="no meet") as expected:
        reference_pullback_entries(f, g)
    with pytest.raises(StructuralError) as got:
        pullback(f, g)
    assert str(got.value) == str(expected.value)


def reference_route_agreement_counts(group, q):
    """``battery.route_agreement_counts`` as it scanned before it drew
    reflexive candidates only: every candidate of the family, each one
    through both routes.  Addition compatibility goes through the
    reference scanner of test_laws, with the group operation, and shift
    invariance through shift pairs built from it."""
    shifts = shift_pairs(group.op, group.size)

    def route_flags(a):
        if laws.reflexivity(q, a) is not None:
            return False, False
        shift_ok = laws.transitivity(q, a) is None and \
            laws.shift_invariance(a, shifts) is None
        return shift_ok, reference_addition_compatibility(q, a, group.op) is None

    n = group.size
    abelian = group.is_abelian
    candidates = disagreements = findings = valid = 0
    if q.size ** (n * n) <= battery.MATRIX_ENUMERATION_CAP:
        rows = list(iproduct(range(q.size), repeat=n))
        source = iproduct(rows, repeat=n)
    else:
        source = (profile_matrix(group, delta)
                  for delta in iproduct(range(q.size), repeat=n))
    for matrix in source:
        candidates += 1
        shift_route, functor_route = route_flags(matrix)
        valid += functor_route
        if shift_route != functor_route:
            if abelian:
                disagreements += 1
            else:
                findings += 1
    return candidates, disagreements, findings, valid


def test_route_oracle_matches_the_full_family_scan(non_integral_q):
    """The oracle's four counts equal those of the scan over every
    candidate: on each quantale and group of the full suite, and over
    the roster and one group whose identity is not 0, on a non-integral
    quantale and on a lawless integral order, each with two values above
    the unit, and on a lawless tensor under which the routes disagree on
    abelian carriers (120 candidates on Z3), so that the walk meets
    disagreements between the blocks it steps past."""
    roster = group_roster()
    cases = [(builtin_quantale(spec["builtin"], spec.get("m")), roster[name])
             for _, spec in SUITE_LEVELS["full"].quantales
             for name in SUITE_LEVELS["full"].groups]
    # the cyclic order 1 <= 0 <= 2 <= 1 with unit = top = 2 and tensor min
    cyclic = Quantale(labels=["0", "1", "2"], leq=[[1, 0, 1], [1, 1, 0], [0, 1, 1]],
                      tensor=[[min(u, v) for v in range(3)] for u in range(3)],
                      unit=2, bottom=0, top=2)
    moved = moved_z4()
    for q in (non_integral_q, cyclic):
        assert sum(q.leq(q.unit, v) for v in range(q.size)) == 2
        cases += [(q, group) for group in [*roster.values(), moved]]
    # the chain 0 <= 1 <= 2 with unit = top = 2 and a tensor under which
    # 2 is no unit (2 (x) 2 = 0)
    lawless = Quantale(labels=["0", "1", "2"], leq=[[u <= v for v in range(3)]
                                                    for u in range(3)],
                       tensor=[[0, 0, 0], [0, 1, 1], [0, 1, 0]], unit=2, bottom=0, top=2)
    cases += [(lawless, group) for group in [*roster.values(), moved]]
    findings = 0
    disagreements = {}
    for q, group in cases:
        counts = battery.route_agreement_counts(group, q)
        assert counts == reference_route_agreement_counts(group, q), (q, group)
        findings += counts[2]
        if q is lawless:
            disagreements[group] = counts[1]
    assert findings > 0
    assert disagreements[roster["Z3"]] == 120


def test_the_route_walk_scans_the_pinned_candidates(monkeypatch):
    """The regression guard of the block walk: the number of candidates
    ``check_structure_routes`` scans, one addition-compatibility scan
    each, out of the 85,914 and 164,511 candidates it counts.  The
    family's reflexive members alone are 4,931 and 12,308."""
    scanned = []
    scan = laws.addition_compatibility
    monkeypatch.setattr(laws, "addition_compatibility",
                        lambda *args: scanned.append(1) or scan(*args))
    for level, want in (("smoke", 774), ("full", 2798)):
        scanned.clear()
        result = battery.check_structure_routes(standard_suite(level))
        assert result.ok and len(scanned) == want, level


def test_a_uniqueness_cap_is_tested_once_per_morphism(monkeypatch):
    """A uniqueness count stops at the first morphism that crosses its cap,
    after that morphism's pairs: with the cap one past the pairs before the
    first morphism that has several, the count takes all of that one's."""
    suite = standard_suite("smoke")

    def image_pairs(dom, cod, f):
        return sum(classify_hom(e2).regular_epi and classify_hom(m2).mono for _, e2, m2 in
                   _alternative_factorizations(suite, dom, cod, f, image_factorize(f)[1].size))

    def factorization_pairs(dom, cod, f):
        count = 0
        for factorize, left, right in ((reflective_factorize, "reflector_inverted",
                                        "trivial_covering"),
                                       (monotone_light_factorize, "stably_inverted",
                                        "covering")):
            size = factorize(f, suite.cache).middle.size
            for _, e2, m2 in _alternative_factorizations(suite, dom, cod, f, size):
                count += getattr(classify_morphism(e2, suite.cache), left) and \
                    getattr(classify_morphism(m2, suite.cache), right)
        return count

    for cap, check, pairs in (("IMAGE_UNIQUENESS_CAP", battery.check_image_factorization,
                               image_pairs),
                              ("FACTORIZATION_UNIQUENESS_CAP", battery.check_factorizations,
                               factorization_pairs)):
        before = 0
        for dom, cod, f in suite.all_homs():
            count = pairs(dom, cod, f) if dom.vgroup.size <= SMALL_CARRIER else 0
            if count > 1:
                break
            before += count
        monkeypatch.setattr(battery, cap, before + 1)
        assert check(suite).details["uniqueness_checked"] == before + count, cap


def test_torsion_check_classifies_and_builds_each_object_once(monkeypatch):
    """One smoke run of the ses check, then the torsion check, builds each
    small object's exact sequences once, in the suite's cache, where both
    checks read them, and the torsion check classifies each distinct
    object, suite object, kernel or quotient, once; run alone, the torsion
    check builds the same sequences once, and its result is the same
    either way."""
    built, classified = [], []
    sequences, classify = battery._exact_sequences, torsion.classify_object
    monkeypatch.setattr(battery, "_exact_sequences",
                        lambda cache, g: built.append(g) or sequences(cache, g))
    monkeypatch.setattr(torsion, "classify_object",
                        lambda g: classified.append(g) or classify(g))
    alone = standard_suite("smoke")
    want = battery.check_torsion_theory(alone).as_dict()
    assert len(built) == len(set(built)) == \
        len(alone.cache.store[battery._exact_sequences]) == 28
    assert len(classified) == len(set(classified)) == 61
    suite = standard_suite("smoke")
    built.clear()
    classified.clear()
    battery.check_ses_morphism_pullback(suite)
    stored = dict(suite.cache.store[battery._exact_sequences])
    assert len(stored) == len(suite.objects) == 28
    assert battery.check_torsion_theory(suite).as_dict() == want
    assert all(suite.cache.store[battery._exact_sequences][g] is found
               for g, found in stored.items())
    assert len(built) == len(set(built)) == 28
    assert len(classified) == len(set(classified)) == 61


def test_each_check_run_alone_reports_what_it_reports_in_a_battery():
    """No check depends on what an earlier one left in the suite's cache:
    each, run alone on a fresh smoke suite, reports what it reports in one
    battery run."""
    in_battery = [result.as_dict() for result in battery.run_battery("smoke")]
    alone = [check(standard_suite("smoke")).as_dict() for check in battery.ALL_CHECKS]
    assert alone == in_battery


# The object-level checks of the full suite, the ones the benchmark's
# full-level workload times; frozen in tests/expected before the pretorsion
# spot checks were shared.  The descent check's ``radii`` detail alone was
# re-pinned, from [1, 2] to [1], when it stopped checking radius 2.
FULL_OBJECT_CHECKS = (battery.check_quantale_laws, battery.check_structure_routes,
                      battery.check_objects, battery.check_torsion_theory,
                      battery.check_pretorsion, battery.check_descent_windows)


def test_full_level_object_checks_are_pinned():
    suite = standard_suite("full")
    got = canonical_json([check(suite).as_dict() for check in FULL_OBJECT_CHECKS])
    assert got == (EXPECTED / "suite_full_object_checks.json").read_text(encoding="utf-8")


def counted_run(level, checks):
    """Run ``checks`` on a fresh suite of ``level``, each passing, and
    return each object given to ``classify_object``, from whichever
    package module calls it, each radius given to
    ``IntegerIndexedCover.window_matrix``, and the (codomain, reflected
    map's domain, its mapping) of each naturality square that the suite's
    ``ClassCache`` pulls back, in call order."""
    classified, windows, squares = [], [], []
    window_matrix = IntegerIndexedCover.window_matrix
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.startswith("vgroups") and \
                    getattr(module, "classify_object", None) is classify_object:
                patch.setattr(module, "classify_object",
                              lambda g: classified.append(g) or classify_object(g))
        patch.setattr(IntegerIndexedCover, "window_matrix", lambda self, radius:
                      windows.append(radius) or window_matrix(self, radius))
        # factorization.py pulls back only in its naturality-square build
        patch.setattr(factorization, "pullback", lambda f, g: squares.append(
            (f.dom, g.dom, g.mapping)) or pullback(f, g))
        suite = standard_suite(level)
        for check in checks:
            assert check(suite).ok, check.__name__
    return classified, windows, squares


@pytest.mark.parametrize("level, checks, distinct", [
    ("smoke", battery.ALL_CHECKS, 235), ("full", FULL_OBJECT_CHECKS, 608)])
def test_a_run_classifies_each_object_value_once(level, checks, distinct):
    """Every classification of a run, of a suite object, a torsion part, a
    quotient, a kernel or a test object, goes through the suite's
    ``ClassCache``, so each distinct value is classified once, and each
    object's radius-1 window is built once (28 objects at smoke, 259 at
    full)."""
    classified, windows, _ = counted_run(level, checks)
    assert len(classified) == len(set(classified)) == distinct
    assert windows == [1] * (28 if level == "smoke" else 259)


def test_a_smoke_battery_builds_each_naturality_square_once():
    """``classify_morphism`` (of each morphism and of each left leg it
    classifies), ``reflective_factorize`` and the stable-class pullbacks
    read each naturality square from the suite's ``ClassCache``: 718
    pullbacks, one per key.  Built on every call, the squares took 1,991."""
    _, _, squares = counted_run("smoke", battery.ALL_CHECKS)
    assert len(squares) == len(set(squares)) == 718


def test_a_cokernel_refusal_is_recorded_against_its_morphism(monkeypatch):
    """With ``is_normal_subgroup`` reading ``or`` for ``and``, every mono
    is a normal mono to ``classify_hom``, and ``cokernel`` refuses each
    full-level mono into S3 whose image is not normal.  The roundtrip
    check records each refusal against its morphism and goes on."""
    monkeypatch.setattr(FiniteGroup, "is_normal_subgroup", lambda self, subset:
                        self.is_subgroup(subset) or self.normality_witness(subset) is None)
    suite = standard_suite("full")
    result = battery.check_kernel_cokernel_roundtrips(suite)
    assert not result.ok and result.failures
    by_name = {obj.name: obj.vgroup for obj in suite.objects}
    for dom, cod, mapping, message in result.failures:
        assert "/S3/" in cod and len(set(mapping)) == by_name[dom].size
        assert message.startswith("image is not a normal subgroup")


def test_a_pullback_that_raises_ends_only_its_cospan(monkeypatch):
    """The regular-epi stability check pulls each cospan back itself, so a
    pullback that raises is recorded against its cospan, and the check
    still visits all the cospans it visits when none raises."""
    suite = standard_suite("smoke")
    clean = battery.check_regular_epi_stability(suite)
    calls = []

    def first_raises(f, g):
        calls.append((f, g))
        if len(calls) == 1:
            raise StructuralError("refused")
        return pullback(f, g)

    monkeypatch.setattr(battery, "pullback", first_raises)
    result = battery.check_regular_epi_stability(standard_suite("smoke"))
    f, g = calls[0]
    assert result.details == clean.details
    assert result.failures == [(f.dom.name, f.cod.name, f.mapping, g.mapping, "refused")]


@pytest.mark.parametrize("level, checked", [("smoke", 8), ("full", 73)])
def test_objects_over_idempotent_quantales_are_checked_for_symmetry(monkeypatch, level,
                                                                    checked):
    # boolean at smoke; boolean and the max chain ultrametric_chain_3 at full
    suite = standard_suite(level)
    idempotent = ("boolean", "ultrametric_chain_3")
    asked = []

    class Asymmetric:
        symmetric = False

    def recording(cache, g):
        asked.append(g)
        return Asymmetric

    monkeypatch.setattr(battery, "object_class", recording)
    result = battery.check_objects(suite)
    over = [o for o in suite.objects if o.quantale_name in idempotent]
    assert len(over) == checked
    assert asked == [o.vgroup for o in over]
    assert result.failures == [
        (o.name, "object over an idempotent quantale not symmetric") for o in over]
