"""The property battery the `suite` command runs: every structural
invariant the theory promises, quantified exhaustively over a generated
suite, with deterministic iteration order and explicit caps.

Each check returns a CheckResult; a failed check means a mathematical
statement did not hold on concrete data, which the command line surfaces
as exit code 1.  A check records each ``THEOREM_FAILURES`` error against
the object or morphism it was working on and goes on with the next one.
"""

from dataclasses import dataclass
from functools import partial
from itertools import islice, product as iproduct

from . import laws
from .builders import SUITE_LEVELS, standard_suite
from .descent import descent_cover, kernel_pair_groupoid, verify_cover_window
from .errors import StructuralError, TheoremCheckError
from .factorization import (cached_decomposition, classify_morphism,
                            monotone_light_factorize, reflective_factorize)
from .groups import difference_rows, right_shifts
from .quantale import validate_quantale
from .torsion import (default_test_family, matches_final_composite, object_class,
                      pretorsion_decompose, symmetric_part)
from .vgroup import (classify_hom, cokernel, factor_through_epi,
                     factor_through_mono, factorization_middle_iso,
                     image_factorize, is_isomorphism, is_regular_epi, kernel,
                     profile_matrix, pullback, pullback_comparison,
                     quotient_vgroup, subobject, validate_hom, validate_vgroup,
                     zero_hom)

MATRIX_ENUMERATION_CAP = 200_000  # past it, route checks spread shift profiles
SMALL_CARRIER = 4  # the largest objects the subgroup and alternative searches visit
IMAGE_UNIQUENESS_CAP = 300
FACTORIZATION_UNIQUENESS_CAP = 200
REGULAR_EPI_COSPAN_CAP = 400
STABLE_CLASS_CAP = 250
PRETORSION_QUANTALES = tuple(name for name, _ in SUITE_LEVELS["smoke"].quantales)
PRETORSION_FAMILY_MAX_CARRIER = 3
# The suite's data are valid, so a structural error raised on them is a
# failed theorem check too.
THEOREM_FAILURES = (TheoremCheckError, StructuralError)


@dataclass
class CheckResult:
    name: str
    ok: bool
    details: dict
    failures: list

    def as_dict(self):
        return {"name": self.name, "ok": self.ok,
                "details": dict(sorted(self.details.items())),
                "failures": self.failures[:20]}


def _result(name, failures, **details):
    return CheckResult(name=name, ok=not failures, details=details,
                       failures=failures)


# -- quantale laws ----------------------------------------------------------

def check_quantale_laws(suite):
    failures = []
    for qname, q in suite.quantales:
        report = validate_quantale(q)
        if not report.ok:
            failures.append((qname, report.laws_violated()))
    return _result("quantale_laws", failures, quantales=len(suite.quantales))


# -- shift route versus compatibility route ---------------------------------

def route_agreement_counts(group, q):
    """Compare the two validation routes over a candidate family.

    All square matrices when that is affordable, otherwise all shift
    profiles spread to matrices.  Returns (candidates, disagreements,
    nonabelian_findings, valid); a disagreement on an abelian carrier is
    counted, on a nonabelian one it is recorded as a finding.  ``valid``,
    the candidates whose compatibility route holds, counts the structures.

    ``candidates`` is the size of the whole family, but only some of its
    members are scanned.  Both routes require reflexivity, so on any
    other candidate both fail: it is no disagreement, no finding and not
    valid.  A matrix is reflexive iff each row x has an entry above the
    unit at x, so row x is drawn from those rows alone; a spread profile
    has delta(e) all along its diagonal, so delta(e) is drawn from the
    values above the unit alone.

    The reflexive members are walked as an odometer in the family's
    product order, one digit per row of a matrix, or per element d of a
    profile, whose delta(d) is the entry (x, y) with y - x = d
    (``groups.difference_rows``).  A witness reads only the entries it
    names, and it violates its law on any matrix with those entries,
    whatever the tables.  So when both routes fail, every later candidate
    that agrees with this one on the digits up to the deepest one that
    the two witnesses read fails both routes too, and the walk steps past
    that whole block: it counts nothing and changes none of the four
    counts.
    """
    n, table, e = group.size, group.table, group.identity
    abelian = group.is_abelian
    above_unit = q.leq_table[q.unit]
    values = range(q.size)
    shifts = group.derived(right_shifts)
    if q.size ** (n * n) <= MATRIX_ENUMERATION_CAP:
        candidates = q.size ** (n * n)
        rows = list(iproduct(values, repeat=n))
        digits = [[row for row in rows if above_unit[row[x]]] for x in range(n)]
        spread = tuple
        digit_of = [[x] * n for x in range(n)]  # entry (x, y) lies in row x
    else:
        candidates = q.size ** n
        above = [v for v in values if above_unit[v]]
        digits = [above if d == e else values for d in range(n)]
        spread = partial(profile_matrix, group)
        digit_of = group.derived(difference_rows)
    disagreements = findings = valid = 0
    if not all(digits):  # no reflexive candidate
        return candidates, disagreements, findings, valid
    picks = [0] * n
    while True:
        matrix = spread([digit[k] for digit, k in zip(digits, picks)])
        read = ()  # the entries the failing shift route's witness reads
        witness = laws.transitivity(q, matrix)
        if witness is not None:
            x, y, z = witness
            read = ((x, y), (y, z), (x, z))
        elif (witness := laws.shift_invariance(matrix, shifts)) is not None:
            s, x, y = witness
            read = ((x, y), (table[x][s], table[y][s]))
        shift_route = witness is None
        witness = laws.addition_compatibility(q, matrix, table)
        functor_route = witness is None
        valid += functor_route
        if shift_route != functor_route:
            if abelian:
                disagreements += 1
            else:
                findings += 1
        last = n - 1  # the deepest digit this candidate's block shares
        if not (shift_route or functor_route):
            x1, x2, y1, y2 = witness
            read += ((x1, x2), (y1, y2), (table[x1][y1], table[x2][y2]))
            last = max(digit_of[x][y] for x, y in read)
            picks[last + 1:] = [0] * (n - 1 - last)
        while last >= 0 and picks[last] + 1 == len(digits[last]):
            picks[last] = 0
            last -= 1
        if last < 0:
            return candidates, disagreements, findings, valid
        picks[last] += 1


def check_structure_routes(suite):
    """The two validation routes agree on every candidate, and the suite
    holds every structure that the compatibility route accepts."""
    failures = []
    total = findings = 0
    for qname, q in suite.quantales:
        for gname, grp in suite.groups:
            cands, dis, finds, valid = route_agreement_counts(grp, q)
            total += cands
            findings += finds
            if dis:
                failures.append((qname, gname, dis))
            enumerated = len(suite.structures_on(qname, gname))
            if valid != enumerated:
                failures.append((qname, gname, "structures", valid, enumerated))
    return _result("structure_route_agreement", failures,
                   candidates=total, nonabelian_findings=findings)


# -- object-level checks -----------------------------------------------------

def check_objects(suite):
    """Every object validates, and one over a quantale with idempotent
    tensor is symmetric, as the laws force: d != 0 of order m has
    -d = (m - 1)d, so delta(-d) >= delta(d)^(m-1) = delta(d), since
    delta(x + y) >= delta(x) (x) delta(y); -d in place of d gives <=."""
    idempotent = {qname for qname, q in suite.quantales
                  if all(row[u] == u for u, row in enumerate(q.tensor_table))}
    failures = []
    for obj in suite.objects:
        try:
            report = validate_vgroup(obj.vgroup)
            if not report.ok:
                failures.append((obj.name, report.laws_violated()))
            elif obj.quantale_name in idempotent and \
                    not suite.cache.derived(object_class, obj.vgroup).symmetric:
                failures.append((obj.name,
                                 "object over an idempotent quantale not symmetric"))
        except THEOREM_FAILURES as exc:
            failures.append((obj.name, str(exc)))
    return _result("object_validation", failures, objects=len(suite.objects))


# -- normal-category lemmas ---------------------------------------------------

def check_kernel_cokernel_roundtrips(suite):
    """Regular epis are cokernels of their kernels and dually for normal
    monos.  Each cokernel's structure also equals the composite e°·a·e
    through its projection e, the route ``decompose`` checks."""
    failures = []
    checked = 0
    for dom, cod, f in suite.all_homs():
        try:
            cls = classify_hom(f)
            canonicals = []
            if cls.regular_epi:
                _, projection = cokernel(kernel(f)[1])
                canonicals.append((factor_through_epi(projection, f), projection,
                                   "cokernel-of-kernel"))
            if cls.normal_mono:
                _, projection = cokernel(f)
                _, inclusion = kernel(projection)
                canonicals.append((factor_through_mono(f, inclusion), projection,
                                   "kernel-of-cokernel"))
            for canonical, projection, roundtrip in canonicals:
                if not matches_final_composite(projection):
                    failures.append((dom.name, cod.name, f.mapping,
                                     "cokernel-structure"))
                checked += 1
                if canonical is None or not (validate_hom(canonical).ok
                                             and is_isomorphism(canonical)):
                    failures.append((dom.name, cod.name, f.mapping, roundtrip))
        except THEOREM_FAILURES as exc:
            failures.append((dom.name, cod.name, f.mapping, str(exc)))
    return _result("kernel_cokernel_roundtrips", failures, checked=checked)


def _exact_sequences(cache, g):
    """(normal subgroup, its inclusion, the projection onto the quotient by
    it) for each normal subgroup of g, the maps pooled: a ``ClassCache``
    build, which ``check_ses_morphism_pullback`` and
    ``check_torsion_theory`` read for each small object, so a battery
    builds them once per object."""
    return [(n, cache.leg(subobject(g, n)[1]), cache.leg(quotient_vgroup(g, n)[1]))
            for n in g.group.all_normal_subgroups()]


def check_ses_morphism_pullback(suite):
    """For morphisms of short exact sequences, the left square is a pullback
    exactly when the induced map between quotients is injective.  By
    construction, a (restricting b) is valid and compares into the pullback.
    The map c that b induces between the quotients exists whenever a does:
    both exist exactly when b(nx) lies in ny, as b(x + n) = b(x) + b(n).
    It is valid, as is every map that a valid b induces between quotients
    with final structures.  It is a group hom because the projections
    are.  With s and t the structures of b's domain and codomain, each
    entry of its domain is a join of values s(x, x') <= t(bx, bx'), and
    each of those lies below the entry of its codomain, a join over
    fibres containing (bx, bx').  Suite quantales are lawful
    (``check_quantale_laws``), so a join is least, and the domain's entry
    lies below the codomain's too."""
    failures = []
    checked = 0
    sequences = {i: suite.cache.derived(_exact_sequences, obj.vgroup)
                 for i, obj in enumerate(suite.objects)
                 if obj.vgroup.size <= SMALL_CARRIER}
    for i, j in iproduct(sequences, repeat=2):
        hs = suite.homs_between(i, j)
        if hs is None:
            continue
        for b in hs.homs:
            # pullback(inc_y, b) by ny; it does not depend on nx
            pulled = {}
            onto_quotients = [b.then(proj_y) for _, _, proj_y in sequences[j]]
            for nx, inc_x, proj_x in sequences[i]:
                restricted = inc_x.then(b)
                for (ny, inc_y, _), onto in zip(sequences[j], onto_quotients):
                    a_vert = factor_through_mono(restricted, inc_y)
                    if a_vert is None:
                        continue
                    c_vert = factor_through_epi(proj_x, onto)
                    checked += 1
                    witness = (suite.objects[i].name, suite.objects[j].name,
                               b.mapping, nx, ny)
                    try:
                        if ny not in pulled:
                            pulled[ny] = pullback(inc_y, b)
                        p, to_ty, to_x = pulled[ny]
                        left_is_pullback = is_isomorphism(
                            pullback_comparison(p, to_ty, to_x, a_vert, inc_x))
                    except THEOREM_FAILURES as exc:
                        failures.append(witness + (str(exc),))
                        continue
                    if c_vert is None or left_is_pullback != c_vert.is_injective():
                        failures.append(witness)
    return _result("ses_morphism_pullback", failures, checked=checked)


# -- image factorization ------------------------------------------------------

def _alternative_factorizations(suite, dom, cod, f, size):
    """(alt, e2, m2) for each suite object alt of ``size`` elements over f's
    quantale, in suite order, and each pair of enumerated morphisms
    e2: dom -> alt and m2: alt -> cod with e2 . m2 = f."""
    dom_idx = suite.objects.index(dom)
    cod_idx = suite.objects.index(cod)
    for i, alt in enumerate(suite.objects):
        if alt.vgroup.size != size:
            continue
        hs_e = suite.homs_between(dom_idx, i)
        hs_m = suite.homs_between(i, cod_idx)
        if hs_e is None or hs_m is None:
            continue
        for e2 in hs_e.homs:
            for m2 in hs_m.homs:
                if e2.then(m2) == f:
                    yield alt, e2, m2


def check_image_factorization(suite):
    """Image factorizations are unique: for morphisms out of objects of at
    most ``SMALL_CARRIER`` elements, every other (regular epi, mono) pair
    through a suite object that composes to f meets the image factorization
    through an isomorphism of middles, until ``IMAGE_UNIQUENESS_CAP`` pairs
    are checked; the cap is tested once per morphism, so the morphism that
    crosses it finishes its pairs.  That ``image_factorize`` returns a
    regular epi and a mono composing to f holds by its construction."""
    failures = []
    checked = uniqueness_checked = 0
    for dom, cod, f in suite.all_homs():
        checked += 1
        if dom.vgroup.size > SMALL_CARRIER or uniqueness_checked >= IMAGE_UNIQUENESS_CAP:
            continue
        try:
            e, mid, m = image_factorize(f)
            for alt, e2, m2 in _alternative_factorizations(suite, dom, cod, f,
                                                           mid.size):
                if not (is_regular_epi(e2) and m2.is_injective()):
                    continue
                uniqueness_checked += 1
                if factorization_middle_iso(e, m, e2, m2) is None:
                    failures.append((dom.name, cod.name, f.mapping,
                                     "image-uniqueness", alt.name))
        except THEOREM_FAILURES as exc:
            failures.append((dom.name, cod.name, f.mapping, str(exc)))
    return _result("image_factorization", failures, checked=checked,
                   uniqueness_checked=uniqueness_checked)


# -- pullback stability -------------------------------------------------------

def _cospans(suite, keep, cap):
    """(f, g) for each morphism f that ``keep`` accepts and each morphism g
    into the codomain of f, in suite order, for the first ``cap`` such
    cospans.  The callers pull f back along g, so that a pullback that
    raises ends only its own cospan."""
    homs = [f for _, _, f in suite.all_homs()]
    into = {}  # the homs into each codomain, in suite order
    for g in homs:
        into.setdefault(g.cod, []).append(g)
    cospans = ((f, g) for f in homs if keep(f) for g in into[f.cod])
    return islice(cospans, cap)


def check_regular_epi_stability(suite):
    failures = []
    checked = 0
    for f, g in _cospans(suite, is_regular_epi, REGULAR_EPI_COSPAN_CAP):
        checked += 1
        witness = (f.dom.name, f.cod.name, f.mapping, g.mapping)
        try:
            if not is_regular_epi(pullback(f, g)[2]):
                failures.append(witness)
        except THEOREM_FAILURES as exc:
            failures.append(witness + (str(exc),))
    return _result("regular_epi_pullback_stability", failures, cospans=checked)


# -- torsion theory -----------------------------------------------------------

def check_torsion_theory(suite):
    """Every object decomposes (``decompose`` raises unless the torsion
    part is indiscrete and the quotient separated); on objects of at most
    ``SMALL_CARRIER`` elements no other normal subgroup gives an
    indiscrete kernel with a separated quotient; and on every enumerated
    hom-set the only map from an indiscrete to a separated object is the
    zero map.  Through ``suite.cache``, each distinct object, suite
    object, kernel or quotient, is classified once per run, and each small
    object's exact sequences are built once per run."""
    failures = []
    cache = suite.cache
    classes = {}  # by object index, for the objects that classify
    for i, obj in enumerate(suite.objects):
        try:
            classes[i] = cache.derived(object_class, obj.vgroup)
            dec = cached_decomposition(obj.vgroup, cache)
            if obj.vgroup.size <= SMALL_CARRIER:
                canonical = set(dec.injection.mapping)
                for alt, inclusion, projection in cache.derived(_exact_sequences,
                                                                obj.vgroup):
                    if cache.derived(object_class, inclusion.dom).indiscrete and \
                            cache.derived(object_class, projection.cod).separated and \
                            set(alt) != canonical:
                        failures.append((obj.name, "alternative sequence", alt))
        except THEOREM_FAILURES as exc:
            failures.append((obj.name, str(exc)))
    vanish_checked = 0
    for i, dom_class in classes.items():
        if not dom_class.indiscrete:
            continue
        for j, cod_class in classes.items():
            hs = suite.homs_between(i, j) if cod_class.separated else None
            if hs is None:  # not separated, or over another quantale
                continue
            vanish_checked += 1
            dom, cod = suite.objects[i], suite.objects[j]
            if hs.homs != (zero_hom(dom.vgroup, cod.vgroup),):
                failures.append((dom.name, cod.name, "hom-vanishing"))
    return _result("torsion_theory", failures,
                   objects=len(suite.objects), vanishing_pairs=vanish_checked)


# -- factorization systems ------------------------------------------------------

def check_morphism_classification(suite):
    """Every morphism classifies: ``classify_morphism`` raises, and the
    failure is recorded, when the map between the separated reflections
    does not exist, the two routes of a class flag disagree or a class
    containment fails."""
    failures = []
    checked = 0
    for dom, cod, f in suite.all_homs():
        checked += 1
        try:
            classify_morphism(f, suite.cache)
        except THEOREM_FAILURES as exc:
            failures.append((dom.name, cod.name, f.mapping, str(exc)))
    return _result("morphism_classification", failures, checked=checked)


def check_factorizations(suite):
    """Both factorizations of every morphism post-verify, and f is in a
    system's left (right) class iff its right (left) leg is an isomorphism.
    For morphisms out of objects of at most ``SMALL_CARRIER`` elements,
    every other pair through a suite object that composes to f and lies
    in the system's two classes meets the factorization through an
    isomorphism of middles, until ``FACTORIZATION_UNIQUENESS_CAP`` pairs of
    both systems are checked; the cap is tested once per morphism, so the
    morphism that crosses it finishes its pairs.  A theorem check that
    raises on the way is recorded against f."""
    failures = []
    checked = uniqueness_checked = 0
    for dom, cod, f in suite.all_homs():
        checked += 1
        try:
            refl = reflective_factorize(f, suite.cache)
            light = monotone_light_factorize(f, suite.cache)
            report = classify_morphism(f, suite.cache)
            for flag, leg in ((report.reflector_inverted, refl.m),
                              (report.trivial_covering, refl.e),
                              (report.stably_inverted, light.m),
                              (report.covering, light.e)):
                if flag != is_isomorphism(leg):
                    failures.append((dom.name, cod.name, f.mapping,
                                     "class flag against factorization leg", leg.mapping))
            if dom.vgroup.size > SMALL_CARRIER or \
                    uniqueness_checked >= FACTORIZATION_UNIQUENESS_CAP:
                continue
            for fact, side in ((refl, "reflective"), (light, "monotone_light")):
                for alt, e2, m2 in _alternative_factorizations(suite, dom, cod, f,
                                                               fact.middle.size):
                    rep_e = classify_morphism(e2, suite.cache)
                    rep_m = classify_morphism(m2, suite.cache)
                    if side == "reflective":
                        matching = rep_e.reflector_inverted and rep_m.trivial_covering
                    else:
                        matching = rep_e.stably_inverted and rep_m.covering
                    if not matching:
                        continue
                    uniqueness_checked += 1
                    if factorization_middle_iso(fact.e, fact.m, e2, m2) is None:
                        failures.append((dom.name, cod.name, f.mapping,
                                         side, "uniqueness", alt.name))
        except THEOREM_FAILURES as exc:
            failures.append((dom.name, cod.name, f.mapping, str(exc)))
    return _result("factorization_postverify", failures, checked=checked,
                   uniqueness_checked=uniqueness_checked)


def check_stable_class_pullbacks(suite):
    """Morphisms flagged stably-inverted stay reflector-inverted under pullback."""
    failures = []
    checked = 0

    def stably_inverted(f):
        try:
            return classify_morphism(f, suite.cache).stably_inverted
        except THEOREM_FAILURES as exc:
            failures.append((f.dom.name, f.mapping, str(exc)))
            return False

    for f, g in _cospans(suite, stably_inverted, STABLE_CLASS_CAP):
        checked += 1
        witness = (f.dom.name, f.mapping, g.dom.name, g.mapping)
        try:
            pulled = pullback(f, g)[2]
            if not classify_morphism(pulled, suite.cache).reflector_inverted:
                failures.append(witness)
        except THEOREM_FAILURES as exc:
            failures.append(witness + (str(exc),))
    return _result("stable_class_pullbacks", failures, pullbacks=checked)


# -- pretorsion ---------------------------------------------------------------

def check_pretorsion(suite):
    """Every object over a ``PRETORSION_QUANTALES`` quantale has a verified
    pretorsion sequence, its test family widened by the suite's objects of
    at most ``PRETORSION_FAMILY_MAX_CARRIER`` elements over its quantale;
    and on objects of at most ``SMALL_CARRIER`` elements the symmetric
    part lies below the object and above every symmetric suite structure
    on its carrier that lies below it.  The families share their small
    objects, so the decompositions share ``suite.cache``: the null spot
    checks of each pair of test objects run once per run, each null
    verdict is decided once per (domain, kernel), and each distinct
    object is classified once and symmetrized once, in the families and
    in the greatest-part search alike; the symmetric structures of each
    carrier are found once."""
    failures = []
    checked = 0
    cache = suite.cache
    for qname in PRETORSION_QUANTALES:
        small = [o.vgroup for o in suite.objects_over(qname)
                 if o.vgroup.size <= PRETORSION_FAMILY_MAX_CARRIER]
        for obj in suite.objects_over(qname):
            checked += 1
            try:
                family = default_test_family(obj.vgroup, cache=cache)
                in_family = set(family)  # the list keeps the order of w_index
                for extra in small:
                    if extra not in in_family:
                        in_family.add(extra)
                        family.append(extra)
                pretorsion_decompose(obj.vgroup, test_objects=family, cache=cache)
            except THEOREM_FAILURES as exc:
                failures.append((obj.name, str(exc)))
    greatest_checked = 0
    symmetric_on = {}  # by (quantale name, group name)
    for obj in suite.objects:
        if obj.vgroup.size > SMALL_CARRIER:
            continue
        try:
            hat = cache.derived(symmetric_part, obj.vgroup)
            if not hat.structure.leq(obj.vgroup.structure):
                failures.append((obj.name, "symmetric part not below"))
            carrier = (obj.quantale_name, obj.group_name)
            if carrier not in symmetric_on:
                symmetric_on[carrier] = [
                    candidate for candidate in suite.structures_on(*carrier)
                    if cache.derived(object_class, candidate).symmetric]
            for candidate in symmetric_on[carrier]:
                if not candidate.structure.leq(obj.vgroup.structure):
                    continue
                greatest_checked += 1
                if not candidate.structure.leq(hat.structure):
                    failures.append((obj.name, "symmetric part not greatest",
                                     candidate.delta()))
        except THEOREM_FAILURES as exc:
            failures.append((obj.name, str(exc)))
    return _result("pretorsion", failures, decomposed=checked,
                   greatest_candidates=greatest_checked)


# -- descent ------------------------------------------------------------------

def check_descent_windows(suite):
    """Decides each cover law at radius 1; by descent's lemma it holds at every radius."""
    failures = []
    for obj in suite.objects:
        cover, _ = descent_cover(obj.vgroup)
        report = verify_cover_window(cover, 1)
        if not report.ok:
            failures.append((obj.name, 1, report.laws_violated()))
        groupoid = kernel_pair_groupoid(cover, 1)
        if not groupoid.ok:
            failures.append((obj.name, "groupoid", groupoid.laws_violated()))
    return _result("descent_windows", failures, objects=len(suite.objects), radii=[1])


ALL_CHECKS = (
    check_quantale_laws,
    check_structure_routes,
    check_objects,
    check_kernel_cokernel_roundtrips,
    check_ses_morphism_pullback,
    check_image_factorization,
    check_regular_epi_stability,
    check_torsion_theory,
    check_morphism_classification,
    check_factorizations,
    check_stable_class_pullbacks,
    check_pretorsion,
    check_descent_windows,
)


def run_battery(level="smoke"):
    """Build the suite and run every check, in the canonical order."""
    suite = standard_suite(level)
    return [check(suite) for check in ALL_CHECKS]
