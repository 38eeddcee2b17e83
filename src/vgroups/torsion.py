"""Torsion decomposition (indiscrete kernel, separated quotient) and the
pretorsion variant (symmetric part, separated quotient).

The torsion part of an object is the set of elements related to the
identity at unit level in both directions.  It is always a normal
subgroup, over any quantale; the canonical short exact sequence through
it needs an integral quantale (otherwise the category has no zero
object).  Normal mono and regular epi hold by construction; verified are
the theorem's claims: the kernel is indiscrete, the quotient separated,
and both kernel/cokernel structure equations hold on the nose.

The pretorsion side works over any quantale.  Its kernels and cokernels
are taken relative to the null class (the symmetric separated objects);
membership of a homomorphism in the null ideal is decided via its image,
which is sound but not known to be complete, so ``is_null_morphism``
returns the method label beside its verdict.  The image of a
homomorphism, with its final structure, is its domain over its kernel
relabelled, so every null verdict is decided once per (domain, kernel)
of a ``ClassCache``; a map that is no homomorphism is refused.
Universal properties are verified by exhaustive quantification over
enumerated hom-sets from a finite family of test objects: a finite-model
check, not a symbolic proof.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass

from . import groups, laws
from .errors import (CapacityError, NonIntegralQuantaleError, StructuralError,
                     TheoremCheckError)
from .reports import ValidationReport
from .vgroup import (VGroup, VHom, classify_object, enumerate_homs,
                     factor_through_epi, factor_through_mono, final_structure,
                     kernel, quotient_vgroup, subobject, trivial_vgroup,
                     validate_vgroup)
from .vrel import VRel


class ClassCache:
    """What one run derives from its objects and morphisms: a battery's
    suite holds one, and each command line call makes its own.

    One storing rule: ``store`` holds a dict per build, a module-level
    function, and ``derived(build, *key)`` keeps ``build(cache, *key)``
    there under its key (a key of one argument stands for itself), built
    on the first request.  Nothing else writes to ``store``, and nothing
    outside this class reads it.

    One pooling rule: an entry's key is stored with its objects moved onto
    the pool ``objects`` (``intern``, or ``leg`` for a map), and a build
    pools the objects its value holds, so the pool holds the run's one
    instance of each object value in the store.  Groups need no pool
    (``FiniteGroup.derived`` builds each once per parent group).

    One refusal rule: a build that raises stores and pools nothing; what
    the builds it called stored stays.
    """

    __slots__ = ("store", "objects")

    def __init__(self):
        self.store = defaultdict(dict)  # by build: its entries by key
        self.objects = {}

    def derived(self, build, *key):
        """``build(self, *key)``, kept in ``store[build]`` from the first
        request under ``key`` with its objects pooled."""
        entries = self.store[build]
        found = entries.get(key[0] if len(key) == 1 else key)
        if found is None:
            found = build(self, *key)
            key = [self.intern(x) if isinstance(x, VGroup) else
                   self.leg(x) if isinstance(x, VHom) else x for x in key]
            entries[key[0] if len(key) == 1 else tuple(key)] = found
        return found

    def intern(self, g):
        """The run's first instance of g's value."""
        return self.objects.setdefault(g, g)

    def leg(self, h):
        """h between the run's instances of its ends, the codomain's found
        first, so that an inclusion of a whole object ends at that object."""
        cod, dom = self.intern(h.cod), self.intern(h.dom)
        return h if dom is h.dom and cod is h.cod else VHom._trusted(dom, cod, h.mapping)


def object_class(cache, g):
    """The ``classify_object`` of g: a ``ClassCache`` build."""
    return classify_object(g)


def symmetric_part(cache, g):
    """The ``symmetric_coreflect`` of g, pooled: a ``ClassCache`` build."""
    return cache.intern(symmetric_coreflect(g))


def kernel_members(f):
    """The elements f sends to the codomain's identity, in order: the
    carrier of ``kernel(f)``."""
    zero = f.cod.group.identity
    return tuple([x for x, y in enumerate(f.mapping) if y == zero])


def kernel_class(cache, dom, members):
    """The class of the kernel of each map out of ``dom`` with kernel
    ``members``, read off dom's projection onto dom / members; a build."""
    return cache.derived(object_class, kernel(quotient_vgroup(dom, members)[1])[0])


def torsion_members(g, elements):
    """The given elements that are related to the identity at unit level
    both ways, sorted."""
    q = g.quantale
    e = g.group.identity
    k = q.unit
    return tuple(sorted(x for x in elements
                        if q.leq(k, g.entry(e, x)) and q.leq(k, g.entry(x, e))))


def torsion_part(g):
    """Elements related to the identity at unit level both ways.

    Works over any quantale.  The result is re-verified to be a normal
    subgroup; a failure would contradict the theory and raises.
    """
    members = torsion_members(g, range(g.size))
    if not g.group.is_subgroup(members):
        raise TheoremCheckError(f"torsion part of {g!r} is not a subgroup")
    witness = g.group.normality_witness(members)
    if witness is not None:
        raise TheoremCheckError(
            f"torsion part of {g!r} is not normal, witness {witness}")
    return members


@dataclass
class TorsionDecomposition:
    object: VGroup
    torsion: VGroup
    injection: VHom
    quotient: VGroup
    projection: VHom
    notes: dict

    def as_dict(self):
        names = self.object.group.names
        return {
            "torsion_carrier": [names[x] for x in self.injection.mapping],
            "projection": [self.quotient.group.names[v]
                           for v in self.projection.mapping],
            "quotient_carrier": list(self.quotient.group.names),
            "quotient_structure": [[self.quotient.quantale.label(v) for v in row]
                                   for row in self.quotient.structure.entries],
            "notes": dict(sorted(self.notes.items())),
        }


def matches_induced_composite(sub_hom):
    """Induced structure equals the matricial composite through the inclusion."""
    g = sub_hom.cod
    emb = VRel.from_function(g.quantale, sub_hom.mapping, g.size)
    composite = emb.then(g.structure).then(emb.converse())
    return composite == sub_hom.dom.structure


def matches_final_composite(quot_hom):
    """Final structure equals the matricial composite through the projection."""
    g = quot_hom.dom
    emb = VRel.from_function(g.quantale, quot_hom.mapping, quot_hom.cod.size)
    composite = emb.converse().then(g.structure).then(emb)
    return composite == quot_hom.cod.structure


def decompose(g, cache=None):
    """The canonical short exact sequence through the torsion part.

    Requires an integral quantale.  By construction the injection is a
    normal mono (restricting g to a normal subgroup) and the projection a
    regular epi (joining g over the cosets).  Verified: the kernel is
    indiscrete, the quotient separated, and both structure equations hold
    exactly (computed independently by relation composition).  The
    classes of the torsion part and the quotient come from ``cache`` (a
    fresh one when omitted).
    """
    if not g.quantale.is_integral:
        raise NonIntegralQuantaleError(
            "torsion decomposition needs unit = top; without it the "
            "category has no zero object")
    if cache is None:
        cache = ClassCache()
    members = torsion_part(g)
    torsion, injection = subobject(g, members)
    quotient, projection = quotient_vgroup(g, members)

    if not matches_induced_composite(injection):
        raise TheoremCheckError(f"kernel structure equation failed for {g!r}")
    if not matches_final_composite(projection):
        raise TheoremCheckError(f"cokernel structure equation failed for {g!r}")
    if not cache.derived(object_class, torsion).indiscrete:
        raise TheoremCheckError(f"torsion part of {g!r} is not indiscrete")
    if not cache.derived(object_class, quotient).separated:
        raise TheoremCheckError(f"torsion-free quotient of {g!r} is not separated")

    return TorsionDecomposition(
        object=g, torsion=torsion, injection=injection,
        quotient=quotient, projection=projection,
        notes={"torsion_size": len(members), "quotient_size": quotient.size})


def reflect(g):
    """Separated reflection: the quotient with its unit (the projection)."""
    d = decompose(g)
    return d.quotient, d.projection


def coreflect(g):
    """Indiscrete coreflection: the torsion part with its counit (the injection)."""
    d = decompose(g)
    return d.torsion, d.injection


def reflected_map(f, dom_dec, cod_dec):
    """The map between the separated quotients of two decompositions
    that f induces (coset to coset)."""
    reflected = factor_through_epi(dom_dec.projection, f.then(cod_dec.projection))
    if reflected is None:
        raise TheoremCheckError(
            f"homomorphism {f!r} does not induce a map between the separated quotients")
    return reflected


def reflect_morphism(f):
    """The induced map between separated reflections (coset to coset)."""
    return reflected_map(f, decompose(f.dom), decompose(f.cod))


def coreflect_morphism(f):
    """The restriction of a map to the torsion parts."""
    _, dom_inj = coreflect(f.dom)
    _, cod_inj = coreflect(f.cod)
    restricted = factor_through_mono(dom_inj.then(f), cod_inj)
    if restricted is None:
        raise TheoremCheckError(
            f"homomorphism {f!r} does not restrict to the torsion parts")
    return restricted


def symmetric_coreflect(g):
    """The greatest symmetric structure below the given one: a meet
    a-converse, symmetric as ``Quantale.meet`` is in its arguments."""
    hat = g.structure.meet(g.structure.converse())
    out = VGroup(g.group, g.quantale, hat)
    if not validate_vgroup(out).ok:
        raise TheoremCheckError(f"symmetrized structure of {g!r} failed validation")
    return out


def _is_null_structure(q, a):
    """Symmetric and separated.  On a symmetric structure separation says
    that a(x, y) reaches the unit only on the diagonal."""
    return laws.symmetry(a) is None and laws.separation(q, a) is None


def is_null_object(g):
    """Member of the null class: symmetric and separated."""
    return _is_null_structure(g.quantale, g.structure.entries)


def _require_homomorphism(f):
    """Refuse a map that is no group homomorphism, naming the first pair
    of its domain that breaks the law."""
    witness = laws.homomorphism(f.dom.group.table, f.cod.group.table, f.mapping)
    if witness is not None:
        x, y = (f.dom.group.names[w] for w in witness)
        raise StructuralError(
            f"{f!r} is no homomorphism: the group-homomorphism law fails at ({x}, {y})")


def is_null_morphism(f):
    """Whether a homomorphism factors through a null object, decided via
    its image.

    Sound: if the image (with final structure) is null, the morphism is
    null; only that structure is computed.  Completeness of the negative
    answer is not claimed, so the verdict comes with its method label.
    A map that is no homomorphism is refused with a ``StructuralError``.
    Decided by ``_is_null_hom`` in a fresh ``ClassCache``, so nothing
    outlives the call.
    """
    _require_homomorphism(f)
    return {"is_null": _is_null_hom(ClassCache(), f), "method": "via-image"}


def _null_image(cache, dom, members):
    """Whether the image of a homomorphism out of ``dom`` with kernel
    ``members``, with its final structure, is null: a ``ClassCache`` build.

    That image is dom / members relabelled: its fibres are the cosets of
    the kernel, each in ascending order as ``fibers`` lists them, and
    neither symmetry nor separation reads labels."""
    return _is_null_structure(dom.quantale,
                              final_structure(dom, dom.group.cosets(members)))


def _is_null_hom(cache, f):
    """Whether the homomorphism f is null, decided once per (domain,
    kernel) in ``cache`` (the ``_null_image`` build): the one route of
    every null verdict.

    The homomorphism law is not re-checked, just as ``VHom._trusted``
    skips the checks its parents passed: ``is_null_morphism`` and both
    verifiers refuse a map that is no homomorphism, and every other map
    decided here, in the verifiers or the spot checks, is a composite of
    homomorphisms.  On a map that is no homomorphism the kernel's cosets
    are not its fibres."""
    return cache.derived(_null_image, f.dom, kernel_members(f))


def default_test_family(*objects, cache=None):
    """Deduplicated test objects: the given ones, their symmetrizations,
    and the one-element objects (unit-valued and top-valued).  Each
    symmetrization comes from ``cache`` (a fresh one when omitted)."""
    if cache is None:
        cache = ClassCache()
    q = objects[0].quantale
    candidates = list(objects)
    candidates.append(trivial_vgroup(q))
    if q.unit != q.top:
        candidates.append(trivial_vgroup(q, value=q.top))
    candidates += [cache.derived(symmetric_part, obj) for obj in objects]
    return list(dict.fromkeys(candidates))  # the first of each value, in order


def verify_pretorsion_kernel(candidate, of, test_objects=None, cache=None):
    """Check the kernel-relative-to-null universal property of ``candidate``.

    ``candidate``: K -> A must compose with ``of``: A -> B into the null
    ideal, and every test morphism into A whose composite with ``of`` is
    null must factor through ``candidate`` uniquely.  Both quantifiers
    run over enumerated hom-sets from the test family, each enumerated
    once per call.  ``candidate`` and ``of`` must be homomorphisms (a map
    that is not is refused with a ``StructuralError``), so every
    composite is one, and each is decided by ``_is_null_hom`` in
    ``cache`` (a fresh one when omitted), which sets only how long
    verdicts are shared.
    """
    if candidate.cod != of.dom:
        raise StructuralError("candidate kernel must land in the domain of 'of'")
    return _verify_relative(candidate, of, False, test_objects,
                            (candidate.dom, of.dom, of.cod), cache)


def verify_pretorsion_cokernel(candidate, of, test_objects=None, cache=None):
    """Dual check: ``candidate``: B -> C as cokernel of ``of``: A -> B,
    both homomorphisms, as ``verify_pretorsion_kernel`` requires."""
    if of.cod != candidate.dom:
        raise StructuralError("candidate cokernel must start at the codomain of 'of'")
    return _verify_relative(candidate, of, True, test_objects,
                            (of.dom, of.cod, candidate.cod), cache)


def _verify_relative(candidate, of, dual, test_objects, family, cache):
    """The kernel property of ``candidate``, read in the opposite category
    when ``dual`` (which makes it the cokernel property).

    ``then(u, v)`` composes u first and ``homs(w, x)`` lists the maps from
    a test object w to x, both in the category read; ``near`` is the end
    ``candidate`` shares with ``of`` and ``far`` its other end.  Every
    ``then(phi, candidate)`` and alpha run from w to ``near``, so the
    factorizations of alpha are counted by its mapping.
    """
    near, far = (candidate.dom, candidate.cod) if dual else (candidate.cod, candidate.dom)
    _require_homomorphism(candidate)
    _require_homomorphism(of)
    if cache is None:
        cache = ClassCache()
    hom_sets = {}

    def then(u, v):
        return v.then(u) if dual else u.then(v)

    def homs(w, x):
        pair = (x, w) if dual else (w, x)
        found = hom_sets.get(pair)
        if found is None:
            found = hom_sets[pair] = enumerate_homs(*pair)
        return found

    report = ValidationReport(
        subject="pretorsion-cokernel" if dual else "pretorsion-kernel")
    if not _is_null_hom(cache, then(candidate, of)):
        report.add("composite-in-null-ideal", ())
        return report
    if test_objects is None:
        test_objects = default_test_family(*family, cache=cache)
    total = sum(groups.hom_search_size(x.group, w.group) if dual
                else groups.hom_search_size(w.group, x.group)
                for w in test_objects for x in (near, far))
    if total > groups.ENUMERATION_CAP:
        raise CapacityError(
            f"universal-property quantification needs {total} candidates, "
            f"over the cap of {groups.ENUMERATION_CAP}")
    for w_index, w in enumerate(test_objects):
        through = None
        for alpha in homs(w, near):
            if not _is_null_hom(cache, then(alpha, of)):
                continue
            if through is None:
                through = Counter([then(phi, candidate).mapping for phi in homs(w, far)])
            matches = through[alpha.mapping]
            if matches == 0:
                report.add("factorization-exists", (w_index, alpha.mapping))
            elif matches > 1:
                report.add("factorization-unique", (w_index, alpha.mapping))
    return report


@dataclass
class PretorsionDecomposition:
    object: VGroup
    symmetric_part: VGroup
    comparison: VHom
    quotient: VGroup
    projection: VHom
    kernel_report: ValidationReport
    cokernel_report: ValidationReport
    notes: dict

    def as_dict(self):
        q = self.object.quantale
        return {
            "symmetric_structure": [[q.label(v) for v in row]
                                    for row in self.symmetric_part.structure.entries],
            "projection": [self.quotient.group.names[v]
                           for v in self.projection.mapping],
            "quotient_carrier": list(self.quotient.group.names),
            "kernel_verification": self.kernel_report.as_dict(),
            "cokernel_verification": self.cokernel_report.as_dict(),
            "notes": dict(sorted(self.notes.items())),
        }


def _null_spot_check(cache, t, f_obj):
    """The number of morphisms from ``t`` to ``f_obj``, each checked to be
    null (the first that is not raises): a ``ClassCache`` build."""
    checked = 0
    for hom in enumerate_homs(t, f_obj):
        checked += 1
        if not _is_null_hom(cache, hom):
            raise TheoremCheckError(
                f"found a non-null morphism {hom!r} from a symmetric "
                f"object {t!r} to a separated one {f_obj!r}")
    return checked


def pretorsion_decompose(g, test_objects=None, cache=None):
    """Symmetric part, identity comparison, separated quotient; verified.

    Works over any quantale.  The symmetric part is below g by
    construction (a meet).  Runs both relative universal-property
    verifiers on the sequence and spot-checks that every enumerated
    morphism from a symmetric test object to a separated one is null.

    The symmetric parts, the classes, the null spot checks (the
    ``_null_spot_check`` build, by pair of test objects) and the null
    verdicts of both verifiers and the spot checks (``_is_null_hom``, by
    domain and kernel) come from ``cache`` (a fresh one when omitted), so
    decompositions that share it check each pair of test objects once and
    decide each null verdict once; ``notes["null_spot_checks"]`` counts
    the morphisms of every pair, checked now or before.

    Within one call, each verifier enumerates each hom-set once; those
    hom-sets do not outlive the call.
    """
    if cache is None:
        cache = ClassCache()
    sym = cache.derived(symmetric_part, g)
    comparison = VHom(sym, g, range(g.size))
    members = torsion_part(g)
    quotient, projection = quotient_vgroup(g, members)
    if not cache.derived(object_class, quotient).separated:
        raise TheoremCheckError(f"pretorsion quotient of {g!r} is not separated")

    if test_objects is None:
        test_objects = default_test_family(g, quotient, cache=cache)
    kernel_report = verify_pretorsion_kernel(
        comparison, projection, test_objects=test_objects, cache=cache)
    cokernel_report = verify_pretorsion_cokernel(
        projection, comparison, test_objects=test_objects, cache=cache)
    if not kernel_report.ok or not cokernel_report.ok:
        raise TheoremCheckError(
            f"pretorsion sequence of {g!r} failed a relative universal property: "
            f"{kernel_report.laws_violated() + cokernel_report.laws_violated()}")

    checked = 0
    family = [(t, cache.derived(object_class, t)) for t in test_objects]
    for t, t_class in family:
        if not t_class.symmetric:
            continue
        for f_obj, f_class in family:
            if f_class.separated:
                checked += cache.derived(_null_spot_check, t, f_obj)
    return PretorsionDecomposition(
        object=g, symmetric_part=sym, comparison=comparison,
        quotient=quotient, projection=projection,
        kernel_report=kernel_report, cokernel_report=cokernel_report,
        notes={"null_spot_checks": checked})
