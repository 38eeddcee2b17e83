"""The two factorization systems induced by the separated reflection, and
the covering predicate.

The reflective system splits a morphism through a pullback of its
reflection against the codomain's unit; its left class is the morphisms
the reflector inverts, its right class the trivial coverings (maps whose
reflection naturality square is a pullback).  The stabilized system
splits through the quotient by the torsion part of the kernel; its left
class is the normal epimorphisms with indiscrete kernel, its right class
the coverings, which are exactly the morphisms with separated kernel.

The unstabilized class flags are each computed along two routes and
compared: definitionally (the reflected morphism, or the comparison into
the naturality square's pullback, is an isomorphism) and by Gran and
Michel's characterizations through the torsion parts T of the domain and
M of the codomain (f^-1(M) = T and f followed by the codomain's unit is a
regular epimorphism; f maps T bijectively onto M).  A disagreement is a
loud failure, never a tolerated state, because the agreement is itself a
theorem this workbench is meant to exercise.  Both factorizations
post-verify the class of their left legs; that they compose to f, and
that their right legs lie in the right class, holds by construction.
"""

from dataclasses import asdict, dataclass

from .errors import NonIntegralQuantaleError, StructuralError, TheoremCheckError
from .torsion import (ClassCache, decompose, kernel_class, kernel_members,
                      reflected_map, torsion_members)
from .vgroup import (VGroup, VHom, classify_object, factor_through_epi,
                     is_isomorphism, is_regular_epi, kernel, pullback,
                     pullback_comparison, quotient_vgroup, validate_hom)


def _decomposition(cache, g):
    """The torsion decomposition of g, its parts pooled: a ``ClassCache`` build."""
    d = decompose(g, cache)
    d.object = cache.intern(g)
    d.injection, d.projection = cache.leg(d.injection), cache.leg(d.projection)
    d.torsion, d.quotient = d.injection.dom, d.projection.cod
    return d


def cached_decomposition(g, cache):
    """The torsion decomposition of g, computed and pooled once per cache."""
    return cache.derived(_decomposition, g)


@dataclass(frozen=True, slots=True)
class MorphismClassReport:
    reflector_inverted: bool       # the reflector sends the morphism to an iso
    trivial_covering: bool         # reflection naturality square is a pullback
    stably_inverted: bool          # normal epi with indiscrete kernel
    covering: bool                 # kernel is separated

    as_dict = asdict


def _square(cache, cod, reflected_dom, mapping):
    """The pooled legs (to ``cod``, to ``reflected_dom``) of the pullback of
    the map ``mapping`` into cod's separated quotient along cod's
    projection: a ``ClassCache`` build."""
    projection = cache.derived(_decomposition, cod).projection
    reflected = VHom(reflected_dom, projection.cod, mapping)
    _, to_cod, to_refl = pullback(projection, reflected)
    return cache.leg(to_cod), cache.leg(to_refl)


def _naturality_square(f, dom_dec, cod_dec, reflected, cache):
    """The pullback P of ``reflected`` along the codomain's projection,
    its projection m to f.cod, and the comparison e from f.dom into P;
    only the comparison is built per call."""
    to_cod, to_refl = cache.derived(_square, cod_dec.object, reflected.dom,
                                    reflected.mapping)
    p = to_cod.dom
    return p, to_cod, pullback_comparison(p, to_cod, to_refl, f, dom_dec.projection)


def classify_morphism(f, cache=None):
    """Total class flags for f: A -> B, the unstabilized two computed twice.

    With T = T(A) and M = T(B): f is inverted by the reflector when the
    reflected morphism is an isomorphism, and by characterization when
    f^-1(M) = T and f followed by B's unit is a regular epimorphism.  f is
    a trivial covering when its naturality square is a pullback, and by
    characterization when f maps T bijectively onto M.

    No structure clause is needed over a lawful integral quantale.  f is
    compatible, so a(x, y) ^ b(fx, fy) = a(x, y).  A's profile has
    delta(+-t) = top = k for t in T, so
    delta(d + t) >= delta(d) (x) delta(t) = delta(d)
                 >= delta(d + t) (x) delta(-t) = delta(d + t):
    delta is constant on the cosets of the normal T, so the reflection's
    join R(a)(eta x, eta y) is a(x, y), and the pullback's entry
    b(fx, fy) ^ a(x, y) is a(x, y) again.
    On a lawless quantale, which only the Python API accepts, a route
    disagreement is therefore not a theorem failure, though it raises.

    The stabilized flags are computed from the kernel's class; a failed
    containment in the unstabilized classes raises, as does any route
    disagreement.  The report, the decompositions, the naturality square
    and the kernel's class come from ``cache`` (a fresh one when omitted),
    so f is classified on the first request only, and a failed
    classification stores no report.
    """
    if cache is None:
        cache = ClassCache()
    return cache.derived(_class_report, f)


def _class_report(cache, f):
    """The report of ``classify_morphism``: a ``ClassCache`` build."""
    if not f.dom.quantale.is_integral:
        raise NonIntegralQuantaleError(
            "morphism classification is relative to the separated reflection, "
            "which needs an integral quantale")
    if not validate_hom(f).ok:
        raise StructuralError("cannot classify an invalid homomorphism")

    dom_dec = cached_decomposition(f.dom, cache)
    cod_dec = cached_decomposition(f.cod, cache)
    n_dom = set(dom_dec.injection.mapping)
    n_cod = set(cod_dec.injection.mapping)
    reflected = reflected_map(f, dom_dec, cod_dec)

    # Left class, definitional route.
    inverted_def = is_isomorphism(reflected)

    # Left class, characterization route.
    preimage = {x for x in range(f.dom.size) if f(x) in n_cod}
    inverted_char = (preimage == n_dom
                     and is_regular_epi(f.then(cod_dec.projection)))
    if inverted_def != inverted_char:
        raise TheoremCheckError(
            f"left-class routes disagree for {f!r}: "
            f"definitional={inverted_def} characterization={inverted_char}")

    # Right class, definitional route: the naturality square is a pullback.
    _, _, comparison = _naturality_square(f, dom_dec, cod_dec, reflected, cache)
    trivial_def = is_isomorphism(comparison)

    # Right class, characterization route: f maps T bijectively onto M.
    image = {f(x) for x in n_dom}
    trivial_char = len(image) == len(n_dom) and image == n_cod
    if trivial_def != trivial_char:
        raise TheoremCheckError(
            f"right-class routes disagree for {f!r}: "
            f"definitional={trivial_def} characterization={trivial_char}")

    ker_class = cache.derived(kernel_class, f.dom, kernel_members(f))
    stably_inverted = is_regular_epi(f) and ker_class.indiscrete
    covering = ker_class.separated

    if stably_inverted and not inverted_def:
        raise TheoremCheckError(
            f"{f!r} is stably inverted but not inverted by the reflector")
    if trivial_def and not covering:
        raise TheoremCheckError(
            f"{f!r} is a trivial covering but not a covering")
    return MorphismClassReport(
        reflector_inverted=inverted_def, trivial_covering=trivial_def,
        stably_inverted=stably_inverted, covering=covering)


def covering_kernel(f):
    """The kernel object of f and its class, built and classified once;
    f is a covering exactly when that class is separated."""
    if not f.dom.quantale.is_integral:
        raise NonIntegralQuantaleError("the covering predicate needs an integral quantale")
    ker_obj, _ = kernel(f)
    return ker_obj, classify_object(ker_obj)


def is_covering(f):
    """A morphism is a covering exactly when its kernel is separated.

    The same predicate answers the locally-semisimple-covering question
    relative to the separated objects.
    """
    return covering_kernel(f)[1].separated


@dataclass
class Factorization:
    e: VHom
    middle: VGroup
    m: VHom
    system: str  # "reflective" | "monotone_light"

    def as_dict(self):
        q = self.middle.quantale
        return {
            "system": self.system,
            "e_mapping": [self.middle.group.names[v] for v in self.e.mapping],
            "middle_carrier": list(self.middle.group.names),
            "middle_structure": [[q.label(v) for v in row]
                                 for row in self.middle.structure.entries],
            "m_mapping": [self.m.cod.group.names[v] for v in self.m.mapping],
        }


def reflective_factorize(f, cache=None):
    """Split f through the pullback of its reflection against the unit.

    The middle is the pullback of the reflected morphism along the
    codomain's projection; the left leg is the induced comparison, the
    right leg the pullback projection.  The composite is f, and m is
    valid, by construction (e(x) is the pair over f(x); pullback entries
    are meets), and so is m a trivial covering: the reflection is
    separated, so the middle's torsion part is T(cod) x {e}.
    Post-verifies that e is valid (f need not be) and reflector-inverted,
    raising on failure.  Decompositions, the square and e's report come
    from ``cache`` (fresh if omitted).
    """
    if cache is None:
        cache = ClassCache()
    dom_dec = cached_decomposition(f.dom, cache)
    cod_dec = cached_decomposition(f.cod, cache)
    p, m, e = _naturality_square(f, dom_dec, cod_dec,
                                 reflected_map(f, dom_dec, cod_dec), cache)
    if not validate_hom(e).ok:
        raise TheoremCheckError(
            f"reflective factorization of {f!r} produced an invalid leg")
    if not classify_morphism(e, cache).reflector_inverted:
        raise TheoremCheckError(
            f"left leg {e!r} of {f!r} is not inverted by the reflector")
    return Factorization(e=e, middle=p, m=m, system="reflective")


def _stabilized_quotient(cache, dom, members):
    """The projection of ``dom`` onto its quotient by the normal subgroup
    ``members``, pooled: a ``ClassCache`` build."""
    return cache.leg(quotient_vgroup(dom, members)[1])


def monotone_light_factorize(f, cache=None):
    """Split f through the quotient by the torsion part of its kernel.

    The subgroup being quotiented is normal in the whole domain (the
    composite of the kernel inclusion with the torsion counit is a
    normal monomorphism), so the quotient exists; the induced map to the
    codomain is well-defined because the quotiented subgroup sits inside
    the kernel, and e then m is f by the contract of ``factor_through_epi``.
    m is a covering because the torsion part of the kernel is quotiented
    away.  Checks normality, then post-verifies m's validity and e's class
    on every call; a failure here would be a finding about the
    construction, not a tolerated state, so it raises.  The quotient (the
    ``_stabilized_quotient`` build, by domain and torsion part of the
    kernel) and e's report come from ``cache``, a fresh one when omitted:
    morphisms with one domain and one torsion part of the kernel share
    their middle and left leg.
    """
    if not f.dom.quantale.is_integral:
        raise NonIntegralQuantaleError("stabilized factorization needs an integral quantale")
    if cache is None:
        cache = ClassCache()
    members = torsion_members(f.dom, kernel_members(f))
    witness = f.dom.group.normality_witness(members)
    if witness is not None:
        raise TheoremCheckError(
            f"torsion part of the kernel of {f!r} is not normal in the domain, "
            f"witness {witness}")
    e = cache.derived(_stabilized_quotient, f.dom, members)
    m = factor_through_epi(e, f)
    if m is None:
        raise TheoremCheckError(
            f"stabilized factorization of {f!r} has no induced right leg")
    if not validate_hom(m).ok:
        raise TheoremCheckError(
            f"stabilized factorization of {f!r} produced an invalid leg")
    if not classify_morphism(e, cache).stably_inverted:
        raise TheoremCheckError(
            f"left leg {e!r} of {f!r} is not a normal epi with indiscrete kernel")
    return Factorization(e=e, middle=e.cod, m=m, system="monotone_light")
