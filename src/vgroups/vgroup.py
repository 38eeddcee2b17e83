"""Finite quantale-valued groups and their homomorphisms.

A structured group pairs a finite group with a square relation over a
quantale satisfying reflexivity, transitivity and shift invariance
(equivalently: addition is compatible with the structure).  This module
validates those axioms, classifies objects and morphisms, and builds the
limits, colimits and image factorization of the category: kernels carry
the restriction of the ambient structure, cokernels and coequalizers the
final structure (join over fibers), products and pullbacks the entrywise
meet.

``VHom`` and ``VRel`` check their arguments at construction.  The
constructions here that derive a map or a relation from valid ones
(composites, projections, comparisons, factorings, inclusions and
structures of subobjects, quotients, pullbacks and images, and the zero
map once its quantale check has passed) build through their ``_trusted``
constructors instead: each output's indices lie in range because they
are read off valid inputs.  ``pullback``, ``pullback_comparison``,
``fibers`` and ``equalizer`` read the mapping tuples of their maps
directly rather than calling each map once per element; a pullback
lists its agreeing pairs through the fibres of its second leg.
``pullback``, ``subobject``, ``image_factorize`` and ``quotient_vgroup``
read their groups through ``FiniteGroup.derived``, so each is built once
per parent group, and ``pullback`` its projections' mappings too; the
structures over them are built on every call.  ``pullback_comparison``
reads the index of a pullback's points by their pair of projections
(``groups.pair_index``) the same way, from the pullback's group, so it
is built once per carrier and pair of legs.
``validate_vgroup`` reads its right shifts (``groups.right_shifts``) and
``profile_matrix`` its difference table the same way.

Everything is exhaustive at desk scale.  Enumerators are deterministic
(lexicographic candidate order) and guarded by an explicit candidate cap.
"""

from dataclasses import asdict, dataclass
from itertools import product as iproduct

from . import groups, laws
from .errors import CapacityError, StructuralError, TheoremCheckError
from .groups import (FiniteGroup, difference_rows, group_homs, group_isomorphisms,
                     pair_group, pair_projections, quotient_group, right_shifts,
                     subgroup_group)
from .quantale import validate_quantale
from .reports import ValidationReport
from .vrel import VRel


class VGroup:
    __slots__ = ("group", "quantale", "structure", "name", "size", "_hash")

    def __init__(self, group, quantale, structure):
        if not isinstance(structure, VRel):
            raise StructuralError("structure must be a VRel")
        if structure.quantale is not quantale and structure.quantale != quantale:
            raise StructuralError("structure lives over a different quantale")
        if structure.src_size != group.size or structure.dst_size != group.size:
            raise StructuralError(
                f"structure must be {group.size}x{group.size}")
        self.group = group
        self.quantale = quantale
        self.structure = structure
        self.name = None
        self.size = group.size
        self._hash = None

    def entry(self, x, y):
        return self.structure.entries[x][y]

    def delta(self):
        """The structure row at the identity: d -> a(0, d)."""
        return tuple(self.structure.entries[self.group.identity])

    def _key(self):
        return (self.group, self.quantale, self.structure)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, VGroup) and hash(self) == hash(other)
                and self._key() == other._key())

    def __hash__(self):
        # Computed on first use: the key is fixed once the object exists.
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        tag = self.name or f"order {self.size}"
        return f"VGroup({tag})"


class VHom:
    __slots__ = ("dom", "cod", "mapping", "name")

    def __init__(self, dom, cod, mapping, name=None):
        mapping = tuple(mapping)
        if len(mapping) != dom.size:
            raise StructuralError("mapping length must equal the domain size")
        for v in mapping:
            if not isinstance(v, int) or not 0 <= v < cod.size:
                raise StructuralError(f"mapping value out of range: {v!r}")
        _shared_quantale(dom, cod)
        self.dom = dom
        self.cod = cod
        self.mapping = mapping
        self.name = name

    @classmethod
    def _trusted(cls, dom, cod, mapping):
        """An unnamed map from a mapping tuple known to send each element
        of dom into cod, between objects over one quantale, stored with no
        re-check."""
        f = cls.__new__(cls)
        f.dom, f.cod, f.mapping, f.name = dom, cod, mapping, None
        return f

    def __call__(self, i):
        return self.mapping[i]

    def then(self, other):
        if self.cod is not other.dom and self.cod != other.dom:
            raise StructuralError("composition needs matching middle object")
        return VHom._trusted(self.dom, other.cod,
                             tuple([other.mapping[v] for v in self.mapping]))

    def is_injective(self):
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self):
        return len(set(self.mapping)) == self.cod.size

    def image_set(self):
        return tuple(sorted(set(self.mapping)))

    def _key(self):
        return (self.dom, self.cod, self.mapping)

    def __eq__(self, other):
        return isinstance(other, VHom) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        tag = self.name or ",".join(str(v) for v in self.mapping)
        return f"VHom({tag})"


@dataclass(frozen=True)
class ObjectClass:
    indiscrete: bool
    separated: bool
    symmetric: bool
    discrete: bool

    as_dict = asdict


@dataclass(frozen=True)
class HomClassification:
    mono: bool
    epi: bool
    regular_epi: bool
    normal_mono: bool
    normal_epi_alias: bool  # regular epi counts as normal epi over an integral quantale

    as_dict = asdict


# -- constructors ----------------------------------------------------------

def indiscrete_vgroup(group, quantale):
    return VGroup(group, quantale,
                  VRel.constant(quantale, group.size, group.size, quantale.top))


def discrete_vgroup(group, quantale):
    return VGroup(group, quantale, VRel.identity(quantale, group.size))


def trivial_vgroup(quantale, value=None):
    """One-element object; the structure value defaults to the unit."""
    v = quantale.unit if value is None else value
    return VGroup(FiniteGroup.trivial(), quantale, VRel(quantale, [[v]]))


def profile_matrix(group, delta):
    """The matrix a(x, y) = delta(y - x) of a shift profile, as row tuples.

    Each row is delta read along a row of the group's difference table
    (``groups.difference_rows``, built once per group), with no call per
    entry; ``enumerate_structures`` and the battery's route check spread
    every candidate profile of a group through the one table."""
    read = delta.__getitem__
    return tuple([tuple(map(read, row)) for row in group.derived(difference_rows)])


def structure_from_delta(group, quantale, delta):
    """Spread a shift profile to a full structure: a(x, y) = delta(y - x).

    Uses the right difference y + (-x); the resulting matrix is invariant
    under right shifts by construction.  The caller must still validate.
    """
    delta = tuple(delta)
    if len(delta) != group.size:
        raise StructuralError("delta must assign one value per group element")
    for v in delta:
        if not isinstance(v, int) or not 0 <= v < quantale.size:
            raise StructuralError(f"delta value out of range: {v!r}")
    return VGroup(group, quantale, VRel(quantale, profile_matrix(group, delta)))


def identity_hom(g):
    return VHom(g, g, range(g.size))


def zero_hom(g, h):
    _shared_quantale(g, h)
    return VHom._trusted(g, h, (h.group.identity,) * g.size)


# -- validation ------------------------------------------------------------

def validate_vgroup(g):
    """Check the structured-group axioms, with one witness per violated law.

    Four laws are scanned: reflexivity, transitivity, invariance under
    right shifts, and compatibility of addition (the two-argument
    inequality).  The last is the definitional ground truth; the first
    three are its classical reformulation, provably equivalent for
    abelian carriers.  For nonabelian carriers right-shift invariance
    plus transitivity can hold while compatibility fails; the report
    flags that in ``notes`` as a finding rather than resolving it.  The
    equivalence needs the quantale's own laws, so over a lawless quantale
    a disagreement is left in ``notes`` as ``routes_agree: false``.
    """
    report = ValidationReport(subject="vgroup")
    q, grp, a = g.quantale, g.group, g.structure.entries
    witnesses = {
        "reflexivity": laws.reflexivity(q, a),
        "transitivity": laws.transitivity(q, a),
        "shift-invariance": laws.shift_invariance(a, grp.derived(right_shifts)),
        "addition-compatibility": laws.addition_compatibility(q, a, grp.table),
    }
    for law, witness in witnesses.items():
        if witness is not None:
            report.add(law, (grp.names[x] for x in witness))
    r_ok, t_ok, shift_ok, functor_ok = (w is None for w in witnesses.values())

    shift_route = r_ok and t_ok and shift_ok
    functor_route = r_ok and functor_ok
    agree = shift_route == functor_route
    abelian = grp.is_abelian
    report.notes["routes_agree"] = agree
    report.notes["abelian"] = abelian
    report.notes["nonabelian_shift_finding"] = (not agree) and not abelian
    if not agree and abelian and validate_quantale(q).ok:
        raise TheoremCheckError(
            f"shift route and compatibility route disagree on an abelian carrier: {g!r}")
    return report


def classify_object(g):
    """Compute the four structural flags by exhaustive scan.

    Separation is checked in the shift-reduced one-variable form and in
    the two-variable form; the two must agree on a valid object.
    """
    q = g.quantale
    a = g.structure.entries
    n = g.size
    e = g.group.identity
    rng = range(n)
    k = q.unit
    indiscrete = all(a[x][y] == q.top for x in rng for y in rng)
    sep_reduced = all(x == e
                      for x in rng
                      if q.leq(k, a[x][e]) and q.leq(k, a[e][x]))
    sep_full = laws.separation(q, a) is None
    if sep_reduced != sep_full:
        raise TheoremCheckError(
            f"one-variable and two-variable separation checks disagree for {g!r}")
    symmetric = laws.symmetry(a) is None
    discrete = all(a[x][y] == (k if x == y else q.bottom) for x in rng for y in rng)
    return ObjectClass(indiscrete=indiscrete, separated=sep_full,
                       symmetric=symmetric, discrete=discrete)


def validate_hom(f):
    """Group-homomorphism law plus structure compatibility, with witnesses."""
    report = ValidationReport(subject="hom")
    dom, cod, m = f.dom, f.cod, f.mapping
    gl, hl = dom.group.names, cod.group.names
    witness = laws.homomorphism(dom.group.table, cod.group.table, m)
    if witness is not None:
        report.add("group-homomorphism", (gl[x] for x in witness))
    witness = laws.compatibility(dom.quantale, dom.structure.entries,
                                 cod.structure.entries, m)
    if witness is not None:
        x, y = witness
        report.add("structure-compatibility", (gl[x], gl[y], hl[m[x]], hl[m[y]]))
    return report


def is_isomorphism(f):
    """Bijective and structure-reflecting; the inverse is then a hom too."""
    image = len(set(f.mapping))  # one set for both tests
    if image != len(f.mapping) or image != f.cod.size:
        return False
    return laws.reflection(f.dom.structure.entries, f.cod.structure.entries,
                           f.mapping) is None


# -- limits, colimits, factorization ---------------------------------------

def subobject(g, subset):
    """Subgroup carrier with the induced (restricted) structure."""
    subset = tuple(sorted(subset))
    sub = g.group.derived(subgroup_group, subset)
    a = g.structure.entries
    entries = tuple([tuple([a[x][y] for y in subset]) for x in subset])
    obj = VGroup(sub, g.quantale, VRel._trusted(g.quantale, entries))
    return obj, VHom._trusted(obj, g, subset)


def quotient_vgroup(g, normal_subset):
    """Quotient carrier with the final structure (join over coset pairs)."""
    quotient, projection = g.group.derived(quotient_group, tuple(normal_subset))
    entries = final_structure(g, g.group.cosets(normal_subset))
    obj = VGroup(quotient, g.quantale, VRel._trusted(g.quantale, entries))
    return obj, VHom._trusted(g, obj, projection)


def final_structure(g, classes):
    """The rows of the join of g's structure over each pair of classes:
    the final structure along a map whose fibers are ``classes``.

    Each entry folds from bottom over (x in c, y in d) in that order, as
    ``Quantale.join_all`` would: over a lawless order the result may
    depend on it.  Joins are read from ``Quantale.join_table``; a missing
    join (None) goes through ``Quantale.join``, which raises on it.
    """
    q, a = g.quantale, g.structure.entries
    join, bottom = q.join_table, q.bottom
    rows = []
    for c in classes:
        c_rows = [a[x] for x in c]
        row = []
        for d in classes:
            acc = bottom
            for ax in c_rows:
                for y in d:
                    t = ax[y]
                    acc = j if (j := join[acc][t]) is not None else q.join(acc, t)
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def kernel(f):
    """Kernel subobject: the equalizer of f and the zero map."""
    return equalizer(f, zero_hom(f.dom, f.cod))


def cokernel(f):
    """Cokernel: quotient of the codomain by the image, final structure.

    Defined only when the image is a normal subgroup of the codomain;
    otherwise raises with a conjugation witness.  The join formula
    c(z1, z2) = join of b(y1, y2) over the fibers of the projection is
    what makes the projection final.
    """
    image = f.image_set()
    witness = f.cod.group.normality_witness(image)
    if witness is not None:
        gx, nx = witness
        names = f.cod.group.names
        raise StructuralError(
            f"image is not a normal subgroup: conjugating {names[nx]} "
            f"by {names[gx]} leaves the image")
    return quotient_vgroup(f.cod, image)


def product(g, h):
    """Binary product: the pullback over the one-point object, so every
    pair of elements, in lexicographic order."""
    if h.quantale != g.quantale:
        raise StructuralError("product needs a shared quantale")
    point = trivial_vgroup(g.quantale)
    return pullback(zero_hom(g, point), zero_hom(h, point))[0]


def pullback(f, g):
    """Pullback of a cospan f: X -> Z, g: W -> Z.

    The carrier is the subgroup of pairs agreeing in Z, in lexicographic
    order: each i of X, in order, paired with the fibre of g over f(i),
    in order.  The structure is the entrywise meet restricted there.
    Returns (P, to_dom_of_f, to_dom_of_g).
    """
    if f.cod is not g.cod and f.cod != g.cod:
        raise StructuralError("pullback needs a common codomain")
    x, w, q = f.dom, g.dom, f.cod.quantale
    fibre = fibers(g, range(g.cod.size))
    pairs = tuple([(i, j) for i, z in enumerate(f.mapping) for j in fibre[z]])
    entries = pair_meets(q, x.structure.entries, w.structure.entries, pairs)
    p = VGroup(x.group.derived(pair_group, w.group, pairs), q, VRel._trusted(q, entries))
    to_x, to_w = x.group.derived(pair_projections, w.group, pairs)
    return p, VHom._trusted(p, x, to_x), VHom._trusted(p, w, to_w)


def pair_meets(q, a, b, pairs):
    """The meet structure on a carrier of index pairs: the rows of the
    matrix whose entry at ((i1, j1), (i2, j2)) is the meet of a(i1, i2)
    and b(j1, j2).  Meets are read from ``Quantale.meet_table``; a
    missing one (None) goes through ``Quantale.meet``, which raises on it.
    """
    table, meet = q.meet_table, q.meet
    rows = []
    for i1, j1 in pairs:
        ai, bj = a[i1], b[j1]
        rows.append(tuple([m if (m := table[ai[i2]][bj[j2]]) is not None
                           else meet(ai[i2], bj[j2]) for i2, j2 in pairs]))
    return tuple(rows)


def pullback_comparison(p, pi1, pi2, u1, u2):
    """The universal map into a pullback p with projections pi1 and pi2,
    given a commuting cone (u1, u2).  The points of p by their pair of
    projections (``groups.pair_index``) are kept on p's group, keyed by
    the projections' mappings, so each pullback builds them once."""
    hits = p.group.derived(groups.pair_index, pi1.mapping, pi2.mapping)
    mapping, second = [], u2.mapping
    for x, y in enumerate(u1.mapping):
        found = hits.get((y, second[x]), ())
        if len(found) != 1:
            raise TheoremCheckError(
                f"pullback comparison is not well-defined at element "
                f"{u1.dom.group.names[x]!r} of {u1.dom!r}: {len(found)} hits")
        mapping.append(found[0])
    _shared_quantale(u1.dom, p)
    return VHom._trusted(u1.dom, p, tuple(mapping))


def _shared_quantale(g, h):
    """Raise unless a map g -> h would live over one quantale."""
    if g.quantale is not h.quantale and g.quantale != h.quantale:
        raise StructuralError("homomorphisms need a shared quantale")


def factor_through_mono(f, m):
    """The map h with h.then(m) == f, or None when f does not land in the
    image of the monomorphism m."""
    pos = {y: i for i, y in enumerate(m.mapping)}
    mapping = [pos.get(y) for y in f.mapping]
    if None in mapping:
        return None
    _shared_quantale(f.dom, m.dom)
    return VHom._trusted(f.dom, m.dom, tuple(mapping))


def factor_through_epi(e, f):
    """The map h with e.then(h) == f, or None when f is not constant on the
    fibres of e, or when e is not onto, so that some point of e.cod has
    no preimage and hence no image under h."""
    mapping = [None] * e.cod.size
    for v, y in zip(e.mapping, f.mapping):
        if mapping[v] not in (None, y):
            return None
        mapping[v] = y
    if None in mapping:
        return None
    _shared_quantale(e.cod, f.cod)
    return VHom._trusted(e.cod, f.cod, tuple(mapping))


def equalizer(f, g):
    if f.dom != g.dom or f.cod != g.cod:
        raise StructuralError("equalizer needs a parallel pair")
    subset = [x for x, (u, v) in enumerate(zip(f.mapping, g.mapping)) if u == v]
    return subobject(f.dom, subset)


def coequalizer(f, g):
    """Quotient of the codomain by the normal closure of the differences."""
    if f.dom != g.dom or f.cod != g.cod:
        raise StructuralError("coequalizer needs a parallel pair")
    diffs = {f.cod.group.sub(f(x), g(x)) for x in range(f.dom.size)}
    closure = f.cod.group.normal_closure(diffs)
    return quotient_vgroup(f.cod, closure)


def image_factorize(f):
    """Surjection-onto-image followed by inclusion: f = m . e.

    The middle carries the final structure along e, so e is a regular
    epimorphism and m a monomorphism.
    """
    image = f.image_set()
    sub = f.cod.group.derived(subgroup_group, image)
    q = f.dom.quantale
    entries = final_structure(f.dom, fibers(f, image))
    middle = VGroup(sub, q, VRel._trusted(q, entries))
    m = VHom._trusted(middle, f.cod, image)
    return factor_through_mono(f, m), middle, m


def fibers(f, targets):
    """The preimage of each target under f, in ascending order."""
    fibre = {}
    for x, y in enumerate(f.mapping):
        fibre.setdefault(y, []).append(x)
    return [fibre.get(y, []) for y in targets]


def is_final(f):
    """b(y1, y2) equals the join of a over the fibers, at every pair."""
    joins = final_structure(f.dom, fibers(f, range(f.cod.size)))
    return all(row == b for row, b in zip(joins, f.cod.structure.entries))


def is_regular_epi(f):
    """Surjective and final: a regular epimorphism, with no other flag of
    ``classify_hom`` computed."""
    return f.is_surjective() and is_final(f)


def classify_hom(f):
    """Mono/epi/regular-epi/normal-mono flags by the exhaustive criteria.

    Epimorphisms are exactly the surjections and regular epimorphisms the
    final surjections.  A normal monomorphism is an injection onto a
    normal subgroup that reflects the structure on the nose.  Over an
    integral quantale every regular epimorphism is also a normal
    epimorphism; the alias flag records that.
    """
    mono = f.is_injective()
    epi = f.is_surjective()
    regular_epi = is_regular_epi(f)
    normal_mono = (mono
                   and f.cod.group.is_normal_subgroup(f.image_set())
                   and laws.reflection(f.dom.structure.entries,
                                       f.cod.structure.entries, f.mapping) is None)
    alias = regular_epi and f.dom.quantale.is_integral
    return HomClassification(mono=mono, epi=epi, regular_epi=regular_epi,
                             normal_mono=normal_mono, normal_epi_alias=alias)


# -- enumeration -----------------------------------------------------------

def enumerate_structures(group, quantale):
    """All valid structures on a group, via shift profiles, in lexicographic order.

    Candidates are the |Q|^|G| profiles d with a(x, y) = d(y - x).  One is
    kept iff k <= d(e) and d(u) (x) d(v) <= d(u + c) for all u, v and
    every conjugate c = g + v - g of v; on an abelian carrier c = v.
    This is exactly ``validate_vgroup`` of the spread matrix, on any
    tables and with no quantale law used: reflexivity is k <= d(e);
    right-shift invariance holds by construction; compatibility becomes
    the test once x2 = u + x1 and y2 = v + y1 are substituted (c is the
    conjugate of v by x1); transitivity is its case g = -u.
    """
    n = group.size
    count = quantale.size ** n
    if count > groups.ENUMERATION_CAP:
        raise CapacityError(
            f"{count} candidate profiles exceed the cap of {groups.ENUMERATION_CAP}")
    q, rng = quantale, range(n)
    # (u, v, u + c) for all u, v and each conjugate c of v
    triples = [(u, v, group.op(u, c)) for u in rng for v in rng
               for c in sorted({group.conj(g, v) for g in rng})]
    out = []
    for delta in iproduct(range(q.size), repeat=n):
        if q.leq(q.unit, delta[group.identity]) and \
                all(q.leq(q.tensor(delta[u], delta[v]), delta[w])
                    for u, v, w in triples):
            out.append(structure_from_delta(group, q, delta))
    return out


def enumerate_homs(dom, cod):
    """All homomorphisms dom -> cod, in lexicographic mapping order: the
    group homomorphisms found from generator images (``group_homs``)
    that are compatible with the structures.
    """
    if dom.quantale != cod.quantale:
        raise StructuralError("hom enumeration needs a shared quantale")
    q = dom.quantale
    a, b = dom.structure.entries, cod.structure.entries
    return [VHom._trusted(dom, cod, mapping)
            for mapping in group_homs(dom.group, cod.group)
            if laws.compatibility(q, a, b, mapping) is None]


def vgroup_isomorphism(g, h):
    """An isomorphism g -> h, or None: the first structure-preserving one
    among the group isomorphisms."""
    if g.quantale != h.quantale:
        return None
    for mapping in group_isomorphisms(g.group, h.group):
        if laws.reflection(g.structure.entries, h.structure.entries, mapping) is None:
            return VHom(g, h, mapping)
    return None


def factorization_middle_iso(e1, m1, e2, m2):
    """An isomorphism between factorization middles commuting with both legs.

    The first group isomorphism h with h . e1 = e2 and m2 . h = m1 that is
    a valid hom and an isomorphism, as a VHom, or None.
    """
    mid1, mid2 = e1.cod, m2.dom
    for mapping in group_isomorphisms(mid1.group, mid2.group):
        if any(mapping[e1(x)] != e2(x) for x in range(e1.dom.size)) or \
                any(m2(mapping[p]) != m1(p) for p in range(mid1.size)):
            continue
        h = VHom(mid1, mid2, mapping)
        if validate_hom(h).ok and is_isomorphism(h):
            return h
    return None
