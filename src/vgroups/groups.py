"""Finite groups as Cayley tables, with the subgroup machinery the
categorical constructions need: normality tests with conjugation
witnesses, closures, cosets, and the homomorphism and isomorphism search.

``FiniteGroup(table, names)`` checks every group law exhaustively, the
associativity scan cubic in the order.  Documents, the class builders
(``trivial``, ``cyclic``, ``symmetric3``) and every other direct call go
through it.  ``pair_group`` (so ``direct_product``), ``subgroup_group``
and ``quotient_group`` instead build through ``FiniteGroup._trusted``,
which stores its fields with no re-check: each first tests closure,
subgroup-ness or normality in a group that already passed, and then
reads the identity and the inverses off its parents.

Those three constructions, and ``is_subgroup``, ``normality_witness``
and ``cosets``, read the rows of the parents' Cayley tables and their
``inverse`` tuples directly; ``op``, ``inv`` and ``conj`` remain for
callers that need one product at a time.

A group keeps one store of what it derives, ``_derived``, each entry
written once, on first use, through ``derived(build, *args)``: its
generating set, its tables of right differences (``difference_rows``)
and right shifts (``right_shifts``), the homomorphism searches out of it
(below), the groups built from it, and the index data of its descent
windows (``descent.window_shifts`` and ``descent.kernel_pair_index``).
The constructions of vgroup.py read their pullback, subobject and
quotient groups from it, and a pullback its projections' mappings
(``pair_projections``), so one run builds each once per parent;
``direct_product`` and every other direct call still build a fresh
group.  A pullback carrier also keeps the index of its points by their
pair of projections (``pair_index``), keyed by the two mapping tuples,
so ``pullback_comparison`` builds it once per carrier and pair of legs.
``_derived`` holds group data only (groups, a quotient's projection,
index tuples and tables), never a structure or a structured object, and
a construction that raises stores nothing.

Homomorphisms g -> h are found from generator images (Holt, Eick and
O'Brien, *Handbook of Computational Group Theory*, 2005): a greedy
generating set of g has at most two elements on the suite roster, so
``group_homs`` tries |h|^k choices of images, propagates each along
the Cayley graph of g, and keeps the result on g for the next call with
the same h.  Isomorphisms are its bijective members.
"""

from itertools import product as iproduct

from . import laws
from .errors import CapacityError, StructuralError

# Candidates one search may try; read at each call, here and by
# ``enumerate_structures`` and the pretorsion verifiers.
ENUMERATION_CAP = 10 ** 6


class FiniteGroup:
    """A group on the indices of its Cayley table, with element names.

    Beside its fields a group carries what it derives, found on first use
    and kept in ``_derived``, keyed by the construction and its other
    arguments: its generators, its difference and shift tables, each
    homomorphism search out of it, each group built from it, the index
    data of its descent windows and, on a pullback carrier, the index of
    its points by their pair of projections.
    """

    __slots__ = ("names", "table", "identity", "inverse", "size", "_derived", "_hash")

    def __init__(self, table, names=None):
        table = tuple([tuple(row) for row in table])
        n = len(table)
        if n == 0:
            raise StructuralError("empty Cayley table")
        for row in table:
            if len(row) != n:
                raise StructuralError("Cayley table must be square")
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise StructuralError(f"Cayley entry out of range: {v!r}")
        if names is None:
            names = tuple([str(i) for i in range(n)])
        else:
            names = tuple([str(x) for x in names])
            if len(names) != n or len(set(names)) != n:
                raise StructuralError("element names must be distinct, one per element")
        identity = None
        for e in range(n):
            if all(table[e][x] == x == table[x][e] for x in range(n)):
                identity = e
                break
        if identity is None:
            raise StructuralError("Cayley table has no identity element")
        inverse = []
        for x in range(n):
            inv = [y for y in range(n)
                   if table[x][y] == identity and table[y][x] == identity]
            if len(inv) != 1:
                raise StructuralError(f"element {names[x]} has no unique inverse")
            inverse.append(inv[0])
        witness = laws.associativity(table)
        if witness is not None:
            raise StructuralError(
                "Cayley table not associative at "
                f"({', '.join(names[i] for i in witness)})")
        self.names = names
        self.table = table
        self.identity = identity
        self.inverse = tuple(inverse)
        self.size = n
        self._derived = {}
        self._hash = None

    @classmethod
    def _trusted(cls, table, names, identity, inverse):
        """A group from fields known to satisfy the group laws, stored as
        given with no re-check: the table as a tuple of row tuples, the
        names as a tuple of distinct strings, the identity index and the
        inverses as a tuple.  Only constructions that derive these from
        groups that passed ``__init__`` may call it."""
        g = cls.__new__(cls)
        g.table, g.names, g.identity, g.inverse = table, names, identity, inverse
        g.size = len(table)
        g._derived = {}
        g._hash = None
        return g

    def derived(self, build, *args):
        """``build(self, *args)``, built on the first call with these
        arguments only and kept in ``_derived``.

        The key is the construction and the arguments as given, so an
        argument in another order than the first call's only misses the
        store.  A construction that raises stores nothing, and the group
        itself (``subgroup_group`` on the whole carrier) is not stored, so
        that no group holds itself.
        """
        key = (build, *args)
        found = self._derived.get(key)
        if found is None:
            found = build(self, *args)
            if found is not self:
                self._derived[key] = found
        return found

    def op(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self.inverse[i]

    def sub(self, i, j):
        """i + (-j), the right difference."""
        return self.table[i][self.inverse[j]]

    def conj(self, g, x):
        """g + x + (-g)."""
        return self.table[self.table[g][x]][self.inverse[g]]

    @property
    def generators(self):
        """A generating set: each element, in index order, that the ones
        picked before it do not generate.  Found on first use."""
        return self.derived(_greedy_generators)

    @property
    def is_abelian(self):
        return laws.symmetry(self.table) is None

    @classmethod
    def trivial(cls):
        return cls([[0]], names=["0"])

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise StructuralError("cyclic group order must be positive")
        return cls([[(i + j) % n for j in range(n)] for i in range(n)],
                   names=[str(i) for i in range(n)])

    @classmethod
    def direct_product(cls, a, b):
        return pair_group(a, b, [(i, j) for i in range(a.size) for j in range(b.size)])

    @classmethod
    def symmetric3(cls):
        """The permutations of three points, composed left to right."""
        perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
        def compose(p, q):
            # apply p first, then q
            return tuple(q[p[i]] for i in range(3))
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[compose(p, q)] for q in perms] for p in perms]
        names = ["".join(str(v) for v in p) for p in perms]
        return cls(table, names=names)

    # -- subgroup machinery ------------------------------------------------

    def is_subgroup(self, subset):
        s = set(subset)
        if self.identity not in s:
            return False
        table, inverse = self.table, self.inverse
        rows = (table[x] for x in s)
        return all(row[y] in s for row in rows for y in s) and \
            all(inverse[x] in s for x in s)

    def normality_witness(self, subset):
        """A pair (g, n) with g + n - g outside the subset, or None."""
        s = set(subset)
        table = self.table
        for g, row in enumerate(table):
            back = self.inverse[g]
            for n in s:
                if table[row[n]][back] not in s:
                    return (g, n)
        return None

    def is_normal_subgroup(self, subset):
        return self.is_subgroup(subset) and self.normality_witness(subset) is None

    def subgroup_closure(self, generators):
        s = {self.identity}
        frontier = set(generators)
        while frontier:
            s |= frontier
            frontier = {self.op(x, y) for x in s for y in s} | \
                       {self.inv(x) for x in s}
            frontier -= s
        return tuple(sorted(s))

    def normal_closure(self, subset):
        closed = set(self.subgroup_closure(subset))
        while True:
            conjugates = {self.conj(g, n) for g in range(self.size) for n in closed}
            grown = set(self.subgroup_closure(closed | conjugates))
            if grown == closed:
                return tuple(sorted(closed))
            closed = grown

    def all_subgroups(self):
        """Every subgroup, as sorted index tuples, from all 2^n subsets."""
        n = self.size
        if 1 << n > ENUMERATION_CAP:
            raise CapacityError(
                f"{1 << n} candidate subsets exceed the cap of {ENUMERATION_CAP}")
        found = set()
        for bits in range(1 << n):
            if not bits & (1 << self.identity):
                continue
            subset = tuple(i for i in range(n) if bits & (1 << i))
            if self.is_subgroup(subset):
                found.add(subset)
        return sorted(found)

    def all_normal_subgroups(self):
        return [s for s in self.all_subgroups()
                if self.normality_witness(s) is None]

    def cosets(self, normal_subset):
        """Left cosets of a normal subgroup, each sorted, listed by least member."""
        s = set(normal_subset)
        seen = set()
        cosets = []
        for x, row in enumerate(self.table):
            if x in seen:
                continue
            coset = tuple(sorted([row[m] for m in s]))
            seen.update(coset)
            cosets.append(coset)
        return sorted(cosets, key=lambda c: c[0])

    def _key(self):
        return (self.table, self.names)

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteGroup)
                                 and self._key() == other._key())

    def __hash__(self):
        # Computed on first use: the key is fixed once the group exists.
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"FiniteGroup(order {self.size})"


def _distinct(names):
    """The names, if no two are equal; two equal ones mean a subset or a
    pair list that names one element twice."""
    if len(set(names)) != len(names):
        raise StructuralError("element names must be distinct, one per element")
    return names


def subgroup_group(group, subset):
    """The subgroup on a sorted subset, reindexed, with inherited names;
    on the whole carrier, each element once, the group itself."""
    subset = tuple(sorted(subset))
    if subset == tuple(range(group.size)):
        return group
    if not group.is_subgroup(subset):
        raise StructuralError("subset is not a subgroup")
    names = _distinct(tuple([group.names[x] for x in subset]))
    pos = {x: i for i, x in enumerate(subset)}
    rows = [group.table[x] for x in subset]
    table = tuple([tuple([pos[row[y]] for y in subset]) for row in rows])
    inverse = tuple([pos[group.inverse[x]] for x in subset])
    return FiniteGroup._trusted(table, names, pos[group.identity], inverse)


def pair_group(a, b, pairs):
    """The subgroup of the direct product of a and b on a list of pairs
    (i, j), in list order, with the operation taken componentwise and
    elements named "(a,b)".  A nonempty list closed under the operation
    is a subgroup, as the group is finite, so it holds the identity pair
    and every inverse pair."""
    if not pairs:
        raise StructuralError("empty Cayley table")
    pos = {pair: k for k, pair in enumerate(pairs)}
    at, bt, ai, bi = a.table, b.table, a.inverse, b.inverse
    try:
        table = tuple([tuple([pos[ar[i2], br[j2]] for i2, j2 in pairs])
                       for ar, br in [(at[i1], bt[j1]) for i1, j1 in pairs]])
    except KeyError:
        raise StructuralError("subset is not a subgroup") from None
    names = _distinct(tuple([f"({a.names[i]},{b.names[j]})" for i, j in pairs]))
    inverse = tuple([pos[ai[i], bi[j]] for i, j in pairs])
    return FiniteGroup._trusted(table, names, pos[a.identity, b.identity], inverse)


def pair_projections(a, b, pairs):
    """The mappings of the two projections of ``pair_group(a, b, pairs)``."""
    return tuple([i for i, _ in pairs]), tuple([j for _, j in pairs])


def pair_index(group, first, second):
    """The elements of ``group`` by their pair of images under two
    mappings: each pair (first[k], second[k]) to the list of its k, in
    index order.  A pullback carrier keeps it for its projections'
    mappings (``vgroup.pullback_comparison``), read through
    ``group.derived(pair_index, first, second)``."""
    hits = {}
    for k, pair in enumerate(zip(first, second)):
        hits.setdefault(pair, []).append(k)
    return hits


def quotient_group(group, normal_subset):
    """Quotient by a normal subgroup.

    Returns (quotient, projection) where projection[x] is the index of
    the coset of x; cosets are ordered by their least member and named
    after it.
    """
    witness = group.normality_witness(normal_subset)
    if not group.is_subgroup(normal_subset) or witness is not None:
        raise StructuralError("subset is not a normal subgroup")
    cosets = group.cosets(normal_subset)
    coset_of = {}
    for i, coset in enumerate(cosets):
        for x in coset:
            coset_of[x] = i
    reps = [c[0] for c in cosets]
    rows = [group.table[c] for c in reps]
    table = tuple([tuple([coset_of[row[d]] for d in reps]) for row in rows])
    names = tuple([f"[{group.names[c]}]" for c in reps])
    inverse = tuple([coset_of[group.inverse[c]] for c in reps])
    quotient = FiniteGroup._trusted(table, names, coset_of[group.identity], inverse)
    projection = tuple([coset_of[x] for x in range(group.size)])
    return quotient, projection


def _greedy_generators(g):
    """``g.generators``: each element, in index order, that the ones picked
    before it do not generate."""
    gens, span = [], {g.identity}
    for x in range(g.size):
        if x not in span:
            gens.append(x)
            span = set(g.subgroup_closure(gens))
    return tuple(gens)


def difference_rows(g):
    """The right differences by row: ``rows[x][y]`` is ``g.sub(y, x)``, so
    row x is the column of the Cayley table at -x.  Read through
    ``g.derived(difference_rows)``, built once per group."""
    table = g.table
    return tuple([tuple([row[back] for row in table]) for back in g.inverse])


def right_shifts(g):
    """The right shifts by element: ``shifts[s]`` is the pairs (x, x + s)
    in x order, as ``laws.shift_invariance`` reads them.  Read through
    ``g.derived(right_shifts)``, built once per group."""
    return tuple([tuple([(x, row[s]) for x, row in enumerate(g.table)])
                  for s in range(g.size)])


def hom_search_size(g, h):
    """The image choices ``group_homs`` tries: |h|^k for the k generators of g."""
    return h.size ** len(g.generators)


def _propagate(g, h, gens, images):
    """The map g -> h sending each generator to its image, spread from
    the identity along the Cayley graph, or None as soon as an element
    gets two images."""
    mapping = [None] * g.size
    mapping[g.identity] = h.identity
    reached = [g.identity]
    for x in reached:
        row, target = g.table[x], h.table[mapping[x]]
        for s, t in zip(gens, images):
            y, v = row[s], target[t]
            if mapping[y] is None:
                mapping[y] = v
                reached.append(y)
            elif mapping[y] != v:
                return None
    return tuple(mapping)


def group_homs(g, h):
    """Every group homomorphism g -> h as an index mapping, in
    lexicographic order.

    The generators are picked in index order and every other element lies
    in the span of the generators before it, so its image is fixed by
    theirs: the lexicographic order of the image choices is that of the
    mappings.  A mapping that survives propagation is a homomorphism: it
    satisfies m(x + s) = m(x) + m(s) for every x and generator s, and
    induction on a word in the generators for y gives m(x + y) =
    m(x) + m(y), by associativity of both tables.

    The search runs once per pair: g keeps its result through
    ``g.derived``, keyed by h, so an equal codomain finds it too.  The cap
    is checked on every call, before the lookup, and a refused search
    stores nothing.  Each call returns a new list, which the caller may
    change.
    """
    count = hom_search_size(g, h)
    if count > ENUMERATION_CAP:
        raise CapacityError(
            f"{count} generator image choices exceed the cap of {ENUMERATION_CAP}")
    return list(g.derived(_search_homs, h))


def _search_homs(g, h):
    """``group_homs(g, h)`` as a tuple, searched with no cap."""
    gens = g.generators
    return tuple([mapping for images in iproduct(range(h.size), repeat=len(gens))
                  if (mapping := _propagate(g, h, gens, images)) is not None])


def group_isomorphisms(g, h):
    """Every group isomorphism g -> h as an index mapping: the bijective
    members of ``group_homs``, in its order."""
    if g.size != h.size:
        return []
    return [m for m in group_homs(g, h) if len(set(m)) == g.size]


def group_isomorphism(g, h):
    """A group isomorphism g -> h as an index mapping, or None."""
    isos = group_isomorphisms(g, h)
    return isos[0] if isos else None
