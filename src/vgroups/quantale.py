"""Finite commutative unital quantales stored as explicit order and tensor tables.

Elements are opaque indices 0..n-1 with display labels.  All algebra is a
table lookup: the order is a boolean matrix, the tensor an index matrix,
and binary joins/meets are computed once at construction from each
element's up-set and down-set as a bitmask, each distinct set of common
bounds searched once for its least (greatest) member, as is which values
annihilate: their tensor with anything is below everything.  Instances
are immutable and safe for unrestricted concurrent reads.

Construction checks well-formedness only (square tables, indices in
range, at least two elements).  Whether the tables satisfy the quantale
laws is the job of :func:`validate_quantale`, which names each violated
law together with a witness tuple.
"""

from itertools import compress

from . import laws
from .errors import CapacityError, StructuralError
from .reports import ValidationReport


def _bool_table(rows, n, what):
    try:
        table = tuple(tuple(bool(v) for v in row) for row in rows)
    except TypeError as exc:
        raise StructuralError(f"{what} table is not a matrix") from exc
    if len(table) != n or any(len(row) != n for row in table):
        raise StructuralError(f"{what} table must be {n}x{n}")
    return table


def _index_table(rows, n, what):
    try:
        table = tuple(tuple(row) for row in rows)
    except TypeError as exc:
        raise StructuralError(f"{what} table is not a matrix") from exc
    if len(table) != n or any(len(row) != n for row in table):
        raise StructuralError(f"{what} table must be {n}x{n}")
    for row in table:
        for v in row:
            if not isinstance(v, int) or not 0 <= v < n:
                raise StructuralError(f"{what} table entry out of range: {v!r}")
    return table


def _bound_tables(leq):
    """The join and meet tables of an order table, None where a pair has
    no least upper (greatest lower) bound, as on a lawless table.

    Each element's up-set and down-set is a bitmask.  A pair's common
    upper bounds c have a least member when exactly one w in c has all of
    c in its up-set, and dually for meets.  A pair and its mirror share c,
    as do many pairs of a chain, so each distinct c is read once."""
    n = len(leq)
    rng = range(n)
    bits = [1 << w for w in rng]
    up = [sum(compress(bits, row)) for row in leq]
    down = [sum(compress(bits, column)) for column in zip(*leq)]

    def least(common, sets):
        found, rest = None, common
        while rest:
            w = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if not common & ~sets[w]:
                if found is not None:
                    return None
                found = w
        return found

    def table(sets):
        bounds = {}
        rows = [[None] * n for _ in rng]
        for u in rng:
            su, row = sets[u], rows[u]
            for v in range(u, n):
                common = su & sets[v]
                if common not in bounds:
                    bounds[common] = least(common, sets)
                row[v] = rows[v][u] = bounds[common]
        return tuple(map(tuple, rows))

    return table(up), table(down)


class Quantale:
    """A finite lattice with a declared commutative unital tensor."""

    __slots__ = ("labels", "leq_table", "tensor_table", "unit", "bottom", "top",
                 "join_table", "meet_table", "annihilating", "_hash")

    def __init__(self, labels, leq, tensor, unit, bottom, top):
        labels = tuple(str(x) for x in labels)
        n = len(labels)
        if n < 2:
            raise StructuralError(
                "a quantale needs at least two elements (bottom != top)")
        if len(set(labels)) != n:
            raise StructuralError("duplicate quantale element labels")
        self.labels = labels
        self.leq_table = _bool_table(leq, n, "leq")
        self.tensor_table = _index_table(tensor, n, "tensor")
        for what, idx in (("unit", unit), ("bottom", bottom), ("top", top)):
            if not isinstance(idx, int) or not 0 <= idx < n:
                raise StructuralError(f"{what} index out of range: {idx!r}")
        self.unit = unit
        self.bottom = bottom
        self.top = top
        self.join_table, self.meet_table = _bound_tables(self.leq_table)
        # v annihilates when v (x) u is below every element, for every u:
        # such a v never makes a tensor fail to be below anything
        least = [all(row) for row in self.leq_table]
        self.annihilating = tuple(all(least[t] for t in row)
                                  for row in self.tensor_table)
        self._hash = None

    @property
    def size(self):
        return len(self.labels)

    @property
    def is_integral(self):
        return self.unit == self.top

    def label(self, u):
        return self.labels[u]

    def index_of(self, label):
        try:
            return self.labels.index(str(label))
        except ValueError:
            raise StructuralError(f"unknown quantale element label: {label!r}") from None

    def leq(self, u, v):
        return self.leq_table[u][v]

    def tensor(self, u, v):
        return self.tensor_table[u][v]

    def join(self, u, v):
        w = self.join_table[u][v]
        if w is None:
            raise StructuralError(
                f"order has no join for ({self.labels[u]}, {self.labels[v]})")
        return w

    def meet(self, u, v):
        w = self.meet_table[u][v]
        if w is None:
            raise StructuralError(
                f"order has no meet for ({self.labels[u]}, {self.labels[v]})")
        return w

    def join_all(self, items):
        """Join of an arbitrary finite family; the empty join is bottom."""
        acc = self.bottom
        for u in items:
            acc = self.join(acc, u)
        return acc

    def meet_all(self, items):
        acc = self.top
        for u in items:
            acc = self.meet(acc, u)
        return acc

    def _key(self):
        return (self.labels, self.leq_table, self.tensor_table,
                self.unit, self.bottom, self.top)

    def __eq__(self, other):
        return self is other or (isinstance(other, Quantale)
                                 and self._key() == other._key())

    def __hash__(self):
        # Computed on first use: the key is fixed once the quantale exists.
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __repr__(self):
        return f"Quantale({len(self.labels)} elements, unit={self.labels[self.unit]})"


def boolean():
    """The two-element quantale with tensor = meet and unit = top."""
    return Quantale(
        labels=["bot", "top"],
        leq=[[True, True], [False, True]],
        tensor=[[0, 0], [0, 1]],
        unit=1, bottom=0, top=1)


def lawvere_chain(m):
    """Chain {0..m} in reversed numeric order (0 = top), tensor = truncated sum."""
    if m < 1:
        raise StructuralError("m = 0 degenerates to the trivial quantale")
    n = m + 1
    return Quantale(
        labels=[str(i) for i in range(n)],
        leq=[[u >= v for v in range(n)] for u in range(n)],
        tensor=[[min(m, u + v) for v in range(n)] for u in range(n)],
        unit=0, bottom=m, top=0)


def ultrametric_chain(m):
    """Chain {0..m} in reversed numeric order, tensor = numeric maximum."""
    if m < 1:
        raise StructuralError("m = 0 degenerates to the trivial quantale")
    n = m + 1
    return Quantale(
        labels=[str(i) for i in range(n)],
        leq=[[u >= v for v in range(n)] for u in range(n)],
        tensor=[[max(u, v) for v in range(n)] for u in range(n)],
        unit=0, bottom=m, top=0)


# Building a chain is quadratic in its length (an order with a distinct
# bound set for each pair, cubic), validating one cubic; the suites use
# m <= 3.
BUILTIN_CHAIN_CAP = 16


def builtin_quantale(kind, m=None):
    """Dispatch over the shipped families by name."""
    if kind == "boolean":
        return boolean()
    chains = {"lawvere_chain": lawvere_chain, "ultrametric_chain": ultrametric_chain}
    if kind not in chains:
        raise StructuralError(f"unknown builtin quantale kind: {kind!r}")
    if m is None:
        raise StructuralError(f"{kind} requires a length m")
    if type(m) is not int:
        raise StructuralError(f"{kind} length m must be an integer, not {m!r}")
    if m > BUILTIN_CHAIN_CAP:
        raise CapacityError(
            f"builtin chain length {m} exceeds the cap of {BUILTIN_CHAIN_CAP}")
    return chains[kind](m)


def validate_quantale(q):
    """Check every quantale law, reporting one witness per violated law.

    The order must be a partial order in which every pair has a join and
    a meet, with the declared bottom/top global; the tensor must be
    associative, commutative, unital, annihilated by bottom and
    distribute over binary joins; binary meets must distribute over
    joins (the lattice is a frame); and bottom != top.  With a finite
    carrier, the binary join laws plus the empty join (annihilation)
    cover the arbitrary-join formulations.
    """
    report = ValidationReport(subject="quantale")
    n = q.size
    rng = range(n)
    leq = q.leq_table
    ten = q.tensor_table
    lab = q.labels

    def first(law, witness_iter):
        for w in witness_iter:
            report.add(law, tuple(lab[i] for i in w))
            return

    first("order-reflexive", ((u,) for u in rng if not leq[u][u]))
    first("order-antisymmetric",
          ((u, v) for u in rng for v in rng
           if u != v and leq[u][v] and leq[v][u]))
    first("order-transitive",
          ((u, v, w) for u in rng for v in rng for w in rng
           if leq[u][v] and leq[v][w] and not leq[u][w]))
    first("join-exists",
          ((u, v) for u in rng for v in rng if q.join_table[u][v] is None))
    first("meet-exists",
          ((u, v) for u in rng for v in rng if q.meet_table[u][v] is None))
    first("bottom-is-least", ((u,) for u in rng if not leq[q.bottom][u]))
    first("top-is-greatest", ((u,) for u in rng if not leq[u][q.top]))
    if q.bottom == q.top:
        report.add("nontrivial", (lab[q.bottom],))
    witness = laws.symmetry(ten)
    if witness is not None:
        report.add("tensor-commutative", tuple(lab[i] for i in witness))
    witness = laws.associativity(ten)
    if witness is not None:
        report.add("tensor-associative", tuple(lab[i] for i in witness))
    first("tensor-unit", ((u,) for u in rng if ten[u][q.unit] != u))
    first("tensor-annihilates-bottom",
          ((u,) for u in rng if ten[u][q.bottom] != q.bottom))

    def distributivity_failures():
        for u in rng:
            for v in rng:
                for w in rng:
                    j = q.join_table[v][w]
                    if j is None:
                        continue
                    rhs = q.join_table[ten[u][v]][ten[u][w]]
                    if rhs is None or ten[u][j] != rhs:
                        yield (u, v, w)

    first("tensor-distributes-over-joins", distributivity_failures())

    def frame_failures():
        for u in rng:
            for v in rng:
                for w in rng:
                    j = q.join_table[v][w]
                    mv, mw = q.meet_table[u][v], q.meet_table[u][w]
                    if j is None or mv is None or mw is None:
                        continue
                    lhs = q.meet_table[u][j]
                    rhs = q.join_table[mv][mw]
                    if lhs is None or rhs is None or lhs != rhs:
                        yield (u, v, w)

    first("frame-meets-distribute-over-joins", frame_failures())
    return report
