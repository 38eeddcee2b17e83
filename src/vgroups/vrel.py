"""Quantale-valued relations as dense matrices.

A relation from a carrier of size ``src_size`` to one of size
``dst_size`` is a matrix of quantale element indices.  Composition is the
matricial product with join as sum and tensor as product; over the
boolean quantale it reduces to the ordinary boolean matrix product.
Values are immutable and all operations are pure.

The constructor checks that the matrix is rectangular and that every
entry is a quantale index.  ``then``, ``converse`` and ``from_function``
build through ``VRel._trusted`` instead: a composite and a converse read
their entries off valid tables, and ``from_function`` writes only the
unit and the bottom, after its own range check on the function.
"""

from .errors import StructuralError


class VRel:
    __slots__ = ("quantale", "entries")

    def __init__(self, quantale, entries):
        entries = tuple([tuple(row) for row in entries])
        width = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != width:
                raise StructuralError("ragged relation matrix")
            for v in row:
                if not isinstance(v, int) or not 0 <= v < quantale.size:
                    raise StructuralError(f"relation entry out of range: {v!r}")
        self.quantale = quantale
        self.entries = entries

    @classmethod
    def _trusted(cls, quantale, entries):
        """A relation from entries known to be a rectangular tuple of row
        tuples of quantale indices, stored with no re-check: for the
        restrictions, joins, meets, composites and converses of relations
        that already passed ``__init__``, and for function graphs."""
        r = cls.__new__(cls)
        r.quantale, r.entries = quantale, entries
        return r

    @property
    def src_size(self):
        return len(self.entries)

    @property
    def dst_size(self):
        return len(self.entries[0]) if self.entries else 0

    def entry(self, x, y):
        return self.entries[x][y]

    @classmethod
    def identity(cls, quantale, n):
        """Diagonal unit, bottom off the diagonal."""
        if n < 1:
            raise StructuralError("identity relation needs a nonempty carrier")
        k, bot = quantale.unit, quantale.bottom
        return cls(quantale,
                   [[k if x == y else bot for y in range(n)] for x in range(n)])

    @classmethod
    def from_function(cls, quantale, mapping, dst_size):
        """Embed a function: unit on its graph, bottom elsewhere."""
        k, bot = quantale.unit, quantale.bottom
        for y in mapping:
            if not 0 <= y < dst_size:
                raise StructuralError(f"function value out of range: {y!r}")
        columns = range(dst_size)
        return cls._trusted(quantale, tuple([
            tuple([k if y == z else bot for z in columns]) for y in mapping]))

    @classmethod
    def constant(cls, quantale, src_size, dst_size, value):
        return cls(quantale, [[value] * dst_size for _ in range(src_size)])

    def _check_compatible(self, other, same_shape):
        if self.quantale != other.quantale:
            raise StructuralError("relations live over different quantales")
        if same_shape and (self.src_size != other.src_size
                           or self.dst_size != other.dst_size):
            raise StructuralError("relation shapes differ")

    def then(self, other):
        """Diagrammatic composite: first self (X to Y), then other (Y to Z).

        The entry at (x, z) is the join over the inner carrier of
        tensor(self(x, y), other(y, z)).  The fold visits y in carrier
        order; lattice laws make the result order-independent.  Joins
        and tensors are read from ``Quantale.join_table`` and
        ``tensor_table``; a missing join (None) goes through
        ``Quantale.join``, which raises on it.
        """
        self._check_compatible(other, same_shape=False)
        if self.dst_size != other.src_size:
            raise StructuralError(
                f"inner carrier mismatch: {self.dst_size} vs {other.src_size}")
        q = self.quantale
        join, tensor, bottom = q.join_table, q.tensor_table, q.bottom
        columns = list(zip(*other.entries))
        rows = []
        for srow in self.entries:
            trows = [tensor[a] for a in srow]
            row = []
            for column in columns:
                acc = bottom
                for trow, b in zip(trows, column):
                    t = trow[b]
                    acc = j if (j := join[acc][t]) is not None else q.join(acc, t)
                row.append(acc)
            rows.append(tuple(row))
        return VRel._trusted(q, tuple(rows))

    def converse(self):
        return VRel._trusted(self.quantale, tuple(zip(*self.entries)))

    def meet(self, other):
        self._check_compatible(other, same_shape=True)
        q = self.quantale
        return VRel(q, [[q.meet(a, b) for a, b in zip(ra, rb)]
                        for ra, rb in zip(self.entries, other.entries)])

    def leq(self, other):
        self._check_compatible(other, same_shape=True)
        leq = self.quantale.leq_table
        return all(leq[a][b]
                   for ra, rb in zip(self.entries, other.entries)
                   for a, b in zip(ra, rb))

    def __eq__(self, other):
        return (isinstance(other, VRel)
                and self.quantale == other.quantale
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.quantale, self.entries))

    def __repr__(self):
        lab = self.quantale.labels
        rows = "; ".join(",".join(lab[v] for v in row) for row in self.entries)
        return f"VRel[{rows}]"
