"""First-witness scanners for the laws of a quantale-valued structure
and of the maps between such structures.

Each scanner walks a square matrix ``a`` of quantale indices (``a[x][y]``
is the value from x to y) in lexicographic order of its witness tuple and
returns the first index tuple that violates its law, or None when the law
holds.  ``symmetry`` reads ``a`` alone, so it also serves Cayley and
tensor tables; ``associativity`` reads only such a table, whose entries
index its own rows.  The shift scanner also takes a table of shifts, the
pairs (x, x + s) of each shift s, listing only the x whose shift is
defined (``groups.right_shifts`` of a group, ``descent.window_shifts``
of a descent window), so it makes no call per entry;
``addition_compatibility`` takes the group's Cayley table instead and
reads one row of it per summand.  The morphism scanners
``compatibility`` and ``reflection`` take a second matrix ``b`` and an
index map ``m`` from the rows of ``a`` to the rows of ``b``; they read
``a`` one row and one entry at a time, so its rows may be generators
and nothing past the first witness is computed.  ``homomorphism`` reads
two Cayley tables along ``m`` instead.  Callers map the indices back to
labels or elements.

The tensor scanners ``transitivity`` and ``addition_compatibility`` skip
a left value that ``Quantale.annihilating`` marks: its tensor with any
value is below every value, so no witness starts there, lawful tables or
not, and the first witness is the one the full scan finds.
"""


def reflexivity(q, a):
    """First (x,) with the unit not below a(x, x)."""
    above_unit = q.leq_table[q.unit]
    for x, row in enumerate(a):
        if not above_unit[row[x]]:
            return (x,)
    return None


def transitivity(q, a):
    """First (x, y, z) with a(x, y) (x) a(y, z) not below a(x, z)."""
    leq, ten, inert = q.leq_table, q.tensor_table, q.annihilating
    for x, ax in enumerate(a):
        for y, axy in enumerate(ax):
            if inert[axy]:
                continue
            times = ten[axy]
            for z, ayz in enumerate(a[y]):
                if not leq[times[ayz]][ax[z]]:
                    return (x, y, z)
    return None


def symmetry(a):
    """First (x, y) with a(x, y) != a(y, x).  A witness (y, x) with y < x
    would follow its mirror (x, y), so only entries above the diagonal
    are read."""
    for x, ax in enumerate(a):
        for y in range(x + 1, len(ax)):
            if ax[y] != a[y][x]:
                return (x, y)
    return None


def associativity(a):
    """First (x, y, z) with a(a(x, y), z) != a(x, a(y, z)), for a table
    of indices into its own rows (a Cayley or tensor table)."""
    rng = range(len(a))
    for x, ax in enumerate(a):
        for y, xy in enumerate(ax):
            left, ay = a[xy], a[y]
            for z in rng:
                if left[z] != ax[ay[z]]:
                    return (x, y, z)
    return None


def separation(q, a):
    """First (x, y), x != y, with the unit below a(x, y) and a(y, x); the
    law is symmetric, so, as in ``symmetry``, only y > x is read."""
    above_unit = q.leq_table[q.unit]
    for x, ax in enumerate(a):
        for y in range(x + 1, len(ax)):
            if above_unit[ax[y]] and above_unit[a[y][x]]:
                return (x, y)
    return None


def shift_invariance(a, shifts):
    """First (s, x, y) with a(x, y) != a(x + s, y + s).  ``shifts[s]``
    holds the pairs (x, x + s) in x order, for the x whose shift by s is
    defined only, so x and y outside it are skipped."""
    for s, defined in enumerate(shifts):
        for x, xs in defined:
            ax, shifted = a[x], a[xs]
            for y, ys in defined:
                if ax[y] != shifted[ys]:
                    return (s, x, y)
    return None


def addition_compatibility(q, a, table):
    """First (x1, x2, y1, y2) with a(x1, x2) (x) a(y1, y2) not below
    a(x1 + y1, x2 + y2), the sums read off the Cayley table ``table``."""
    leq, ten, inert = q.leq_table, q.tensor_table, q.annihilating
    rng = range(len(a))
    for x1 in rng:
        ax1, row1 = a[x1], table[x1]
        for x2 in rng:
            v = ax1[x2]
            if inert[v]:
                continue
            times, row2 = ten[v], table[x2]
            for y1 in rng:
                ay1, target = a[y1], a[row1[y1]]
                for y2 in rng:
                    if not leq[times[ay1[y2]]][target[row2[y2]]]:
                        return (x1, x2, y1, y2)
    return None


def homomorphism(op_a, op_b, m):
    """First (x, y) with m(x + y) != m(x) + m(y), over the Cayley tables
    ``op_a`` and ``op_b``."""
    for x, (row, mx) in enumerate(zip(op_a, m)):
        target = op_b[mx]
        for y, xy in enumerate(row):
            if m[xy] != target[m[y]]:
                return (x, y)
    return None


def compatibility(q, a, b, m):
    """First (x, y) with a(x, y) not below b(m x, m y)."""
    leq = q.leq_table
    for x, ax in enumerate(a):
        bx = b[m[x]]
        for y, axy in enumerate(ax):
            if not leq[axy][bx[m[y]]]:
                return (x, y)
    return None


def reflection(a, b, m):
    """First (x, y) with a(x, y) != b(m x, m y)."""
    for x, ax in enumerate(a):
        bx = b[m[x]]
        for y, axy in enumerate(ax):
            if axy != bx[m[y]]:
                return (x, y)
    return None
