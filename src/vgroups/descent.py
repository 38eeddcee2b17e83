"""The integer-indexed separated cover of a structured group, evaluated
lazily, with window-bounded verification.

For a base object the cover lives on (all integers) x (base carrier)
with componentwise addition and the piecewise structure

    level(z) < level(z')          -> base value at (x, x')
    same level, same point        -> top
    otherwise                     -> bottom

The carrier is genuinely infinite, so nothing is ever materialized
globally: every check runs on a finite window of levels -radius..radius
and the one global identity that matters (finality of the projection)
has a finite witness, the pair of levels 0 and 1, whose join already
realizes the base value.  Window checks are expected to pass at every
radius; a failure is a violated law in the report, with its witness.

On a window the checks cover the cover's structure laws, the
compatibility and finality of its projection, the diagonal embedding
and separation of the kernel-pair groupoid, and the compatibility of a
covering's action map and the separation of its carrier.  What holds by
construction on every input is not re-tested: the section splits the
projection, the levels (0, 1) realize each base value, the action's
unit, associativity and fibration laws follow from its formula, and the
projections and the anchor map are compatible because each entry they
read is a meet, which ``Quantale.meet`` only ever picks below both of
its arguments.  The induced equivalence of categories over the infinite
site stays out of reach of a finite check.

Evaluation is a pure function of the formula, safe to share.  A window's
matrix is copied from the formula's three blocks (bottom below the
level, the identity on it, the base row above it) rather than evaluated
entry by entry.  The kernel-pair meet structure is copied the same way:
its entry at ((z1, z2, x), (z1', z2', x')) meets two window values, each
one of the three blocks by the order of z1, z1' and of z2, z2', so a row
is a concatenation of nine meet blocks per distinct point, each read
once from the meet table.  The finality check folds the levels once per
distinct (base value, same point) pair, on which alone the folded values
depend.

The lemma behind the window scans: a window value at ((z, x), (z', y))
depends on the two levels only through their order (<, = or >), and a
kernel-pair or action entry only through the orders of (z1, z1') and
(z2, z2').  Every scanned law reads at most three levels per coordinate
(reflexivity one; separation, compatibility, the diagonal embedding and
the action map two; transitivity three), and a right shift keeps the
order of the two levels it moves.  The levels -1..1 realize every order
pattern of three levels, and the radius-1 window is a sub-window of the
radius-r window with the same entries, so each law holds at radius r
iff it holds at radius 1, for any tables, lawful or not.  The scans
therefore decide each law on the radius-1 window, and rescan at radius
r only a law that fails there, so that every reported witness is the
first one in radius-r order.  The capacity guards and the finality folds
are those of radius r.
"""

from dataclasses import dataclass

from . import laws
from .errors import CapacityError, NonIntegralQuantaleError, StructuralError
from .reports import ValidationReport
from .factorization import is_covering
from .vgroup import pair_meets

DEFAULT_WINDOW_RADIUS = 3
# Window scans are cubic in the window and quadratic in the kernel-pair
# carrier.  The battery and the benchmark stay within radius 3 on six
# points: 42 window elements and 294 kernel-pair elements.
WINDOW_ELEMENT_CAP = 48
KERNEL_PAIR_ELEMENT_CAP = 7 * WINDOW_ELEMENT_CAP


class IntegerIndexedCover:
    """Lazy separated cover over a base object (levels are arbitrary ints)."""

    __slots__ = ("base",)

    def __init__(self, base):
        self.base = base

    @property
    def quantale(self):
        return self.base.quantale

    def relation(self, p, q):
        """The piecewise structure value at a pair of (level, point) elements."""
        (z1, x1), (z2, x2) = p, q
        if z1 < z2:
            return self.base.entry(x1, x2)
        if z1 == z2 and x1 == x2:
            return self.quantale.top
        return self.quantale.bottom

    def op(self, p, q):
        return (p[0] + q[0], self.base.group.op(p[1], q[1]))

    def projection(self, p):
        return p[1]

    def section(self, x):
        return (0, x)

    def window_elements(self, radius):
        return [(z, x) for z in range(-radius, radius + 1)
                for x in range(self.base.size)]

    def window_matrix(self, radius):
        """``relation`` on ``window_elements(radius)``.  The row of (z, x)
        repeats one block per level: bottom on each level below z, top at
        x on z itself, and the base row of x on each level above z."""
        q, n = self.quantale, self.base.size
        span = 2 * radius + 1
        rows = []
        for level in range(span):
            for x in range(n):
                lower = [q.bottom] * n
                own = list(lower)
                own[x] = q.top
                higher = list(self.base.structure.entries[x])
                rows.append(lower * level + own + higher * (span - 1 - level))
        return rows

    def kernel_pair_matrix(self, radius, points):
        """The meet structure on the kernel-pair elements (z1, z2, x) for
        levels z1, z2 in -radius..radius and x in ``points``, level-major:
        the entry at ((z1, z2, x), (z1', z2', x')) is the meet of
        ``relation((z1, x), (z1', x'))`` and ``relation((z2, x), (z2', x'))``.

        Each relation value is one of three blocks chosen by the order of
        its two levels, so a row is a concatenation of level blocks taken
        from nine meet blocks per distinct point, each read entry by entry
        from ``Quantale.meet_table``.  A missing meet (None) goes through
        ``Quantale.meet`` at its first entry in row-major order, which
        raises on its two relation values."""
        q = self.quantale
        table, entries = q.meet_table, self.base.structure.entries
        span = 2 * radius + 1
        rows_of, missing = {}, False
        for x in set(points):
            # the relation row of x against every point, for a column level
            # below, equal to and above the row's level
            by_order = ([q.bottom] * len(points),
                        [q.top if y == x else q.bottom for y in points],
                        [entries[x][y] for y in points])
            blocks = [[tuple([table[u][v] for u, v in zip(first, second)])
                       for second in by_order] for first in by_order]
            missing = missing or any(None in block for row in blocks for block in row)
            # inner[c][b]: the levels z2' of one z1' block, where the first
            # relation takes order c and z2 is level b
            inner = [[row[0] * b + row[1] + row[2] * (span - 1 - b) for b in range(span)]
                     for row in blocks]
            rows_of[x] = [inner[0][b] * a + inner[1][b] + inner[2][b] * (span - 1 - a)
                          for a in range(span) for b in range(span)]
        matrix = tuple(rows_of[x][k] for k in range(span * span) for x in points)
        if missing:
            levels = range(-radius, radius + 1)
            carrier = [(z1, z2, x) for z1 in levels for z2 in levels for x in points]
            for (z1, z2, x), row in zip(carrier, matrix):
                if None in row:
                    w1, w2, y = carrier[row.index(None)]
                    q.meet(self.relation((z1, x), (w1, y)), self.relation((z2, x), (w2, y)))
        return matrix


def _guard(what, count, cap):
    if count > cap:
        raise CapacityError(f"a {what} of {count} elements exceeds the cap of {cap}")


def _guard_window(cover, radius):
    """The radius and capacity checks of the window on levels -radius..radius."""
    if radius < 1:
        raise StructuralError("window radius must be at least 1")
    _guard("window", (2 * radius + 1) * cover.base.size, WINDOW_ELEMENT_CAP)


def _named(elements, witness):
    """A scanner's witness as elements, or None."""
    return None if witness is None else tuple(elements[i] for i in witness)


def _scan_laws(report, radius, build, scans):
    """Add to ``report`` the first witness on ``build(radius)`` of each law
    of ``scans``, a dict from law name to scan, in its order.

    A scan reads the data ``build`` materializes at one radius and names
    its witness in it, or returns None.  By the lemma of the module
    docstring a law holds at radius r iff it holds at radius 1, so every
    scan runs on ``build(1)`` first, and only one that finds a violation
    there runs again on ``build(radius)``, which is made only then: every
    witness is the first in radius-r order.  An error at radius 1 (a
    missing meet) hands every scan to radius r, which raises as the full
    scan does.
    """
    failing = list(scans)
    if radius > 1:
        try:
            small = build(1)
            failing = [law for law, scan in scans.items() if scan(small) is not None]
        except StructuralError:
            pass
        if not failing:
            return
    large = build(radius)
    for law in failing:
        witness = scans[law](large)
        if witness is not None:
            report.add(law, witness)


@dataclass(frozen=True)
class CoverProjection:
    """Descriptor of the forgetful projection (level, point) -> point."""
    base_size: int

    def as_dict(self):
        return {"formula": "(z, x) -> x", "section": "x -> (0, x)",
                "base_size": self.base_size}


def descent_cover(g):
    """The lazy cover with its projection descriptor; nothing materialized."""
    if not g.quantale.is_integral:
        raise NonIntegralQuantaleError(
            "the separated cover construction needs unit = top")
    return IntegerIndexedCover(g), CoverProjection(base_size=g.size)


@dataclass
class Window:
    """Materialization of the cover on levels -radius..radius.

    The band is not closed under addition, so this is a structured graph
    for inspection, not an object in its own right.
    """
    cover: IntegerIndexedCover
    radius: int

    def __post_init__(self):
        _guard_window(self.cover, self.radius)
        self.width = self.cover.base.size
        self.elements = self.cover.window_elements(self.radius)
        self.matrix = self.cover.window_matrix(self.radius)

    def index(self, z, x):
        """The position of (z, x) in ``elements``, which are level-major."""
        return (z + self.radius) * self.width + x

    def as_dict(self):
        q = self.cover.quantale
        names = self.cover.base.group.names
        return {
            "radius": self.radius,
            "elements": [[z, names[x]] for (z, x) in self.elements],
            "structure": [[q.label(v) for v in row] for row in self.matrix],
        }


def verify_cover_window(cover, radius):
    """Exhaustive window check of the cover's claimed properties.

    Scans reflexivity, transitivity on in-window triples, invariance
    under right shifts that stay in the window, separation over all
    window pairs, compatibility of the projection, and finality of the
    projection: for every base pair the window join must equal the base
    value and must not grow at radius + 1.

    Each value of the window depends on its two levels only through
    their order, so the structure laws and the projection's
    compatibility hold at ``radius`` iff they hold at radius 1 (the
    module's lemma): they are decided on the radius-1 window, and a law
    that fails there is scanned again at ``radius`` so that its witness
    is the first of the radius-``radius`` window.  Finality folds the
    levels of ``radius`` itself.
    """
    report = ValidationReport(subject=f"cover-window-r{radius}")
    _guard_window(cover, radius)
    base = cover.base
    q = base.quantale
    gop, entries = base.group.op, base.structure.entries
    rel = cover.relation

    def reflexive(window):
        # integral quantale (descent_cover): unit-reflexive means top on the diagonal
        witness = laws.reflexivity(q, window.matrix)
        return None if witness is None else window.elements[witness[0]]

    def shift_invariant(window):
        width, span, r = window.width, 2 * window.radius + 1, window.radius

        def shifted(i, s):
            """The window index of elems[i] + elems[s], or None outside the window."""
            level = i // width + s // width - r
            return level * width + gop(i % width, s % width) if 0 <= level < span else None

        return _named(window.elements, laws.shift_invariance(window.matrix, shifted))

    scans = {
        "window-reflexivity": reflexive,
        "window-transitivity":
            lambda window: _named(window.elements, laws.transitivity(q, window.matrix)),
        "window-shift-invariance": shift_invariant,
        "window-separation":
            lambda window: _named(window.elements, laws.separation(q, window.matrix)),
        "projection-compatibility": lambda window: _named(window.elements, laws.compatibility(
            q, window.matrix, entries, [cover.projection(p) for p in window.elements])),
    }
    _scan_laws(report, radius, lambda r: Window(cover, r), scans)

    finality = []
    folds = {}
    for x1 in range(base.size):
        for x2 in range(base.size):
            # the folded values depend on (x1, x2) through this key alone
            key = (base.entry(x1, x2), x1 == x2)
            if key not in folds:
                folds[key] = tuple(
                    q.join_all(rel((z1, x1), (z2, x2)) for z1 in levels for z2 in levels)
                    for levels in (range(-radius, radius + 1),
                                   range(-radius - 1, radius + 2)))
            window_join, grown_join = folds[key]
            finality.append(window_join)
            if window_join != base.entry(x1, x2):
                report.add("finality-window-join", (x1, x2))
            if grown_join != window_join:
                report.add("finality-join-stability", (x1, x2))

    report.notes["finality_joins"] = [q.label(v) for v in finality]
    report.notes["window_size"] = (2 * radius + 1) * base.size
    return report


def kernel_pair_groupoid(cover, radius):
    """Windowed kernel-pair data of the projection, with its meet structure.

    Carrier: pairs of cover elements over the same base point, encoded
    as (level, level, point).  Verifies that the diagonal embeds the
    cover's structure on the nose and that the meet structure is
    separated on the window.

    An entry at ((z1, z2, x), (z1', z2', x')) depends on the levels only
    through the orders of (z1, z1') and (z2, z2'), so both laws are
    decided on the radius-1 kernel pair, and the radius-``radius``
    matrix is built only to name the first witness of a law that fails
    (the module's lemma).  Both capacity guards are those of
    ``radius``.
    """
    report = ValidationReport(subject=f"kernel-pair-groupoid-r{radius}")
    base = cover.base
    q = base.quantale
    points = range(base.size)
    _guard_window(cover, radius)
    _guard("kernel pair", (2 * radius + 1) ** 2 * base.size, KERNEL_PAIR_ELEMENT_CAP)

    def build(r):
        levels = range(-r, r + 1)
        carrier = [(z1, z2, x) for z1 in levels for z2 in levels for x in points]
        return Window(cover, r), carrier, cover.kernel_pair_matrix(r, points)

    def embedding(data):
        window, carrier, matrix = data
        position = {e: i for i, e in enumerate(carrier)}
        return _named(window.elements, laws.reflection(
            window.matrix, matrix, [position[(z, z, x)] for z, x in window.elements]))

    def separation(data):
        _, carrier, matrix = data
        return _named(carrier, laws.separation(q, matrix))

    _scan_laws(report, radius, build,
               {"diagonal-embedding": embedding, "groupoid-separation": separation})

    report.notes["carrier_size"] = (2 * radius + 1) ** 2 * base.size
    return report


def action_of_covering(alpha, cover, radius):
    """Windowed canonical action induced by pulling a covering back.

    ``alpha`` must be a covering into the cover's base (separated
    kernel).  The action carrier is (levels) x (domain of alpha) with
    the pullback structure; the action map drops the acting pair onto
    its first level.  Verifies the compatibility of the action map on
    all in-window composable pairs and separation of the carrier on the
    window, both decided on the radius-1 window and scanned again at
    ``radius`` only to name a witness (the module's lemma).
    """
    if alpha.cod != cover.base:
        raise StructuralError("the covering must land in the cover's base")
    if not is_covering(alpha):
        raise StructuralError("not a covering: the kernel is not separated")
    report = ValidationReport(subject=f"action-r{radius}")
    _guard_window(cover, radius)
    dom = alpha.dom
    q = cover.quantale
    _guard("carrier of acting arrows", (2 * radius + 1) ** 2 * dom.size,
           KERNEL_PAIR_ELEMENT_CAP)

    def build(r):
        window = Window(cover, r)
        levels = range(-r, r + 1)
        carrier = [(z, a) for z in levels for a in range(dom.size)]
        # each (z, a) as the index pair (window index of (z, alpha a), a)
        matrix = pair_meets(q, window.matrix, dom.structure.entries,
                            [(window.index(z, alpha(a)), a) for z, a in carrier])
        composable = [((z1, z2, alpha(a)), (z2, a))
                      for z1 in levels for z2 in levels for a in range(dom.size)]
        arrows = cover.kernel_pair_matrix(r, [alpha(a) for a in range(dom.size)])
        return carrier, matrix, composable, arrows

    def action_map(data):
        # the action map (z1, z2, x) . (z2, a) -> (z1, a) must be
        # structure-compatible: composable pairs carry the meet of the
        # acting-arrow structure and the carrier structure.  That meet is
        # taken lazily, so the scan stops at its first witness.
        carrier, matrix, composable, arrows = data
        position = {w: i for i, w in enumerate(carrier)}
        places = [position[w] for _, w in composable]
        before = ((q.meet(v, matrix[p1][p2]) for v, p2 in zip(row, places))
                  for row, p1 in zip(arrows, places))
        witness = laws.compatibility(q, before, matrix,
                                     [position[(arrow[0], w[1])] for arrow, w in composable])
        # named (arrow1, w1, arrow2, w2)
        return None if witness is None else composable[witness[0]] + composable[witness[1]]

    def separation(data):
        carrier, matrix, _, _ = data
        return _named(carrier, laws.separation(q, matrix))

    _scan_laws(report, radius, build,
               {"action-map-compatibility": action_map, "carrier-separation": separation})

    report.notes["carrier_size"] = (2 * radius + 1) * dom.size
    return report
