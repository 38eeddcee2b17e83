"""The integer-indexed separated cover of a structured group, evaluated
lazily, with window-bounded verification.

For a base object the cover lives on (all integers) x (base carrier)
with componentwise addition and the piecewise structure

    level(z) < level(z')          -> base value at (x, x')
    same level, same point        -> top
    otherwise                     -> bottom

The carrier is genuinely infinite, so nothing is ever materialized
globally: every check runs on the finite window of levels -1..1, which
decides it at every radius (the lemma below), and the one global
identity that matters (finality of the projection) has a finite
witness, the pair of levels 0 and 1, whose join already realizes the
base value.  Window checks are expected to pass; a failure is a violated
law in the report, with its witness.

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
entry by entry.  The kernel pair is a pullback: its entry at
((z1, z2, x), (z1', z2', x')) is the meet of the window values at
((z1, x), (z1', x')) and ((z2, x), (z2', x')), which ``vgroup.pair_meets``,
the builder of every pullback's meet structure, reads off the window
matrix.  The finality check folds the levels once per distinct (base
value, same point) pair, on which alone the folded values depend.  What
the scans read that depends on the base group alone, the radius-1
window's right shifts by level -1 (``window_shifts``) and the kernel
pair's carrier, window index pairs and diagonal positions
(``kernel_pair_index``), is built once per group and read through
``FiniteGroup.derived``, so a suite's objects on one group share it.
The radius-1 window itself is built once per cover and kept on it
(``IntegerIndexedCover.window``), for the window scans, the kernel pair
and a covering's action alike.

The lemma behind the window scans: a window value at ((z, x), (z', y))
depends on the two levels only through their order (<, = or >), and a
kernel-pair or action entry only through the orders of (z1, z1') and
(z2, z2').  Every scanned law reads at most three levels per coordinate
(reflexivity one; separation, compatibility, the diagonal embedding and
the action map two; transitivity three), and a right shift keeps the
order of the two levels it moves.  The levels -1..1 realize every order
pattern of three levels, and the radius-1 window is a sub-window of the
radius-r window with the same entries, so each law holds at radius r
iff it holds at radius 1, for any tables, lawful or not.  The checks
therefore build and scan radius-1 data only, at every radius: a witness
found there is a witness at radius r too, with the same entries.  The
radius names a report's subject and sizes its notes and the window's
capacity guard, and the descent command prints the window of that
radius.  Finality folds the levels -1..1 as well: with a lawful join, a
fold over the levels of any radius r >= 1 joins the same three values
(the base value, the diagonal value and bottom), each at least once, so
it does not move with r.

Each law is scanned on the fewest levels it reads.  Transitivity reads
three and scans the whole radius-1 window.  Every other law reads at
most two, so it is scanned on the levels -1 and 0 (``PAIR_LEVELS``):
reflexivity on the window's first n rows; window separation, projection
compatibility and the diagonal embedding on the window's 2n x 2n
prefix, the elements on those levels; the kernel pair on its 4n
elements (z1, z2, x) over them; the action map and carrier separation
on the 2m elements (z, a) of the action carrier and its 4m composable
pairs; and shift invariance on the n right shifts by level -1.  Each
scan still returns the first witness of the scan over the full
radius-1 data, and a missing meet raises on the same entry, for any
tables, lawful or not:

- The two-level data is the part of the three-level data on the levels
  -1 and 0, with the same entries and in the same order, since every
  scan walks its witnesses in lexicographic order of their (level, ...,
  point) tuples.  So each witness of a two-level scan is a witness of
  the three-level scan.
- Map each level pair (z, z') of a witness to the lexicographically
  least pair with the same order: = to (-1, -1), < to (-1, 0) and > to
  (0, -1).  No level goes up under this map, and no entry the law reads
  changes, so a witness on the three levels has an equal witness at or
  before it in scan order on the two.  A separation witness keeps its
  two elements distinct (two elements over one point differ in a level
  pair, whose order is then < or >), and the law is symmetric, so the
  two can be put back in scan order.  Hence the first witness of the
  two-level scan is that of the three-level scan.  A missing meet
  depends on its two values alone, so the first one is found alike.
- A right shift by (z, t) moves a pair of levels to a pair with the
  same order, so a shift witness depends on that order, its two points
  and t alone.  The shift by (-1, t) moves the levels 0 and 1 onto -1
  and 0 and so realizes every order, and the shifts by level -1 come
  first in ``window_shifts`` order.  The three-level scan therefore
  finds its first witness among them, as the scan of those n shifts
  does.
"""

from dataclasses import dataclass
from functools import cached_property

from . import laws
from .errors import CapacityError, NonIntegralQuantaleError, StructuralError
from .reports import ValidationReport
from .factorization import is_covering
from .vgroup import pair_meets

DEFAULT_WINDOW_RADIUS = 3
# The levels of the radius-1 window, on which every law is scanned
# whatever the radius (the module's lemma), and the two of them on which
# every law but transitivity is scanned.  So the scans do not grow with
# the radius: transitivity is cubic in the 3n window elements of an
# n-point base, and the kernel pair's scans are quadratic in its 4n
# elements.  The radius sizes only the window that the descent command
# prints, capped at 48 elements (radius 3 on six points is 42).  The cap
# on the acting arrows of a covering's action counts the radius-1 ones,
# nine per element of its domain, though only the four on PAIR_LEVELS
# are built.
LEVELS = range(-1, 2)
PAIR_LEVELS = range(-1, 1)
WINDOW_ELEMENT_CAP = 48
ACTING_ARROW_CAP = 7 * WINDOW_ELEMENT_CAP


class IntegerIndexedCover:
    """Lazy separated cover over a base object (levels are arbitrary ints)."""

    def __init__(self, base):
        self.base = base

    @cached_property
    def window(self):
        """The radius-1 ``Window``, on which every law is scanned (the
        module's lemma); built on the first read and kept.  It stands on a
        cover of its own over the same base, so that the two form no cycle
        and reference counting frees them, not the cyclic collector."""
        return Window(IntegerIndexedCover(self.base), 1)

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

    def level_blocks(self, x, points):
        """The three blocks of ``relation`` from (z, x) to the (z', y), y in
        ``points``, by the order of z': bottom for z' below z, top at x
        only for z' = z, and the base row of x for z' above z."""
        q, row = self.quantale, self.base.structure.entries[x]
        return ([q.bottom] * len(points),
                [q.top if y == x else q.bottom for y in points],
                [row[y] for y in points])

    def window_matrix(self, radius):
        """``relation`` on ``window_elements(radius)``: the row of (z, x)
        repeats each of the level blocks of x on its levels."""
        points = range(self.base.size)
        blocks = [self.level_blocks(x, points) for x in points]
        span = 2 * radius + 1
        return [lower * level + own + higher * (span - 1 - level)
                for level in range(span) for lower, own, higher in blocks]


def _window_index(z, x, width):
    """The position of (z, x) in the level-major radius-1 window of
    ``width`` points, as ``Window.index`` gives it."""
    return (z + 1) * width + x


def window_shifts(group):
    """The right shifts of the radius-1 window over ``group`` by level -1,
    the first n in (level, point) order, which decide the law (the
    module's lemma), as ``laws.shift_invariance`` reads them: entry t
    holds the window index pairs (i, i + (-1, t)), in i order, for the i
    on the levels 0 and 1.  The sums are read off the Cayley table; the
    table depends on the group alone, so it is read through
    ``group.derived(window_shifts)``, built once per group."""
    width, table = group.size, group.table
    return tuple([tuple([(_window_index(z, x, width), _window_index(z - 1, row[t], width))
                         for z in LEVELS[1:] for x, row in enumerate(table)])
                  for t in range(width)])


def kernel_pair_index(group):
    """The index data over ``group`` of the kernel pair on ``PAIR_LEVELS``:
    its carrier (z1, z2, x), level-major; each element as the pair of
    radius-1 window indices ((z1, x), (z2, x)) whose values it meets; and
    the carrier position of the diagonal (z, z, x) of each window element
    (z, x) on those levels.  None of it reads a structure, so it is read
    through ``group.derived(kernel_pair_index)``, built once per group."""
    points = range(group.size)
    carrier = tuple([(z1, z2, x) for z1 in PAIR_LEVELS for z2 in PAIR_LEVELS
                     for x in points])
    pairs = tuple([(_window_index(z1, x, group.size), _window_index(z2, x, group.size))
                   for z1, z2, x in carrier])
    position = {e: i for i, e in enumerate(carrier)}
    diagonal = tuple([position[(z, z, x)] for z in PAIR_LEVELS for x in points])
    return carrier, pairs, diagonal


def _pair_prefix(window):
    """The radius-1 ``window``'s matrix on its leading 2n elements, those
    on ``PAIR_LEVELS``."""
    n = len(PAIR_LEVELS) * window.width
    return [row[:n] for row in window.matrix[:n]]


def _guard(what, count, cap):
    if count > cap:
        raise CapacityError(f"a {what} of {count} elements exceeds the cap of {cap}")


def _guard_window(cover, radius):
    """The radius and capacity checks of the window on levels -radius..radius."""
    if radius < 1:
        raise StructuralError("window radius must be at least 1")
    _guard("window", (2 * radius + 1) * cover.base.size, WINDOW_ELEMENT_CAP)


def _add(report, law, elements, witness):
    """Add a scanner's witness, if any, to ``report`` as elements."""
    if witness is not None:
        report.add(law, (elements[i] for i in witness))


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
    value.

    By the module's lemma each law holds at ``radius`` iff it holds at
    radius 1, so every law is scanned and folded on the radius-1 window
    alone, transitivity on all of it and the other scans on the levels
    they read; a witness found there is a witness at ``radius`` too.
    ``radius`` names the subject and sizes the window's note and its
    capacity guard.

    The window's diagonal is top and the quantale is integral (unit =
    top), so ``window-reflexivity`` fires on one kind of input only: a
    lawless quantale, which only the Python API accepts, whose order does
    not put top above itself.  The scan stays, so that such an input is
    named rather than passed.
    """
    report = ValidationReport(subject=f"cover-window-r{radius}")
    _guard_window(cover, radius)
    base = cover.base
    q = base.quantale
    window = cover.window
    elements, matrix, prefix = window.elements, window.matrix, _pair_prefix(window)

    # integral quantale (descent_cover): unit-reflexive means top on the diagonal
    witness = laws.reflexivity(q, matrix[:base.size])
    if witness is not None:
        report.add("window-reflexivity", elements[witness[0]])

    _add(report, "window-transitivity", elements, laws.transitivity(q, matrix))
    _add(report, "window-shift-invariance", elements, laws.shift_invariance(
        matrix, base.group.derived(window_shifts)))
    _add(report, "window-separation", elements, laws.separation(q, prefix))
    _add(report, "projection-compatibility", elements, laws.compatibility(
        q, prefix, base.structure.entries, [cover.projection(p) for p in elements]))

    join = q.join_table

    def fold(value, same):
        """The join from bottom of ``relation((z1, x1), (z2, x2))`` over
        (z1, z2) in ``LEVELS`` squared, in that order, for points x1, x2
        with base value ``value``, equal iff ``same``.  With a lawful join
        this is the join of the value, the diagonal value and bottom, which
        a fold over the levels of any radius r >= 1 joins as well."""
        acc, diagonal = q.bottom, q.top if same else q.bottom
        for z1 in LEVELS:
            for z2 in LEVELS:
                t = value if z1 < z2 else diagonal if z1 == z2 else q.bottom
                acc = j if (j := join[acc][t]) is not None else q.join(acc, t)
        return acc

    finality = []
    folds = {}
    for x1 in range(base.size):
        for x2 in range(base.size):
            value = base.entry(x1, x2)
            # the folded value depends on (x1, x2) through this key alone
            key = (value, x1 == x2)
            if key not in folds:
                folds[key] = fold(*key)
            finality.append(folds[key])
            if folds[key] != value:
                report.add("finality-window-join", (x1, x2))

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
    through the orders of (z1, z1') and (z2, z2'), and each law reads two
    levels per coordinate, so both are scanned on the kernel pair over
    ``PAIR_LEVELS`` alone (the module's lemma), whose 4n elements fit in
    any window the guard of ``radius`` lets through.  ``radius`` names
    the subject and sizes the carrier's note.
    """
    report = ValidationReport(subject=f"kernel-pair-groupoid-r{radius}")
    _guard_window(cover, radius)
    base = cover.base
    window = cover.window
    carrier, pairs, diagonal = base.group.derived(kernel_pair_index)
    matrix = pair_meets(base.quantale, window.matrix, window.matrix, pairs)
    _add(report, "diagonal-embedding", window.elements,
         laws.reflection(_pair_prefix(window), matrix, diagonal))
    _add(report, "groupoid-separation", carrier, laws.separation(base.quantale, matrix))
    report.notes["carrier_size"] = (2 * radius + 1) ** 2 * base.size
    return report


def action_of_covering(alpha, cover, radius):
    """Windowed canonical action induced by pulling a covering back.

    ``alpha`` must be a covering into the cover's base (separated
    kernel).  The action carrier is (levels) x (domain of alpha) with
    the pullback structure; the action map drops the acting pair onto
    its first level.  Verifies the compatibility of the action map on
    all in-window composable pairs and separation of the carrier on the
    window, both scanned on ``PAIR_LEVELS`` alone, the two levels per
    coordinate that each reads (the module's lemma).  ``radius`` names
    the subject and sizes the carrier's note and the window's capacity
    guard.
    """
    if alpha.cod != cover.base:
        raise StructuralError("the covering must land in the cover's base")
    if not is_covering(alpha):
        raise StructuralError("not a covering: the kernel is not separated")
    report = ValidationReport(subject=f"action-r{radius}")
    _guard_window(cover, radius)
    dom = alpha.dom
    q = cover.quantale
    # counts the acting arrows on the radius-1 levels; the four per element
    # of dom on PAIR_LEVELS are built
    _guard("carrier of acting arrows", len(LEVELS) ** 2 * dom.size, ACTING_ARROW_CAP)

    window = cover.window
    carrier = [(z, a) for z in PAIR_LEVELS for a in range(dom.size)]
    # each (z, a) as the index pair (window index of (z, alpha a), a)
    matrix = pair_meets(q, window.matrix, dom.structure.entries,
                        [(window.index(z, alpha(a)), a) for z, a in carrier])
    composable = [((z1, z2, alpha(a)), (z2, a))
                  for z1 in PAIR_LEVELS for z2 in PAIR_LEVELS for a in range(dom.size)]
    arrows = pair_meets(q, window.matrix, window.matrix,
                        [(window.index(z1, x), window.index(z2, x))
                         for (z1, z2, x), _ in composable])

    # the action map (z1, z2, x) . (z2, a) -> (z1, a) must be
    # structure-compatible: composable pairs carry the meet of the
    # acting-arrow structure and the carrier structure.  That meet is
    # taken lazily, so the scan stops at its first witness.
    position = {w: i for i, w in enumerate(carrier)}
    places = [position[w] for _, w in composable]
    before = ((q.meet(v, matrix[p1][p2]) for v, p2 in zip(row, places))
              for row, p1 in zip(arrows, places))
    witness = laws.compatibility(q, before, matrix,
                                 [position[(arrow[0], w[1])] for arrow, w in composable])
    if witness is not None:
        # named (arrow1, w1, arrow2, w2)
        report.add("action-map-compatibility",
                   composable[witness[0]] + composable[witness[1]])
    _add(report, "carrier-separation", carrier, laws.separation(q, matrix))

    report.notes["carrier_size"] = (2 * radius + 1) * dom.size
    return report
