"""Each rewritten construction and scan against a copy of the code it
replaced, on random lawful and lawless inputs: the quantale's join, meet
and annihilation tables, the group law checks of ``FiniteGroup`` and
``validate_quantale`` (whose associativity scans are now
``laws.associativity``) and the document entry reader.  The reference
copies below are the replaced code, kept here only."""

import json
from itertools import permutations, product as iproduct

from hypothesis import example, given, settings, strategies as st

from vgroups import FiniteGroup, Quantale, VGroup, VHom, VRel, laws
from vgroups.document import (_accepts, _integral, _resolve_rows, document_text,
                              parse_document)
from vgroups.errors import StructuralError
from vgroups.quantale import (boolean, builtin_quantale, lawvere_chain,
                              ultrametric_chain, validate_quantale)
from vgroups.reports import ValidationReport


# -- the replaced code ---------------------------------------------------------

def reference_bound(leq, u, v, upper):
    """Least upper (or greatest lower) bound of {u, v}, or None if absent."""
    n = len(leq)
    if upper:
        candidates = [w for w in range(n) if leq[u][w] and leq[v][w]]
        best = [w for w in candidates if all(leq[w][c] for c in candidates)]
    else:
        candidates = [w for w in range(n) if leq[w][u] and leq[w][v]]
        best = [w for w in candidates if all(leq[c][w] for c in candidates)]
    if len(best) == 1:
        return best[0]
    return None


def reference_tables(leq, tensor):
    n = len(leq)
    join = tuple(tuple(reference_bound(leq, u, v, upper=True) for v in range(n))
                 for u in range(n))
    meet = tuple(tuple(reference_bound(leq, u, v, upper=False) for v in range(n))
                 for u in range(n))
    annihilating = tuple(all(leq[t][w] for t in set(row) for w in range(n))
                         for row in tensor)
    return join, meet, annihilating


def reference_group_verdict(table, names=None):
    """The old ``FiniteGroup.__init__`` checks: the error message, or the
    identity and the inverses."""
    try:
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
        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if table[table[x][y]][z] != table[x][table[y][z]]:
                        raise StructuralError(
                            f"Cayley table not associative at "
                            f"({names[x]}, {names[y]}, {names[z]})")
    except StructuralError as exc:
        return str(exc)
    return identity, tuple(inverse)


def reference_validate_quantale(q):
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
    first("tensor-associative",
          ((u, v, w) for u in rng for v in rng for w in rng
           if ten[ten[u][v]][w] != ten[u][ten[v][w]]))
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


def reference_resolve(value, labels, what):
    if isinstance(value, bool):
        raise StructuralError(f"{what} entry must be a label or index, not a boolean")
    value = _integral(value)
    if isinstance(value, int):
        if not 0 <= value < len(labels):
            raise StructuralError(f"{what} index out of range: {value}")
        return value
    try:
        return labels.index(str(value))
    except ValueError:
        raise StructuralError(f"unknown {what} label: {value!r}") from None


def reference_parse(data):
    """The old ``parse_document`` on a document the schema accepts and
    whose targets are inline."""
    spec = data["quantale"]
    if "builtin" in spec:
        quantale = builtin_quantale(spec["builtin"], _integral(spec.get("m")))
    else:
        labels = [str(x) for x in spec["elements"]]
        tensor = [[reference_resolve(v, labels, "quantale") for v in row]
                  for row in spec["tensor"]]
        quantale = Quantale(labels=labels, leq=spec["leq"], tensor=tensor,
                            unit=reference_resolve(spec["unit"], labels, "quantale"),
                            bottom=reference_resolve(spec["bottom"], labels, "quantale"),
                            top=reference_resolve(spec["top"], labels, "quantale"))

    def parse_object(group_spec, structure_spec):
        names = [str(x) for x in group_spec["elements"]]
        table = [[reference_resolve(v, names, "group") for v in row]
                 for row in group_spec["table"]]
        group = FiniteGroup(table, names=names)
        labels = list(quantale.labels)
        if len(structure_spec) != group.size or \
                any(len(row) != group.size for row in structure_spec):
            raise StructuralError("structure matrix must be square, one row per element")
        entries = [[reference_resolve(v, labels, "quantale") for v in row]
                   for row in structure_spec]
        return VGroup(group, quantale, VRel(quantale, entries))

    vg = parse_object(data["group"], data["structure"])
    morphisms = []
    for spec in data.get("morphisms", ()):
        if any(hom.name == spec["name"] for hom in morphisms):
            raise StructuralError(f"morphism {spec['name']!r} is named twice")
        cod = parse_object(spec["target"]["group"], spec["target"]["structure"])
        mapping = [reference_resolve(v, list(cod.group.names), "group")
                   for v in spec["map"]]
        if len(mapping) != vg.size:
            raise StructuralError(
                f"morphism {spec['name']!r}: map must list one target element "
                "per source element")
        morphisms.append(VHom(vg, cod, mapping, name=spec["name"]))


def outcome(build, *args):
    """``build(*args)``, or the message of the StructuralError it raises."""
    try:
        return build(*args)
    except StructuralError as exc:
        return ("error", str(exc))


# -- inputs --------------------------------------------------------------------

@st.composite
def order_tables(draw, low=2, high=6):
    """A random boolean matrix, or a random partial order (a chain when
    every comparison is kept), with at most one entry flipped."""
    n = draw(st.integers(low, high))
    if draw(st.booleans()):
        leq = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    else:
        rank = draw(st.permutations(range(n)))
        keep = draw(st.floats(0.3, 1.0))
        leq = [[u == v or (rank[u] < rank[v] and draw(st.floats(0, 1)) < keep)
                for v in range(n)] for u in range(n)]
        for k, u, v in iproduct(range(n), repeat=3):
            leq[u][v] = leq[u][v] or (leq[u][k] and leq[k][v])
    if draw(st.booleans()):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        leq[u][v] = not leq[u][v]
    return leq


def _diamond():
    """The four-element Boolean algebra {bot, a, b, top} with tensor = meet."""
    leq = [[u == v or u == 0 or v == 3 for v in range(4)] for u in range(4)]
    tensor = [[u if u == v else (v if u == 3 else (u if v == 3 else 0))
               for v in range(4)] for u in range(4)]
    return Quantale(["bot", "a", "b", "top"], leq, tensor, unit=3, bottom=0, top=3)


SEEDS = (boolean(), lawvere_chain(2), lawvere_chain(3), ultrametric_chain(3), _diamond())


@st.composite
def quantales(draw):
    """A lawful quantale with a few of its order and tensor entries and its
    constants changed, or random tables on a random order."""
    if draw(st.booleans()):
        seed = draw(st.sampled_from(SEEDS))
        n = seed.size
        leq = [list(row) for row in seed.leq_table]
        tensor = [list(row) for row in seed.tensor_table]
        unit, bottom, top = seed.unit, seed.bottom, seed.top
        for _ in range(draw(st.integers(0, 3))):
            u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            if draw(st.booleans()):
                leq[u][v] = not leq[u][v]
            else:
                tensor[u][v] = draw(st.integers(0, n - 1))
        if draw(st.integers(0, 3)) == 0:
            unit, bottom, top = (draw(st.integers(0, n - 1)) for _ in range(3))
    else:
        leq = draw(order_tables(high=5))
        n = len(leq)
        tensor = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        unit, bottom, top = (draw(st.integers(0, n - 1)) for _ in range(3))
    return Quantale([f"e{i}" for i in range(n)], leq, tensor, unit, bottom, top)


def _group_tables():
    z = [FiniteGroup.cyclic(n).table for n in range(1, 6)]
    klein = FiniteGroup.direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(2)).table
    return z + [klein]


GROUP_TABLES = _group_tables()


@st.composite
def cayley_tables(draw):
    """A group relabelled, a Latin square (a group with its rows, columns
    and values permuted apart), a loop (such a square reordered so that
    one element is an identity), random entries around an identity row
    and column with the other elements paired off as inverses, or random
    entries; on 1 to 5 elements."""
    kind = draw(st.sampled_from(("group", "latin", "loop", "identity", "random")))
    if kind == "random" or kind == "identity":
        n = draw(st.integers(1, 5))
        table = [[draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
        if kind == "identity":
            # an identity e, and the others paired off as inverses
            order = draw(st.permutations(range(n)))
            e, rest = order[0], order[1:]
            for x in range(n):
                table[e][x] = table[x][e] = x
            for a, b in zip(rest[::2], rest[1::2] + rest[-1:]):
                table[a][b] = table[b][a] = e
        return table
    base = draw(st.sampled_from(GROUP_TABLES))
    n = len(base)
    rows, cols, values = (draw(st.permutations(range(n))) for _ in range(3))
    if kind == "group":
        cols = rows
        inverse = {v: k for k, v in enumerate(rows)}
        values = [rows[k] for k in range(n)]
        return [[values[base[inverse[x]][inverse[y]]] for y in range(n)]
                for x in range(n)]
    latin = [[values[base[rows[x]][cols[y]]] for y in range(n)] for x in range(n)]
    if kind == "latin":
        return latin
    # x . y is the entry in the row that starts with x and the column
    # that row 0 holds y in, so latin[0][0] is an identity
    row_of = {row[0]: r for r, row in enumerate(latin)}
    column_of = {v: c for c, v in enumerate(latin[0])}
    return [[latin[row_of[x]][column_of[y]] for y in range(n)] for x in range(n)]


# -- the differential tests ---------------------------------------------------

@settings(max_examples=400, deadline=None)
@given(order_tables(), st.data())
def test_bound_tables_match_the_pairwise_scan(leq, data):
    n = len(leq)
    tensor = [[data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)]
    q = Quantale([str(i) for i in range(n)], leq, tensor, unit=0, bottom=0, top=n - 1)
    assert (q.join_table, q.meet_table, q.annihilating) == \
        reference_tables(q.leq_table, q.tensor_table)


def test_bound_tables_and_validation_match_on_every_order_of_three_elements():
    for bits in range(1 << 9):
        leq = [[bool(bits >> (3 * u + v) & 1) for v in range(3)] for u in range(3)]
        for tensor in ([[0] * 3] * 3, [[min(u, v) for v in range(3)] for u in range(3)]):
            q = Quantale(["0", "1", "2"], leq, tensor, unit=0, bottom=0, top=2)
            assert (q.join_table, q.meet_table, q.annihilating) == \
                reference_tables(q.leq_table, q.tensor_table)
            assert validate_quantale(q).as_dict() == \
                reference_validate_quantale(q).as_dict()


@settings(max_examples=500, deadline=None)
@given(cayley_tables(), st.booleans())
def test_group_checks_match_the_entrywise_scans(table, named):
    names = [f"g{i}" for i in range(len(table))] if named else None

    def verdict():
        g = FiniteGroup(table, names)
        return g.identity, g.inverse

    got = outcome(verdict)
    want = reference_group_verdict(table, names)
    assert got == (want if isinstance(want, tuple) else ("error", want))


def test_group_checks_match_on_every_table_of_three_elements():
    for entries in iproduct(range(3), repeat=9):
        table = [entries[3 * x:3 * x + 3] for x in range(3)]
        got = outcome(lambda: (lambda g: (g.identity, g.inverse))(FiniteGroup(table)))
        want = reference_group_verdict(table)
        assert got == (want if isinstance(want, tuple) else ("error", want))


def test_associativity_finds_the_first_witness_on_every_latin_square_of_four():
    for rows in permutations(range(4)):
        for values in permutations(range(4)):
            table = tuple(tuple(values[(rows[x] + y) % 4] for y in range(4))
                          for x in range(4))
            want = next(((x, y, z) for x, y, z in iproduct(range(4), repeat=3)
                         if table[table[x][y]][z] != table[x][table[y][z]]), None)
            assert laws.associativity(table) == want
            assert laws.associativity([list(row) for row in table]) == want


@settings(max_examples=400, deadline=None)
@given(quantales())
def test_validate_quantale_matches_the_entrywise_scans(q):
    assert validate_quantale(q).as_dict() == reference_validate_quantale(q).as_dict()


def test_a_frame_witness_with_both_sides_missing():
    """On this order, u ^ (v v w) and (u ^ v) v (u ^ w) are both missing
    at the first witness (3, 2, 3), which the frame law counts as a
    failure."""
    leq = [[1, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 0], [0, 1, 0, 1]]
    q = Quantale(["0", "1", "2", "3"], leq, [[0] * 4] * 4, unit=0, bottom=0, top=3)
    report = validate_quantale(q).as_dict()
    assert report == reference_validate_quantale(q).as_dict()
    assert {"law": "frame-meets-distribute-over-joins",
            "witness": ["3", "2", "3"]} in report["violations"]


def test_validate_quantale_matches_on_the_lawful_seeds():
    for q in SEEDS + (ultrametric_chain(5), lawvere_chain(7)):
        assert validate_quantale(q).as_dict() == reference_validate_quantale(q).as_dict()


ENTRY_VALUES = st.one_of(
    st.booleans(), st.integers(-2, 6), st.sampled_from([0.0, 1.0, 2.0, 9.0, 1.5]),
    st.sampled_from(["0", "1", "2", "3", "bot", "top", "nope", "1.0"]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(ENTRY_VALUES, min_size=1, max_size=4), min_size=1, max_size=4),
       st.sampled_from([["0", "1", "2", "3"], ["bot", "top"], ["0", "1", "0"]]))
@example([["1", "0"]], ["0", "1", "0"])
@example([["0", 2.0], ["1", True]], ["0", "1", "2"])
@example([["0", "top"], [-1, "bot"]], ["bot", "top"])
@example([[1.0, "nope"]], ["bot", "top"])
def test_entry_reader_matches_the_entrywise_reader(rows, labels):
    got = outcome(_resolve_rows, rows, labels, "group")
    want = outcome(lambda: [[reference_resolve(v, labels, "group") for v in row]
                            for row in rows])
    assert got == want


def _explicit_document():
    """Z4 over the three-element Lawvere chain, its quantale as explicit
    tables, with a morphism onto Z2 given inline."""
    q = lawvere_chain(2)
    labels = list(q.labels)
    return {"quantale": {"elements": labels,
                         "leq": [list(row) for row in q.leq_table],
                         "tensor": [[labels[v] for v in row] for row in q.tensor_table],
                         "unit": "0", "bottom": "2", "top": "0"},
            "group": {"elements": ["0", "1", "2", "3"],
                      "table": [[str((x + y) % 4) for y in range(4)] for x in range(4)]},
            "structure": [["0", "2", "1", "2"], ["2", "0", "2", "1"],
                          ["1", "2", "0", "2"], ["2", "1", "2", "0"]],
            "morphisms": [{"name": "f",
                           "target": {"group": {"elements": ["0", "1"],
                                                "table": [["0", "1"], ["1", "0"]]},
                                      "structure": [["0", "1"], ["1", "0"]]},
                           "map": ["0", "1", "0", "1"]}]}


def _entry_slots(doc):
    """(container, key) for every entry the reader resolves."""
    q = doc["quantale"]
    slots = [(q, "unit"), (q, "bottom"), (q, "top")]
    matrices = [q["tensor"], doc["group"]["table"], doc["structure"]]
    for hom in doc["morphisms"]:
        matrices += [hom["target"]["group"]["table"], hom["target"]["structure"]]
        slots += [(hom["map"], i) for i in range(len(hom["map"]))]
    for matrix in matrices:
        slots += [(row, i) for row in matrix for i in range(len(row))]
    return slots


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_document_matches_the_entrywise_reader(data):
    doc = _explicit_document()
    slots = _entry_slots(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        container, key = data.draw(st.sampled_from(slots))
        container[key] = data.draw(ENTRY_VALUES)
    doc = json.loads(json.dumps(doc))
    got = outcome(lambda: document_text(parse_document(doc)))
    if not _accepts(doc):
        assert got[1].startswith("document does not match the schema")
        return
    want = outcome(reference_parse, doc)
    if want is None:
        assert isinstance(got, str)
    else:
        assert got == want
