import itertools

import pytest
from hypothesis import given, settings, strategies as st

from vgroups import Quantale, StructuralError, VRel, boolean, lawvere_chain
from vgroups.builders import standard_suite


def all_rels(q, n, m):
    for flat in itertools.product(range(q.size), repeat=n * m):
        yield VRel(q, [flat[i * m:(i + 1) * m] for i in range(n)])


def bool_matmul(r, s):
    """Independent oracle over the boolean quantale: or-of-ands."""
    n, k, m = r.src_size, r.dst_size, s.dst_size
    return [[int(any(r.entry(x, y) and s.entry(y, z) for y in range(k)))
             for z in range(m)] for x in range(n)]


class TestBasics:
    def test_identity_shape(self, bool_q, law2):
        assert VRel.identity(bool_q, 2).entries == ((1, 0), (0, 1))
        assert VRel.identity(law2, 2).entries == ((0, 2), (2, 0))
        assert VRel.identity(bool_q, 1).entries == ((1,),)

    def test_identity_laws(self, law2):
        for r in itertools.islice(all_rels(law2, 2, 3), 50):
            assert VRel.identity(law2, 2).then(r) == r
            assert r.then(VRel.identity(law2, 3)) == r

    def test_boolean_composition_is_matrix_product(self, bool_q):
        for r in all_rels(bool_q, 2, 2):
            for s in all_rels(bool_q, 2, 2):
                got = r.then(s)
                assert [list(row) for row in got.entries] == bool_matmul(r, s)

    def test_single_term_join(self, law2):
        # one inner element: the composite entry is a bare tensor
        r = VRel(law2, [[1]])
        s = VRel(law2, [[1]])
        assert r.then(s).entry(0, 0) == 2

    def test_join_order_independent(self, law2):
        # folding the inner carrier in any order gives the same composite
        def compose_permuted(r, s, order):
            q = r.quantale
            return [[q.join_all(q.tensor(r.entry(x, y), s.entry(y, z))
                                for y in order)
                     for z in range(s.dst_size)] for x in range(r.src_size)]
        import itertools as it
        for r in it.islice(all_rels(law2, 2, 3), 30):
            for s in it.islice(all_rels(law2, 3, 2), 10):
                reference = [list(row) for row in r.then(s).entries]
                for order in it.permutations(range(3)):
                    assert compose_permuted(r, s, order) == reference

    def test_shape_mismatch(self, bool_q):
        r = VRel(bool_q, [[0, 1]])
        with pytest.raises(StructuralError):
            r.then(r)

    def test_quantale_mismatch(self, bool_q, law2):
        r = VRel(bool_q, [[0]])
        s = VRel(law2, [[0]])
        with pytest.raises(StructuralError):
            r.then(s)

    def test_ragged_rejected(self, bool_q):
        with pytest.raises(StructuralError):
            VRel(bool_q, [[0, 1], [0]])

    def test_entry_out_of_range(self, bool_q):
        with pytest.raises(StructuralError):
            VRel(bool_q, [[0, 3]])


class TestConverseMeetOrder:
    def test_converse_of_identity(self, law2):
        ident = VRel.identity(law2, 3)
        assert ident.converse() == ident

    def test_converse_involution(self, law2):
        for r in itertools.islice(all_rels(law2, 2, 3), 80):
            assert r.converse().converse() == r

    def test_converse_antihomomorphism(self, bool_q):
        for r in all_rels(bool_q, 2, 2):
            for s in itertools.islice(all_rels(bool_q, 2, 2), 16):
                lhs = r.then(s).converse()
                rhs = s.converse().then(r.converse())
                assert lhs == rhs

    def test_meet_idempotent(self, law2):
        for r in itertools.islice(all_rels(law2, 2, 2), 81):
            assert r.meet(r) == r

    def test_composition_monotone(self, bool_q):
        rels = list(all_rels(bool_q, 2, 2))
        for r, r2 in itertools.product(rels, repeat=2):
            if not r.leq(r2):
                continue
            for s in rels[:8]:
                assert r.then(s).leq(r2.then(s))
                assert s.then(r).leq(s.then(r2))


class TestFunctionEmbedding:
    def test_constant_map_columns(self, bool_q):
        r = VRel.from_function(bool_q, [0, 0], 2)
        assert r.entries == ((1, 0), (1, 0))

    def test_embedding_respects_composition(self, law2):
        for f in itertools.product(range(3), repeat=2):
            for g in itertools.product(range(2), repeat=3):
                rf = VRel.from_function(law2, f, 3)
                rg = VRel.from_function(law2, g, 2)
                composed = [g[f[x]] for x in range(2)]
                assert rf.then(rg) == VRel.from_function(law2, composed, 2)

    def test_value_out_of_range(self, bool_q):
        with pytest.raises(StructuralError):
            VRel.from_function(bool_q, [5], 2)


@st.composite
def rel_triple(draw):
    q = draw(st.sampled_from([boolean(), lawvere_chain(2)]))
    sizes = draw(st.tuples(*[st.integers(1, 3)] * 4))
    n1, n2, n3, n4 = sizes
    def rel(n, m):
        rows = draw(st.lists(
            st.lists(st.integers(0, q.size - 1), min_size=m, max_size=m),
            min_size=n, max_size=n))
        return VRel(q, rows)
    return rel(n1, n2), rel(n2, n3), rel(n3, n4)


@settings(max_examples=150, deadline=None)
@given(rel_triple())
def test_composition_associative(triple):
    r, s, t = triple
    assert r.then(s).then(t) == r.then(s.then(t))


def reference_then(r, s):
    """The composite by the loop ``VRel.then`` ran before it read the
    quantale's tables: one ``Quantale.join`` and one ``Quantale.tensor``
    call per inner entry."""
    q = r.quantale
    rows = []
    for x in range(r.src_size):
        srow = r.entries[x]
        row = []
        for z in range(s.dst_size):
            acc = q.bottom
            for y in range(r.dst_size):
                acc = q.join(acc, q.tensor(srow[y], s.entries[y][z]))
            row.append(acc)
        rows.append(row)
    return VRel(q, rows)


class TestThenReadsTables:
    def test_matches_reference_on_smoke_structures(self):
        # the composites the structure equations of decompose build: a
        # structure between a map's graph and its converse, both ways
        suite = standard_suite("smoke")
        pairs = 0
        for dom, cod, hom in suite.all_homs():
            a, b = dom.vgroup.structure, cod.vgroup.structure
            emb = VRel.from_function(a.quantale, hom.mapping, cod.vgroup.size)
            back = emb.converse()
            for r, s in ((emb, b), (emb.then(b), back), (back, a),
                         (back.then(a), emb), (a, a), (a, emb), (back, back.converse())):
                assert r.then(s) == reference_then(r, s)
                pairs += 1
        assert pairs == 7 * 769

    def test_missing_join_raises_as_the_reference(self):
        # 0 < a, b < c, d < 1: a and b have the upper bounds c, d and 1
        # but no least one.  1 is the unit, so [1, 1] then [a; b] folds
        # join(0, a) = a and then join(a, b), which is missing.
        up = {0: {0, 1, 2, 3, 4, 5}, 1: {1, 3, 4, 5}, 2: {2, 3, 4, 5},
              3: {3, 5}, 4: {4, 5}, 5: {5}}
        q = Quantale(labels=["0", "a", "b", "c", "d", "1"],
                     leq=[[v in up[u] for v in range(6)] for u in range(6)],
                     tensor=[[v if u == 5 else u if v == 5 else 0
                              for v in range(6)] for u in range(6)],
                     unit=5, bottom=0, top=5)
        assert q.join_table[1][2] is None
        r, s = VRel(q, [[5, 5]]), VRel(q, [[1], [2]])
        with pytest.raises(StructuralError) as new:
            r.then(s)
        with pytest.raises(StructuralError) as old:
            reference_then(r, s)
        assert str(new.value) == str(old.value) == "order has no join for (a, b)"
