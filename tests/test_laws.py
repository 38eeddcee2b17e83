"""The law scanners against their definitions, read off by brute force, and
against the scans they replaced."""

import random

from vgroups import (Quantale, boolean, builtin_quantale, enumerate_structures,
                     lawvere_chain, ultrametric_chain)
from vgroups import laws
from vgroups.builders import SUITE_LEVELS, group_roster

from test_acceptance import builtin_quantales, corrupted_quantales


def first(witnesses):
    return next(iter(witnesses), None)


def brute_homomorphism(op_a, op_b, m):
    n = len(op_a)
    return first((x, y) for x in range(n) for y in range(n)
                 if m[op_a[x][y]] != op_b[m[x]][m[y]])


def brute_compatibility(q, a, b, m):
    n = len(a)
    return first((x, y) for x in range(n) for y in range(n)
                 if not q.leq(a[x][y], b[m[x]][m[y]]))


def brute_reflection(a, b, m):
    n = len(a)
    return first((x, y) for x in range(n) for y in range(n)
                 if a[x][y] != b[m[x]][m[y]])


def random_matrix(rng, q, n):
    return [[rng.randrange(q.size) for _ in range(n)] for _ in range(n)]


def matrix_cases(seed, count=300):
    """(q, a, b, m): random matrices, lawless ones included, random index
    maps, and cases built so that both laws hold or fail at one entry."""
    rng = random.Random(seed)
    for _ in range(count):
        q = rng.choice((boolean(), lawvere_chain(2)))
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        b = random_matrix(rng, q, k)
        m = [rng.randrange(k) for _ in range(n)]
        pulled = [[b[m[x]][m[y]] for y in range(n)] for x in range(n)]
        yield q, random_matrix(rng, q, n), b, m
        yield q, pulled, b, m
        # one entry moved: the only witness, if any, sits there
        x, y = rng.randrange(n), rng.randrange(n)
        pulled[x][y] = rng.randrange(q.size)
        yield q, pulled, b, m
        yield q, random_matrix(rng, q, n), [[q.top] * k for _ in range(k)], m


def brute_shift_invariance(a, op):
    n = len(a)
    return first((s, x, y) for s in range(n) for x in range(n) for y in range(n)
                 if None not in (op(x, s), op(y, s))
                 and a[x][y] != a[op(x, s)][op(y, s)])


def shift_pairs(op, n):
    """The shift table ``laws.shift_invariance`` reads, built from ``op``
    here rather than by the package: for each s the pairs (x, op(x, s)),
    in x order, whose shift is defined (not None)."""
    return [[(x, xs) for x in range(n) if (xs := op(x, s)) is not None]
            for s in range(n)]


def test_shift_invariance_matches_the_definition():
    """Over the roster's Cayley tables, whole and with a random quarter
    of the shifts undefined (as at a descent window's edge), on shift
    invariant matrices with and without one entry moved."""
    rng = random.Random(13)
    found = 0
    for group in group_roster().values():
        n = group.size
        for _ in range(40):
            undefined = {(x, s) for x in range(n) for s in range(n) if rng.random() < 0.25}
            op = rng.choice((group.op, lambda x, s: None if (x, s) in undefined
                             else group.op(x, s)))
            delta = [rng.randrange(3) for _ in range(n)]
            a = [[delta[group.sub(y, x)] for y in range(n)] for x in range(n)]
            a[rng.randrange(n)][rng.randrange(n)] = rng.randrange(3)
            want = brute_shift_invariance(a, op)
            found += want is not None
            assert laws.shift_invariance(a, shift_pairs(op, n)) == want
    assert found > 100


def test_compatibility_matches_the_definition():
    found = 0
    for q, a, b, m in matrix_cases(seed=1):
        want = brute_compatibility(q, a, b, m)
        assert laws.compatibility(q, a, b, m) == want
        found += want is not None
    assert found > 0


def test_reflection_matches_the_definition():
    found = 0
    for q, a, b, m in matrix_cases(seed=2):
        want = brute_reflection(a, b, m)
        assert laws.reflection(a, b, m) == want
        found += want is not None
    assert found > 0


def test_compatibility_reads_generator_rows_up_to_the_witness():
    q = boolean()
    read = []

    def row(x):
        for y in range(3):
            read.append((x, y))
            yield q.top if (x, y) == (1, 1) else q.bottom

    bottom = [[q.bottom] * 3 for _ in range(3)]
    assert laws.compatibility(q, (row(x) for x in range(3)), bottom, [0, 1, 2]) == (1, 1)
    assert read[-1] == (1, 1)


def test_homomorphism_matches_the_definition_on_the_roster():
    rng = random.Random(3)
    tables = [g.table for g in group_roster().values()]
    found = held = 0
    for op_a in tables:
        for op_b in tables:
            n, k = len(op_a), len(op_b)
            maps = [[rng.randrange(k) for _ in range(n)] for _ in range(20)]
            maps.append([0] * n)  # the zero map: index 0 is every roster identity
            if n == k:
                maps.append(list(range(n)))
            for m in maps:
                want = brute_homomorphism(op_a, op_b, m)
                assert laws.homomorphism(op_a, op_b, m) == want
                found += want is not None
                held += want is None
    assert found > 0 and held > 0


# -- the tensor scanners against their bodies before they skipped values -----

def reference_transitivity(q, a):
    leq, ten = q.leq_table, q.tensor_table
    for x, ax in enumerate(a):
        for y, axy in enumerate(ax):
            times = ten[axy]
            for z, ayz in enumerate(a[y]):
                if not leq[times[ayz]][ax[z]]:
                    return (x, y, z)
    return None


def reference_addition_compatibility(q, a, op):
    leq, ten = q.leq_table, q.tensor_table
    rng = range(len(a))
    for x1 in rng:
        for x2 in rng:
            times = ten[a[x1][x2]]
            for y1 in rng:
                ay1, target = a[y1], a[op(x1, y1)]
                for y2 in rng:
                    if not leq[times[ay1[y2]]][target[op(x2, y2)]]:
                        return (x1, x2, y1, y2)
    return None


def chain_quantale(tensor):
    """The chain 0 < 1 < 2 with unit 0 and an arbitrary tensor: no
    quantale, since bottom does not annihilate."""
    return Quantale(labels=["0", "1", "2"],
                    leq=[[u <= v for v in range(3)] for u in range(3)],
                    tensor=[[tensor(u, v) for v in range(3)] for u in range(3)],
                    unit=0, bottom=0, top=2)


def tensor_scan_quantales(non_integral_q):
    """(quantale, values it marks annihilating): the suite quantales, a
    non-integral one, and lawless chains where bottom does not
    annihilate, one of them with a middle value that does."""
    suite = [(q, (q.bottom,)) for q in (boolean(), lawvere_chain(2),
                                        lawvere_chain(3), ultrametric_chain(3))]
    return suite + [(non_integral_q, (0,)),
                    (chain_quantale(max), ()),
                    (chain_quantale(lambda u, v: 0 if 1 in (u, v) else max(u, v)), (1,))]


def tensor_scan_matrices(rng, q, n):
    """Random matrices, mostly bottom ones included, and the discrete
    matrix, on which a lawful quantale's scans find no witness."""
    for share in (0.0, 0.6, 0.9):
        for _ in range(4):
            yield [[q.bottom if rng.random() < share else rng.randrange(q.size)
                    for _ in range(n)] for _ in range(n)]
    yield [[q.top if x == y else q.bottom for y in range(n)] for x in range(n)]


def test_annihilating_is_read_off_the_tables(non_integral_q):
    for q, marked in tensor_scan_quantales(non_integral_q):
        assert tuple(v for v in range(q.size) if q.annihilating[v]) == marked, q


def test_tensor_scanners_find_the_reference_witness(non_integral_q):
    rng = random.Random(4)
    groups = list(group_roster().values())
    found = held = 0
    for q, _ in tensor_scan_quantales(non_integral_q):
        for group in groups:
            for a in tensor_scan_matrices(rng, q, group.size):
                want = reference_transitivity(q, a)
                assert laws.transitivity(q, a) == want
                found += want is not None
                held += want is None
                want = reference_addition_compatibility(q, a, group.op)
                assert laws.addition_compatibility(q, a, group.table) == want
                found += want is not None
                held += want is None
    assert found > 0 and held > 0


# -- symmetry against the inline scans it replaced ---------------------------

def reference_is_symmetric(a):
    """The scan of classify_object and FiniteGroup.is_abelian."""
    n = len(a)
    return all(a[x][y] == a[y][x] for x in range(n) for y in range(n))


def reference_commutativity_witness(ten):
    """The tensor-commutative scan of validate_quantale."""
    rng = range(len(ten))
    return first((u, v) for u in rng for v in rng if ten[u][v] != ten[v][u])


def symmetry_tables():
    """Every roster Cayley table, every smoke and full structure matrix,
    and the tensor tables of acceptance criterion 1 with two lawless
    chains, one of them noncommutative."""
    roster = group_roster()
    yield from (group.table for group in roster.values())
    for _, spec in SUITE_LEVELS["full"].quantales:
        q = builtin_quantale(spec["builtin"], spec.get("m"))
        for name in SUITE_LEVELS["full"].groups:
            yield from (g.structure.entries for g in enumerate_structures(roster[name], q))
    quantales = builtin_quantales() + [q for q, _ in corrupted_quantales()]
    quantales += [chain_quantale(max), chain_quantale(lambda u, v: (u + 2 * v) % 3)]
    yield from (q.tensor_table for q in quantales)


def test_symmetry_finds_the_reference_witness():
    found = held = 0
    for a in symmetry_tables():
        witness = laws.symmetry(a)
        assert (witness is None) == reference_is_symmetric(a)
        assert witness == reference_commutativity_witness(a)
        found += witness is not None
        held += witness is None
    assert found > 0 and held > 0


# -- separation against its body before it read each pair once ---------------

def reference_separation(q, a):
    above_unit = q.leq_table[q.unit]
    for x, ax in enumerate(a):
        for y, axy in enumerate(ax):
            if x != y and above_unit[axy] and above_unit[a[y][x]]:
                return (x, y)
    return None


def test_separation_finds_the_reference_witness():
    """The symmetry test's tables, each read over a chain long enough for
    its entries, with the unit at the top and, lawlessly, at the middle."""
    found = held = 0
    for a in symmetry_tables():
        m = max(1, max(map(max, a)))
        chain = lawvere_chain(m)
        middle = Quantale(chain.labels, chain.leq_table, chain.tensor_table,
                          unit=m // 2, bottom=m, top=0)
        for q in (chain, middle):
            witness = laws.separation(q, a)
            assert witness == reference_separation(q, a)
            found += witness is not None
            held += witness is None
    assert found > 0 and held > 0
