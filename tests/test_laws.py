"""The morphism-law scanners against their definitions, read off by brute force."""

import random

from vgroups import boolean, lawvere_chain
from vgroups import laws
from vgroups.builders import group_roster


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
