import itertools
import random

import pytest
from hypothesis import given, strategies as st

from vgroups import (Quantale, StructuralError, boolean, builtin_quantale,
                     lawvere_chain, ultrametric_chain, validate_quantale)


def brute_force_lub(q, u, v):
    """Independent join oracle: scan every upper bound for a least one."""
    uppers = [w for w in range(q.size) if q.leq(u, w) and q.leq(v, w)]
    least = [w for w in uppers if all(q.leq(w, c) for c in uppers)]
    assert len(least) == 1
    return least[0]


class TestBuiltins:
    def test_boolean_shape(self, bool_q):
        assert bool_q.size == 2
        assert bool_q.unit == bool_q.top
        assert bool_q.is_integral
        assert validate_quantale(bool_q).ok

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_chains_validate(self, m):
        assert validate_quantale(lawvere_chain(m)).ok
        assert validate_quantale(ultrametric_chain(m)).ok

    def test_lawvere_tensor_is_truncated_sum(self):
        q = lawvere_chain(2)
        assert q.tensor(1, 1) == 2
        assert q.tensor(1, 2) == 2
        assert q.tensor(0, 1) == 1

    def test_ultrametric_tensor_is_max(self):
        q = ultrametric_chain(2)
        assert q.tensor(1, 2) == 2
        assert q.tensor(1, 1) == 1

    def test_chain_join_is_numeric_min(self):
        # reversed order: 0 is the top, so the lub of {1, 2} is 1
        q = lawvere_chain(2)
        assert q.join(1, 2) == 1
        assert q.meet(1, 2) == 2

    def test_chains_are_integral(self):
        for m in (1, 2, 3):
            assert lawvere_chain(m).is_integral
            assert ultrametric_chain(m).is_integral

    def test_degenerate_chain_rejected(self):
        with pytest.raises(StructuralError):
            lawvere_chain(0)
        with pytest.raises(StructuralError):
            ultrametric_chain(0)

    def test_trivial_quantale_rejected(self):
        with pytest.raises(StructuralError):
            Quantale(["x"], [[True]], [[0]], unit=0, bottom=0, top=0)

    def test_builtin_dispatch(self):
        assert builtin_quantale("boolean") == boolean()
        assert builtin_quantale("lawvere_chain", 2) == lawvere_chain(2)
        assert builtin_quantale("ultrametric_chain", 3) == ultrametric_chain(3)
        with pytest.raises(StructuralError):
            builtin_quantale("nope")
        with pytest.raises(StructuralError):
            builtin_quantale("lawvere_chain")


class TestStructuralErrors:
    def test_ragged_table(self):
        with pytest.raises(StructuralError):
            Quantale(["a", "b"], [[True, True], [False]], [[0, 0], [0, 1]], 1, 0, 1)

    def test_out_of_range_entry(self):
        with pytest.raises(StructuralError):
            Quantale(["a", "b"], [[True, True], [False, True]], [[0, 5], [0, 1]], 1, 0, 1)

    def test_bad_designated_index(self):
        with pytest.raises(StructuralError):
            Quantale(["a", "b"], [[True, True], [False, True]], [[0, 0], [0, 1]], 7, 0, 1)

    def test_duplicate_labels(self):
        with pytest.raises(StructuralError):
            Quantale(["a", "a"], [[True, True], [False, True]], [[0, 0], [0, 1]], 1, 0, 1)


class TestLawViolations:
    def test_broken_annihilation(self):
        # top tensor bottom redefined to top
        q = Quantale(["bot", "top"], [[True, True], [False, True]],
                     [[0, 0], [1, 1]], unit=1, bottom=0, top=1)
        report = validate_quantale(q)
        assert not report.ok
        laws = report.laws_violated()
        assert "tensor-annihilates-bottom" in laws
        witness = [v for v in report.violations
                   if v.law == "tensor-annihilates-bottom"][0].witness
        assert witness == ("top",)

    def test_broken_associativity(self):
        base = lawvere_chain(2)
        tensor = [list(row) for row in base.tensor_table]
        tensor[2][2] = 1  # 2 tensor 2 should saturate at 2
        q = Quantale(base.labels, base.leq_table, tensor, 0, 2, 0)
        report = validate_quantale(q)
        assert "tensor-associative" in report.laws_violated()

    def test_broken_unit(self):
        base = lawvere_chain(2)
        q = Quantale(base.labels, base.leq_table, base.tensor_table,
                     unit=1, bottom=2, top=0)
        report = validate_quantale(q)
        assert "tensor-unit" in report.laws_violated()

    def test_broken_order(self):
        q = Quantale(["bot", "top"], [[True, False], [False, True]],
                     [[0, 0], [0, 1]], unit=1, bottom=0, top=1)
        report = validate_quantale(q)
        laws = report.laws_violated()
        assert "bottom-is-least" in laws
        assert "join-exists" in laws

    def test_diamond_lattice_fails_frame(self):
        # bot < a, b, c < top with a, b, c incomparable; tensor = meet
        labels = ["bot", "a", "b", "c", "top"]
        leq = [[True] * 5,
               [False, True, False, False, True],
               [False, False, True, False, True],
               [False, False, False, True, True],
               [False, False, False, False, True]]
        def meet(u, v):
            if leq[u][v]:
                return u
            if leq[v][u]:
                return v
            return 0
        tensor = [[meet(u, v) for v in range(5)] for u in range(5)]
        q = Quantale(labels, leq, tensor, unit=4, bottom=0, top=4)
        report = validate_quantale(q)
        assert "frame-meets-distribute-over-joins" in report.laws_violated()


class TestOps:
    def test_empty_join_is_bottom(self, bool_q, law2):
        for q in (bool_q, law2):
            assert q.join_all([]) == q.bottom
            assert q.meet_all([]) == q.top

    def test_boolean_join_absorbs_top(self, bool_q):
        assert bool_q.join(0, 1) == 1

    @given(st.permutations(list(range(3))))
    def test_join_all_order_independent(self, perm):
        q = lawvere_chain(2)
        assert q.join_all(perm) == q.join_all(range(3))

    def test_tensor_monotone(self):
        for q in (boolean(), lawvere_chain(3), ultrametric_chain(3)):
            for u, u2, v in itertools.product(range(q.size), repeat=3):
                if q.leq(u, u2):
                    assert q.leq(q.tensor(u, v), q.tensor(u2, v))

    def test_non_integral_fixture_is_lawful(self, non_integral_q):
        assert validate_quantale(non_integral_q).ok
        assert not non_integral_q.is_integral

    def test_index_of(self, bool_q):
        assert bool_q.index_of("top") == 1
        with pytest.raises(StructuralError):
            bool_q.index_of("nope")

    def test_join_raises_without_upper_bound(self):
        broken = Quantale(["bot", "top"], [[True, False], [False, True]],
                          [[0, 0], [0, 1]], unit=1, bottom=0, top=1)
        with pytest.raises(StructuralError, match="no join"):
            broken.join(0, 1)

    def test_meet_is_below_both_arguments_on_any_order(self):
        # The descent checks leave the kernel-pair projection and anchor
        # scans out because their entries are meets: wherever a meet
        # exists it lies below both arguments, partial order or not.
        rng = random.Random(0)
        found = {True: 0, False: 0}
        for n in (3, 4):
            for partial in (True, False):
                for _ in range(150):
                    if partial:
                        # a random strict order along a random permutation,
                        # closed under transitivity, plus the diagonal
                        rank = rng.sample(range(n), n)
                        leq = [[u == v or (rank[u] < rank[v] and rng.random() < 0.6)
                                for v in range(n)] for u in range(n)]
                        for k, u, v in itertools.product(range(n), repeat=3):
                            leq[u][v] = leq[u][v] or (leq[u][k] and leq[k][v])
                    else:
                        leq = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
                    q = Quantale([str(u) for u in range(n)], leq,
                                 [[min(u, v) for v in range(n)] for u in range(n)],
                                 unit=n - 1, bottom=0, top=n - 1)
                    for u, v in itertools.product(range(n), repeat=2):
                        try:
                            w = q.meet(u, v)
                        except StructuralError:
                            continue
                        found[partial] += 1
                        assert q.leq_table[w][u] and q.leq_table[w][v]
        assert found[True] and found[False]
