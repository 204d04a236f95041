import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0lab.circulant import Circulant
from k0lab.errors import InvalidSpecError
from k0lab.graphs import CayleySpec, DirectedMultigraph, build_cayley
from k0lab.zmatrix import IntMatrix, cokernel, cokernel_with_class, det

from conftest import random_matrix
from oracle import (
    circulant_det,
    circulant_matrix,
    det_via_cofactor,
    in_split,
    lattice_membership,
    one_class_partition,
    singleton_partition,
    snf_via_determinant_divisors,
)


class TestDeterminantDivisors:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[0, 1, 2], [2, 1, 3], [1, 2, 1]])
        assert snf_via_determinant_divisors(m) == (1, 1, 7)

    def test_already_diagonal(self):
        assert snf_via_determinant_divisors(IntMatrix.from_rows([[2, 0], [0, 6]])) == (2, 6)

    def test_complete_graph(self):
        m = build_cayley(CayleySpec.complete(4, 1)).i_minus_at()
        assert snf_via_determinant_divisors(m) == (1, 1, 1, 3)

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            snf_via_determinant_divisors(IntMatrix.from_rows([[1, 1], [1, 1]]))

    def test_agrees_with_engine_snf(self, rng):
        checked = 0
        while checked < 100:
            n = rng.randint(1, 6)
            m = random_matrix(rng, n, n)
            if det_via_cofactor(m) == 0:
                continue
            checked += 1
            assert snf_via_determinant_divisors(m) == cokernel_with_class(m)[0]


class TestCofactorDet:
    def test_scalar(self):
        assert det_via_cofactor(IntMatrix.from_rows([[-9]])) == -9

    def test_c6_23(self):
        m = build_cayley(CayleySpec.cyclic(6, [2, 3])).i_minus_at()
        assert det_via_cofactor(m) == -7

    def test_singular(self):
        assert det_via_cofactor(IntMatrix.from_rows([[1, 1, 1]] * 3)) == 0

    def test_three_way_agreement_on_circulants(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            row = [rng.randint(-4, 4) for _ in range(n)]
            c = Circulant.of(row)
            m = circulant_matrix(c)
            reference = det_via_cofactor(m)
            assert det(m) == reference
            assert circulant_det(c) == reference


class TestLatticeMembership:
    def test_double_lattice(self):
        m = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert lattice_membership(m, [1, 1], 2)
        assert not lattice_membership(m, [1, 1], 1)

    def test_weighted_cycle_witness(self):
        m = build_cayley(CayleySpec.cyclic(3, [1], [3])).i_minus_at()
        assert lattice_membership(m, [1, 1, 1], 2)
        assert not lattice_membership(m, [1, 1, 1], 1)

    def test_rectangular_and_singular(self):
        m = IntMatrix.from_rows([[2, 0], [0, 0]])
        assert lattice_membership(m, [1, 0], 2)
        assert not lattice_membership(m, [0, 1], 5)

    def test_order_is_least_member(self, rng):
        corpus = [
            (IntMatrix.from_rows([[2, 0], [0, 4]]), [1, 1]),
            (IntMatrix.from_rows([[5]]), [1]),
            (build_cayley(CayleySpec.cyclic(3, [1], [3])).i_minus_at(), [1, 1, 1]),
            (build_cayley(CayleySpec.cyclic(6, [2, 3])).i_minus_at(), [1] * 6),
            (IntMatrix.from_rows([[7, 1], [0, 7]]), [1, 3]),
        ]
        for _ in range(12):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, bound=3)
            corpus.append((m, [rng.randint(0, 2) for _ in range(n)]))
        for m, vec in corpus:
            order = cokernel_with_class(m, vec)[2]
            if order is None or order > 50:
                continue
            hits = [d for d in range(1, order + 1) if lattice_membership(m, vec, d)]
            assert hits == [order]


class TestInSplit:
    def test_one_class_partition_is_identity(self):
        g = build_cayley(CayleySpec.cyclic(6, [2, 3]))
        split = in_split(g, one_class_partition(g))
        assert split.adjacency == g.adjacency

    def test_two_cycle_single_edge_class(self):
        g = build_cayley(CayleySpec.cyclic(2, [1]))
        split = in_split(g, singleton_partition(g))
        assert split.adjacency == g.adjacency

    def test_singleton_split_preserves_flow_invariants(self):
        corpus = [
            build_cayley(CayleySpec.cyclic(4, [1], [2])),
            build_cayley(CayleySpec.complete(3, 1)),
            build_cayley(CayleySpec.complete(4, 2)),
            build_cayley(CayleySpec.cyclic(6, [2, 3])),
            build_cayley(CayleySpec.cyclic(5, [1, 4])),
        ]
        for g in corpus:
            split = in_split(g, singleton_partition(g))
            assert det(g.i_minus_a()) == det(split.i_minus_a())
            assert cokernel(g.i_minus_a()) == cokernel(split.i_minus_a())

    def test_dihedral_graph_is_insplit_of_two_generator_cycle(self):
        # The 2n-vertex dihedral Cayley graph is the fully in-split form of
        # the Z_n graph with S = {1, n-1}; same determinant and cokernel.
        for n in (3, 4, 5, 6, 7):
            base = build_cayley(CayleySpec.cyclic(n, [1, n - 1]))
            split = in_split(base, singleton_partition(base))
            dihedral = build_cayley(CayleySpec.dihedral(n))
            assert split.vertex_count == dihedral.vertex_count == 2 * n
            assert det(split.i_minus_a()) == det(dihedral.i_minus_a())
            assert cokernel(split.i_minus_a()) == cokernel(dihedral.i_minus_a())

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_singleton_split_invariants_on_random_source_free_graphs(self, data):
        n = data.draw(st.integers(2, 6))
        # a full cycle guarantees the graph is source-free, extra edges on top
        adj = [[0] * n for _ in range(n)]
        for i in range(n):
            adj[i][(i + 1) % n] += 1
        extras = data.draw(
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 2)),
                max_size=6,
            )
        )
        for u, v, k in extras:
            adj[u][v] += k
        g = DirectedMultigraph(adj)
        split = in_split(g, singleton_partition(g))
        assert det(g.i_minus_a()) == det(split.i_minus_a())
        assert cokernel(g.i_minus_a()) == cokernel(split.i_minus_a())

    def test_malformed_partitions(self):
        g = build_cayley(CayleySpec.cyclic(3, [1], [2]))
        good = singleton_partition(g)
        missing = dict(good)
        del missing[0]
        with pytest.raises(InvalidSpecError):
            in_split(g, missing)
        overlapping = {v: [cls + cls[:1] for cls in classes] for v, classes in good.items()}
        with pytest.raises(InvalidSpecError):
            in_split(g, overlapping)
        empty = {v: classes + [[]] for v, classes in good.items()}
        with pytest.raises(InvalidSpecError):
            in_split(g, empty)
        foreign = {v: [[(0, 0, 9)]] for v in range(3)}
        with pytest.raises(InvalidSpecError):
            in_split(g, foreign)
