import pytest

from k0lab.circulant import Circulant, circulant_det
from k0lab.graphs import CayleySpec, build_cayley, build_complete_graph, k_cycle
from k0lab.zmatrix import IntMatrix, cokernel_with_class, det, snf_diagonal

from conftest import random_matrix
from oracle import det_via_cofactor, lattice_membership, snf_via_determinant_divisors


class TestDeterminantDivisors:
    def test_worked_example(self):
        m = IntMatrix.from_rows([[0, 1, 2], [2, 1, 3], [1, 2, 1]])
        assert snf_via_determinant_divisors(m) == (1, 1, 7)

    def test_already_diagonal(self):
        assert snf_via_determinant_divisors(IntMatrix.from_rows([[2, 0], [0, 6]])) == (2, 6)

    def test_complete_graph(self):
        m = build_complete_graph(4, 1).i_minus_at()
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
            assert snf_via_determinant_divisors(m) == snf_diagonal(m)


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
            m = c.to_matrix()
            reference = det_via_cofactor(m)
            assert det(m) == reference
            assert circulant_det(c) == reference


class TestLatticeMembership:
    def test_double_lattice(self):
        m = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert lattice_membership(m, [1, 1], 2)
        assert not lattice_membership(m, [1, 1], 1)

    def test_weighted_cycle_witness(self):
        m = k_cycle(3, 3).i_minus_at()
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
            (k_cycle(3, 3).i_minus_at(), [1, 1, 1]),
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
