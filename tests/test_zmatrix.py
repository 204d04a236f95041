import random
from itertools import product
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k0lab.graphs import CayleySpec, build_cayley, build_complete_graph, k_cycle
from k0lab.zmatrix import (
    FinAbGroup,
    IntMatrix,
    MatrixFormatError,
    _invariant_factors,
    cokernel,
    cokernel_with_class,
    det,
    mat_pow,
    rank,
    read_matrix,
    snf_diagonal,
    write_matrix,
)

from conftest import random_matrix, random_unimodular
from oracle import lattice_membership, snf_via_determinant_divisors

T6_MINUS_I = IntMatrix.from_rows([[0, 1, 2], [2, 1, 3], [1, 2, 1]])


def c6_23_matrix() -> IntMatrix:
    return build_cayley(CayleySpec.cyclic(6, [2, 3])).i_minus_at()


class TestSnf:
    def test_worked_example(self):
        assert snf_diagonal(T6_MINUS_I) == (1, 1, 7)

    def test_identity(self):
        assert snf_diagonal(IntMatrix.identity(4)) == (1, 1, 1, 1)

    def test_all_minus_ones(self):
        m = IntMatrix.from_rows([[-1] * 5 for _ in range(5)])
        assert snf_diagonal(m) == (1, 0, 0, 0, 0)

    def test_diagonal_invariants(self, rng):
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            diag = snf_diagonal(m)
            assert all(s >= 0 for s in diag)
            nonzero = [s for s in diag if s != 0]
            assert diag[: len(nonzero)] == tuple(nonzero), "zeros must trail"
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0

    def test_invariant_under_unimodular_transforms(self, rng):
        for _ in range(50):
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, n)
            p = random_unimodular(rng, n)
            q = random_unimodular(rng, n)
            assert snf_diagonal(p * m * q) == snf_diagonal(m)

    def test_transpose_has_same_diagonal(self, rng):
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert snf_diagonal(m) == snf_diagonal(m.transpose())

    def test_rectangular(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
        assert snf_diagonal(m) == (1, 6)


def _diagonal_matrix(entries) -> IntMatrix:
    n = len(entries)
    return IntMatrix.from_rows([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def _chain_by_minors(entries) -> tuple[int, ...]:
    """Smith diagonal of diag(entries) from determinantal divisors, zeros last."""
    nonzero = [d for d in entries if d != 0]
    zeros = (0,) * (len(entries) - len(nonzero))
    if not nonzero:
        return zeros
    return snf_via_determinant_divisors(_diagonal_matrix(nonzero)) + zeros


class TestInvariantFactors:
    def test_every_small_diagonal(self):
        for n in range(1, 4):
            for entries in product(range(-4, 5), repeat=n):
                assert _invariant_factors(entries) == _chain_by_minors(entries), entries

    def test_random_diagonals(self, rng):
        for _ in range(150):
            n = rng.randint(1, 5)
            entries = [rng.choice([0, 1, -1, 2, -3, 4, 6, -9, 10, 12, 15, -25]) for _ in range(n)]
            assert _invariant_factors(entries) == _chain_by_minors(entries), entries


class TestDet:
    def test_c6_23(self):
        assert det(c6_23_matrix()) == -7

    def test_complete_graph_one_loop(self):
        m = build_complete_graph(5, 1).i_minus_at()
        assert det(m) == -4

    def test_k_cycle(self):
        assert det(k_cycle(3, 2).i_minus_at()) == 1 - 2**3

    def test_matches_snf_product_when_nonsingular(self, rng):
        checked = 0
        while checked < 40:
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, n)
            d = det(m)
            if d == 0:
                continue
            checked += 1
            assert abs(d) == prod(snf_diagonal(m))

    def test_singular(self):
        assert det(IntMatrix.from_rows([[1, 1, 1]] * 3)) == 0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


class TestRank:
    def test_all_minus_ones(self):
        assert rank(IntMatrix.from_rows([[-1] * 6 for _ in range(6)])) == 1

    def test_identity(self):
        assert rank(IntMatrix.identity(5)) == 5

    def test_zero(self):
        assert rank(IntMatrix.zero(3, 3)) == 0


class TestMatPow:
    def test_companion_sixth_power(self):
        t = IntMatrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        assert mat_pow(t, 6).to_lists() == [[1, 1, 2], [2, 2, 3], [1, 2, 2]]
        assert (mat_pow(t, 6) - IntMatrix.identity(3)) == T6_MINUS_I

    def test_zeroth_power(self, rng):
        m = random_matrix(rng, 4, 4)
        assert mat_pow(m, 0) == IntMatrix.identity(4)

    def test_fibonacci_entries(self):
        m = IntMatrix.from_rows([[0, 1], [1, 1]])
        assert mat_pow(m, 10).to_lists() == [[34, 55], [55, 89]]


class TestCokernel:
    def test_diagonal_input(self):
        m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 7]])
        assert cokernel(m) == FinAbGroup((7,))

    def test_zero_matrix(self):
        assert cokernel(IntMatrix.zero(2, 2)) == FinAbGroup(free_rank=2)

    def test_already_smith(self):
        assert cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])) == FinAbGroup((2, 4))

    def test_rectangular_surplus_rows(self):
        m = IntMatrix.from_rows([[2], [0]])
        assert cokernel(m) == FinAbGroup((2,), free_rank=1)


class TestElementOrder:
    def test_c6_23_all_ones(self):
        assert cokernel_with_class(c6_23_matrix(), [1] * 6)[2] == 1

    def test_weighted_three_cycle(self):
        m = k_cycle(3, 3).i_minus_at()
        assert cokernel_with_class(m, [1, 1, 1])[2] == 2

    def test_double_identity(self):
        m = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert cokernel_with_class(m, [1, 0])[2] == 2
        # 2 does not divide 3: the Smith diagonal is (1, 6), but the order
        # pairs each coordinate with its own raw diagonal entry, 2 or 3.
        m = IntMatrix.from_rows([[2, 0], [0, 3]])
        assert cokernel_with_class(m, [1, 1])[2] == 6
        assert cokernel_with_class(m, [1, 0])[2] == 2
        assert cokernel_with_class(m, [0, 1])[2] == 3

    def test_infinite_order(self):
        m = IntMatrix.zero(2, 2)
        assert cokernel_with_class(m, [1, 0])[2] is None
        # A surplus row against a nonzero coordinate of the reduced class.
        m = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
        assert cokernel_with_class(m, [1, 1, 1])[2] is None

    def test_order_is_least_lattice_multiple(self, rng):
        corpus = [
            (c6_23_matrix(), [1] * 6),
            (k_cycle(3, 3).i_minus_at(), [1, 1, 1]),
            (IntMatrix.from_rows([[2, 0], [0, 4]]), [1, 1]),
            (IntMatrix.from_rows([[6, 0], [0, 10]]), [2, 5]),
        ]
        for _ in range(10):
            n = rng.randint(1, 4)
            m = random_matrix(rng, n, n, bound=3)
            if det(m) == 0:
                continue
            corpus.append((m, [rng.randint(0, 2) for _ in range(n)]))
        for m, vec in corpus:
            order = cokernel_with_class(m, vec)[2]
            assert order is not None and order <= 10**6
            assert lattice_membership(m, vec, order)
            for d in range(1, min(order, 60)):
                assert not lattice_membership(m, vec, d)

    def test_class_does_not_change_diagonal_or_group(self, rng):
        for _ in range(60):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            m = random_matrix(rng, rows, cols, bound=3)
            vec = [rng.randint(-2, 2) for _ in range(rows)]
            diag, group, order = cokernel_with_class(m, vec)
            assert cokernel_with_class(m) == (diag, group, None)
            assert diag == snf_diagonal(m)
            assert group == cokernel(m)
            if order is None:
                assert not any(lattice_membership(m, vec, d) for d in range(1, 13))
            elif order <= 12:
                hits = [d for d in range(1, order + 1) if lattice_membership(m, vec, d)]
                assert hits == [order]

    def test_rejects_wrong_length_vector(self):
        with pytest.raises(ValueError):
            cokernel_with_class(c6_23_matrix(), [1] * 5)


class TestFinAbGroup:
    def test_display_conventions(self):
        assert FinAbGroup().display() == "0"
        assert FinAbGroup((7,)).display() == "Z_7"
        assert FinAbGroup((2, 4), free_rank=1).display() == "Z_2 + Z_4 + Z"
        assert FinAbGroup(free_rank=2).display() == "Z^2"

    def test_from_invariants_drops_units_and_zeroes(self):
        g = FinAbGroup.from_invariants([1, 1, 2, 4, 0])
        assert g == FinAbGroup((2, 4), free_rank=1)

    def test_rejects_broken_chain(self):
        with pytest.raises(ValueError):
            FinAbGroup((2, 3))
        with pytest.raises(ValueError):
            FinAbGroup.from_invariants([2, 3])

    def test_order(self):
        assert FinAbGroup((2, 4)).order() == 8
        assert FinAbGroup((2,), free_rank=1).order() is None
        assert FinAbGroup().order() == 1

    @given(st.lists(st.sampled_from([1, 2, 4, 8, 3, 9]), max_size=4), st.integers(0, 3))
    def test_hypothesis_two_powers_chain(self, factors, free):
        twos = sorted(f for f in factors if f in (2, 4, 8))
        g = FinAbGroup.from_invariants(twos, free_rank=free)
        assert g.free_rank == free
        assert all(b % a == 0 for a, b in zip(g.torsion, g.torsion[1:]))


class TestMatrixFile:
    def test_roundtrip(self, rng):
        m = random_matrix(rng, 3, 4, bound=10**12)
        assert read_matrix(write_matrix(m)) == m

    def test_parses_example(self):
        m = read_matrix("3 3\n0 1 2\n2 1 3\n1 2 1\n")
        assert m == T6_MINUS_I

    def test_bad_header(self):
        with pytest.raises(MatrixFormatError) as exc:
            read_matrix("3\n1 2 3\n")
        assert exc.value.line == 1

    def test_short_row_reports_line(self):
        with pytest.raises(MatrixFormatError) as exc:
            read_matrix("2 3\n1 2 3\n4 5\n")
        assert exc.value.line == 3

    def test_non_integer_entry(self):
        with pytest.raises(MatrixFormatError) as exc:
            read_matrix("1 2\n1 x\n")
        assert exc.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(MatrixFormatError):
            read_matrix("3 2\n1 2\n")

    def test_rejects_extra_rows(self):
        assert read_matrix("2 2\n1 0\n0 1\n\n") == IntMatrix.identity(2)
        for extra in ("5 5", "7 7 7"):
            with pytest.raises(MatrixFormatError) as exc:
                read_matrix(f"2 2\n1 0\n0 1\n{extra}\n")
            assert exc.value.line == 4
