import random
import signal
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import floor, gcd, lcm, prod

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import k0lab.zmatrix
from k0lab.circulant import Circulant, IntPolynomial, cayley_det, divisors
from k0lab.graphs import (
    CayleySpec,
    DirectedMultigraph,
    build_cayley,
)
from k0lab.k0 import _companion_presentation
from k0lab.zmatrix import (
    FinAbGroup,
    IntMatrix,
    MatrixFormatError,
    _bareiss,
    _diagonalize,
    _invariant_factors,
    _supports,
    _unit_pivot_order,
    cokernel,
    cokernel_with_class,
    det,
    int_text,
    read_matrix,
    write_matrix,
)

from conftest import random_matrix, random_unimodular, rank
from oracle import (
    companion_matrix,
    det_via_cofactor,
    identity_matrix,
    lattice_membership,
    mat_mul,
    mat_pow,
    mat_sub,
    snf_via_determinant_divisors,
    transpose,
    zero_matrix,
)

T6_MINUS_I = IntMatrix.from_rows([[0, 1, 2], [2, 1, 3], [1, 2, 1]])


@pytest.fixture(autouse=True)
def _terminates():
    """Each test here ends within 120 s, 20 times its need: an elimination
    whose pivot stops shrinking fails instead of hanging the suite."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError("no result after 120 s: an elimination loop is not terminating")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def c6_23_matrix() -> IntMatrix:
    return build_cayley(CayleySpec.cyclic(6, [2, 3])).i_minus_at()


class TestSnf:
    def test_worked_example(self):
        assert cokernel_with_class(T6_MINUS_I)[0] == (1, 1, 7)

    def test_identity(self):
        assert cokernel_with_class(identity_matrix(4))[0] == (1, 1, 1, 1)

    def test_all_minus_ones(self):
        m = IntMatrix.from_rows([[-1] * 5 for _ in range(5)])
        assert cokernel_with_class(m)[0] == (1, 0, 0, 0, 0)

    def test_diagonal_invariants(self, rng):
        for _ in range(60):
            m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
            diag = cokernel_with_class(m)[0]
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
            pmq = mat_mul(mat_mul(p, m), q)
            assert cokernel_with_class(pmq)[0] == cokernel_with_class(m)[0]

    def test_transpose_has_same_diagonal(self, rng):
        for _ in range(40):
            m = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
            assert cokernel_with_class(m)[0] == cokernel_with_class(transpose(m))[0]

    def test_rectangular(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
        assert cokernel_with_class(m)[0] == (1, 6)


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

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-40, 40), min_size=1, max_size=4).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), max_size=40)
        )
    )
    @example([2] * 128)
    @example([2] * 20 + [3] * 20 + [4] * 5)
    @example([6, 4, 6, 9, 4, 6, 0, -1, 10])
    def test_matches_the_pairwise_rule_with_repeats(self, entries):
        assert _invariant_factors(entries) == _pairwise_chain(entries), entries


def _pairwise_chain(entries) -> tuple[int, ...]:
    """The chain by (gcd, lcm) over every pair of non-unit absolute values, O(k^2) gcds."""
    rest = [abs(d) for d in entries if abs(d) > 1]
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    zeros = list(entries).count(0)
    ones = len(entries) - zeros - len(rest)
    return (1,) * ones + tuple(rest) + (0,) * zeros


class TestDet:
    def test_c6_23(self):
        assert det(c6_23_matrix()) == -7

    def test_complete_graph_one_loop(self):
        m = build_cayley(CayleySpec.complete(5, 1)).i_minus_at()
        assert det(m) == -4

    def test_k_cycle(self):
        assert det(build_cayley(CayleySpec.cyclic(3, [1], [2])).i_minus_at()) == 1 - 2**3

    def test_matches_snf_product_when_nonsingular(self, rng):
        checked = 0
        while checked < 40:
            n = rng.randint(1, 8)
            m = random_matrix(rng, n, n)
            d = det(m)
            if d == 0:
                continue
            checked += 1
            assert abs(d) == prod(cokernel_with_class(m)[0])

    def test_singular(self):
        assert det(IntMatrix.from_rows([[1, 1, 1]] * 3)) == 0

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            det(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))


def _chorded_cycle(rng: random.Random, v: int, sink: bool) -> DirectedMultigraph:
    """A Hamiltonian cycle on v vertices plus v/2 random edges of multiplicity 1-2.

    With ``sink`` one more vertex receives one or two edges and sends none.
    """
    size = v + 1 if sink else v
    adj = [[0] * size for _ in range(size)]
    order = list(range(v))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        adj[a][b] += 1
    for _ in range(v // 2):
        adj[rng.randrange(v)][rng.randrange(v)] += rng.randint(1, 2)
    if sink:
        for _ in range(rng.randint(1, 2)):
            adj[rng.randrange(v)][v] += 1
    return DirectedMultigraph(tuple(tuple(row) for row in adj))


def _sparse_corpus() -> list[IntMatrix]:
    """I - A^t of dihedral specs and chorded multigraphs, and companion P's."""
    mats = [build_cayley(CayleySpec.dihedral(n)).i_minus_at() for n in range(3, 61)]
    rng = random.Random(20011)
    for v in range(40, 119, 6):
        mats.append(_chorded_cycle(rng, v, sink=v % 4 == 0).i_minus_at())
    for n, gens, weights in [
        (48, [1, 5], [1, 2]),
        (64, [2, 3], [1, 1]),
        (81, [1, 2, 7], [1, 1, 1]),
        (100, [3, 8], [2, 1]),
        (128, [1, 4, 6], [1, 1, 3]),
    ]:
        spec = CayleySpec.cyclic(n, gens, weights)
        mats.append(_companion_presentation(companion_matrix(spec).char_poly, n)[0])
    return mats


@st.composite
def _small_square(draw) -> IntMatrix:
    """n <= 6 at a drawn density, entries in -2..3 or all ±1, with zero or
    repeated lines mixed in."""
    n = draw(st.integers(1, 6))
    density = draw(st.integers(0, 4))
    units = draw(st.booleans())
    values = st.sampled_from([-1, 1]) if units else st.integers(-2, 3)
    rows = [
        [draw(values) if draw(st.integers(1, 4)) <= density else 0 for _ in range(n)]
        for _ in range(n)
    ]
    shape = draw(st.sampled_from(["plain", "zero_row", "zero_col", "repeat_row"]))
    k = draw(st.integers(0, n - 1))
    if shape == "zero_row":
        rows[k] = [0] * n
    elif shape == "zero_col":
        for row in rows:
            row[k] = 0
    elif shape == "repeat_row" and n > 1:
        rows[k] = list(rows[(k + 1) % n])
    return IntMatrix.from_rows(rows)


class TestSparseDet:
    """det eliminates ±1 pivots sparsely, then runs Bareiss on the remainder."""

    @settings(max_examples=300, deadline=None)
    @given(_small_square())
    def test_hypothesis_against_cofactor(self, m):
        assert det(m) == det_via_cofactor(m)

    def test_sparse_corpus_against_whole_bareiss(self):
        for m in _sparse_corpus():
            assert det(m) == _bareiss(m.to_lists()), m.rows

    def test_independent_of_the_smith_core(self, monkeypatch):
        mats = _sparse_corpus()
        expected = [det(m) for m in mats]

        def refuse(*args, **kwargs):
            raise AssertionError("det must not run the Smith elimination")

        monkeypatch.setattr(k0lab.zmatrix, "_diagonalize", refuse)
        assert [det(m) for m in mats] == expected

    def _remainders(self, monkeypatch, m: IntMatrix) -> list[int]:
        sizes = []

        def record(a):
            sizes.append(len(a))
            return _bareiss(a)

        monkeypatch.setattr(k0lab.zmatrix, "_bareiss", record)
        det(m)
        return sizes

    def test_sparse_input_leaves_a_small_remainder(self, monkeypatch):
        dihedral = build_cayley(CayleySpec.dihedral(60)).i_minus_at()
        graph = _chorded_cycle(random.Random(118), 118, sink=False).i_minus_at()
        for m in (dihedral, graph):
            sizes = self._remainders(monkeypatch, m)
            assert len(sizes) == 1 and sizes[0] <= 8, (m.rows, sizes)

    def test_dense_input_reaches_bareiss_whole(self, monkeypatch, rng):
        # With every entry nonzero a ±1 pivot costs 39 * 39, twice a Bareiss step.
        m = IntMatrix.from_rows([[rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(40)]
                                 for _ in range(40)])
        assert self._remainders(monkeypatch, m) == [40]
        # A zero in about one entry in nine lets a stray ±1 pivot pass now and then.
        for n in range(16, 41):
            m = random_matrix(rng, n, n)
            assert self._remainders(monkeypatch, m)[-1] >= n - 1
            assert det(m) == _bareiss(m.to_lists())

    def test_one_by_one(self):
        for x in (-3, -1, 0, 1, 7):
            assert det(IntMatrix.from_rows([[x]])) == x

    def test_zero_column(self):
        m = IntMatrix.from_rows([[1, 0, 2], [-1, 0, 1], [3, 0, 1]])
        assert det(m) == 0

    def test_unimodular_by_unit_pivots(self, monkeypatch):
        # Every pivot is ±1, so only a 1 x 1 block reaches Bareiss.
        m = IntMatrix.from_rows([[1, 1, 0, -1], [0, -1, 1, 0], [1, 1, 1, -1], [0, 0, 0, 1]])
        assert det(m) == det_via_cofactor(m) == -1
        assert self._remainders(monkeypatch, m) == [1]

    def test_signed_permutations(self):
        rng = random.Random(3)
        for n in range(1, 6):
            for perm in permutations(range(n)):
                signs = [rng.choice([-1, 1]) for _ in range(n)]
                m = IntMatrix.from_rows(
                    [[signs[i] if j == perm[i] else 0 for j in range(n)] for i in range(n)]
                )
                inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
                assert det(m) == (-1) ** inversions * prod(signs), (perm, signs)


def _diag_by_minors(m: IntMatrix) -> tuple[int, ...]:
    """Smith diagonal of any m from determinantal divisors: the oracle's own
    function on a nonsingular square matrix; otherwise gcds of the k x k
    minors (by cofactor expansion) up to the rank, then zeros."""
    if m.is_square and det_via_cofactor(m) != 0:
        return snf_via_determinant_divisors(m)
    alphas = [1]
    for k in range(1, min(m.rows, m.cols) + 1):
        g = 0
        for rsel in combinations(range(m.rows), k):
            for csel in combinations(range(m.cols), k):
                g = gcd(g, det_via_cofactor(IntMatrix.from_rows([[m.at(i, j) for j in csel]
                                                                 for i in rsel])))
        if g == 0:
            break
        alphas.append(g)
    rank = len(alphas) - 1
    return (tuple(alphas[k] // alphas[k - 1] for k in range(1, rank + 1))
            + (0,) * (min(m.rows, m.cols) - rank))


def _order_by_membership(m: IntMatrix, vec, diag) -> int | None:
    """Order of [vec] by lattice membership: a finite order divides the largest
    invariant factor, the exponent of the torsion."""
    exponent = max((d for d in diag if d), default=1)
    if not lattice_membership(m, vec, exponent):
        return None
    return next(d for d in divisors(exponent) if lattice_membership(m, vec, d))


def _whole_matrix_reference(m: IntMatrix, vec):
    """cokernel_with_class with no sparse phase: the whole matrix, with its
    class column, through _diagonalize, then _invariant_factors."""
    a = m.to_lists()
    if vec is not None:
        for row, x in zip(a, vec):
            row.append(x)
    _diagonalize(a, m.cols)
    raw = [a[i][i] for i in range(min(m.rows, m.cols))]
    diag = _invariant_factors(raw)
    group = FinAbGroup.from_invariants(diag, free_rank=m.rows - len(diag))
    if vec is None:
        return diag, group, None
    order = 1
    for i, row in enumerate(a):
        s = raw[i] if i < len(raw) else 0
        if s == 0:
            if row[-1] != 0:
                return diag, group, None
        else:
            order = lcm(order, s // gcd(s, row[-1]))
    return diag, group, order


@st.composite
def _sparse_with_class(draw):
    """Up to 6 x 6 of any shape, ±1-heavy at a drawn density, with a zero row
    or column mixed in, and a class vector or none."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    density = draw(st.integers(1, 4))
    values = st.sampled_from([-1, 1, -1, 1, -1, 1, -2, 2, 3])
    entries = [
        [draw(values) if draw(st.integers(1, 4)) <= density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]
    shape = draw(st.sampled_from(["plain", "zero_row", "zero_col"]))
    if shape == "zero_row":
        entries[draw(st.integers(0, rows - 1))] = [0] * cols
    elif shape == "zero_col":
        k = draw(st.integers(0, cols - 1))
        for row in entries:
            row[k] = 0
    vec = draw(st.none() | st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
    return IntMatrix.from_rows(entries), vec


def _smith_corpus() -> list[IntMatrix]:
    """The det corpus, and I - A^t of cyclic specs with 0 in S: w_0 = 1 leaves a
    zero diagonal, w_0 = 2 a unit one, w_0 = 3 no ±1 entry at all."""
    mats = _sparse_corpus()
    for n, gens, weights in [
        (48, [0, 1, 5], [1, 1, 2]),
        (64, [0, 3], [2, 1]),
        (81, [0, 2, 7], [2, 2, 1]),
        (100, [0, 3], [1, 2]),
        (118, [0, 3], [3, 3]),
        (128, [0, 1, 6], [1, 1, 3]),
    ]:
        mats.append(build_cayley(CayleySpec.cyclic(n, gens, weights)).i_minus_at())
    return mats


class TestSparseSmith:
    """cokernel_with_class takes ±1 pivots sparsely, then diagonalizes the remainder."""

    @settings(max_examples=300, deadline=None)
    @given(_sparse_with_class())
    def test_hypothesis_against_determinant_divisors(self, case):
        m, vec = case
        expected = _diag_by_minors(m)
        diag, group, order = cokernel_with_class(m, vec)
        assert diag == expected
        assert group == FinAbGroup.from_invariants(expected, free_rank=m.rows - len(expected))
        assert order == (None if vec is None else _order_by_membership(m, vec, expected))

    @settings(max_examples=300, deadline=None)
    @given(_sparse_with_class())
    def test_hypothesis_against_whole_matrix(self, case):
        m, vec = case
        assert cokernel_with_class(m, vec) == _whole_matrix_reference(m, vec)

    def test_corpus_against_whole_matrix(self):
        for m in _smith_corpus():
            ones = [1] * m.rows
            assert cokernel_with_class(m, ones) == _whole_matrix_reference(m, ones), m.rows
            assert cokernel_with_class(m) == _whole_matrix_reference(m, None), m.rows

    def _remainders(self, monkeypatch, m: IntMatrix) -> list[int]:
        sizes = []

        def record(a, cols):
            sizes.append(len(a))
            return _diagonalize(a, cols)

        monkeypatch.setattr(k0lab.zmatrix, "_diagonalize", record)
        cokernel_with_class(m, [1] * m.rows)
        return sizes

    def test_sparse_input_leaves_a_small_remainder(self, monkeypatch):
        dihedral = build_cayley(CayleySpec.dihedral(60)).i_minus_at()
        graph = _chorded_cycle(random.Random(118), 118, sink=False).i_minus_at()
        for m in (dihedral, graph):
            sizes = self._remainders(monkeypatch, m)
            assert len(sizes) == 1 and sizes[0] <= 8, (m.rows, sizes)

    def test_dense_input_reaches_diagonalize_whole(self, monkeypatch, rng):
        m = IntMatrix.from_rows([[rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for _ in range(40)]
                                 for _ in range(40)])
        assert self._remainders(monkeypatch, m) == [40]
        # No ±1 entry at all: 0 in S with weight 3 puts -2 on the diagonal.
        m = build_cayley(CayleySpec.cyclic(118, [0, 3], [3, 3])).i_minus_at()
        assert self._remainders(monkeypatch, m) == [118]

    def test_independent_of_det(self, monkeypatch):
        mats = _smith_corpus()
        expected = [cokernel_with_class(m, [1] * m.rows) for m in mats]

        def refuse(*args, **kwargs):
            raise AssertionError("the Smith core must not run det's elimination")

        monkeypatch.setattr(k0lab.zmatrix, "det", refuse)
        monkeypatch.setattr(k0lab.zmatrix, "_bareiss", refuse)
        assert [cokernel_with_class(m, [1] * m.rows) for m in mats] == expected

    def test_det_runs_without_the_smith_core(self, monkeypatch):
        mats = _sparse_corpus()
        expected = [det(m) for m in mats]

        def refuse(*args, **kwargs):
            raise AssertionError("det must not run the Smith elimination")

        monkeypatch.setattr(k0lab.zmatrix, "_unit_pivots", refuse)
        monkeypatch.setattr(k0lab.zmatrix, "_diagonalize", refuse)
        assert [det(m) for m in mats] == expected


def _contract_checked(real, builds: list[int], log: list[int]):
    """``_unit_pivot_order`` with its contract asserted at every pivot and at the stop.

    builds[0] counts the heap builds (``heapify`` calls); log gets that count
    at each pivot.
    """

    def checked(rows, support, heap):
        order = real(rows, support, heap)
        while True:
            live_cols = {j for j, s in enumerate(support) if s is not None}
            entries = {(i, j): x for i, row in enumerate(rows) if row is not None
                       for j, x in row.items()}
            r, c = sum(row is not None for row in rows), len(live_cols)
            try:
                i, j, p, prow, others = next(order)
            except StopIteration:
                for (i, j), x in entries.items():
                    if x == 1 or x == -1:
                        cost = (len(rows[i]) - 1) * (len(support[j]) - 1)
                        assert 2 * cost >= (r - 1) * (c - 1), (i, j, cost, r, c)
                return
            # A ±1 entry of a live row and column when yielded, then detached.
            assert p in (1, -1) and entries.get((i, j)) == p and j in live_cols
            assert rows[i] is None and support[j] is None
            assert prow == {y: x for (k, y), x in entries.items() if k == i and y != j}
            assert others == {k for k, y in entries if y == j and k != i}
            assert all(i not in support[y] for y in prow)
            log.append(builds[0])
            yield i, j, p, prow, others

    return checked


class TestUnitPivotOrder:
    """det and the Smith core take their ±1 pivots from one ``_unit_pivot_order``."""

    def _pivots(self, monkeypatch, mats) -> list[list[int]]:
        """Run both phases on each matrix under the contract check; per call,
        the number of heap builds before each pivot."""
        expected = [(det(m) if m.rows == m.cols else None, cokernel_with_class(m, [1] * m.rows))
                    for m in mats]
        builds, logs = [0], []
        heapify = k0lab.zmatrix.heapify

        def counted(heap):
            builds[0] += 1
            heapify(heap)

        def fresh_log(real):
            def order(rows, support, heap):
                builds[0] = 0
                logs.append([])
                return _contract_checked(real, builds, logs[-1])(rows, support, heap)
            return order

        monkeypatch.setattr(k0lab.zmatrix, "heapify", counted)
        monkeypatch.setattr(k0lab.zmatrix, "_unit_pivot_order",
                            fresh_log(k0lab.zmatrix._unit_pivot_order))
        got = [(det(m) if m.rows == m.cols else None, cokernel_with_class(m, [1] * m.rows))
               for m in mats]
        assert got == expected
        return logs

    def test_random_sparse_graphs(self, monkeypatch):
        rng = random.Random(22051)
        mats = [_chorded_cycle(rng, v, sink=v % 3 == 0).i_minus_at() for v in range(5, 60, 3)]
        mats += [build_cayley(CayleySpec.dihedral(n)).i_minus_at() for n in range(3, 30, 4)]
        logs = self._pivots(monkeypatch, mats)
        assert len(logs) == 2 * len(mats) and all(logs)

    def test_random_rectangular(self, monkeypatch):
        rng = random.Random(22052)
        mats = []
        for _ in range(60):
            rows, cols = rng.randint(1, 9), rng.randint(1, 9)
            mats.append(IntMatrix.from_rows(
                [[rng.choice([-1, 1, -1, 1, 2, -2, 3]) if rng.random() < 0.3 else 0
                  for _ in range(cols)] for _ in range(rows)]))
        assert sum(map(len, self._pivots(monkeypatch, mats))) > 60

    def test_no_unit_entry_yields_nothing(self):
        rows = [{0: 2, 1: 3}, {0: -2, 2: 5}, {1: 4, 2: -3}]
        support = _supports(rows, 3)
        assert list(_unit_pivot_order(rows, support, [])) == []
        assert all(rows) and support == [{0, 1}, {0, 2}, {1, 2}]

    def test_stale_costs_are_rebuilt_before_stopping(self, monkeypatch):
        # In the Smith core the last pivot of D_4's I - A^t has a stale cost
        # that fails the stop rule; only the rebuilt heap finds it.
        m = build_cayley(CayleySpec.dihedral(4)).i_minus_at()
        det_log, smith_log = self._pivots(monkeypatch, [m])
        assert max(det_log) == 1
        assert smith_log == [1, 1, 1, 1, 1, 2]


@st.composite
def _dense_with_class(draw):
    """Up to 5 x 5 of any shape with entries in -9..9 and no bias to ±1:
    plain, all even, or singular by a repeated row or a zero column, with a
    class vector or none."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = [[draw(st.integers(-9, 9)) for _ in range(cols)] for _ in range(rows)]
    shape = draw(st.sampled_from(["plain", "even", "repeat_row", "zero_col"]))
    if shape == "even":
        entries = [[2 * x for x in row] for row in entries]
    elif shape == "repeat_row" and rows > 1:
        entries[0] = list(entries[-1])
    elif shape == "zero_col":
        k = draw(st.integers(0, cols - 1))
        for row in entries:
            row[k] = 0
    vec = draw(st.none() | st.lists(st.integers(-9, 9), min_size=rows, max_size=rows))
    return IntMatrix.from_rows(entries), vec


def _diagonalize_corpus() -> list[tuple[IntMatrix, list[int]]]:
    """Negative pivots, all-even, rectangular and singular matrices, and
    companion P's with their class g, each with a class vector."""
    mats = [
        IntMatrix.from_rows([[-4, 6], [6, -9]]),
        IntMatrix.from_rows([[-6, -10, 4], [-15, 9, -21], [10, -14, 6]]),
        IntMatrix.from_rows([[-2, 3, -5, 7]]),
        IntMatrix.from_rows([[-3], [5], [-7], [-4]]),
        IntMatrix.from_rows([[2, 4, 6], [8, 10, 12], [14, 16, 20]]),
        IntMatrix.from_rows([[4, -8, 12, 0], [-6, 10, 2, 8]]),
        IntMatrix.from_rows([[0, 0, 0], [0, -6, 4], [0, 9, -6]]),
        IntMatrix.from_rows([[0, 0], [0, 0], [0, 0]]),
        T6_MINUS_I,
    ]
    out = [(m, [(-1) ** i * (i + 1) for i in range(m.rows)]) for m in mats]
    for n, gens in [(30, [2, 3]), (41, [1, 5]), (37, [1, 2, 7]), (36, [1, 3, 4])]:
        spec = CayleySpec.cyclic(n, gens)
        p, g, _ = _companion_presentation(companion_matrix(spec).char_poly, n)
        out.append((p, g))
    return out


def _nearest(x: int, p: int) -> int:
    """The nearest integer to x / p, halves rounded up, in exact rationals."""
    return floor(Fraction(x, p) + Fraction(1, 2))


class TestDiagonalize:
    """_diagonalize + _invariant_factors against the oracle: determinantal
    divisors for the diagonal, lattice membership for the class order."""

    def _check(self, m: IntMatrix, vec):
        a = m.to_lists()
        _diagonalize(a, m.cols)
        assert all(a[i][j] == 0 for i in range(m.rows) for j in range(m.cols) if i != j)
        expected = _diag_by_minors(m)
        diag, group, order = _whole_matrix_reference(m, vec)
        assert diag == expected
        assert group == FinAbGroup.from_invariants(expected, free_rank=m.rows - len(expected))
        assert order == (None if vec is None else _order_by_membership(m, vec, expected))

    @settings(max_examples=300, deadline=None)
    @given(_dense_with_class())
    def test_hypothesis_against_oracle(self, case):
        self._check(*case)

    def test_corpus_against_oracle(self):
        for m, vec in _diagonalize_corpus():
            self._check(m, vec)
            self._check(m, None)

    @staticmethod
    def _column_euclid(a: int, b: int) -> list[list[int]]:
        """[[a, 1, 0], [b, 0, 1]] reduced as the column move documents: the
        lesser nonzero |entry| on top (the upper one on a tie), then the
        nearest quotient, until the lower entry is zero."""
        rows = [[a, 1, 0], [b, 0, 1]]
        while rows[1][0]:
            top, low = rows
            if top[0] == 0 or abs(low[0]) < abs(top[0]):
                top, low = low, top
            q = _nearest(low[0], top[0])
            rows = [top, [y - q * z for y, z in zip(low, top)]]
        return rows

    @staticmethod
    def _row_euclid(p: int, x: int) -> list[int]:
        """[p, x] reduced as the row move documents: x to its nearest
        remainder mod p, and a remainder left swaps in as the pivot."""
        if p == 0:
            p, x = x, p
        while x:
            x -= _nearest(x, p) * p
            if x:
                p, x = x, p
        return [p, x]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-60, 60), st.integers(-60, 60))
    @example(-4, 6)  # ties against a negative pivot: x / p = -3/2, 3/2, -3/2, -5/2
    @example(-4, -6)
    @example(-2, 3)
    @example(-10, 25)
    def test_column_move_takes_nearest_quotients(self, a, b):
        """With identity passengers the rows end as the left transform, which
        pins every quotient taken, not only the diagonal it reaches."""
        rows = [[a, 1, 0], [b, 0, 1]]
        _diagonalize(rows, 1)
        assert rows == self._column_euclid(a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-60, 60), st.integers(-60, 60))
    @example(-4, 6)  # ties against a negative pivot: x / p = -3/2, 3/2, -3/2, -5/2
    @example(-4, -6)
    @example(-2, 3)
    @example(-10, 25)
    def test_row_move_takes_nearest_remainders(self, p, x):
        """The sign of the gcd left on the diagonal pins every remainder."""
        rows = [[p, x, 7]]
        _diagonalize(rows, 2)
        assert rows == [self._row_euclid(p, x) + [7]]

    def test_companion_at_ten_thousand(self):
        """P = T^n - I for S = {2, 3} at n = 10^4 has 4,000-bit entries."""
        spec = CayleySpec.cyclic(10**4, [2, 3])
        p, g, _ = _companion_presentation(companion_matrix(spec).char_poly, spec.n)
        diag, group, order = cokernel_with_class(p, g)
        assert prod(diag) == group.order() == abs(cayley_det(spec))
        assert order == 1


@st.composite
def _nonsingular_with_class(draw):
    """Square up to 5 x 5, entries in -9..9, plain or all even, nonsingular,
    with a class vector."""
    n = draw(st.integers(1, 5))
    entries = [[draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        entries = [[2 * x for x in row] for row in entries]
    m = IntMatrix.from_rows(entries)
    assume(det(m) != 0)
    return m, draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))


def _modulus_corpus() -> list[tuple[IntMatrix, list[int]]]:
    """Nonsingular matrices with a class vector: negative entries, 1 x 1,
    det ±1 (D = 1), all even, a sparse I - A^t, and companion P's with
    their class g, up to n = 10^4."""
    mats = [
        IntMatrix.from_rows([[-4, 6], [7, -9]]),
        IntMatrix.from_rows([[-6, -10, 4], [-15, 9, -21], [10, -14, 7]]),
        IntMatrix.from_rows([[-12]]),
        IntMatrix.from_rows([[7]]),
        IntMatrix.from_rows([[2, 3, 0], [1, 2, -5], [0, 0, -1]]),
        IntMatrix.from_rows([[2, 4, 6], [8, 10, 12], [14, 16, 20]]),
        IntMatrix.from_rows([[-6, 4, 0], [0, 6, -4], [10, 0, 8]]),
        T6_MINUS_I,
        c6_23_matrix(),
    ]
    out = [(m, [(-1) ** i * (i + 2) for i in range(m.rows)]) for m in mats]
    for n, gens in [(30, [2, 3]), (41, [1, 5]), (37, [1, 2, 7]), (36, [1, 3, 5]), (10**4, [2, 3])]:
        spec = CayleySpec.cyclic(n, gens)
        out.append(_companion_presentation(companion_matrix(spec).char_poly, n)[:2])
    return out


class TestModulus:
    """cokernel_with_class over Z/D equals the exact reduction when D is a
    multiple of the largest invariant factor, and is Coker(m) / D Coker(m)
    for any D."""

    @staticmethod
    def _check_multiples(m: IntMatrix, vec):
        exact = cokernel_with_class(m, vec)
        for k in (1, 2, 3):
            assert cokernel_with_class(m, vec, modulus=k * abs(det(m))) == exact, (m, k)

    @settings(max_examples=300, deadline=None)
    @given(_nonsingular_with_class())
    def test_hypothesis_multiple_of_det_is_exact(self, case):
        self._check_multiples(*case)

    def test_corpus_multiple_of_det_is_exact(self):
        corpus = _modulus_corpus()
        assert 1 in {abs(det(m)) for m, _ in corpus}
        for m, vec in corpus:
            self._check_multiples(m, vec)
            assert cokernel_with_class(m, modulus=abs(det(m))) == cokernel_with_class(m)

    @settings(max_examples=300, deadline=None)
    @given(_dense_with_class(), st.integers(1, 60))
    @example((IntMatrix.from_rows([[2, 0], [0, 12]]), [1, 1]), 8)
    @example((IntMatrix.from_rows([[2, 0], [0, 12]]), [1, 1]), 9)
    @example((IntMatrix.from_rows([[4, 0], [0, 6], [0, 0]]), [1, 1, 1]), 10)
    def test_any_modulus_gives_the_cokernel_mod_d(self, case, d):
        """+ Z/gcd(s_i, d), a free summand giving Z/d, with [vec] mapped into
        it: the exact cokernel of [m | d I]."""
        m, vec = case
        diag, group, order = cokernel_with_class(m, vec, modulus=d)
        exact = cokernel_with_class(m)[0]
        padded = exact + (0,) * (m.rows - len(exact))
        assert diag == _invariant_factors([gcd(s, d) for s in padded])
        stacked = IntMatrix.from_rows(
            [list(m.row(i)) + [d * (i == j) for j in range(m.rows)] for i in range(m.rows)]
        )
        assert (diag, group, order) == cokernel_with_class(stacked, vec)

    @pytest.mark.parametrize("modulus", [-6, -1, 0])
    def test_modulus_must_be_positive(self, modulus):
        with pytest.raises(ValueError, match="modulus must be positive"):
            cokernel_with_class(T6_MINUS_I, [1, 1, 1], modulus=modulus)


class TestSparseInput:
    """det and the Smith core take I - A^t as sparse rows and as a dense IntMatrix alike."""

    @staticmethod
    def _graphs():
        yield from (build_cayley(CayleySpec.dihedral(n)) for n in range(1, 61))
        rng = random.Random(20011)
        for v in range(40, 119, 6):
            for sink in (False, True):
                yield _chorded_cycle(rng, v, sink)
        for n in (1, 2, 3):
            for flat in product(range(3), repeat=n * n):
                yield DirectedMultigraph([flat[i * n : (i + 1) * n] for i in range(n)])

    def test_matches_the_dense_matrix(self):
        for g in self._graphs():
            n, adj = g.vertex_count, g.adjacency
            dense = IntMatrix(n, n, tuple((i == j) - adj[j][i] for i in range(n) for j in range(n)))
            sparse = g.i_minus_at()
            assert sparse.to_lists() == dense.to_lists(), adj
            assert det(sparse) == det(dense), adj
            ones = [1] * n
            assert cokernel_with_class(sparse, ones) == cokernel_with_class(dense, ones), adj


class TestContent:
    """The Smith core divides the content c of m out, so the ±1 phase runs
    on m / c, and reads the pivot rows' class coordinates for the order."""

    @settings(max_examples=200, deadline=None)
    @given(_dense_with_class(), st.integers(2, 6))
    def test_scaled_matrix_against_the_whole_reduction(self, case, c):
        m, vec = case
        scaled = IntMatrix(m.rows, m.cols, tuple(c * x for x in m.entries))
        assert cokernel_with_class(scaled, vec) == _whole_matrix_reference(scaled, vec)

    @pytest.mark.parametrize(
        "gens, weights",
        [
            ((0, 1), (1, 2)),  # f = -2x: K0 = (Z/2)^n
            ((0, 1), (3, 2)),  # f = -2 - 2x: singular at even n
            ((0, 2, 3), (1, 2, 4)),  # f = -2x^2 - 4x^3
            ((0, 1, 2), (4, 3, 3)),  # f = -3 - 3x - 3x^2
        ],
    )
    def test_content_specs_against_oracle(self, gens, weights):
        """I - A^t of a cyclic spec whose f has content > 1: determinantal
        divisors for the diagonal, lattice membership for the order of [1]."""
        for n in range(4, 8):
            if gcd(n, *gens) != 1:
                continue
            m = build_cayley(CayleySpec.cyclic(n, gens, weights)).i_minus_at()
            dense = IntMatrix.from_rows(m.to_lists())
            expected = _diag_by_minors(dense)
            diag, group, order = cokernel_with_class(m, [1] * n)
            assert diag == expected, (n, gens, weights)
            assert order == _order_by_membership(dense, [1] * n, expected), (n, gens, weights)

    def test_large_content_spec_stays_sparse(self, monkeypatch):
        """C_3000({0, 1}, (1, 2)): I - A^t = -2 times a permutation, which
        without the content went to _diagonalize whole, n^2 cells."""
        from k0lab.k0 import analyze

        sizes = []
        real = k0lab.zmatrix._diagonalize

        def recording(a, cols):
            sizes.append(len(a))
            return real(a, cols)

        monkeypatch.setattr(k0lab.zmatrix, "_diagonalize", recording)
        report = analyze(CayleySpec.cyclic(3000, [0, 1], [1, 2]), method="full")
        assert report.k0 == FinAbGroup((2,) * 3000) and report.identity_order == 2
        assert abs(report.det_value) == 2**3000 and max(sizes) <= 1


class TestRank:
    def test_all_minus_ones(self):
        assert rank(IntMatrix.from_rows([[-1] * 6 for _ in range(6)])) == 1

    def test_identity(self):
        assert rank(identity_matrix(5)) == 5

    def test_zero(self):
        assert rank(zero_matrix(3, 3)) == 0


class TestMatPow:
    def test_companion_sixth_power(self):
        t = IntMatrix.from_rows([[0, 0, 1], [1, 0, 1], [0, 1, 0]])
        assert mat_pow(t, 6).to_lists() == [[1, 1, 2], [2, 2, 3], [1, 2, 2]]
        assert mat_sub(mat_pow(t, 6), identity_matrix(3)) == T6_MINUS_I

    def test_zeroth_power(self, rng):
        m = random_matrix(rng, 4, 4)
        assert mat_pow(m, 0) == identity_matrix(4)

    def test_fibonacci_entries(self):
        m = IntMatrix.from_rows([[0, 1], [1, 1]])
        assert mat_pow(m, 10).to_lists() == [[34, 55], [55, 89]]


@pytest.mark.parametrize(
    "build, bad, good, expected",
    [
        (IntMatrix.from_rows, [[2.5]], [[True, 2]], IntMatrix(1, 2, (1, 2))),
        (IntMatrix.from_rows, [[1, 2], [3, Fraction(1, 2)]], [[1, 2], [3, False]],
         IntMatrix(2, 2, (1, 2, 3, 0))),
        (Circulant.of, [0.5, 1.2], [False, True], Circulant((0, 1))),
        (IntPolynomial.of, [1.9, 2.2], [1, True], IntPolynomial((1, 1))),
        (FinAbGroup.from_invariants, [2.7, 4.2], [2, True, 4], FinAbGroup((2, 4))),
        (FinAbGroup.from_invariants, iter([2, 4.0]), iter([2, 4]), FinAbGroup((2, 4))),
        # The dataclass constructors check too, and store a bool as given.
        (lambda e: IntMatrix(1, len(e), e), (2.5,), (True, 2), IntMatrix(1, 2, (True, 2))),
        (FinAbGroup, (2.0, 4.0), (2, 4), FinAbGroup((2, 4))),
        (lambda r: FinAbGroup((2,), r), 1.0, 1, FinAbGroup((2,), 1)),
        (Circulant, (0.5, 1.2), (False, True), Circulant((False, True))),
        (IntPolynomial, (1.9, 2.2), (1, True), IntPolynomial((1, True))),
    ],
)
def test_constructors_refuse_non_int_input(build, bad, good, expected):
    # Truncating would give [[2.5]] the cokernel Z_2 and the invariants
    # [2.7, 4.2] the group Z_2 + Z_4.  A bool counts as an int, stored as 0 or 1.
    with pytest.raises(ValueError):
        build(bad)
    assert repr(build(good)) == repr(expected)


class TestCokernel:
    def test_diagonal_input(self):
        m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 7]])
        assert cokernel(m) == FinAbGroup((7,))

    def test_zero_matrix(self):
        assert cokernel(zero_matrix(2, 2)) == FinAbGroup(free_rank=2)

    def test_already_smith(self):
        assert cokernel(IntMatrix.from_rows([[2, 0], [0, 4]])) == FinAbGroup((2, 4))

    def test_rectangular_surplus_rows(self):
        m = IntMatrix.from_rows([[2], [0]])
        assert cokernel(m) == FinAbGroup((2,), free_rank=1)


class TestElementOrder:
    def test_c6_23_all_ones(self):
        assert cokernel_with_class(c6_23_matrix(), [1] * 6)[2] == 1

    def test_weighted_three_cycle(self):
        m = build_cayley(CayleySpec.cyclic(3, [1], [3])).i_minus_at()
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
        m = zero_matrix(2, 2)
        assert cokernel_with_class(m, [1, 0])[2] is None
        # A surplus row against a nonzero coordinate of the reduced class.
        m = IntMatrix.from_rows([[2, 0], [0, 3], [0, 0]])
        assert cokernel_with_class(m, [1, 1, 1])[2] is None

    def test_order_is_least_lattice_multiple(self, rng):
        corpus = [
            (c6_23_matrix(), [1] * 6),
            (build_cayley(CayleySpec.cyclic(3, [1], [3])).i_minus_at(), [1, 1, 1]),
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
            assert diag == cokernel_with_class(m)[0]
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


class TestIntText:
    def test_matches_str_within_the_limit(self):
        for x in (0, 7, -7, 10**40, -(10**40)):
            assert int_text(x) == str(x)

    def test_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        x = 10 ** (limit + 10) + 123
        assert int_text(x) == "1" + "0" * (limit + 7) + "123"
        assert int_text(-x) == "-" + int_text(x)
        assert FinAbGroup((x,)).display() == "Z_" + int_text(x)
        assert sys.get_int_max_str_digits() == limit


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
        # Past the digit limit only plain ASCII decimals are read through Decimal.
        for token in ("x", "1.5", "1e3", "0x10", "--1", "1" * 5000 + "a", "\u0661" * 5000):
            with pytest.raises(MatrixFormatError, match="^line 2: entries must be integers$") as exc:
                read_matrix(f"1 2\n1 {token}\n")
            assert exc.value.line == 2

    def test_missing_rows(self):
        with pytest.raises(MatrixFormatError):
            read_matrix("3 2\n1 2\n")

    def test_rejects_extra_rows(self):
        assert read_matrix("2 2\n1 0\n0 1\n\n") == identity_matrix(2)
        for extra in ("5 5", "7 7 7"):
            with pytest.raises(MatrixFormatError) as exc:
                read_matrix(f"2 2\n1 0\n0 1\n{extra}\n")
            assert exc.value.line == 4
