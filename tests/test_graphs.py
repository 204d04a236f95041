import itertools
import random
import tracemalloc
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0lab.errors import GroupTableError, InvalidSpecError, NotGeneratingError
from k0lab.graphs import (
    CayleySpec,
    CyclicGroup,
    DihedralGroup,
    DirectedMultigraph,
    build_cayley,
    build_complete_graph,
    in_split,
    is_purely_infinite_simple,
    is_strongly_connected,
    k_cycle,
    one_class_partition,
    read_group_table,
    singleton_partition,
    write_group_table,
)
from k0lab.k0 import analyze
from k0lab.zmatrix import cokernel, det

from oracle import every_cycle_has_exit, has_cycle, hereditary_saturated_closure, pis_by_closure


def _round_trip(group):
    """The group through the table format; the loader checks every group axiom."""
    return read_group_table(write_group_table(group))


class TestGroups:
    def test_cyclic_addition(self):
        g = CyclicGroup(6)
        assert g.product(2, 3) == 5
        assert g.product(4, 5) == 3
        _round_trip(g)

    def test_trivial_group(self):
        g = CyclicGroup(1)
        assert g.order == 1 and g.product(0, 0) == 0

    def test_dihedral_relations(self):
        table, r, s = DihedralGroup(3), 1, 3
        assert table.order == 6
        srs = table.product(table.product(s, r), s)
        rr = table.product(r, r)
        assert srs == rr  # s r s = r^{-1} = r^2
        _round_trip(table)

    def test_dihedral_order_two(self):
        spec = CayleySpec.dihedral(1)
        table, (r, s) = spec.group, spec.gens
        assert table.order == 2
        assert r == table.identity

    def test_dihedral_four(self):
        table, r, s = DihedralGroup(4), 1, 4
        r4 = table.identity
        for _ in range(4):
            r4 = table.product(r4, r)
        assert r4 == table.identity
        rs = table.product(r, s)
        assert table.product(rs, rs) == table.identity

    def test_table_file_roundtrip(self):
        table = DihedralGroup(3)
        parsed = _round_trip(table)
        assert all(
            parsed.product(a, b) == table.product(a, b) for a in range(6) for b in range(6)
        )

    def test_small_groups_pass_the_table_loader(self):
        # Latin square, two-sided identity and associativity through the
        # loader's exhaustive check, then the defining relations of D_n.
        for n in range(1, 13):
            for group in (CyclicGroup(n), DihedralGroup(n)):
                parsed = _round_trip(group)
                assert parsed.order == group.order
            d = DihedralGroup(n)
            r, s, e = 1 % n, n, d.identity
            power = e
            for _ in range(n):
                power = d.product(power, r)
            assert power == e  # r^n = e
            assert d.product(s, s) == e  # s^2 = e
            r_inverse = next(g for g in range(n) if d.product(r, g) == e)
            assert d.product(d.product(s, r), s) == r_inverse  # s r s = r^-1

    def test_cayley_vertex_labels(self):
        # Labels reach no text or JSON output, only to_dot, so no golden
        # digest pins them.
        assert build_cayley(CayleySpec.dihedral(1)).vertex_labels == ("e", "s")
        assert build_cayley(CayleySpec.dihedral(2)).vertex_labels == ("e", "r", "s", "r^1s")
        assert build_cayley(CayleySpec.dihedral(3)).vertex_labels == (
            "e", "r", "r^2", "s", "r^1s", "r^2s"
        )
        assert build_cayley(CayleySpec.cyclic(4, [1])).vertex_labels == ("0", "1", "2", "3")

    def test_specs_build_no_table(self):
        # A cyclic or dihedral spec is O(1) in memory; a multiplication
        # table at these sizes would take well over 100 MB.
        for make in (lambda: CayleySpec.cyclic(2000, [2, 3]), lambda: CayleySpec.dihedral(1000)):
            tracemalloc.start()
            try:
                make()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, peak

    def test_table_file_errors(self):
        with pytest.raises(GroupTableError) as exc:
            read_group_table("x\n")
        assert exc.value.line == 1
        with pytest.raises(GroupTableError) as exc:
            read_group_table("2\n0 1\n1 2\n")
        assert exc.value.line == 3
        # valid shape, broken associativity/latin square
        with pytest.raises(InvalidSpecError):
            read_group_table("2\n0 1\n1 1\n")

    def test_table_file_rejects_extra_rows(self):
        assert read_group_table("2\n0 1\n1 0\n\n  \n").order == 2
        for extra in ("0 1", "x"):
            with pytest.raises(GroupTableError) as exc:
                read_group_table(f"2\n0 1\n1 0\n\n{extra}\n")
            assert exc.value.line == 5


class TestBuildCayley:
    def test_c6_23_adjacency(self):
        g = build_cayley(CayleySpec.cyclic(6, [2, 3]))
        for i in range(6):
            row = [0] * 6
            row[(i + 2) % 6] += 1
            row[(i + 3) % 6] += 1
            assert list(g.adjacency[i]) == row

    def test_parallel_edges(self):
        g = build_cayley(CayleySpec.cyclic(5, [1], [4]))
        for i in range(5):
            assert g.adjacency[i][(i + 1) % 5] == 4
            assert g.out_degree(i) == 4

    def test_single_vertex_loops(self):
        g = build_cayley(CayleySpec.cyclic(1, [0], [3]))
        assert g.adjacency == ((3,),)

    def test_out_degree_equals_total_weight(self):
        for spec in (
            CayleySpec.cyclic(7, [1, 2, 4], [1, 2, 3]),
            CayleySpec.cyclic(4, [0, 1], [2, 2]),
            CayleySpec.dihedral(5),
        ):
            g = build_cayley(spec)
            assert all(g.out_degree(v) == spec.total_weight for v in range(g.vertex_count))

    def test_cyclic_adjacency_is_circulant(self):
        g = build_cayley(CayleySpec.cyclic(9, [1, 3, 7], [2, 1, 3]))
        n = g.vertex_count
        for i in range(n):
            for j in range(n):
                assert g.adjacency[i][j] == g.adjacency[0][(j - i) % n]

    def test_generators_reduced_mod_n(self):
        spec = CayleySpec.cyclic(6, [8, 3])
        assert spec.gens == (2, 3)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            CayleySpec.cyclic(6, [2, 3], [1, 0])  # zero weight
        with pytest.raises(InvalidSpecError):
            CayleySpec.cyclic(6, [2, 8])  # duplicates after reduction
        with pytest.raises(InvalidSpecError):
            CayleySpec.cyclic(6, [])
        with pytest.raises(InvalidSpecError):
            CayleySpec.cyclic(6, [1, 2], [1])


class TestCompleteGraph:
    def test_three_with_loop(self):
        g = build_complete_graph(3, 1)
        assert g.adjacency == ((1, 1, 1), (1, 1, 1), (1, 1, 1))

    def test_two_with_double_loops(self):
        g = build_complete_graph(2, 2)
        assert g.adjacency == ((2, 1), (1, 2))

    def test_no_loops(self):
        g = build_complete_graph(4, 0)
        assert all(g.adjacency[i][i] == 0 for i in range(4))
        assert all(g.adjacency[i][j] == 1 for i in range(4) for j in range(4) if i != j)

    def test_matches_cayley_construction(self):
        for n in (2, 3, 5):
            for loops in (1, 2):
                assert (
                    build_complete_graph(n, loops).adjacency
                    == build_cayley(CayleySpec.complete(n, loops)).adjacency
                )


class TestPredicates:
    def test_plain_cycle_not_pis(self):
        assert not is_purely_infinite_simple(k_cycle(5, 1))

    def test_c6_23_is_pis(self):
        assert is_purely_infinite_simple(build_cayley(CayleySpec.cyclic(6, [2, 3])))

    def test_sink_not_pis(self):
        g = DirectedMultigraph.from_rows([[0]])
        assert not is_purely_infinite_simple(g)

    def test_cycle_with_sink_branch_not_pis(self):
        # two-cycle with an extra edge into a sink
        g = DirectedMultigraph.from_rows([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        assert not is_purely_infinite_simple(g)

    def test_single_vertex_two_loops_is_pis(self):
        assert is_purely_infinite_simple(DirectedMultigraph.from_rows([[2]]))

    def test_has_cycle(self):
        assert has_cycle(k_cycle(3, 1))
        assert not has_cycle(DirectedMultigraph.from_rows([[0, 1], [0, 0]]))

    def test_every_cycle_has_exit(self):
        assert not every_cycle_has_exit(k_cycle(4, 1))
        assert every_cycle_has_exit(k_cycle(4, 2))
        # loop with exit but the exit leads to an exitless cycle
        g = DirectedMultigraph.from_rows([[1, 1, 0], [0, 0, 1], [0, 1, 0]])
        assert not every_cycle_has_exit(g)

    def test_closure_pulls_saturated_parents(self):
        # v0 -> v1 -> sink v2; closure of the sink saturates backwards
        g = DirectedMultigraph.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert hereditary_saturated_closure(g, [2]) == {0, 1, 2}

    def test_closure_cannot_enter_cycle(self):
        g = DirectedMultigraph.from_rows([[0, 1, 1], [1, 0, 0], [0, 0, 0]])
        assert hereditary_saturated_closure(g, [2]) == {2}

    def test_strongly_connected_examples(self):
        assert is_strongly_connected(build_cayley(CayleySpec.cyclic(6, [2, 3])))
        assert not is_strongly_connected(build_cayley(CayleySpec.cyclic(6, [2])))
        assert not is_strongly_connected(build_cayley(CayleySpec.cyclic(6, [2, 4])))

    def test_strongly_connected_iff_generating_cyclic(self):
        for n in range(1, 13):
            for size in (1, 2):
                for gens in itertools.combinations(range(n), size):
                    spec = CayleySpec.cyclic(n, gens)
                    assert is_strongly_connected(build_cayley(spec)) == (gcd(n, *gens) == 1)

    def test_strongly_connected_dihedral_subgroup(self):
        table, r, s = DihedralGroup(4), 1, 4
        rotations_only = CayleySpec(table, (r,), (1,))
        assert not is_strongly_connected(build_cayley(rotations_only))
        full = CayleySpec(table, (r, s), (1, 1))
        assert is_strongly_connected(build_cayley(full))


def _all_graphs(n, entries):
    """Every n-vertex multigraph whose adjacency entries are drawn from ``entries``."""
    for flat in itertools.product(entries, repeat=n * n):
        yield DirectedMultigraph.from_rows([flat[i * n : (i + 1) * n] for i in range(n)])


class TestPisAgreesWithClosure:
    """The strong-component predicate against the closure criterion in ``oracle``."""

    def _assert_agree(self, graphs):
        verdicts = {True: 0, False: 0}
        for g in graphs:
            fast = is_purely_infinite_simple(g)
            assert fast == pis_by_closure(g), g.adjacency
            verdicts[fast] += 1
        return verdicts

    def test_every_graph_up_to_three_vertices_entries_0_to_2(self):
        verdicts = self._assert_agree(
            g for n in (1, 2, 3) for g in _all_graphs(n, range(3))
        )
        assert sum(verdicts.values()) == 3 + 3**4 + 3**9
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_every_four_vertex_graph_entries_0_1(self):
        verdicts = self._assert_agree(_all_graphs(4, range(2)))
        assert sum(verdicts.values()) == 2**16
        assert verdicts[True] > 1000 and verdicts[False] > 1000

    def test_seeded_random_graphs_up_to_nine_vertices(self):
        rng = random.Random(20061)

        def draw():
            n = rng.randint(1, 9)
            density = rng.uniform(0.05, 0.5)
            return DirectedMultigraph.from_rows(
                [[rng.randint(1, 2) if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
            )

        verdicts = self._assert_agree(draw() for _ in range(3000))
        assert verdicts[True] > 300 and verdicts[False] > 300

    def test_long_path_into_two_loops_has_no_recursion_limit(self):
        # 1,200 vertices in a path, deeper than the default recursion limit,
        # ending in a vertex with two loops: purely infinite simple.
        n = 1200
        rows = [[0] * n for _ in range(n)]
        for v in range(n - 1):
            rows[v][v + 1] = 1
        rows[n - 1][n - 1] = 2
        g = DirectedMultigraph.from_rows(rows)
        assert is_purely_infinite_simple(g)
        assert not is_strongly_connected(g)
        rows[n - 1][0] = 1
        assert is_strongly_connected(DirectedMultigraph.from_rows(rows))


class TestCayleyIsPis:
    """The W >= 2 shortcut that ``analyze`` takes for Cayley specs."""

    def test_weight_one_cycle(self):
        assert not analyze(CayleySpec.cyclic(5, [1])).pis

    def test_weight_three(self):
        assert analyze(CayleySpec.cyclic(5, [1], [3])).pis

    def test_dihedral(self):
        assert analyze(CayleySpec.dihedral(5)).pis

    def test_non_generating_raises(self):
        with pytest.raises(NotGeneratingError):
            analyze(CayleySpec.cyclic(6, [2]))

    def test_matches_graph_predicate_exhaustively(self):
        checked = 0
        for n in range(1, 13):
            for size in (1, 2, 3):
                for gens in itertools.combinations(range(n), size):
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in itertools.product((1, 2, 3), repeat=size):
                        spec = CayleySpec.cyclic(n, gens, weights)
                        checked += 1
                        assert analyze(spec).pis == is_purely_infinite_simple(
                            build_cayley(spec)
                        ), (n, gens, weights)
        assert checked > 4000


class TestInSplit:
    def test_one_class_partition_is_identity(self):
        g = build_cayley(CayleySpec.cyclic(6, [2, 3]))
        split = in_split(g, one_class_partition(g))
        assert split.adjacency == g.adjacency

    def test_two_cycle_single_edge_class(self):
        g = k_cycle(2, 1)
        split = in_split(g, singleton_partition(g))
        assert split.adjacency == g.adjacency

    def test_singleton_split_preserves_flow_invariants(self):
        corpus = [
            k_cycle(4, 2),
            build_complete_graph(3, 1),
            build_complete_graph(4, 2),
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
        g = DirectedMultigraph.from_rows(adj)
        split = in_split(g, singleton_partition(g))
        assert det(g.i_minus_a()) == det(split.i_minus_a())
        assert cokernel(g.i_minus_a()) == cokernel(split.i_minus_a())

    def test_malformed_partitions(self):
        g = k_cycle(3, 2)
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


class TestDotExport:
    def test_labels_and_multiplicity(self):
        g = build_cayley(CayleySpec.cyclic(3, [1], [2]))
        dot = g.to_dot()
        assert 'label="0"' in dot and 'label="2"' in dot
        assert 'label="(2)"' in dot
        assert dot.startswith("digraph")

    def test_single_edges_unlabeled(self):
        g = build_complete_graph(2, 0)
        dot = g.to_dot()
        assert "->" in dot and "label=\"(" not in dot
