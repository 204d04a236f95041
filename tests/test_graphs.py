import itertools
import random
import tracemalloc
from dataclasses import FrozenInstanceError
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from k0lab.errors import GroupTableError, InvalidSpecError, NotGeneratingError
from k0lab.graphs import (
    CayleySpec,
    CyclicGroup,
    DihedralGroup,
    DirectedMultigraph,
    FiniteGroupTable,
    build_cayley,
    is_purely_infinite_simple,
    is_strongly_connected,
    read_group_table,
    write_group_table,
)
from k0lab.k0 import analyze

from oracle import (
    edges,
    every_cycle_has_exit,
    has_cycle,
    hereditary_saturated_closure,
    pis_by_closure,
)


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

    def test_table_file_refuses_what_int_reads_past_the_format(self):
        """int() reads '_' separators and non-ASCII digits; the format has neither."""
        assert read_group_table("+2\n+0 1\n1 +0\n").order == 2
        for order in ("2_0", "\u0662", "\uff12"):
            with pytest.raises(GroupTableError, match="^line 1: order must be an integer$"):
                read_group_table(f"{order}\n0 1\n1 0\n")
        for token in ("0_0", "\u0660", "0\u00a0"):
            with pytest.raises(GroupTableError, match="^line 3: entries must be integers$"):
                read_group_table(f"2\n0 1\n1 {token}\n")

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

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CayleySpec.cyclic(6, [2.7, 3], [1.9, 1]),  # not truncated to C_6({2, 3})
            lambda: CayleySpec.cyclic(6, [8.0, 3]),
            lambda: CayleySpec.cyclic(6, ["2", 3]),
            lambda: CayleySpec(CyclicGroup(30), (2, 3), (1.5, 1)),
            lambda: CayleySpec.cyclic(6.0, [2, 3]),
            lambda: CayleySpec.dihedral(7.0),
            lambda: CayleySpec(FiniteGroupTable(2.0, ((0, 1), (1, 0))), (1,), (1,)),
        ],
        ids=["float-gens-and-weights", "float-gen", "str-gen", "float-weight", "float-n",
             "float-dihedral-n", "float-table-order"],
    )
    def test_non_int_input_refused(self, make):
        with pytest.raises(InvalidSpecError):
            make()

    def test_bool_input_counts_as_int(self):
        spec = CayleySpec.cyclic(6, [True, 3], [True, 2])
        assert spec == CayleySpec.cyclic(6, [1, 3], [1, 2])
        assert analyze(spec).det_value == analyze(CayleySpec.cyclic(6, [1, 3], [1, 2])).det_value

    def test_table_entry_outside_the_group(self):
        # an unvalidated table may name a non-element; no edge may point there
        for bad in (-1, 2):
            spec = CayleySpec(FiniteGroupTable(2, ((0, bad), (1, 0))), (1,), (1,))
            with pytest.raises(InvalidSpecError):
                build_cayley(spec)


class TestCompleteGraph:
    def test_three_with_loop(self):
        g = build_cayley(CayleySpec.complete(3, 1))
        assert g.adjacency == ((1, 1, 1), (1, 1, 1), (1, 1, 1))

    def test_two_with_double_loops(self):
        g = build_cayley(CayleySpec.complete(2, 2))
        assert g.adjacency == ((2, 1), (1, 2))


class TestPredicates:
    def test_plain_cycle_not_pis(self):
        assert not is_purely_infinite_simple(build_cayley(CayleySpec.cyclic(5, [1])))

    def test_c6_23_is_pis(self):
        assert is_purely_infinite_simple(build_cayley(CayleySpec.cyclic(6, [2, 3])))

    def test_sink_not_pis(self):
        g = DirectedMultigraph([[0]])
        assert not is_purely_infinite_simple(g)

    def test_cycle_with_sink_branch_not_pis(self):
        # two-cycle with an extra edge into a sink
        g = DirectedMultigraph([[0, 1, 0], [1, 0, 1], [0, 0, 0]])
        assert not is_purely_infinite_simple(g)

    def test_single_vertex_two_loops_is_pis(self):
        assert is_purely_infinite_simple(DirectedMultigraph([[2]]))

    def test_has_cycle(self):
        assert has_cycle(build_cayley(CayleySpec.cyclic(3, [1])))
        assert not has_cycle(DirectedMultigraph([[0, 1], [0, 0]]))

    def test_every_cycle_has_exit(self):
        assert not every_cycle_has_exit(build_cayley(CayleySpec.cyclic(4, [1])))
        assert every_cycle_has_exit(build_cayley(CayleySpec.cyclic(4, [1], [2])))
        # loop with exit but the exit leads to an exitless cycle
        g = DirectedMultigraph([[1, 1, 0], [0, 0, 1], [0, 1, 0]])
        assert not every_cycle_has_exit(g)

    def test_closure_pulls_saturated_parents(self):
        # v0 -> v1 -> sink v2; closure of the sink saturates backwards
        g = DirectedMultigraph([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert hereditary_saturated_closure(g, [2]) == {0, 1, 2}

    def test_closure_cannot_enter_cycle(self):
        g = DirectedMultigraph([[0, 1, 1], [1, 0, 0], [0, 0, 0]])
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
        yield DirectedMultigraph([flat[i * n : (i + 1) * n] for i in range(n)])


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
            return DirectedMultigraph(
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
        g = DirectedMultigraph(rows)
        assert is_purely_infinite_simple(g)
        assert not is_strongly_connected(g)
        rows[n - 1][0] = 1
        assert is_strongly_connected(DirectedMultigraph(rows))


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


class TestDotExport:
    def test_labels_and_multiplicity(self):
        g = build_cayley(CayleySpec.cyclic(3, [1], [2]))
        dot = g.to_dot()
        assert 'label="0"' in dot and 'label="2"' in dot
        assert 'label="(2)"' in dot
        assert dot.startswith("digraph")

    def test_single_edges_unlabeled(self):
        g = DirectedMultigraph([[0, 1], [1, 0]])
        dot = g.to_dot()
        assert "->" in dot and "label=\"(" not in dot

    def test_bytes_of_d3_and_a_raw_multigraph(self):
        # Targets print ascending whatever order the generators reach them in:
        # from s, r leads to r^2 s and s to e, and e comes first.
        assert build_cayley(CayleySpec.dihedral(3)).to_dot() == (
            "digraph graph {\n"
            '  n0 [label="e"];\n  n1 [label="r"];\n  n2 [label="r^2"];\n'
            '  n3 [label="s"];\n  n4 [label="r^1s"];\n  n5 [label="r^2s"];\n'
            "  n0 -> n1;\n  n0 -> n3;\n  n1 -> n2;\n  n1 -> n4;\n  n2 -> n0;\n  n2 -> n5;\n"
            "  n3 -> n0;\n  n3 -> n5;\n  n4 -> n1;\n  n4 -> n3;\n  n5 -> n2;\n  n5 -> n4;\n"
            "}\n"
        )
        g = DirectedMultigraph([[2, 1, 0], [0, 0, 3], [1, 0, 1]], ["a", "b", "c"])
        assert g.to_dot("raw") == (
            "digraph raw {\n"
            '  n0 [label="a"];\n  n1 [label="b"];\n  n2 [label="c"];\n'
            '  n0 -> n0 [label="(2)"];\n  n0 -> n1;\n  n1 -> n2 [label="(3)"];\n'
            "  n2 -> n0;\n  n2 -> n2;\n"
            "}\n"
        )
        assert edges(g) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 2, 0), (1, 2, 1), (1, 2, 2), (2, 0, 0), (2, 2, 0)
        ]


class TestMultigraphConstruction:
    def test_invalid_dense_rows(self):
        for rows in ([], [[0, 1]], [[0, 1], [1]], [[0, 1], [1, 0, 0]], [[0, -1], [1, 0]]):
            with pytest.raises(InvalidSpecError):
                DirectedMultigraph(rows)
        with pytest.raises(InvalidSpecError):
            DirectedMultigraph([[1]], ["a", "b"])

    def test_invalid_out_rows(self):
        for rows in ([], [{1: 1}], [{-1: 1}], [{0: -1}], [{0: 1}, {0: 2, 1: -1}]):
            with pytest.raises(InvalidSpecError):
                DirectedMultigraph.from_out_rows(rows)
        with pytest.raises(InvalidSpecError):
            DirectedMultigraph.from_out_rows([{0: 1}], ["a", "b"])

    def test_non_int_multiplicities_refused(self):
        for bad in (1.5, 0.0, Fraction(1), Decimal(2), "1", None):
            with pytest.raises(InvalidSpecError):
                DirectedMultigraph([[bad, 1], [1, 0]])
            with pytest.raises(InvalidSpecError):
                DirectedMultigraph.from_out_rows([{0: bad, 1: 1}, {0: 1}])
        with pytest.raises(InvalidSpecError):
            DirectedMultigraph.from_out_rows([{0.0: 1}, {0: 1}])  # a target, not a multiplicity

    def test_bool_multiplicities_are_ints(self):
        dense = DirectedMultigraph([[True, True], [True, False]])
        sparse = DirectedMultigraph.from_out_rows([{0: True, 1: True}, {0: True, 1: False}])
        for g in (dense, sparse):
            assert g == DirectedMultigraph([[1, 1], [1, 0]])
            assert analyze(g).det_value == -1

    def test_out_rows_match_dense_rows(self):
        dense = DirectedMultigraph([[0, 2, 1], [1, 0, 0], [0, 3, 1]], ["x", "y", "z"])
        sparse = DirectedMultigraph.from_out_rows(
            [{2: 1, 1: 2, 0: 0}, {0: 1}, {2: 1, 1: 3}], ["x", "y", "z"]
        )
        assert sparse == dense and hash(sparse) == hash(dense)
        assert [list(row.items()) for row in sparse.out_rows] == [
            [(1, 2), (2, 1)], [(0, 1)], [(1, 3), (2, 1)]
        ]
        assert sparse.adjacency == dense.adjacency == ((0, 2, 1), (1, 0, 0), (0, 3, 1))
        with pytest.raises(FrozenInstanceError):
            sparse.adjacency = ((0,),)
