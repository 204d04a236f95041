import types
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k0lab.classify import (
    AlgebraClass,
    complete_two_loops,
    cyclic_marked_automorphism,
    dihedral_theorem_row,
    flow_equivalent,
    kp_compare,
    leavitt,
    mat_laurent,
    mat_leavitt,
    unclassified,
)
from k0lab.errors import InvalidSpecError, NotPurelyInfiniteSimpleError
from k0lab.graphs import CayleySpec, DirectedMultigraph, build_cayley
from k0lab.k0 import analyze
from k0lab.zmatrix import FinAbGroup

from oracle import in_split, singleton_partition


def loop_graph_spec(m: int) -> CayleySpec:
    """Single vertex with m loops."""
    return CayleySpec.cyclic(1, [0], [m])


class TestAlgebraClass:
    def test_displays(self):
        assert leavitt(8).display() == "L(1,8)"
        assert mat_leavitt(3, 4).display() == "M_3(L(1,4))"
        assert mat_laurent(6).display() == "M_6(K[x,x^-1])"
        assert complete_two_loops(3).display() == "L(K_3^(2))"
        assert unclassified().display() == "unclassified"

    def test_mat_leavitt_normalizes_d(self):
        assert mat_leavitt(1, 8) == leavitt(8)
        assert mat_leavitt(8, 8).d == 1  # 8 = 1 mod 7
        assert mat_leavitt(0, 8).d == 7
        assert mat_leavitt(5, 2) == leavitt(2)

    def test_leavitt_needs_two(self):
        with pytest.raises(InvalidSpecError):
            leavitt(1)

    def test_json(self):
        data = mat_leavitt(3, 4).to_json_dict()
        assert data["kind"] == "M_d(L(1,m))"
        assert data["d"] == 3 and data["m"] == 4
        assert data["display"] == "M_3(L(1,4))"


class TestClassify:
    def test_loop_graphs_are_leavitt_algebras(self):
        for m in range(2, 9):
            cls = analyze(loop_graph_spec(m)).classification
            assert cls.kind == "L(1,m)"
            assert cls.m == m and cls.d == 1

    def test_complete_graphs_one_loop(self):
        for n in range(2, 13):
            cls = analyze(CayleySpec.complete(n, 1)).classification
            assert cls.kind == "L(1,m)" and cls.m == n

    def test_complete_graphs_two_loops(self):
        for n in range(2, 9):
            cls = analyze(CayleySpec.complete(n, 2)).classification
            assert cls.kind == "L(K_n^(2))" and cls.n == n

    def test_k_cycle_weight_two(self):
        # sigma vanishes, so the label lands on the full matrix algebra
        for n in (2, 3, 4):
            cls = analyze(CayleySpec.cyclic(n, [1], [2])).classification
            assert cls.kind == "M_d(L(1,m))"
            assert cls.m == 2**n and cls.d == 2**n - 1

    def test_k_cycle_higher_weight(self):
        # order of sigma is W-1, so d = (W^n - 1)/(W - 1)
        report = analyze(CayleySpec.cyclic(3, [1], [3]))
        cls = report.classification
        assert report.identity_order == 2
        assert cls.kind == "M_d(L(1,m))" and cls.m == 27 and cls.d == 13

    def test_c6_23_label(self):
        # identity class is zero in Z_7, which pins d = 7
        cls = analyze(CayleySpec.cyclic(6, [2, 3])).classification
        assert cls.kind == "M_d(L(1,m))" and cls.m == 8 and cls.d == 7

    def test_weight_one_cycle_is_matrix_laurent(self):
        cls = analyze(CayleySpec.cyclic(7, [1])).classification
        assert cls.kind == "M_n(K[x,x^-1])" and cls.n == 7

    def test_positive_determinant_unclassified(self):
        report = analyze(CayleySpec.cyclic(6, [1, 2], [1, 4]))
        assert report.det_sign == 1
        assert report.classification.kind == "unclassified"

    def test_noncyclic_torsion_unclassified(self):
        report = analyze(CayleySpec.dihedral(9))
        assert report.k0 == FinAbGroup((2, 2))
        assert report.classification.kind == "unclassified"


class TestDihedralTheoremRow:
    def test_rows(self):
        assert dihedral_theorem_row(7) == (FinAbGroup(), leavitt(2))
        assert dihedral_theorem_row(8) == (FinAbGroup((3,)), mat_leavitt(3, 4))
        assert dihedral_theorem_row(9) == (FinAbGroup((2, 2)), None)
        assert dihedral_theorem_row(12) == (FinAbGroup(free_rank=2), complete_two_loops(3))

    def test_analyze_matches_rows(self):
        for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 12):
            report = analyze(CayleySpec.dihedral(n))
            group, algebra = dihedral_theorem_row(n)
            assert report.k0 == group
            assert report.det_value <= 0
            if algebra is not None:
                assert report.classification.display() == algebra.display()
            else:
                assert report.classification.kind == "unclassified"


class TestMarkedAutomorphism:
    def test_simple_cases(self):
        assert cyclic_marked_automorphism(7, 1, 3) in (3, 10)  # any unit u with u*1=3
        assert cyclic_marked_automorphism(7, 0, 1) is None
        assert cyclic_marked_automorphism(8, 2, 6) == 3
        assert cyclic_marked_automorphism(8, 2, 4) is None

    @given(st.integers(1, 300), st.integers(0, 400), st.integers(0, 400))
    def test_soundness(self, modulus, a, b):
        u = cyclic_marked_automorphism(modulus, a, b)
        same_class = gcd(a, modulus) == gcd(b, modulus)
        if u is None:
            assert not same_class
        else:
            assert same_class
            if modulus > 1:
                assert gcd(u, modulus) == 1
                assert u * a % modulus == b % modulus


class TestKPCompare:
    def test_reflexive_and_symmetric(self):
        reports = [
            analyze(CayleySpec.cyclic(6, [2, 3])),
            analyze(CayleySpec.complete(4, 1)),
            analyze(CayleySpec.dihedral(8)),
            analyze(CayleySpec.complete(3, 2)),
        ]
        for r in reports:
            assert kp_compare(r, r).isomorphic
        for a in reports:
            for b in reports:
                assert kp_compare(a, b).verdict == kp_compare(b, a).verdict

    def test_dihedral_five_matches_loop_step_pair(self):
        left = analyze(CayleySpec.dihedral(5))
        right = analyze(CayleySpec.cyclic(3, [0, 1]))
        outcome = kp_compare(left, right)
        assert outcome.isomorphic
        assert left.classification.display() == right.classification.display() == "L(1,2)"

    def test_different_cyclic_groups(self):
        outcome = kp_compare(analyze(CayleySpec.complete(3, 1)), analyze(CayleySpec.complete(4, 1)))
        assert outcome.verdict == "not_by_this_criterion"

    def test_marked_classes_can_obstruct(self):
        # same group Z_7 and determinant sign, but the identity classes
        # have orders 1 vs 7, so no marked isomorphism exists
        left = analyze(CayleySpec.cyclic(6, [2, 3]))
        right = analyze(loop_graph_spec(8))
        assert left.k0 == right.k0 == FinAbGroup((7,))
        assert kp_compare(left, right).verdict == "not_by_this_criterion"

    def test_matching_k_cycle_and_c6(self):
        # C_6(2,3) and the weight-2 3-cycle share (Z_7, zero class, sign -1)
        left = analyze(CayleySpec.cyclic(6, [2, 3]))
        right = analyze(CayleySpec.cyclic(3, [1], [2]))
        outcome = kp_compare(left, right)
        assert outcome.isomorphic
        assert outcome.multiplier is not None

    def test_free_markers(self):
        left = analyze(CayleySpec.complete(4, 2))
        right = analyze(CayleySpec.complete(4, 2))
        assert kp_compare(left, right).isomorphic

    def test_noncyclic_torsion_undecided(self):
        left = analyze(CayleySpec.dihedral(3))
        right = analyze(CayleySpec.dihedral(9))
        assert left.k0 == right.k0 == FinAbGroup((2, 2))
        assert kp_compare(left, right).verdict == "not_by_this_criterion"

    def test_z4_versus_klein_four(self):
        cyclic_four = analyze(CayleySpec.complete(5, 1))  # K0 = Z_4
        klein = analyze(CayleySpec.dihedral(3))  # K0 = Z_2 + Z_2
        assert cyclic_four.k0 == FinAbGroup((4,))
        assert kp_compare(cyclic_four, klein).verdict == "not_by_this_criterion"

    def test_sign_mismatch_undecided(self):
        plus = analyze(CayleySpec.cyclic(6, [1, 2], [1, 4]))
        import dataclasses

        fake = dataclasses.replace(plus, det_sign=-1, det_value=-plus.det_value)
        assert kp_compare(plus, fake).verdict == "not_by_this_criterion"

    def test_not_pis_rejected(self):
        cycle = analyze(CayleySpec.cyclic(4, [1]))
        good = analyze(CayleySpec.cyclic(6, [2, 3]))
        with pytest.raises(NotPurelyInfiniteSimpleError):
            kp_compare(cycle, good)


class TestFlowEquivalent:
    def test_reflexive(self):
        g = build_cayley(CayleySpec.cyclic(6, [2, 3]))
        assert flow_equivalent(g, g)

    def test_complete_graphs_differ(self):
        assert not flow_equivalent(
            build_cayley(CayleySpec.complete(3, 1)), build_cayley(CayleySpec.complete(4, 1))
        )

    def test_dihedral_construction(self):
        for n in (3, 5, 8):
            base = build_cayley(CayleySpec.cyclic(n, [1, n - 1]))
            dihedral = build_cayley(CayleySpec.dihedral(n))
            assert flow_equivalent(base, dihedral)
            assert flow_equivalent(in_split(base, singleton_partition(base)), dihedral)

    def test_sources_rejected(self):
        with_source = DirectedMultigraph([[0, 1], [0, 2]])
        target = build_cayley(CayleySpec.complete(2, 2))
        with pytest.raises(InvalidSpecError):
            flow_equivalent(with_source, target)

    def test_not_pis_rejected(self):
        with pytest.raises(NotPurelyInfiniteSimpleError):
            cycle = build_cayley(CayleySpec.cyclic(3, [1]))
            flow_equivalent(cycle, cycle)


def test_submodule_import_binds_the_module():
    # `import a.b as m` binds the attribute `b` of package `a`, so a package
    # export named `classify` would shadow the submodule here.
    import k0lab.classify as module

    assert isinstance(module, types.ModuleType)
    assert callable(module.classify_report)
