import itertools
import json
import subprocess
import sys
from dataclasses import replace
from math import gcd

import pytest

import k0lab.circulant
import k0lab.graphs
import k0lab.k0
from k0lab.circulant import IntPolynomial
from k0lab.errors import (
    InternalCheckError,
    InvalidSpecError,
    NotGeneratingError,
)
from k0lab.classify import dihedral_theorem_row
from k0lab.graphs import (
    CayleySpec,
    DihedralGroup,
    DirectedMultigraph,
    build_cayley,
)
from k0lab.k0 import (
    K0Report,
    _char_poly,
    _companion_presentation,
    _shortest_window,
    _validate_report,
    analyze,
    closed_form_S01,
    f_sequence,
    verify_Tn_structure,
)
from k0lab.zmatrix import FinAbGroup, IntMatrix, cokernel, cokernel_with_class

from conftest import src_on_path
from oracle import circulant_det, companion_matrix, identity_matrix, mat_pow, mat_sub

C6_23 = CayleySpec.cyclic(6, [2, 3])


class TestCompanionMatrix:
    def test_c6_23(self):
        comp = companion_matrix(C6_23)
        assert comp.size == 3
        assert comp.matrix.to_lists() == [[0, 0, 1], [1, 0, 1], [0, 1, 0]]
        assert comp.char_poly == IntPolynomial.of([-1, -1, 0, 1])  # t^3 - t - 1

    def test_single_generator(self):
        comp = companion_matrix(CayleySpec.cyclic(5, [1], [4]))
        assert comp.matrix.to_lists() == [[4]]

    def test_fibonacci_shape(self):
        comp = companion_matrix(CayleySpec.cyclic(5, [1, 2]))
        assert comp.matrix.to_lists() == [[0, 1], [1, 1]]
        assert comp.char_poly == IntPolynomial.of([-1, -1, 1])

    def test_zero_generator_rejected(self):
        with pytest.raises(InvalidSpecError):
            companion_matrix(CayleySpec.cyclic(5, [0, 1]))

    def test_identity_class_is_orbit_sum_of_last_basis_vector(self):
        # g = sum_{i<n} T^i e_L: the sum of the last columns of T^0..T^(n-1).
        # Every T^j g has the same order in Coker(T^n - I), so the differential
        # tests cannot tell g from e.g. sum T^i e_1; this pins the vector itself.
        cases = []
        for n, gens, weights in [(6, (2, 3), (1, 1)), (11, (1, 4, 5), (2, 1, 3)), (9, (2,), (3,))]:
            comp = companion_matrix(CayleySpec.cyclic(n, gens, weights))
            cases.append((comp.char_poly, comp.matrix, n))
        for h, n in _window_cases():
            cases.append((h, _multiplication_by_x(h), n))
        for h, t, n in cases:
            size, b = h.degree(), h.coeffs[-1]
            _, g, scale = _companion_presentation(h, n)
            # t is b T, so b^(n - 1) sum T^i e_L = sum b^(n - 1 - i) t^i e_L;
            # the presentation's class is b^(E - 1) sum T^i e_L.
            expected = [
                sum(b ** (n - 1 - i) * mat_pow(t, i).at(j, size - 1) for i in range(n))
                for j in range(size)
            ]
            assert [b ** (n - 1) * x for x in g] == [b ** (scale - 1) * x for x in expected], (h, n)

    def test_ring_power_matches_mat_pow(self):
        # P from Z[x]/(h) against T^n - I by matrix powers, with steps up to
        # n - 1, so both s_k = 1 and s_k near n are covered.
        count = 0
        for n in range(2, 13):
            for k in (1, 2, 3):
                for gens in itertools.combinations(range(1, n), k):
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in itertools.product((1, 2), repeat=k):
                        comp = companion_matrix(CayleySpec.cyclic(n, gens, weights))
                        p = _companion_presentation(comp.char_poly, n)[0]
                        assert p == mat_sub(mat_pow(comp.matrix, n), identity_matrix(comp.size))
                        count += 1
        assert count > 4000
        for h, n in _window_cases():
            # P' = b^E (T^n - I), so b^n P' = b^E ((b T)^n - b^n I).
            b, size = h.coeffs[-1], h.degree()
            p, _, scale = _companion_presentation(h, n)
            scaled_identity = IntMatrix.from_rows(
                [[b**n * (i == j) for j in range(size)] for i in range(size)]
            )
            expected = mat_sub(mat_pow(_multiplication_by_x(h), n), scaled_identity)
            assert [b**n * x for x in p.entries] == [b**scale * x for x in expected.entries], (h, n)


# Window h's: a reversed and an unreversed arc, constant terms -2 and 2,
# a lead of 2 (the arc of C_12({4, 6, 11}, (2, 2, 2)), whose ends -2 and -2
# leave 1 mod 2), the twin's x^2 - x + 1, h(1) = 0 where W = 1, and
# n = 2^k - 1, every bit of n set.
WINDOW_SPECS = [
    (10, (2, 7), (1, 1)),
    (12, (4, 6, 11), (2, 2, 2)),
    (9, (2,), (1,)),
    (7, (3,), (1,)),
    *((n, (1, n - 1), (1, 1)) for n in (3, 7, 15, 31, 63)),
    *((n, (2, n - 3), (1, 2)) for n in (15, 31, 63)),
]


def _window_cases():
    return [(_shortest_window(CayleySpec.cyclic(*case))[0], case[0]) for case in WINDOW_SPECS]


def _multiplication_by_x(h):
    """b T_h, for T_h multiplication by x on Z[1/b][x]/(h) in the basis 1, x,
    ..., x^(L - 1) and b = lc(h): integral, and T_h itself when h is monic."""
    size, b = h.degree(), h.coeffs[-1]
    return IntMatrix.from_rows(
        [[b * (j == i - 1) for j in range(size - 1)] + [-h.coeffs[i]] for i in range(size)]
    )


def _companion_k0(spec):
    return analyze(spec, method="companion").k0


def _full_k0(target):
    return analyze(target, method="full").k0


class TestK0ViaCompanion:
    def test_c6_23(self):
        assert _companion_k0(C6_23) == FinAbGroup((7,))

    def test_k_cycles(self):
        for n in (2, 3, 5):
            for w in (2, 3, 4):
                spec = CayleySpec.cyclic(n, [1], [w])
                assert _companion_k0(spec) == FinAbGroup.from_invariants([w**n - 1])

    def test_coprime_step(self):
        # S = {2} generates Z_5; the companion is 2x2 yet the answer matches
        spec = CayleySpec.cyclic(5, [2], [3])
        assert _companion_k0(spec) == FinAbGroup((3**5 - 1,))

    def test_singular_pair(self):
        assert _companion_k0(CayleySpec.cyclic(6, [1, 5])) == FinAbGroup(free_rank=2)

    def test_non_generating(self):
        with pytest.raises(NotGeneratingError):
            _companion_k0(CayleySpec.cyclic(6, [2, 4]))

    def test_weight_one_rejected(self):
        with pytest.raises(InvalidSpecError):
            _companion_k0(CayleySpec.cyclic(5, [1]))


class TestK0ViaFullSnf:
    def test_complete_graphs(self):
        assert _full_k0(build_cayley(CayleySpec.complete(5, 1))) == FinAbGroup((4,))
        assert _full_k0(build_cayley(CayleySpec.complete(4, 2))) == FinAbGroup(free_rank=3)

    def test_dihedral_nine(self):
        g = build_cayley(CayleySpec.dihedral(9))
        assert _full_k0(g) == FinAbGroup((2, 2))

    def test_not_pis_rejected(self):
        report = analyze(build_cayley(CayleySpec.cyclic(4, [1])), method="full")
        assert report.pis is False and report.k0 is None


class TestAnalyze:
    def test_c6_23_report(self):
        report = analyze(C6_23)
        assert report.pis is True
        assert report.det_value == -7
        assert report.det_sign == -1
        assert report.snf_diag == (1, 1, 7)
        assert report.k0 == FinAbGroup((7,))
        assert report.identity_order == 1
        assert report.method == "both"

    def test_cyclic_thirty_thousand(self):
        # The Smith step on P with 12,000-bit entries took 25 s under
        # floor-quotient Euclid and a tenth of a second with nearest quotients;
        # a return to the old growth shows as a slow suite.
        report = analyze(CayleySpec.cyclic(30_000, [2, 3]))
        assert report.method == "companion_reduction"
        assert report.k0.order() == abs(report.det_value)
        assert report.identity_order == 1

    def test_loop_family_singular_branch(self):
        report = analyze(CayleySpec.cyclic(4, [0, 1], [3, 2]))
        assert report.det_value == 0
        assert report.k0 == FinAbGroup((2, 2, 2), free_rank=1)
        assert report.method == "full_snf"  # 0 in S disables the shortcut

    def test_loop_plus_step_trivial(self):
        report = analyze(CayleySpec.cyclic(5, [0, 1]))
        assert report.det_value == -1
        assert report.k0 == FinAbGroup()

    def test_weight_one_cycle(self):
        report = analyze(CayleySpec.cyclic(6, [1]))
        assert report.pis is False
        assert report.k0 is None
        assert report.identity_order is None
        assert report.classification.kind == "M_n(K[x,x^-1])"
        assert report.classification.n == 6

    def test_method_full(self):
        report = analyze(C6_23, method="full")
        assert report.method == "full_snf"
        assert len(report.snf_diag) == 6
        assert report.k0 == FinAbGroup((7,))

    def test_method_companion(self):
        report = analyze(C6_23, method="companion")
        assert report.method == "companion_reduction"
        assert report.snf_diag == (1, 1, 7)

    def test_method_companion_rejected_with_zero_generator(self):
        with pytest.raises(InvalidSpecError):
            analyze(CayleySpec.cyclic(5, [0, 1]), method="companion")

    def test_crosscheck_limit_is_fixed(self, monkeypatch):
        # auto cross-checks up to n = 24 and no further; the environment has no say.
        at, past = CayleySpec.cyclic(24, [2, 3]), CayleySpec.cyclic(25, [2, 3])
        for value in (None, "4", "abc"):
            if value is None:
                monkeypatch.delenv("K0LAB_CROSSCHECK_LIMIT", raising=False)
            else:
                monkeypatch.setenv("K0LAB_CROSSCHECK_LIMIT", value)
            assert (analyze(at).method, analyze(past).method) == ("both", "companion_reduction")

    def test_both_takes_det_from_p(self, monkeypatch):
        specs = [C6_23, CayleySpec.cyclic(24, [3, 4], [1, 2]), CayleySpec.cyclic(12, [1, 5])]
        expected = [analyze(spec, method="full") for spec in specs]

        def forbidden(spec):
            raise AssertionError("the degree-n resultant on the 'both' path")

        monkeypatch.setattr(k0lab.circulant, "cayley_det", forbidden)
        for spec, full in zip(specs, expected):
            report = analyze(spec, method="both")
            assert (report.det_value, report.k0, report.identity_order) == (
                full.det_value, full.k0, full.identity_order
            )
            assert len(report.snf_diag) == max(spec.gens)

    def test_full_path_det_has_no_degree_n_resultant(self, monkeypatch):
        circ = k0lab.circulant
        specs = [
            (CayleySpec.cyclic(40, [0, 1], [3, 3]), "auto"),
            (CayleySpec.cyclic(41, [0, 2, 3], [3, 2, 2]), "auto"),
            (CayleySpec.cyclic(30, [0, 1, 4], [1, 2, 1]), "auto"),
            (CayleySpec.cyclic(36, [3, 4], [1, 2]), "full"),
            (CayleySpec.cyclic(12, [0, 5], [2, 1]), "full"),
        ]
        expected = [circulant_det(circ.cayley_circulant(spec)) for spec, _ in specs]
        resultant = circ._resultant
        degrees = []

        def forbidden(*args):
            raise AssertionError("a degree-n polynomial on the full path")

        def small_resultant(f, g):
            # spec is the spec the loop below is analysing
            degrees.append(max(len(f), len(g)) - 1)
            assert degrees[-1] <= max(spec.gens)
            return resultant(f, g)

        monkeypatch.setattr(circ, "x_pow_minus_one", forbidden)
        monkeypatch.setattr(circ, "_resultant", small_resultant)
        for (spec, method), want in zip(specs, expected):
            report = analyze(spec, method=method)
            assert report.method == "full_snf"
            assert report.det_value == want, (spec.n, spec.gens, spec.weights)
        assert degrees  # the bound was checked

    def test_non_generating(self):
        with pytest.raises(NotGeneratingError):
            analyze(CayleySpec.cyclic(6, [2]))

    def test_raw_graph_input(self):
        report = analyze(build_cayley(CayleySpec.complete(5, 1)))
        assert report.group_kind == "graph"
        assert report.generators is None
        assert report.k0 == FinAbGroup((4,))
        assert report.classification.display() == "L(1,5)"

    def test_raw_graph_not_pis(self):
        report = analyze(build_cayley(CayleySpec.cyclic(3, [1])))
        assert report.pis is False
        assert report.classification.kind == "M_n(K[x,x^-1])"

    def test_identity_order_examples(self):
        assert analyze(CayleySpec.cyclic(3, [1], [3])).identity_order == 2
        assert analyze(CayleySpec.cyclic(4, [1], [3])).identity_order == 2
        assert analyze(CayleySpec.complete(5, 1)).identity_order == 4


def test_validate_report_survives_optimize():
    """The consistency checks raise InternalCheckError even under python -O."""
    script = (
        "from dataclasses import replace\n"
        "from k0lab.errors import InternalCheckError\n"
        "from k0lab.k0 import K0Report, _validate_report\n"
        "from k0lab.zmatrix import FinAbGroup\n"
        "good = K0Report('cyclic', 6, (2, 3), (1, 1), 2, True, -7, -1, (1, 1, 7),\n"
        "                FinAbGroup((7,)), 1, 'both')\n"
        "_validate_report(good)\n"
        "for report in (replace(good, det_value=-5), replace(good, k0=None)):\n"
        "    try:\n"
        "        _validate_report(report)\n"
        "    except InternalCheckError as exc:\n"
        "        print(__debug__, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=src_on_path()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "False |K0| = 7 but |det| = 5\n"
        "False purely infinite simple report without K0\n"
    )


class TestReportWitnesses:
    """O(|S|) checks in _validate_report that hold past the cross-check limit."""

    def test_identity_order_must_divide_w_minus_one(self):
        for spec in (CayleySpec.cyclic(40, [3, 7]), CayleySpec.dihedral(7)):
            report = analyze(spec)  # W = 2, so [1] = 0 and its order is 1
            assert report.identity_order == 1
            for wrong in (2, "infinite"):
                with pytest.raises(InternalCheckError, match=r"does not divide W - 1 = 1 for n="):
                    _validate_report(replace(report, identity_order=wrong))

    def test_det_sign_must_follow_parity_rule(self):
        report = analyze(CayleySpec.cyclic(40, [1, 4, 8], [2, 1, 3]))
        assert report.det_value != 0
        flipped = replace(report, det_value=-report.det_value, det_sign=-report.det_sign)
        with pytest.raises(
            InternalCheckError, match=r"parity rule .* for n=40 S=\(1, 4, 8\) w=\(2, 1, 3\)$"
        ):
            _validate_report(flipped)

    def test_companion_path_past_limit_is_witnessed(self, monkeypatch):
        spec = CayleySpec.cyclic(40, [3, 7], [1, 2])
        report = analyze(spec)
        # W - 1 = 2, so a doubled order (4) cannot divide it.
        assert (report.method, report.identity_order) == ("companion_reduction", 2)
        real_det, real_reduce = k0lab.k0.det, k0lab.k0.cokernel_with_class
        monkeypatch.setattr(k0lab.k0, "det", lambda m: -real_det(m))
        with pytest.raises(InternalCheckError, match="parity rule"):
            analyze(spec)
        monkeypatch.setattr(k0lab.k0, "det", real_det)

        def doubled_order(m, vec=None, *, modulus=None):
            diag, group, order = real_reduce(m, vec, modulus=modulus)
            return diag, group, 2 * order

        monkeypatch.setattr(k0lab.k0, "cokernel_with_class", doubled_order)
        with pytest.raises(InternalCheckError, match="does not divide W - 1"):
            analyze(spec)

    def test_companion_modulus_is_witnessed(self, monkeypatch):
        """The companion side reduces P modulo |Res(h, r)|.  K0 is cyclic here,
        so a proper divisor of the true value breaks |K0| = |det|, with det
        from Bareiss; a multiple of it changes nothing."""
        spec = CayleySpec.cyclic(25, [1, 2], [1, 2])
        report = analyze(spec, method="companion")
        assert report.k0.is_cyclic and abs(report.det_value) == report.k0.order() == 67108862
        real = k0lab.circulant._resultant
        calls = []

        def scaled(factor):
            def resultant(a, b):
                calls.append(factor)
                return real(a, b) * factor // 2  # 2 is the least prime of the true value
            return resultant

        monkeypatch.setattr(k0lab.circulant, "_resultant", scaled(1))
        with pytest.raises(InternalCheckError, match=r"\|K0\| = 33554431 but \|det\| = 67108862"):
            analyze(spec, method="companion")
        for factor in (4, -6):
            monkeypatch.setattr(k0lab.circulant, "_resultant", scaled(factor))
            assert analyze(spec, method="companion") == report
        assert calls == [1, 4, -6]


    def test_zero_window_modulus_is_witnessed(self, monkeypatch):
        """A spec with 0 in S and a +-1 coefficient takes its full_snf report
        from the window past the limit, P reduced modulo |Res(h, r)| there too;
        K0 is cyclic, so half the true value breaks |K0| = |det|."""
        spec = CayleySpec.cyclic(25, [0, 1, 3], [2, 1, 2])  # f = -1 - x - 2x^3
        report = analyze(spec)
        assert report.method == "full_snf" and report.k0.is_cyclic
        assert abs(report.det_value) == report.k0.order() == 25944404
        real = k0lab.circulant._resultant
        calls = []

        def scaled(factor):
            def resultant(a, b):
                calls.append(factor)
                return real(a, b) * factor // 2  # 2 is the least prime of the true value
            return resultant

        monkeypatch.setattr(k0lab.circulant, "_resultant", scaled(1))
        with pytest.raises(InternalCheckError, match=r"\|K0\| = 12972202 but \|det\| = 25944404"):
            analyze(spec)
        for factor in (4, -6):
            monkeypatch.setattr(k0lab.circulant, "_resultant", scaled(factor))
            assert analyze(spec) == report
        assert calls == [1, 4, -6]

    def test_two_sided_arc_moduli_are_witnessed(self, monkeypatch):
        """C_30({0, 1, 8}, (3, 3, 3)) has f = -2 - 3x - 3x^8 and the arc
        -3 ... -2 with lead b = 2: the b side reduces modulo the odd part of
        |det|, the reversed side modulo its 2-part.  Half the true resultant
        shrinks the 2-part and breaks |K0| = |det|, with det by Bareiss."""
        spec = CayleySpec.cyclic(30, [0, 1, 8], [3, 3, 3])
        report = analyze(spec)
        assert report.method == "full_snf" and report.identity_order == 8
        assert report.k0 == FinAbGroup((31, 31, 63420044578096))
        assert abs(report.det_value) == 31**2 * 63420044578096
        real_reduce, moduli = k0lab.k0.cokernel_with_class, []

        def recording(m, vec=None, *, modulus=None):
            moduli.append(modulus)
            return real_reduce(m, vec, modulus=modulus)

        monkeypatch.setattr(k0lab.k0, "cokernel_with_class", recording)
        assert analyze(spec) == report
        odd, two = moduli
        assert odd % 2 and two & (two - 1) == 0 and odd * two == abs(report.det_value)
        real = k0lab.circulant._resultant
        monkeypatch.setattr(k0lab.circulant, "_resultant", lambda a, b: real(a, b) // 2)
        with pytest.raises(
            InternalCheckError, match=r"\|K0\| = 30473331419775128 but \|det\| = 60946662839550256"
        ):
            analyze(spec)
        for factor in (4, -6):
            monkeypatch.setattr(
                k0lab.circulant, "_resultant", lambda a, b, f=factor: real(a, b) * f // 2
            )
            assert analyze(spec) == report


class TestReportJson:
    SCHEMA_KEYS = {
        "n",
        "generators",
        "weights",
        "group",
        "W",
        "pis",
        "det",
        "det_sign",
        "snf_diag",
        "k0",
        "identity_order",
        "method",
        "classification",
    }

    def test_field_names(self):
        data = analyze(C6_23).to_json_dict()
        assert set(data.keys()) == self.SCHEMA_KEYS
        assert data["det"] == "-7"
        assert data["k0"] == {"torsion": ["7"], "free_rank": 0, "display": "Z_7"}
        assert data["identity_order"] == "1"
        assert data["group"] == "cyclic"

    def test_json_round_trip_is_stable(self):
        text = analyze(C6_23).to_json()
        again = json.dumps(json.loads(text), indent=2, sort_keys=True)
        assert text == again

    def test_big_integers_render_decimal(self):
        report = analyze(CayleySpec.cyclic(8, [1], [5]))
        data = report.to_json_dict()
        assert data["det"] == str(1 - 5**8)
        assert data["k0"]["torsion"] == [str(5**8 - 1)]

    def test_infinite_order_serialization(self):
        report = K0Report(
            group_kind="graph",
            n=2,
            generators=None,
            weights=None,
            total_weight=None,
            pis=True,
            det_value=0,
            det_sign=0,
            snf_diag=(1, 0),
            k0=FinAbGroup(free_rank=1),
            identity_order="infinite",
            method="full_snf",
        )
        assert report.to_json_dict()["identity_order"] == "infinite"


class TestClosedFormS01:
    def test_equal_weights_trivial(self):
        for n in (1, 2, 5, 9):
            assert closed_form_S01(n, 1, 1) == FinAbGroup()

    def test_free_branch(self):
        assert closed_form_S01(2, 3, 2) == FinAbGroup((2,), free_rank=1)

    def test_torsion_branch(self):
        assert closed_form_S01(3, 3, 4) == FinAbGroup((2, 2, 18))

    def test_matches_full_snf(self):
        for n in range(2, 7):
            for a in range(1, 4):
                for b in range(1, 4):
                    spec = CayleySpec.cyclic(n, [0, 1], [a, b])
                    assert closed_form_S01(n, a, b) == analyze(spec).k0, (n, a, b)

    def test_single_vertex(self):
        for a in range(1, 5):
            for b in range(1, 5):
                m = IntMatrix.from_rows([[1 - a - b]])
                assert closed_form_S01(1, a, b) == cokernel(m)


class TestFSequence:
    def test_two_three(self):
        assert f_sequence(2, 3, 8) == [0, 1, 0, 1, 1, 1, 2, 2]

    def test_one_two_base(self):
        seq = f_sequence(1, 2, 8)
        assert seq[0] == 1 and seq[1] == 0
        for i in range(2, 8):
            assert seq[i] == seq[i - 1] + seq[i - 2]

    def test_spike_at_k_minus_one(self):
        for j, k in [(1, 2), (2, 3), (2, 5), (3, 7)]:
            seq = f_sequence(j, k, k)
            assert seq[k - 2] == 1
            assert all(v == 0 for v in seq[: k - 2])
            assert seq[k - 1] == 0

    def test_rejects_bad_gaps(self):
        with pytest.raises(InvalidSpecError):
            f_sequence(3, 2, 5)


class TestTnStructure:
    def test_example_pair(self):
        assert verify_Tn_structure(2, 3, 6)

    def test_base_case(self):
        for d1, d2 in [(2, 3), (2, 5), (3, 4), (4, 7)]:
            assert verify_Tn_structure(d1, d2, 1)

    def test_two_five_ten(self):
        assert verify_Tn_structure(2, 5, 10)

    def test_exhaustive_small(self):
        pairs = [
            (d1, d2)
            for d1 in range(2, 7)
            for d2 in range(d1 + 1, 8)
            if gcd(d1, d2) == 1
        ]
        assert pairs
        for d1, d2 in pairs:
            for n in range(1, 31):
                assert verify_Tn_structure(d1, d2, n), (d1, d2, n)

    def test_rejects_non_coprime(self):
        with pytest.raises(InvalidSpecError):
            verify_Tn_structure(2, 4, 5)

    def test_rejects_d1_one(self):
        # At d1 = 1 every row of T^n reads the gap sequence d2 places further on.
        for d2 in range(2, 6):
            with pytest.raises(InvalidSpecError):
                verify_Tn_structure(1, d2, 5)

    @pytest.mark.parametrize("d1, d2, n", [(2, 5, 3000), (3, 4, 5000), (2, 3, 5000)])
    def test_large_n_within_the_recursion_limit(self, d1, d2, n):
        # A gap sequence filled by recursion nests n / d1 calls, past
        # Python's default recursion limit.
        assert verify_Tn_structure(d1, d2, n)


class TestTwoDivisorDeterminants:
    def test_det_magnitude_matches_smith_product(self):
        # |det(I - A^t)| agrees with the product of invariant factors across
        # the two-divisor family, nonsingular cases
        from math import prod

        from k0lab.circulant import cayley_det

        for d1, d2 in [(2, 3), (2, 5), (3, 4)]:
            for mult in range(1, 5):
                n = d1 * d2 * mult
                spec = CayleySpec.cyclic(n, [d1, d2])
                d = cayley_det(spec)
                diag = cokernel_with_class(build_cayley(spec).i_minus_at())[0]
                assert abs(d) == prod(diag)
                if d != 0:
                    report = analyze(spec)
                    assert report.k0.order() == abs(d)


class TestCompanionAgreesWithFull:
    def test_small_exhaustive(self):
        for n in range(2, 11):
            for size in (1, 2):
                for gens in itertools.combinations(range(1, n), size):
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in itertools.product((1, 2), repeat=size):
                        if sum(weights) < 2:
                            continue
                        # "both" raises InternalCheckError when the companion
                        # K0 differs from the full Smith form's.
                        report = analyze(CayleySpec.cyclic(n, gens, weights), method="both")
                        assert report.method == "both" and report.k0 is not None

    @pytest.mark.parametrize("n", range(2, 17))
    def test_companion_method_matches_full(self, n):
        # Every generating S of Z_n with 0 not in S, |S| <= 3, weights <= 3, W >= 2.
        # On a nonsingular spec the order of [1] is exactly W - 1
        # (TestZeroInSWindow.test_auto_matches_full_on_every_small_spec).
        fields = ("k0", "identity_order", "det_value", "det_sign", "classification")
        checked = 0
        for size in range(1, 4):
            for gens in itertools.combinations(range(1, n), size):
                if gcd(n, *gens) != 1:
                    continue
                for weights in itertools.product((1, 2, 3), repeat=size):
                    if sum(weights) < 2:
                        continue
                    spec = CayleySpec.cyclic(n, gens, weights)
                    companion = analyze(spec, method="companion")
                    full = analyze(spec, method="full")
                    for field in fields:
                        assert getattr(companion, field) == getattr(full, field), (
                            field, n, gens, weights
                        )
                    if full.det_value:
                        assert full.identity_order == sum(weights) - 1, (n, gens, weights)
                    checked += 1
        assert checked > 0

    def test_auto_past_limit_builds_no_graph(self, monkeypatch):
        specs = [
            CayleySpec.cyclic(40, gens, weights)
            for gens, weights in [
                ((1,), (3,)),
                ((3, 7), (1, 2)),
                ((2, 3), (2, 1)),  # singular: K0 has a free summand
                ((1, 4, 8), (2, 1, 3)),
                ((3, 5, 8), (1, 1, 1)),
            ]
        ]
        expected = [analyze(spec, method="full").to_json_dict() for spec in specs]

        def forbidden(*args, **kwargs):
            raise AssertionError("n x n work on the companion path")

        monkeypatch.setattr(k0lab.k0, "build_cayley", forbidden)
        monkeypatch.setattr(DirectedMultigraph, "i_minus_at", forbidden)
        monkeypatch.setattr(k0lab.circulant, "cayley_det", forbidden)
        for spec, want in zip(specs, expected):
            got = analyze(spec).to_json_dict()
            assert got["method"] == "companion_reduction"
            # The diagonal is P's, of size s_k; every other field matches.
            for key in set(want) - {"method", "snf_diag"}:
                assert got[key] == want[key], (key, spec.gens, spec.weights)

    def test_sparse_path_reads_no_adjacency(self):
        ring = DirectedMultigraph.from_out_rows(
            [{(v + 1) % 40: 1, 7 * v % 40: 2} for v in range(40)]
        )
        with_sink = DirectedMultigraph.from_out_rows([{1: 1}, {0: 1, 1: 1, 2: 2}, {}])
        targets = (CayleySpec.dihedral(30), ring, with_sink)
        expected = [analyze(DirectedMultigraph(g.adjacency)).to_json_dict() for g in targets[1:]]

        def forbidden(self):
            raise AssertionError("dense adjacency read on the sparse path")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(DirectedMultigraph, "adjacency", property(forbidden))
            reports = [analyze(target).to_json_dict() for target in targets]
        assert reports[0]["k0"]["display"] == "Z^2"
        assert reports[1:] == expected

    def test_both_mode_checks_identity_order_from_companion_side(self, monkeypatch):
        spec = CayleySpec.cyclic(5, [1], [3])  # K0 = Z_242, [1] of order W - 1 = 2
        assert analyze(spec, method="both").identity_order == 2
        presentation = k0lab.k0._companion_presentation
        monkeypatch.setattr(
            k0lab.k0,
            "_companion_presentation",
            lambda h, n: (presentation(h, n)[0], [0], presentation(h, n)[2]),
        )
        with pytest.raises(InternalCheckError, match=r"1 vs 2 for n=5 S=\(1,\) w=\(3,\)$"):
            analyze(spec, method="both")


class TestShortestWindow:
    """The companion side reduces the shortest arc of {0} and S with admissible ends."""

    @pytest.mark.parametrize(
        "n, gens, weights, start, length, flipped, h",
        [
            # {1, n - 1}: drop the gap (1, n - 1); h = x^2 - x + 1 at any n.
            (1000, (1, 999), (1, 1), 999, 2, True, (1, -1, 1)),
            (7, (1, 6), (1, 1), 6, 2, True, (1, -1, 1)),
            # {n - 2, n - 1}: drop the gap (0, n - 2).
            (10, (8, 9), (1, 1), 8, 2, True, (-1, 1, 1)),
            # {2, n - 3}: drop the gap (2, n - 3).
            (10, (2, 7), (1, 1), 7, 5, True, (1, 0, -1, 0, 0, 1)),
            # The largest gap, (6, 11), has weight 2 at both ends and 2 leaves
            # 1 - 3x^4 two terms, so it cannot be dropped; the next, (0, 4),
            # has its unit at the lower end: no flip.
            (12, (4, 6, 11), (3, 2, 2), 4, 8, False, (-3, 0, -2, 0, 0, 0, 0, -2, 1)),
            # No arc beats [0, s_k]: today's h, reversed from a = 0.
            (6, (2, 3), (1, 1), 0, 3, True, (-1, -1, 0, 1)),
            (40, (3, 5, 8), (1, 1, 1), 0, 8, True, (-1, 0, 0, -1, 0, -1, 0, 0, 1)),
            # With weights (2, 2, 2), 2 leaves the one term 1 of f: the gap
            # (6, 11) is dropped and the window has lead 2.
            (12, (4, 6, 11), (2, 2, 2), 11, 7, True, (2, 0, 2, 0, 0, 0, -1, 2)),
        ],
    )
    def test_pins_the_window(self, n, gens, weights, start, length, flipped, h):
        spec = CayleySpec.cyclic(n, gens, weights)
        arc_start, g = k0lab.circulant.weight_arc(spec, admissible=True)
        window = _shortest_window(spec)[0]
        assert (arc_start, len(g) - 1) == (start, length)
        assert window == IntPolynomial.of(h)
        # h is c g, or c g reversed, c = +-1 the sign of the end that leads.
        c = 1 if (g[0] if flipped else g[-1]) > 0 else -1
        assert window.coeffs == tuple(c * a for a in (g[::-1] if flipped else g))
        companion = analyze(spec, method="companion")
        assert companion.det_value == k0lab.circulant.cayley_det(spec)
        if n <= 40:
            full = analyze(spec, method="full")
            assert (companion.k0, companion.identity_order) == (full.k0, full.identity_order)

    def test_ties_keep_the_arc_from_zero(self):
        # In each, a gap with a unit end is as long as the wrap gap (s_k, 0).
        for n, gens, weights in [(2, (1,), (2,)), (5, (1, 3), (1, 1)), (8, (2, 5), (1, 2))]:
            spec = CayleySpec.cyclic(n, gens, weights)
            start, g = k0lab.circulant.weight_arc(spec, admissible=True)
            window = _shortest_window(spec)[0]
            assert start == 0 and window.coeffs == tuple(g[::-1])
            assert window == _char_poly(gens, weights)

    def test_auto_reduces_a_two_by_two_on_c1000_1_999(self, monkeypatch):
        spec = CayleySpec.cyclic(1000, [1, 999])
        full = analyze(spec, method="full")
        degrees = []
        presentation = k0lab.k0._companion_presentation

        def recording(h, n):
            degrees.append(h.degree())
            return presentation(h, n)

        monkeypatch.setattr(k0lab.k0, "_companion_presentation", recording)
        report = analyze(spec)
        assert report.method == "companion_reduction"
        assert degrees == [2]
        assert (report.k0, report.identity_order, report.det_value) == (
            full.k0, full.identity_order, full.det_value
        )
        assert report.k0.order() == 3 and len(report.snf_diag) == 999

    def test_snf_diag_matches_the_s_k_presentation(self):
        # Every generating S of Z_n with 0 not in S, n <= 12, |S| <= 3,
        # weights <= 2 (a window end is a unit or not), W >= 2: the diagonal
        # stated at size s_k is the Smith form of the s_k x s_k T^n - I,
        # with T the companion matrix of _char_poly.
        count = 0
        for n in range(2, 13):
            for size in (1, 2, 3):
                for gens in itertools.combinations(range(1, n), size):
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in itertools.product((1, 2), repeat=size):
                        if sum(weights) < 2:
                            continue
                        spec = CayleySpec.cyclic(n, gens, weights)
                        p = _companion_presentation(_char_poly(gens, weights), n)[0]
                        report = analyze(spec, method="companion")
                        assert report.snf_diag == cokernel_with_class(p)[0], (n, gens, weights)
                        count += 1
        assert count == 4661


class TestZeroInSWindow:
    """A cyclic spec with 0 in S, W >= 2 and an admissible arc with 1 <= L <=
    s_k: past the cross-check limit ``auto`` takes K0, the order of [1] and
    det from the arc's one or two sides and states the full_snf report of
    the n x n matrix, byte for byte, with no graph."""

    @staticmethod
    def _window_degrees(monkeypatch):
        degrees = []
        presentation = k0lab.k0._companion_presentation

        def recording(h, n):
            degrees.append(h.degree())
            return presentation(h, n)

        monkeypatch.setattr(k0lab.k0, "_companion_presentation", recording)
        return degrees

    def test_auto_matches_full_on_every_small_spec(self, monkeypatch):
        # Every generating S of Z_n with 0 in S, n <= 12, |S| <= 3, weights
        # <= 3, W < 2 and specs with no admissible arc included.  On a
        # nonsingular spec the order of [1] is exactly W - 1: f is not a
        # zero divisor of R = Z[x]/(x^n - 1), so d N = f y gives (x - 1) y =
        # 0, y = a N and d = a |f(1)|.  That pins the product of the two
        # sides' orders, which "divides W - 1" cannot.
        monkeypatch.setattr(k0lab.k0, "CROSSCHECK_LIMIT", 0)
        degrees = self._window_degrees(monkeypatch)
        count = arcs = two_sided = 0
        for n in range(1, 13):
            for size in (1, 2, 3):
                for rest in itertools.combinations(range(1, n), size - 1):
                    gens = (0, *rest)
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in itertools.product((1, 2, 3), repeat=size):
                        spec = CayleySpec.cyclic(n, gens, weights)
                        calls = len(degrees)
                        auto, full = analyze(spec), analyze(spec, method="full")
                        assert auto.to_json() == full.to_json(), (n, gens, weights)
                        assert auto.render_text() == full.render_text(), (n, gens, weights)
                        if auto.det_value and auto.pis:
                            assert auto.identity_order == sum(weights) - 1, (n, gens, weights)
                        arcs += len(degrees) > calls
                        two_sided += len(degrees) == calls + 2
                        count += 1
        assert count == 5700
        assert (arcs, two_sided) == (4929, 392)
        assert 1 <= min(degrees) and max(degrees) <= 11

    @pytest.mark.parametrize(
        "n, gens, weights, length",
        [
            (25, (0, 1, 3), (2, 1, 2), 3),
            (37, (0, 1, 36), (3, 1, 2), 2),  # the arc [n - 1, 1] around 0
            (40, (0, 2, 3), (1, 1, 2), 1),  # w_0 = 1 leaves 0 out of the arc
            (40, (0, 1), (2, 1), 1),  # f = -1 - x: singular, K0 has a free summand
            (30, (0, 1, 4), (1, 2, 1), 3),
            (3000, (0, 1, 5), (2, 1, 3), 5),
            # No coefficient +-1: coprime ends, or ends 2 and 2 around -1.
            (40, (0, 1), (3, 3), 1),  # f = -2 - 3x
            (3000, (0, 1), (3, 3), 1),
            (50, (0, 3, 5), (1, 2, 3), 2),  # f = -2x^3 - 3x^5
            (30, (0, 1, 8), (3, 3, 3), 8),  # f = -2 - 3x - 3x^8: both sides
            (41, (0, 2, 3), (3, 1, 2), 3),  # f = -2 - x^2 - 2x^3: one side, b = 2 = a0
            (123, (0, 1, 6), (3, 1, 3), 6),  # the unit-end window had L = 118
        ],
    )
    def test_auto_past_limit_builds_no_graph(self, monkeypatch, n, gens, weights, length):
        # Both sides run only when b = 2 has a prime that a0 = 3 lacks and 2 | det.
        sides = 2 if (n, gens) in {(30, (0, 1, 8)), (123, (0, 1, 6))} else 1
        spec = CayleySpec.cyclic(n, gens, weights)
        full = analyze(spec, method="full")

        def forbidden(*args, **kwargs):
            raise AssertionError("n x n work on the window path")

        monkeypatch.setattr(k0lab.graphs, "build_cayley", forbidden)
        monkeypatch.setattr(k0lab.k0, "build_cayley", forbidden)
        monkeypatch.setattr(DirectedMultigraph, "i_minus_at", forbidden)
        degrees = self._window_degrees(monkeypatch)
        report = analyze(spec)
        assert degrees == [length] * sides
        assert report.method == "full_snf" and len(report.snf_diag) == n
        assert (report.to_json(), report.render_text()) == (full.to_json(), full.render_text())

    @pytest.mark.parametrize(
        "n, gens, weights",
        [
            (40, (0, 1), (3, 2)),  # f = -2 - 2x: content 2, no admissible arc
            # f = -2 - x - x^2 - 2x^3: 2 leaves two terms, so L = 49 > s_k = 3
            (50, (0, 1, 2, 3), (3, 1, 1, 2)),
            (123, (0, 1), (1, 1)),  # f = -x: L = 0
            (20, (0, 2, 3), (1, 1, 2)),  # an arc, but n <= CROSSCHECK_LIMIT
        ],
    )
    def test_other_zero_specs_take_the_full_path(self, monkeypatch, n, gens, weights):
        spec = CayleySpec.cyclic(n, gens, weights)
        built = []
        monkeypatch.setattr(
            k0lab.k0, "build_cayley", lambda s: built.append(s) or build_cayley(s)
        )
        degrees = self._window_degrees(monkeypatch)
        report = analyze(spec)
        assert built == [spec] and degrees == []
        assert report.method == "full_snf" and len(report.snf_diag) == n


class TestDihedralTwin:
    """{r^a, r^k s} in D_m with unit weights, m >= 3, gcd(a, m) = 1: K0, the
    order of [1] and det come from the cyclic twin C_m({1, m - 1}); the
    sparse path on the raw Cayley graph is the reference."""

    FIELDS = ("det_value", "k0", "identity_order", "snf_diag")

    @staticmethod
    def _fields(report):
        return tuple(getattr(report, field) for field in TestDihedralTwin.FIELDS)

    def test_matches_the_sparse_path_on_every_spec(self, monkeypatch):
        expected, specs = [], []
        for m in range(3, 25):
            for a in range(1, m):
                if gcd(a, m) != 1:
                    continue
                for k in range(m):
                    # Generators in either order; both are the same graph.
                    gens = (a, m + k) if (a + k) % 2 else (m + k, a)
                    spec = CayleySpec(DihedralGroup(m), gens, (1, 1))
                    specs.append(spec)
                    expected.append(self._fields(analyze(build_cayley(spec))))

        def forbidden(*args):
            raise AssertionError("a 2m-vertex graph on the twin path")

        monkeypatch.setattr(k0lab.k0, "build_cayley", forbidden)
        monkeypatch.setattr(DirectedMultigraph, "i_minus_at", forbidden)
        for spec, want in zip(specs, expected):
            got = analyze(spec, method="full")
            assert self._fields(got) == want, (spec.group.n, spec.gens)
            assert (got.method, got.group_kind) == ("full_snf", "dihedral")
            assert analyze(spec) == got
        assert len(specs) == 2912

    def test_det_is_the_twins_cayley_det(self, monkeypatch):
        twins = []
        cayley_det = k0lab.circulant.cayley_det

        def recording(spec):
            twins.append((spec.n, spec.gens, spec.weights))
            return cayley_det(spec)

        monkeypatch.setattr(k0lab.circulant, "cayley_det", recording)
        report = analyze(CayleySpec(DihedralGroup(10), (13, 3), (1, 1)))
        assert twins == [(10, (1, 9), (1, 1))]
        assert (report.det_value, report.k0) == (-3, FinAbGroup((3,)))

    def test_dihedral_family_matches_the_theorem_table(self):
        for m in range(1, 301):
            report = analyze(CayleySpec.dihedral(m))
            assert report.k0 == dihedral_theorem_row(m)[0], m
            assert report.identity_order == 1 and report.method == "full_snf"
            assert len(report.snf_diag) == 2 * m
        report = analyze(CayleySpec.dihedral(10_000))
        assert report.k0 == dihedral_theorem_row(10_000)[0] == FinAbGroup((3,))
        assert report.snf_diag == (1,) * 19_999 + (3,)
        assert report.det_value == -3

    @pytest.mark.parametrize(
        "m, gens, weights",
        [
            (7, (1, 7), (1, 2)),  # weights other than (1, 1)
            (7, (1, 7), (2, 1)),
            (6, (6, 7), (1, 1)),  # two reflections
            (7, (7, 9), (1, 1)),
            (2, (1, 2), (1, 1)),  # m <= 2
            (1, (0, 1), (1, 1)),
        ],
    )
    def test_other_specs_take_the_sparse_path(self, monkeypatch, m, gens, weights):
        spec = CayleySpec(DihedralGroup(m), gens, weights)
        want = analyze(build_cayley(spec))
        built = []
        monkeypatch.setattr(
            k0lab.k0, "build_cayley", lambda s: built.append(s) or build_cayley(s)
        )
        got = analyze(spec)
        assert built == [spec]
        assert self._fields(got) == self._fields(want)

    @pytest.mark.parametrize(
        "m, gens", [(6, (2, 6)), (9, (3, 10)), (8, (14, 4)), (4, (0, 5)), (5, (2, 4))]
    )
    def test_non_coprime_rotation_does_not_generate(self, monkeypatch, m, gens):
        built = []
        monkeypatch.setattr(
            k0lab.k0, "build_cayley", lambda s: built.append(s) or build_cayley(s)
        )
        with pytest.raises(NotGeneratingError, match="^S does not generate the group$"):
            analyze(CayleySpec(DihedralGroup(m), gens, (1, 1)))
        assert len(built) == 1

    def test_companion_methods_still_refuse_dihedral_specs(self):
        for method in ("companion", "both"):
            with pytest.raises(InvalidSpecError):
                analyze(CayleySpec.dihedral(7), method=method)

    def test_twin_report_is_witnessed(self, monkeypatch):
        real_reduce = k0lab.k0.cokernel_with_class

        def doubled_order(m, vec=None, *, modulus=None):
            diag, group, order = real_reduce(m, vec, modulus=modulus)
            return diag, group, 2 * order

        monkeypatch.setattr(k0lab.k0, "cokernel_with_class", doubled_order)
        with pytest.raises(InternalCheckError, match="does not divide W - 1 = 1"):
            analyze(CayleySpec.dihedral(40))
