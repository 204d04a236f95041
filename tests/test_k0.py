import itertools
import json
import subprocess
import sys
from dataclasses import replace
from math import gcd

import pytest

import k0lab.circulant
import k0lab.k0
from k0lab.circulant import IntPolynomial
from k0lab.errors import (
    InternalCheckError,
    InvalidSpecError,
    NotGeneratingError,
)
from k0lab.graphs import (
    CayleySpec,
    DirectedMultigraph,
    build_cayley,
    build_complete_graph,
    k_cycle,
)
from k0lab.k0 import (
    K0Report,
    _companion_presentation,
    _validate_report,
    analyze,
    closed_form_S01,
    companion_matrix,
    f_sequence,
    verify_Tn_structure,
)
from k0lab.zmatrix import FinAbGroup, IntMatrix, cokernel, mat_pow

from conftest import src_on_path

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
        # g = sum_{i<n} T^i e_{s_k}: the sum of the last columns of T^0..T^(n-1).
        # Every T^j g has the same order in Coker(T^n - I), so the differential
        # tests cannot tell g from e.g. sum T^i e_1; this pins the vector itself.
        for n, gens, weights in [(6, (2, 3), (1, 1)), (11, (1, 4, 5), (2, 1, 3)), (9, (2,), (3,))]:
            spec = CayleySpec.cyclic(n, gens, weights)
            t = companion_matrix(spec).matrix
            sk = max(gens)
            expected = [sum(mat_pow(t, i).at(j, sk - 1) for i in range(n)) for j in range(sk)]
            assert _companion_presentation(companion_matrix(spec).char_poly, n)[1] == expected

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
                        assert p == mat_pow(comp.matrix, n) - IntMatrix.identity(comp.size)
                        count += 1
        assert count > 4000


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
        assert _full_k0(build_complete_graph(5, 1)) == FinAbGroup((4,))
        assert _full_k0(build_complete_graph(4, 2)) == FinAbGroup(free_rank=3)

    def test_dihedral_nine(self):
        g = build_cayley(CayleySpec.dihedral(9))
        assert _full_k0(g) == FinAbGroup((2, 2))

    def test_not_pis_rejected(self):
        report = analyze(k_cycle(4, 1), method="full")
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

    def test_crosscheck_limit_env(self, monkeypatch):
        monkeypatch.setenv("K0LAB_CROSSCHECK_LIMIT", "4")
        report = analyze(C6_23)
        assert report.method == "companion_reduction"
        monkeypatch.setenv("K0LAB_CROSSCHECK_LIMIT", "24")
        assert analyze(C6_23).method == "both"
        for bad in ("abc", "-1"):
            monkeypatch.setenv("K0LAB_CROSSCHECK_LIMIT", bad)
            with pytest.raises(InvalidSpecError, match=f"K0LAB_CROSSCHECK_LIMIT.*'{bad}'"):
                analyze(C6_23)

    def test_non_generating(self):
        with pytest.raises(NotGeneratingError):
            analyze(CayleySpec.cyclic(6, [2]))

    def test_raw_graph_input(self):
        report = analyze(build_complete_graph(5, 1))
        assert report.group_kind == "graph"
        assert report.generators is None
        assert report.k0 == FinAbGroup((4,))
        assert report.classification.display() == "L(1,5)"

    def test_raw_graph_not_pis(self):
        report = analyze(k_cycle(3, 1))
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
        monkeypatch.delenv("K0LAB_CROSSCHECK_LIMIT", raising=False)
        spec = CayleySpec.cyclic(40, [3, 7], [1, 2])
        report = analyze(spec)
        # W - 1 = 2, so a doubled order (4) cannot divide it.
        assert (report.method, report.identity_order) == ("companion_reduction", 2)
        real_det, real_reduce = k0lab.k0.det, k0lab.k0.cokernel_with_class
        monkeypatch.setattr(k0lab.k0, "det", lambda m: -real_det(m))
        with pytest.raises(InternalCheckError, match="parity rule"):
            analyze(spec)
        monkeypatch.setattr(k0lab.k0, "det", real_det)

        def doubled_order(m, vec=None):
            diag, group, order = real_reduce(m, vec)
            return diag, group, 2 * order

        monkeypatch.setattr(k0lab.k0, "cokernel_with_class", doubled_order)
        with pytest.raises(InternalCheckError, match="does not divide W - 1"):
            analyze(spec)


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


class TestTwoDivisorDeterminants:
    def test_det_magnitude_matches_smith_product(self):
        # |det(I - A^t)| agrees with the product of invariant factors across
        # the two-divisor family, nonsingular cases
        from math import prod

        from k0lab.circulant import cayley_det
        from k0lab.zmatrix import snf_diagonal

        for d1, d2 in [(2, 3), (2, 5), (3, 4)]:
            for mult in range(1, 5):
                n = d1 * d2 * mult
                spec = CayleySpec.cyclic(n, [d1, d2])
                d = cayley_det(spec)
                diag = snf_diagonal(build_cayley(spec).i_minus_at())
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
                    checked += 1
        assert checked > 0

    def test_auto_past_limit_builds_no_graph(self, monkeypatch):
        monkeypatch.delenv("K0LAB_CROSSCHECK_LIMIT", raising=False)
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

    def test_both_mode_checks_identity_order_from_companion_side(self, monkeypatch):
        spec = CayleySpec.cyclic(5, [1], [3])  # K0 = Z_242, [1] of order W - 1 = 2
        assert analyze(spec, method="both").identity_order == 2
        presentation = k0lab.k0._companion_presentation
        monkeypatch.setattr(
            k0lab.k0, "_companion_presentation", lambda h, n: (presentation(h, n)[0], [0])
        )
        with pytest.raises(InternalCheckError, match=r"1 vs 2 for n=5 S=\(1,\) w=\(3,\)$"):
            analyze(spec, method="both")
