"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL line
per criterion even when everything is green.
"""

import itertools
import random
from math import gcd

import pytest

from k0lab.circulant import (
    Circulant,
    cayley_det,
    det_sign_closed_form,
    nullity_from_cyclotomics,
    representer,
    two_generator_singularity,
)
from k0lab.classify import dihedral_theorem_row
from k0lab.graphs import CayleySpec, build_cayley
from k0lab.k0 import analyze, closed_form_S01
from k0lab.zmatrix import FinAbGroup, IntMatrix, cokernel, cokernel_with_class, det

from conftest import random_matrix, rank
from oracle import (
    circulant_det,
    circulant_matrix,
    companion_matrix,
    det_via_cofactor,
    identity_matrix,
    in_split,
    mat_pow,
    mat_sub,
    singleton_partition,
    snf_via_determinant_divisors,
)


def _verdict(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    tail = "" if not failures else f"  ({len(failures)} failing checks)"
    print(f"[acceptance] criterion {number:>2} {status}: {description}{tail}")
    assert not failures, (
        f"criterion {number} [{description}]: {len(failures)} failing checks; "
        f"first few: {failures[:4]}"
    )


def generating_subsets(n: int, pool, max_size: int):
    for size in range(1, max_size + 1):
        for subset in itertools.combinations(pool, size):
            if gcd(n, *subset) == 1:
                yield subset


@pytest.fixture(scope="module")
def companion_sweep():
    """Shared corpus for criteria 6 and 9: exhaustive n <= 20 plus 200 random
    instances with n <= 40; records reduction mismatches and identity-order
    violations."""
    reduction_failures = []
    order_divides_failures = []
    order_exact_failures = []

    def visit(spec: CayleySpec):
        n, total = spec.n, spec.total_weight
        try:
            report = analyze(spec, method="both")
        except AssertionError as exc:
            reduction_failures.append((n, spec.gens, spec.weights, str(exc)))
            return
        if report.k0.is_finite:
            order = report.identity_order
            if not isinstance(order, int) or (total - 1) % order != 0:
                order_divides_failures.append((n, spec.gens, spec.weights, order))
            elif gcd(total - 1, n) == 1 and order != total - 1:
                order_exact_failures.append((n, spec.gens, spec.weights, order, total - 1))

    count = 0
    for n in range(2, 21):
        for gens in generating_subsets(n, range(1, n), 3):
            for weights in itertools.product((1, 2), repeat=len(gens)):
                if sum(weights) < 2:
                    continue
                visit(CayleySpec.cyclic(n, gens, weights))
                count += 1

    rng = random.Random(0x5EED)
    drawn = 0
    while drawn < 200:
        n = rng.randint(2, 40)
        size = rng.randint(1, min(3, n - 1))
        gens = tuple(sorted(rng.sample(range(1, n), size)))
        if gcd(n, *gens) != 1:
            continue
        weights = tuple(rng.randint(1, 2) for _ in gens)
        if sum(weights) < 2:
            continue
        visit(CayleySpec.cyclic(n, gens, weights))
        drawn += 1

    return {
        "count": count + drawn,
        "reduction": reduction_failures,
        "order_divides": order_divides_failures,
        "order_exact": order_exact_failures,
    }


def test_criterion_01_worked_example():
    failures = []
    spec = CayleySpec.cyclic(6, [2, 3])
    comp = companion_matrix(spec)
    if comp.matrix.to_lists() != [[0, 0, 1], [1, 0, 1], [0, 1, 0]]:
        failures.append(("companion matrix", comp.matrix.to_lists()))
    power = mat_sub(mat_pow(comp.matrix, 6), identity_matrix(3))
    if power.to_lists() != [[0, 1, 2], [2, 1, 3], [1, 2, 1]]:
        failures.append(("T^6 - I", power.to_lists()))
    if cokernel_with_class(power)[0] != (1, 1, 7):
        failures.append(("smith diagonal", cokernel_with_class(power)[0]))
    report = analyze(spec)
    if report.k0 != FinAbGroup((7,)):
        failures.append(("K0", report.k0))
    # Every vertex has out-weight W = 2, so (W-1)[1] = 0 and [1] = 0 in Z_7.
    if report.identity_order != 1:
        failures.append(("identity order", report.identity_order, "expected 1"))
    # (W-1)[1] = 0 gives d = (m-1)/ord[1] = 7/1. If the paper states this
    # example as L(1,8), that is a slip: in L(1,8), [1] generates Z_7.
    if report.classification.display() != "M_7(L(1,8))":
        failures.append(
            ("classification", report.classification.display(), "expected M_7(L(1,8))")
        )
    _verdict(1, "worked example: 6-vertex graph with steps {2,3}", failures)


def test_criterion_02_dihedral_table():
    failures = []
    for n in range(1, 31):
        report = analyze(CayleySpec.dihedral(n))
        expected_group, expected_class = dihedral_theorem_row(n)
        if report.det_value > 0:
            failures.append((n, "det sign", report.det_value))
        if report.k0 != expected_group:
            failures.append((n, "K0", report.k0.display(), expected_group.display()))
        if expected_class is not None:
            if report.classification.display() != expected_class.display():
                failures.append(
                    (n, "classification", report.classification.display(), expected_class.display())
                )
        elif report.classification.kind != "unclassified":
            failures.append((n, "classification", report.classification.display(), "(none)"))
    _verdict(2, "dihedral family, n = 1..30", failures)


def test_criterion_03_complete_graphs():
    failures = []
    for n in range(2, 13):
        report = analyze(CayleySpec.complete(n, 1))
        if report.k0 != FinAbGroup.from_invariants([n - 1]):
            failures.append((n, 1, "K0", report.k0.display()))
        if report.det_value != -(n - 1):
            failures.append((n, 1, "det", report.det_value))
    for n in range(2, 11):
        graph = build_cayley(CayleySpec.complete(n, 2))
        report = analyze(CayleySpec.complete(n, 2))
        if report.k0 != FinAbGroup(free_rank=n - 1):
            failures.append((n, 2, "K0", report.k0.display()))
        if report.det_value != 0:
            failures.append((n, 2, "det", report.det_value))
        if rank(graph.i_minus_at()) != 1:
            failures.append((n, 2, "rank", rank(graph.i_minus_at())))
    _verdict(3, "complete graphs with one and two loops", failures)


def test_criterion_04_single_generator_family():
    failures = []
    for n in range(1, 9):
        for total in range(2, 6):
            spec = (
                CayleySpec.cyclic(n, [1], [total]) if n > 1 else CayleySpec.cyclic(1, [0], [total])
            )
            report = analyze(spec)
            size = total**n - 1
            if report.k0 != FinAbGroup.from_invariants([size]):
                failures.append((n, total, "K0", report.k0.display()))
            if report.det_value != 1 - total**n:
                failures.append((n, total, "det", report.det_value))
            if gcd(total - 1, n) == 1:
                # [1] = (1 + W + ... + W^(n-1)) [v_(n-1)] has order W-1 in Z_(W^n-1).
                if report.identity_order != total - 1:
                    failures.append((n, total, "identity order", report.identity_order))
                # (W-1)[1] = 0 gives d = (m-1)/ord[1] = (W^n-1)/(W-1); n = 1 is the rose L(1,W).
                d = size // (total - 1)
                expected = f"L(1,{total**n})" if d == 1 else f"M_{d}(L(1,{total**n}))"
                got = report.classification.display()
                if got != expected:
                    failures.append((n, total, "classification", got, expected))
    _verdict(4, "single-generator weighted cycles, n <= 8, W <= 5", failures)


def test_criterion_05_loop_step_closed_form():
    failures = []
    for n in range(1, 11):
        for a in range(1, 6):
            for b in range(1, 6):
                expected = closed_form_S01(n, a, b)
                if n == 1:
                    actual = cokernel(IntMatrix.from_rows([[1 - a - b]]))
                else:
                    actual = analyze(CayleySpec.cyclic(n, [0, 1], [a, b])).k0
                if actual != expected:
                    failures.append((n, a, b, actual.display(), expected.display()))
    _verdict(5, "closed form for loops-plus-step weights, n <= 10, a,b <= 5", failures)


def test_criterion_06_companion_reduction(companion_sweep):
    failures = companion_sweep["reduction"]
    assert companion_sweep["count"] > 40000
    _verdict(
        6,
        f"companion reduction vs full Smith form on {companion_sweep['count']} instances",
        failures,
    )


def test_criterion_07_determinant_sign():
    failures = []
    checked = 0
    for n in range(1, 15):
        for gens in generating_subsets(n, range(n), 3):
            for weights in itertools.product((1, 2, 3), repeat=len(gens)):
                if sum(weights) < 2:
                    continue
                spec = CayleySpec.cyclic(n, gens, weights)
                d = cayley_det(spec)
                checked += 1
                if det_sign_closed_form(spec) != (d > 0) - (d < 0):
                    failures.append((n, gens, weights, d))
    assert checked > 30000
    _verdict(7, f"determinant-sign criterion on {checked} instances, n <= 14", failures)


def test_criterion_08_two_generator_trichotomy():
    # The trichotomy presumes the two steps generate the cyclic group (the
    # standing hypothesis of the weighted-Cayley analysis), so non-generating
    # pairs are excluded here.
    failures = []
    checked = 0
    for n in range(2, 19):
        for s1 in range(n):
            for s2 in range(s1 + 1, n):
                if gcd(n, s1, s2) != 1:
                    continue
                for a in (1, 2, 3):
                    for b in (1, 2, 3):
                        spec = CayleySpec.cyclic(n, [s1, s2], [a, b])
                        singular, _tag = two_generator_singularity(n, s1, s2, a, b)
                        checked += 1
                        if singular != (cayley_det(spec) == 0):
                            failures.append((n, s1, s2, a, b))
    assert checked > 7000
    _verdict(8, f"two-generator singularity trichotomy on {checked} instances", failures)


def test_criterion_09_identity_class_order(companion_sweep):
    failures = companion_sweep["order_divides"] + companion_sweep["order_exact"]
    _verdict(
        9,
        "identity-class order divides W-1, equals W-1 when gcd(W-1, n) = 1",
        failures,
    )


def test_criterion_10_oracle_equivalence():
    failures = []
    rng = random.Random(0xACCE)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 6)
        m = random_matrix(rng, n, n)
        if det_via_cofactor(m) == 0:
            continue
        checked += 1
        if snf_via_determinant_divisors(m) != cokernel_with_class(m)[0]:
            failures.append(("ddt", m.to_lists()))
    for _ in range(60):
        n = rng.randint(1, 8)
        c = Circulant.of([rng.randint(-4, 4) for _ in range(n)])
        m = circulant_matrix(c)
        reference = det_via_cofactor(m)
        if det(m) != reference or circulant_det(c) != reference:
            failures.append(("det", c.first_row))
    for _ in range(60):
        n = rng.randint(1, 24)
        c = Circulant.of([rng.randint(-3, 3) for _ in range(n)])
        if nullity_from_cyclotomics(representer(c), n) != n - rank(circulant_matrix(c)):
            failures.append(("nullity", c.first_row))
    for n in range(2, 25):
        row = [-1] * n
        c = Circulant.of(row)
        if nullity_from_cyclotomics(representer(c), n) != n - rank(circulant_matrix(c)):
            failures.append(("nullity-structured", n))
    _verdict(10, "oracle equivalence: Smith forms, determinants, nullities", failures)


def test_criterion_11_flow_equivalence_invariance():
    failures = []
    corpus = [
        build_cayley(CayleySpec.complete(3, 1)),
        build_cayley(CayleySpec.complete(5, 1)),
        build_cayley(CayleySpec.complete(4, 2)),
        build_cayley(CayleySpec.cyclic(4, [1], [2])),
        build_cayley(CayleySpec.cyclic(6, [1], [3])),
        build_cayley(CayleySpec.cyclic(6, [2, 3])),
    ]
    for g in corpus:
        split = in_split(g, singleton_partition(g))
        if det(g.i_minus_a()) != det(split.i_minus_a()):
            failures.append(("det", g.adjacency))
        if cokernel(g.i_minus_a()) != cokernel(split.i_minus_a()):
            failures.append(("coker", g.adjacency))
    for n in range(3, 13):
        base = build_cayley(CayleySpec.cyclic(n, [1, n - 1]))
        split = in_split(base, singleton_partition(base))
        dihedral = build_cayley(CayleySpec.dihedral(n))
        pairs = [("base", base), ("dihedral", dihedral)]
        for label, other in pairs:
            if det(split.i_minus_a()) != det(other.i_minus_a()):
                failures.append((n, label, "det"))
            if cokernel(split.i_minus_a()) != cokernel(other.i_minus_a()):
                failures.append((n, label, "coker"))
    _verdict(11, "in-splitting preserves det(I - A) and Coker(I - A)", failures)
