import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from k0lab.circulant import (
    Circulant,
    IntPolynomial,
    cayley_circulant,
    cayley_det,
    circulant_det,
    cyclotomic,
    det_sign_closed_form,
    divisors,
    euler_phi,
    is_cayley_singular,
    nonsingular_det_sign,
    nullity_from_cyclotomics,
    oriented_arc,
    representer,
    resultant,
    singular_cyclotomic_divisors,
    two_generator_singularity,
    weight_arc,
    x_pow_minus_one,
    x_pow_mod,
)
from k0lab.graphs import CayleySpec
from k0lab.zmatrix import det, rank


def poly(*coeffs):
    return IntPolynomial.of(coeffs)


def arc_families(n_max: int = 40):
    """Specs whose shortest arc is not [s_1, s_k]: {1, n - 1} and {0, 1, n - 1},
    with w_0 = 1 among them, for 3 <= n <= n_max."""
    for n in range(3, n_max + 1):
        for gens, weights in [
            ((1, n - 1), (1, 1)),
            ((1, n - 1), (2, 2)),
            ((1, n - 1), (2, 3)),
            ((0, 1, n - 1), (3, 1, 2)),
            ((0, 1, n - 1), (1, 1, 1)),
            ((0, 1, n - 1), (1, 2, 2)),
        ]:
            yield CayleySpec.cyclic(n, gens, weights)


class TestIntPolynomial:
    def test_canonical_form(self):
        assert IntPolynomial.of([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPolynomial.of([0, 0]).is_zero

    def test_arithmetic(self):
        f = poly(1, 1)
        g = poly(-1, 1)
        assert f * g == poly(-1, 0, 1)
        assert f + g == poly(0, 2)
        assert f - f == IntPolynomial()

    def test_exact_division(self):
        f = poly(-1, 0, 0, 0, 0, 0, 1)  # x^6 - 1
        q, r = f.divmod_by(poly(-1, 1))
        assert r.is_zero
        assert q == poly(1, 1, 1, 1, 1, 1)

    def test_divides(self):
        assert poly(-1, 1).divides(x_pow_minus_one(5))
        assert not poly(1, 1, 1).divides(poly(1, 0, 1))

    def test_evaluate(self):
        assert poly(1, -2, 3)(2) == 1 - 4 + 12


class TestRepresenter:
    def test_c6_23(self):
        spec = CayleySpec.cyclic(6, [2, 3])
        assert representer(cayley_circulant(spec)) == poly(1, 0, 0, -1, -1, 0)

    def test_identity(self):
        assert representer(Circulant.of([1, 0, 0, 0])) == poly(1)

    def test_k_cycle(self):
        spec = CayleySpec.cyclic(3, [1], [2])
        assert representer(cayley_circulant(spec)) == poly(1, 0, -2)
        assert cayley_det(spec) == 1 - 2**3


class TestCyclotomic:
    def test_first(self):
        assert cyclotomic(1) == poly(-1, 1)

    def test_sixth(self):
        assert cyclotomic(6) == poly(1, -1, 1)

    def test_twelfth(self):
        assert cyclotomic(12) == poly(1, 0, -1, 0, 1)

    def test_product_over_divisors(self):
        for n in range(1, 61):
            product = poly(1)
            for d in divisors(n):
                product = product * cyclotomic(d)
            assert product == x_pow_minus_one(n), n

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


class TestSingularDivisors:
    def test_degenerate_pair(self):
        assert singular_cyclotomic_divisors(poly(1, -1, 0, 0, 0, -1), 6) == {6}

    def test_nonsingular_cycle(self):
        for n in (2, 5, 9):
            assert singular_cyclotomic_divisors(poly(1, -2), n) == set()

    def test_all_minus_ones(self):
        n = 6
        p = IntPolynomial.of([-1] * n)
        expected = {d for d in divisors(n) if d > 1}
        assert singular_cyclotomic_divisors(p, n) == expected
        assert nullity_from_cyclotomics(p, n) == n - 1

    def test_nullity_matches_rank(self, rng):
        for _ in range(60):
            n = rng.randint(1, 24)
            row = [rng.randint(-5, 5) for _ in range(n)]
            c = Circulant.of(row)
            p = representer(c)
            assert nullity_from_cyclotomics(p, n) == n - rank(c.to_matrix())


class TestCirculantDet:
    def test_complete_graph_row(self):
        # I - A^t of the complete graph on 5 vertices with one loop each
        assert circulant_det(Circulant.of([0, -1, -1, -1, -1])) == -4

    def test_loop_plus_step_family(self):
        # S = {0, 1} with weights (3, 1) on Z_4: det = (1-3)^4 - 1
        spec = CayleySpec.cyclic(4, [0, 1], [3, 1])
        assert cayley_det(spec) == 15

    def test_identity(self):
        assert circulant_det(Circulant.of([1, 0, 0])) == 1

    def test_matches_dense_determinant(self, rng):
        for _ in range(120):
            n = rng.randint(1, 24)
            c = Circulant.of([rng.randint(-5, 5) for _ in range(n)])
            assert circulant_det(c) == det(c.to_matrix())

    def test_transpose_symmetry(self, rng):
        for _ in range(40):
            n = rng.randint(1, 12)
            row = [rng.randint(-4, 4) for _ in range(n)]
            transposed = [row[(-i) % n] for i in range(n)]
            assert circulant_det(Circulant.of(row)) == circulant_det(Circulant.of(transposed))


class TestCayleyDet:
    """cayley_det works from x^n mod f; circulant_det is the degree-n resultant."""

    def test_matches_circulant_det_on_small_specs(self):
        # Every (n, S, w) with n <= 12, |S| <= 3 and weights <= 3 (<= 2 when
        # |S| = 3): 0 in S, singular and non-generating specs included; then
        # the arc families up to n = 40.
        small = (
            CayleySpec.cyclic(n, gens, weights)
            for n in range(1, 13)
            for size in (1, 2, 3)
            for gens in itertools.combinations(range(n), size)
            for weights in itertools.product(range(1, 4 if size < 3 else 3), repeat=size)
        )
        # oriented_arc's (sign, h) must give the same product, for both kinds
        # of arc (a unit end exists when 0 is not in S), ties ({1, n - 1} at
        # weights (1, 1) and (2, 2)) included.
        count = 0
        for spec in itertools.chain(small, arc_families()):
            want = circulant_det(cayley_circulant(spec))
            assert cayley_det(spec) == want, (spec.n, spec.gens, spec.weights)
            for unit_end in (False, True) if 0 not in spec.gens else (False,):
                sign, h = oriented_arc(spec, unit_end)
                product = resultant(x_pow_minus_one(spec.n), IntPolynomial.of(h))
                assert sign * product == want, (spec.n, spec.gens, spec.weights, unit_end)
                assert not h or abs(h[-1]) <= abs(h[0]) and (abs(h[-1]) == 1 or not unit_end)
            count += 1
        assert count == 8528 + 6 * 38

    @pytest.mark.parametrize(
        "n, gens, weights, start, length",
        [
            # {1, n - 1}: drop the gap (1, n - 1); g = -1 + x - x^2 from x^(n-1).
            (40, (1, 39), (1, 1), 39, 2),
            (2000, (1, 1999), (2, 2), 1999, 2),
            # {0, 1, n - 1}, coefficients -2, -1, -2: the arc [n - 1, 1].
            (37, (0, 1, 36), (3, 1, 2), 36, 2),
            (5000, (0, 1, 4999), (3, 1, 2), 4999, 2),
            # w_0 = 1 leaves 0 out of the arc: [2, 3], then [n - 1, 1] around 0.
            (40, (0, 2, 3), (1, 1, 2), 2, 1),
            (10, (0, 1, 9), (1, 1, 1), 9, 2),
            # No arc beats [s_1, s_k]; the wrap gap wins the tie in the second.
            (40, (3, 5, 8), (1, 1, 1), 0, 8),
            (6, (0, 3), (2, 1), 0, 3),
        ],
    )
    def test_pins_the_arc(self, n, gens, weights, start, length):
        spec = CayleySpec.cyclic(n, gens, weights)
        arc_start, g = weight_arc(spec)
        assert (arc_start, len(g) - 1) == (start, length)
        if n <= 40:
            assert cayley_det(spec) == circulant_det(cayley_circulant(spec))
            representer_poly = representer(cayley_circulant(spec))
            expected = bool(singular_cyclotomic_divisors(representer_poly, n))
            assert is_cayley_singular(spec) == expected

    @pytest.mark.parametrize("n", [10**4, 10**4 + 1])
    def test_loop_plus_step_closed_form(self, n):
        # S = {0, 1}, weights (a, b): det = prod (1 - a - b zeta) = +-((1 - a)^n - b^n).
        for a, b in [(3, 3), (2, 3), (1, 2), (1, 1), (4, 1), (3, 2), (5, 2)]:
            d = cayley_det(CayleySpec.cyclic(n, [0, 1], [a, b]))
            magnitude = abs((1 - a) ** n - b**n)
            assert abs(d) == magnitude, (n, a, b)
            if magnitude:
                assert (d > 0) - (d < 0) == nonsingular_det_sign(n, (0, 1), (a, b)), (n, a, b)

    def test_refuses_non_cyclic(self):
        with pytest.raises(ValueError):
            cayley_det(CayleySpec.dihedral(4))


class TestXPowMod:
    def test_contract_on_non_monic_f(self, rng):
        # (q, e) = x_pow_mod(f, n): f divides b^e x^n - q over Z and deg q <
        # deg f, for leading coefficients b that scale (2, -3) or only flip the
        # sign (-1) at each step, and for a monic f, where e = 0.
        for lead in (2, -1, -3, 1):
            for _ in range(25):
                d = rng.randint(1, 5)
                f = [rng.randint(-4, 4) for _ in range(d)] + [lead]
                n = rng.randint(1, 200)
                q, e = x_pow_mod(f, n)
                assert len(q) == d and (e == 0 or lead != 1)
                rest = IntPolynomial.of([0] * n + [lead**e]) - IntPolynomial.of(q)
                assert IntPolynomial.of(f).divides(rest), (f, n)


class TestResultant:
    def test_constants(self):
        assert resultant(poly(3), poly(2, 1)) == 3
        assert resultant(poly(2, 1), poly(5)) == 5

    def test_zero(self):
        assert resultant(IntPolynomial(), poly(1, 1)) == 0

    def test_common_root(self):
        assert resultant(poly(-1, 1) * poly(1, 1), poly(-1, 1) * poly(2, 1)) == 0

    def test_linear_pair(self):
        # Res(x - a, x - b) = a - b... evaluated: (x-b) at root a
        assert resultant(poly(-3, 1), poly(-5, 1)) == -2

    def test_swap_sign_rule(self, rng):
        for _ in range(40):
            f = IntPolynomial.of([rng.randint(-4, 4) for _ in range(rng.randint(2, 6))])
            g = IntPolynomial.of([rng.randint(-4, 4) for _ in range(rng.randint(2, 6))])
            if f.is_zero or g.is_zero or f.degree() < 1 or g.degree() < 1:
                continue
            sign = -1 if (f.degree() % 2 == 1 and g.degree() % 2 == 1) else 1
            assert resultant(f, g) == sign * resultant(g, f)

    @staticmethod
    def _sylvester_det(f: IntPolynomial, g: IntPolynomial) -> int:
        from k0lab.zmatrix import IntMatrix

        m, n = f.degree(), g.degree()
        size = m + n
        rows = []
        for block, (poly, copies) in enumerate(((f, n), (g, m))):
            coeffs = list(reversed(poly.coeffs))
            for i in range(copies):
                row = [0] * size
                for j, c in enumerate(coeffs):
                    row[i + j] = c
                rows.append(row)
        return det(IntMatrix.from_rows(rows))

    def test_matches_sylvester_determinant_both_orientations(self, rng):
        # covers the swapped orientation (deg f < deg g) that circulant
        # determinants never exercise, where sign slips are easiest
        for _ in range(60):
            f = IntPolynomial.of([rng.randint(-6, 6) for _ in range(rng.randint(2, 8))])
            g = IntPolynomial.of([rng.randint(-6, 6) for _ in range(rng.randint(2, 8))])
            if f.is_zero or g.is_zero or f.degree() < 1 or g.degree() < 1:
                continue
            assert resultant(f, g) == self._sylvester_det(f, g)
            assert resultant(g, f) == self._sylvester_det(g, f)

    def test_disputed_orientation_example(self):
        f = poly(-9, 4, 3, 4)
        g = poly(-9, 0, -9, 1, 3, 4, 6, 7)
        assert resultant(f, g) == -1654269813
        assert resultant(g, f) == 1654269813


class TestDetSignClosedForm:
    def test_positive_case(self):
        spec = CayleySpec.cyclic(6, [1, 2], [1, 4])
        assert det_sign_closed_form(spec) == 1
        assert cayley_det(spec) > 0

    def test_odd_n_never_positive(self):
        for gens, weights in [((1,), (2,)), ((1, 2), (1, 4)), ((0, 1), (3, 1))]:
            spec = CayleySpec.cyclic(5, gens, weights)
            assert det_sign_closed_form(spec) in (-1, 0)

    def test_complete_graph_negative(self):
        for n in range(2, 8):
            assert det_sign_closed_form(CayleySpec.complete(n, 1)) == -1

    def test_agrees_with_exact_sign_small(self):
        for n in range(1, 11):
            for size in (1, 2):
                for gens in itertools.combinations(range(n), size):
                    if gcd(n, *gens) != 1:
                        continue
                    for weights in itertools.product((1, 2, 3), repeat=size):
                        if sum(weights) < 2:
                            continue
                        spec = CayleySpec.cyclic(n, gens, weights)
                        d = cayley_det(spec)
                        assert det_sign_closed_form(spec) == (d > 0) - (d < 0)

    def test_rejects_non_generating(self):
        with pytest.raises(ValueError):
            det_sign_closed_form(CayleySpec.cyclic(6, [2, 4]))


class TestIsCayleySingular:
    """is_cayley_singular tests Phi_d | f on degree s_k; the reference divides the representer."""

    def test_matches_representer_divisors_on_small_specs(self):
        # Every (n, S, w) with n <= 12, |S| <= 3 and weights <= 3: 0 in S,
        # zero f and non-generating specs included; then the arc families up
        # to n = 40.
        small = (
            CayleySpec.cyclic(n, gens, weights)
            for n in range(1, 13)
            for size in (1, 2, 3)
            for gens in itertools.combinations(range(n), size)
            for weights in itertools.product((1, 2, 3), repeat=size)
        )
        count = 0
        for spec in itertools.chain(small, arc_families()):
            representer_poly = representer(cayley_circulant(spec))
            expected = bool(singular_cyclotomic_divisors(representer_poly, spec.n))
            assert is_cayley_singular(spec) == expected, (spec.n, spec.gens, spec.weights)
            count += 1
        assert count == 22113 + 6 * 38

    def test_zero_f_is_singular(self):
        for n in (1, 4, 7):
            assert is_cayley_singular(CayleySpec.cyclic(n, [0], [1]))

    def test_large_n_builds_no_representer(self, monkeypatch):
        import k0lab.circulant as circ

        def forbidden(*args):
            raise AssertionError("a degree-n representer in the singularity test")

        monkeypatch.setattr(circ, "cayley_circulant", forbidden)
        monkeypatch.setattr(circ, "representer", forbidden)
        # 1 - x - x^5 vanishes at the primitive sixth roots of unity.
        assert is_cayley_singular(CayleySpec.cyclic(6000, [1, 5]))
        assert det_sign_closed_form(CayleySpec.cyclic(6000, [1, 5])) == 0
        assert not is_cayley_singular(CayleySpec.cyclic(10**4, [2, 3]))
        assert det_sign_closed_form(CayleySpec.cyclic(10**4, [2, 3])) == -1
        # x^2 (1 - 2x) after the strip: no cyclotomic factor.
        assert not is_cayley_singular(CayleySpec.cyclic(10**4, [0, 2, 3], [1, 1, 2]))


class TestTwoGeneratorSingularity:
    def test_case_one(self):
        singular, tag = two_generator_singularity(6, 1, 5, 1, 1)
        assert singular and tag == "equal-weights-sixth-roots"

    def test_case_two(self):
        singular, tag = two_generator_singularity(4, 0, 1, 2, 1)
        assert singular and tag == "left-heavy-half-turn"

    def test_case_three(self):
        singular, tag = two_generator_singularity(4, 1, 2, 1, 2)
        assert singular and tag == "right-heavy-half-turn"

    def test_nonsingular(self):
        singular, tag = two_generator_singularity(5, 1, 2, 1, 1)
        assert not singular and tag is None

    def test_cases_are_mutually_exclusive(self):
        for n in range(2, 13):
            for s1 in range(n):
                for s2 in range(s1 + 1, n):
                    for a in (1, 2, 3):
                        for b in (1, 2, 3):
                            hits = 0
                            if a == b == 1 and n % 6 == 0 and (s2 - 5 * s1) % 6 == 0:
                                hits += 1
                            if a == b + 1 and n % 2 == 0 and s1 % 2 == 0 and s2 % 2 == 1:
                                hits += 1
                            if b == a + 1 and n % 2 == 0 and s1 % 2 == 1 and s2 % 2 == 0:
                                hits += 1
                            assert hits <= 1

    def test_agrees_with_exact_determinant_small(self):
        for n in range(2, 13):
            for s1 in range(n):
                for s2 in range(s1 + 1, n):
                    if gcd(n, s1, s2) != 1:
                        continue
                    for a in (1, 2):
                        for b in (1, 2):
                            spec = CayleySpec.cyclic(n, [s1, s2], [a, b])
                            singular, _ = two_generator_singularity(n, s1, s2, a, b)
                            assert singular == (cayley_det(spec) == 0), (n, s1, s2, a, b)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            two_generator_singularity(6, 3, 3, 1, 1)


@given(st.integers(1, 40))
def test_euler_phi_sums_to_n(n):
    assert sum(euler_phi(d) for d in divisors(n)) == n


@settings(max_examples=60)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=10))
def test_circulant_det_hypothesis(row):
    c = Circulant.of(row)
    assert circulant_det(c) == det(c.to_matrix())
