"""Circulant matrices and integer polynomial machinery.

A circulant is determined by its first row; its determinant is the product
of the representer polynomial over all n-th roots of unity.  For the
circulant I - A^t of a weighted Cayley graph over Z_n, ``cayley_det``
takes that product from f = 1 - sum w(s) x^s read along the shortest arc
of Z_n that holds its nonzero coefficients, a polynomial h of degree
L <= s_k: it reduces x^n mod h by square-and-multiply, O(L^2 log n)
products, and runs the resultant on polynomials of degree at most L.  One
pseudo-remainder loop on int lists (``_reduce``) serves both steps.  The
companion side of ``k0`` reads the shortest arc whose ends are admissible
(``weight_arc``), whatever its lead, through the same ``x_pow_mod``.
Singularity is decided by exact cyclotomic divisibility, never by
floating point.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import InternalCheckError, NotGeneratingError, all_ints


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if not all_ints(self.coeffs):
            raise ValueError("polynomial coefficients must be integers")
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients must be canonical (no trailing zeros)")

    @classmethod
    def of(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        c = list(coeffs)
        if not all_ints(c):
            raise ValueError("polynomial coefficients must be integers")
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(map(int, c)))  # a bool becomes 0 or 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def divmod_by(self, divisor: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Division in Z[x]; every elimination step must divide exactly.

        Raises ValueError when a leading coefficient fails to divide, so a
        zero remainder certifies divisibility over Z (the divisors used
        here are monic, where the division always succeeds).
        """
        q: list[int] = []
        rem = self._long_division(divisor, q)
        return _trimmed(q), rem

    def __mod__(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """The remainder of ``divmod_by``, without building the quotient."""
        return self._long_division(divisor, None)

    def _long_division(self, divisor: "IntPolynomial", q: list[int] | None) -> "IntPolynomial":
        """Remainder of self by divisor; the quotient coefficients go into q when given."""
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dcoeffs = divisor.coeffs
        dn = len(dcoeffs)
        if len(self.coeffs) < dn:
            return self
        rem = list(self.coeffs)
        lead = dcoeffs[-1]
        if q is not None:
            q.extend([0] * (len(rem) - dn + 1))
        for shift in range(len(rem) - dn, -1, -1):
            c = rem[shift + dn - 1]
            if c == 0:
                continue
            if c % lead != 0:
                raise ValueError("non-exact division over Z")
            f = c // lead
            if q is not None:
                q[shift] = f
            for i, d in enumerate(dcoeffs):
                rem[shift + i] -= f * d
        return _trimmed(rem)

    def divides(self, other: "IntPolynomial") -> bool:
        """Exact divisibility self | other in Z[x] (self nonzero)."""
        if self.is_zero:
            raise ZeroDivisionError("zero polynomial divides nothing")
        try:
            return (other % self).is_zero
        except ValueError:
            return False

    def __str__(self):
        if self.is_zero:
            return "0"
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                xk = "x" if k == 1 else f"x^{k}"
                if c == 1:
                    terms.append(xk)
                elif c == -1:
                    terms.append(f"-{xk}")
                else:
                    terms.append(f"{c}*{xk}")
        return " + ".join(terms).replace("+ -", "- ")


def _trimmed(coeffs: list[int]) -> IntPolynomial:
    """IntPolynomial from a list of ints the caller built, trailing zeros stripped.

    Internal results need none of ``IntPolynomial.of``'s conversion.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return IntPolynomial(tuple(coeffs))


def x_pow_minus_one(n: int) -> IntPolynomial:
    """x^n - 1."""
    return IntPolynomial((-1,) + (0,) * (n - 1) + (1,))


@dataclass(frozen=True)
class Circulant:
    """Circulant matrix given by its first row; row k is the k-fold right shift."""

    first_row: tuple[int, ...]

    def __post_init__(self):
        if not self.first_row:
            raise ValueError("circulant needs a nonempty first row")
        if not all_ints(self.first_row):
            raise ValueError("circulant entries must be integers")

    @classmethod
    def of(cls, row: Sequence[int]) -> "Circulant":
        row = list(row)
        if not all_ints(row):
            raise ValueError("circulant entries must be integers")
        return cls(tuple(map(int, row)))  # a bool becomes 0 or 1

    @property
    def n(self) -> int:
        return len(self.first_row)


def representer(c: Circulant) -> IntPolynomial:
    """Polynomial whose k-th coefficient is the k-th first-row entry."""
    return IntPolynomial.of(c.first_row)


_cyclotomic_cache: dict[int, IntPolynomial] = {1: IntPolynomial((-1, 1))}
_cyclotomic_lock = threading.Lock()


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def cyclotomic(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial by iterated exact division of x^d - 1.

    Results are memoized; the cache tolerates concurrent readers with a
    single writer at a time.
    """
    if d < 1:
        raise ValueError("cyclotomic index must be positive")
    cached = _cyclotomic_cache.get(d)
    if cached is not None:
        return cached
    quotient = x_pow_minus_one(d)
    for e in divisors(d):
        if e < d:
            quotient, rem = quotient.divmod_by(cyclotomic(e))
            if not rem.is_zero:
                raise InternalCheckError("cyclotomic division left a remainder")
    with _cyclotomic_lock:
        _cyclotomic_cache.setdefault(d, quotient)
    return quotient


def singular_cyclotomic_divisors(p: IntPolynomial, n: int) -> set[int]:
    """Divisors d of n whose cyclotomic polynomial divides p exactly over Z.

    The set is nonempty exactly when the circulant with representer p is
    singular, and the phi-values of its members sum to the nullity.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    if p.is_zero:
        return set(divisors(n))
    return {d for d in divisors(n) if cyclotomic(d).divides(p)}


def nullity_from_cyclotomics(p: IntPolynomial, n: int) -> int:
    return sum(euler_phi(d) for d in singular_cyclotomic_divisors(p, n))


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) over Z via the fraction-free subresultant remainder sequence.

    Sign convention: Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots
    alpha of f, so with f = x^n - 1 this is exactly the product of g over
    all n-th roots of unity.  ``_resultant`` does the work on int lists.
    """
    return _resultant(list(f.coeffs), list(g.coeffs))


def _resultant(a: list[int], b: list[int]) -> int:
    """``resultant`` on coefficient lists with no trailing zeros; neither is changed.

    Collins' subresultant sequence (J. ACM 14, 1967): each step replaces
    (a, b) by (b, r), r = lc(b)^(delta + 1) a mod b over g h^delta exactly.
    """
    if not a or not b:
        return 0
    if len(a) == 1:
        return a[0] ** (len(b) - 1)
    if len(b) == 1:
        return b[0] ** (len(a) - 1)
    sign = 1
    if len(a) < len(b):
        if len(a) % 2 == 0 and len(b) % 2 == 0:  # both degrees odd
            sign = -1
        a, b = b, a
    ca, cb = gcd(*a), gcd(*b)
    scale = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    g_coef, h_coef = 1, 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:
            sign = -sign
        lift = b[-1] ** (delta + 1 - _reduce(a, b))
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return 0
        divisor = g_coef * h_coef**delta
        r = [divmod(c * lift, divisor) for c in a]
        if any(rest for _, rest in r):
            raise InternalCheckError("subresultant step did not divide exactly")
        a, b = b, [quotient for quotient, _ in r]
        g_coef = a[-1]
        if delta > 0:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
    final = b[-1] ** (len(a) - 1) // h_coef ** (len(a) - 2)
    return sign * scale * final


def _reduce(c: list[int], f: list[int]) -> int:
    """Reduce c modulo f in place to b^e c mod f, cut to length deg f; returns e.

    b = lc(f).  Each step cancels the top coefficient t of c after scaling
    the coefficients below it by b, and is skipped when t is 0; with b = 1
    nothing is scaled and e = 0.  This is the one pseudo-remainder loop in
    the package: ``x_pow_mod`` and ``_resultant`` both reduce here.
    """
    d = len(f) - 1
    b = f[-1]
    low = f[:-1]
    e = 0
    for top in range(len(c) - 1, d - 1, -1):
        t = c[top]
        if t:
            if b != 1:
                for i in range(top):
                    c[i] *= b
                e += 1
            for i, a in enumerate(low, top - d):
                c[i] -= t * a
    del c[d:]
    return e


def cayley_circulant(spec) -> Circulant:
    """First row of I - A^t for a weighted Cayley graph over Z_n."""
    if not spec.is_cyclic:
        raise ValueError("circulant analysis needs a cyclic-group spec")
    n = spec.n
    row = [0] * n
    row[0] = 1
    for s, w in zip(spec.gens, spec.weights):
        row[(n - s) % n] -= w
    return Circulant.of(row)


def cayley_det(spec) -> int:
    """det(I - A^t) for a weighted Cayley graph over Z_n, from x^n mod h.

    The value is prod f(zeta) over the n-th roots of unity zeta, with
    f = 1 - sum_s w(s) x^s, which ``oriented_arc`` gives as sign * prod
    h(zeta), deg h <= s_k (2 for S = {1, n - 1}).  It equals
    Res(x^n - 1, p) for the representer p of ``cayley_circulant(spec)``,
    but no polynomial of degree above deg h is built.  A constant factor c
    of h contributes c^n.  For the rest, of degree d >= 1 and leading
    coefficient b, the product is Res(x^n - 1, h) = (-1)^(nd) b^(n - deg r)
    Res(h, r), with r = (x^n - 1) mod h over Q carried as q / b^e, q over
    Z, from ``x_pow_mod``; b need not be a unit.
    """
    n = spec.n
    sign, h = oriented_arc(spec)
    if not h:
        return 0
    content = gcd(*h)
    h = [c // content for c in h]
    d = len(h) - 1
    if d == 0:
        return sign * (content * h[0]) ** n
    b = h[-1]
    q, e = x_pow_mod(h, n)
    q[0] -= b**e
    while q and q[-1] == 0:
        q.pop()
    if not q:
        return 0
    # Res(h, q / b^e) = Res(h, q) / b^(ed): the b-exponent nets to n - deg q - ed.
    value = _unscaled(_resultant(h, q), b, n - (len(q) - 1) - e * d)
    return sign * (-1) ** (n * d) * content**n * value


def _unscaled(x: int, b: int, k: int) -> int:
    """x b^k, exact when k < 0: the power of an arc's lead that its product
    carries (``cayley_det``, and the companion side's det in ``k0``)."""
    if k >= 0:
        return x * b**k
    x, rest = divmod(x, b**-k)
    if rest:
        raise InternalCheckError("a power of the arc's lead does not divide its product")
    return x


def oriented_arc(spec, admissible: bool = False) -> tuple[int, list[int]]:
    """(sign, h) with prod f(zeta) = sign * prod h(zeta) over the n-th roots
    of unity zeta, for f = 1 - sum_s w(s) x^s; (1, []) when f is zero or,
    with ``admissible``, when f has no admissible arc.

    h is the g of ``weight_arc(spec, admissible)``, with f = x^a g modulo
    x^n - 1 and deg g = L, reversed when |g[0]| <= |g[-1]|, so that the
    end of smaller magnitude leads.  x^a contributes (prod zeta)^a =
    (-1)^((n+1)a) to the sign.  Since x -> 1/x permutes the roots of unity,
    the reversal x^L g(1/x) contributes (-1)^((n+1)L).  This is the one
    place the sign of the arc is worked out: ``cayley_det`` and the
    companion side (``k0._shortest_window``) both read it here.
    """
    n = spec.n
    start, h = weight_arc(spec, admissible)
    if not h:
        return 1, h
    exponent = (n + 1) * start
    if abs(h[0]) <= abs(h[-1]):
        h.reverse()
        exponent += (n + 1) * (len(h) - 1)
    return (-1 if exponent % 2 else 1), h


def weight_arc(spec, admissible: bool = False) -> tuple[int, list[int]]:
    """(a, coefficients of g) with f = x^a g modulo x^n - 1 for f = 1 - sum_s
    w(s) x^s, g read along the shortest arc of Z_n that holds every nonzero
    coefficient of f; (0, []) when f is zero.

    The arc drops the largest gap between cyclically consecutive nonzero
    coefficients, the wrap gap included, and starts at a, the gap's upper
    end; deg g is the arc's length, and a lone point's gap is n.  Ties keep
    the wrap gap, so when no arc is shorter, x^a is the largest power of x
    dividing f and g = f / x^a.  With ``admissible`` only a gap with
    admissible ends may be dropped: every prime p that divides both ends
    leaves a single term of f mod p, which then is a unit of
    F_p[x]/(x^n - 1), so K0 has no p-part (``k0`` module docstring).  Ends
    with a +-1 among them, or coprime, are admissible; when the content of
    f exceeds 1 no gap is, and the result is (0, []).  ``oriented_arc``
    orients the arc for ``cayley_det``, which takes it whatever its ends,
    and for the companion side, which takes it with ``admissible``;
    ``is_cayley_singular`` reads g as it is.
    """
    if not spec.is_cyclic:
        raise ValueError("circulant analysis needs a cyclic-group spec")
    n = spec.n
    coeffs = dict(zip(spec.gens, (-w for w in spec.weights)))
    coeffs[0] = coeffs.get(0, 0) + 1
    points = sorted(q for q, c in coeffs.items() if c)
    if not points:
        return 0, []
    if admissible:
        values = [coeffs[q] for q in points]
        if gcd(*values) != 1:
            return 0, []
        single = _single_term_primes(values)
    gap, start = 0, None
    for low, high in zip([points[-1] - n, *points], points):  # the wrap gap first
        if high - low > gap and (
            not admissible
            or coprime_part(gcd(coeffs[low % n], coeffs[high]), single) == 1
        ):
            gap, start = high - low, high
    if start is None:  # admissible, and no gap has admissible ends
        return 0, []
    g = [0] * (n - gap + 1)
    for q in points:
        g[(q - start) % n] = coeffs[q]
    return start, g


def _single_term_primes(values: list[int]) -> int:
    """A number whose primes are those p that leave exactly one of the
    nonzero values, of gcd 1, nonzero mod p.

    p leaves only values[i] when it divides G_i, the gcd of all the others
    (and then not values[i], as the values have gcd 1), so the product of
    the G_i, from prefix and suffix gcds, has exactly those primes.  Ends
    u, v of a gap are admissible when gcd(u, v) has no prime outside it.
    """
    prefix = [0]
    for x in values:
        prefix.append(gcd(prefix[-1], x))
    single, suffix = 1, 0
    for i in range(len(values) - 1, -1, -1):
        single *= gcd(prefix[i], suffix) or 1
        suffix = gcd(suffix, values[i])
    return single


def coprime_part(x: int, y: int) -> int:
    """The largest divisor of x prime to y: x with every prime of y divided
    out, by one gcd against y^(bit length of x); 0 stays 0."""
    return x // gcd(x, y ** x.bit_length()) if y != 1 else x


def x_pow_mod(f: list[int], n: int) -> tuple[list[int], int]:
    """(q, e) with b^e x^n = q mod f over Z, deg q < d: square-and-multiply.

    f has degree d >= 1 and leading coefficient b.  After each squaring
    ``_reduce`` brings the product back below degree d, scaling by b only
    on the steps that cancel a nonzero top coefficient, so the denominator
    of x^n mod f stays an exact power of b and no gcd is taken; for a monic
    f, e = 0 and q is x^n mod f.  This is the one power of x in the
    package: ``cayley_det`` reduces x^n mod h here, and the companion side
    (``k0._companion_presentation``) x^n mod (x - 1) h.
    """
    d = len(f) - 1
    q = [1] + [0] * (d - 1)
    e = 0
    for bit in bin(n)[2:]:
        c = [0] * (2 * d)  # q^2, times x when the bit is set
        shift = bit == "1"
        for i, a in enumerate(q):
            if a:
                for j, a2 in enumerate(q, i + shift):
                    c[j] += a * a2
        e = 2 * e + _reduce(c, f)
        q = c
    return q, e


def is_cayley_singular(spec) -> bool:
    """Whether det(I - A^t) vanishes, decided on f = 1 - sum_s w(s) x^s.

    The representer p of ``cayley_circulant(spec)`` has p(zeta) = f(1/zeta)
    at the n-th roots of unity, and the roots of Phi_d are closed under
    inversion, so Phi_d divides p exactly when it divides f.  For d | n
    that holds exactly when Phi_d divides g, where f = x^a g modulo x^n - 1
    on the shortest arc (``weight_arc``): the two agree up to a power of
    zeta at every n-th root of unity.  Only the d | n with phi(d) at most
    deg g can divide g.  A zero f is singular.
    """
    _, g = weight_arc(spec)
    if not g:
        return True
    rest, degree = IntPolynomial(tuple(g)), len(g) - 1
    return any(euler_phi(d) <= degree and cyclotomic(d).divides(rest) for d in divisors(spec.n))


def det_sign_closed_form(spec) -> int:
    """Sign of det(I - A^t) from the parity criterion.

    Positive exactly when n is even and 1 + W_1 < W_0, where W_0 and W_1
    total the weights on even and odd generators; zero when the circulant
    is singular (decided cyclotomically); negative otherwise.
    """
    if not spec.is_cyclic:
        raise ValueError("the sign criterion applies to cyclic-group specs")
    if spec.total_weight < 2:
        raise ValueError("the sign criterion assumes total weight >= 2")
    if gcd(spec.n, *spec.gens) != 1:
        raise NotGeneratingError(f"S does not generate Z_{spec.n}")
    if is_cayley_singular(spec):
        return 0
    return nonsingular_det_sign(spec.n, spec.gens, spec.weights)


def nonsingular_det_sign(n: int, gens: Sequence[int], weights: Sequence[int]) -> int:
    """Sign of a nonzero det(I - A^t) for a cyclic spec: the parity branch of the criterion.

    Positive exactly when n is even and 1 + W_1 < W_0, where W_0 and W_1
    total the weights on even and odd generators; negative otherwise.
    """
    w_even = sum(w for s, w in zip(gens, weights) if s % 2 == 0)
    w_odd = sum(weights) - w_even
    return 1 if n % 2 == 0 and 1 + w_odd < w_even else -1


TWO_GENERATOR_CASES = (
    "equal-weights-sixth-roots",
    "left-heavy-half-turn",
    "right-heavy-half-turn",
)


def two_generator_singularity(n: int, s1: int, s2: int, a: int, b: int) -> tuple[bool, str | None]:
    """Exact singularity trichotomy for S = {s1, s2} with weights (a, b).

    When s1, s2 generate Z_n, det(I - A^t) vanishes exactly when one of
    three arithmetic patterns holds; returns (singular?, case tag or None).
    The patterns are mutually exclusive, and none applies when |a - b| > 1.
    """
    if not (0 <= s1 < s2 <= n - 1):
        raise ValueError("need 0 <= s1 < s2 <= n-1")
    if a < 1 or b < 1:
        raise ValueError("weights must be positive")
    if a == b == 1 and n % 6 == 0 and (s2 - 5 * s1) % 6 == 0:
        return True, TWO_GENERATOR_CASES[0]
    if a == b + 1 and n % 2 == 0 and s1 % 2 == 0 and s2 % 2 == 1:
        return True, TWO_GENERATOR_CASES[1]
    if b == a + 1 and n % 2 == 0 and s1 % 2 == 1 and s2 % 2 == 0:
        return True, TWO_GENERATOR_CASES[2]
    return False, None
