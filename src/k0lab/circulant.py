"""Circulant matrices and integer polynomial machinery.

A circulant is determined by its first row; its determinant is the product
of the representer polynomial over all n-th roots of unity, which
``circulant_det`` computes exactly as a resultant against x^n - 1.  For
the circulant I - A^t of a weighted Cayley graph over Z_n, ``cayley_det``
takes the same product from f = 1 - sum w(s) x^s read along the shortest
arc of Z_n that holds its nonzero coefficients, a polynomial g of degree
L <= s_k: it reduces x^n mod g by square-and-multiply, O(L^2 log n)
products, and runs the resultant on polynomials of degree at most L.
Singularity is decided by exact cyclotomic divisibility, never by
floating point.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from math import gcd
from typing import Sequence

from .errors import InternalCheckError, NotGeneratingError
from .zmatrix import IntMatrix


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first, no trailing zeros."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("coefficients must be canonical (no trailing zeros)")

    @classmethod
    def of(cls, coeffs: Sequence[int]) -> "IntPolynomial":
        c = list(int(x) for x in coeffs)
        while c and c[-1] == 0:
            c.pop()
        return cls(tuple(c))

    @classmethod
    def x_power(cls, k: int, coeff: int = 1) -> "IntPolynomial":
        if coeff == 0:
            return cls()
        return cls((0,) * k + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return _trimmed(a)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] -= c
        return _trimmed(a)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return _trimmed(out)

    def scale(self, k: int) -> "IntPolynomial":
        if k == 0:
            return IntPolynomial()
        return IntPolynomial(tuple(k * c for c in self.coeffs))

    def scale_exact_div(self, k: int) -> "IntPolynomial":
        if any(c % k for c in self.coeffs):
            raise ValueError("coefficients not divisible")
        return IntPolynomial(tuple(c // k for c in self.coeffs))

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

    def __call__(self, x: int) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

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

    @classmethod
    def of(cls, row: Sequence[int]) -> "Circulant":
        return cls(tuple(int(x) for x in row))

    @property
    def n(self) -> int:
        return len(self.first_row)

    def to_matrix(self) -> IntMatrix:
        n = self.n
        c = self.first_row
        return IntMatrix(n, n, tuple(c[(j - i) % n] for i in range(n) for j in range(n)))


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


def _pseudo_rem(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Pseudo-remainder: lc(b)^(deg a - deg b + 1) * a reduced mod b."""
    da, db = a.degree(), b.degree()
    lb = b.leading()
    r = a
    e = da - db + 1
    while not r.is_zero and r.degree() >= db:
        shift = r.degree() - db
        r = r.scale(lb) - b * IntPolynomial.x_power(shift, r.leading())
        e -= 1
    if e > 0:
        r = r.scale(lb**e)
    return r


def resultant(f: IntPolynomial, g: IntPolynomial) -> int:
    """Res(f, g) over Z via the fraction-free subresultant remainder sequence.

    Sign convention: Res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots
    alpha of f, so with f = x^n - 1 this is exactly the product of g over
    all n-th roots of unity.
    """
    if f.is_zero or g.is_zero:
        return 0
    if f.degree() == 0:
        return f.leading() ** g.degree()
    if g.degree() == 0:
        return g.leading() ** f.degree()
    a, b = f, g
    sign = 1
    if a.degree() < b.degree():
        if a.degree() % 2 == 1 and b.degree() % 2 == 1:
            sign = -1
        a, b = b, a
    ca, cb = a.content(), b.content()
    scale = ca ** b.degree() * cb ** a.degree()
    a = a.scale_exact_div(ca)
    b = b.scale_exact_div(cb)
    g_coef, h_coef = 1, 1
    while b.degree() > 0:
        delta = a.degree() - b.degree()
        if a.degree() % 2 == 1 and b.degree() % 2 == 1:
            sign = -sign
        r = _pseudo_rem(a, b)
        a = b
        b = r.scale_exact_div(g_coef * h_coef**delta) if not r.is_zero else r
        g_coef = a.leading()
        if delta > 0:
            h_coef = g_coef**delta // h_coef ** (delta - 1)
        if b.is_zero:
            return 0
    final = b.leading() ** a.degree() // h_coef ** (a.degree() - 1)
    return sign * scale * final


def circulant_det(c: Circulant) -> int:
    """Exact circulant determinant: the representer evaluated over all n-th
    roots of unity, as Res(x^n - 1, P)."""
    p = representer(c)
    if p.is_zero:
        return 0
    return resultant(x_pow_minus_one(c.n), p)


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
    """det(I - A^t) for a weighted Cayley graph over Z_n, from x^n mod g.

    The value is prod f(zeta) over the n-th roots of unity zeta, with
    f = 1 - sum_s w(s) x^s.  ``weight_arc`` writes f as x^a g modulo
    x^n - 1, g read along the shortest arc of Z_n that holds every nonzero
    coefficient of f, so deg g <= s_k and is 2 for S = {1, n - 1}, and
    ``x_pow_mod`` reduces x^n mod g.  The value equals ``circulant_det`` of
    ``cayley_circulant(spec)``, but no polynomial of degree above deg g is
    built.  The factor x^a contributes (prod zeta)^a = (-1)^((n+1)a), and
    a constant factor c contributes c^n.  For the rest, of degree d >= 1
    and leading coefficient b, the product is Res(x^n - 1, g) =
    (-1)^(nd) Res(g, x^n - 1) = (-1)^(nd) b^(n - deg r) Res(g, r), with
    r = (x^n - 1) mod g over Q carried as q / b^e, q over Z.  Since
    x -> 1/x permutes the roots of unity, the reversal of g serves as well,
    up to the sign (-1)^((n+1)d); the end with the smaller coefficient is
    taken as b.  It need not be a unit: the reduction scales by b at each
    step, as a pseudo-remainder does.
    """
    n = spec.n
    start, g = weight_arc(spec)
    if not g:
        return 0
    content = gcd(*g)
    g = [c // content for c in g]
    d = len(g) - 1
    sign = -1 if (n + 1) * start % 2 else 1
    if d == 0:
        return sign * (content * g[0]) ** n
    if abs(g[0]) < abs(g[-1]):
        g.reverse()
        sign *= -1 if (n + 1) * d % 2 else 1
    b = g[-1]
    q, e = x_pow_mod(g, n)
    q[0] -= b**e
    r = _trimmed(q)
    if r.is_zero:
        return 0
    # Res(g, q / b^e) = Res(g, q) / b^(ed): the b-exponent nets to n - deg r - ed.
    value = resultant(IntPolynomial(tuple(g)), r)
    k = n - r.degree() - e * d
    if k >= 0:
        value *= b**k
    else:
        value, rest = divmod(value, b**-k)
        if rest:
            raise InternalCheckError("resultant not divisible by the power of lc(g)")
    return sign * (-1) ** (n * d) * content**n * value


def weight_arc(spec, unit_end: bool = False) -> tuple[int, list[int]]:
    """(a, coefficients of g) with f = x^a g modulo x^n - 1 for f = 1 - sum_s
    w(s) x^s, g read along the shortest arc of Z_n that holds every nonzero
    coefficient of f; (0, []) when f is zero.

    The arc drops the largest gap between cyclically consecutive nonzero
    coefficients, the wrap gap included, and starts at a, the gap's upper
    end; deg g is the arc's length, and a lone point's gap is n.  Ties keep
    the wrap gap, so when no arc is shorter, x^a is the largest power of x
    dividing f and g = f / x^a.  With ``unit_end`` only a gap with a
    coefficient +-1 at one end may be dropped, so g[0] or g[-1] is +-1; such
    a gap exists when 0 is not in S, since f then has constant term 1.  The
    companion side reads its monic window off that arc
    (``k0._shortest_window``).  ``cayley_det`` and ``is_cayley_singular``
    take the shortest arc whatever its ends.
    """
    if not spec.is_cyclic:
        raise ValueError("circulant analysis needs a cyclic-group spec")
    n = spec.n
    coeffs = dict(zip(spec.gens, (-w for w in spec.weights)))
    coeffs[0] = coeffs.get(0, 0) + 1
    points = sorted(q for q, c in coeffs.items() if c)
    if not points:
        return 0, []
    gap, start = 0, None
    for low, high in zip([points[-1] - n, *points], points):  # the wrap gap first
        if high - low > gap and (not unit_end or 1 in (abs(coeffs[low % n]), abs(coeffs[high]))):
            gap, start = high - low, high
    g = [0] * (n - gap + 1)
    for q in points:
        g[(q - start) % n] = coeffs[q]
    return start, g


def x_pow_mod(f: list[int], n: int) -> tuple[list[int], int]:
    """(q, e) with b^e x^n = q mod f over Z, deg q < d: square-and-multiply.

    f has degree d >= 1 and leading coefficient b.  Each reduction step
    cancels the top coefficient after scaling the rest by b, so the
    denominator of x^n mod f stays an exact power of b and no gcd is taken;
    for a monic f, e = 0 and q is x^n mod f.  This is the one power of x in
    the package: ``cayley_det`` reduces x^n mod g here, and the companion
    side (``k0._companion_presentation``) x^n mod (x - 1) h.
    """
    d = len(f) - 1
    b = f[-1]
    low = f[:-1]
    q = [1] + [0] * (d - 1)
    e = 0
    for bit in bin(n)[2:]:
        c = [0] * (2 * d)  # q^2, times x when the bit is set
        shift = bit == "1"
        for i, a in enumerate(q):
            if a:
                for j, a2 in enumerate(q, i + shift):
                    c[j] += a * a2
        e *= 2
        for top in range(2 * d - 1, d - 1, -1):
            t = c[top]
            if t:
                if b != 1:
                    for i in range(top):
                        c[i] *= b
                    e += 1
                for i, a in enumerate(low, top - d):
                    c[i] -= t * a
        q = c[:d]
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
