"""The K-theory engine.

From a weighted Cayley graph (or any finite graph) this computes
det(I - A^t), the Grothendieck group as a finitely generated abelian
group, and the order of the class of the all-ones vector, either by a
full Smith reduction of the n x n matrix or by the companion-matrix
shortcut.  For a cyclic spec with 0 not in S the shortcut yields all
three from the s_k x s_k matrix P = T^n - I alone: K0 = Coker P, [1]
maps to g = sum_{i<n} T^i e_{s_k}, and det(I - A^t) = (-1)^{s_k} det P.
No n x n graph or matrix is built on that path.  T is multiplication by
x on Z[x]/(h), h its characteristic polynomial, so P and g come from one
square-and-multiply pass over the bits of n in that ring: O(s_k^2 log n)
products, with no matrix power.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from math import gcd

from . import circulant as circ
from .errors import (
    InternalCheckError,
    InvalidSpecError,
    NotGeneratingError,
)
from .graphs import (
    CayleySpec,
    DirectedMultigraph,
    build_cayley,
    is_purely_infinite_simple,
    is_strongly_connected,
)
# ``cokernel`` is not called here; it stays a module name that bench/tracer.py wraps.
from .zmatrix import FinAbGroup, IntMatrix, cokernel, cokernel_with_class, det  # noqa: F401

DEFAULT_CROSSCHECK_LIMIT = 24
CROSSCHECK_ENV = "K0LAB_CROSSCHECK_LIMIT"


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of t^{s_k} - sum w(s_j) t^{s_k - s_j}.

    Sub-diagonal of ones; the last column holds w(s_j) in row
    s_k - s_j + 1 (1-indexed).
    """

    size: int
    matrix: IntMatrix
    char_poly: circ.IntPolynomial


def companion_matrix(spec: CayleySpec) -> CompanionMatrix:
    """Companion matrix of the weight recursion for a cyclic spec with 0 not in S."""
    if not spec.is_cyclic:
        raise InvalidSpecError("companion reduction needs a cyclic-group spec")
    if 0 in spec.gens:
        raise InvalidSpecError(
            "companion reduction requires 0 not in S; use the full Smith path"
        )
    sk = max(spec.gens)
    rows = [[0] * sk for _ in range(sk)]
    for i in range(1, sk):
        rows[i][i - 1] = 1
    coeffs = [0] * (sk + 1)
    coeffs[sk] = 1
    for s, w in zip(spec.gens, spec.weights):
        rows[sk - s][sk - 1] += w
        coeffs[sk - s] -= w
    return CompanionMatrix(sk, IntMatrix.from_rows(rows), circ.IntPolynomial.of(coeffs))


def _require_generating(spec: CayleySpec, graph: DirectedMultigraph | None = None) -> None:
    if spec.is_cyclic:
        if gcd(spec.n, *spec.gens) != 1:
            raise NotGeneratingError(f"S does not generate Z_{spec.n}")
        return
    g = graph if graph is not None else build_cayley(spec)
    if not is_strongly_connected(g):
        raise NotGeneratingError("S does not generate the group")


def _companion_presentation(h: circ.IntPolynomial, n: int) -> tuple[IntMatrix, list[int]]:
    """P = T^n - I and g = sum_{i<n} T^i e_{s_k} for the companion matrix T of monic h.

    T is multiplication by x on Z[x]/(h) in the basis 1, x, ..., x^{s_k - 1},
    so column j of T^n is x^{n+j} mod h and g is x^{s_k - 1} N(n) mod h, with
    N(m) = 1 + x + ... + x^{m-1}.  One pass over the bits of n gives x^n and
    N(n) together: N(2m) = N(m)(1 + x^m) and N(m + 1) = N(m) + x^m.
    """
    sk = h.degree()
    one, x = circ.IntPolynomial.x_power(0), circ.IntPolynomial.x_power(1)
    power, total = one, circ.IntPolynomial()  # x^m and N(m) mod h, from m = 0
    for bit in bin(n)[2:]:
        total = (total * (one + power)) % h
        power = (power * power) % h
        if bit == "1":
            total, power = total + power, (power * x) % h
    columns = []
    for _ in range(sk):
        columns.append(power.coeffs + (0,) * (sk - len(power.coeffs)))
        power = (power * x) % h
    p = IntMatrix.from_rows([[c[i] - (i == j) for j, c in enumerate(columns)] for i in range(sk)])
    g = ((total * circ.IntPolynomial.x_power(sk - 1)) % h).coeffs
    return p, list(g) + [0] * (sk - len(g))


@dataclass(frozen=True)
class K0Report:
    """Complete analysis record for one graph."""

    group_kind: str  # "cyclic" | "dihedral" | "table" | "graph"
    n: int  # vertex count
    generators: tuple[int, ...] | None
    weights: tuple[int, ...] | None
    total_weight: int | None
    pis: bool
    det_value: int
    det_sign: int
    snf_diag: tuple[int, ...]
    k0: FinAbGroup | None
    identity_order: int | str | None  # int, "infinite", or None when K-theory is omitted
    method: str  # "full_snf" | "companion_reduction" | "both"
    classification: object | None = None

    def to_json_dict(self) -> dict:
        k0_field = None
        if self.k0 is not None:
            k0_field = {
                "torsion": [str(t) for t in self.k0.torsion],
                "free_rank": self.k0.free_rank,
                "display": self.k0.display(),
            }
        order: str | None
        if self.identity_order is None:
            order = None
        elif self.identity_order == "infinite":
            order = "infinite"
        else:
            order = str(self.identity_order)
        classification = None
        if self.classification is not None:
            classification = self.classification.to_json_dict()
        return {
            "n": self.n,
            "generators": list(self.generators) if self.generators is not None else None,
            "weights": list(self.weights) if self.weights is not None else None,
            "group": self.group_kind,
            "W": self.total_weight,
            "pis": self.pis,
            "det": str(self.det_value),
            "det_sign": self.det_sign,
            "snf_diag": [str(s) for s in self.snf_diag],
            "k0": k0_field,
            "identity_order": order,
            "method": self.method,
            "classification": classification,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def render_text(self) -> str:
        lines = []
        if self.generators is not None:
            gens = ",".join(str(g) for g in self.generators)
            ws = ",".join(str(w) for w in self.weights)
            lines.append(
                f"graph: {self.group_kind} n={self.n} S={{{gens}}} w={{{ws}}} (W={self.total_weight})"
            )
        else:
            lines.append(f"graph: {self.group_kind} with {self.n} vertices")
        lines.append(f"pis: {'true' if self.pis else 'false'}")
        lines.append(f"det = {self.det_value}")
        lines.append(f"det sign: {self.det_sign}")
        lines.append("snf diag: " + " ".join(str(s) for s in self.snf_diag))
        if self.k0 is not None:
            lines.append(f"K0 = {self.k0.display()}")
        else:
            lines.append("K0 = (omitted: not purely infinite simple)")
        if self.identity_order is not None:
            lines.append(f"identity order: {self.identity_order}")
        lines.append(f"method: {self.method}")
        if self.classification is not None:
            lines.append(f"classification: {self.classification.display()}")
        return "\n".join(lines) + "\n"


def crosscheck_limit() -> int:
    """The cross-check size limit from the environment; a malformed value is rejected."""
    raw = os.environ.get(CROSSCHECK_ENV)
    if raw is None:
        return DEFAULT_CROSSCHECK_LIMIT
    malformed = f"{CROSSCHECK_ENV} must be a non-negative integer, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise InvalidSpecError(malformed) from None
    if value < 0:
        raise InvalidSpecError(malformed)
    return value


def analyze(
    target: CayleySpec | DirectedMultigraph,
    method: str = "auto",
) -> K0Report:
    """Full analysis of a Cayley spec or a raw graph.

    ``method`` selects the reduction: "full" (n x n Smith form),
    "companion" (s_k x s_k shortcut, cyclic specs with 0 not in S only),
    "both" (run both and insist they agree), or "auto" (both up to the
    cross-check size limit, companion beyond it, full when the shortcut
    does not apply).  The companion method takes K0, the order of [1] and
    det(I - A^t) from P = T^n - I and builds no n x n graph or matrix;
    "both" also derives the order of [1] from P and checks it against the
    full reduction, but reports the resultant det.
    """
    if method not in ("auto", "full", "companion", "both"):
        raise ValueError(f"unknown method {method!r}")
    limit = crosscheck_limit()

    spec: CayleySpec | None
    graph: DirectedMultigraph | None
    if isinstance(target, CayleySpec):
        spec = target
        # Cyclic generation is a gcd; only other groups need the graph for it.
        graph = None if spec.is_cyclic else build_cayley(spec)
        _require_generating(spec, graph)
        kind = spec.group.kind
        total_weight = spec.total_weight
        pis = total_weight >= 2
        n = spec.n
    else:
        spec = None
        graph = target
        kind = "graph"
        total_weight = None
        pis = is_purely_infinite_simple(graph)
        n = graph.vertex_count

    companion_ok = spec is not None and spec.is_cyclic and 0 not in spec.gens and pis
    if method == "auto":
        if companion_ok:
            method = "both" if n <= limit else "companion_reduction"
        else:
            method = "full_snf"
    elif method == "full":
        method = "full_snf"
    elif method == "companion":
        if spec is None or not spec.is_cyclic:
            raise InvalidSpecError("companion reduction needs a cyclic-group spec")
        if not pis:
            raise InvalidSpecError("companion reduction assumes total weight >= 2")
        companion_matrix(spec)  # raises when 0 is a generator
        method = "companion_reduction"
    else:
        if not companion_ok:
            raise InvalidSpecError("method 'both' needs a cyclic spec with 0 not in S and W >= 2")
        method = "both"

    if method == "companion_reduction":
        p, g = _companion_presentation(companion_matrix(spec).char_poly, n)
        diag, k0_result, order = cokernel_with_class(p, g)
        det_value = (-1) ** max(spec.gens) * det(p)
    else:
        if graph is None:
            graph = build_cayley(spec)
        m = graph.i_minus_at()
        det_value = circ.cayley_det(spec) if spec is not None and spec.is_cyclic else det(m)
        if pis:
            # One Smith reduction serves the full cokernel and the order of
            # the all-ones class.
            diag, k0_result, order = cokernel_with_class(m, [1] * n)
            if method == "both":
                diag, k0_companion, order_companion = cokernel_with_class(
                    *_companion_presentation(companion_matrix(spec).char_poly, n)
                )
                named = _spec_name(n, spec.gens, spec.weights)
                if k0_companion != k0_result:
                    raise InternalCheckError(
                        f"companion reduction disagrees with the full Smith form: "
                        f"{k0_companion.display()} vs {k0_result.display()} for {named}"
                    )
                if order_companion != order:
                    raise InternalCheckError(
                        f"identity order from the companion side disagrees with the full "
                        f"Smith form: {order_companion} vs {order} for {named}"
                    )
        else:
            # K-theory fields are only meaningful under pure infinite
            # simplicity; the matrix facts are still reported.
            diag = cokernel_with_class(m)[0]
            k0_result = order = None
    identity_order = ("infinite" if order is None else order) if pis else None
    det_sign = (det_value > 0) - (det_value < 0)

    report = K0Report(
        group_kind=kind,
        n=n,
        generators=spec.gens if spec else None,
        weights=spec.weights if spec else None,
        total_weight=total_weight,
        pis=pis,
        det_value=det_value,
        det_sign=det_sign,
        snf_diag=diag,
        k0=k0_result,
        identity_order=identity_order,
        method=method,
    )
    if pis:
        _validate_report(report)
    return _with_classification(report, graph)


def _validate_report(report: K0Report) -> None:
    """Internal consistency of a purely infinite simple report.

    |K0| = |det| when nonsingular, K0 infinite otherwise.  ``det`` shares no
    elimination with the Smith core, so on graphs with no cyclic shortcut
    this is an independent check of the reduction.  On a Cayley spec
    every vertex has in-weight W, so (I - A^t) 1 = (1 - W) 1 and the order
    of [1] divides W - 1.  On a cyclic spec a nonzero det has the sign of
    the parity rule.  These two cost O(|S|) and share nothing with the
    reduction, so they hold past the cross-check limit too.
    """
    if report.k0 is None:
        raise InternalCheckError("purely infinite simple report without K0")
    if report.det_value != 0:
        if report.k0.order() != abs(report.det_value):
            raise InternalCheckError(
                f"|K0| = {report.k0.order()} but |det| = {abs(report.det_value)}"
            )
    else:
        if report.k0.free_rank == 0:
            raise InternalCheckError("det vanishes but K0 came out finite")
    if report.total_weight is None:
        return
    order = report.identity_order
    if not isinstance(order, int) or (report.total_weight - 1) % order:
        raise InternalCheckError(
            f"identity order {order} does not divide W - 1 = {report.total_weight - 1} "
            f"for {_spec_name(report.n, report.generators, report.weights)}"
        )
    if report.group_kind == "cyclic" and report.det_value != 0:
        expected = circ.nonsingular_det_sign(report.n, report.generators, report.weights)
        if report.det_sign != expected:
            raise InternalCheckError(
                f"det sign {report.det_sign} contradicts the parity rule ({expected}) "
                f"for {_spec_name(report.n, report.generators, report.weights)}"
            )


def _spec_name(n: int, gens: tuple[int, ...], weights: tuple[int, ...]) -> str:
    return f"n={n} S={gens} w={weights}"


def _with_classification(report: K0Report, graph: DirectedMultigraph | None) -> K0Report:
    from .classify import classify_report

    return replace(report, classification=classify_report(report, graph))


def closed_form_S01(n: int, a: int, b: int) -> FinAbGroup:
    """Invariant-factor form of K0 for S = {0, 1} with weights (a, b).

    With d = gcd(a-1, b): (Z_d)^(n-1) + Z when a = b+1 and n is even,
    otherwise (Z_d)^(n-1) + Z_{|(1-a)^n - b^n| / d^(n-1)}.
    """
    if n < 1:
        raise InvalidSpecError("n must be positive")
    if a < 1 or b < 1 or a + b < 2:
        raise InvalidSpecError("weights must be positive with total at least 2")
    d = gcd(a - 1, b)
    if a == b + 1 and n % 2 == 0:
        return FinAbGroup.from_invariants([d] * (n - 1), free_rank=1)
    big = abs((1 - a) ** n - b**n)
    last = big // d ** (n - 1) if d else big
    return FinAbGroup.from_invariants([d] * (n - 1) + [last])


def f_sequence(j: int, k: int, upto: int) -> list[int]:
    """First ``upto`` terms of the two-gap recursion F(n) = F(n-j) + F(n-k).

    Base segment: zero on 1..k-2, one at k-1, zero at k.
    """
    if not 1 <= j < k:
        raise InvalidSpecError("need 1 <= j < k")
    if upto < 0:
        raise InvalidSpecError("length must be non-negative")
    cache: dict[int, int] = {}
    return [_f_extended(j, k, m, cache) for m in range(1, upto + 1)]


def _f_extended(j: int, k: int, m: int, cache: dict[int, int]) -> int:
    """F_(j,k) extended to all integers via the recursion run backwards."""
    if m in cache:
        return cache[m]
    if m >= 1:
        if m <= k - 2:
            val = 0
        elif m == k - 1:
            val = 1
        elif m == k:
            val = 0
        else:
            val = _f_extended(j, k, m - j, cache) + _f_extended(j, k, m - k, cache)
    else:
        val = _f_extended(j, k, m + k, cache) - _f_extended(j, k, m + k - j, cache)
    cache[m] = val
    return val


def verify_Tn_structure(d1: int, d2: int, n: int) -> bool:
    """Check that T^n follows the shifted-window pattern of the gap sequence.

    Row i of T^n (1-indexed) reads G at d2 consecutive indices starting at
    n - i for i <= d2 - d1 and at n - i + d2 past the jump row d2 - d1 + 1,
    where G is the (d1, d2) gap sequence extended to all integers.
    """
    if not 1 <= d1 < d2:
        raise InvalidSpecError("need 1 <= d1 < d2")
    if gcd(d1, d2) != 1:
        raise InvalidSpecError("d1 and d2 must be coprime")
    if n < 1:
        raise InvalidSpecError("n must be positive")
    coeffs = [0] * (d2 + 1)
    coeffs[0] = coeffs[d2 - d1] = -1
    coeffs[d2] = 1  # x^{d2} - x^{d2 - d1} - 1, the char poly of T for S = {d1, d2}
    p = _companion_presentation(circ.IntPolynomial.of(coeffs), n)[0]
    cache: dict[int, int] = {}
    k = d2 - d1
    for i in range(1, d2 + 1):
        lead = n - i if i <= k else n - i + d2
        for col in range(d2):
            expected = _f_extended(d1, d2, lead + col, cache)
            if p.at(i - 1, col) + (i - 1 == col) != expected:
                return False
    return True
