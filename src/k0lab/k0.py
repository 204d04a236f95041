"""The K-theory engine.

From a weighted Cayley graph (or any finite graph) this computes
det(I - A^t), the Grothendieck group as a finitely generated abelian
group, and the order of the class of the all-ones vector, either by a
full Smith reduction of the n x n matrix or by the companion-matrix
shortcut.  For a cyclic spec, K0 = Z[x]/(x^n - 1, f) with f = 1 - sum
w(s) x^s, and [1] maps to N = sum_{i<n} x^i.  Any arc of Z_n that holds
every nonzero coefficient of f gives a polynomial h of degree L, the arc's
length, with the same quotient and class: multiplying f by a power of x
and substituting x -> 1/x change neither.  The shortcut takes the shortest
arc whose ends are admissible (``circulant.weight_arc``), oriented so that
b = lc(h) > 0 is the end of smaller magnitude, and a0 = |h(0)|.  L <= s_k
when 0 is not in S, since f then has constant term 1.

Over Z[1/b], h / b is monic, so K0 localised away from b is Coker(T^n - I)
for its companion matrix T, and [1] maps to N mod h.  In integers the
shortcut reduces P' = b^E (T^n - I) (``_companion_presentation``): one
``circulant.x_pow_mod`` call on (x - 1) h, O(L^2 log n) products with no
matrix power, gives P' and the class, each multiplication by x mod h
costing one factor b.  This side yields every p-part of K0 and of the
order of [1] with p prime to b.  The reversed arc gives the same for p
prime to a0, as x -> 1/x fixes the quotient and N; it runs only when a
prime of b that does not divide a0 can divide |K0|.  A prime p that
divides both ends leaves a single term of f mod p, a unit of
F_p[x]/(x^n - 1), so K0 has no p-part.  When b = 1 the first side alone is
the whole answer, as for every arc with a +-1 end.  No n x n graph or
matrix is built on this path.

det(I - A^t) = s (-1)^{nL} b^n det(P') / b^{EL}, s the arc's sign from
``circulant.oriented_arc``, with det(P') by Bareiss.  Under
"companion_reduction" D = |det| comes by a route that shares nothing with
the reduction or with ``det``: b^(n - deg r - EL) |Res(h, r)|, r column 0
of P'.  The b side reduces P' modulo the part of D prime to b, the
reversed side modulo the rest, so entries stay below D and |K0| = |det|
still checks the reduction.  When det = 0, and under "both", the sides
reduce exactly and the primes that belong to the other side are divided
out of each factor.

A cyclic spec with 0 in S goes the same way under "auto" past
``CROSSCHECK_LIMIT`` when W >= 2 and it has an admissible arc with 1 <= L
<= s_k (none has when the content of f exceeds 1), but its report is the
"full_snf" one of the n x n matrix: the diagonal is stated at size n and
no graph is built.  Other 0 in S specs take the sparse full path.

A generating {r^a, r^k s} of D_m with unit weights and m >= 3 goes the same
way: Z[D_m] is free of rank 2 over Z[x]/(x^m - 1), and the image of
I - A^t has a unit entry over that ring, so K0, the order of [1] and det
are those of the cyclic twin C_m({1, m - 1}) (``_cyclic_twin``), whose
shortest arc has L = 2 and unit ends.  The report is still that of the
full 2m x 2m Smith form; no graph is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import zip_longest
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
from .zmatrix import FinAbGroup, IntMatrix, cokernel, cokernel_with_class, det, int_text  # noqa: F401

CROSSCHECK_LIMIT = 24  # auto runs both reductions up to this n, the companion one past it


def _char_poly(gens: tuple[int, ...], weights: tuple[int, ...]) -> circ.IntPolynomial:
    """h = x^{s_k} - sum_j w_j x^{s_k - s_j}, the characteristic polynomial of T."""
    sk = max(gens)
    coeffs = [0] * (sk + 1)
    coeffs[sk] = 1
    for s, w in zip(gens, weights):
        coeffs[sk - s] -= w
    return circ.IntPolynomial.of(coeffs)


def _shortest_window(spec: CayleySpec) -> tuple[circ.IntPolynomial, int]:
    """(h, sign): the h of degree L that the companion side reduces, from
    the shortest admissible arc of a cyclic spec, with lc(h) > 0, and
    sign with det(I - A^t) = sign * b^n det(T^n - I), T the companion
    matrix of h / b, b = lc(h).

    ``circulant.oriented_arc`` reads f along the arc, of length L, oriented
    so that the end of smaller magnitude leads, and gives the sign s of
    prod f(zeta) against it; h is c times that polynomial, c = +-1 the sign
    of its lead.  Ties go to the wrap gap (s_k, 0), so the arc [0, s_k],
    reversed, gives ``_char_poly`` whenever no arc is shorter.  With
    prod h(zeta) = (-1)^{nL} b^n det(T^n - I), sign = s (-1)^{nL} c^n.
    """
    n = spec.n
    sign, g = circ.oriented_arc(spec, admissible=True)
    c = 1 if g[-1] > 0 else -1
    h = circ.IntPolynomial(tuple(c * a for a in g))
    return h, sign * (-1 if n * (len(g) - 1) % 2 else 1) * (c if n % 2 else 1)


def _stated_diagonal(group: FinAbGroup, size: int) -> tuple[int, ...]:
    """The Smith diagonal of a size x size presentation of ``group``: ones, torsion, zeros."""
    ones = size - len(group.torsion) - group.free_rank
    return (1,) * ones + group.torsion + (0,) * group.free_rank


def _require_companion(spec: CayleySpec | None, pis: bool = True) -> None:
    """Refuse what the companion reduction does not cover: a spec that is not
    cyclic, then W < 2 (when ``pis`` is false), then 0 in S."""
    if spec is None or not spec.is_cyclic:
        raise InvalidSpecError("companion reduction needs a cyclic-group spec")
    if not pis:
        raise InvalidSpecError("companion reduction assumes total weight >= 2")
    if 0 in spec.gens:
        raise InvalidSpecError(
            "companion reduction requires 0 not in S; use the full Smith path"
        )


def _cyclic_twin(spec: CayleySpec) -> CayleySpec | None:
    """C_m({1, m - 1}) when spec is {r^a, r^k s} in D_m with unit weights,
    m >= 3 and gcd(a, m) = 1; None for every other spec.

    With R = Z[x]/(x^m - 1), Z[D_m] = R + R s and s x = x^-1 s.  The image
    of I - A^t is the left ideal generated by f = 1 - r^a - r^k s = alpha +
    beta s, alpha = 1 - x^a and beta = -x^k; over R it is spanned by f =
    (alpha, beta) and s f = (beta-bar, alpha-bar), the bar being x -> 1/x.
    beta is a unit, so K0 = R/(alpha alpha-bar - 1) = R/(1 - x^a - x^-a),
    [1] = (N, N) maps to N, and det(I - A^t) is the norm of alpha alpha-bar
    - beta beta-bar, the det of C_m({a, -a}).  x -> x^b with ab = 1 mod m
    is a ring automorphism of R that fixes N, so all three equal those of
    C_m({1, m - 1}).  The spec generates D_m exactly when gcd(a, m) = 1.
    """
    group = spec.group
    if group.kind != "dihedral" or group.n < 3 or tuple(spec.weights) != (1, 1):
        return None
    m = group.n
    rotations = [g for g in spec.gens if g < m]
    if len(rotations) != 1 or gcd(rotations[0], m) != 1:
        return None
    return CayleySpec.cyclic(m, [1, m - 1])


def _require_generating(spec: CayleySpec, graph: DirectedMultigraph | None) -> None:
    """Cyclic generation is a gcd; other groups need their Cayley graph for it."""
    if spec.is_cyclic:
        if gcd(spec.n, *spec.gens) != 1:
            raise NotGeneratingError(f"S does not generate Z_{spec.n}")
        return
    if not is_strongly_connected(graph):
        raise NotGeneratingError("S does not generate the group")


def _companion_presentation(h: circ.IntPolynomial, n: int) -> tuple[IntMatrix, list[int], int]:
    """(P', g, E): P' = b^E (T^n - I) and g = b^(E - 1) sum_{i<n} T^i e_L,
    for the companion matrix T of h / b, h of degree L and b = lc(h) > 0.

    T is multiplication by x on Z[1/b][x]/(h) in the basis 1, x, ...,
    x^{L - 1}, so column j of T^n is x^{n+j} mod h and the class is
    x^{L - 1} N mod h, with N = 1 + x + ... + x^{n-1}.  One
    ``circulant.x_pow_mod`` call gives r with b^e x^n = r mod (x - 1) h,
    of degree at most L, and both: b^(e + 1) x^n mod h is b r - r_L h, and
    b^e (x^n - 1) = q (x - 1) h + (r - b^e) makes b^e N mod h the quotient
    (r - b^e) / (x - 1), whose coefficients are the suffix sums of r[1:].
    The other columns, and the class, follow by multiplying by x mod h, at
    one more factor b each; column j is then scaled to E = e + L.  For a
    monic h, b^E = 1 and P' = T^n - I.
    """
    sk, hc = h.degree(), h.coeffs
    b = hc[-1]
    r, e = circ.x_pow_mod([a - c for a, c in zip((0, *hc), (*hc, 0))], n)

    def lowered(q: list[int]) -> list[int]:
        """b q mod h, for q of degree at most L: its x^L term cancelled."""
        low = q[:sk] if b == 1 else [b * a for a in q[:sk]]
        return [a - q[sk] * c for a, c in zip(low, hc)]

    power = lowered(r)
    total = [sum(r[j + 1:]) for j in range(sk)]
    columns = []
    for _ in range(sk):
        columns.append(power)
        power = lowered([0, *power])
    for _ in range(sk - 1):
        total = lowered([0, *total])
    scale = e + sk
    if b != 1:
        columns = [[x * b ** (sk - 1 - j) for x in c] for j, c in enumerate(columns)]
    unit = b**scale
    p = IntMatrix.from_rows(
        [[c[i] - unit * (i == j) for j, c in enumerate(columns)] for i in range(sk)]
    )
    return p, total, scale


def _unscaled(x: int, b: int, k: int) -> int:
    """x b^k, exact when k < 0."""
    if k >= 0:
        return x * b**k
    x, rest = divmod(x, b**-k)
    if rest:
        raise InternalCheckError("a power of the arc's lead does not divide its product")
    return x


def _arc_invariants(
    h: circ.IntPolynomial, n: int, exact: bool
) -> tuple[FinAbGroup, int | None, IntMatrix, int]:
    """(K0, order of [1], P', E) of the cyclic quotient Z[x]/(x^n - 1, h),
    from the two sides of the arc h (module docstring); the order is None
    when infinite.

    Unless ``exact``, each side reduces modulo its part of D = |det|, by
    the resultant route; D = 0 reduces exactly.  Each side keeps only its
    own primes in its invariant factors and its order.
    """
    b, a0 = h.coeffs[-1], abs(h.coeffs[0])
    p, g, scale = _companion_presentation(h, n)
    d = 0
    if not exact:
        # |Res(h, r)| for r = b^E ((x^n - 1) mod h), column 0 of P'.
        r = circ.IntPolynomial.of([p.at(i, 0) for i in range(p.rows)])
        d = _unscaled(abs(circ.resultant(h, r)), b, n - r.degree() - scale * h.degree())
    b_free = circ.coprime_part(d, b) or None
    _, group, order = cokernel_with_class(p, g, modulus=b_free)
    if b == 1:  # a unit lead: this side is the whole answer
        return group, order, p, scale
    # This side gives the primes prime to b.
    torsion = [circ.coprime_part(t, b) for t in group.torsion]
    order = order and circ.coprime_part(order, b)
    b_primary = d // b_free if d else None
    # The reversed side, when a prime of b that a0 lacks can divide |K0|.
    if (b_primary or circ.coprime_part(b, a0)) > 1:
        c = 1 if h.coeffs[0] > 0 else -1
        reverse = circ.IntPolynomial(tuple(c * x for x in reversed(h.coeffs)))
        p_rev, g_rev, _ = _companion_presentation(reverse, n)
        _, other, other_order = cokernel_with_class(p_rev, g_rev, modulus=b_primary)
        # It gives the primes of b that a0 lacks.
        other_torsion = [_b_part(t, b, a0) for t in other.torsion]
        other_order = other_order and _b_part(other_order, b, a0)
        # Coprime chains: the i-th largest factors multiply.
        torsion = [
            x * y
            for x, y in zip_longest(sorted(torsion, reverse=True),
                                    sorted(other_torsion, reverse=True), fillvalue=1)
        ]
        order = order and other_order and order * other_order
    group = FinAbGroup.from_invariants(torsion, free_rank=group.free_rank)
    return group, order, p, scale


def _b_part(x: int, b: int, a0: int) -> int:
    """The part of x whose primes divide b and not a0."""
    part = x // circ.coprime_part(x, b)
    return circ.coprime_part(part, a0)


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, with ints of any length.

    ``json`` writes an int with ``str``, which refuses more digits than the
    interpreter's limit.  When it does, each int is swapped for a marker
    string, and each marker in the text for the int's ``int_text``.
    """
    try:
        return json.dumps(obj, indent=2, sort_keys=True)
    except ValueError:
        pass
    ints: list[int] = []

    def mark(x):
        if isinstance(x, dict):
            return {k: mark(v) for k, v in x.items()}
        if isinstance(x, list):
            return [mark(v) for v in x]
        if isinstance(x, int) and not isinstance(x, bool):
            ints.append(x)
            return f"\0{len(ints) - 1}\0"
        return x

    text = json.dumps(mark(obj), indent=2, sort_keys=True)
    for k, x in enumerate(ints):
        text = text.replace(f'"\\u0000{k}\\u0000"', int_text(x), 1)
    return text


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
                "torsion": list(map(int_text, self.k0.torsion)),
                "free_rank": self.k0.free_rank,
                "display": self.k0.display(),
            }
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
            "det": int_text(self.det_value),
            "det_sign": self.det_sign,
            "snf_diag": list(map(int_text, self.snf_diag)),
            "k0": k0_field,
            "identity_order": self.order_text(),
            "method": self.method,
            "classification": classification,
        }

    def order_text(self) -> str | None:
        """The identity order as printed: its digits, "infinite", or None."""
        order = self.identity_order
        return order if order is None or isinstance(order, str) else int_text(order)

    def to_json(self) -> str:
        return json_text(self.to_json_dict())

    def render_text(self) -> str:
        lines = []
        if self.generators is not None:
            gens = ",".join(map(int_text, self.generators))
            ws = ",".join(map(int_text, self.weights))
            lines.append(
                f"graph: {self.group_kind} n={self.n} S={{{gens}}} w={{{ws}}} "
                f"(W={int_text(self.total_weight)})"
            )
        else:
            lines.append(f"graph: {self.group_kind} with {self.n} vertices")
        lines.append(f"pis: {'true' if self.pis else 'false'}")
        lines.append(f"det = {int_text(self.det_value)}")
        lines.append(f"det sign: {self.det_sign}")
        lines.append("snf diag: " + " ".join(map(int_text, self.snf_diag)))
        if self.k0 is not None:
            lines.append(f"K0 = {self.k0.display()}")
        else:
            lines.append("K0 = (omitted: not purely infinite simple)")
        if self.identity_order is not None:
            lines.append(f"identity order: {self.order_text()}")
        lines.append(f"method: {self.method}")
        if self.classification is not None:
            lines.append(f"classification: {self.classification.display()}")
        return "\n".join(lines) + "\n"


def analyze(
    target: CayleySpec | DirectedMultigraph,
    method: str = "auto",
) -> K0Report:
    """Full analysis of a Cayley spec or a raw graph.

    ``method`` selects the reduction: "full" (the Smith form of the n x n
    I - A^t, reached through the cyclic twin where there is one, see
    below), "companion" (L x L shortcut, L <= s_k, cyclic specs with 0
    not in S only), "both" (run both and insist they agree), or "auto"
    (both for n up to ``CROSSCHECK_LIMIT``, companion beyond it, full when
    the shortcut does not apply).  The companion methods take h from the
    shortest admissible arc (``_shortest_window``), then K0, the order of
    [1] and det(I - A^t) = +-b^n det P' / b^{EL} from P' = b^E (T^n - I),
    and from the reversed arc's P' when a prime of b = lc(h) that h(0)
    lacks can divide |K0| (``_arc_invariants``), and build no n x n graph
    or matrix; the Smith diagonal is still stated at size s_k (ones,
    torsion, zeros).  "companion_reduction" reduces each side modulo its
    part of |det| by the resultant route (module docstring); "both"
    reduces exactly, also runs the full reduction and checks K0 and the
    order of [1] against it.
    A dihedral spec with a cyclic twin (``_cyclic_twin``) reports
    "full_snf" under "auto" and "full", but K0 and the order of [1] come
    from the twin's arc and det from ``circulant.cayley_det`` of the
    twin; the diagonal is stated at size n = 2m and no graph is built.
    Past the limit "auto" gives a cyclic spec with 0 in S, W >= 2 and an
    admissible arc of length 1 <= L <= s_k the same "full_snf" report,
    with K0 and the order of [1] from its own arc, reduced modulo the parts
    of |det| as under "companion_reduction", det by Bareiss on P', and the
    diagonal stated at size n; other 0 in S specs take the full path.
    ``det`` shares no elimination with either Smith reduction, so
    |K0| = |det| stays a witness.
    """
    if method not in ("auto", "full", "companion", "both"):
        raise ValueError(f"unknown method {method!r}")

    spec: CayleySpec | None
    graph: DirectedMultigraph | None
    twin = None
    if isinstance(target, CayleySpec):
        spec = target
        twin = _cyclic_twin(spec)  # generating by its gcd test
        graph = None if spec.is_cyclic or twin else build_cayley(spec)
        if twin is None:
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
    window = twin  # a cyclic spec whose shortest admissible arc gives a full_snf report
    if method == "auto":
        if companion_ok:
            method = "both" if n <= CROSSCHECK_LIMIT else "companion_reduction"
        else:
            method = "full_snf"
            if n > CROSSCHECK_LIMIT and spec is not None and spec.is_cyclic and pis:
                # 0 in S: the arc path when an admissible arc has 1 <= L <= s_k
                arc = circ.weight_arc(spec, admissible=True)[1]
                window = spec if 1 <= len(arc) - 1 <= max(spec.gens) else None
    elif method == "full":
        method = "full_snf"
    elif method == "companion":
        _require_companion(spec, pis)
        method = "companion_reduction"
    elif not companion_ok:
        raise InvalidSpecError("method 'both' needs a cyclic spec with 0 not in S and W >= 2")

    if method != "full_snf" or window:
        cyclic = window or spec
        h, window_sign = _shortest_window(cyclic)
        # The twin's det is cayley_det's; every other det is Bareiss on P',
        # so a modulus by the resultant route keeps |K0| = |det| a witness.
        k0_result, order, p, scale = _arc_invariants(
            h, cyclic.n, exact=method == "both" or twin is not None
        )
        # Such an arc's report is the full_snf one of the n x n matrix.
        diag = _stated_diagonal(k0_result, n if window else max(spec.gens))
        if twin:
            det_value = circ.cayley_det(twin)
        else:
            det_value = window_sign * _unscaled(det(p), h.coeffs[-1], n - scale * h.degree())
    if method != "companion_reduction" and not window:
        if graph is None:
            graph = build_cayley(spec)
        m = graph.i_minus_at()
        # One Smith reduction serves the full cokernel and the order of the
        # all-ones class.  Off pure infinite simplicity the K-theory fields
        # mean nothing; the matrix facts are still reported.
        full_diag, k0_full, order_full = cokernel_with_class(m, [1] * n if pis else None)
        if method == "full_snf":
            diag, k0_result, order = full_diag, k0_full if pis else None, order_full
            det_value = circ.cayley_det(spec) if spec is not None and spec.is_cyclic else det(m)
        else:
            named = _spec_name(n, spec.gens, spec.weights)
            if k0_result != k0_full:
                raise InternalCheckError(
                    f"companion reduction disagrees with the full Smith form: "
                    f"{k0_result.display()} vs {k0_full.display()} for {named}"
                )
            if order != order_full:
                raise InternalCheckError(
                    f"identity order from the companion side disagrees with the full "
                    f"Smith form: {order} vs {order_full} for {named}"
                )
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
                f"|K0| = {int_text(report.k0.order())} "
                f"but |det| = {int_text(abs(report.det_value))}"
            )
    else:
        if report.k0.free_rank == 0:
            raise InternalCheckError("det vanishes but K0 came out finite")
    if report.total_weight is None:
        return
    order = report.identity_order
    if not isinstance(order, int) or (report.total_weight - 1) % order:
        raise InternalCheckError(
            f"identity order {report.order_text()} does not divide "
            f"W - 1 = {int_text(report.total_weight - 1)} "
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
    last = big // d ** (n - 1)
    return FinAbGroup.from_invariants([d] * (n - 1) + [last])


def f_sequence(j: int, k: int, upto: int) -> list[int]:
    """First ``upto`` terms of the two-gap recursion F(n) = F(n-j) + F(n-k).

    Base segment: zero on 1..k-2, one at k-1, zero at k.
    """
    if not 1 <= j < k:
        raise InvalidSpecError("need 1 <= j < k")
    if upto < 0:
        raise InvalidSpecError("length must be non-negative")
    return _gap_values(j, k, 1, upto)


def _gap_values(j: int, k: int, low: int, high: int) -> list[int]:
    """F_(j,k)(m) for low <= m <= high, filled by loops forward from the base
    segment and, for m <= 0, backward by F(m) = F(m + k) - F(m + k - j)."""
    first, last = min(low, 1), max(high, k)
    f = [0] * (last - first + 1)  # F(m) is f[m - first]
    f[k - 1 - first] = 1
    for i in range(k + 1 - first, len(f)):  # m = k + 1, ..., last
        f[i] = f[i - j] + f[i - k]
    for i in range(-first, -1, -1):  # m = 0, -1, ..., first
        f[i] = f[i + k] - f[i + k - j]
    return f[low - first : high + 1 - first]


def verify_Tn_structure(d1: int, d2: int, n: int) -> bool:
    """Check that T^n follows the shifted-window pattern of the gap sequence.

    Row i of T^n (1-indexed) reads G at d2 consecutive indices starting at
    n - i for i <= d2 - d1 and at n - i + d2 past the jump row d2 - d1 + 1,
    where G is the (d1, d2) gap sequence extended to all integers.  At
    d1 = 1 every row reads d2 places further on, so d1 = 1 is refused.
    """
    if not 2 <= d1 < d2:
        raise InvalidSpecError("need 2 <= d1 < d2")
    if gcd(d1, d2) != 1:
        raise InvalidSpecError("d1 and d2 must be coprime")
    if n < 1:
        raise InvalidSpecError("n must be positive")
    p = _companion_presentation(_char_poly((d1, d2), (1, 1)), n)[0]
    k = d2 - d1
    g = _gap_values(d1, d2, n - d2, n + 2 * d2)  # every index a row reads, and more
    for i in range(1, d2 + 1):
        lead = n - i if i <= k else n - i + d2
        for col in range(d2):
            if p.at(i - 1, col) + (i - 1 == col) != g[lead + col - n + d2]:
                return False
    return True
