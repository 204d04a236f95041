"""Naming algebras from their K-theory, where the restricted
Kirchberg-Phillips machinery decides it.

A purely infinite simple algebra with finite cyclic K0 = Z_{m-1},
non-positive determinant sign, and regular-module class of order o is
M_d(L(1,m)) with d = (m-1)/o: the class of an element of order o in a
cyclic group of order N is determined up to automorphism by gcd = N/o.
The matrix algebra label is therefore canonical, with d = 1 collapsing
to the Leavitt algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import InternalCheckError, InvalidSpecError, NotPurelyInfiniteSimpleError
from .graphs import DirectedMultigraph, is_purely_infinite_simple, is_strongly_connected
from .k0 import K0Report
from .zmatrix import FinAbGroup, cokernel, det, int_text

KIND_LEAVITT = "L(1,m)"
KIND_MAT_LEAVITT = "M_d(L(1,m))"
KIND_MAT_LAURENT = "M_n(K[x,x^-1])"
KIND_COMPLETE_TWO_LOOPS = "L(K_n^(2))"
KIND_UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class AlgebraClass:
    """A named algebra (or the admission that the catalog does not apply)."""

    kind: str
    m: int | None = None
    d: int | None = None
    n: int | None = None
    witness: str = ""

    def display(self) -> str:
        if self.kind == KIND_LEAVITT:
            return f"L(1,{int_text(self.m)})"
        if self.kind == KIND_MAT_LEAVITT:
            return f"M_{int_text(self.d)}(L(1,{int_text(self.m)}))"
        if self.kind == KIND_MAT_LAURENT:
            return f"M_{self.n}(K[x,x^-1])"
        if self.kind == KIND_COMPLETE_TWO_LOOPS:
            return f"L(K_{self.n}^(2))"
        return "unclassified"

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind, "display": self.display()}
        if self.m is not None:
            out["m"] = self.m
        if self.d is not None:
            out["d"] = self.d
        if self.n is not None:
            out["n"] = self.n
        if self.witness:
            out["witness"] = self.witness
        return out

    def __str__(self):
        return self.display()


def leavitt(m: int, witness: str = "") -> AlgebraClass:
    if m < 2:
        raise InvalidSpecError("Leavitt algebras need m >= 2")
    return AlgebraClass(KIND_LEAVITT, m=m, d=1, witness=witness)


def mat_leavitt(d: int, m: int, witness: str = "") -> AlgebraClass:
    """M_d(L(1,m)) with d taken as a representative in [1, m-1]."""
    if m < 2:
        raise InvalidSpecError("Leavitt algebras need m >= 2")
    d = d % (m - 1) if m > 2 else 1
    if d == 0:
        d = m - 1
    if d == 1:
        return leavitt(m, witness)
    return AlgebraClass(KIND_MAT_LEAVITT, m=m, d=d, witness=witness)


def mat_laurent(n: int, witness: str = "") -> AlgebraClass:
    return AlgebraClass(KIND_MAT_LAURENT, n=n, witness=witness)


def complete_two_loops(n: int, witness: str = "") -> AlgebraClass:
    return AlgebraClass(KIND_COMPLETE_TWO_LOOPS, n=n, witness=witness)


def unclassified(witness: str = "") -> AlgebraClass:
    return AlgebraClass(KIND_UNCLASSIFIED, witness=witness)


def _is_single_cycle(g: DirectedMultigraph) -> bool:
    return all(g.out_degree(v) == 1 for v in range(g.vertex_count)) and is_strongly_connected(g)


def classify_report(report: K0Report, graph: DirectedMultigraph | None = None) -> AlgebraClass:
    """Catalog lookup from a completed analysis."""
    if not report.pis:
        if graph is not None and _is_single_cycle(graph):
            return mat_laurent(graph.vertex_count, witness="single cycle, W = 1")
        return unclassified(witness="not purely infinite simple")
    k0 = report.k0
    if k0 is None:
        raise InternalCheckError("purely infinite simple report without K0")
    order = report.identity_order
    witness = (
        f"K0 = {k0.display()}, identity class order {report.order_text()}, "
        f"det sign {report.det_sign}"
    )
    if k0.is_finite and k0.is_cyclic and report.det_sign <= 0:
        size = k0.order()
        if not isinstance(order, int) or size % order != 0:
            raise InternalCheckError(
                f"identity order {report.order_text()} does not divide |K0| = {int_text(size)}"
            )
        return mat_leavitt(size // order, size + 1, witness)
    if k0.is_free and k0.free_rank >= 1 and order == 1 and report.det_sign == 0:
        return complete_two_loops(k0.free_rank + 1, witness)
    return unclassified(witness)


def cyclic_marked_automorphism(modulus: int, a: int, b: int) -> int | None:
    """A unit u of Z_modulus with u*a = b, or None when no automorphism works.

    Exists exactly when gcd(a, modulus) = gcd(b, modulus); the returned
    multiplier is verified before being handed back.
    """
    if modulus < 1:
        raise ValueError("modulus must be positive")
    if modulus == 1:
        return 1
    a %= modulus
    b %= modulus
    g = gcd(a, modulus)
    if gcd(b, modulus) != g:
        return None
    if a == 0:
        return 1  # b is 0 too
    reduced = modulus // g
    a_unit = (a // g) % reduced
    inv = pow(a_unit, -1, reduced)
    base = (b // g) * inv % reduced
    for k in range(g + 1):
        candidate = base + k * reduced
        if candidate == 0:
            continue
        if gcd(candidate, modulus) == 1:
            if candidate * a % modulus != b:
                raise InternalCheckError("constructed multiplier failed verification")
            return candidate
    raise InternalCheckError("no unit lift found; this should be impossible")


VERDICT_ISOMORPHIC = "isomorphic"
VERDICT_UNDECIDED = "not_by_this_criterion"


@dataclass(frozen=True)
class KPComparison:
    verdict: str
    detail: str
    multiplier: int | None = None

    @property
    def isomorphic(self) -> bool:
        return self.verdict == VERDICT_ISOMORPHIC


def kp_compare(a: K0Report, b: K0Report) -> KPComparison:
    """One-directional isomorphism test: matching determinant signs plus an
    isomorphism of K0 carrying one regular-module class to the other.

    Implemented completely for cyclic K0 (automorphisms of Z_N move x to y
    exactly when gcd(x, N) = gcd(y, N)) and for free K0 with both marked
    classes zero.  Everything else returns not_by_this_criterion; a
    negative answer is never a proof of non-isomorphism.
    """
    if not a.pis or not b.pis:
        raise NotPurelyInfiniteSimpleError("the comparison needs purely infinite simple inputs")
    if a.k0 is None or b.k0 is None:
        raise InternalCheckError("purely infinite simple report without K0")
    if a.det_sign != b.det_sign:
        return KPComparison(
            VERDICT_UNDECIDED, f"determinant signs differ ({a.det_sign} vs {b.det_sign})"
        )
    ga, gb = a.k0, b.k0
    if ga != gb:
        return KPComparison(
            VERDICT_UNDECIDED, f"K0 groups differ ({ga.display()} vs {gb.display()})"
        )
    if ga.is_finite and ga.is_cyclic:
        size = ga.order()
        oa, ob = a.identity_order, b.identity_order
        if not isinstance(oa, int) or not isinstance(ob, int):
            raise InternalCheckError(f"finite K0 with identity orders {oa} and {ob}")
        u = cyclic_marked_automorphism(size, size // oa, size // ob)
        if u is None:
            return KPComparison(
                VERDICT_UNDECIDED,
                f"no automorphism of Z_{int_text(size)} maps one identity class to the other "
                f"(orders {oa} vs {ob})",
            )
        return KPComparison(
            VERDICT_ISOMORPHIC,
            f"K0 = {ga.display()}, identity classes match (orders {oa} = {ob}), "
            f"det signs equal ({a.det_sign})",
            multiplier=u,
        )
    if ga.is_free and a.identity_order == 1 and b.identity_order == 1:
        return KPComparison(
            VERDICT_ISOMORPHIC,
            f"K0 = {ga.display()}, both identity classes are zero, det signs equal",
            multiplier=None,
        )
    return KPComparison(
        VERDICT_UNDECIDED,
        "marked-isomorphism decision implemented only for cyclic K0 and "
        "free K0 with zero identity classes",
    )


def flow_equivalent(g1: DirectedMultigraph, g2: DirectedMultigraph) -> bool:
    """Flow equivalence for source-free purely infinite simple graphs:
    equal det(I - A) and isomorphic Coker(I - A)."""
    for g in (g1, g2):
        if len(set().union(*g.out_rows)) != g.vertex_count:  # some vertex is no edge's target
            raise InvalidSpecError("flow equivalence requires source-free graphs")
        if not is_purely_infinite_simple(g):
            raise NotPurelyInfiniteSimpleError("flow equivalence requires purely infinite simple graphs")
    m1, m2 = g1.i_minus_a(), g2.i_minus_a()
    return det(m1) == det(m2) and cokernel(m1) == cokernel(m2)


def dihedral_theorem_row(n: int) -> tuple[FinAbGroup, AlgebraClass | None]:
    """Expected K0 and algebra for the dihedral Cayley graph, keyed by n mod 6."""
    if n < 1:
        raise InvalidSpecError("n must be positive")
    r = n % 6
    if r in (1, 5):
        return FinAbGroup(), leavitt(2)
    if r in (2, 4):
        return FinAbGroup((3,)), mat_leavitt(3, 4)
    if r == 3:
        return FinAbGroup((2, 2)), None
    return FinAbGroup(free_rank=2), complete_two_loops(3)
