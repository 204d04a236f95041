"""Brute-force reference implementations used only by the test suite.

These share no algorithms with the engine they validate: invariant
factors come from determinant-divisor gcds over all minors, determinants
from cofactor expansion, lattice membership from a self-contained
Hermite reduction, and pure infinite simplicity from one
hereditary-saturated closure per vertex.  The paper's own objects are
built as it states them: the companion matrix T of the weight recursion,
its powers by schoolbook matrix products, and a circulant from its first
row.  The one exception is ``circulant_det``, the product of the
representer over the n-th roots of unity as one resultant against
x^n - 1: it reuses the engine's ``resultant``, so differential tests pair
it with a determinant of ``circulant_matrix`` as well.  In-splitting generates
flow-equivalent graphs (Abrams, Louly, Pardo & Smith, *Flow invariants in
the classification of Leavitt path algebras*, J. Algebra 333, 2011), so the
flow invariants can be checked on pairs known to be equivalent.
Everything here is exponential or cubic with no cleverness; keep the
inputs small.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd
from operator import mul
from typing import Mapping, Sequence

from k0lab.circulant import Circulant, IntPolynomial, representer, resultant, x_pow_minus_one
from k0lab.errors import InvalidSpecError
from k0lab.graphs import CayleySpec, DirectedMultigraph
from k0lab.k0 import _char_poly, _require_companion
from k0lab.zmatrix import IntMatrix, Matrix

Edge = tuple[int, int, int]
Partition = Mapping[int, Sequence[Sequence[Edge]]]


def identity_matrix(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def zero_matrix(rows: int, cols: int) -> IntMatrix:
    return IntMatrix(rows, cols, (0,) * (rows * cols))


def transpose(m: IntMatrix) -> IntMatrix:
    return IntMatrix(m.cols, m.rows, tuple(m.at(i, j) for j in range(m.cols) for i in range(m.rows)))


def mat_sub(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("shape mismatch")
    return IntMatrix(a.rows, a.cols, tuple(x - y for x, y in zip(a.entries, b.entries)))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.cols != b.rows:
        raise ValueError("incompatible shapes for multiplication")
    cols = [b.entries[j :: b.cols] for j in range(b.cols)]
    return IntMatrix(a.rows, b.cols, tuple(sum(map(mul, a.row(i), col))
                                           for i in range(a.rows) for col in cols))


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """m**k by binary exponentiation, exact."""
    if not m.is_square:
        raise ValueError("matrix power requires a square matrix")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    result = identity_matrix(m.rows)
    base = m
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


def poly_mul(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Schoolbook product in Z[x]."""
    if f.is_zero or g.is_zero:
        return IntPolynomial()
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPolynomial.of(out)


@dataclass(frozen=True)
class CompanionMatrix:
    """Companion matrix of t^{s_k} - sum w(s_j) t^{s_k - s_j}.

    Sub-diagonal of ones; the last column holds w(s_j) in row
    s_k - s_j + 1 (1-indexed).
    """

    size: int
    matrix: IntMatrix
    char_poly: IntPolynomial


def companion_matrix(spec: CayleySpec) -> CompanionMatrix:
    """The paper's T for a cyclic spec with 0 not in S; refuses what the
    engine's companion reduction refuses."""
    _require_companion(spec)
    h = _char_poly(spec.gens, spec.weights)
    sk = h.degree()
    rows = [[int(j == i - 1) for j in range(sk - 1)] + [-h.coeffs[i]] for i in range(sk)]
    return CompanionMatrix(sk, IntMatrix.from_rows(rows), h)


def circulant_matrix(c: Circulant) -> IntMatrix:
    """The n x n circulant whose row k is the first row shifted right k times."""
    n, row = c.n, c.first_row
    return IntMatrix(n, n, tuple(row[(j - i) % n] for i in range(n) for j in range(n)))


def circulant_det(c: Circulant) -> int:
    """The representer evaluated over all n-th roots of unity, as Res(x^n - 1, p)."""
    p = representer(c)
    if p.is_zero:
        return 0
    return resultant(x_pow_minus_one(c.n), p)


def det_via_cofactor(m: Matrix) -> int:
    """Exact determinant by cofactor expansion (memoized on column subsets)."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    rows = m.to_lists()
    cache: dict[tuple[int, int], int] = {}

    def expand(row: int, colmask: int) -> int:
        if row == n:
            return 1
        key = (row, colmask)
        hit = cache.get(key)
        if hit is not None:
            return hit
        total = 0
        sign = 1
        rest = colmask
        while rest:
            low = rest & -rest
            col = low.bit_length() - 1
            coeff = rows[row][col]
            if coeff:
                total += sign * coeff * expand(row + 1, colmask ^ low)
            sign = -sign
            rest ^= low
        cache[key] = total
        return total

    return expand(0, (1 << n) - 1)


def snf_via_determinant_divisors(m: Matrix) -> tuple[int, ...]:
    """Invariant factors as quotients of gcds of all i x i minors.

    Valid only when every invariant factor is nonzero, i.e. the matrix is
    nonsingular; raises otherwise.
    """
    if m.rows != m.cols:
        raise ValueError("determinant divisors need a square matrix")
    n = m.rows
    if det_via_cofactor(m) == 0:
        raise ValueError("determinant divisors require nonzero invariant factors")
    rows = m.to_lists()
    alphas = [1]
    for size in range(1, n + 1):
        g = 0
        for rsel in combinations(range(n), size):
            for csel in combinations(range(n), size):
                minor = IntMatrix.from_rows([[rows[i][j] for j in csel] for i in rsel])
                g = gcd(g, det_via_cofactor(minor))
                if g == 1:
                    break
            if g == 1:
                break
        alphas.append(g)
    return tuple(alphas[i] // alphas[i - 1] for i in range(1, n + 1))


def _hermite_row_basis(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Canonical row-style Hermite basis of the lattice spanned by the rows.

    Pivots are positive and strictly move right; entries above a pivot are
    reduced into [0, pivot).  Two lattices are equal exactly when their
    canonical bases are equal.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    ncols = len(rows[0])
    basis: list[list[int]] = []
    col = 0
    while col < ncols and work:
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not live:
            work = rest
            col += 1
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a, b = live[0], live[1]
            q = b[col] // a[col]
            for j in range(ncols):
                b[j] -= q * a[j]
            if b[col] == 0:
                rest.append(b)
                live.remove(b)
        pivot_row = live[0]
        if pivot_row[col] < 0:
            pivot_row[:] = [-x for x in pivot_row]
        for prev in basis:
            q = prev[col] // pivot_row[col]
            if q:
                for j in range(ncols):
                    prev[j] -= q * pivot_row[j]
        basis.append(pivot_row)
        work = [r for r in rest if any(r)]
        col += 1
    return tuple(tuple(r) for r in basis)


def lattice_membership(m: Matrix, vec: Sequence[int], multiple: int) -> bool:
    """Whether multiple * vec lies in the lattice spanned by the columns of m.

    Decided by Hermite reduction: adjoining the vector to the generators
    leaves the canonical basis unchanged exactly when it was already in
    the lattice.
    """
    if len(vec) != m.rows:
        raise ValueError("vector length must equal rows")
    cols = [list(col) for col in zip(*m.to_lists())]
    target = [multiple * x for x in vec]
    base = _hermite_row_basis(cols)
    extended = _hermite_row_basis(cols + [target])
    return base == extended


def _successor_sets(g: DirectedMultigraph) -> list[int]:
    """Children of each vertex as bitmasks (multiplicity ignored)."""
    out = []
    for row in g.adjacency:
        mask = 0
        for v, k in enumerate(row):
            if k:
                mask |= 1 << v
        out.append(mask)
    return out


def has_cycle(g: DirectedMultigraph) -> bool:
    """True when the graph contains a directed cycle (loops count)."""
    n = g.vertex_count
    succ = _successor_sets(g)
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    for root in range(n):
        if color[root]:
            continue
        stack = [(root, succ[root])]
        color[root] = 1
        while stack:
            v, remaining = stack[-1]
            if remaining == 0:
                color[v] = 2
                stack.pop()
                continue
            low = remaining & -remaining
            stack[-1] = (v, remaining ^ low)
            w = low.bit_length() - 1
            if color[w] == 1:
                return True
            if color[w] == 0:
                color[w] = 1
                stack.append((w, succ[w]))
    return False


def every_cycle_has_exit(g: DirectedMultigraph) -> bool:
    """Condition that no cycle is escape-free.

    A cycle with no exit consists entirely of vertices of total out-degree
    one, so it suffices to walk the unique-successor chains among those
    vertices and look for a loop.
    """
    n = g.vertex_count
    succ_unique = [-1] * n
    for v, row in enumerate(g.adjacency):
        if sum(row) == 1:
            succ_unique[v] = next(w for w, k in enumerate(row) if k == 1)
    state = [0] * n  # 0 new, 1 in progress, 2 cleared
    for v in range(n):
        if succ_unique[v] < 0 or state[v]:
            continue
        path = []
        w = v
        while w >= 0 and state[w] == 0:
            state[w] = 1
            path.append(w)
            w = succ_unique[w]
        if w >= 0 and state[w] == 1:
            return False  # walked back into the current chain: an exitless cycle
        for p in path:
            state[p] = 2
    return True


def hereditary_saturated_closure(g: DirectedMultigraph, seed: Sequence[int]) -> frozenset[int]:
    """Smallest vertex set containing the seed that is hereditary and saturated.

    Computed by fixpoint iteration: close under edge ranges, then add any
    non-sink whose children all lie inside, until stable.
    """
    n = g.vertex_count
    succ = _successor_sets(g)
    members = 0
    for v in seed:
        members |= 1 << v
    changed = True
    while changed:
        changed = False
        m = members
        probe = m
        while probe:
            low = probe & -probe
            members |= succ[low.bit_length() - 1]
            probe ^= low
        for v in range(n):
            bit = 1 << v
            if members & bit:
                continue
            s = succ[v]
            if s and s & members == s:
                members |= bit
        changed = members != m
    return frozenset(v for v in range(n) if members >> v & 1)


def pis_by_closure(g: DirectedMultigraph) -> bool:
    """Pure infinite simplicity by closures: the reference for the component pass.

    Equivalent formulation used here: the graph has at least one cycle,
    every cycle has an exit, and the hereditary-saturated closure of every
    vertex is the whole vertex set.
    """
    if not has_cycle(g):
        return False
    if not every_cycle_has_exit(g):
        return False
    n = g.vertex_count
    everything = frozenset(range(n))
    return all(hereditary_saturated_closure(g, [v]) == everything for v in range(n))


def edges(g: DirectedMultigraph) -> list[Edge]:
    """Canonical edge list: (source, target, copy index) triples."""
    out = []
    for u, row in enumerate(g.out_rows):
        for v, k in row.items():
            for i in range(k):
                out.append((u, v, i))
    return out


def singleton_partition(g: DirectedMultigraph) -> dict[int, list[list[Edge]]]:
    """Each incoming edge in its own class."""
    incoming: dict[int, list[list[Edge]]] = {}
    for e in edges(g):
        incoming.setdefault(e[1], []).append([e])
    return incoming


def one_class_partition(g: DirectedMultigraph) -> dict[int, list[list[Edge]]]:
    """All incoming edges of a vertex in a single class."""
    incoming: dict[int, list[Edge]] = {}
    for e in edges(g):
        incoming.setdefault(e[1], []).append(e)
    return {v: [cls] for v, cls in incoming.items()}


def in_split(g: DirectedMultigraph, partition: Partition) -> DirectedMultigraph:
    """In-split graph for a partition of each vertex's incoming edges.

    Vertex v with m(v) partition classes becomes copies v_1..v_m(v)
    (sources stay single); edge e: u -> v in class i becomes one edge
    u_j -> v_i out of every copy u_j of its source.
    """
    all_edges = edges(g)
    incoming: dict[int, set[Edge]] = {}
    for e in all_edges:
        incoming.setdefault(e[1], set()).add(e)

    class_count: dict[int, int] = {}
    class_of: dict[Edge, int] = {}
    for v in range(g.vertex_count):
        need = incoming.get(v, set())
        classes = partition.get(v)
        if not need:
            if classes:
                raise InvalidSpecError(f"vertex {v} is a source but has partition classes")
            class_count[v] = 0
            continue
        if not classes:
            raise InvalidSpecError(f"vertex {v} has incoming edges but no partition classes")
        seen: set[Edge] = set()
        for idx, cls in enumerate(classes):
            if not cls:
                raise InvalidSpecError(f"vertex {v}: empty partition class")
            for e in cls:
                e = (int(e[0]), int(e[1]), int(e[2]))
                if e not in need:
                    raise InvalidSpecError(f"vertex {v}: {e} is not an incoming edge")
                if e in seen:
                    raise InvalidSpecError(f"vertex {v}: edge {e} appears in two classes")
                seen.add(e)
                class_of[e] = idx
        if seen != need:
            raise InvalidSpecError(f"vertex {v}: partition does not cover its incoming edges")
        class_count[v] = len(classes)

    new_ids: dict[tuple[int, int], int] = {}
    labels = []
    for v in range(g.vertex_count):
        m = class_count[v]
        if m == 0:
            new_ids[(v, 0)] = len(labels)
            labels.append(g.label(v))
        else:
            for i in range(m):
                new_ids[(v, i)] = len(labels)
                labels.append(f"{g.label(v)}:{i + 1}" if m > 1 else g.label(v))

    out: list[dict[int, int]] = [{} for _ in labels]
    for e in all_edges:
        u, v, _ = e
        target = new_ids[(v, class_of[e])]
        for j in range(max(class_count[u], 1)):
            row = out[new_ids[(u, j)]]
            row[target] = row.get(target, 0) + 1
    return DirectedMultigraph.from_out_rows(out, labels)
