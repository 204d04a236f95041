"""Exact integer matrix arithmetic.

Matrices come dense (``IntMatrix``) or as sparse rows (``SparseIntMatrix``,
the form graphs give I - A^t in); the determinant and the Smith core take
either.  Everything here works with arbitrary-precision Python ints: Smith
diagonals (sparse ±1 pivots in Markowitz order, a column-local Euclid with
nearest-integer quotients that diagonalizes the dense remainder, or unit
pivots and Bezout steps over Z/D given a multiple D of the largest
invariant factor, then a gcd/lcm pass that chains the diagonal),
determinants (sparse ±1 pivots in Markowitz order, then fraction-free
Bareiss elimination on the dense remainder), and cokernels presented as
finitely generated abelian groups in invariant-factor form.  The two
sparse phases share the pivot order (``_pivot_rows``, ``_supports``,
``_unit_pivot_order``) but not the elimination: each updates its own copy
of the rows with its own code, so det stays an independent witness of the
Smith form.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from heapq import heapify, heappop, heappush
from itertools import chain
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import all_ints


class MatrixFormatError(ValueError):
    """Raised for a malformed matrix file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix, row-major, immutable."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entries length must be rows * cols")
        if not all_ints(self.entries):
            raise ValueError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("matrix needs at least one row")
        c = len(rows[0])
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
        entries = list(chain.from_iterable(rows))
        if not all_ints(entries):
            raise ValueError("matrix entries must be integers")
        return cls(r, c, tuple(map(int, entries)))  # a bool becomes 0 or 1

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols


@dataclass(frozen=True)
class SparseIntMatrix:
    """Integer matrix held as one dict (column -> nonzero value) per row.

    The dicts are read, never changed: each elimination phase works on its
    own copy.
    """

    rows: int
    cols: int
    row_maps: tuple[dict[int, int], ...]

    def to_lists(self) -> list[list[int]]:
        out = []
        for row in self.row_maps:
            line = [0] * self.cols
            for j, x in row.items():
                line[j] = x
            out.append(line)
        return out


Matrix = IntMatrix | SparseIntMatrix


def int_text(x: int) -> str:
    """Decimal text of x, of any length.

    ``str`` refuses ints longer than the interpreter's digit limit (4300
    digits by default), which a determinant or invariant factor of a large
    spec passes; ``Decimal`` converts exactly and has no such limit.  The
    limit itself is left alone: it belongs to the whole process.
    """
    try:
        return str(x)
    except ValueError:
        return str(Decimal(x))


@dataclass(frozen=True)
class FinAbGroup:
    """Finitely generated abelian group in invariant-factor normal form.

    ``torsion`` lists the invariant factors >= 2 in divisibility order
    (each divides the next); ``free_rank`` counts the infinite cyclic
    summands.
    """

    torsion: tuple[int, ...] = ()
    free_rank: int = 0

    def __post_init__(self):
        if not all_ints((self.free_rank, *self.torsion)):
            raise ValueError("invariant factors and free rank must be integers")
        if self.free_rank < 0:
            raise ValueError("free rank must be non-negative")
        for t in self.torsion:
            if t < 2:
                raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_invariants(cls, factors: Iterable[int], free_rank: int = 0) -> "FinAbGroup":
        """Build from a list of cyclic orders: 0 means an infinite factor, 1 is dropped."""
        factors = list(factors)
        if not all_ints(factors):
            raise ValueError("cyclic orders must be integers")
        torsion = []
        rank = free_rank
        for f in factors:
            f = abs(f)
            if f == 0:
                rank += 1
            elif f > 1:
                torsion.append(f)
        torsion.sort()
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError(f"{sorted(torsion)} is not a divisibility chain")
        return cls(tuple(torsion), rank)

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    @property
    def is_cyclic(self) -> bool:
        """Cyclic as an abstract group: at most one invariant factor, no free part."""
        return self.free_rank == 0 and len(self.torsion) <= 1

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def order(self) -> int | None:
        """Group order, or None if infinite."""
        if self.free_rank > 0:
            return None
        n = 1
        for t in self.torsion:
            n *= t
        return n

    def display(self) -> str:
        """Human string: torsion factors "Z_k" joined by " + ", free part "Z"/"Z^r"."""
        parts = [f"Z_{int_text(t)}" for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.display()


def _diagonalize(a: list[list[int]], cols: int) -> None:
    """Reduce the first ``cols`` columns of a to a diagonal in place.

    Entries of a row past ``cols`` are passengers: every row operation moves
    them along and nothing else reads them.  Started as one entry per row,
    vec, they end as u*vec, where u is the left transform that, with some
    column transform on the right, takes the matrix to this diagonal.

    Step t alternates two moves until row and column t are clear.  The
    column move is Euclid down column t: the least |x| from row t down
    becomes the pivot p (a ±1 ends the search), and every other row gives
    up the nearest-integer multiple of the pivot row, so each remainder has
    |r| <= |p|/2; this repeats until column t is zero below p.  No search
    looks past column t.  Then row t is the only row with a nonzero in
    column t, so a column operation changes row t alone: the row move
    reduces each a[t][j] to its nearest remainder mod p in place, with no
    loop over rows.  If a remainder is left, the column holding the least
    one swaps into t, and the column move starts again on a smaller pivot.
    Rows above t hold zeros in every column >= t, so column swaps skip them.
    A column that is zero from row t down is swapped out for one that is
    not.  On return the diagonal entries may be negative and need not
    divide each other; zeros trail.
    """
    rows = len(a)
    for t in range(min(rows, cols)):
        while True:
            # Column move: the least |x| in column t, from row t down, is the pivot.
            pi, least = t, 0
            for i in range(t, rows):
                x = a[i][t]
                if x:
                    if x < 0:
                        x = -x
                    if not least or x < least:
                        pi, least = i, x
                        if x == 1:
                            break
            if not least:
                j = next((j for j in range(t + 1, cols) if any(row[j] for row in a[t:])), None)
                if j is None:
                    return
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                continue
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            at = a[t]
            p = at[t]
            tail = at[t:]
            left = False
            for i in range(t + 1, rows):
                ai = a[i]
                x = ai[t]
                if x:
                    q = (2 * x + p) // (2 * p)  # nearest integer to x / p
                    ai[t:] = [y - q * z for y, z in zip(ai[t:], tail)]
                    if ai[t]:
                        left = True
            if left:
                continue
            # Row move: column t is p over zeros, so a column operation touches row t alone.
            least = 0
            for j in range(t + 1, cols):
                x = at[j]
                if x:
                    x -= (2 * x + p) // (2 * p) * p
                    at[j] = x
                    if x:
                        if x < 0:
                            x = -x
                        if not least or x < least:
                            pj, least = j, x
            if not least:
                break
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]


def _bezout(x: int, y: int) -> tuple[int, int, int, int]:
    """(s, c, u, v) with s x + c y = g = gcd(x, y), x = g u and y = g v, for y != 0.

    ((s, c), (-v, u)) has det s u + c v = 1 and takes (x, y) to (g, 0).
    u is a unit mod v, so s = u^-1 mod v (0 when v = 1) and c = (1 - s u) / v.
    """
    g = gcd(x, y)
    u, v = x // g, y // g
    s = pow(u, -1, v)
    return s, (1 - s * u) // v, u, v


def _diagonalize_mod(a: list[list[int]], cols: int, d: int) -> None:
    """Reduce the first ``cols`` columns of a to a diagonal over Z/d, in place.

    Bounded coefficients modulo d (Domich, Kannan & Trotter, Math. Oper.
    Res. 12, 1987): every entry, passengers included, is kept in [0, d).
    Passengers move as in ``_diagonalize``.  Over Z/d a diagonal entry x
    generates the same ideal as gcd(x, d), so the caller reads that as the
    raw diagonal entry.

    Step t alternates two moves until row and column t are clear.  The
    column move takes a unit of Z/d from row t down as the pivot when there
    is one: one row operation then clears each other row, and as column t is
    a unit over zeros, column operations clear row t and touch nothing
    else.  With no unit, 2 x 2 Bezout steps (``_bezout``) fold each lower row
    into row t, which ends holding the gcd of the column.  The row move runs
    the same steps on row t as column operations: an entry that gcd(a[t][t],
    d) divides is cleared by a column operation that touches row t alone
    while column t is zero below it, and any other takes a Bezout step,
    which strictly lowers a[t][t].  If that refills column t below row t,
    the column move runs again.
    """
    rows = len(a)
    for row in a:
        row[:] = [x % d for x in row]
    for t in range(min(rows, cols)):
        while True:
            pi = next((i for i in range(t, rows) if gcd(a[i][t], d) == 1), None)
            if pi is not None:
                a[t], a[pi] = a[pi], a[t]
                at = a[t]
                inv = pow(at[t], -1, d)
                tail = at[t:]
                for ai in a[t + 1:]:
                    if ai[t]:
                        q = ai[t] * inv % d
                        ai[t:] = [(y - q * z) % d for y, z in zip(ai[t:], tail)]
                at[t + 1:cols] = [0] * (cols - t - 1)
                break
            at = a[t]
            for ai in a[t + 1:]:
                if ai[t]:
                    s, c, u, v = _bezout(at[t], ai[t])
                    pairs = list(zip(at[t:], ai[t:]))
                    at[t:] = [(s * y + c * z) % d for y, z in pairs]
                    ai[t:] = [(u * z - v * y) % d for y, z in pairs]
            e = gcd(at[t], d)
            for j in range(t + 1, cols):
                if at[j] % e == 0:
                    at[j] = 0
                    continue
                s, c, u, v = _bezout(at[t], at[j])
                for row in a[t:]:
                    y, z = row[t], row[j]
                    row[t], row[j] = (s * y + c * z) % d, (u * z - v * y) % d
                if any(ai[t] for ai in a[t + 1:]):
                    break
                e = gcd(at[t], d)
            else:
                break


def _unit_pivots(
    m: Matrix, vec: Sequence[int] | None
) -> tuple[list[int], list[list[int]], int]:
    """Take ±1 pivots of m in ``_unit_pivot_order``; return what is left.

    As p^-1 = p, exact row operations clear p's column, and column
    operations, which no passenger sees, then clear its row: the pivot adds
    a unit to the raw diagonal and drops out.  The ±1 entries this creates
    are pushed as they appear.

    Returns (pivots, rest, rest_cols): one entry per pivot taken, its row's
    passenger (the matching coordinate of u*vec, 0 when vec is not given),
    the rows of the Schur complement left, each with its passenger appended
    when vec is given, and their column count.  Input where no pivot could
    pass (see ``_pivot_rows``) is returned whole as dense rows.
    """
    cols = m.cols
    sparse, dense = _pivot_rows(m)
    if dense is not None:
        if vec is not None:
            for row, x in zip(dense, vec):
                row.append(x)
        return [], dense, cols

    support = _supports(sparse, cols)
    w = list(vec) if vec is not None else None
    heap: list[tuple[int, int, int]] = []
    for pi, pj, p, prow, others in _unit_pivot_order(sparse, support, heap):
        for k in others:
            rk = sparse[k]
            f = rk.pop(pj) * p
            if w is not None:
                w[k] -= f * w[pi]
            for c, x in prow.items():
                y = rk.get(c)
                if y is None:
                    rk[c] = y = -f * x
                    support[c].add(k)
                else:
                    y -= f * x
                    if not y:
                        del rk[c]
                        support[c].discard(k)
                        continue
                    rk[c] = y
                if y == 1 or y == -1:
                    heappush(heap, ((len(rk) - 1) * (len(support[c]) - 1), k, c))
    keep = [j for j in range(cols) if support[j] is not None]
    rest = []
    pivots = []
    for i, row in enumerate(sparse):
        if row is not None:
            line = [row.get(j, 0) for j in keep]
            if w is not None:
                line.append(w[i])
            rest.append(line)
        else:
            pivots.append(0 if w is None else w[i])
    return pivots, rest, len(keep)


def _supports(rows: list[dict[int, int]], cols: int) -> list[set[int] | None]:
    """One set per column: the indices of the rows with a nonzero there."""
    support: list[set[int] | None] = [set() for _ in range(cols)]
    for i, row in enumerate(rows):
        for j in row:
            support[j].add(i)
    return support


def _unit_pivot_order(rows: list[dict[int, int] | None], support: list[set[int] | None],
                      heap: list[tuple[int, int, int]]):
    """Yield the ±1 pivots of rows in Markowitz order, each detached.

    rows are dicts (column -> value) and support[j] the rows with a nonzero
    in column j (``_supports``).  The pivot is the ±1 entry p of least
    Markowitz cost (nnz(row) - 1)(nnz(col) - 1), popped from heap, a heap
    of (cost, row, column) that the caller feeds with the ±1 entries its
    row updates create.  A popped cost is recomputed and pushed back if it
    rose, and the entry is skipped if it is no longer ±1.  Costs that fell
    need not be pushed again, so before stopping the heap is rebuilt once
    at current costs.  The order stops when no ±1 entry is left or the
    best one costs as much as a dense step, 2 * cost >= (r - 1)(c - 1) on
    the live r x c block.

    Each pivot comes as (i, j, p, prow, others): rows[i] and support[j] are
    None, prow is row i less column j, gone from every column support, and
    others holds the other rows with a nonzero in column j.  The caller
    clears column j from them before it asks for the next pivot.
    """
    live_rows, live_cols = len(rows), len(support)
    exact = False
    while True:
        if not heap:
            if exact:
                return
            heap[:] = [
                ((len(row) - 1) * (len(support[j]) - 1), i, j)
                for i, row in enumerate(rows)
                if row is not None
                for j, x in row.items()
                if x == 1 or x == -1
            ]
            heapify(heap)
            exact = True
            continue
        cost, i, j = heappop(heap)
        prow = rows[i]
        if prow is None:
            continue
        p = prow.get(j)
        if p != 1 and p != -1:
            continue
        fresh = (len(prow) - 1) * (len(support[j]) - 1)
        if fresh > cost:
            heappush(heap, (fresh, i, j))
            continue
        if 2 * fresh >= (live_rows - 1) * (live_cols - 1):
            if exact:
                return
            heap.clear()
            continue
        exact = False
        live_rows -= 1
        live_cols -= 1
        rows[i] = None
        del prow[j]
        for c in prow:
            support[c].discard(i)
        others = support[j]
        support[j] = None
        others.discard(i)
        yield i, j, p, prow, others


def _pivot_rows(m: Matrix) -> tuple[list[dict[int, int]] | None, list[list[int]] | None]:
    """Fresh rows of m for one elimination phase: (dicts, None) or (None, lists).

    The rows come as dicts (column -> value) when a ±1 pivot could pass
    2 * cost < (rows - 1)(cols - 1), and as dense lists when none could:
    m has no ±1 entry, or its sparsest nonzero row and column, which bound
    every pivot's cost from below, already cost as much as a dense step.
    Dense input is counted at C speed before any dict is built; sparse
    input is copied dict by dict and never expanded unless it is dense.
    """
    rows, cols = m.rows, m.cols
    if isinstance(m, SparseIntMatrix):
        maps = m.row_maps
        if not any(1 in row.values() or -1 in row.values() for row in maps):
            return None, m.to_lists()
        row_counts = map(len, maps)
        col_counts = Counter(chain.from_iterable(maps)).values()
        if _too_dense(row_counts, col_counts, rows, cols):
            return None, m.to_lists()
        return [dict(row) for row in maps], None
    a = m.to_lists()
    if not any(1 in row or -1 in row for row in a):
        return None, a
    row_counts = [cols - row.count(0) for row in a]
    col_counts = [rows - col.count(0) for col in zip(*a)]
    if _too_dense(row_counts, col_counts, rows, cols):
        return None, a
    return [{j: x for j, x in enumerate(row) if x} for row in a], None


def _too_dense(row_counts: Iterable[int], col_counts: Iterable[int], rows: int, cols: int) -> bool:
    """Whether the sparsest nonzero row and column bar every ±1 pivot."""
    row_min = min(n for n in row_counts if n)
    col_min = min(n for n in col_counts if n)
    return 2 * (row_min - 1) * (col_min - 1) >= (rows - 1) * (cols - 1)


def _invariant_factors(diag: Sequence[int]) -> tuple[int, ...]:
    """Smith diagonal of a diagonal matrix: units first, then the chain, zeros last.

    Z/a + Z/b is isomorphic to Z/gcd(a, b) + Z/lcm(a, b).  The non-unit
    absolute values go into the chain in ascending order: one equal to the
    top entry or a multiple of it goes on top at no cost, and any other is
    inserted top down (``_insert_into_chain``).
    """
    chain: list[int] = []  # ascending, each entry dividing the next
    for x in sorted([d for d in map(abs, diag) if d > 1]):
        if not chain or x % chain[-1] == 0:
            chain.append(x)
        else:
            _insert_into_chain(chain, x)
    zeros = diag.count(0)
    return (1,) * (len(diag) - zeros - len(chain)) + tuple(chain) + (0,) * zeros


def _insert_into_chain(chain: list[int], x: int) -> None:
    """Insert Z/x into the chain, top down: the entry c and x become
    lcm(c, x) in c's place, and gcd(c, x) goes on down.

    Below the top entry of a run of equal values the carried value divides
    them and changes nothing, so the pass jumps to the next run: one gcd
    and one bisection per run, and repeated values cost nothing extra.
    """
    i = len(chain) - 1
    while i >= 0 and x > 1:
        c = chain[i]
        g = gcd(c, x)
        if g != x:
            chain[i] = c // g * x
        x = g
        i = bisect_left(chain, c, 0, i) - 1
    if x > 1:
        chain.insert(0, x)


def cokernel_with_class(
    m: Matrix, vec: Sequence[int] | None = None, *, modulus: int | None = None
) -> tuple[tuple[int, ...], FinAbGroup, int | None]:
    """One reduction of m: its Smith diagonal, its cokernel, and the order of [vec].

    The cokernel of the column lattice of m inside Z^rows takes torsion from
    the invariant factors > 1; zero invariant factors and surplus rows
    contribute free rank.

    The order is the least d >= 1 with d*vec in the column lattice, or None
    when no such d exists or vec is not given.  With vec, the reduction
    applies its row operations to vec itself and ends holding u*vec, where
    u*m*v is diagonal with raw entries s_i; no transform matrix is built.
    d*vec lies in the lattice exactly when each coordinate of u*(d*vec) is
    divisible by the matching s_i, so d is the lcm of s_i / gcd(s_i,
    (u*vec)_i).  This holds for any diagonal, chained or not, so the raw one
    is read, not the invariant factors.  A zero s_i or surplus row against
    a nonzero coordinate makes the order infinite.

    The content c of m (``_content``) is divided out first, so that an
    m with no ±1 entry of its own, such as I - A^t of a cyclic spec whose f
    has content c, still has ±1 pivots and stays sparse; every raw entry of
    m/c is then multiplied by c.  ``_unit_pivots`` takes ±1 pivots from
    sparse rows, each adding c to the raw diagonal, and ``_diagonalize``
    reduces the Schur complement left.  With c = 1 a unit s_i divides every
    coordinate, so only the remainder's rows bear on the order; with c > 1
    the pivot rows' coordinates count too.

    With a ``modulus`` D >= 1, ``_diagonalize_mod`` reduces the remainder
    over Z/D instead, with raw entries gcd(a[i][i], D) and D for a surplus
    row.  The result is that of Coker(m) / D Coker(m) = + Z/gcd(s_i, D), so
    it equals the exact one when D is a multiple of the largest invariant
    factor, such as a nonzero det of a square m.  Entries then stay below
    D, and a pivot that is a unit mod D clears each row in one operation
    where exact Euclid passes take many on large entries.  Only a D found
    independently of this reduction keeps |Coker| = |det| a witness: a
    divisor of det that s_L does not divide fails it, any other passes.
    """
    if vec is not None and len(vec) != m.rows:
        raise ValueError("vector length must equal rows")
    if modulus is not None and modulus < 1:
        raise ValueError("modulus must be positive")
    c = _content(m)
    pivots, a, cols = _unit_pivots(_divided(m, c) if c > 1 else m, vec)
    if modulus is None:
        _diagonalize(a, cols)
        raw = [c * a[i][i] for i in range(min(len(a), cols))]
        unit = c
    else:
        _diagonalize_mod(a, cols, modulus)
        raw = [gcd(c * a[i][i], modulus) if i < cols else modulus for i in range(len(a))]
        unit = gcd(c, modulus)
    diag = _invariant_factors([unit] * len(pivots) + raw)
    group = FinAbGroup.from_invariants(diag, free_rank=m.rows - len(diag))
    if vec is None:
        return diag, group, None
    order = 1
    if unit > 1:
        for w in pivots:
            order = lcm(order, unit // gcd(unit, w))
    for i, row in enumerate(a):
        w = row[-1]
        s = raw[i] if i < len(raw) else 0
        if s == 0:
            if w != 0:
                return diag, group, None
        else:
            order = lcm(order, s // gcd(s, w))  # lcm drops the sign of s
    return diag, group, order


def _content(m: Matrix) -> int:
    """The gcd of m's entries, 1 for a zero m; sparse rows are read until it reaches 1."""
    if isinstance(m, IntMatrix):
        return gcd(*m.entries) or 1
    g = 0
    for row in m.row_maps:
        g = gcd(g, *row.values())
        if g == 1:
            break
    return g or 1


def _divided(m: Matrix, c: int) -> Matrix:
    """m / c, in m's form, for a c that divides every entry."""
    if isinstance(m, SparseIntMatrix):
        maps = tuple({j: x // c for j, x in row.items()} for row in m.row_maps)
        return SparseIntMatrix(m.rows, m.cols, maps)
    return IntMatrix(m.rows, m.cols, tuple(x // c for x in m.entries))


def cokernel(m: Matrix) -> FinAbGroup:
    """Cokernel of the column lattice of m inside Z^rows, as a FinAbGroup."""
    return cokernel_with_class(m)[1]


def det(m: Matrix) -> int:
    """Exact determinant: sparse ±1 pivots first, then Bareiss on what is left.

    I - A^t has a few nonzeros per row, nearly all ±1.  Phase 1 holds the
    rows as sparse dicts and takes pivots in ``_unit_pivot_order``.  As
    p^-1 = p, clearing its column from the other rows is exact, and
    expanding along that column multiplies the determinant by p and by the
    parity of the pivot's position among the live rows and columns.  Each
    row a pivot updates has its ±1 entries pushed again at their new cost.
    Phase 2 runs fraction-free (Bareiss) elimination on the Schur
    complement that remains.  Input where no pivot could pass goes to
    phase 2 whole.  No elimination is shared with the Smith core, so det
    stays an independent witness of |K0|.
    """
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    rows, dense = _pivot_rows(m)
    if dense is not None:
        return _bareiss(dense)
    if not all(rows):
        return 0
    support = _supports(rows, n)
    live_rows = list(range(n))
    live_cols = list(range(n))
    sign = 1
    heap: list[tuple[int, int, int]] = []
    for pi, pj, p, prow, others in _unit_pivot_order(rows, support, heap):
        ri = bisect_left(live_rows, pi)
        del live_rows[ri]
        rj = bisect_left(live_cols, pj)
        del live_cols[rj]
        sign *= -p if (ri + rj) & 1 else p
        for k in others:
            rk = rows[k]
            f = rk.pop(pj) * p
            for c, x in prow.items():
                y = rk.get(c)
                if y is None:
                    rk[c] = -f * x
                    support[c].add(k)
                else:
                    y -= f * x
                    if y:
                        rk[c] = y
                    else:
                        del rk[c]
                        support[c].discard(k)
            if not rk:
                return 0
            fan = len(rk) - 1
            for c, y in rk.items():
                if y == 1 or y == -1:
                    heappush(heap, (fan * (len(support[c]) - 1), k, c))
    rest = [[rows[i].get(c, 0) for c in live_cols] for i in live_rows]
    return sign * _bareiss(rest)


def _bareiss(a: list[list[int]]) -> int:
    """Determinant of the square row lists a by fraction-free (Bareiss) elimination.

    Overwrites a.  Every division is exact: after step k each trailing
    entry is a (k + 1) x (k + 1) minor of the input.
    """
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        akk = a[k][k]
        ak = a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


_PLAIN_INT = re.compile(r"[+-]?[0-9]+")


def read_matrix(text: str) -> IntMatrix:
    """Parse the matrix text format: "rows cols" then that many rows of entries."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixFormatError("missing header 'rows cols'", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixFormatError("header must be 'rows cols'", 1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixFormatError("header must hold two integers", 1) from None
    if rows <= 0 or cols <= 0:
        raise MatrixFormatError("dimensions must be positive", 1)
    out: list[list[int]] = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if len(out) == rows:
            raise MatrixFormatError(f"extra line after the {rows} declared rows", lineno)
        parts = raw.split()
        if len(parts) != cols:
            raise MatrixFormatError(f"expected {cols} entries, found {len(parts)}", lineno)
        try:
            try:
                row = [int(p) for p in parts]
            except ValueError:  # plain decimals past the digit limit go through Decimal
                row = [int(Decimal(p)) if _PLAIN_INT.fullmatch(p) else int(p) for p in parts]
        except ValueError:
            raise MatrixFormatError("entries must be integers", lineno) from None
        out.append(row)
    if len(out) != rows:
        raise MatrixFormatError(f"expected {rows} rows, found {len(out)}", lineno + 1)
    return IntMatrix.from_rows(out)


def write_matrix(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(map(int_text, m.row(i))))
    return "\n".join(lines) + "\n"
