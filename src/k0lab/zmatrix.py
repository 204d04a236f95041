"""Exact integer matrix arithmetic.

Everything here works with arbitrary-precision Python ints: Smith
diagonals (a diagonalizing elimination, then a gcd/lcm pass that chains
the diagonal), determinants (sparse ±1 pivots in Markowitz order, then
fraction-free Bareiss elimination on the dense remainder), rank, matrix
powers, and cokernels presented as finitely generated abelian groups in
invariant-factor form.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd, lcm
from operator import mul as _int_mul
from typing import Iterable, Sequence


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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        if r == 0:
            raise ValueError("matrix needs at least one row")
        c = len(rows[0])
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
        return cls(r, c, tuple(int(x) for row in rows for x in row))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)),
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(
            self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries))
        )

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for multiplication")
        cols = [other.entries[j :: other.cols] for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            arow = self.entries[i * self.cols : (i + 1) * self.cols]
            for bcol in cols:
                out.append(sum(map(_int_mul, arow, bcol)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def _check_same_shape(self, other: "IntMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


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
        torsion = []
        rank = free_rank
        for f in factors:
            f = abs(int(f))
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
        parts = [f"Z_{t}" for t in self.torsion]
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.display()


def _min_abs_pivot(a: list[list[int]], t: int, rows: int, cols: int):
    """Position of a nonzero entry of minimal |value| in the submatrix a[t:, t:]."""
    best = None
    best_abs = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            x = ai[j]
            if x != 0:
                ax = -x if x < 0 else x
                if best_abs is None or ax < best_abs:
                    best, best_abs = (i, j), ax
                    if ax == 1:
                        return best
    return best


def _diagonalize(a: list[list[int]], cols: int) -> None:
    """Reduce the first ``cols`` columns of a to a diagonal in place.

    Entries of a row past ``cols`` are passengers: every row operation moves
    them along and nothing else reads them.  Started as one entry per row,
    vec, they end as u*vec, where u is the left transform that, with some
    column transform on the right, takes the matrix to this diagonal.

    Pivots are chosen with minimal absolute value to limit coefficient
    growth.  On return the diagonal entries may be negative and need not
    divide each other; zeros trail.
    """
    rows = len(a)
    for t in range(min(rows, cols)):
        pos = _min_abs_pivot(a, t, rows, cols)
        if pos is None:
            break
        while pos is not None:
            pi, pj = pos
            if pi != t:
                a[t], a[pi] = a[pi], a[t]
            # Column operations skip rows above t: they hold 0 in every column >= t.
            if pj != t:
                for row in a[t:]:
                    row[t], row[pj] = row[pj], row[t]
            pivot = a[t][t]
            dirty = False
            at = a[t]
            for i in range(t + 1, rows):
                ai = a[i]
                x = ai[t]
                if x != 0:
                    q = x // pivot
                    if q:
                        ai[t:] = [p - q * r for p, r in zip(ai[t:], at[t:])]
                    if ai[t] != 0:
                        dirty = True
            for j in range(t + 1, cols):
                x = at[j]
                if x != 0:
                    q = x // pivot
                    if q:
                        for row in a[t:]:
                            row[j] -= q * row[t]
                    if at[j] != 0:
                        dirty = True
            # Remainders smaller than |pivot| were created; re-pivot on them.
            pos = _min_abs_pivot(a, t, rows, cols) if dirty else None


def _invariant_factors(diag: Sequence[int]) -> tuple[int, ...]:
    """Smith diagonal of a diagonal matrix: units first, then the chain, zeros last.

    Z/a + Z/b is isomorphic to Z/gcd(a, b) + Z/lcm(a, b), so pairwise
    (gcd, lcm) passes over the non-unit absolute values leave each entry
    dividing the next.
    """
    units = 0
    rest = []
    for d in diag:
        d = abs(d)
        if d == 1:
            units += 1
        elif d:
            rest.append(d)
    for i in range(len(rest)):
        for j in range(i + 1, len(rest)):
            g = gcd(rest[i], rest[j])
            rest[i], rest[j] = g, rest[i] // g * rest[j]
    return (1,) * units + tuple(rest) + (0,) * (len(diag) - units - len(rest))


def snf_diagonal(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of m: the diagonal of its Smith normal form."""
    return cokernel_with_class(m)[0]


def cokernel_with_class(
    m: IntMatrix, vec: Sequence[int] | None = None
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
    """
    if vec is not None and len(vec) != m.rows:
        raise ValueError("vector length must equal rows")
    a = m.to_lists()
    if vec is not None:
        for row, x in zip(a, vec):
            row.append(x)
    _diagonalize(a, m.cols)
    raw = [a[i][i] for i in range(min(m.rows, m.cols))]
    diag = _invariant_factors(raw)
    group = FinAbGroup.from_invariants(diag, free_rank=m.rows - len(diag))
    if vec is None:
        return diag, group, None
    order = 1
    for i, row in enumerate(a):
        w = row[-1]
        s = raw[i] if i < len(raw) else 0
        if s == 0:
            if w != 0:
                return diag, group, None
        else:
            order = lcm(order, s // gcd(s, w))  # lcm drops the sign of s
    return diag, group, order


def cokernel(m: IntMatrix) -> FinAbGroup:
    """Cokernel of the column lattice of m inside Z^rows, as a FinAbGroup."""
    return cokernel_with_class(m)[1]


def det(m: IntMatrix) -> int:
    """Exact determinant: sparse ±1 pivots first, then Bareiss on what is left.

    I - A^t has a few nonzeros per row, nearly all ±1.  Phase 1 holds the
    rows as sparse dicts and takes the ±1 entry p of least Markowitz cost
    (nnz(row) - 1)(nnz(col) - 1).  As p^-1 = p, clearing its column from the
    other rows is exact, and expanding along that column multiplies the
    determinant by p and by the parity of the pivot's position among the
    live rows and columns.  Phase 1 stops when no ±1 entry is left or the
    best one costs as much as a Bareiss step on the live block; phase 2 runs
    fraction-free (Bareiss) elimination on the Schur complement that
    remains.  Dense input, where no entry could pass that rule, goes to
    phase 2 whole.  Nothing here is shared with the Smith core, so det
    stays an independent witness of |K0|.
    """
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    n = m.rows
    a = m.to_lists()
    row_counts = [n - row.count(0) for row in a]
    if 0 in row_counts:
        return 0
    # The sparsest row and column bound the cost of any ±1 pivot from below;
    # counted at C speed, they keep dense input off the dicts.
    col_counts = [n - col.count(0) for col in zip(*a)]
    if 2 * (min(row_counts) - 1) * (min(col_counts) - 1) >= (n - 1) ** 2:
        return _bareiss(a)

    rows = [{j: x for j, x in enumerate(row) if x} for row in a]
    cols: list[set[int]] = [set() for _ in range(n)]
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    live_rows = list(range(n))
    live_cols = list(range(n))
    sign = 1
    while True:
        # A pivot passes while 2 * cost < (r - 1)^2, r the number of live rows.
        best_cost = ((len(live_rows) - 1) ** 2 + 1) // 2
        best = None
        for i in live_rows:
            row = rows[i]
            fan = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    cost = fan * (len(cols[j]) - 1)
                    if cost < best_cost:
                        best, best_cost = (i, j, x), cost
                        if not cost:
                            break
            if not best_cost:
                break
        if best is None:
            break
        pi, pj, p = best
        ri = bisect_left(live_rows, pi)
        del live_rows[ri]
        rj = bisect_left(live_cols, pj)
        del live_cols[rj]
        sign *= -p if (ri + rj) & 1 else p
        prow = rows[pi]
        del prow[pj]
        for c in prow:
            cols[c].discard(pi)
        others = cols[pj]
        others.discard(pi)
        for k in others:
            rk = rows[k]
            f = rk.pop(pj) * p
            for c, x in prow.items():
                y = rk.get(c)
                if y is None:
                    rk[c] = -f * x
                    cols[c].add(k)
                else:
                    y -= f * x
                    if y:
                        rk[c] = y
                    else:
                        del rk[c]
                        cols[c].discard(k)
            if not rk:
                return 0
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


def rank(m: IntMatrix) -> int:
    """Rank over the rationals: the number of nonzero invariant factors."""
    return sum(1 for s in snf_diagonal(m) if s != 0)


def mat_pow(m: IntMatrix, k: int) -> IntMatrix:
    """m**k by binary exponentiation, exact."""
    if not m.is_square:
        raise ValueError("matrix power requires a square matrix")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    result = IntMatrix.identity(m.rows)
    base = m
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


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
            out.append([int(p) for p in parts])
        except ValueError:
            raise MatrixFormatError("entries must be integers", lineno) from None
    if len(out) != rows:
        raise MatrixFormatError(f"expected {rows} rows, found {len(out)}", lineno + 1)
    return IntMatrix.from_rows(out)


def write_matrix(m: IntMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(str(x) for x in m.row(i)))
    return "\n".join(lines) + "\n"
