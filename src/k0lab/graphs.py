"""Finite directed multigraphs, weighted Cayley graphs, and graph predicates.

Graphs are stored as sparse out-rows: row v maps each target w of an edge
v -> w to the number of parallel edges, so memory and every pass are
linear in the edges.  Cayley graphs follow the right-multiplication
convention, one edge g -> g*s of multiplicity w(s) per generator s.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, repeat
from typing import Iterable, Mapping, Sequence

from .errors import GroupTableError, InvalidSpecError
from .zmatrix import SparseIntMatrix, int_text


@dataclass(frozen=True, init=False)
class DirectedMultigraph:
    """Finite directed multigraph with non-negative edge multiplicities.

    ``out_rows[v]`` maps each target of an edge out of v to its
    multiplicity, targets ascending, zeros left out; treat the dicts as
    read-only.  The constructor takes the dense adjacency-count rows;
    ``from_out_rows`` takes out-rows directly.  Both refuse a multiplicity
    that is not an int (a float, Fraction or Decimal, even a zero one).
    A bool counts as an int, as it does in Python: True is one edge and
    False none.
    """

    out_rows: tuple[dict[int, int], ...]
    vertex_labels: tuple[str, ...] | None = None

    def __init__(
        self, adjacency: Sequence[Sequence[int]], vertex_labels: Sequence[str] | None = None
    ):
        n = len(adjacency)
        targets = range(n)
        out = []
        for row in adjacency:
            if len(row) != n:
                raise InvalidSpecError("adjacency matrix must be square")
            if not _all_ints(row):
                raise InvalidSpecError("edge multiplicities must be integers")
            edges = {w: row[w] for w in compress(targets, row)}
            if edges and min(edges.values()) < 0:
                raise InvalidSpecError("edge multiplicities must be non-negative")
            out.append(edges)
        self._fill(tuple(out), vertex_labels)

    @classmethod
    def from_out_rows(
        cls, out_rows: Sequence[Mapping[int, int]], labels: Sequence[str] | None = None
    ) -> "DirectedMultigraph":
        """Graph from out-rows: out_rows[v] maps targets of v to multiplicities."""
        n = len(out_rows)
        out = []
        for row in out_rows:
            if row:
                if not _all_ints(row) or min(row) < 0 or max(row) >= n:
                    raise InvalidSpecError("edge target outside the graph")
                if not _all_ints(row.values()):
                    raise InvalidSpecError("edge multiplicities must be integers")
                if min(row.values()) < 0:
                    raise InvalidSpecError("edge multiplicities must be non-negative")
            out.append({w: row[w] for w in sorted(row) if row[w]})
        graph = cls.__new__(cls)
        graph._fill(tuple(out), labels)
        return graph

    def _fill(self, out_rows: tuple[dict[int, int], ...], labels: Sequence[str] | None) -> None:
        if not out_rows:
            raise InvalidSpecError("graph needs at least one vertex")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(out_rows):
                raise InvalidSpecError("one label per vertex required")
        object.__setattr__(self, "out_rows", out_rows)
        object.__setattr__(self, "vertex_labels", labels)

    def __hash__(self):
        return hash((tuple(tuple(row.items()) for row in self.out_rows), self.vertex_labels))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Dense adjacency counts, entry (v, w) the number of edges v -> w; built on first use."""
        n = self.vertex_count
        return tuple(map(tuple, SparseIntMatrix(n, n, self.out_rows).to_lists()))

    @property
    def vertex_count(self) -> int:
        return len(self.out_rows)

    def out_degree(self, v: int) -> int:
        return sum(self.out_rows[v].values())

    def i_minus_at(self) -> SparseIntMatrix:
        """I - A^t, the square matrix whose cokernel carries the K-theory.

        Row v holds 1 at v less the edges into v.  Tails u are visited in
        ascending order and row u's diagonal goes in at u's own turn, so
        every row lists its columns ascending, as the dense rows would.
        """
        n = self.vertex_count
        rows: list[dict[int, int]] = [{} for _ in range(n)]
        for u, out in enumerate(self.out_rows):
            rows[u][u] = 1
            for w, k in out.items():
                rows[w][u] = rows[w].get(u, 0) - k
        return _without_zero_diagonal(rows)

    def i_minus_a(self) -> SparseIntMatrix:
        """I - A (untransposed; the flow-equivalence invariant side)."""
        rows = []
        for v, out in enumerate(self.out_rows):
            row = {w: -k for w, k in out.items()}
            row[v] = 1 + row.get(v, 0)
            rows.append(row)
        return _without_zero_diagonal(rows)

    def label(self, v: int) -> str:
        if self.vertex_labels is not None:
            return self.vertex_labels[v]
        return f"v{v}"

    def to_dot(self, name: str = "graph") -> str:
        """Graphviz dot text; parallel edges collapse to one arrow labeled "(k)"."""
        lines = [f"digraph {name} {{"]
        for v in range(self.vertex_count):
            lines.append(f'  n{v} [label="{self.label(v)}"];')
        for u, row in enumerate(self.out_rows):
            for v, k in row.items():
                if k == 1:
                    lines.append(f"  n{u} -> n{v};")
                else:
                    lines.append(f'  n{u} -> n{v} [label="({int_text(k)})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _all_ints(values: Iterable) -> bool:
    """Whether every value is an int or a bool, in one pass at C speed.

    A sum of ints is an int; a float, Fraction or Decimal among them makes
    the sum one of those, and a non-number makes it raise.
    """
    try:
        return type(sum(values)) is int
    except TypeError:
        return False


def _without_zero_diagonal(rows: list[dict[int, int]]) -> SparseIntMatrix:
    """The square sparse matrix of rows, once a diagonal that came out 0 is dropped."""
    for v, row in enumerate(rows):
        if not row[v]:
            del row[v]
    return SparseIntMatrix(len(rows), len(rows), tuple(rows))


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group as a multiplication table of element indices; element 0 is e."""

    order: int
    mul: tuple[tuple[int, ...], ...]

    kind = "table"
    identity = 0

    def __post_init__(self):
        if not _all_ints((self.order,)) or self.order < 1:
            raise InvalidSpecError("group order must be a positive integer")
        if len(self.mul) != self.order or any(len(r) != self.order for r in self.mul):
            raise InvalidSpecError("multiplication table must be order x order")

    def product(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def validate(self) -> None:
        """Check latin-square, identity, and associativity axioms exhaustively."""
        n = self.order
        full = set(range(n))
        for i, row in enumerate(self.mul):
            if set(row) != full:
                raise InvalidSpecError(f"row {i} is not a permutation")
            if set(self.mul[j][i] for j in range(n)) != full:
                raise InvalidSpecError(f"column {i} is not a permutation")
        e = self.identity
        for a in range(n):
            if self.mul[e][a] != a or self.mul[a][e] != a:
                raise InvalidSpecError("identity element is not two-sided")
        for a in range(n):
            for b in range(n):
                ab = self.mul[a][b]
                row_a = self.mul[a]
                for c in range(n):
                    if self.mul[ab][c] != row_a[self.mul[b][c]]:
                        raise InvalidSpecError(f"associativity fails at ({a},{b},{c})")

    def label(self, g: int) -> str:
        return str(g)


@dataclass(frozen=True)
class CyclicGroup:
    """Z_n under addition; element i is the residue i."""

    n: int

    kind = "cyclic"
    identity = 0

    def __post_init__(self):
        if not _all_ints((self.n,)) or self.n < 1:
            raise InvalidSpecError("cyclic group order must be a positive integer")

    @property
    def order(self) -> int:
        return self.n

    def product(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def label(self, g: int) -> str:
        return str(g)


@dataclass(frozen=True)
class DihedralGroup:
    """Dihedral group <r, s | r^n = s^2 = e, rsr = s> of order 2n.

    Element x*n + k is r^k s^x, so k < n is the rotation r^k and n + k the
    reflection r^k s.  The product is r^i s^x * r^j s^y = r^(i + (-1)^x j) s^(x xor y).
    """

    n: int

    kind = "dihedral"
    identity = 0

    def __post_init__(self):
        if not _all_ints((self.n,)) or self.n < 1:
            raise InvalidSpecError("dihedral parameter must be a positive integer")

    @property
    def order(self) -> int:
        return 2 * self.n

    def product(self, a: int, b: int) -> int:
        x, i = divmod(a, self.n)
        y, j = divmod(b, self.n)
        return (x ^ y) * self.n + (i - j if x else i + j) % self.n

    def label(self, g: int) -> str:
        x, k = divmod(g, self.n)
        if x:
            return "s" if k == 0 else f"r^{k}s"
        return "e" if k == 0 else "r" if k == 1 else f"r^{k}"


Group = FiniteGroupTable | CyclicGroup | DihedralGroup


def read_group_table(text: str) -> FiniteGroupTable:
    """Parse the group-table text format: order, then one table row per line."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GroupTableError("missing order line", 1)
    try:
        order = int(lines[0].strip())
    except ValueError:
        raise GroupTableError("order must be an integer", 1) from None
    if order < 1:
        raise GroupTableError("order must be positive", 1)
    rows: list[tuple[int, ...]] = []
    lineno = 1
    for raw in lines[1:]:
        lineno += 1
        if not raw.strip():
            continue
        if len(rows) == order:
            raise GroupTableError(f"extra line after the {order} table rows", lineno)
        parts = raw.split()
        if len(parts) != order:
            raise GroupTableError(f"expected {order} entries, found {len(parts)}", lineno)
        try:
            row = tuple(int(p) for p in parts)
        except ValueError:
            raise GroupTableError("entries must be integers", lineno) from None
        if any(x < 0 or x >= order for x in row):
            raise GroupTableError("entries must be element indices", lineno)
        rows.append(row)
    if len(rows) != order:
        raise GroupTableError(f"expected {order} table rows, found {len(rows)}", lineno + 1)
    table = FiniteGroupTable(order, tuple(rows))
    table.validate()
    return table


def write_group_table(group: Group) -> str:
    """The group-table text format of any group, from its product."""
    n = group.order
    lines = [str(n)]
    for a in range(n):
        lines.append(" ".join(str(group.product(a, b)) for b in range(n)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CayleySpec:
    """A finite group with ordered int generators and positive int weights."""

    group: Group
    gens: tuple[int, ...]
    weights: tuple[int, ...]

    def __post_init__(self):
        if not self.gens:
            raise InvalidSpecError("generating set must be nonempty")
        if len(self.gens) != len(self.weights):
            raise InvalidSpecError("one weight per generator required")
        if len(set(self.gens)) != len(self.gens):
            raise InvalidSpecError("generators must be distinct")
        if not _all_ints(self.gens):
            raise InvalidSpecError("generators must be integers")
        for g in self.gens:
            if not 0 <= g < self.group.order:
                raise InvalidSpecError(f"generator {g} outside the group")
        if not _all_ints(self.weights) or min(self.weights) < 1:
            raise InvalidSpecError("weights must be positive integers")

    @classmethod
    def cyclic(cls, n: int, gens: Sequence[int], weights: Sequence[int] | None = None) -> "CayleySpec":
        """Spec over Z_n; generators are reduced mod n and must stay distinct."""
        group = CyclicGroup(n)
        if weights is None:
            weights = [1] * len(gens)
        if len(weights) != len(gens):
            raise InvalidSpecError("one weight per generator required")
        if not _all_ints(gens):
            raise InvalidSpecError("generators must be integers")
        reduced = [g % n for g in gens]
        if len(set(reduced)) != len(reduced):
            raise InvalidSpecError("generators coincide after reduction mod n")
        pairs = sorted(zip(reduced, weights))
        return cls(
            group,
            tuple(p[0] for p in pairs),
            tuple(p[1] for p in pairs),
        )

    @classmethod
    def complete(cls, n: int, loops: int) -> "CayleySpec":
        """K_n with ``loops`` loops per vertex, as a weighted Cayley spec over Z_n."""
        return cls.cyclic(n, range(n), [loops if g == 0 else 1 for g in range(n)])

    @classmethod
    def dihedral(cls, n: int) -> "CayleySpec":
        """The dihedral group with its usual generating set {r, s}, unweighted.

        r is element 1 % n (the identity when n = 1) and s is element n.
        """
        return cls(DihedralGroup(n), (1 % n, n), (1, 1))

    @property
    def n(self) -> int:
        return self.group.order

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def is_cyclic(self) -> bool:
        return self.group.kind == "cyclic"


def build_cayley(spec: CayleySpec) -> DirectedMultigraph:
    """Weighted Cayley graph: w(s) parallel edges g -> g*s per generator s.

    Each out-row is built once, sorted, and goes into the graph as it is.
    The weights are positive, so no multiplicity is zero; the targets are
    range-checked, as an unvalidated ``FiniteGroupTable`` can name a
    non-element.
    """
    group = spec.group
    order = group.order
    weights = spec.weights
    vertices = range(order)
    columns = [list(map(group.product, vertices, repeat(s, order))) for s in spec.gens]
    for targets in columns:
        if not _all_ints(targets) or min(targets) < 0 or max(targets) >= order:
            raise InvalidSpecError("edge target outside the graph")
    out = []
    for targets in zip(*columns):
        edges = sorted(zip(targets, weights))
        row = dict(edges)
        if len(row) < len(edges):  # a table that is not a group can repeat a target
            row = {}
            for t, w in edges:
                row[t] = row.get(t, 0) + w
        out.append(row)
    graph = DirectedMultigraph.__new__(DirectedMultigraph)
    graph._fill(tuple(out), tuple(map(group.label, vertices)))
    return graph


def _strong_components(g: DirectedMultigraph) -> tuple[list[int], int]:
    """Strong component of every vertex, and the number of components.

    Tarjan's algorithm with an explicit stack, so path length is not bounded
    by the recursion limit.  Components are numbered as they close, which is
    a reverse topological order of the condensation.
    """
    n = g.vertex_count
    succ = g.out_rows
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n  # -1 while a visited vertex is still on the Tarjan stack
    stack: list[int] = []
    count = 0
    visited = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    index[w] = low[w] = visited
                    visited += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = count
                        if w == v:
                            break
                    count += 1
    return comp, count


def is_strongly_connected(g: DirectedMultigraph) -> bool:
    """Every ordered vertex pair is joined by a directed path."""
    return _strong_components(g)[1] == 1


def is_purely_infinite_simple(g: DirectedMultigraph) -> bool:
    """Graph criterion for pure infinite simplicity of the associated algebra.

    For a finite graph E, L(E) is purely infinite simple exactly when every
    vertex connects to a cycle, every cycle has an exit, and the only
    hereditary saturated vertex sets are the empty set and all of E
    (Abrams & Aranda Pino, *Purely infinite simple Leavitt path algebras*,
    J. Pure Appl. Algebra 207, 2006).  On the strong components this reads:
    no vertex is a sink, exactly one component carries a cycle (two or more
    vertices, or a loop), and that component is not a bare cycle, i.e. some
    vertex in it has total out-weight at least two (parallel edges count).
    One linear-time component pass decides it.
    """
    out = g.out_rows
    if not all(out):
        return False  # a sink
    comp, count = _strong_components(g)
    size = [0] * count
    for c in comp:
        size[c] += 1
    cyclic = {c for v, c in enumerate(comp) if size[c] > 1 or v in out[v]}
    if len(cyclic) != 1:
        return False
    (core,) = cyclic
    return any(g.out_degree(v) >= 2 for v, c in enumerate(comp) if c == core)
