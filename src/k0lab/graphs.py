"""Finite directed multigraphs, weighted Cayley graphs, and graph predicates.

Graphs are stored as adjacency-count matrices: entry (v, w) is the number
of parallel edges v -> w.  Cayley graphs follow the right-multiplication
convention, one edge g -> g*s of multiplicity w(s) per generator s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import GroupTableError, InvalidSpecError
from .zmatrix import IntMatrix


@dataclass(frozen=True)
class DirectedMultigraph:
    """Finite directed multigraph with non-negative adjacency counts."""

    adjacency: tuple[tuple[int, ...], ...]
    vertex_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.adjacency)
        if n == 0:
            raise InvalidSpecError("graph needs at least one vertex")
        for row in self.adjacency:
            if len(row) != n:
                raise InvalidSpecError("adjacency matrix must be square")
            if any(x < 0 for x in row):
                raise InvalidSpecError("edge multiplicities must be non-negative")
        if self.vertex_labels is not None and len(self.vertex_labels) != n:
            raise InvalidSpecError("one label per vertex required")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        return cls(
            tuple(tuple(int(x) for x in row) for row in rows),
            tuple(labels) if labels is not None else None,
        )

    @property
    def vertex_count(self) -> int:
        return len(self.adjacency)

    def out_degree(self, v: int) -> int:
        return sum(self.adjacency[v])

    def in_degree(self, v: int) -> int:
        return sum(row[v] for row in self.adjacency)

    def i_minus_at(self) -> IntMatrix:
        """I - A^t, the square matrix whose cokernel carries the K-theory."""
        n = self.vertex_count
        return IntMatrix(
            n, n, tuple((1 if i == j else 0) - self.adjacency[j][i] for i in range(n) for j in range(n))
        )

    def i_minus_a(self) -> IntMatrix:
        """I - A (untransposed; the flow-equivalence invariant side)."""
        n = self.vertex_count
        return IntMatrix(
            n, n, tuple((1 if i == j else 0) - self.adjacency[i][j] for i in range(n) for j in range(n))
        )

    def edges(self) -> list[tuple[int, int, int]]:
        """Canonical edge list: (source, target, copy index) triples."""
        out = []
        for u, row in enumerate(self.adjacency):
            for v, k in enumerate(row):
                for i in range(k):
                    out.append((u, v, i))
        return out

    def label(self, v: int) -> str:
        if self.vertex_labels is not None:
            return self.vertex_labels[v]
        return f"v{v}"

    def to_dot(self, name: str = "graph") -> str:
        """Graphviz dot text; parallel edges collapse to one arrow labeled "(k)"."""
        lines = [f"digraph {name} {{"]
        for v in range(self.vertex_count):
            lines.append(f'  n{v} [label="{self.label(v)}"];')
        for u, row in enumerate(self.adjacency):
            for v, k in enumerate(row):
                if k == 1:
                    lines.append(f"  n{u} -> n{v};")
                elif k > 1:
                    lines.append(f'  n{u} -> n{v} [label="({k})"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group as a multiplication table of element indices; element 0 is e."""

    order: int
    mul: tuple[tuple[int, ...], ...]

    kind = "table"
    identity = 0

    def __post_init__(self):
        if self.order < 1:
            raise InvalidSpecError("group order must be positive")
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
        if self.n < 1:
            raise InvalidSpecError("cyclic group order must be positive")

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
        if self.n < 1:
            raise InvalidSpecError("dihedral parameter must be positive")

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
    """A finite group with an ordered generating set and positive weights."""

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
        for g in self.gens:
            if not 0 <= g < self.group.order:
                raise InvalidSpecError(f"generator {g} outside the group")
        for w in self.weights:
            if w < 1:
                raise InvalidSpecError("weights must be positive integers")

    @classmethod
    def cyclic(cls, n: int, gens: Sequence[int], weights: Sequence[int] | None = None) -> "CayleySpec":
        """Spec over Z_n; generators are reduced mod n and must stay distinct."""
        group = CyclicGroup(n)
        if weights is None:
            weights = [1] * len(gens)
        if len(weights) != len(gens):
            raise InvalidSpecError("one weight per generator required")
        reduced = [int(g) % n for g in gens]
        if len(set(reduced)) != len(reduced):
            raise InvalidSpecError("generators coincide after reduction mod n")
        pairs = sorted(zip(reduced, (int(w) for w in weights)))
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
    """Weighted Cayley graph: w(s) parallel edges g -> g*s per generator s."""
    group = spec.group
    n = group.order
    adj = [[0] * n for _ in range(n)]
    for g, row in enumerate(adj):
        for s, w in zip(spec.gens, spec.weights):
            row[group.product(g, s)] += w
    return DirectedMultigraph(tuple(map(tuple, adj)), tuple(map(group.label, range(n))))


def build_complete_graph(n: int, loops: int) -> DirectedMultigraph:
    """One edge between every ordered pair of distinct vertices, plus loops."""
    if n < 1:
        raise InvalidSpecError("need at least one vertex")
    if loops < 0:
        raise InvalidSpecError("loop count must be non-negative")
    adj = [[loops if i == j else 1 for j in range(n)] for i in range(n)]
    return DirectedMultigraph.from_rows(adj)


def k_cycle(n: int, k: int) -> DirectedMultigraph:
    """Cycle of length n with k parallel edges on every step."""
    spec = CayleySpec.cyclic(n, [1], [k])
    return build_cayley(spec)


def _strong_components(g: DirectedMultigraph) -> tuple[list[int], int]:
    """Strong component of every vertex, and the number of components.

    Tarjan's algorithm with an explicit stack, so path length is not bounded
    by the recursion limit.  Components are numbered as they close, which is
    a reverse topological order of the condensation.
    """
    n = g.vertex_count
    succ = [[w for w, k in enumerate(row) if k] for row in g.adjacency]
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
    if not all(any(row) for row in g.adjacency):
        return False  # a sink
    comp, count = _strong_components(g)
    size = [0] * count
    for c in comp:
        size[c] += 1
    cyclic = {c for v, c in enumerate(comp) if size[c] > 1 or g.adjacency[v][v]}
    if len(cyclic) != 1:
        return False
    (core,) = cyclic
    return any(g.out_degree(v) >= 2 for v, c in enumerate(comp) if c == core)


Edge = tuple[int, int, int]
Partition = Mapping[int, Sequence[Sequence[Edge]]]


def singleton_partition(g: DirectedMultigraph) -> dict[int, list[list[Edge]]]:
    """Each incoming edge in its own class."""
    incoming: dict[int, list[list[Edge]]] = {}
    for e in g.edges():
        incoming.setdefault(e[1], []).append([e])
    return incoming


def one_class_partition(g: DirectedMultigraph) -> dict[int, list[list[Edge]]]:
    """All incoming edges of a vertex in a single class."""
    incoming: dict[int, list[Edge]] = {}
    for e in g.edges():
        incoming.setdefault(e[1], []).append(e)
    return {v: [cls] for v, cls in incoming.items()}


def in_split(g: DirectedMultigraph, partition: Partition) -> DirectedMultigraph:
    """In-split graph for a partition of each vertex's incoming edges.

    Vertex v with m(v) partition classes becomes copies v_1..v_m(v)
    (sources stay single); edge e: u -> v in class i becomes one edge
    u_j -> v_i out of every copy u_j of its source.
    """
    edges = g.edges()
    incoming: dict[int, set[Edge]] = {}
    for e in edges:
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

    size = len(labels)
    adj = [[0] * size for _ in range(size)]
    for e in edges:
        u, v, _ = e
        target = new_ids[(v, class_of[e])]
        copies = class_count[u] if class_count[u] > 0 else 1
        for j in range(copies):
            adj[new_ids[(u, j if class_count[u] > 0 else 0)]][target] += 1
    return DirectedMultigraph.from_rows(adj, labels)
