"""The four benchmark workloads: seeded op parameters, the op, and its checks.

Every op runs from its parameters to a finished report, building the
``CayleySpec`` or graph on the way, because a caller pays that cost on every
call.  The op looks up library names through their modules at call time, so
that the tracer's wrappers (``tracer.py``) see every call.

Each workload draws its ops in rounds, and every round has the same mix of
the properties that set an op's cost.  Outside ``sweep`` a round visits a
fixed list of sizes, in a seeded order: on ``cyclic_large`` each size once
with every |S| and once with 0 in S, on ``general`` each size once, with
sinks at fixed sizes; a ``sweep`` round gives each (n, |S|) cell its share
of the scan's instances.
The seed draws the rest: generators and weights, graph edges, matrix
entries.  A run stops only at the end of a round, so the mix of a run does
not depend on how many rounds it completed, and runs with different seeds
share it.

The correctness checks run outside the timed region and use witnesses that
do not share the measured path: the cyclotomic sign and nullity formulas,
the W - 1 bound on the identity order, Bareiss against the resultant, the
dihedral theorem table, and, for ``snf``, the divisibility chain and the
product of the diagonal against the determinant.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
from bisect import bisect_right
from itertools import accumulate, combinations, product
from math import gcd, prod

# Library modules, set by ``load_library`` once ``src`` is importable.
K0 = GRAPHS = CLI = CIRCULANT = ZMATRIX = CLASSIFY = None


def load_library():
    global K0, GRAPHS, CLI, CIRCULANT, ZMATRIX, CLASSIFY
    K0 = importlib.import_module("k0lab.k0")
    GRAPHS = importlib.import_module("k0lab.graphs")
    CLI = importlib.import_module("k0lab.cli")
    CIRCULANT = importlib.import_module("k0lab.circulant")
    ZMATRIX = importlib.import_module("k0lab.zmatrix")
    CLASSIFY = importlib.import_module("k0lab.classify")


def _shuffled(rng: random.Random, items: list) -> list:
    order = list(items)
    rng.shuffle(order)
    return order


class Workload:
    """One op stream.  ``prepare`` and ``check`` run outside the timed region."""

    name = ""
    min_ops = 100  # every run completes at least this many ops; the digest covers them

    def rounds(self, seed: int):
        """Endless stream of rounds (lists of op parameters), made from the seed alone."""
        rng = random.Random(f"{self.name}:{seed}")
        r = 0
        while True:
            yield self.one_round(rng, r)
            r += 1

    def one_round(self, rng: random.Random, r: int) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Fixed small ops, run before timing; they reach every code path of the op."""
        raise NotImplementedError

    def prepare(self, params, workdir: str):
        return params

    def run(self, op_input):
        """The timed op; returns (result, canonical output text)."""
        raise NotImplementedError

    def check(self, params, result, output: str) -> list[str]:
        raise NotImplementedError

    def label(self, params) -> str:
        raise NotImplementedError


def _draw_cyclic(rng: random.Random, n: int, gen_pool, max_weight: int, k: int,
                 with_zero: bool):
    """k generators of Z_n from gen_pool (or 0 and max(k - 1, 1) of them) that
    generate, with weights 1..max_weight and W >= 2."""
    pool = list(gen_pool)
    while True:
        gens = [0] + rng.sample(pool, max(k - 1, 1)) if with_zero else rng.sample(pool, k)
        weights = [rng.randint(1, max_weight) for _ in gens]
        if gcd(n, *gens) == 1 and sum(weights) >= 2:
            pairs = sorted(zip(gens, weights))
            return tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)


class _Cyclic(Workload):
    crosscheck_det = False

    def run(self, params):
        _, n, gens, weights = params
        report = K0.analyze(GRAPHS.CayleySpec.cyclic(n, gens, weights))
        return report, report.to_json()

    def check(self, params, report, output):
        _, n, gens, weights = params
        spec = GRAPHS.CayleySpec.cyclic(n, gens, weights)
        errors = []
        sign = CIRCULANT.det_sign_closed_form(spec)
        if report.det_sign != sign:
            errors.append(f"det_sign {report.det_sign} != closed form {sign}")
        rep = CIRCULANT.representer(CIRCULANT.cayley_circulant(spec))
        nullity = CIRCULANT.nullity_from_cyclotomics(rep, n)
        if report.k0 is None or report.k0.free_rank != nullity:
            errors.append(f"K0 free rank != cyclotomic nullity {nullity}")
        w1 = spec.total_weight - 1
        order = report.identity_order
        if not isinstance(order, int) or w1 % order != 0:
            errors.append(f"identity order {order} does not divide W-1 = {w1}")
        elif gcd(w1, n) == 1 and order != w1:
            errors.append(f"identity order {order} != W-1 = {w1} although gcd(W-1, n) = 1")
        if self.crosscheck_det:
            bareiss = ZMATRIX.det(GRAPHS.build_cayley(spec).i_minus_at())
            if bareiss != report.det_value:
                errors.append(f"Bareiss det {bareiss} != resultant det {report.det_value}")
        return errors

    def label(self, params):
        _, n, gens, weights = params
        return f"cyclic n={n} S={{{','.join(map(str, gens))}}} w={{{','.join(map(str, weights))}}}"


def _sweep_cells(n_range, max_gens: int, max_weight: int):
    """Cells (n, subsets, weight vectors) of the instances ``scan cyclic_s``
    visits: every generating S of Z_n with 1 <= |S| <= max_gens, 0 allowed,
    and every weight vector with entries 1..max_weight and W >= 2."""
    cells = []
    for n in n_range:
        for k in range(1, max_gens + 1):
            subsets = [s for s in combinations(range(n), k) if gcd(n, *s) == 1]
            weights = [w for w in product(range(1, max_weight + 1), repeat=k) if sum(w) >= 2]
            if subsets and weights:
                cells.append((n, subsets, weights))
    return cells


class Sweep(_Cyclic):
    """Small cyclic specs in the mix that `scan cyclic_s` sends for n 2-24,
    |S| <= 3 and weights 1-2: each (n, S, w) it visits with W >= 2 is equally
    likely, so large n and |S| = 3 dominate.  `auto` runs both reductions at
    this size."""

    name = "sweep"
    min_ops = 2000
    crosscheck_det = True
    round_ops = 250
    cells = _sweep_cells(range(2, 25), 3, 2)
    cumulative = list(accumulate(len(s) * len(w) for _, s, w in cells))

    def one_round(self, rng, r):
        # Systematic sampling: each (n, |S|) cell gets its share of the
        # round's ops to within one op, so every round has the scan's mix.
        total = self.cumulative[-1]
        offset = rng.random()
        ops = []
        for j in range(self.round_ops):
            n, subsets, weights = self.cells[bisect_right(self.cumulative,
                                                          (j + offset) * total / self.round_ops)]
            ops.append(("cyclic", n, rng.choice(subsets), rng.choice(weights)))
        rng.shuffle(ops)
        return ops

    def warmup(self):
        return [("cyclic", 6, (2, 3), (1, 1)), ("cyclic", 7, (0, 1, 3), (1, 2, 1))]


class CyclicLarge(_Cyclic):
    """Cyclic specs at n 48-128 with steps <= 8, |S| 1-3, weights 1-3; a
    quarter have 0 in S.  `auto` takes the companion path but still runs the
    full n x n left-transform SNF for the identity order."""

    name = "cyclic_large"
    # 25 geometric sizes from 48 to 128: SNF cost grows like n**3, so equal
    # shares per size keep a run above 100 ops in its budget.
    sizes = [round(48 * (128 / 48) ** (b / 24)) for b in range(25)]

    def one_round(self, rng, r):
        # |S| and a 0 generator move an op's cost most, so every size gets
        # |S| = 1, 2 and 3 without 0, and one spec with 0 (|S| 2 or 3 in
        # turn): a round holds every cost class at every size.
        ops = []
        for b, n in enumerate(self.sizes):
            for k, with_zero in ((1, False), (2, False), (3, False), (2 + b % 2, True)):
                gens, weights = _draw_cyclic(rng, n, range(1, 9), 3, k, with_zero)
                ops.append(("cyclic", n, gens, weights))
        return _shuffled(rng, ops)

    def warmup(self):
        return [("cyclic", 48, (1, 5), (1, 2)), ("cyclic", 49, (0, 3), (2, 1))]


def _random_multigraph(rng: random.Random, v: int, sink: bool):
    """Hamiltonian cycle on v vertices plus v/2 random edges of multiplicity 1-2.

    With ``sink`` an extra vertex receives edges and has none leaving it, so
    the graph is not purely infinite simple; without it the graph is strongly
    connected and not a bare cycle, so it is.
    """
    size = v + 1 if sink else v
    adj = [[0] * size for _ in range(size)]
    order = list(range(v))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        adj[a][b] += 1
    for _ in range(v // 2):
        adj[rng.randrange(v)][rng.randrange(v)] += rng.randint(1, 2)
    if sink:
        for _ in range(rng.randint(1, 2)):
            adj[rng.randrange(v)][v] += 1
    return tuple(tuple(row) for row in adj)


class General(Workload):
    """Dihedral specs (n 10-60) and raw multigraphs (40-120 vertices), mixed;
    none of the cyclic fast paths applies."""

    name = "general"
    # Many sizes, each once a round, so that no one size holds the median:
    # all dihedral ops of one n cost the same.  One graph in nine gets a sink.
    dihedral_sizes = list(range(10, 61, 2))
    graph_sizes = list(range(40, 121, 3))
    sink_sizes = (52, 79, 106)

    def one_round(self, rng, r):
        ops = [("dihedral", n) for n in self.dihedral_sizes]
        for v in self.graph_sizes:
            sink = v in self.sink_sizes
            ops.append(("graph", _random_multigraph(rng, v, sink), sink))
        return _shuffled(rng, ops)

    def warmup(self):
        return [("dihedral", 10), ("graph", _random_multigraph(random.Random(0), 40, False), False)]

    def run(self, params):
        if params[0] == "dihedral":
            report = K0.analyze(GRAPHS.CayleySpec.dihedral(params[1]))
        else:
            report = K0.analyze(GRAPHS.DirectedMultigraph(params[1]))
        return report, report.to_json()

    def check(self, params, report, output):
        if params[0] == "dihedral":
            expected = CLASSIFY.dihedral_theorem_row(params[1])[0]
            if report.k0 != expected:
                shown = report.k0.display() if report.k0 is not None else None
                return [f"K0 {shown} != theorem row {expected.display()}"]
            return []
        sink = params[2]
        if report.pis == sink:
            return [f"pis is {report.pis} for a graph {'with' if sink else 'without'} a sink"]
        return []

    def label(self, params):
        if params[0] == "dihedral":
            return f"dihedral n={params[1]}"
        return f"graph v={len(params[1])}{' with sink' if params[2] else ''}"


class DenseSnf(Workload):
    """`k0lab snf --in FILE --json` through `k0lab.cli.main`, in-process, on dense
    random matrices with n 16-40 and entries in [-4, 4]."""

    name = "dense_snf"

    def one_round(self, rng, r):
        ops = []
        for n in _shuffled(rng, list(range(16, 41))):
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            ops.append(("snf", n, f"{n} {n}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)))
        return ops

    def warmup(self):
        return [("snf", 2, "2 2\n2 1\n0 3\n")]

    def prepare(self, params, workdir):
        # Each op gets a fresh file, written before its timer starts, so no
        # input repeats within a run.
        path = os.path.join(workdir, "matrix.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(params[2])
        return path

    def run(self, path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = CLI.main(["snf", "--in", path, "--json"])
        return code, out.getvalue()

    def check(self, params, code, output):
        if code != 0:
            return [f"exit code {code}"]
        payload = json.loads(output)
        diag = [int(d) for d in payload["diag"]]
        nonzero = [d for d in diag if d != 0]
        errors = []
        if diag[: len(nonzero)] != nonzero or any(d < 0 for d in diag):
            errors.append("zeros do not trail, or a diagonal entry is negative")
        if any(b % a for a, b in zip(nonzero, nonzero[1:])):
            errors.append("the diagonal is not a divisibility chain")
        det = int(payload["det"])
        if det == 0:
            if len(nonzero) == len(diag):
                errors.append("det is 0 but the diagonal has no zero")
        elif prod(nonzero) != abs(det):
            errors.append(f"product of the diagonal != |det| = {abs(det)}")
        return errors

    def label(self, params):
        return f"dense n={params[1]}"


WORKLOADS = {w.name: w for w in (Sweep(), CyclicLarge(), General(), DenseSnf())}
