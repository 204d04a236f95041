"""Golden byte-identity check.

One SHA-256 over the text and JSON that a fixed corpus of inputs produces:
``analyze`` in every method on small cyclic and dihedral specs and on seeded
random multigraphs, seeded ``k0lab snf`` runs, and a few CLI runs.  A second
digest covers ``auto`` on seeded cyclic specs with n 25-60, where it takes the
companion path alone, or, when 0 is a generator, the full_snf report from the
shortest admissible arc (1 <= L <= s_k) or from the full path.  A
refactor that keeps every output byte keeps the digests; any change to a
report, a label, an error message or an exit code moves it.  When an output
is meant to change, recompute the digests on the old and new code and say
which outputs differ.
"""

import hashlib
import random
from itertools import combinations, product

from k0lab.cli import main
from k0lab.graphs import CayleySpec, DirectedMultigraph
from k0lab.k0 import analyze
from k0lab.zmatrix import write_matrix

from conftest import random_matrix

GOLDEN_SHA256 = "dc7a9f1e5137dfd46ebb57d22971a3bfadb6fb4c4bc505e3215c92f5300c54d9"

# ``auto`` on cyclic specs past the default cross-check limit (n 25-60).
GOLDEN_LARGE_SHA256 = "7e450fb87ec1bd3153b180f735a5da5b9d654082211565970dce1abb204e0b2c"

METHODS = ("auto", "full", "companion", "both")


def _analyze_outputs(target):
    for method in METHODS:
        try:
            report = analyze(target, method=method)
        except ValueError as exc:  # rejected input is recorded behaviour too
            yield f"{type(exc).__name__}: {exc}"
        else:
            yield report.to_json() + report.render_text()


def _cyclic_specs():
    for n in range(1, 10):
        for size in range(1, 4):
            for gens in combinations(range(n), size):
                for weights in product((1, 2), repeat=size):
                    yield n, gens, weights


def _random_graphs():
    rng = random.Random(20181)
    for _ in range(20):
        n = rng.randint(1, 7)
        yield DirectedMultigraph(
            [[rng.choice((0, 0, 1, 1, 2)) for _ in range(n)] for _ in range(n)]
        )


def _cli_output(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return f"{argv} -> {code}\n{captured.out}\n{captured.err}"


CLI_RUNS = [
    ["cayley", "--n", "6", "--gens", "2,3"],
    ["cayley", "--n", "6", "--gens", "2,3", "--json"],
    ["cayley", "--n", "4", "--gens", "1", "--weights", "3", "--method", "both"],
    ["cayley", "--n", "6", "--gens", "2"],
    ["cayley", "--n", "5", "--gens", "0,1", "--method", "companion"],
    ["dihedral", "--n", "7"],
    ["dihedral", "--n", "12", "--json"],
    ["compare", "dihedral:n=5", "cyclic:n=3:gens=0,1"],
    ["compare", "cyclic:n=6:gens=2,3", "kcycle:n=3:w=2", "--json"],
    ["compare", "complete:n=3:l=1", "complete:n=4:l=1"],
    ["compare", "kcycle:n=4:w=1", "cyclic:n=6:gens=2,3"],
    ["scan", "--family", "dihedral", "--n-max", "12"],
    ["scan", "--family", "complete", "--n-max", "6", "--loops", "2", "--format", "csv"],
    ["scan", "--family", "k_cycle", "--n-max", "5", "--w-max", "3", "--format", "json"],
    ["scan", "--family", "s01", "--n-min", "2", "--n-max", "5", "--a-max", "2", "--b-max", "2"],
    ["scan", "--family", "cyclic_s", "--n-max", "7", "--max-weight", "2", "--format", "json"],
]


def test_outputs_match_golden_digest(capsys, tmp_path):
    digest = hashlib.sha256()

    def record(text):
        digest.update(text.encode("utf-8"))
        digest.update(b"\x00")

    for n, gens, weights in _cyclic_specs():
        for out in _analyze_outputs(CayleySpec.cyclic(n, gens, weights)):
            record(out)
    for n in range(1, 17):
        for out in _analyze_outputs(CayleySpec.dihedral(n)):
            record(out)
    for graph in _random_graphs():
        for out in _analyze_outputs(graph):
            record(out)

    rng = random.Random(0x5EED)
    path = tmp_path / "m.txt"
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        path.write_text(write_matrix(random_matrix(rng, rows, cols, bound=rng.choice((2, 9, 40)))))
        for extra in ([], ["--json"]):
            out = _cli_output(capsys, ["snf", "--in", str(path), *extra])
            record(out.replace(str(path), "FILE"))

    for argv in CLI_RUNS:
        record(_cli_output(capsys, argv))

    assert digest.hexdigest() == GOLDEN_SHA256


# Singular by the two-generator trichotomy (one per case, equal weights
# twice), so the large corpus always carries det = 0 and a free summand.
SINGULAR_LARGE = [
    (30, (1, 5), (1, 1)),
    (48, (1, 5), (1, 1)),
    (30, (2, 3), (2, 1)),
    (40, (3, 4), (1, 2)),
]


def _large_cyclic_specs():
    yield from SINGULAR_LARGE
    rng = random.Random(0xC7C1)
    for _ in range(100):
        n = rng.randint(25, 60)
        size = rng.randint(1, 3)
        low = 0 if rng.random() < 0.3 else 1
        gens = tuple(sorted(rng.sample(range(low, 9), size)))
        yield n, gens, tuple(rng.randint(1, 3) for _ in gens)


def test_large_cyclic_outputs_match_golden_digest():
    digest = hashlib.sha256()
    for n, gens, weights in _large_cyclic_specs():
        try:
            report = analyze(CayleySpec.cyclic(n, gens, weights))
        except ValueError as exc:
            out = f"{type(exc).__name__}: {exc}"
        else:
            out = report.to_json() + report.render_text()
        digest.update(out.encode("utf-8"))
        digest.update(b"\x00")
    assert digest.hexdigest() == GOLDEN_LARGE_SHA256
