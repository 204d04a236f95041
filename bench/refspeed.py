"""Reference kernel: scales measured times to one fixed machine speed.

The benchmark shares its machine, whose speed drifts by a quarter or more
over minutes as other work comes and goes.  ``probe`` times a fixed piece of
pure-Python work of the kind the library does (fraction-free elimination,
a row reduction with a tracked transform and growing entries, a graph walk
with sorting) that lives here, not in the library, so no change to the
library moves it.  ``Scaler`` runs the probe between ops, outside their
timers, and multiplies each op's time by ``REFERENCE_S / probe time``
measured around it: the result is the op's time on a machine on which one
probe takes ``REFERENCE_S``.  A change that makes the library slower makes
its ops slower relative to the probe and shows; a change of machine speed
moves both and does not.
"""

from __future__ import annotations

import random
import statistics
import time

# Median probe time on the 2-core x86-64 VM the bounds were set on
# (CPython 3.11), so scaled times read about as wall times there.
REFERENCE_S = 1.45e-3
PROBE_EVERY_S = 0.02  # one probe per this much op time: about 8% extra wall time
BLOCK_S = 1.0  # ops are scaled in blocks of at least this much op time

_rng = random.Random(12345)
_ELIM = [[_rng.randint(-4, 4) for _ in range(14)] for _ in range(14)]
_REDUCE = [[_rng.randint(-9, 9) for _ in range(10)] for _ in range(10)]
_GRAPH = {v: [(7 * v + 3) % 300, (13 * v + 1) % 300, (v + 1) % 300] for v in range(300)}


def _bareiss(m):
    a = [row[:] for row in m]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
        akk, ak = a[k][k], a[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * akk - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return a[n - 1][n - 1]


def _row_reduce(m):
    """Euclidean row reduction to triangular form, carrying the left transform."""
    a = [row[:] for row in m]
    n = len(a)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(k + 1, n):
            while a[i][k]:
                q = a[k][k] // a[i][k]
                a[k] = [x - q * y for x, y in zip(a[k], a[i])]
                u[k] = [x - q * y for x, y in zip(u[k], u[i])]
                a[k], a[i] = a[i], a[k]
                u[k], u[i] = u[i], u[k]
    return a[n - 1][n - 1]


def _walk(graph):
    seen, stack, edges = {0}, [0], []
    while stack:
        v = stack.pop()
        for w in graph[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
                edges.append((v, w))
    edges.sort(key=lambda e: (e[1], e[0]))
    return len(edges)


def probe() -> float:
    """Wall seconds for one pass of the reference kernel."""
    start = time.perf_counter()
    _bareiss(_ELIM)
    _row_reduce(_REDUCE)
    _walk(_GRAPH)
    return time.perf_counter() - start


def factor(seconds: float = 0.1) -> float:
    """``REFERENCE_S`` over the median probe time of ``seconds`` of probing."""
    times = []
    end = time.perf_counter() + seconds
    while not times or time.perf_counter() < end:
        times.append(probe())
    return REFERENCE_S / statistics.median(times)


class Scaler:
    """Scales a stream of op times, in blocks, by the probes taken among them."""

    def __init__(self):
        self.scaled: list[float] = []
        self._block: list[float] = []
        self._block_s = 0.0
        self._probes: list[float] = []
        self._owed = 0.0

    def add(self, seconds: float):
        """Record one op's wall time; probes as often as the op time asks."""
        self._block.append(seconds)
        self._block_s += seconds
        self._owed += seconds
        while self._owed >= PROBE_EVERY_S:
            self._probes.append(probe())
            self._owed -= PROBE_EVERY_S
        if self._block_s >= BLOCK_S:
            self.close()

    def close(self):
        """Scale the open block; call once more when the stream ends."""
        if not self._block:
            return
        if not self._probes:
            self._probes.append(probe())
        f = REFERENCE_S / statistics.median(self._probes)
        self.scaled.extend(s * f for s in self._block)
        self._block, self._block_s, self._probes = [], 0.0, []
