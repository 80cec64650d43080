"""Seeded inputs and independent oracles for the benchmark.

Nothing here imports qcgraph: the graphs are plain edge lists, and every
expected answer is computed by code that shares nothing with the library
path being timed.

- ``random_graph`` draws a connected unitrivalent multigraph of a given
  genus and leg count from a seeded random pairing of half-edges.
- ``verlinde_count`` is the S-matrix (Verlinde) dimension formula in floats.
- ``WeightOracle`` enumerates admissible weights by its own backtracking and
  derives stabilizer dimensions, orbit counts and the structure-theorem
  class count from the subgraph where the weight equals k/2.
- ``SignClassifier`` gives the per-orbit stabilizer character of a
  sign-valued cocycle table, evaluated by its own twisted product rule.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Edge = tuple[str, str, str]


@dataclass(frozen=True)
class GraphSpec:
    """A unitrivalent graph as the benchmark sees it: edges in canonical
    order and the doubled boundary label of each univalent vertex."""

    edges: tuple[Edge, ...]
    boundary: tuple[tuple[str, int], ...]  # (vertex, doubled label)

    @property
    def labels(self) -> dict[str, int]:
        return dict(self.boundary)

    @property
    def genus(self) -> int:
        verts = {v for _, a, b in self.edges for v in (a, b)}
        return len(self.edges) - len(verts) + 1

    def text(self) -> str:
        """The graph in qcgraph's line-oriented text format."""
        lines = [f"edge {eid} {a} {b}" for eid, a, b in self.edges]
        lines += [f"boundary {v} {x}" for v, x in self.boundary]
        return "\n".join(lines) + "\n"


def _bfs_order(
    pairs: list[tuple[str, str]], rng: random.Random
) -> list[tuple[str, str]] | None:
    """The edges grouped by vertex in breadth-first order from a random
    trivalent vertex, each vertex listing its not yet listed edges in random
    order; None if the graph is disconnected.  Every vertex then has all of
    its edges among the first few positions after it is reached, the order a
    person writing the graph down would use; a uniformly shuffled order can
    make backtracking enumeration thousands of times slower."""
    incident: dict[str, list[int]] = {}
    for i, (a, b) in enumerate(pairs):
        incident.setdefault(a, []).append(i)
        if b != a:
            incident.setdefault(b, []).append(i)
    start = rng.choice(sorted(v for v, es in incident.items() if v[0] == "t"))
    queue, seen, listed, order = [start], {start}, set(), []
    for v in queue:
        es = [i for i in incident[v] if i not in listed]
        rng.shuffle(es)
        for i in es:
            listed.add(i)
            order.append(pairs[i])
            for u in pairs[i]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
    return order if len(order) == len(pairs) else None


def random_graph(genus: int, legs: int, rng: random.Random) -> list[Edge]:
    """A connected unitrivalent multigraph with the given first Betti number
    and number of univalent vertices, from a seeded random pairing of
    half-edges, with its edges in breadth-first order.  Loops and parallel
    edges are allowed, as in the library."""
    trivalent = 2 * genus - 2 + legs
    if trivalent < 1:
        raise ValueError(f"no connected unitrivalent graph with genus {genus}, {legs} legs")
    tag = f"{rng.randrange(36**4):04x}"
    halves = [f"t{tag}{i}" for i in range(trivalent) for _ in range(3)]
    halves += [f"w{tag}{i}" for i in range(legs)]
    while True:
        rng.shuffle(halves)
        pairs = [(halves[i], halves[i + 1]) for i in range(0, len(halves), 2)]
        if any(a[0] == "w" and b[0] == "w" for a, b in pairs):
            continue
        order = _bfs_order(pairs, rng)
        if order is not None:
            return [(f"e{tag}{i}", a, b) for i, (a, b) in enumerate(order)]


def verlinde_count(genus: int, labels: list[int], k: int) -> int:
    """Number of level-k admissible weights on any connected unitrivalent
    graph of this genus whose legs carry the given doubled labels, from the
    SU(2)_k S-matrix: sum over l of (r/2)^(g-1) sin(pi l/r)^(2-2g-n)
    prod_i sin(pi (b_i+1) l/r), with r = k + 2."""
    r = k + 2
    total = 0.0
    for lam in range(1, r):
        term = (r / 2.0) ** (genus - 1) * math.sin(math.pi * lam / r) ** (
            2 - 2 * genus - len(labels)
        )
        for b in labels:
            term *= math.sin(math.pi * (b + 1) * lam / r)
        total += term
    return round(total)


class WeightOracle:
    """Admissible weights and their flip-action structure, computed
    independently of qcgraph."""

    def __init__(self, spec: GraphSpec, k: int):
        self.k = k
        self.edges = spec.edges
        n = len(self.edges)
        inc: dict[str, list[int]] = {}
        for i, (_, a, b) in enumerate(self.edges):
            inc.setdefault(a, []).append(i)
            inc.setdefault(b, []).append(i)
        labels = spec.labels
        self.fixed = {inc[v][0]: x for v, x in labels.items()}
        # each trivalent vertex is checked once its last edge is assigned
        self.checks: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for v, es in inc.items():
            if len(es) == 3:
                self.checks[max(es)].append(tuple(es))
        self.genus = spec.genus
        self.cycles = self._all_cycles()

    def weights(self) -> list[tuple[int, ...]]:
        """All admissible doubled weights, lexicographically ordered."""
        k, n = self.k, len(self.edges)
        out: list[tuple[int, ...]] = []
        w = [0] * n
        choices = [
            (self.fixed[i],) if i in self.fixed else tuple(range(k + 1))
            for i in range(n)
        ]
        # explicit stack of (edge index, position in its choice list)
        i, pos = 0, [0] * (n + 1)
        while i >= 0:
            if i == n:
                out.append(tuple(w))
                i -= 1
                continue
            if pos[i] == len(choices[i]):
                pos[i] = 0
                i -= 1
                continue
            w[i] = choices[i][pos[i]]
            pos[i] += 1
            ok = True
            for a, b, c in self.checks[i]:
                x, y, z = w[a], w[b], w[c]
                if (x + y + z) % 2 or z > x + y or z < abs(x - y) or x + y + z > 2 * k:
                    ok = False
                    break
            if ok:
                i += 1
        return out

    def _all_cycles(self) -> list[int]:
        """All elements of the Z2 cycle space as edge bitmasks, from the
        fundamental cycles of a union-find spanning forest."""
        parent: dict[str, str] = {}

        def find(v: str) -> str:
            while parent.setdefault(v, v) != v:
                v = parent[v]
            return v

        tree: list[int] = []
        extra: list[int] = []
        for i, (_, a, b) in enumerate(self.edges):
            ra, rb = find(a), find(b)
            if ra == rb:
                extra.append(i)
            else:
                parent[ra] = rb
                tree.append(i)
        basis = [self._tree_cycle(tree, i) for i in extra]
        elems = {0}
        for c in basis:
            elems |= {e ^ c for e in elems}
        return sorted(elems)

    def _tree_cycle(self, tree: list[int], closing: int) -> int:
        """Bitmask of the unique cycle formed by a non-tree edge and the
        tree: repeatedly strip edges with an endpoint of degree one."""
        mask = 1 << closing
        for i in tree:
            mask |= 1 << i
        while True:
            deg: dict[str, int] = {}
            for i, (_, a, b) in enumerate(self.edges):
                if mask >> i & 1:
                    deg[a] = deg.get(a, 0) + 1
                    deg[b] = deg.get(b, 0) + 1
            leaf = [
                i
                for i, (_, a, b) in enumerate(self.edges)
                if mask >> i & 1 and (deg[a] == 1 or deg[b] == 1)
            ]
            if not leaf:
                return mask
            for i in leaf:
                mask &= ~(1 << i)

    def flip(self, cycle: int, w: tuple[int, ...]) -> tuple[int, ...]:
        k = self.k
        return tuple(k - x if cycle >> i & 1 else x for i, x in enumerate(w))

    def stabilizer_dim(self, w: tuple[int, ...]) -> int:
        """Dimension of the cycle space of the subgraph of edges carrying
        weight k/2; these cycles are exactly the ones fixing w."""
        half = [i for i, x in enumerate(w) if 2 * x == self.k]
        parent: dict[str, str] = {}

        def find(v: str) -> str:
            while parent.setdefault(v, v) != v:
                v = parent[v]
            return v

        dim = 0
        for i in half:
            _, a, b = self.edges[i]
            ra, rb = find(a), find(b)
            if ra == rb:
                dim += 1
            else:
                parent[ra] = rb
        return dim


@dataclass(frozen=True)
class CensusAnswer:
    """Expected census figures for one (graph, level, boundary) triple."""

    oracle: WeightOracle
    weights: list[tuple[int, ...]]
    verlinde: int
    orbit_count: int
    class_log2: int  # log2 of the structure-theorem class count
    stab_dim: dict[tuple[int, ...], int]


def census_answer(spec: GraphSpec, k: int) -> CensusAnswer:
    oracle = WeightOracle(spec, k)
    ws = oracle.weights()
    dims = {w: oracle.stabilizer_dim(w) for w in ws}
    g = oracle.genus
    # each orbit has 2^(g - d) members, all with stabilizer dimension d
    orbit_sum = sum(1 << d for d in dims.values())
    class_sum = sum(d << d for d in dims.values())
    assert orbit_sum % (1 << g) == 0 and class_sum % (1 << g) == 0
    labels = [x for _, x in spec.boundary]
    return CensusAnswer(
        oracle,
        ws,
        verlinde_count(g, labels, k),
        orbit_sum >> g,
        class_sum >> g,
        dims,
    )


class SignClassifier:
    """Cohomology class of sign-valued cocycle tables on one instance: the
    per-orbit stabilizer character, keyed by orbit representative.  A table
    entry is -1 when its exponent is 1/2.  The value on a stabilizer cycle
    follows the twisted product rule along the cycle's decomposition in the
    table's basis, found here by elimination over the basis."""

    def __init__(self, oracle: WeightOracle, basis: tuple[int, ...]):
        self.oracle, self.basis = oracle, basis
        rows: list[tuple[int, int]] = []  # reduced echelon, with combos
        for idx, b in enumerate(basis):
            v, combo = b, 1 << idx
            for rv, rc in rows:
                if v & (rv & -rv):
                    v, combo = v ^ rv, combo ^ rc
            if v:
                piv = v & -v
                rows = [(rv ^ v, rc ^ combo) if rv & piv else (rv, rc) for rv, rc in rows]
                rows.append((v, combo))
        self.rows = rows
        self.orbits: list[tuple[tuple[int, ...], list[int]]] = []
        seen: set[tuple[int, ...]] = set()
        for w in oracle.weights():
            if w in seen:
                continue
            orbit = {oracle.flip(c, w) for c in oracle.cycles}
            seen |= orbit
            rep = min(orbit)
            stab = [c for c in oracle.cycles if c and oracle.flip(c, rep) == rep]
            self.orbits.append((rep, stab))

    def _combo(self, cycle: int) -> int:
        v, combo = cycle, 0
        for rv, rc in self.rows:
            if v & (rv & -rv):
                v, combo = v ^ rv, combo ^ rc
        if v:
            raise ValueError(f"cycle {cycle:b} outside the span of the basis")
        return combo

    def invariant(self, table: dict) -> tuple:
        minus = {key for key, v in table.items() if v.exponent.denominator == 2}
        out = []
        for rep, stab in self.orbits:
            signs = []
            for cycle in stab:
                combo, sign, cur = self._combo(cycle), 0, rep
                for idx, b in enumerate(self.basis):
                    if combo >> idx & 1:
                        sign ^= (b, cur) in minus
                        cur = self.oracle.flip(b, cur)
                signs.append(sign)
            out.append((rep, tuple(signs)))
        return tuple(out)
