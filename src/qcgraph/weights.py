"""Level-k admissibility, enumeration, the homology flip action, and orbits.

Weights are stored doubled (value = 2*j), so all arithmetic stays integral.
A WeightVector is a plain tuple of doubled integers in canonical edge order.

A cycle flips the weights on its support, x -> k - x, so it fixes a weight
exactly when its support lies inside fixed_edges(w, k), the edges at doubled
weight k/2; that mask is the one fixed-point test.

The state of one (graph, level, boundary) -- its weights, cycles, flip
permutations, fixed-edge masks, cycle decompositions and orbits -- lives on
one Instance, which instance() builds once and memoizes on the graph for
every caller to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import RangeError
from .f2 import F2Span, f2_reduce
from .graph import Graph

WeightVector = tuple[int, ...]


def _triple_ok(a: int, b: int, c: int, k: int) -> bool:
    """Quantum Clebsch-Gordan condition on a doubled triple."""
    s = a + b + c
    return s % 2 == 0 and abs(a - b) <= c <= a + b and s <= 2 * k


def _vertex_triples(graph: Graph) -> list[tuple[int, int, int]]:
    """Incident edge-index triples at trivalent vertices; loops repeated."""
    triples = []
    for v in graph.trivalent_vertices:
        inc = graph.incident_edges(v)
        assert len(inc) == 3
        triples.append(inc)
    return triples


def check_admissible(
    graph: Graph, k: int, w: WeightVector, boundary: dict[str, int]
) -> bool:
    """True iff w matches the boundary weights and every trivalent vertex
    satisfies the level-k condition."""
    if len(w) != graph.n_edges:
        raise RangeError(f"expected {graph.n_edges} entries, got {len(w)}")
    for x in w:
        if not 0 <= x <= k:
            raise RangeError(f"doubled weight {x} outside [0, {k}]")
    for v in graph.boundary_vertices:
        (i,) = set(graph.incident_edges(v))
        if w[i] != boundary[v]:
            return False
    for i1, i2, i3 in _vertex_triples(graph):
        if not _triple_ok(w[i1], w[i2], w[i3], k):
            return False
    return True


def enumerate_admissible(
    graph: Graph, k: int, boundary: dict[str, int]
) -> list[WeightVector]:
    """All admissible weights in lexicographic order.

    Backtracks over edges in canonical order with an explicit stack, so the
    depth is not bounded by the interpreter's recursion limit.  An edge that
    closes a trivalent vertex (the vertex's highest edge index) takes its
    values straight from the triple rule; any further vertex it closes is
    checked.  The raw product filter (enumerate_admissible_bruteforce) is
    kept as the test oracle.
    """
    n = graph.n_edges
    if n == 0:
        return [()]
    for v, x in boundary.items():
        if not 0 <= x <= k:
            raise RangeError(f"boundary weight {x} outside [0, {k}]")
    fixed: dict[int, int] = {}
    for v in graph.boundary_vertices:
        (i,) = set(graph.incident_edges(v))
        if i in fixed and fixed[i] != boundary[v]:
            return []  # single edge with two univalent ends, conflicting labels
        fixed[i] = boundary[v]
    # vertex checks fire at the highest edge index they involve
    checks_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for t in _vertex_triples(graph):
        checks_at[max(t)].append(t)
    steps = [_edge_step(i, fixed.get(i), checks_at[i]) for i in range(n)]
    free = range(k + 1)
    twice_k = 2 * k

    def values(i: int):
        kind, p, q, _ = steps[i]
        if kind == _CLOSE:
            a, b = w[p], w[q]
            return range(abs(a - b), min(a + b, twice_k - a - b) + 1, 2)
        if kind == _CLOSE_LOOP:
            c = w[p]
            return () if c % 2 else range(c // 2, k - c // 2 + 1)
        if kind == _FIXED:
            return (p,)
        return free

    out: list[WeightVector] = []
    w = [0] * n
    last = n - 1
    stack = [iter(values(0))]
    while stack:
        i = len(stack) - 1
        checks = steps[i][3]
        for x in stack[i]:
            w[i] = x
            if checks and not all(
                _triple_ok(w[a], w[b], w[c], k) for a, b, c in checks
            ):
                continue
            if i == last:
                out.append(tuple(w))
            else:
                stack.append(iter(values(i + 1)))
                break
        else:
            stack.pop()
    return out


# how an edge's candidate values are produced during enumeration
_FREE, _FIXED, _CLOSE, _CLOSE_LOOP = range(4)


def _edge_step(i: int, fixed, checks: list[tuple[int, int, int]]):
    """(kind, p, q, vertex checks left to run) for edge i.

    _FIXED takes the boundary value p.  _CLOSE derives the values of edge i
    from the lower edges p, q of a vertex it closes, by the triple rule
    |a-b| <= c <= min(a+b, 2k-a-b) with c = a+b mod 2.  _CLOSE_LOOP covers
    a loop i whose third edge p is lower: w[p] must be even and
    w[p]/2 <= x <= k - w[p]/2.
    """
    if fixed is not None:
        return _FIXED, fixed, None, tuple(checks)
    if not checks:
        return _FREE, None, None, ()
    first, rest = checks[0], tuple(checks[1:])
    others = [e for e in first if e != i]
    if len(others) == 1:
        return _CLOSE_LOOP, others[0], None, rest
    return _CLOSE, others[0], others[1], rest


def enumerate_admissible_bruteforce(
    graph: Graph, k: int, boundary: dict[str, int]
) -> list[WeightVector]:
    """Raw product filter; oracle for enumerate_admissible."""
    return [
        w
        for w in product(range(k + 1), repeat=graph.n_edges)
        if check_admissible(graph, k, w, boundary)
    ]


def act(cycle: int, w: WeightVector, k: int) -> WeightVector:
    """Flip doubled[l] -> k - doubled[l] on the support of the cycle."""
    return tuple(k - x if cycle >> i & 1 else x for i, x in enumerate(w))


def fixed_edges(w: WeightVector, k: int) -> int:
    """Edges at doubled weight k/2: a cycle fixes w iff
    cycle & ~fixed_edges(w, k) == 0."""
    return sum(1 << i for i, x in enumerate(w) if 2 * x == k)


@dataclass(frozen=True)
class Orbit:
    """An H1-orbit of admissible weights with its stabilizer subgroup."""

    representative: WeightVector  # lexicographic minimum
    members: frozenset[WeightVector]
    stabilizer_basis: tuple[int, ...]

    @property
    def stabilizer(self) -> list[int]:
        elems = {0}
        for b in self.stabilizer_basis:
            elems |= {e ^ b for e in elems}
        return sorted(elems)

    @property
    def stabilizer_dim(self) -> int:
        return len(self.stabilizer_basis)


@dataclass(frozen=True)
class Instance:
    """The admissible weights of one (graph, level, boundary) with the H1
    flip action on them; k and boundary are the instance's own copies.

    perms[i][j] is the index of act(basis[i], weights[j], k), and a cycle
    acts as the composition of its basis elements' permutations, listed in
    steps.  fixed[j] is fixed_edges(weights[j], k).  index, perms, fixed,
    steps and orbits are built on first use.  There is no reference back to
    the graph, so a graph memoizing it is freed by refcounting.
    """

    k: int
    boundary: dict[str, int]
    weights: tuple[WeightVector, ...]
    basis: tuple[int, ...]
    cycles: tuple[int, ...]  # all of H1, ascending

    @cached_property
    def index(self) -> dict[WeightVector, int]:
        return {w: i for i, w in enumerate(self.weights)}

    @cached_property
    def perms(self) -> tuple[tuple[int, ...], ...]:
        index, k = self.index, self.k
        return tuple(
            tuple(index[act(b, w, k)] for w in self.weights) for b in self.basis
        )

    @cached_property
    def fixed(self) -> tuple[int, ...]:
        k = self.k
        return tuple(fixed_edges(w, k) for w in self.weights)

    @cached_property
    def steps(self) -> dict[int, tuple[int, ...]]:
        """Each cycle's basis decomposition, as ascending basis indices."""
        span, indices = F2Span(self.basis), range(len(self.basis))
        out = {}
        for lam in self.cycles:
            combo = span.solve(lam)
            out[lam] = tuple(i for i in indices if combo >> i & 1)
        return out

    @cached_property
    def orbits(self) -> tuple[Orbit, ...]:
        """The homology orbits, ordered by representative."""
        k, cycles = self.k, self.cycles
        seen: set[WeightVector] = set()
        out: list[Orbit] = []
        for w in self.weights:
            if w in seen:
                continue
            members = {act(lam, w, k) for lam in cycles}
            seen |= members
            rep = min(members)
            fixed = fixed_edges(rep, k)
            stab = f2_reduce([lam for lam in cycles if not lam & ~fixed])
            out.append(Orbit(rep, frozenset(members), tuple(stab)))
        return tuple(out)


def instance(graph: Graph, k: int, boundary: dict[str, int]) -> Instance:
    """The Instance of (graph, k, boundary), memoized on the graph once the
    enumeration has accepted the boundary."""
    key = (k, frozenset(boundary.items()))
    inst = graph._instances.get(key)
    if inst is None:
        weights = tuple(enumerate_admissible(graph, k, boundary))
        basis, cycles = tuple(graph.cycle_basis()), tuple(graph.all_cycles())
        inst = Instance(k, dict(boundary), weights, basis, cycles)
        graph._instances[key] = inst
    return inst


def orbits(graph: Graph, k: int, boundary: dict[str, int]) -> list[Orbit]:
    """Partition of the admissible set into homology orbits, ordered by
    representative."""
    return list(instance(graph, k, boundary).orbits)
