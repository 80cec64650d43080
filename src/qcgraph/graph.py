"""Immutable unitrivalent multigraphs, their F2 cycle space, and cutting.

Cycles are plain int bitmasks over the canonical edge index (order of
appearance in the edge list), which makes the F2 vector space structure just
xor.  Other edge sets are bitmasks too: cycle_edges gives the edges external
and internal to a cycle as one mask each, and support_edge_ids turns a mask
into edge ids.  Loops and parallel edges are first-class: a loop contributes
2 to its vertex's degree and 2 to the local count of cycle-support endpoints.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BoundaryMismatch,
    CutLeafEdge,
    DegreeError,
    UnknownEdge,
    ZeroCycle,
)

Edge = tuple[str, str, str]  # (edge-id, endpoint-a, endpoint-b)


@dataclass(frozen=True)
class Graph:
    """A validated unitrivalent multigraph with labeled boundary vertices.

    The vertex list, the incidence map and the trivalent vertices are built
    once in __post_init__; the cycle basis is computed on first use.
    _instances memoizes the weights.Instance of each (level, boundary), and
    _cycle_edges the cycle_edges masks of each cycle.
    """

    edges: tuple[Edge, ...]
    boundary_vertices: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    _vertices: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _incidence: dict[str, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    _trivalent: tuple[str, ...] = field(init=False, repr=False, compare=False)
    _basis: Optional[tuple[int, ...]] = field(
        init=False, repr=False, compare=False, default=None
    )
    _instances: dict = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    _cycle_edges: dict[int, tuple[int, int]] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )

    def __post_init__(self):
        index: dict[str, int] = {}
        incidence: dict[str, list[int]] = {}
        for i, (eid, a, b) in enumerate(self.edges):
            index[eid] = i
            incidence.setdefault(a, []).append(i)
            incidence.setdefault(b, []).append(i)  # a loop is listed twice
        for v in self.boundary_vertices:
            incidence.setdefault(v, [])
        inc = {v: tuple(ids) for v, ids in incidence.items()}
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_vertices", tuple(inc))
        object.__setattr__(self, "_incidence", inc)
        object.__setattr__(
            self, "_trivalent", tuple(v for v, ids in inc.items() if len(ids) == 3)
        )

    # -- basic accessors -------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _, _ in self.edges)

    def edge_index(self, eid: str) -> int:
        return self._index[eid]

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    def degree(self, v: str) -> int:
        return len(self._incidence.get(v, ()))

    def incident_edges(self, v: str) -> tuple[int, ...]:
        """Canonical indices of edges at v; a loop appears twice."""
        return self._incidence.get(v, ())

    @property
    def trivalent_vertices(self) -> tuple[str, ...]:
        return self._trivalent

    # -- components and genus --------------------------------------------

    def components(self, drop: int = 0) -> list[set[str]]:
        """Connected components as vertex sets (isolated vertices included),
        ignoring the edges in the mask drop, in order of first vertex."""
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for i, (_, a, b) in enumerate(self.edges):
            if not drop >> i & 1:
                adj[a].add(b)
                adj[b].add(a)
        comps: list[set[str]] = []
        seen: set[str] = set()
        for v in self.vertices:
            if v in seen:
                continue
            comp = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for w in adj[u]:
                    if w not in comp:
                        comp.add(w)
                        stack.append(w)
            seen |= comp
            comps.append(comp)
        return comps

    @property
    def genus(self) -> int:
        """First Betti number: E - V + #components."""
        return self.n_edges - len(self.vertices) + len(self.components())

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def subgraph(self, vertices: set[str]) -> Graph:
        """The edges with an endpoint in vertices and the boundary vertices
        that end them, in this graph's order; a union of components carves
        out exactly those components."""
        edges = tuple(e for e in self.edges if e[1] in vertices or e[2] in vertices)
        ends = {v for _, a, b in edges for v in (a, b)}
        bdry = tuple(v for v in self.boundary_vertices if v in ends)
        return Graph(edges, bdry)

    # -- cycle space -----------------------------------------------------

    def cycle_basis(self) -> list[int]:
        """Fundamental cycles of the spanning forest grown in ascending
        canonical edge order, as bitmasks."""
        if self._basis is None:
            # path[v] masks the forest path from v to its tree's root, and
            # tree[v] is the member list of v's tree, shared by its members
            path = {v: 0 for v in self.vertices}
            tree = {v: [v] for v in self.vertices}
            basis = []
            for i, (_, a, b) in enumerate(self.edges):
                if tree[a] is tree[b]:
                    basis.append(1 << i | path[a] ^ path[b])
                    continue
                if len(tree[a]) > len(tree[b]):
                    a, b = b, a
                # hang a's tree below b through edge i: the new root path
                # of each member leaves through a, crosses i and follows b's
                delta = 1 << i | path[a] ^ path[b]
                members = tree[a]
                for v in members:
                    path[v] ^= delta
                    tree[v] = tree[b]
                tree[b] += members
            object.__setattr__(self, "_basis", tuple(basis))
        return list(self._basis)

    def all_cycles(self) -> list[int]:
        """All 2^g elements of H1, sorted ascending as bitmasks."""
        elems = {0}
        for b in self.cycle_basis():
            elems |= {e ^ b for e in elems}
        return sorted(elems)

    def support_edge_ids(self, mask: int) -> list[str]:
        return [eid for i, (eid, _, _) in enumerate(self.edges) if mask >> i & 1]

    # -- edge classification ---------------------------------------------

    def cycle_edges(self, cycle: int) -> tuple[int, int]:
        """(external, internal) edge masks of a nonzero cycle: the edges off
        its support with one, resp. both, endpoints on a support edge.  A
        leg is never internal: its univalent end is off every cycle."""
        if cycle == 0:
            raise ZeroCycle("edge classification is undefined for the zero cycle")
        if cycle in self._cycle_edges:
            return self._cycle_edges[cycle]
        edges = self.edges
        on = {v for i, (_, a, b) in enumerate(edges) if cycle >> i & 1 for v in (a, b)}
        external = internal = 0
        for i, (_, a, b) in enumerate(edges):
            if not cycle >> i & 1:
                ends = (a in on) + (b in on)
                if ends == 2:
                    internal |= 1 << i
                elif ends:
                    external |= 1 << i
        self._cycle_edges[cycle] = external, internal
        return external, internal

    def cuttable_edges(self) -> list[str]:
        """Edges with both endpoints trivalent (cuttable in a decomposition)."""
        out = []
        for eid, a, b in self.edges:
            if self.degree(a) == 3 and self.degree(b) == 3:
                out.append(eid)
        return out


def validate_graph(
    edges: Sequence[tuple[str, str, str]], boundary: Sequence[str]
) -> Graph:
    """Check degrees and boundary declarations, returning an immutable Graph."""
    ids = [e[0] for e in edges]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate edge ids in {ids}")
    g = Graph(tuple(edges), tuple(boundary))
    declared = set(boundary)
    if len(declared) != len(boundary):
        raise BoundaryMismatch("duplicate boundary vertex")
    for v in g.vertices:
        d = g.degree(v)
        if d not in (1, 3):
            raise DegreeError(f"vertex {v!r} has degree {d}")
        if d == 1 and v not in declared:
            raise BoundaryMismatch(f"degree-1 vertex {v!r} not declared as boundary")
        if d == 3 and v in declared:
            raise BoundaryMismatch(f"boundary vertex {v!r} has degree 3")
    for v in declared:
        if v not in g.vertices:
            raise BoundaryMismatch(f"boundary vertex {v!r} not in graph")
    _check_counts(g)
    return g


def _check_counts(g: Graph) -> None:
    # E = 3g-3+2n and T = 2g-2+n hold for connected unitrivalent graphs;
    # warn instead of failing so degenerate glue products stay usable
    for comp in g.components():
        edges = [
            i for i, (_, a, b) in enumerate(g.edges) if a in comp or b in comp
        ]
        verts = comp
        n = sum(1 for v in verts if g.degree(v) == 1)
        t = sum(1 for v in verts if g.degree(v) == 3)
        gc = len(edges) - len(verts) + 1
        if len(edges) != 3 * gc - 3 + 2 * n or t != 2 * gc - 2 + n:
            warnings.warn(
                f"edge/vertex count identity fails on component {sorted(verts)}",
                stacklevel=3,
            )


# -- text format ----------------------------------------------------------


def parse_graph(text: str) -> tuple[Graph, dict[str, int]]:
    """Parse the line-oriented graph format.

    ``edge <id> <a> <b>`` declares an edge (order of appearance fixes the
    canonical index); ``boundary <vertex> <doubled-weight>`` declares a
    univalent vertex and its doubled boundary weight.
    """
    edges: list[Edge] = []
    boundary: list[str] = []
    weights: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "edge" and len(parts) == 4:
            edges.append((parts[1], parts[2], parts[3]))
        elif parts[0] == "boundary" and len(parts) == 3:
            boundary.append(parts[1])
            weights[parts[1]] = int(parts[2])
        else:
            raise ValueError(f"bad graph line: {raw!r}")
    return validate_graph(edges, boundary), weights


# -- cutting --------------------------------------------------------------


@dataclass(frozen=True)
class CutResult:
    """Outcome of cutting a set of internal edges.

    Each cut edge ``f`` with endpoints (a, b) is replaced by two legs
    ``f:1`` at a and ``f:2`` at b, ending at fresh univalent vertices
    ``f:w1`` and ``f:w2``.  ``pairing`` records, per cut edge, the two new
    boundary vertices so weights can later be assigned consistently.
    """

    graph: Graph  # the whole cut graph (possibly disconnected)
    cut: tuple[str, ...]  # cut edge ids in canonical order
    pairing: dict[str, tuple[str, str]]  # origin edge -> (new vertex, new vertex)

    def component_subgraphs(self) -> list[Graph]:
        return [self.graph.subgraph(comp) for comp in self.graph.components()]


def cut_edges(g: Graph, cut: Iterable[str], allow_leaf: bool = False) -> CutResult:
    """Cut the given edges, replacing each by a paired pair of legs.

    Cutting an edge at a univalent vertex leaves a degenerate single-edge
    component and is refused unless allow_leaf is set (cycle isolation
    needs it for external leg edges).
    """
    cut_set = set(cut)
    ordered = tuple(eid for eid in g.edge_ids if eid in cut_set)
    unknown = cut_set - set(g.edge_ids)
    if unknown:
        raise UnknownEdge(f"unknown edges: {sorted(unknown)}")
    new_edges: list[Edge] = []
    new_boundary = list(g.boundary_vertices)
    pairing: dict[str, tuple[str, str]] = {}
    for eid, a, b in g.edges:
        if eid not in cut_set:
            new_edges.append((eid, a, b))
            continue
        if not allow_leaf and (g.degree(a) == 1 or g.degree(b) == 1):
            raise CutLeafEdge(f"edge {eid!r} is incident to a univalent vertex")
        wa, wb = f"{eid}:w1", f"{eid}:w2"
        new_edges.append((f"{eid}:1", a, wa))
        new_edges.append((f"{eid}:2", b, wb))
        new_boundary += [wa, wb]
        pairing[eid] = (wa, wb)
    return CutResult(Graph(tuple(new_edges), tuple(new_boundary)), ordered, pairing)


def isolate_cycle(g: Graph, cycle: int) -> tuple[list[Graph], list[Graph], CutResult]:
    """Cut all cycle-external and cycle-internal edges.

    Returns (components containing support edges, remaining components,
    the underlying CutResult).
    """
    if cycle == 0:
        raise ZeroCycle("cannot isolate the zero cycle")
    external, internal = g.cycle_edges(cycle)
    res = cut_edges(g, g.support_edge_ids(external | internal), allow_leaf=True)
    support = set(g.support_edge_ids(cycle))
    with_cycle, without = [], []
    for sub in res.component_subgraphs():
        if support & set(sub.edge_ids):
            with_cycle.append(sub)
        else:
            without.append(sub)
    return with_cycle, without, res


def recognize_gamma_n(g: Graph) -> Optional[tuple[int, int]]:
    """Return (n, generator cycle) when g is connected with Betti number 1."""
    if g.n_edges == 0 or not g.is_connected() or g.genus != 1:
        return None
    basis = g.cycle_basis()
    return len(g.boundary_vertices), basis[0]

