"""Shared graph constructions and graph helpers for the test suite."""

from __future__ import annotations

import random

from typing import Iterable, Optional

from qcgraph.graph import CutResult, Edge, Graph, validate_graph


def tree3() -> Graph:
    return validate_graph(
        [("f1", "v", "w1"), ("f2", "v", "w2"), ("f3", "v", "w3")],
        ["w1", "w2", "w3"],
    )


def gamma1() -> Graph:
    """One leg and one loop: the smallest Betti-1 graph."""
    return validate_graph([("f1", "v", "w1"), ("f2", "v", "v")], ["w1"])


def gamma2() -> Graph:
    """Two legs on a 2-gon circuit."""
    return validate_graph(
        [
            ("f1", "v1", "w1"),
            ("f2", "v2", "w2"),
            ("c1", "v1", "v2"),
            ("c2", "v1", "v2"),
        ],
        ["w1", "w2"],
    )


def gamma3() -> Graph:
    """Three legs on a triangle circuit."""
    return validate_graph(
        [
            ("f1", "v1", "w1"),
            ("f2", "v2", "w2"),
            ("f3", "v3", "w3"),
            ("c1", "v1", "v2"),
            ("c2", "v2", "v3"),
            ("c3", "v3", "v1"),
        ],
        ["w1", "w2", "w3"],
    )


def theta() -> Graph:
    return validate_graph(
        [("e1", "v1", "v2"), ("e2", "v1", "v2"), ("e3", "v1", "v2")], []
    )


def dumbbell() -> Graph:
    return validate_graph(
        [("a", "u", "u"), ("b", "v", "v"), ("c", "u", "v")], []
    )


def genus3_handle() -> Graph:
    """Theta with one edge replaced by a handle: closed genus 3."""
    return validate_graph(
        [
            ("e1", "v1", "v2"),
            ("e2", "v1", "v2"),
            ("h1", "v1", "u1"),
            ("h2", "u1", "u2"),
            ("h3", "u1", "u2"),
            ("h4", "u2", "v2"),
        ],
        [],
    )


def genus3_chain() -> Graph:
    """Genus-3 chain of three 2-gons with two legs; 10 edges."""
    return validate_graph(
        [
            ("f1", "w1", "v1"),
            ("f2", "w2", "v6"),
            ("f3", "v1", "v2"),
            ("f4", "v1", "v2"),
            ("f5", "v2", "v3"),
            ("f6", "v3", "v4"),
            ("f7", "v3", "v4"),
            ("f8", "v4", "v5"),
            ("f9", "v5", "v6"),
            ("f10", "v5", "v6"),
        ],
        ["w1", "w2"],
    )


def random_unitrivalent(genus: int, legs: int, rng: random.Random) -> Graph:
    """A random unitrivalent multigraph with 2g-2+n trivalent vertices and
    n legs, from a uniform pairing of half-edges: loops, parallel edges and
    several components all occur.  Edge ids and edge order are random."""
    trivalent = 2 * genus - 2 + legs
    halves = [f"v{i}" for i in range(trivalent) for _ in range(3)]
    halves += [f"w{i}" for i in range(legs)]
    rng.shuffle(halves)
    ids = rng.sample(range(10 * len(halves) + 10), len(halves) // 2)
    edges = [
        (f"e{ids[j]}", halves[2 * j], halves[2 * j + 1])
        for j in range(len(halves) // 2)
    ]
    return validate_graph(edges, [f"w{i}" for i in range(legs)])


def zero_boundary(g: Graph) -> dict[str, int]:
    return {v: 0 for v in g.boundary_vertices}


SUITE = {
    "tree3": tree3,
    "gamma1": gamma1,
    "gamma2": gamma2,
    "gamma3": gamma3,
    "theta": theta,
    "dumbbell": dumbbell,
    "genus3_handle": genus3_handle,
    "genus3_chain": genus3_chain,
}

GAMMA_N = {"gamma1": 1, "gamma2": 2, "gamma3": 3}


def suite_instances(levels=range(1, 7)):
    """(name, graph, k, zero boundary) over the whole suite."""
    for name, make in SUITE.items():
        g = make()
        for k in levels:
            yield name, g, k, zero_boundary(g)


# -- helpers over a Graph -------------------------------------------------


def is_cycle(g: Graph, mask: int) -> bool:
    """Even number of support endpoints at every vertex."""
    for v in g.vertices:
        cnt = sum(1 for i in g.incident_edges(v) if mask >> i & 1)
        if cnt % 2:
            return False
    return True


def cycle_from_edge_ids(g: Graph, ids: Iterable[str]) -> int:
    mask = 0
    for eid in ids:
        mask |= 1 << g.edge_index(eid)
    return mask


def format_graph(g: Graph, boundary_weights: dict[str, int]) -> str:
    """The graph in the line-oriented text format that parse_graph reads."""
    lines = [f"edge {eid} {a} {b}" for eid, a, b in g.edges]
    lines += [
        f"boundary {v} {boundary_weights.get(v, 0)}" for v in g.boundary_vertices
    ]
    return "\n".join(lines) + "\n"


def leg_origin(cut_result: CutResult, eid: str) -> Optional[str]:
    """The cut edge that the leg eid (f:1 or f:2) came from; None for an
    edge that is not a leg of this cut."""
    base, _, suffix = eid.rpartition(":")
    if suffix in ("1", "2") and base in cut_result.pairing:
        return base
    return None


def glue(cut_result: CutResult) -> Graph:
    """Reglue a cut graph along its pairing, restoring the original edges."""
    g = cut_result.graph
    edges: list[Edge] = []
    restored: dict[str, list[str]] = {}
    drop_boundary = set()
    for eid, a, b in g.edges:
        base = leg_origin(cut_result, eid)
        if base is not None:
            # the non-fresh endpoint of each half is the original endpoint
            w1, w2 = cut_result.pairing[base]
            keep = a if b in (w1, w2) else b
            restored.setdefault(base, []).append(keep)
            drop_boundary.update((w1, w2))
        else:
            edges.append((eid, a, b))
    for base, ends in restored.items():
        edges.append((base, ends[0], ends[1]))
    boundary = tuple(v for v in g.boundary_vertices if v not in drop_boundary)
    return Graph(tuple(edges), boundary)


def canonical_form(g: Graph) -> tuple:
    """Relabeling-invariant form used to compare cut/glue round-trips."""
    order = {v: i for i, v in enumerate(sorted(g.vertices))}
    edges = sorted(
        (eid, tuple(sorted((order[a], order[b]))))
        for eid, a, b in g.edges
    )
    return tuple(edges), tuple(sorted(order[v] for v in g.boundary_vertices))
