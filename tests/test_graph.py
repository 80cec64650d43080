"""Graph model, cycle space, edge classification, cutting and gluing."""

import random

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcgraph.errors import (
    BoundaryMismatch,
    CutLeafEdge,
    DegreeError,
    UnknownEdge,
    ZeroCycle,
)
from qcgraph.graph import (
    cut_edges,
    isolate_cycle,
    parse_graph,
    recognize_gamma_n,
    validate_graph,
)
from suitegraphs import (
    SUITE,
    canonical_form,
    cycle_from_edge_ids,
    dumbbell,
    format_graph,
    gamma1,
    glue,
    is_cycle,
    random_unitrivalent,
    theta,
    tree3,
)


def all_even_subgraphs(g):
    """Kernel of the incidence map over F2: the oracle for the cycle space."""
    out = []
    for mask in range(1 << g.n_edges):
        if is_cycle(g, mask):
            out.append(mask)
    return out


def span(basis):
    elems = {0}
    for b in basis:
        elems |= {e ^ b for e in elems}
    return elems


class TestValidation:
    def test_theta(self):
        g = theta()
        assert g.genus == 2
        assert g.boundary_vertices == ()

    def test_single_edge_degenerate(self):
        g = validate_graph([("e", "w1", "w2")], ["w1", "w2"])
        assert g.genus == 0
        assert len(g.boundary_vertices) == 2

    def test_degree_two_rejected(self):
        with pytest.raises(DegreeError):
            validate_graph(
                [("t1", "v1", "v2"), ("t2", "v2", "v3"), ("t3", "v3", "v1")], []
            )

    def test_undeclared_leaf(self):
        with pytest.raises(BoundaryMismatch):
            validate_graph([("f1", "v", "w1"), ("f2", "v", "v")], [])

    def test_trivalent_declared_as_boundary(self):
        with pytest.raises(BoundaryMismatch):
            validate_graph([("f1", "v", "w1"), ("f2", "v", "v")], ["v", "w1"])

    def test_duplicate_edge_id(self):
        with pytest.raises(ValueError):
            validate_graph([("e", "v1", "v2"), ("e", "v1", "v2")], [])

    def test_loop_counts_twice(self):
        g = gamma1()
        assert g.degree("v") == 3


class TestCycleSpace:
    @pytest.mark.parametrize("make", [theta, dumbbell, gamma1, tree3])
    def test_basis_spans_kernel_of_incidence(self, make):
        g = make()
        basis = g.cycle_basis()
        assert len(basis) == g.genus
        assert span(basis) == set(all_even_subgraphs(g))

    def test_tree_has_empty_basis(self):
        assert tree3().cycle_basis() == []

    def test_dumbbell_basis_is_loops(self):
        g = dumbbell()
        masks = {cycle_from_edge_ids(g, ["a"]), cycle_from_edge_ids(g, ["b"])}
        assert set(g.cycle_basis()) == masks

    def test_deterministic(self):
        g = theta()
        assert g.cycle_basis() == g.cycle_basis()

    def test_basis_is_fundamental_cycles_of_edge_order_forest(self):
        graphs = [make() for make in SUITE.values()]
        rng = random.Random(7)
        for _ in range(200):
            genus, legs = rng.randint(1, 5), rng.randint(0, 3)
            seeded = random.Random(rng.getrandbits(32))
            graphs.append(random_unitrivalent(genus, legs, seeded))
        for g in graphs:
            assert g.cycle_basis() == forest_fundamental_cycles(g)


def forest_fundamental_cycles(g):
    """The networkx oracle of the cycle basis: grow the forest in edge
    order; an edge whose ends it already joins closes the cycle of its own
    bit and the forest path between its ends."""
    forest = nx.Graph()
    forest.add_nodes_from(g.vertices)
    basis = []
    for i, (_, a, b) in enumerate(g.edges):
        if nx.has_path(forest, a, b):
            path = nx.shortest_path(forest, a, b)
            mask = 1 << i
            for u, v in zip(path, path[1:]):
                mask |= 1 << forest.edges[u, v]["index"]
            basis.append(mask)
        else:
            forest.add_edge(a, b, index=i)
    return basis


class TestClassify:
    def test_theta_internal(self):
        g = theta()
        lam = cycle_from_edge_ids(g, ["e1", "e2"])
        assert g.cycle_edges(lam) == (0, cycle_from_edge_ids(g, ["e3"]))

    def test_dumbbell_external_and_off(self):
        g = dumbbell()
        lam = cycle_from_edge_ids(g, ["a"])
        external, internal = g.cycle_edges(lam)
        assert external == cycle_from_edge_ids(g, ["c"])
        assert not (external | internal) & cycle_from_edge_ids(g, ["b"])

    def test_gamma1_leg_external(self):
        g = gamma1()
        lam = cycle_from_edge_ids(g, ["f2"])
        assert g.cycle_edges(lam) == (cycle_from_edge_ids(g, ["f1"]), 0)

    def test_zero_cycle_rejected(self):
        with pytest.raises(ZeroCycle):
            theta().cycle_edges(0)


class TestCut:
    def test_dumbbell_cut_bridge(self):
        g = dumbbell()
        res = cut_edges(g, ["c"])
        subs = res.component_subgraphs()
        assert len(subs) == 2
        for sub in subs:
            assert recognize_gamma_n(sub) is not None
        assert res.pairing == {"c": ("c:w1", "c:w2")}

    def test_empty_cut(self):
        g = theta()
        res = cut_edges(g, [])
        assert res.graph == g
        assert res.pairing == {}

    def test_theta_cut_one_edge_stays_connected(self):
        g = theta()
        res = cut_edges(g, ["e3"])
        subs = res.component_subgraphs()
        assert len(subs) == 1
        assert len(subs[0].boundary_vertices) == 2

    def test_unknown_edge_rejected(self):
        with pytest.raises(UnknownEdge, match="zz"):
            cut_edges(theta(), ["e1", "zz"])

    def test_cut_leaf_edge_rejected(self):
        with pytest.raises(CutLeafEdge):
            cut_edges(gamma1(), ["f1"])

    @pytest.mark.parametrize("make,cut", [
        (dumbbell, ["c"]),
        (theta, ["e3"]),
        (theta, ["e1", "e2", "e3"]),
        (dumbbell, ["a", "b", "c"]),
    ])
    def test_glue_round_trip(self, make, cut):
        g = make()
        assert canonical_form(glue(cut_edges(g, cut))) == canonical_form(g)


class TestIsolate:
    def test_dumbbell(self):
        g = dumbbell()
        with_cycle, without, _ = isolate_cycle(g, cycle_from_edge_ids(g, ["a"]))
        assert len(with_cycle) == 1 and len(without) == 1
        assert "a" in with_cycle[0].edge_ids
        assert "b" in without[0].edge_ids

    def test_theta(self):
        g = theta()
        with_cycle, without, res = isolate_cycle(
            g, cycle_from_edge_ids(g, ["e1", "e2"])
        )
        assert res.cut == ("e3",)
        assert len(with_cycle) == 1 and without == []

    def test_gamma1(self):
        g = gamma1()
        with_cycle, without, res = isolate_cycle(g, cycle_from_edge_ids(g, ["f2"]))
        assert res.cut == ("f1",)
        assert recognize_gamma_n(with_cycle[0]) is not None


class TestRecognize:
    def test_gamma1(self):
        g = gamma1()
        n, gen = recognize_gamma_n(g)
        assert n == 1
        assert gen == cycle_from_edge_ids(g, ["f2"])

    def test_theta_absent(self):
        assert recognize_gamma_n(theta()) is None

    def test_tree_absent(self):
        assert recognize_gamma_n(tree3()) is None


class TestTextFormat:
    def test_round_trip(self):
        g = dumbbell()
        text = format_graph(g, {})
        g2, weights = parse_graph(text)
        assert g2 == g and weights == {}

    def test_boundary_weights(self):
        g, weights = parse_graph("edge f1 v w1\nedge f2 v v\nboundary w1 2\n")
        assert weights == {"w1": 2}
        assert g.boundary_vertices == ("w1",)

    def test_comments_and_blanks(self):
        g, _ = parse_graph("# theta\n\nedge e1 v1 v2\nedge e2 v1 v2\nedge e3 v1 v2\n")
        assert g.n_edges == 3

    def test_bad_line(self):
        with pytest.raises(ValueError):
            parse_graph("vertex v\n")


class TestStructureAgainstNetworkx:
    """The precomputed structure of a Graph against networkx as an
    independent oracle, on random unitrivalent multigraphs."""

    @settings(max_examples=60, deadline=None)
    @given(
        genus=st.integers(0, 4),
        legs=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_components_genus_degrees_incidence(self, genus, legs, seed):
        assume(2 * genus - 2 + legs >= 0)
        g = random_unitrivalent(genus, legs, random.Random(seed))
        G = nx.MultiGraph()
        G.add_nodes_from(g.boundary_vertices)
        for i, (eid, a, b) in enumerate(g.edges):
            G.add_edge(a, b, key=eid, index=i)

        assert set(g.vertices) == set(G.nodes)
        assert len(g.vertices) == G.number_of_nodes()
        assert sorted(map(sorted, g.components())) == sorted(
            map(sorted, nx.connected_components(G))
        )
        rng = random.Random(seed)
        for _ in range(4):
            drop = rng.getrandbits(g.n_edges)
            H = G.copy()
            H.remove_edges_from(
                (a, b, eid) for i, (eid, a, b) in enumerate(g.edges) if drop >> i & 1
            )
            assert sorted(map(sorted, g.components(drop))) == sorted(
                map(sorted, nx.connected_components(H))
            )
        rank = (
            G.number_of_edges()
            - G.number_of_nodes()
            + nx.number_connected_components(G)
        )
        assert g.genus == rank
        basis = g.cycle_basis()
        assert len(basis) == rank
        for mask in basis:
            support = nx.MultiGraph(
                (a, b) for i, (_, a, b) in enumerate(g.edges) if mask >> i & 1
            )
            assert all(d % 2 == 0 for _, d in support.degree())
        assert g.cycle_basis() == basis and g.cycle_basis() is not g.cycle_basis()
        for v in G.nodes:
            assert g.degree(v) == G.degree(v)
            incident = []
            for a, b, data in G.edges(v, data=True):
                incident += [data["index"]] * (2 if a == b else 1)
            assert g.incident_edges(v) == tuple(sorted(incident))
        assert set(g.trivalent_vertices) == {v for v, d in G.degree() if d == 3}

    @settings(max_examples=60, deadline=None)
    @given(
        genus=st.integers(0, 4),
        legs=st.integers(0, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cycle_edge_masks_count_endpoints(self, genus, legs, seed):
        # an edge off the cycle is external with one endpoint on the cycle
        # and internal with two (a loop's vertex counts twice)
        assume(2 * genus - 2 + legs >= 0)
        g = random_unitrivalent(genus, legs, random.Random(seed))
        G = nx.MultiGraph()
        for i, (eid, a, b) in enumerate(g.edges):
            G.add_edge(a, b, key=eid, index=i)
        for lam in g.all_cycles():
            if lam == 0:
                continue
            on = {
                v
                for v in G.nodes
                if any(lam >> d["index"] & 1 for _, _, d in G.edges(v, data=True))
            }
            by_count = [0, 0, 0]
            for i, (_, a, b) in enumerate(g.edges):
                count = (a in on) + (b in on)
                if not lam >> i & 1:
                    by_count[count] |= 1 << i
            assert g.cycle_edges(lam) == (by_count[1], by_count[2])
            assert g.cycle_edges(lam) == (by_count[1], by_count[2])  # memoized
