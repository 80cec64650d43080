"""The benchmark's generator and oracles against the library's own slow
paths: a float-rounding or indexing slip in an oracle would show up as
false job failures."""

import random

import pytest

from oracle import (
    GraphSpec,
    SignClassifier,
    WeightOracle,
    census_answer,
    random_graph,
    verlinde_count,
)
from qcgraph.cohomology import (
    brute_force_class_count,
    cohomology_group_order,
    cohomology_invariant,
    enumerate_sign_cocycles,
)
from qcgraph.graph import parse_graph, validate_graph
from qcgraph.weights import enumerate_admissible, enumerate_admissible_bruteforce
from suitegraphs import SUITE
from workloads import draw_spec


@pytest.mark.parametrize("genus,legs", [(g, n) for g in (1, 2, 3, 4) for n in range(4) if 2 * g - 2 + n >= 1])
def test_generated_graphs_are_valid_with_requested_genus(genus, legs):
    rng = random.Random(f"{genus}:{legs}")
    for _ in range(20):
        edges = random_graph(genus, legs, rng)
        ends = [v for _, a, b in edges for v in (a, b)]
        univalent = [v for v in dict.fromkeys(ends) if ends.count(v) == 1]
        graph = validate_graph(edges, univalent)
        assert graph.is_connected()
        assert graph.genus == genus
        assert len(graph.boundary_vertices) == legs


def test_generator_is_seeded():
    assert random_graph(3, 2, random.Random(7)) == random_graph(3, 2, random.Random(7))


def _tiny_instances():
    rng = random.Random(20261017)
    for genus, legs in [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 0)]:
        for k in (1, 2, 3):
            labels = [rng.randrange(k + 1) for _ in range(legs)]
            yield draw_spec(rng, genus, legs, labels), k


@pytest.mark.parametrize("spec,k", list(_tiny_instances()))
def test_verlinde_and_own_enumeration_match_bruteforce(spec, k):
    graph, boundary = parse_graph(spec.text())
    expected = enumerate_admissible_bruteforce(graph, k, boundary)
    labels = [x for _, x in spec.boundary]
    assert verlinde_count(spec.genus, labels, k) == len(expected)
    assert WeightOracle(spec, k).weights() == expected


def _suite_spec(graph):
    return GraphSpec(graph.edges, tuple((v, 0) for v in graph.boundary_vertices))


@pytest.mark.parametrize("name", sorted(SUITE))
@pytest.mark.parametrize("k", range(1, 7))
def test_oracles_match_library_on_suite_graphs(name, k):
    graph = SUITE[name]()
    boundary = {v: 0 for v in graph.boundary_vertices}
    spec = _suite_spec(graph)
    ans = census_answer(spec, k)
    weights = enumerate_admissible(graph, k, boundary)
    assert ans.weights == weights
    assert ans.verlinde == len(weights)
    assert 1 << ans.class_log2 == cohomology_group_order(graph, k, boundary)
    if (1 << graph.genus) * len(weights) <= 4096:
        assert 1 << ans.class_log2 == brute_force_class_count(graph, k, boundary)


@pytest.mark.parametrize("name,k", [("theta", 2), ("dumbbell", 2), ("gamma2", 4), ("genus3_handle", 2)])
def test_sign_classifier_matches_library_invariant(name, k):
    graph = SUITE[name]()
    boundary = {v: 0 for v in graph.boundary_vertices}
    family = list(enumerate_sign_cocycles(graph, k, boundary, cap=48))
    classify = SignClassifier(WeightOracle(_suite_spec(graph), k), family[0].basis)
    ours = [classify.invariant(t.table) for t in family]
    theirs = [cohomology_invariant(t) for t in family]
    for i in range(len(family)):
        for j in range(len(family)):
            assert (ours[i] == ours[j]) == (theirs[i] == theirs[j])
