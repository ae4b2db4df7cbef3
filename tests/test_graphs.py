from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mobex.catalog import canonical_code
from mobex.dualchar import poincare_dual
from mobex.errors import StructuralError
from mobex.graphs import (MoebiusGraph, contract_edge, flip_vertex,
                          graph_from_json, graph_to_json, orientability,
                          topology, trace_faces)


def planar_loop():
    return MoebiusGraph([(0, 1)], [(0, 1)], [False])


def twisted_loop():
    return MoebiusGraph([(0, 1)], [(0, 1)], [True])


def theta_planar():
    return MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)


def theta_one_face():
    # two trivalent vertices, three edges, a single face (chi = 0)
    return MoebiusGraph([(0, 1, 2), (3, 4, 5)], [(0, 3), (1, 4), (2, 5)], [False] * 3)


def klein_flower():
    return MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])


def test_trace_faces_loop():
    assert len(trace_faces(planar_loop())) == 2
    assert len(trace_faces(twisted_loop())) == 1


def test_trace_faces_walk_lists_are_pinned():
    # exact states and order, from each face's smallest state
    assert trace_faces(twisted_loop()) == [[(0, 0), (0, 1)]]
    assert trace_faces(klein_flower()) == [[(0, 0), (0, 1), (2, 0), (2, 1)]]
    assert trace_faces(planar_loop()) == [[(0, 0)], [(0, 1)]]
    # an isolated vertex caps a sphere with an empty walk
    capped = MoebiusGraph([(0, 1), ()], [(0, 1)], [False])
    assert trace_faces(capped) == [[(0, 0)], [(0, 1)], []]


def test_trace_faces_one_face_trivalent():
    faces = trace_faces(theta_one_face())
    assert len(faces) == 1
    assert len(faces[0]) == 6  # all six edge-sides on the single face


def test_face_degrees_cover_edge_sides():
    for g in (planar_loop(), twisted_loop(), theta_planar(), klein_flower()):
        faces = trace_faces(g)
        assert sum(len(w) for w in faces) == 2 * g.n_edges


def test_orientability():
    assert orientability(planar_loop()) == 1
    assert orientability(twisted_loop()) == -1
    assert orientability(klein_flower()) == -1
    assert orientability(theta_planar()) == 1


def test_topology_sphere_loop():
    t = topology(planar_loop())
    assert (t.v, t.e, t.f, t.chi, t.natural, t.sigma, t.genus) == (1, 1, 2, 2, 1, 0, 0)


def test_topology_projective_plane():
    t = topology(twisted_loop())
    assert (t.chi, t.natural, t.sigma) == (1, -1, 1)
    assert t.genus == 1 - t.chi  # genus convention 1 - chi for non-orientable


def test_topology_klein_bottle():
    t = topology(klein_flower())
    assert (t.chi, t.natural, t.sigma) == (0, -1, 2)
    assert t.genus == 1


def test_flip_loop_unchanged():
    g = planar_loop()
    flipped = flip_vertex(g, 0)
    assert flipped.twists == g.twists  # loop twist toggles twice
    assert topology(flipped) == topology(g)


def test_flip_theta_twists_all_edges():
    g = theta_planar()
    flipped = flip_vertex(g, 0)
    assert flipped.twists == (True, True, True)
    t = topology(flipped)
    assert (t.chi, t.natural) == (2, 1)


def test_flip_preserves_topology_everywhere():
    for g in (planar_loop(), twisted_loop(), theta_planar(),
              theta_one_face(), klein_flower()):
        for v in range(g.n_vertices):
            assert topology(flip_vertex(g, v)) == topology(g)


def test_contract_theta():
    g = theta_planar()
    c = contract_edge(g, 0)
    assert c.n_vertices == 1 and c.n_edges == 2
    assert len(c.rotations[0]) == 4
    tc, tg = topology(c), topology(g)
    assert tc.f == tg.f == 3
    assert tc.chi == tg.chi


def test_contract_single_edge_graph():
    g = MoebiusGraph([(0,), (1,)], [(0, 1)], [False])
    assert topology(g).f == 1
    c = contract_edge(g, 0)
    assert c.n_vertices == 1 and c.n_edges == 0
    assert topology(c).f == 1
    assert topology(c).chi == 2


def test_contract_dumbbell_bridge():
    g = MoebiusGraph([(0, 1, 2), (3, 4, 5)], [(0, 1), (4, 5), (2, 3)], [False] * 3)
    c = contract_edge(g, 2)
    assert c.n_vertices == 1
    # the two loops sit in separated (non-interleaved) rotation arcs
    seq = [c.edge_of(h) for h in c.rotations[0]]
    assert seq in ([0, 0, 1, 1], [1, 1, 0, 0])
    assert topology(c).chi == 2 and topology(c).f == 3


def test_contract_preconditions():
    with pytest.raises(StructuralError):
        contract_edge(planar_loop(), 0)  # loop
    g = MoebiusGraph([(0,), (1,)], [(0, 1)], [True])
    with pytest.raises(StructuralError):
        contract_edge(g, 0)  # twisted


def test_contract_reduces_counts_keeps_surface():
    g = theta_planar()
    for e in range(g.n_edges):
        c = contract_edge(g, e)
        tc, tg = topology(c), topology(g)
        assert (tc.v, tc.e) == (tg.v - 1, tg.e - 1)
        assert (tc.f, tc.chi, tc.natural) == (tg.f, tg.chi, tg.natural)


def test_contract_invariance_over_catalog():
    from mobex.catalog import enumerate_graphs
    for profile in ((3, 3), (1, 3), (2, 1, 1), (4, 2), (3, 2, 1)):
        for entry in enumerate_graphs(list(profile)):
            g = entry.graph
            tg = entry.topology
            for e, (a, b) in enumerate(g.edges):
                if g.twists[e] or any(a in rot and b in rot for rot in g.rotations):
                    continue  # a twisted edge or a loop
                tc = topology(contract_edge(g, e))
                assert (tc.v, tc.e) == (tg.v - 1, tg.e - 1), (profile, e)
                assert (tc.f, tc.chi, tc.natural) == (tg.f, tg.chi, tg.natural)


def test_every_edge_side_on_exactly_one_face():
    for g in (theta_planar(), klein_flower(), theta_one_face(), twisted_loop()):
        faces = trace_faces(g)
        sides = set()
        for walk in faces:
            for h, d in walk:
                # a traversal step consumes the geometric side (h, d) and its
                # mirror; record the canonical one of the pair
                mirror = (g.partner(h), 1 - (d ^ g.twists[g.edge_of(h)]))
                sides.add(min((h, d), mirror))
        assert len(sides) == 2 * g.n_edges


def test_structural_validation():
    with pytest.raises(StructuralError):
        MoebiusGraph([(0, 1)], [(0, 0)], [False])  # fixed point
    with pytest.raises(StructuralError):
        MoebiusGraph([(0, 1)], [(0, 1), (0, 1)], [False, False])  # double cover
    with pytest.raises(StructuralError):
        MoebiusGraph([(0,), (0, 1)], [(0, 1)], [False])  # repeated half-edge
    with pytest.raises(StructuralError):
        MoebiusGraph([(0, 1)], [(0, 1)], [])  # missing twist bit
    with pytest.raises(StructuralError):
        MoebiusGraph([(0, 1), (2,)], [], [])  # half-edges left unpaired


def test_json_round_trip():
    for g in (theta_planar(), klein_flower(), twisted_loop()):
        assert graph_from_json(graph_to_json(g)) == g
    with pytest.raises(StructuralError):
        graph_from_json("{not json")


def test_json_refuses_malformed_edges_and_non_integer_ids():
    petal = '{"rotations": %s, "edges": %s, "twists": [false]}'
    assert graph_from_json(petal % ("[[0, 1]]", "[[1, 0]]")) == MoebiusGraph(
        [(0, 1)], [(0, 1)], [False])
    for rotations, edges, message in (("[[0, 1]]", "[[0, 1, 2]]", "pair exactly two"),
                                      ("[[0, 1]]", "[[0]]", "pair exactly two"),
                                      ("[[0, true]]", "[[0, 1]]", "JSON integers"),
                                      ("[[0, 1]]", "[[true, 0]]", "JSON integers"),
                                      ('[[0, "1"]]', "[[0, 1]]", "JSON integers"),
                                      ("[[0, 1]]", "[[0, 1.0]]", "JSON integers")):
        with pytest.raises(StructuralError, match=message):
            graph_from_json(petal % (rotations, edges))


def test_twist_normalization_by_flips():
    # orientable graphs reach zero twisted edges over some flip subset;
    # non-orientable graphs never do (exhaustive over all 2**v subsets)
    from itertools import combinations

    def min_twists(g):
        best = g.n_edges + 1
        for r in range(g.n_vertices + 1):
            for subset in combinations(range(g.n_vertices), r):
                h = g
                for v in subset:
                    h = flip_vertex(h, v)
                best = min(best, sum(h.twists))
        return best

    flipped_theta = flip_vertex(theta_planar(), 0)
    assert min_twists(flipped_theta) == 0
    assert min_twists(twisted_loop()) > 0
    assert min_twists(klein_flower()) > 0


@st.composite
def random_graphs(draw, max_edges=4, max_vertices=3):
    n_edges = draw(st.integers(1, max_edges))
    n = 2 * n_edges
    perm = draw(st.permutations(list(range(n))))
    # split the shuffled half-edges into 1..max_vertices vertices
    n_vertices = draw(st.integers(1, min(max_vertices, n)))
    cuts = sorted(draw(st.lists(st.integers(1, n - 1), min_size=n_vertices - 1,
                                max_size=n_vertices - 1, unique=True)))
    rotations, start = [], 0
    for cut in cuts + [n]:
        rotations.append(tuple(perm[start:cut]))
        start = cut
    pairs = [(2 * i, 2 * i + 1) for i in range(n_edges)]
    twists = draw(st.lists(st.booleans(), min_size=n_edges, max_size=n_edges))
    return MoebiusGraph([r for r in rotations if r], pairs, twists)


@settings(max_examples=60, deadline=None)
@given(random_graphs(), st.integers(0, 2))
def test_flip_invariance_random(graph, pick):
    v = pick % graph.n_vertices
    assert topology(flip_vertex(graph, v)) == topology(graph)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_euler_formula_random(graph):
    t = topology(graph)
    assert t.chi == t.v - t.e + t.f
    t.check()


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_edges=8, max_vertices=8), st.data())
def test_canonical_code_is_an_isomorphism_invariant(graph, data):
    code = canonical_code(graph)
    for v in data.draw(st.lists(st.integers(0, graph.n_vertices - 1), max_size=4)):
        graph = flip_vertex(graph, v)
    shifts = data.draw(st.lists(st.integers(0, 15), min_size=graph.n_vertices,
                                max_size=graph.n_vertices))
    rotations = [r[s % len(r):] + r[:s % len(r)] for r, s in zip(graph.rotations, shifts)]
    vertex_order = data.draw(st.permutations(range(graph.n_vertices)))
    edge_order = data.draw(st.permutations(range(graph.n_edges)))
    label = data.draw(st.permutations(range(graph.n_half_edges)))
    moved = MoebiusGraph(
        [tuple(label[h] for h in rotations[v]) for v in vertex_order],
        [(label[graph.edges[i][0]], label[graph.edges[i][1]]) for i in edge_order],
        [graph.twists[i] for i in edge_order])
    assert canonical_code(moved) == code


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_edges=8, max_vertices=8))
def test_graph_json_round_trip_random(graph):
    assert graph_from_json(graph_to_json(graph)) == graph


@settings(max_examples=60, deadline=None)
@given(random_graphs(max_edges=8, max_vertices=8))
def test_poincare_dual_random(graph):
    # the catalog test in test_dualchar is exhaustive only to e = 4
    dual = poincare_dual(graph)
    t, td = topology(graph), topology(dual)
    assert td.v_profile == t.f_profile and td.f_profile == t.v_profile
    assert (td.chi, td.natural) == (t.chi, t.natural)
    assert canonical_code(poincare_dual(dual)) == canonical_code(graph)
