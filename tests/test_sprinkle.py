import pytest

from mobex.catalog import enumerate_graphs
from mobex.errors import BudgetError, StructuralError, UsageError
from mobex.graphs import MoebiusGraph, contract_edge, flip_vertex, orientability, topology
from mobex.sprinkle import (UnitAlgebra, calibrate_irreducibles, flower_graph,
                            mu_bruteforce, mu_closed_form, mu_report,
                            petal_graph, standard_graph)


def all_profiles(e_max):
    def parts(n, mx):
        if n == 0:
            yield ()
            return
        for k in range(min(n, mx), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest
    for e in range(1, e_max + 1):
        yield from parts(2 * e, 2 * e)


def test_unit_algebra_table():
    alg = UnitAlgebra(4)
    i, j, k = 1, 2, 3
    # e_i**2 = -1
    for unit in (i, j, k):
        assert alg.multiply(unit, unit) == 0 + 4
    # ijk = -1
    assert alg.multiply(alg.multiply(i, j), k) == 0 + 4
    # conjugation flips imaginary units only
    assert alg.conjugate(i) == i + 4
    assert alg.conjugate(0) == 0
    with pytest.raises(UsageError):
        UnitAlgebra(3)


def test_calibration_values():
    assert calibrate_irreducibles(4) == (4, 4, -2, 4)
    assert calibrate_irreducibles(2) == (2, 4, 0, 0)
    assert calibrate_irreducibles(1) == (1, 1, 1, 1)


def test_klein_bottle_value():
    klein = flower_graph(twisted=True)
    assert mu_bruteforce(klein, 4) == 4
    assert mu_closed_form(topology(klein), 4) == 4
    report = mu_report(klein, 4)
    assert report.mu_bruteforce == report.mu_closed == 4
    assert report.configurations_counted == 16  # all 4**2 products are real here


def test_beta_one_is_always_one():
    for g in (petal_graph(), flower_graph(), flower_graph(True),
              standard_graph(-1, 3, 2)):
        assert mu_bruteforce(g, 1) == 1


def test_closed_form_equals_bruteforce_small_catalog():
    for profile in all_profiles(3):
        for entry in enumerate_graphs(list(profile)):
            for beta in (1, 2, 4):
                assert (mu_bruteforce(entry.graph, beta)
                        == mu_closed_form(entry.topology, beta)), (profile, beta)


def test_standard_graphs_cover_all_topologies():
    cases = [(1, 0, 2), (1, 1, 1), (1, 2, 1), (-1, 0, 1), (-1, 1, 1),
             (-1, 2, 2), (-1, 3, 1), (-1, 4, 1)]
    for natural, genus, n_faces in cases:
        g = standard_graph(natural, genus, n_faces)
        t = topology(g)
        assert (t.natural, t.genus, t.f) == (natural, genus, n_faces)
        for beta in (1, 2, 4):
            assert mu_bruteforce(g, beta) == mu_closed_form(t, beta)


def test_irreducible_factors_multiply():
    # whole-graph value of petal+flower composite = product of the pieces
    g = standard_graph(1, 1, 2)  # one petal, one handle flower
    for beta in (1, 2, 4):
        expected = mu_bruteforce(petal_graph(), beta) * mu_bruteforce(flower_graph(), beta)
        assert mu_bruteforce(g, beta) == expected


def test_invariance_under_flip_and_contraction():
    theta = MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    for beta in (1, 2, 4):
        m = mu_bruteforce(theta, beta)
        for v in range(theta.n_vertices):
            assert mu_bruteforce(flip_vertex(theta, v), beta) == m
        for e in range(theta.n_edges):
            assert mu_bruteforce(contract_edge(theta, e), beta) == m


def test_rotation_start_irrelevant():
    # mu is defined on cyclic orders: rotating the stored tuples cannot matter
    g = flower_graph(True)
    rot = g.rotations[0]
    for shift in range(1, len(rot)):
        h = MoebiusGraph([rot[shift:] + rot[:shift]], g.edges, g.twists)
        for beta in (2, 4):
            assert mu_bruteforce(h, beta) == mu_bruteforce(g, beta)


def test_beta_two_vanishes_on_nonorientable():
    for profile in all_profiles(3):
        for entry in enumerate_graphs(list(profile)):
            if orientability(entry.graph) == -1:
                assert mu_bruteforce(entry.graph, 2) == 0


def test_budget_and_preconditions():
    big = standard_graph(1, 0, 12)  # 11 petals: beta**e beyond a tiny budget
    with pytest.raises(BudgetError):
        mu_bruteforce(big, 4, assignment_budget=100)
    disconnected = MoebiusGraph([(0, 1), (2, 3)], [(0, 1), (2, 3)], [False, False])
    with pytest.raises(StructuralError):
        mu_bruteforce(disconnected, 2)
    with pytest.raises(UsageError):
        mu_bruteforce(petal_graph(), 3)


def test_mu_report_counts_real_configurations():
    # one sweep gives both figures; the counts are the assignments whose
    # vertex products are all real units
    theta = MoebiusGraph([(0, 1, 2), (3, 4, 5)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    for graph, beta, counted in ((petal_graph(), 2, 2), (petal_graph(True), 4, 4),
                                 (flower_graph(), 1, 1), (theta, 4, 16)):
        report = mu_report(graph, beta)
        assert report.configurations_counted == counted
        assert report.mu_bruteforce == mu_bruteforce(graph, beta) == report.mu_closed
    with pytest.raises(BudgetError):
        mu_report(theta, 4, assignment_budget=63)
