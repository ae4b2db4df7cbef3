"""The library self-checks that make up the selfcheck-warm workload.

Each check returns ``(ok, record)``: ``ok`` is its verification flag and
``record`` a JSON-ready summary whose digest the benchmark compares where a
golden value exists.  Only public ``mobex`` functions are called, so the
traced run sees every layer crossing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Tuple

from mobex import catalog, dualchar, graphs, series, sprinkle
from mobex.npoly import NPoly


def mu_check(graph: graphs.MoebiusGraph, beta: int) -> Tuple[bool, Dict]:
    """Brute-force mu against the closed topological form."""
    report = sprinkle.mu_report(graph, beta)
    record = {"graph_id": report.graph_id, "beta": beta,
              "mu_bruteforce": report.mu_bruteforce, "mu_closed": report.mu_closed,
              "configurations_counted": report.configurations_counted}
    return report.mu_bruteforce == report.mu_closed, record


def apply_variant(graph: graphs.MoebiusGraph, variant: Dict) -> graphs.MoebiusGraph:
    """Flip the chosen vertices, then relabel half-edges, vertices and rotation starts."""
    for v in variant["flips"]:
        graph = graphs.flip_vertex(graph, v)
    perm = variant["half_perm"]
    rotations = []
    for v in variant["vertex_order"]:
        rot = graph.rotations[v]
        k = variant["shifts"][v]
        rotations.append([perm[h] for h in rot[k:] + rot[:k]])
    edges = [(perm[a], perm[b]) for a, b in graph.edges]
    return graphs.MoebiusGraph(rotations, edges, graph.twists)


def code_check(graph: graphs.MoebiusGraph, variants: List[Dict]) -> Tuple[bool, Dict]:
    """canonical_code survives flips and relabelling; poincare_dual is an involution."""
    code = catalog.canonical_code(graph)
    invariant = all(catalog.canonical_code(apply_variant(graph, var)) == code
                    for var in variants)
    involution = catalog.canonical_code(
        dualchar.poincare_dual(dualchar.poincare_dual(graph))) == code
    record = {"code": code.decode(), "variants": len(variants),
              "invariant": invariant, "dual_involution": involution}
    return invariant and involution, record


def orbit_check(profile: List[int]) -> Tuple[bool, Dict]:
    """labeled_pairing_sum(P) equals sum N**f/|Aut| over all Moebius classes of P."""
    labelled = catalog.labeled_pairing_sum(profile)
    classes = NPoly.zero()
    for entry in catalog.enumerate_graphs(profile, connected_only=False):
        classes = classes + NPoly.N(entry.topology.f, Fraction(1, entry.aut_moebius))
    return labelled == classes, {"labelled": labelled.to_json(),
                                 "classes": classes.to_json()}


def ribbon_orbit_check(profile: List[int]) -> Tuple[bool, Dict]:
    """Ribbon labeled_pairing_sum(P) against the ribbon classes of P.

    ``ribbon_classes`` lists connected classes only, so the disconnected
    ones come from exponentiating the connected series over the
    sub-profiles of P.
    """
    key = catalog.profile_key(profile)
    connected = series.CouplingSeries(sum(key), {})
    for sub in _subprofiles(key):
        total = NPoly.zero()
        for _, aut, topo in catalog.ribbon_classes(list(sub)):
            total = total + NPoly.N(topo.f, Fraction(1, aut))
        connected.set_coefficient(sub, total)
    classes = connected.exp().coefficient(key)
    labelled = catalog.labeled_pairing_sum(profile, mode="ribbon")
    return labelled == classes, {"labelled": labelled.to_json(),
                                 "classes": classes.to_json()}


def _subprofiles(key: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Distinct non-empty sub-multisets of ``key`` with an even valence sum."""
    out = set()
    for mask in range(1, 1 << len(key)):
        sub = tuple(sorted(j for i, j in enumerate(key) if (mask >> i) & 1))
        if sum(sub) % 2 == 0:
            out.add(sub)
    return sorted(out)
