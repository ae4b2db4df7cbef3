from collections import Counter
from fractions import Fraction
from itertools import product
from math import factorial
from typing import NamedTuple

import pytest

from mobex.catalog import (automorphism_count, canonical_code, census, enumerate_graphs,
                           labeled_pairing_sum, normalize_twists, profile_key,
                           ribbon_classes)
from mobex.errors import BudgetError, UsageError
from mobex.graphs import MoebiusGraph, _face_walks, flip_vertex, topology
from mobex.npoly import NPoly


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


def _matchings(items):
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for tail in _matchings(rest):
            yield [(a, items[i])] + tail


def _pairings(n):
    """Every matching of half-edges 0..n-1 as (edges, partner, edge_of) arrays."""
    for pairs in _matchings(list(range(n))):
        partner = [0] * n
        edge_of = [0] * n
        for idx, (a, b) in enumerate(pairs):
            partner[a], partner[b] = b, a
            edge_of[a] = edge_of[b] = idx
        yield tuple(pairs), partner, edge_of


class Gluing(NamedTuple):
    """One labelled gluing of a block layout, as ``graphs._graph_arrays``."""
    valences: tuple
    succ: list
    pred: list
    vertex_of: list
    partner: list
    edge_of: list
    twists: tuple

    def graph(self):
        from mobex.catalog import _blocks

        edges = [(h, p) for h, p in enumerate(self.partner) if h < p]
        return MoebiusGraph(_blocks(self.valences), edges,
                            [self.twists[self.edge_of[h]] for h, _ in edges])


def pairing_sweep(profile, weight, mode="moebius"):
    """Reference for ``labeled_pairing_sum``: ``weight`` (an NPoly) of every
    labelled gluing, taken one at a time on its arrays, summed over the
    layout symmetry order."""
    from mobex.catalog import _layout

    key = profile_key(list(profile))
    e = sum(key) // 2
    _, succ, pred, vertex_of = _layout(key)
    patterns = list(product((False, True), repeat=e)) if mode == "moebius" else [(False,) * e]
    tally = Counter(weight(Gluing(key, succ, pred, vertex_of, partner, edge_of, twists))
                    for _, partner, edge_of in _pairings(sum(key)) for twists in patterns)
    denom = 1
    for j, count in Counter(key).items():
        denom *= factorial(count) * (2 * j if mode == "moebius" else j) ** count
    total = NPoly.zero()
    for w, count in tally.items():
        total = total + w * count
    return total * Fraction(1, denom)


def faces_weight(gluing):
    # the graph module's face walk, on the sweep's own arrays
    return NPoly.N(len(_face_walks(*gluing)))


def test_profile_validation():
    with pytest.raises(UsageError):
        profile_key({3: 1})  # odd total
    with pytest.raises(UsageError):
        profile_key({0: 2})
    with pytest.raises(UsageError):
        profile_key([])
    assert profile_key({3: 2, 4: 1}) == (4, 3, 3)


def test_loop_profile_two_classes():
    cat = enumerate_graphs({2: 1})
    assert len(cat) == 2
    assert sorted(e.topology.f for e in cat) == [1, 2]
    assert all(e.aut_moebius == 4 for e in cat)


def test_single_edge_profile_one_class():
    cat = enumerate_graphs({1: 2})
    assert len(cat) == 1
    assert cat[0].aut_moebius == 4
    # the twisted variant is flip-equivalent to the untwisted one
    seg_t = MoebiusGraph([(0,), (1,)], [(0, 1)], [True])
    seg_u = MoebiusGraph([(0,), (1,)], [(0, 1)], [False])
    assert canonical_code(seg_t) == canonical_code(seg_u) == cat[0].code


def test_excess_one_pool_is_thirteen_classes():
    pool = list(enumerate_graphs({3: 2})) + list(enumerate_graphs({4: 1}))
    assert len(pool) == 13
    assert Counter(e.topology.f for e in pool) == {3: 3, 2: 4, 1: 6}


def test_automorphism_examples():
    loop = MoebiusGraph([(0, 1)], [(0, 1)], [False])
    assert automorphism_count(loop) == 4
    assert automorphism_count(loop, "ribbon") == 2

    theta = MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    assert automorphism_count(theta) == 12
    assert automorphism_count(theta, "ribbon") == 6

    # one 4-valent vertex, two untwisted loops wound into a handle
    flower = MoebiusGraph([(0, 1, 2, 3)], [(0, 2), (1, 3)], [False, False])
    assert automorphism_count(flower) == 8
    # the side-by-side placement is a different class with half the symmetry
    petals = MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [False, False])
    assert automorphism_count(petals) == 4


def test_ribbon_mode_needs_orientable():
    with pytest.raises(UsageError):
        automorphism_count(MoebiusGraph([(0, 1)], [(0, 1)], [True]), "ribbon")


def test_canonical_code_flip_and_relabel_invariance():
    theta = MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    code = canonical_code(theta)
    for v in range(2):
        assert canonical_code(flip_vertex(theta, v)) == code
    relabeled = MoebiusGraph([(3, 5, 4), (0, 1, 2)], [(0, 3), (4, 1), (2, 5)], [False] * 3)
    assert canonical_code(relabeled) == code


def test_canonical_code_separates_classes():
    theta = MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    dumbbell = MoebiusGraph([(0, 1, 2), (3, 4, 5)], [(0, 1), (4, 5), (2, 3)], [False] * 3)
    assert canonical_code(theta) != canonical_code(dumbbell)
    loop_u = MoebiusGraph([(0, 1)], [(0, 1)], [False])
    loop_t = MoebiusGraph([(0, 1)], [(0, 1)], [True])
    assert canonical_code(loop_u) != canonical_code(loop_t)


def test_catalog_entries_are_canonical_and_sorted():
    for profile in ((3, 3), (4,), (2, 2), (1, 1, 2)):
        entries = enumerate_graphs(list(profile), connected_only=False)
        codes = [e.code for e in entries]
        assert codes == sorted(codes)
        for e in entries:
            assert canonical_code(e.graph) == e.code
            assert Counter(e.graph.valences()) == dict(e.topology.v_profile)
    # the connected catalog is generated, not canonicalized: recheck every
    # entry it keeps against the flag competition run on its representative
    for profile in list(all_profiles(4)) + [(5, 5), (4, 3, 3), (3, 3, 2, 2)]:
        entries = enumerate_graphs(list(profile))
        codes = [e.code for e in entries]
        assert all(a < b for a, b in zip(codes, codes[1:])), profile
        for e in entries:
            assert canonical_code(e.graph) == e.code
            assert automorphism_count(e.graph) == e.aut_moebius
            assert topology(e.graph) == e.topology
            if e.topology.natural == 1:
                assert e.aut_ribbon == automorphism_count(e.graph, "ribbon")
            else:
                assert e.aut_ribbon is None


def test_census_matches_the_graph_modules_topology():
    # the census reads each surface off the generating walk; rebuild every
    # class's representative and key it by the graph module's own route
    # (face walk on the graph, twist coboundary test), in both modes
    from mobex.catalog import _graph_from_stream

    for profile in all_profiles(5):
        expected = Counter()
        for entry in enumerate_graphs(list(profile)):
            expected[topology(entry.graph)] += Fraction(1, entry.aut_moebius)
        assert dict(census(list(profile))) == expected, profile
        expected = Counter()
        for code, aut, _ in ribbon_classes(list(profile)):
            stream = tuple(int(tok) for tok in code.split(b","))
            expected[topology(_graph_from_stream(stream))] += Fraction(1, aut)
        assert dict(census(list(profile), mode="ribbon")) == expected, profile


def test_census_consumers_build_no_graph(monkeypatch):
    # with no representative graph to be had, every census consumer still returns
    from mobex import catalog, graphs
    from mobex.clt import clt_limit
    from mobex.dualchar import charpoly_lhs, charpoly_rhs
    from mobex.penner import real_moduli_euler, real_moduli_graph_sum
    from mobex.series import expand_logZ

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(catalog, "_graph_from_stream", refuse)
    monkeypatch.setattr(graphs.MoebiusGraph, "__init__", refuse)
    caches = (catalog._connected_catalog, catalog._full_catalog, catalog._ribbon_catalog,
              catalog._census)
    for cache in caches:
        cache.cache_clear()
    try:
        assert expand_logZ("master", 8, beta=1).terms
        assert charpoly_lhs("goe", 6).terms and charpoly_rhs("gue", 6).terms
        assert clt_limit(1, 4).quadratic_form
        assert real_moduli_graph_sum(1, 1) == real_moduli_euler(1, 1)
    finally:
        for cache in caches:
            cache.cache_clear()


def test_pairing_sum_examples():
    quarter = Fraction(1, 4)
    assert labeled_pairing_sum({2: 1}) == NPoly({(2, 0): quarter, (1, 0): quarter})
    # both twist states of the single edge give one face: N/4 total
    assert labeled_pairing_sum({1: 2}) == NPoly({(1, 0): quarter})


def test_pairing_sum_matches_per_gluing_face_walks():
    # the shared gluing tree's face count against one face walk per
    # labelled gluing, exactly, in both modes
    cases = [(p, mode) for p in all_profiles(4) for mode in ("moebius", "ribbon")]
    cases += [((10,), "moebius"), ((4, 3, 3), "moebius"), ((5, 3, 1, 1), "moebius"),
              ((5, 5), "ribbon"), ((4, 4, 2), "moebius"), ((4, 4, 4), "ribbon")]
    for profile, mode in cases:
        expected = pairing_sweep(profile, faces_weight, mode)
        assert labeled_pairing_sum(list(profile), mode=mode) == expected, (profile, mode)


def test_pairing_sum_is_the_wick_moment():
    # Wick's theorem, with no graph built: at Gaussian scale beta/4 the
    # moment E[prod_j p_j] of GOE (GUE) is the labelled pairing sum of that
    # valence multiset times its layout symmetry order, 2**v prod_j
    # j**m_j m_j! with twists (prod_j j**m_j m_j! without)
    from mobex.oracle import _loop_moment

    for profile in all_profiles(6):
        order = 1
        for j, count in Counter(profile).items():
            order *= j ** count * factorial(count)
        powers = tuple(sorted(profile))
        moebius = _loop_moment(1, Fraction(1, 4), powers) * Fraction(1, order << len(profile))
        ribbon = _loop_moment(2, Fraction(1, 2), powers) * Fraction(1, order)
        assert labeled_pairing_sum(list(profile)) == moebius, profile
        assert labeled_pairing_sum(list(profile), mode="ribbon") == ribbon, profile


def first_choice_orbits(key, twist_bits):
    """Orbits of half-edge 0's first choices (b, t) under the layout
    symmetries that fix half-edge 0, closed from their generators: a
    rotation, a flip (with twists) and a swap of equal-valence neighbours
    among the other vertices, and with twists vertex 0's reflection
    through half-edge 0."""
    from mobex.catalog import _blocks

    rotations = _blocks(key)
    where = {h: (v, i) for v, rot in enumerate(rotations) for i, h in enumerate(rot)}
    moebius = len(twist_bits) == 2

    def images(b, t):
        v, i = where[b]
        rot = rotations[v]
        if v == 0:  # a loop: the reflection toggles its twist twice
            return [(rot[-i % len(rot)], t)] if moebius else []
        out = [(rot[(i + 1) % len(rot)], t)]
        if moebius:  # flip v; reflect vertex 0, which toggles the edge once
            out += [(rot[-i % len(rot)], t ^ 1), (b, t ^ 1)]
        for w in (v - 1, v + 1):
            if 0 < w < len(rotations) and len(rotations[w]) == len(rot):
                out.append((rotations[w][i], t))
        return out

    orbits = set()
    for start in product(range(1, sum(key)), twist_bits):
        orbit, todo = {start}, [start]
        while todo:
            for image in images(*todo.pop()):
                if image not in orbit:
                    orbit.add(image)
                    todo.append(image)
        orbits.add(frozenset(orbit))
    return orbits


def test_first_edge_orbits_partition_the_first_choices():
    # the folded first level tries one (b, t) per orbit and counts its size
    from mobex.catalog import _first_edges

    for profile in all_profiles(8):
        for twist_bits in ((0, 1), (0,)):
            orbits = first_choice_orbits(profile, twist_bits)
            chosen = [(b, t, size) for b, twists, size in _first_edges(profile, twist_bits)
                      for t in twists]
            hit = [next(o for o in orbits if (b, t) in o) for b, t, _ in chosen]
            assert set(hit) == orbits and len(hit) == len(orbits), (profile, twist_bits)
            assert [len(o) for o in hit] == [size for _, _, size in chosen], (profile, twist_bits)
            assert sum(size for *_, size in chosen) == (sum(profile) - 1) * len(twist_bits)


def test_pairing_sum_matches_catalog():
    # exact per-profile certificate: a class missing from the catalog would
    # leave a strictly positive gap (all weights are positive)
    # every profile of up to 10 half-edges, where the walk's first-token
    # cuts remove the most streams, and two of 12
    profiles = list(all_profiles(5)) + [(4, 4, 4), (3, 3, 3, 3)]
    for profile in profiles:
        lhs = labeled_pairing_sum(list(profile))
        rhs = NPoly.zero()
        for e in enumerate_graphs(list(profile), connected_only=False):
            rhs = rhs + NPoly.N(e.topology.f) * Fraction(1, e.aut_moebius)
        assert lhs == rhs, profile


def connected_pairings(key):
    """Layout arrays plus every labelled matching of ``key`` whose vertex
    graph is connected, as (pairs, partner, edge_of)."""
    from mobex.catalog import _layout

    rotations, succ, pred, vertex_of = _layout(key)
    n_vert = len(key)
    matchings = []
    for pairs, partner, edge_of in _pairings(sum(key)):
        seen = [False] * n_vert
        seen[0] = True
        stack = [0]
        reached = 1
        while stack:
            v = stack.pop()
            for h in rotations[v]:
                w = vertex_of[partner[h]]
                if not seen[w]:
                    seen[w] = True
                    reached += 1
                    stack.append(w)
        if reached == n_vert:
            matchings.append((pairs, partner, edge_of))
    return (succ, pred, vertex_of), matchings


def test_catalog_matches_full_twist_sweep():
    # ground truth: every labelled (matching, twists) object, no cotree
    # restriction; class sets must agree exactly
    from mobex.catalog import _canon

    def full_twist_classes(key):
        (succ, pred, vertex_of), matchings = connected_pairings(key)
        classes = set()
        for pairs, partner, edge_of in matchings:
            e = len(pairs)
            twists = [False] * e
            for bits in range(1 << e):
                for i in range(e):
                    twists[i] = bool((bits >> i) & 1)
                stream, _, _ = _canon(key, succ, pred, vertex_of,
                                      partner, edge_of, twists)
                classes.add(stream)
        return classes

    targets = list(all_profiles(3)) + [(4, 4), (3, 3, 1, 1), (2, 2, 2, 2), (4, 2, 1, 1)]
    for profile in targets:
        key = profile_key(list(profile))
        ground = full_twist_classes(key)
        fast = {tuple(int(x) for x in entry.code.decode().split(","))
                for entry in enumerate_graphs(list(profile))}
        assert ground == fast, profile


def test_candidate_test_matches_full_competition():
    # every maximal-valence flag's stream T of every connected labelled
    # gluing: on the arrays of the graph T encodes, the canonicity test
    # rejects T iff T is not the full competition's minimum, and otherwise
    # returns the full competition's stream and flag counts (count_plus
    # depends on the representative, so it is taken on T's graph)
    from mobex.catalog import _canon, _graph_arrays, _graph_from_stream, _traverse

    def flag_streams(key):
        """{T: the gluing's full-mode (stream, count_all)} per direction set."""
        (succ, pred, vertex_of), matchings = connected_pairings(key)
        out = {(0, 1): {}, (0,): {}}
        for pairs, partner, edge_of in matchings:
            e = len(pairs)
            for bits in range(1 << e):
                twists = [bool((bits >> i) & 1) for i in range(e)]
                arrays = (key, succ, pred, vertex_of, partner, edge_of, twists)
                for directions in ((0, 1), (0,)) if bits == 0 else ((0, 1),):
                    full = _canon(*arrays, directions=directions)[:2]
                    for h0 in range(sum(key)):
                        if key[vertex_of[h0]] == key[0]:
                            for d0 in directions:
                                _, stream = _traverse(h0, d0, *arrays, None, False)
                                out[directions][tuple(stream)] = full
        return out

    for profile in list(all_profiles(3)) + [(4, 4), (3, 3, 2)]:
        for directions, streams in flag_streams(profile_key(list(profile))).items():
            for stream, full in streams.items():
                arrays = _graph_arrays(_graph_from_stream(stream))
                won = _canon(*arrays, directions=directions, best=stream)
                own = _canon(*arrays, directions=directions)
                assert own[:2] == full
                assert won == (None if stream != own[0] else own), (profile, stream)


def test_ribbon_catalog_matches_matching_sweep():
    # ground truth: every connected untwisted labelled matching under the
    # positive-flag competition; the generated ribbon catalog must list the
    # same classes, automorphism orders and topologies in the same order
    from mobex.catalog import _canon, _graph_from_stream, _stream_to_bytes

    def matching_sweep(key):
        (succ, pred, vertex_of), matchings = connected_pairings(key)
        untwisted = [False] * (sum(key) // 2)
        classes = {}
        for _, partner, edge_of in matchings:
            stream, aut, _ = _canon(key, succ, pred, vertex_of, partner, edge_of,
                                    untwisted, directions=(0,))
            if stream not in classes:
                classes[stream] = (_stream_to_bytes(stream), aut,
                                   topology(_graph_from_stream(stream)))
        return [classes[s] for s in sorted(classes)]

    for profile in list(all_profiles(4)) + [(5, 5), (4, 3, 3)]:
        key = profile_key(list(profile))
        assert ribbon_classes(list(profile)) == matching_sweep(key), profile


def test_ribbon_pairing_sum_matches_ribbon_catalog():
    # profiles whose valence multisets admit no even-sum splitting, so every
    # labelled gluing is connected and the catalog covers the whole sum
    for profile in ((3, 3), (4,), (5, 3), (6,), (5, 5), (7, 3), (8,)):
        lhs = labeled_pairing_sum(list(profile), mode="ribbon")
        rhs = NPoly.zero()
        for code, aut, topo in ribbon_classes(list(profile)):
            rhs = rhs + NPoly.N(topo.f) * Fraction(1, aut)
        assert lhs == rhs, profile
    # every profile of 10 half-edges, split or not: the labelled sum runs over
    # disconnected gluings too, whose classes the exponential formula builds
    # from the connected ones, so the sum over all classes of N**f/|Aut| is
    # the profile's coefficient in exp(sum over connected classes)
    from mobex.series import CouplingSeries

    connected = CouplingSeries(10)
    for profile in all_profiles(5):
        total = NPoly.zero()
        for code, aut, topo in ribbon_classes(list(profile)):
            total = total + NPoly.N(topo.f) * Fraction(1, aut)
        connected.set_coefficient(profile, total)
    every = connected.exp()
    for profile in all_profiles(5):
        if sum(profile) == 10:
            lhs = labeled_pairing_sum(list(profile), mode="ribbon")
            assert lhs == every.coefficient(profile), profile


def test_moebius_ribbon_factor_two_small():
    for profile in list(all_profiles(3)) + [(4, 4, 4), (3, 3, 3, 3), (6, 6)]:
        cat = enumerate_graphs(list(profile))
        lhs = sum(Fraction(2, e.aut_moebius) for e in cat if e.aut_ribbon is not None)
        rhs = sum(Fraction(1, aut) for _, aut, _ in ribbon_classes(list(profile)))
        assert lhs == rhs, profile


def test_aut_moebius_vs_ribbon_relation():
    for profile in all_profiles(3):
        for e in enumerate_graphs(list(profile)):
            if e.aut_ribbon is not None:
                assert e.aut_moebius in (e.aut_ribbon, 2 * e.aut_ribbon)


def test_orbit_stabilizer_on_classes():
    # |Aut| from flag counting agrees with |Aut| from the group order over
    # labelled realizations, via the exact pairing-sum identity with a
    # class-indicator weight
    for profile in ((3, 3), (4,), (2, 2)):
        cat = enumerate_graphs(list(profile), connected_only=False)
        for target in cat:
            def indicator(gluing, code=target.code):
                return NPoly.const(1 if canonical_code(gluing.graph()) == code else 0)
            value = pairing_sweep(profile, indicator)
            assert value == NPoly.const(Fraction(1, target.aut_moebius))


def test_disconnected_composition():
    cat = enumerate_graphs({2: 2}, connected_only=False)
    connected = enumerate_graphs({2: 2}, connected_only=True)
    assert len(cat) > len(connected)
    pair_classes = [e for e in cat if e.topology.v == 2 and e.graph.is_connected() is False]
    # two loops (untwisted/twisted in all multiset combinations): 3 classes
    assert len(pair_classes) == 3
    auts = sorted(e.aut_moebius for e in pair_classes)
    assert auts == [16, 32, 32]  # mixed pair 4*4, identical pairs 4*4*2!


def test_flip_subsets_normalize_iff_orientable():
    # exhaustive over all 2**v flip subsets: only orientable classes reach
    # an untwisted representative
    from itertools import combinations
    from mobex.graphs import orientability

    def reaches_untwisted(g):
        for r in range(g.n_vertices + 1):
            for subset in combinations(range(g.n_vertices), r):
                h = g
                for v in subset:
                    h = flip_vertex(h, v)
                if not any(h.twists):
                    return True
        return False

    for profile in all_profiles(3):
        for entry in enumerate_graphs(list(profile)):
            expected = orientability(entry.graph) == 1
            assert reaches_untwisted(entry.graph) == expected, (profile, entry.code)


def test_normalize_twists():
    theta = MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    flipped = flip_vertex(theta, 1)
    assert any(flipped.twists)
    norm = normalize_twists(flipped)
    assert not any(norm.twists)
    assert canonical_code(norm) == canonical_code(theta)
    klein = MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])
    assert sum(normalize_twists(klein).twists) > 0


def test_component_split_and_normalization_over_full_catalogs():
    # every class, connected or not, with <= 8 half-edges: the split parts
    # are the class's connected components, in the order the full catalog
    # composed them, and forest normalization untwists exactly the
    # orientable classes
    from mobex.catalog import _component_split, _disjoint_union
    from mobex.graphs import orientability
    from mobex.series import iter_monomials

    for key in iter_monomials(8):
        for entry in enumerate_graphs(list(key), connected_only=False):
            parts = _component_split(entry.graph)
            assert _disjoint_union(parts) == entry.graph
            codes = []
            for part in parts:
                assert part.is_connected()
                code = canonical_code(part)
                assert code in {e.code for e in enumerate_graphs(list(part.valences()))}
                codes.append(code)
            assert b"|".join(sorted(codes)) == entry.code
            norm = normalize_twists(entry.graph)
            assert (not any(norm.twists)) == (orientability(entry.graph) == 1)
            assert topology(norm) == entry.topology


def test_budget_error():
    with pytest.raises(BudgetError):
        enumerate_graphs({3: 20})
    with pytest.raises(BudgetError):
        enumerate_graphs({3: 6}, half_edge_budget=10)


def test_pairing_sum_budget_error_names_the_gluings():
    # 17!! matchings, times 2**9 twist patterns in Moebius mode
    with pytest.raises(BudgetError, match=r"\(17643225600 labelled gluings: "
                                          r"34459425 matchings x 512 twist patterns\)"):
        labeled_pairing_sum([18])
    with pytest.raises(BudgetError, match=r"\(34459425 untwisted labelled gluings\)"):
        labeled_pairing_sum([18], mode="ribbon")


def test_every_catalog_route_names_the_gluings():
    # the labelled gluings bound the streams a catalog walk can complete:
    # with twists for the Moebius routes, untwisted for the ribbon ones
    from mobex.clt import clt_limit

    moebius = r"\(17643225600 labelled gluings: 34459425 matchings x 512 twist patterns\)"
    ribbon = r"\(34459425 untwisted labelled gluings\)"
    for route, text in ((lambda: enumerate_graphs([18]), moebius),
                        (lambda: enumerate_graphs([18], connected_only=False), moebius),
                        (lambda: census([18]), moebius),
                        (lambda: ribbon_classes([18]), ribbon),
                        (lambda: census([18], mode="ribbon"), ribbon),
                        (lambda: clt_limit(1, 9), ribbon)):
        with pytest.raises(BudgetError, match=text):
            route()


from hypothesis import given, settings
import hypothesis.strategies as st


@st.composite
def connected_two_vertex_graphs(draw):
    # two vertices joined by 2..3 edges plus optional loops, random twists
    bridges = draw(st.integers(2, 3))
    loops = draw(st.integers(0, 1))
    n = 2 * bridges + 4 * loops
    rot_a = list(range(bridges)) + list(range(2 * bridges, 2 * bridges + 2 * loops))
    rot_b = list(range(bridges, 2 * bridges)) + list(
        range(2 * bridges + 2 * loops, n))
    perm_a = draw(st.permutations(rot_a))
    perm_b = draw(st.permutations(rot_b))
    edges = [(i, bridges + i) for i in range(bridges)]
    for l in range(loops):
        edges.append((2 * bridges + 2 * l, 2 * bridges + 2 * l + 1))
        edges.append((2 * bridges + 2 * loops + 2 * l,
                      2 * bridges + 2 * loops + 2 * l + 1))
    twists = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return MoebiusGraph([perm_a, perm_b], edges, twists)


@settings(max_examples=40, deadline=None)
@given(connected_two_vertex_graphs(), st.integers(0, 1))
def test_canonical_code_quotients_flips_random(graph, vertex):
    code = canonical_code(graph)
    assert canonical_code(flip_vertex(graph, vertex)) == code
    # rotating the stored tuple of a rotation is the same cyclic order
    rotations = list(graph.rotations)
    rotations[0] = rotations[0][1:] + rotations[0][:1]
    assert canonical_code(MoebiusGraph(rotations, graph.edges, graph.twists)) == code
    assert automorphism_count(graph) == automorphism_count(flip_vertex(graph, vertex))
