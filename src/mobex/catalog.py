"""Enumeration of Moebius graphs up to isomorphism.

Isomorphism means: relabelling of same-valence vertices, cyclic rotation at
each vertex, and vertex flips (rotation reversal with the induced twist
toggles).  Ribbon isomorphism drops the flips.

Canonical form and automorphism order both come from one primitive: a
breadth-first traversal started at a flag (half-edge, local direction).
The traversal relabels half-edges and emits an integer stream that
reconstructs the graph; twists are recorded relative to the traversal's
spanning tree, so flip-equivalent twist data collapses automatically.  The
minimum stream over all starting flags is the canonical code, and the
number of flags attaining it is the automorphism order, because a
structure map is fixed by the image of a single flag on a connected graph.
Restricting the competition to positive-direction flags on an untwisted
graph yields the ribbon (orientation-preserving) variants.

The connected Moebius catalog is built by orderly generation (Read, "Every
one a winner", 1978): a depth-first walk writes every stream a traversal
from a maximal-valence flag could emit, and a stream is kept only if no
flag of the graph it encodes beats it.  Each class appears exactly once,
because its canonical code is itself such a stream and is the only one of
its streams that survives the competition.  The ribbon catalog and the
labelled pairing sum still sweep labelled matchings; they are the
independent routes the generated catalog is checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetError, UsageError
from .graphs import (MoebiusGraph, TopologyProfile, _face_walks, _vertex_forest, flip_vertex,
                     topology)
from .npoly import NPoly

HALF_EDGE_BUDGET = 16

ProfileKey = Tuple[int, ...]  # valence multiset, sorted descending


# -- degree profiles ----------------------------------------------------------

def profile_key(profile) -> ProfileKey:
    """Normalize {valence: count} dicts or valence sequences to a sorted tuple."""
    if isinstance(profile, dict):
        valences: List[int] = []
        for j, count in profile.items():
            if j < 1 or count < 0:
                raise UsageError("valences must be >= 1 with non-negative counts")
            valences.extend([j] * count)
    else:
        valences = list(profile)
    if not valences:
        raise UsageError("a degree profile needs at least one vertex")
    if any(j < 1 for j in valences):
        raise UsageError("valences must be >= 1")
    if sum(valences) % 2:
        raise UsageError("total valence must be even (half-edges pair up)")
    return tuple(sorted(valences, reverse=True))


def profile_dict(key: ProfileKey) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for j in key:
        out[j] = out.get(j, 0) + 1
    return out


@dataclass(frozen=True)
class GraphCatalogEntry:
    graph: MoebiusGraph
    code: bytes
    aut_moebius: int
    aut_ribbon: Optional[int]  # None for non-orientable classes
    topology: TopologyProfile


# -- canonical traversal -------------------------------------------------------

def _graph_arrays(graph: MoebiusGraph):
    return (tuple(len(r) for r in graph.rotations), graph._succ, graph._pred,
            graph._vertex_of, graph._partner, graph._edge_of, graph.twists)


def _traverse(h0, d0, valences, succ, pred, vertex_of, partner, edge_of, twists, best):
    """Emit the label stream for the flag (h0, d0).

    Returns (stream, tied) where tied means equal to ``best``; returns
    (None, False) as soon as the stream exceeds ``best``.
    """
    n = len(partner)
    label = [-1] * n
    order = [0] * n
    dirv = [0] * len(valences)
    out = []
    better = best is None

    def push(tok, k):
        nonlocal better
        if not better:
            ref = best[k]
            if tok > ref:
                return False
            if tok < ref:
                better = True
        out.append(tok)
        return True

    def discover(h, d, base):
        v = vertex_of[h]
        dirv[v] = d
        cur = h
        step = succ if d == 0 else pred
        for i in range(valences[v]):
            label[cur] = base + i
            order[base + i] = cur
            cur = step[cur]

    v0 = vertex_of[h0]
    if not push(-valences[v0], 0):
        return None, False
    discover(h0, d0, 0)
    next_free = valences[v0]

    for i in range(n):
        h = order[i]
        p = partner[h]
        if label[p] == -1:
            d2 = dirv[vertex_of[h]] ^ twists[edge_of[h]]
            if not push(-valences[vertex_of[p]], i + 1):
                return None, False
            discover(p, d2, next_free)
            next_free += valences[vertex_of[p]]
        else:
            eff = twists[edge_of[h]] ^ dirv[vertex_of[h]] ^ dirv[vertex_of[p]]
            if not push((label[p] << 1) | eff, i + 1):
                return None, False
    return out, not better


def _canon(valences, succ, pred, vertex_of, partner, edge_of, twists,
           directions=(0, 1), best=None):
    """Canonical stream plus flag counts (all flags / positive flags).

    The competition runs over start flags at maximal-valence vertices in
    the given local directions; ``(0,)`` keeps positive flags only, the
    ribbon (flip-free) competition.  Given a candidate stream ``best``
    that one of the flags emits, the competition is a canonicity test: it
    returns None as soon as a flag beats the candidate.
    """
    candidate = best is not None
    n = len(partner)
    maxval = max(valences)
    count_all = 0
    count_plus = 0
    for h0 in range(n):
        if valences[vertex_of[h0]] != maxval:
            continue
        for d0 in directions:
            stream, tied = _traverse(h0, d0, valences, succ, pred, vertex_of,
                                     partner, edge_of, twists, best)
            if stream is None:
                continue
            if tied:
                count_all += 1
                count_plus += (d0 == 0)
            elif candidate:
                return None
            else:
                best = stream
                count_all = 1
                count_plus = 1 if d0 == 0 else 0
    return tuple(best), count_all, count_plus


def _stream_pairing(stream: Tuple[int, ...]):
    """Partner, edge and twist arrays of the half-edges a stream labels.

    Each half-edge serves as its own edge index, so ``twists`` holds an
    edge's twist at both of its ends; tree edges are untwisted.
    """
    n = len(stream) - 1
    partner = [0] * n
    twists = [False] * n
    next_free = -stream[0]
    for i, tok in enumerate(stream[1:]):
        if tok < 0:
            partner[i], partner[next_free] = next_free, i
            next_free -= tok
        elif tok >> 1 > i:
            j = tok >> 1
            partner[i], partner[j] = j, i
            twists[i] = twists[j] = bool(tok & 1)
    return partner, range(n), twists


def _graph_from_stream(stream: Tuple[int, ...]) -> MoebiusGraph:
    """Rebuild the canonical representative graph encoded by a stream."""
    partner, _, twists = _stream_pairing(stream)
    lower = [h for h, p in enumerate(partner) if h < p]
    return MoebiusGraph(_blocks(-tok for tok in stream if tok < 0),
                        [(h, partner[h]) for h in lower], [twists[h] for h in lower])


def _stream_to_bytes(stream: Tuple[int, ...]) -> bytes:
    return ",".join(str(t) for t in stream).encode()


def _component_split(graph: MoebiusGraph) -> List[MoebiusGraph]:
    comp = graph._forest()[0]
    n_comp = max(comp, default=0) + 1
    if n_comp == 1:
        return [graph]
    parts = []
    for c in range(n_comp):
        verts = [v for v in range(graph.n_vertices) if comp[v] == c]
        relabel = {}
        for v in verts:
            for h in graph.rotations[v]:
                relabel[h] = len(relabel)
        rotations = [tuple(relabel[h] for h in graph.rotations[v]) for v in verts]
        edges = []
        twists = []
        for idx, (a, b) in enumerate(graph.edges):
            if a in relabel:
                edges.append((relabel[a], relabel[b]))
                twists.append(graph.twists[idx])
        parts.append(MoebiusGraph(rotations, edges, twists))
    return parts


def canonical_code(graph: MoebiusGraph) -> bytes:
    """Equal codes iff isomorphic over relabelling, rotations and flips."""
    parts = _component_split(graph)
    codes = []
    for part in parts:
        if part.n_half_edges == 0:
            codes.append(b"v0")
            continue
        stream, _, _ = _canon(*_graph_arrays(part))
        codes.append(_stream_to_bytes(stream))
    return b"|".join(sorted(codes))


def normalize_twists(graph: MoebiusGraph) -> MoebiusGraph:
    """Flip vertices to zero out twists along a spanning forest.

    Orientable graphs come back twist-free; non-orientable ones keep the
    odd cycle parities on non-forest edges.
    """
    for v, flip in enumerate(graph._forest()[1]):
        if flip:
            graph = flip_vertex(graph, v)
    return graph


def automorphism_count(graph: MoebiusGraph, mode: str = "moebius") -> int:
    """Order of the automorphism group; ribbon mode excludes flips."""
    if not graph.is_connected():
        raise UsageError("automorphism_count requires a connected graph")
    if graph.n_half_edges == 0:
        return 1
    if mode == "moebius":
        _, count, _ = _canon(*_graph_arrays(graph))
        return count
    if mode == "ribbon":
        from .graphs import orientability
        if orientability(graph) != 1:
            raise UsageError("ribbon automorphisms need an orientable graph")
        norm = normalize_twists(graph)
        assert not any(norm.twists)
        _, count_all, count_plus = _canon(*_graph_arrays(norm))
        return _ribbon_order(count_all, count_plus)
    raise UsageError("mode must be 'moebius' or 'ribbon'")


def _ribbon_order(count_all: int, count_plus: int) -> int:
    """Orientation-preserving order from the two flag counts.

    For an achiral class both flag signs hit the minimum (half each); for a
    chiral class only one sign does, and the full count already equals the
    ribbon order of either mirror image.
    """
    if 0 < count_plus < count_all:
        return count_plus
    return count_all


# -- exhaustive generation -----------------------------------------------------

def _blocks(sizes) -> List[Tuple[int, ...]]:
    """Rotations over consecutive half-edge blocks, one block per vertex."""
    rotations = []
    base = 0
    for size in sizes:
        rotations.append(tuple(range(base, base + size)))
        base += size
    return rotations


def _layout(key: ProfileKey):
    """Half-edge layout of a valence sequence: rotation arrays, no edges yet."""
    g = MoebiusGraph(_blocks(key), [], [], check=False)
    return g.rotations, g._succ, g._pred, g._vertex_of


def _matchings(items: List[int]) -> Iterator[List[Tuple[int, int]]]:
    if not items:
        yield []
        return
    a = items[0]
    for i in range(1, len(items)):
        b = items[i]
        rest = items[1:i] + items[i + 1:]
        for tail in _matchings(rest):
            yield [(a, b)] + tail


def _check_budget(key: ProfileKey, budget: int) -> None:
    n = sum(key)
    if n > budget:
        raise BudgetError("profile %s needs %d half-edges (%d matchings), budget is %d"
                          % (profile_dict(key), n, prod(range(n - 1, 0, -2)), budget))


def _pairings(n: int):
    """Every matching of half-edges 0..n-1 as (edges, partner, edge_of) arrays."""
    for pairs in _matchings(list(range(n))):
        partner = [0] * n
        edge_of = [0] * n
        for idx, (a, b) in enumerate(pairs):
            partner[a], partner[b] = b, a
            edge_of[a] = edge_of[b] = idx
        yield tuple(pairs), partner, edge_of


def _connected_matchings(rotations, vertex_of):
    """Pairings of the layout's half-edges whose vertex graph is connected.

    Yields (partner, edge_of) arrays.
    """
    n = len(vertex_of)
    untwisted = [False] * (n // 2)
    for _, partner, edge_of in _pairings(n):
        comp = _vertex_forest(rotations, vertex_of, partner, edge_of, untwisted)[0]
        if max(comp) == 0:
            yield partner, edge_of


def _bfs_streams(key: ProfileKey) -> Iterator[Tuple[int, ...]]:
    """Every label stream ``_traverse`` can emit from a maximal-valence flag
    of a connected graph with valence multiset ``key``.

    A depth-first walk builds the stream position by position.  The start
    vertex has maximal valence; an unmatched position i either opens a new
    vertex of a remaining valence w (token -w, a tree edge, whose far end
    owes the token i << 1) or pairs with a later labelled, unmatched
    half-edge j through an edge of relative twist eff (token (j << 1) | eff,
    j owing (i << 1) | eff); a matched position emits the token it is owed.
    A walk that runs out of labelled half-edges before every vertex is
    placed would be disconnected and stops.
    """
    n = sum(key)
    left = Counter(key[1:])
    stream = [-key[0]]
    owed: List[Optional[int]] = [None] * n

    def walk(i: int, labelled: int) -> Iterator[Tuple[int, ...]]:
        if i == n:
            yield tuple(stream)
            return
        if i == labelled:
            return
        tok = owed[i]
        if tok is not None:
            stream.append(tok)
            yield from walk(i + 1, labelled)
            stream.pop()
            return
        for w in left:
            if left[w]:
                left[w] -= 1
                owed[labelled] = i << 1
                stream.append(-w)
                yield from walk(i + 1, labelled + w)
                stream.pop()
                owed[labelled] = None
                left[w] += 1
        for j in range(i + 1, labelled):
            if owed[j] is None:
                for eff in (0, 1):
                    owed[j] = (i << 1) | eff
                    stream.append((j << 1) | eff)
                    yield from walk(i + 1, labelled)
                    stream.pop()
                owed[j] = None

    return walk(0, key[0])


@lru_cache(maxsize=None)
def _connected_catalog(key: ProfileKey) -> Tuple[GraphCatalogEntry, ...]:
    # Orderly generation: a class's canonical code is itself a BFS-normal
    # stream (the one its minimal flags emit), and it is the only stream of
    # the class that no flag of its own graph beats, so keeping the streams
    # that win their competition yields each class exactly once.
    layouts = {}
    entries = []
    for stream in _bfs_streams(key):
        blocks = tuple(-tok for tok in stream if tok < 0)
        if blocks not in layouts:
            layouts[blocks] = _layout(blocks)
        _, succ, pred, vertex_of = layouts[blocks]
        partner, edge_of, twists = _stream_pairing(stream)
        won = _canon(blocks, succ, pred, vertex_of, partner, edge_of, twists,
                     best=stream)
        if won is None:
            continue
        _, count_all, count_plus = won
        rep = _graph_from_stream(stream)
        entries.append(GraphCatalogEntry(
            graph=rep,
            code=_stream_to_bytes(stream),
            aut_moebius=count_all,
            aut_ribbon=None if any(twists) else _ribbon_order(count_all, count_plus),
            topology=topology(rep)))
    return tuple(sorted(entries, key=lambda entry: entry.code))


def _subprofiles(key: ProfileKey) -> Iterator[Tuple[ProfileKey, ProfileKey]]:
    """Split a valence multiset into (part containing the first element, rest)."""
    rest = key[1:]
    m = len(rest)
    for mask in range(1 << m):
        part = [key[0]]
        other = []
        for i in range(m):
            (part if (mask >> i) & 1 else other).append(rest[i])
        if sum(part) % 2 == 0:
            yield tuple(part), tuple(other)


@lru_cache(maxsize=None)
def _full_catalog(key: ProfileKey) -> Tuple[GraphCatalogEntry, ...]:
    """Connected and disconnected classes, composed from connected catalogs."""
    out: Dict[bytes, GraphCatalogEntry] = {}

    def unions(remaining: ProfileKey) -> Iterator[List[GraphCatalogEntry]]:
        if not remaining:
            yield []
            return
        for part, rest in _subprofiles(remaining):
            for entry in _connected_catalog(part):
                for tail in unions(rest):
                    yield [entry] + tail

    seen_multisets = set()
    for combo in unions(key):
        fingerprint = tuple(sorted(c.code for c in combo))
        if fingerprint in seen_multisets:
            continue
        seen_multisets.add(fingerprint)
        if len(combo) == 1:
            entry = combo[0]
            out[entry.code] = entry
            continue
        # repeated components add their permutations to either group
        sym = prod(factorial(m) for m in Counter(c.code for c in combo).values())
        aut = sym * prod(c.aut_moebius for c in combo)
        ribbon = None
        if all(c.aut_ribbon is not None for c in combo):
            # convention: value of the all-equal-orientation representative
            ribbon = sym * prod(c.aut_ribbon for c in combo)
        graph = _disjoint_union([c.graph for c in combo])
        code = canonical_code(graph)
        out[code] = GraphCatalogEntry(
            graph=graph, code=code, aut_moebius=aut,
            aut_ribbon=ribbon, topology=topology(graph))
    return tuple(out[c] for c in sorted(out))


def _disjoint_union(parts: Sequence[MoebiusGraph]) -> MoebiusGraph:
    rotations = []
    edges = []
    twists = []
    base = 0
    for g in parts:
        rotations.extend(tuple(h + base for h in rot) for rot in g.rotations)
        edges.extend((a + base, b + base) for a, b in g.edges)
        twists.extend(g.twists)
        base += g.n_half_edges
    return MoebiusGraph(rotations, edges, twists)


def enumerate_graphs(profile, connected_only: bool = True,
                     half_edge_budget: int = HALF_EDGE_BUDGET
                     ) -> List[GraphCatalogEntry]:
    """One catalog entry per isomorphism class with the given valence profile."""
    key = profile_key(profile)
    _check_budget(key, half_edge_budget)
    if connected_only:
        return list(_connected_catalog(key))
    return list(_full_catalog(key))


# -- ribbon-only enumeration (independent of the Moebius catalog) --------------

@lru_cache(maxsize=None)
def _ribbon_catalog(key: ProfileKey) -> Tuple[Tuple[bytes, int, TopologyProfile], ...]:
    """Connected ribbon classes: untwisted matchings modulo rotations only.

    A deliberate independent route to the ribbon classes: it never builds
    the Moebius catalog nor uses its flip quotient, so criterion 9 (the
    Moebius/ribbon factor-two identity) and the ribbon orbit-stabilizer
    and hermitian-tag tests compare two separate enumerations.
    """
    rotations, succ, pred, vertex_of = _layout(key)
    untwisted = [False] * (sum(key) // 2)
    classes: Dict[Tuple[int, ...], Tuple[bytes, int, TopologyProfile]] = {}
    for partner, edge_of in _connected_matchings(rotations, vertex_of):
        stream, aut, _ = _canon(key, succ, pred, vertex_of, partner, edge_of,
                                untwisted, directions=(0,))
        if stream not in classes:
            rep = _graph_from_stream(stream)
            classes[stream] = (_stream_to_bytes(stream), aut, topology(rep))
    return tuple(classes[s] for s in sorted(classes))


def ribbon_classes(profile, half_edge_budget: int = HALF_EDGE_BUDGET):
    """Connected ribbon classes as (code, aut_ribbon, topology) triples."""
    key = profile_key(profile)
    _check_budget(key, half_edge_budget)
    return list(_ribbon_catalog(key))


# -- labelled pairing sums ------------------------------------------------------

def weight_nf(graph: MoebiusGraph) -> NPoly:
    """N**f, the faces counted by the flat face walk behind ``trace_faces``."""
    return NPoly.N(len(_face_walks(graph)))


def labeled_pairing_sum(profile, weight_rule=weight_nf, mode: str = "moebius",
                        half_edge_budget: int = HALF_EDGE_BUDGET) -> NPoly:
    """Sum over all labelled gluings, divided by the layout symmetry order.

    Moebius mode runs over matchings times twist assignments with symmetry
    order prod_j v_j! (2j)**v_j; ribbon mode keeps only untwisted matchings
    with the flip-free order prod_j v_j! j**v_j.  With the weight N**f both
    reproduce sum(N**f / |Aut|) over their class sets exactly
    (orbit-stabilizer), which is the self-check the catalog leans on.

    Each matching's partner and edge arrays are built once and every
    gluing is a graph that shares them and the layout's rotation arrays;
    ``weight_rule`` sees each gluing once, and identical weights are
    tallied and summed into one ``NPoly`` at the end.

    A deliberate independent route: it visits every labelled gluing and
    never canonicalizes, so the pairing-sum and orbit-stabilizer tests can
    catch a class the catalog misses or an automorphism order it miscounts.
    """
    if mode not in ("moebius", "ribbon"):
        raise UsageError("mode must be 'moebius' or 'ribbon'")
    key = profile_key(profile)
    _check_budget(key, half_edge_budget)
    layout = _layout(key)
    n = sum(key)
    e = n // 2

    denom = Fraction(1)
    for j, count in profile_dict(key).items():
        for i in range(2, count + 1):
            denom *= i
        denom *= (Fraction(2 * j) if mode == "moebius" else Fraction(j)) ** count

    twist_range = range(1 << e) if mode == "moebius" else range(1)
    patterns = [tuple(bool((bits >> i) & 1) for i in range(e)) for bits in twist_range]
    tally = Counter(weight_rule(MoebiusGraph._on_layout(layout, edges, partner, edge_of, twists))
                    for edges, partner, edge_of in _pairings(n) for twists in patterns)
    total = NPoly.zero()
    for w, count in tally.items():
        total = total + (w if isinstance(w, NPoly) else NPoly.const(w)) * count
    return total * (Fraction(1) / denom)
