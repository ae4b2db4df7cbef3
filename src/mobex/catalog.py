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

Both connected catalogs are built by orderly generation (Read, "Every one
a winner", 1978): a depth-first walk writes every stream a traversal from
a maximal-valence flag could emit, and a stream is kept only if no flag of
the graph it encodes beats it.  Each class appears exactly once, because
its canonical code is itself such a stream and is the only one of its
streams that survives the competition.  The walk keeps the arrays of the
graph a stream encodes live, so each stream is tested in place: the flag
that emitted it ties without a traversal, and every other flag stops at
its first token that differs from the stream.  Two rules settle most
competitions from O(1) reads of those arrays, before any traversal.
Rule 1, in the walk: a placed edge fixes the first token of each
maximal-valence flag at its ends (-valence for a partner on another
vertex, (rotation distance << 1) | twist for a loop), and a token below
the stream's own first token cuts the branch.  Rule 2, in the canonicity
test: each flag's first two tokens are read from the arrays; a larger
one drops the flag, a smaller one rejects the stream, and only a tie is
traversed.  Both are exact, since streams are compared token by token
and the first differing token decides, and a flag's first token never
changes once its edge is placed.  Full mode (``canonical_code``,
``automorphism_count``) uses neither.  The Moebius catalog walks
twisted streams under the full competition, the ribbon catalog untwisted
streams under the positive-flag one.  Each winner's surface is read off
the walk's arrays, so ``census`` sums 1/|Aut| by surface with no graph
built; only the per-class outputs (``enumerate_graphs``) rebuild one
representative graph per class.  The labelled pairing sum (both
modes) sums over every labelled gluing on one depth-first gluing tree,
memoized on the open-path state so that gluings reaching the same state
share their completions, and never canonicalizes; it counts faces by
joining the face map's open paths edge by edge, independently of the
graph module's face walk.  Its first edge is tried
once per orbit of the layout symmetries that fix half-edge 0, the
gluings below counting the orbit's size, since those symmetries keep
face counts.  It and the tests' own matching sweeps are the independent
routes the catalogs are checked against.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lgamma, log, log10, prod
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import HALF_EDGE_BUDGET, BudgetError, StructuralError, UsageError, figure
from .graphs import (MoebiusGraph, TopologyProfile, _graph_arrays, _topology, flip_vertex,
                     orientability, topology)
from .npoly import NPoly

ProfileKey = Tuple[int, ...]  # valence multiset, sorted descending
_TWIST_BITS = {"moebius": (0, 1), "ribbon": (0,)}  # a mode's edge twists, flag directions


# -- degree profiles ----------------------------------------------------------

def profile_dict(profile) -> Dict[int, int]:
    """Validated {valence: count} of a dict or a valence sequence, by
    descending valence, with no count expanded into a list."""
    if isinstance(profile, dict):
        if any(j < 1 or count < 0 for j, count in profile.items()):
            raise UsageError("valences must be >= 1 with non-negative counts")
        counts = profile
    else:
        counts = Counter(profile)
        if any(j < 1 for j in counts):
            raise UsageError("valences must be >= 1")
    out = {j: counts[j] for j in sorted(counts, reverse=True) if counts[j]}
    if not out:
        raise UsageError("a degree profile needs at least one vertex")
    if sum(j * count for j, count in out.items()) % 2:
        raise UsageError("total valence must be even (half-edges pair up)")
    return out


def profile_key(profile) -> ProfileKey:
    """Normalize {valence: count} dicts or valence sequences to a sorted tuple."""
    return tuple(j for j, count in profile_dict(profile).items() for _ in range(count))


class GraphCatalogEntry(NamedTuple):
    graph: MoebiusGraph
    code: bytes
    aut_moebius: int
    aut_ribbon: Optional[int]  # None for non-orientable classes
    topology: TopologyProfile


# -- canonical traversal -------------------------------------------------------

def _traverse(h0, d0, valences, succ, pred, vertex_of, partner, edge_of, twists,
              best, candidate):
    """Compare the label stream of the flag (h0, d0) with ``best``, token by token.

    Returns (1, None) at the first token above ``best`` and (0, None) when
    the stream equals it, building no output list for either.  At the
    first token below ``best`` a canonicity test (``candidate``) returns
    (-1, None) at once; otherwise the stream is finished from the shared
    prefix and returned as (-1, stream).  With no ``best`` the whole stream
    comes back as (-1, stream).  Start flags sit at maximal-valence
    vertices, so the first token always ties.
    """
    n = len(partner)
    label = [-1] * n
    order = [0] * n
    dirv = [0] * len(valences)
    v = vertex_of[h0]
    dirv[v] = d0
    step = pred if d0 else succ
    h = h0
    for k in range(valences[v]):
        label[h] = k
        order[k] = h
        h = step[h]
    next_free = valences[v]
    out = None if best is not None else [-valences[v]]

    for i in range(n):
        h = order[i]
        p = partner[h]
        if label[p] == -1:
            tok = -valences[vertex_of[p]]
        else:
            tok = (label[p] << 1) | (twists[edge_of[h]] ^ dirv[vertex_of[h]]
                                     ^ dirv[vertex_of[p]])
        if out is not None:
            out.append(tok)
        elif tok != best[i + 1]:
            if tok > best[i + 1]:
                return 1, None
            if candidate:
                return -1, None
            out = list(best[:i + 1])
            out.append(tok)
        if tok < 0:
            # a tree edge: label the new vertex from p on, in its direction
            v = vertex_of[p]
            d = dirv[vertex_of[h]] ^ twists[edge_of[h]]
            dirv[v] = d
            step = pred if d else succ
            for k in range(next_free, next_free + valences[v]):
                label[p] = k
                order[k] = p
                p = step[p]
            next_free += valences[v]
    return (0, None) if out is None else (-1, out)


def _head_sign(h0, d0, valences, succ, pred, vertex_of, partner, edge_of, twists,
               best) -> int:
    """Sign of the first two tokens of the flag (h0, d0) against best[1:3].

    Read from the arrays without a traversal: token 1 is -valence for a
    partner on another vertex u, or (rotation distance << 1) | twist for a
    loop; token 2 comes from the next half-edge around h0, whose partner
    sits on h0's vertex, on u (labelled from partner[h0] on, in u's
    direction) or on an unlabelled vertex.  Rotation distance is read as
    (p - h) mod w, which holds only on block layouts, where each vertex
    holds consecutive half-edges in rotation order: the layouts of the
    walk in ``_orderly`` and of ``_graph_from_stream``.  With maximal
    valence 1 the second token is not read (0: a tie).
    """
    v = vertex_of[h0]
    w = valences[v]
    p = partner[h0]
    t = twists[edge_of[h0]]
    u = vertex_of[p]
    tok = -valences[u] if u != v else (((h0 - p if d0 else p - h0) % w) << 1) | t
    if tok != best[1] or w == 1:
        return (tok > best[1]) - (tok < best[1])
    h1 = pred[h0] if d0 else succ[h0]
    p1 = partner[h1]
    t1 = twists[edge_of[h1]]
    u1 = vertex_of[p1]
    if u1 == v:
        tok = (((h0 - p1 if d0 else p1 - h0) % w) << 1) | t1
    elif u1 == u:  # u is labelled w, w + 1, ... from p on, in direction d0 ^ t
        tok = ((w + (p - p1 if d0 ^ t else p1 - p) % valences[u]) << 1) | (t1 ^ t)
    else:
        tok = -valences[u1]
    return (tok > best[2]) - (tok < best[2])


def _canon(valences, succ, pred, vertex_of, partner, edge_of, twists,
           directions=(0, 1), best=None):
    """Canonical stream plus flag counts (all flags / positive flags).

    The competition runs over start flags at maximal-valence vertices in
    the given local directions; ``(0,)`` keeps positive flags only, the
    ribbon (flip-free) competition.  Full mode (no ``best``) returns the
    minimal stream.  Given the stream ``best`` that flag (0, 0) emits, the
    competition is a canonicity test: that flag is counted as a tie
    without a traversal, and the test returns None as soon as a flag
    beats the candidate.  Every other flag first compares its first two
    tokens, read from the arrays by ``_head_sign`` (rule 2): a larger one
    drops the flag and a smaller one rejects the candidate at once, both
    exact because a stream that differs first at a token is ordered by
    that token.  Only a tie is traversed, stopping at its first token that
    differs from ``best``.  Candidate mode reads rotation distances as
    (p - h) mod w, so it runs only on block layouts (``_orderly``,
    ``_graph_from_stream``); full mode takes any layout.
    """
    candidate = best is not None
    n = len(partner)
    maxval = max(valences)
    count_all = count_plus = 1 if candidate else 0
    for h0 in range(n):
        if valences[vertex_of[h0]] != maxval:
            continue
        for d0 in directions:
            if candidate:
                if h0 == 0 and d0 == 0:
                    continue
                sign = _head_sign(h0, d0, valences, succ, pred, vertex_of, partner,
                                  edge_of, twists, best)
                if sign > 0:
                    continue
                if sign < 0:
                    return None
            sign, stream = _traverse(h0, d0, valences, succ, pred, vertex_of,
                                     partner, edge_of, twists, best, candidate)
            if sign > 0:
                continue
            if sign == 0:
                count_all += 1
                count_plus += (d0 == 0)
            elif candidate:
                return None
            else:
                best = stream
                count_all = 1
                count_plus = 1 if d0 == 0 else 0
    return tuple(best), count_all, count_plus


def _graph_from_stream(stream: Tuple[int, ...]) -> MoebiusGraph:
    """Rebuild the canonical representative graph encoded by a stream.

    Half-edges keep their stream labels; tree edges are untwisted.
    """
    edges = []
    twists = []
    next_free = -stream[0]
    for i, tok in enumerate(stream[1:]):
        if tok < 0:
            edges.append((i, next_free))
            twists.append(False)
            next_free -= tok
        elif tok >> 1 > i:
            edges.append((i, tok >> 1))
            twists.append(bool(tok & 1))
    return MoebiusGraph(_blocks(-tok for tok in stream if tok < 0), edges, twists)


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
    if mode not in _TWIST_BITS:
        raise UsageError("mode must be 'moebius' or 'ribbon'")
    if mode == "ribbon":
        if orientability(graph) != 1:
            raise UsageError("ribbon automorphisms need an orientable graph")
        graph = normalize_twists(graph)
        assert not any(graph.twists)
    return _canon(*_graph_arrays(graph), directions=_TWIST_BITS[mode])[1]


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
    rotations = _blocks(key)
    succ = [h for rot in rotations for h in rot[1:] + rot[:1]]
    pred = [h for rot in rotations for h in rot[-1:] + rot[:-1]]
    return rotations, succ, pred, [v for v, rot in enumerate(rotations) for _ in rot]


def _budgeted_key(profile, budget: int, mode: str) -> ProfileKey:
    """The profile's key, after refusing more than ``budget`` half-edges.

    The refusal comes before any list or huge integer is built and names
    the predicted cost: the mode's labelled gluings, (n-1)!! matchings
    times 2 ** (n/2) twist patterns, or untwisted in ribbon mode.  They
    bound every route's work: a pairing sum has one term per gluing (its
    walk shares each state's completions), and the streams a catalog walk
    completes are flags up to automorphism, which the gluings outnumber.
    """
    if mode not in _TWIST_BITS:
        raise UsageError("mode must be 'moebius' or 'ribbon'")
    counts = profile_dict(profile)
    n = sum(j * count for j, count in counts.items())
    if n > budget:
        e = n // 2
        log_matchings = (lgamma(n + 1) - lgamma(e + 1)) / log(10) - e * log10(2)
        matchings = figure(log_matchings, lambda: prod(range(n - 1, 0, -2)))
        if mode == "ribbon":
            cost = "%s untwisted labelled gluings" % matchings
        else:
            cost = "%s labelled gluings: %s matchings x %s twist patterns" % (
                figure(log_matchings + e * log10(2), lambda: prod(range(n - 1, 0, -2)) << e),
                matchings, figure(e * log10(2), lambda: 1 << e))
        raise BudgetError("profile %s needs %d half-edges (%s), budget is %d"
                          % (counts, n, cost, budget))
    return profile_key(counts)


def _orderly(key: ProfileKey, directions: Tuple[int, ...]
             ) -> List[Tuple[Tuple[int, ...], int, int, TopologyProfile]]:
    """(stream, count_all, count_plus, topology) for each class of ``key``.

    Orderly generation: a class's canonical code is itself a BFS-normal
    stream (the one its minimal flags emit), and it is the only stream of
    the class that no flag of its own graph beats, so keeping the streams
    that win their competition yields each class exactly once.

    A depth-first walk writes every stream ``_traverse`` can emit from a
    maximal-valence flag of a connected graph with valence multiset
    ``key``, with the relative twists ``directions`` on non-tree edges
    (the positive-flag competition ``(0,)`` runs on untwisted streams).
    The start vertex has maximal valence; an unmatched position i either
    opens a new vertex of a remaining valence w (token -w, a tree edge,
    whose far end owes the token i << 1) or pairs with a later labelled,
    unmatched half-edge j through an edge of relative twist eff (token
    (j << 1) | eff, j owing (i << 1) | eff); a matched position emits the
    token it is owed.  A walk that runs out of labelled half-edges before
    every vertex is placed would be disconnected and stops.  The walk keeps
    the arrays of the graph a stream encodes (each half-edge its own edge
    index, tree edges untwisted) live as it places vertices and edges, so
    each complete stream is tested on them in place, where flag (0, 0)
    emits it, and a winner's surface is read from them (``graphs._topology``;
    orientable iff ``not any(twists)``, since tree edges are untwisted).

    Rule 1 cuts a branch once it cannot win: each placed edge fixes the
    first token of every maximal-valence flag at its two ends, -w for a
    partner on another vertex of valence w, or (d << 1) | eff for a loop
    whose ends lie d apart around the vertex in the flag's direction.  The
    smallest such d is the shorter arc between the ends, which the
    positive flags at the two ends already read, so the ribbon competition
    cuts on the same token.  Every start flag emits stream[0], so a token
    below stream[1] makes its flag beat every completion of the branch,
    and the walk skips them all.  The cut is exact: the token depends only
    on the edge and the valences at its ends, which later steps never
    change, and a stream that no cut removes still faces the whole
    canonicity test.
    """
    n = sum(key)
    top = key[0]
    left = Counter(key[1:])
    stream = [-key[0]]
    owed: List[Optional[int]] = [None] * n
    valences: List[int] = []
    succ = [0] * n
    pred = [0] * n
    vertex_of = [0] * n
    partner = [0] * n
    twists = [0] * n
    edge_of = range(n)
    winners = []

    def place(base: int, w: int) -> None:
        """Open a vertex of valence w on half-edges base .. base + w - 1."""
        v = len(valences)
        valences.append(w)
        for k in range(w):
            vertex_of[base + k] = v
            succ[base + k] = base + (k + 1) % w
            pred[base + k] = base + (k - 1) % w

    def beaten(a: int, b: int, eff: int) -> bool:
        """Rule 1: a maximal-valence flag at an end of the edge (a, b) just
        placed emits a first token below stream[1], so every completion loses."""
        va, vb = vertex_of[a], vertex_of[b]
        if va == vb:  # a loop, a < b on one block: the shorter arc between its ends
            w = valences[va]
            return w == top and (min(b - a, a - b + w) << 1 | eff) < stream[1]
        return ((valences[va] == top and -valences[vb] < stream[1])
                or (valences[vb] == top and -valences[va] < stream[1]))

    def walk(i: int, labelled: int) -> None:
        mark = len(stream)
        while i < n and owed[i] is not None:
            stream.append(owed[i])
            i += 1
        if i == n:
            won = _canon(valences, succ, pred, vertex_of, partner, edge_of, twists,
                         directions, stream)
            if won is not None:
                winners.append(won + (_topology(valences, succ, pred, vertex_of, partner,
                                                edge_of, twists, -1 if any(twists) else 1),))
        elif i < labelled:
            for w in left:
                if left[w]:
                    left[w] -= 1
                    place(labelled, w)
                    partner[i], partner[labelled] = labelled, i
                    twists[i] = twists[labelled] = 0
                    owed[labelled] = i << 1
                    stream.append(-w)
                    if not beaten(i, labelled, 0):
                        walk(i + 1, labelled + w)
                    stream.pop()
                    owed[labelled] = None
                    valences.pop()
                    left[w] += 1
            for j in range(i + 1, labelled):
                if owed[j] is None:
                    partner[i], partner[j] = j, i
                    for eff in directions:
                        twists[i] = twists[j] = eff
                        owed[j] = (i << 1) | eff
                        stream.append((j << 1) | eff)
                        if not beaten(i, j, eff):
                            walk(i + 1, labelled)
                        stream.pop()
                    owed[j] = None
        del stream[mark:]

    place(0, key[0])
    walk(0, key[0])
    return winners


@lru_cache(maxsize=None)
def _connected_catalog(key: ProfileKey) -> Tuple[GraphCatalogEntry, ...]:
    entries = []
    for stream, count_all, count_plus, topo in _orderly(key, (0, 1)):
        entries.append(GraphCatalogEntry(
            graph=_graph_from_stream(stream),
            code=_stream_to_bytes(stream),
            aut_moebius=count_all,
            aut_ribbon=None if topo.natural == -1 else _ribbon_order(count_all, count_plus),
            topology=topo))
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

    for combo in unions(key):
        # a union's canonical code is its components' codes, sorted and joined
        code = b"|".join(sorted(c.code for c in combo))
        if code in out:
            continue
        if len(combo) == 1:
            out[code] = combo[0]
            continue
        # repeated components add their permutations to either group
        sym = prod(factorial(m) for m in Counter(c.code for c in combo).values())
        aut = sym * prod(c.aut_moebius for c in combo)
        ribbon = None
        if all(c.aut_ribbon is not None for c in combo):
            # convention: value of the all-equal-orientation representative
            ribbon = sym * prod(c.aut_ribbon for c in combo)
        graph = _disjoint_union([c.graph for c in combo])
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
    key = _budgeted_key(profile, half_edge_budget, "moebius")
    if connected_only:
        return list(_connected_catalog(key))
    return list(_full_catalog(key))


# -- ribbon-only enumeration (independent of the Moebius catalog) --------------

@lru_cache(maxsize=None)
def _ribbon_catalog(key: ProfileKey) -> Tuple[Tuple[bytes, int, TopologyProfile], ...]:
    """Connected ribbon classes: untwisted graphs modulo rotations only.

    Generated from untwisted streams under the positive-flag competition.
    A deliberate independent route to the ribbon classes: it never builds
    the Moebius catalog nor uses its flip quotient, so criterion 9 (the
    Moebius/ribbon factor-two identity) and the ribbon orbit-stabilizer
    and hermitian-tag tests compare the class sets of two separate
    competitions.
    """
    return tuple((_stream_to_bytes(stream), aut, topo)
                 for stream, aut, _, topo in sorted(_orderly(key, (0,))))


def ribbon_classes(profile, half_edge_budget: int = HALF_EDGE_BUDGET):
    """Connected ribbon classes as (code, aut_ribbon, topology) triples."""
    key = _budgeted_key(profile, half_edge_budget, "ribbon")
    return list(_ribbon_catalog(key))


# -- surface census ---------------------------------------------------------------

def census(profile, mode: str = "moebius", half_edge_budget: int = HALF_EDGE_BUDGET
           ) -> Tuple[Tuple[TopologyProfile, Fraction], ...]:
    """(surface, sum of 1/|Aut|) over the connected classes of a profile.

    A surface is a class's ``TopologyProfile``, all a class weight reads.
    The classes are those of ``enumerate_graphs`` (Moebius mode) or
    ``ribbon_classes`` (ribbon), read off the same walk with no graph built.
    """
    return _census(_budgeted_key(profile, half_edge_budget, mode), mode)


@lru_cache(maxsize=None)
def _census(key: ProfileKey, mode: str) -> Tuple[Tuple[TopologyProfile, Fraction], ...]:
    sums: Dict[TopologyProfile, Fraction] = {}
    for _, aut, _, topo in _orderly(key, _TWIST_BITS[mode]):
        sums[topo] = sums.get(topo, 0) + Fraction(1, aut)
    return tuple(sums.items())


# -- labelled pairing sums ------------------------------------------------------

def _first_edges(key: ProfileKey, twist_bits: Tuple[int, ...]
                 ) -> List[Tuple[int, Tuple[int, ...], int]]:
    """(b, twists, size): one first edge (0, b) at each of ``twists`` per orbit
    of the layout symmetries that fix half-edge 0, with the orbit's size.

    Those symmetries relabel, rotate and (with twists) flip the other
    vertices, which carries an edge to a vertex of valence j onto every
    half-edge of every other vertex of valence j, at each allowed twist.
    With twists vertex 0 also reflects through half-edge 0 (a flip, then a
    rotation), which sends the loop (0, k) to (0, j0 - k) and keeps its
    twist, since a flip toggles a loop at both ends.
    """
    j0 = key[0]
    if len(twist_bits) == 1:  # no flips: each loop (0, k) is an orbit of its own
        firsts = [(k, twist_bits, 1) for k in range(1, j0)]
    else:  # vertex 0's reflection pairs the loop (0, k) with (0, j0 - k)
        firsts = [(k, twist_bits, 1 if 2 * k == j0 else 2) for k in range(1, j0 // 2 + 1)]
    start = 0
    for j, count in profile_dict(key).items():
        others = count - (j == j0)
        if others:
            firsts.append((start + j0 * (j == j0), (0,), others * j * len(twist_bits)))
        start += j * count
    return firsts


def labeled_pairing_sum(profile, mode: str = "moebius",
                        half_edge_budget: int = HALF_EDGE_BUDGET) -> NPoly:
    """Sum of N**f over all labelled gluings, divided by the layout symmetry order.

    Moebius mode runs over matchings times twist assignments with symmetry
    order prod_j v_j! (2j)**v_j; ribbon mode keeps only untwisted matchings
    with the flip-free order prod_j v_j! j**v_j.  Both reproduce
    sum(N**f / |Aut|) over their class sets exactly (orbit-stabilizer).

    The gluings are the leaves of one depth-first tree: each step pairs
    the smallest free half-edge a with a later free b at each allowed twist
    t and adds that edge's four face-map arrows on the flat states 2*h + d
    (convention of ``graphs._face_walks``: (a, d) goes to (pred[b], 1) if
    d ^ t, else to (succ[b], 0), and likewise from b).  An arrow either
    joins two open paths, kept as ``head``/``tail`` arrays of their ends and
    undone on backtrack, or closes a cycle.  The face map's orbits come in
    mirror pairs, so a leaf's cycle count is twice its face count.

    The tree is memoized, for this call only (transfer-matrix method).
    After each placed edge the state is the set of free half-edges and, at
    each out-state 2*h + d of a free h, ``head``: the first state of the
    open path that ends there.  Every open path ends at such an out-state,
    and later joins read ``head``/``tail`` only at path ends, so the state
    fixes its completions.  The memo maps it to their tally {cycles closed
    below: leaves}, which each prefix reaching it shifts by the cycles it
    closed and scales by its weight.

    The first level is folded: half-edge 0's partner and twist are tried
    once per orbit of the layout symmetries that fix half-edge 0
    (``_first_edges``), and each leaf below counts that orbit's size.
    This is exact because such a symmetry maps the gluings whose first
    edge is (0, b, t) one-to-one onto those whose first edge is its image,
    and keeps each one's face count (relabelling, rotation and
    ``flip_vertex`` all preserve faces).

    A deliberate independent route: it never canonicalizes and counts
    faces without ``_face_walks``, so the pairing-sum and orbit-stabilizer
    tests can catch a class the catalog misses, an automorphism order it
    miscounts or a face walk that drifts.
    """
    key = _budgeted_key(profile, half_edge_budget, mode)
    twist_bits = _TWIST_BITS[mode]
    n = sum(key)
    _, succ, pred, _ = _layout(key)
    to_succ = [2 * succ[h] for h in range(n)]
    to_pred = [2 * pred[h] + 1 for h in range(n)]
    head = list(range(2 * n))  # at a path's last state: its first state
    tail = list(range(2 * n))  # at a path's first state: its last state
    free = [True] * n
    memo: Dict[Tuple[int, ...], Dict[int, int]] = {}

    def completions(left: int) -> Dict[int, int]:
        """{cycles closed below: leaves} over the completions of the current
        partial gluing, shared by every prefix that reaches its state."""
        c = free.index(True)
        state = tuple([head[x] if free[x >> 1] else -1 for x in range(2 * c, 2 * n)])
        found = memo.get(state)
        if found is None:
            found = memo[state] = glue(c, left, [(d, twist_bits, 1)
                                                 for d in range(c + 1, n) if free[d]])
        return found

    def glue(a: int, left: int, choices) -> Dict[int, int]:
        """{cycles closed: leaves} over the gluings that pair a with each
        (b, twists, weight) of ``choices``, each leaf counting ``weight``."""
        tally: Dict[int, int] = {}
        free[a] = False
        sa, pa = to_succ[a], to_pred[a]
        for b, bits, weight in choices:
            free[b] = False
            sb, pb = to_succ[b], to_pred[b]
            for t in bits:
                arrows = (((2 * a, pb), (2 * a + 1, sb), (2 * b, pa), (2 * b + 1, sa)) if t
                          else ((2 * a, sb), (2 * a + 1, pb), (2 * b, sa), (2 * b + 1, pa)))
                closed = 0
                joined = []
                for x, y in arrows:
                    first = head[x]
                    if first == y:
                        closed += 1
                    else:
                        last = tail[y]
                        tail[first] = last
                        head[last] = first
                        joined.append((x, y))
                for cycles, leaves in (completions(left - 2) if left > 2 else {0: 1}).items():
                    cycles += closed
                    tally[cycles] = tally.get(cycles, 0) + weight * leaves
                for x, y in reversed(joined):
                    tail[head[x]] = x
                    head[tail[y]] = y
            free[b] = True
        free[a] = True
        return tally

    tally = glue(0, n, _first_edges(key, twist_bits))
    if any(cycles & 1 for cycles in tally):
        raise StructuralError("face walk is its own mirror; invalid twist data")
    denom = 1
    for j, count in profile_dict(key).items():
        denom *= factorial(count) * (2 * j if mode == "moebius" else j) ** count
    return NPoly({(cycles >> 1, 0): Fraction(count, denom) for cycles, count in tally.items()})
