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
streams that survives the competition.  The Moebius catalog walks twisted
streams under the full competition, the ribbon catalog untwisted streams
under the positive-flag one.  The labelled pairing sum (both modes) visits
every labelled gluing on one depth-first gluing tree, where gluings that
share a prefix share its work, and never canonicalizes; it counts faces by
joining the face map's open paths edge by edge, independently of the
graph module's face walk.  It and the tests' own matching sweeps are the
independent routes the catalogs are checked against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetError, StructuralError, UsageError
from .graphs import MoebiusGraph, TopologyProfile, flip_vertex, topology
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
        _, count, _ = _canon(*_graph_arrays(norm), directions=(0,))
        return count
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


def _check_budget(key: ProfileKey, budget: int, twist_patterns: Optional[int] = None) -> None:
    """Refuse more than ``budget`` half-edges, naming the predicted cost.

    With ``twist_patterns`` the cost is the labelled gluings a pairing sum
    would visit, (n-1)!! matchings times that many twist patterns.
    """
    n = sum(key)
    if n > budget:
        matchings = prod(range(n - 1, 0, -2))
        if twist_patterns is None:
            cost = "%d matchings" % matchings
        elif twist_patterns == 1:
            cost = "%d untwisted labelled gluings" % matchings
        else:
            cost = "%d labelled gluings: %d matchings x %d twist patterns" % (
                matchings * twist_patterns, matchings, twist_patterns)
        raise BudgetError("profile %s needs %d half-edges (%s), budget is %d"
                          % (profile_dict(key), n, cost, budget))


def _bfs_streams(key: ProfileKey, effs: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """Every label stream ``_traverse`` can emit from a maximal-valence flag
    of a connected graph with valence multiset ``key``, with the relative
    twists ``effs`` allowed on non-tree edges (``(0,)``: untwisted only).

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
                for eff in effs:
                    owed[j] = (i << 1) | eff
                    stream.append((j << 1) | eff)
                    yield from walk(i + 1, labelled)
                    stream.pop()
                owed[j] = None

    return walk(0, key[0])


def _orderly(key: ProfileKey, directions: Tuple[int, ...]
             ) -> Iterator[Tuple[Tuple[int, ...], int, int]]:
    """Yield (stream, count_all, count_plus) for each class of ``key``.

    Orderly generation: a class's canonical code is itself a BFS-normal
    stream (the one its minimal flags emit), and it is the only stream of
    the class that no flag of its own graph beats, so keeping the streams
    that win their competition yields each class exactly once.  The
    positive-flag competition ``(0,)`` runs on untwisted streams, whose
    relative twists are all 0.
    """
    layouts = {}
    for stream in _bfs_streams(key, directions):
        blocks = tuple(-tok for tok in stream if tok < 0)
        if blocks not in layouts:
            layouts[blocks] = _layout(blocks)
        _, succ, pred, vertex_of = layouts[blocks]
        won = _canon(blocks, succ, pred, vertex_of, *_stream_pairing(stream),
                     directions=directions, best=stream)
        if won is not None:
            yield won


@lru_cache(maxsize=None)
def _connected_catalog(key: ProfileKey) -> Tuple[GraphCatalogEntry, ...]:
    entries = []
    for stream, count_all, count_plus in _orderly(key, (0, 1)):
        rep = _graph_from_stream(stream)
        entries.append(GraphCatalogEntry(
            graph=rep,
            code=_stream_to_bytes(stream),
            aut_moebius=count_all,
            aut_ribbon=None if any(rep.twists) else _ribbon_order(count_all, count_plus),
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
    key = profile_key(profile)
    _check_budget(key, half_edge_budget)
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
    return tuple((_stream_to_bytes(stream), aut, topology(_graph_from_stream(stream)))
                 for stream, aut, _ in sorted(_orderly(key, (0,))))


def ribbon_classes(profile, half_edge_budget: int = HALF_EDGE_BUDGET):
    """Connected ribbon classes as (code, aut_ribbon, topology) triples."""
    key = profile_key(profile)
    _check_budget(key, half_edge_budget)
    return list(_ribbon_catalog(key))


# -- labelled pairing sums ------------------------------------------------------

def labeled_pairing_sum(profile, mode: str = "moebius",
                        half_edge_budget: int = HALF_EDGE_BUDGET) -> NPoly:
    """Sum of N**f over all labelled gluings, divided by the layout symmetry order.

    Moebius mode runs over matchings times twist assignments with symmetry
    order prod_j v_j! (2j)**v_j; ribbon mode keeps only untwisted matchings
    with the flip-free order prod_j v_j! j**v_j.  Both reproduce
    sum(N**f / |Aut|) over their class sets exactly (orbit-stabilizer).

    The gluings are the leaves of one depth-first tree, so gluings that
    share a prefix share its work: each step pairs the smallest free
    half-edge a with a later free b at each allowed twist t and adds that
    edge's four face-map arrows on the flat states 2*h + d (convention of
    ``graphs._face_walks``: (a, d) goes to (pred[b], 1) if d ^ t, else to
    (succ[b], 0), and likewise from b).  An arrow either joins two open
    paths, kept as ``head``/``tail`` arrays of their ends and undone on
    backtrack, or closes a cycle.  The face map's orbits come in mirror
    pairs, so a leaf's cycle count is twice its face count.

    A deliberate independent route: it never canonicalizes and counts
    faces without ``_face_walks``, so the pairing-sum and orbit-stabilizer
    tests can catch a class the catalog misses, an automorphism order it
    miscounts or a face walk that drifts.
    """
    if mode not in ("moebius", "ribbon"):
        raise UsageError("mode must be 'moebius' or 'ribbon'")
    key = profile_key(profile)
    twist_bits = (0, 1) if mode == "moebius" else (0,)
    n = sum(key)
    _check_budget(key, half_edge_budget, len(twist_bits) ** (n // 2))
    _, succ, pred, _ = _layout(key)
    to_succ = [2 * succ[h] for h in range(n)]
    to_pred = [2 * pred[h] + 1 for h in range(n)]
    head = list(range(2 * n))  # at a path's last state: its first state
    tail = list(range(2 * n))  # at a path's first state: its last state
    free = [True] * n
    tally = [0] * (n + 1)

    def glue(a: int, left: int, cycles: int) -> None:
        while not free[a]:
            a += 1
        free[a] = False
        for b in range(a + 1, n):
            if not free[b]:
                continue
            free[b] = False
            sa, pa, sb, pb = to_succ[a], to_pred[a], to_succ[b], to_pred[b]
            for t in twist_bits:
                arrows = (((2 * a, pb), (2 * a + 1, sb), (2 * b, pa), (2 * b + 1, sa)) if t
                          else ((2 * a, sb), (2 * a + 1, pb), (2 * b, sa), (2 * b + 1, pa)))
                closed = cycles
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
                if left > 2:
                    glue(a + 1, left - 2, closed)
                elif closed & 1:
                    raise StructuralError("face walk is its own mirror; invalid twist data")
                else:
                    tally[closed >> 1] += 1
                for x, y in reversed(joined):
                    tail[head[x]] = x
                    head[tail[y]] = y
            free[b] = True
        free[a] = True

    glue(0, n, 0)
    denom = 1
    for j, count in profile_dict(key).items():
        denom *= factorial(count) * (2 * j if mode == "moebius" else j) ** count
    return NPoly({(f, 0): Fraction(count, denom) for f, count in enumerate(tally) if count})
