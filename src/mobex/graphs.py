"""Moebius graphs: rotation systems with a twist bit per edge.

A graph on half-edges 0..2e-1 is given by a cyclic rotation at each vertex,
a fixed-point-free pairing of half-edges into edges, and one boolean per
edge marking it as twisted.  Every such graph is the 1-skeleton of a cell
decomposition of a unique compact surface, orientable or not; this module
computes that surface's topology.

Face-tracing convention: a walk exits a half-edge, crosses the edge
(toggling a local-orientation flag iff the edge is twisted) and continues
to the rotation successor of the arrival half-edge when the flag is
positive, to the predecessor otherwise.  Any consistent convention is
equivalent; this one is pinned by the calibration examples in the tests
(planar loop -> 2 faces, twisted loop -> 1 face).
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List, NamedTuple, Sequence, Tuple

from .errors import StructuralError

HalfEdge = int
State = Tuple[int, int]  # (half-edge about to be exited, orientation flag 0/1)


class MoebiusGraph:
    __slots__ = ("rotations", "edges", "twists",
                 "_partner", "_succ", "_pred", "_vertex_of", "_edge_of")

    def __init__(self,
                 rotations: Sequence[Sequence[int]],
                 edges: Sequence[Sequence[int]],
                 twists: Sequence[bool]):
        self.rotations: Tuple[Tuple[int, ...], ...] = tuple(tuple(r) for r in rotations)
        self.edges: Tuple[Tuple[int, int], ...] = tuple(
            (min(a, b), max(a, b)) for a, b in edges)
        self.twists: Tuple[bool, ...] = tuple(bool(t) for t in twists)

        n = sum(len(r) for r in self.rotations)
        partner = [-1] * n
        edge_of = [-1] * n
        for idx, (a, b) in enumerate(self.edges):
            for h in (a, b):
                if not 0 <= h < n or partner[h] != -1:
                    raise StructuralError("edge pairing is not a fixed-point-free involution")
            if a == b:
                raise StructuralError("edge pairing has a fixed point")
            partner[a], partner[b] = b, a
            edge_of[a] = edge_of[b] = idx

        succ = [-1] * n
        pred = [-1] * n
        vertex_of = [-1] * n
        for v, rot in enumerate(self.rotations):
            for i, h in enumerate(rot):
                if not 0 <= h < n or vertex_of[h] != -1:
                    raise StructuralError("half-edge %d not in exactly one rotation" % h)
                vertex_of[h] = v
                succ[h] = rot[(i + 1) % len(rot)]
                pred[h] = rot[i - 1]

        if len(self.twists) != len(self.edges):
            raise StructuralError("one twist bit per edge required")
        if any(p < 0 for p in partner):
            raise StructuralError("edge pairing does not cover all half-edges")

        self._partner = tuple(partner)
        self._succ = tuple(succ)
        self._pred = tuple(pred)
        self._vertex_of = tuple(vertex_of)
        self._edge_of = tuple(edge_of)

    # -- basic accessors -----------------------------------------------------

    @property
    def n_half_edges(self) -> int:
        return len(self._partner)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.rotations)

    def partner(self, h: int) -> int:
        return self._partner[h]

    def edge_of(self, h: int) -> int:
        return self._edge_of[h]

    def valences(self) -> Tuple[int, ...]:
        return tuple(len(r) for r in self.rotations)

    def is_connected(self) -> bool:
        return self.n_vertices <= 1 or max(self._forest()[0]) == 0

    def _forest(self):
        """Spanning forest of the vertex graph; see ``_vertex_forest``."""
        return _vertex_forest(self.rotations, self._vertex_of, self._partner,
                             self._edge_of, self.twists)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MoebiusGraph):
            return NotImplemented
        return (self.rotations == other.rotations
                and self.edges == other.edges
                and self.twists == other.twists)

    def __hash__(self):
        return hash((self.rotations, self.edges, self.twists))

    def __repr__(self) -> str:
        return "MoebiusGraph(%r, %r, %r)" % (self.rotations, self.edges, self.twists)


class TopologyProfile(NamedTuple):
    v: int
    e: int
    f: int
    v_profile: Tuple[Tuple[int, int], ...]  # sorted (valence, count) pairs
    f_profile: Tuple[Tuple[int, int], ...]  # sorted (face degree, count) pairs
    chi: int
    natural: int      # +1 orientable, -1 not
    sharp: int        # (-1)**chi
    sigma: int        # 0 / 1 / 2
    genus: int

    def check(self) -> None:
        assert self.chi == self.v - self.e + self.f
        assert self.f == sum(c for _, c in self.f_profile)
        assert 2 * self.e == sum(j * c for j, c in self.f_profile)
        assert self.sharp == (-1 if self.chi % 2 else 1)
        assert self.sigma % 2 == self.chi % 2
        if self.natural == 1:
            assert self.sigma == 0 and self.chi % 2 == 0
            assert self.genus == 1 - self.chi // 2
        else:
            assert self.sigma == (1 if self.chi % 2 else 2)
            assert self.genus == 1 - self.chi


def _graph_arrays(graph: MoebiusGraph):
    """The raw arrays the face walk and the catalog read; its walk keeps them live."""
    return (graph.valences(), graph._succ, graph._pred, graph._vertex_of,
            graph._partner, graph._edge_of, graph.twists)


def _face_walks(valences, succ, pred, vertex_of, partner, edge_of, twists) -> List[List[int]]:
    """One boundary walk per face, on flat states s = 2*h + d.

    The face-walk map sends the state (h, d) across the edge of h and on
    along the rotation; its orbits come in mirror pairs, the mirror of
    (h, d) being (partner(h), 1 - (d ^ twist)), and a geometric face is
    one such pair.  The walk scans the states in order, follows the orbit
    of each unvisited one on ``_graph_arrays``'s arrays and marks that
    orbit's mirror as visited without walking it, so each face is walked
    once, from its smallest state.  An orbit that is its own mirror means
    invalid twist data.  An isolated vertex caps off a sphere: one empty walk.
    """
    visited = bytearray(2 * len(partner))
    walks: List[List[int]] = []
    for s0 in range(len(visited)):
        if visited[s0]:
            continue
        walk = []
        mirrors = []
        s = s0
        while not visited[s]:
            visited[s] = 1
            walk.append(s)
            p = partner[s >> 1]
            if (s & 1) ^ twists[edge_of[p]]:
                mirrors.append(p << 1)
                s = (pred[p] << 1) | 1
            else:
                mirrors.append((p << 1) | 1)
                s = succ[p] << 1
        if visited[mirrors[0]]:
            raise StructuralError("face walk is its own mirror; invalid twist data")
        for s in mirrors:
            visited[s] = 1
        walks.append(walk)
    walks.extend([] for w in valences if not w)
    return walks


def trace_faces(graph: MoebiusGraph) -> List[List[State]]:
    """Boundary walks of the cell decomposition, one walk per face.

    Each walk is the cyclic list of (half-edge, flag) edge-side states it
    traverses, from the face's smallest state; its length is the number of
    edge-sides on the face, so the face is a len(walk)-gon.  The faces are
    the flat walks of ``_face_walks`` (state 2*h + d), in its order.
    """
    return [[(s >> 1, s & 1) for s in walk] for walk in _face_walks(*_graph_arrays(graph))]


def _vertex_forest(rotations, vertex_of, partner, edge_of, twists):
    """Depth-first spanning forest of the vertex graph, on raw arrays.

    Returns (comp, parity, coherent): each vertex's component index and
    twist parity relative to its component root (crossing a twisted edge
    flips it), and whether every edge agrees with the parities of its
    ends, i.e. whether the twist bits form a coboundary.
    """
    comp = [-1] * len(rotations)
    parity = [0] * len(rotations)
    coherent = True
    n_comp = 0
    for root in range(len(rotations)):
        if comp[root] != -1:
            continue
        comp[root] = n_comp
        stack = [root]
        while stack:
            v = stack.pop()
            for h in rotations[v]:
                w = vertex_of[partner[h]]
                want = parity[v] ^ twists[edge_of[h]]
                if comp[w] == -1:
                    comp[w] = n_comp
                    parity[w] = want
                    stack.append(w)
                elif parity[w] != want:
                    coherent = False
        n_comp += 1
    return comp, parity, coherent


def orientability(graph: MoebiusGraph) -> int:
    """+1 iff the twist bits form a coboundary over the vertex graph.

    Crossing a twisted edge flips the local orientation sign; a
    contradiction (in particular any twisted loop) certifies
    non-orientability.
    """
    return 1 if graph._forest()[2] else -1


def topology(graph: MoebiusGraph) -> TopologyProfile:
    """The graph's surface: ``_topology``, the catalog walk's route too."""
    return _topology(*_graph_arrays(graph), orientability(graph))


def _topology(valences, succ, pred, vertex_of, partner, edge_of, twists, natural
              ) -> TopologyProfile:
    """The surface of the arrays' graph, given its orientability ``natural``."""
    faces = [len(walk) for walk in _face_walks(valences, succ, pred, vertex_of, partner,
                                                 edge_of, twists)]
    return _surface(Counter(valences), Counter(faces), natural)


def _surface(v_counts: Counter, f_counts: Counter, natural: int) -> TopologyProfile:
    """The surface with these vertex and face degree counts and orientability."""
    v = sum(v_counts.values())
    e = sum(j * c for j, c in v_counts.items()) // 2
    f = sum(f_counts.values())
    chi = v - e + f
    sharp = -1 if chi % 2 else 1
    sigma = (1 + sharp) // 2 - natural
    genus = 1 - chi // 2 if natural == 1 else 1 - chi

    prof = TopologyProfile(
        v=v, e=e, f=f,
        v_profile=tuple(sorted(v_counts.items())),
        f_profile=tuple(sorted(f_counts.items())),
        chi=chi, natural=natural, sharp=sharp, sigma=sigma, genus=genus)
    prof.check()
    return prof


def flip_vertex(graph: MoebiusGraph, vertex: int) -> MoebiusGraph:
    """Reverse one rotation, toggling each incident edge end's twist.

    A loop at the vertex is toggled twice, hence unchanged.  Flips are
    isomorphisms: the surface is the same.
    """
    if not 0 <= vertex < graph.n_vertices:
        raise StructuralError("no such vertex")
    rotations = list(graph.rotations)
    rotations[vertex] = tuple(reversed(rotations[vertex]))
    toggles = [0] * graph.n_edges
    for h in graph.rotations[vertex]:
        toggles[graph._edge_of[h]] ^= 1
    twists = tuple(t ^ bool(x) for t, x in zip(graph.twists, toggles))
    return MoebiusGraph(rotations, graph.edges, twists)


def contract_edge(graph: MoebiusGraph, edge_index: int) -> MoebiusGraph:
    """Contract an untwisted non-loop edge, merging its endpoints.

    The two rotations are spliced at the removed half-edges; v and e drop
    by one while faces and orientability (hence chi) are preserved.
    """
    if not 0 <= edge_index < graph.n_edges:
        raise StructuralError("no such edge")
    if graph.twists[edge_index]:
        raise StructuralError("cannot contract a twisted edge (flip a vertex first)")
    a, b = graph.edges[edge_index]
    va, vb = graph._vertex_of[a], graph._vertex_of[b]
    if va == vb:
        raise StructuralError("cannot contract a loop")

    rot_a = list(graph.rotations[va])
    rot_b = list(graph.rotations[vb])
    ia, ib = rot_a.index(a), rot_b.index(b)
    merged = rot_a[ia + 1:] + rot_a[:ia] + rot_b[ib + 1:] + rot_b[:ib]

    rotations = [merged if v == va else list(r)
                 for v, r in enumerate(graph.rotations) if v != vb]

    # drop the two contracted half-edges and compact indices
    relabel = {}
    for h in range(graph.n_half_edges):
        if h != a and h != b:
            relabel[h] = len(relabel)
    rotations = [tuple(relabel[h] for h in rot) for rot in rotations]
    edges = []
    twists = []
    for idx, (x, y) in enumerate(graph.edges):
        if idx == edge_index:
            continue
        edges.append((relabel[x], relabel[y]))
        twists.append(graph.twists[idx])
    return MoebiusGraph(rotations, edges, twists)


# -- JSON wire format --------------------------------------------------------

def graph_to_json(graph: MoebiusGraph) -> str:
    return json.dumps({
        "rotations": [list(r) for r in graph.rotations],
        "edges": [list(e) for e in graph.edges],
        "twists": [bool(t) for t in graph.twists],
    }, sort_keys=True)


def graph_from_json(text: str) -> MoebiusGraph:
    """Parse the wire format; ids must be JSON integers, twist bits JSON booleans, not coerced."""
    try:
        data = json.loads(text)
        rotations, edges, twists = data["rotations"], data["edges"], data["twists"]
        if not isinstance(twists, list) or not all(isinstance(t, bool) for t in twists):
            raise StructuralError("twist bits must be a list of JSON booleans")
        if any(len(pair) != 2 for pair in edges):
            raise StructuralError("each edge must pair exactly two half-edges")
        if any(type(h) is not int for ids in (*rotations, *edges) for h in ids):
            raise StructuralError("half-edge ids must be JSON integers")
        return MoebiusGraph(rotations, edges, twists)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise StructuralError("invalid graph JSON: %s" % exc) from exc
