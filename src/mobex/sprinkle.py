"""Signed unit configurations on Moebius graphs.

Each edge carries one unit from {1} or {1,i} or {1,i,j,k} depending on the
ensemble parameter beta in {1,2,4} (mixed contractions vanish, so both edge
ends carry the same unit).  A configuration contributes

    prod over vertices  sign(cyclic product of incident units)
  * prod over edges     (-1 if the edge is untwisted and carries an
                         imaginary unit, else +1)

when every vertex product is +-1, and 0 otherwise.  The per-edge sign goes
with *untwisted* imaginary edges: that is the convention singled out by the
four irreducible calibration values (tadpole beta, flower -4+6b-b^2,
cross-cap tadpole 2-b, cross-cap flower (2-b)^2), which this module treats
as the defining normalization; the Klein-bottle value 4 at beta=4 is an
independent check.  The total is a topological invariant of the punctured
surface and has the closed form

    mu = (-4+6b-b^2)^(1 - sigma/2 - chi/2) * (2-b)^sigma * b^(f-1),

with (2-b)^sigma read as 1 when b=2 and sigma=0.  The class weights of
series also evaluate it at b = 2 r**2 for the invariant normalization.
"""

from __future__ import annotations

from math import log10
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from .errors import MU_ASSIGNMENT_BUDGET, BudgetError, StructuralError, UsageError, figure
from .graphs import MoebiusGraph, TopologyProfile, topology
from .catalog import canonical_code

# signed units encoded as idx + 4*negbit; idx 0 is the real unit, 1..3 are i,j,k
_QMUL = [[0] * 8 for _ in range(8)]


def _build_table() -> None:
    base = {}
    names = [0, 1, 2, 3]  # 1, i, j, k
    for a in names:
        base[(0, a)] = (1, a)
        base[(a, 0)] = (1, a)
    for a in (1, 2, 3):
        base[(a, a)] = (-1, 0)
    cyc = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (a, b), c in cyc.items():
        base[(a, b)] = (1, c)
        base[(b, a)] = (-1, c)
    for sa in (1, -1):
        for sb in (1, -1):
            for a in names:
                for b in names:
                    s, c = base[(a, b)]
                    s *= sa * sb
                    ea = a + (4 if sa < 0 else 0)
                    eb = b + (4 if sb < 0 else 0)
                    _QMUL[ea][eb] = c + (4 if s < 0 else 0)


_build_table()


class UnitAlgebra:
    """Unit set for one ensemble: indices 0..beta-1, index 0 real."""
    __slots__ = ("beta",)

    def __init__(self, beta: int):
        if beta not in (1, 2, 4):
            raise UsageError("beta must be 1, 2 or 4")
        self.beta = beta

    def __eq__(self, other) -> bool:
        if type(other) is not UnitAlgebra:
            return NotImplemented
        return self.beta == other.beta

    def __hash__(self):
        return hash((self.beta,))

    def __repr__(self) -> str:
        return "UnitAlgebra(beta=%r)" % (self.beta,)

    def multiply(self, a: int, b: int) -> int:
        """Product of signed units encoded as idx + 4*negbit."""
        return _QMUL[a][b]

    def conjugate(self, a: int) -> int:
        if a & 3:
            return a ^ 4
        return a


class MuReport(NamedTuple):
    graph_id: str
    beta: int
    mu_bruteforce: int
    mu_closed: int
    configurations_counted: int


def mu_bruteforce(graph: MoebiusGraph, beta: int,
                  assignment_budget: int = MU_ASSIGNMENT_BUDGET) -> int:
    """mu as the signed sum over all beta**e unit assignments.

    The sum is taken vertex by vertex (see ``_unit_sweep``), which is the
    same state sum regrouped by the distributive law.  A deliberate
    independent route to ``mu_closed_form``: it reads only the rotations,
    the pairing and the twists, never the surface, so criterion 1 (the mu
    invariant suite), the calibration values and ``mu_report`` check the
    closed form against it.  ``assignment_budget`` still bounds beta**e,
    the number of assignments the sum stands for.
    """
    return _unit_sweep(graph, beta, assignment_budget)[0]


# bits per packed unit: a unit index in 0..beta-1 fits in log2(beta) bits
_UNIT_BITS = {1: 0, 2: 1, 4: 2}


def _unit_sweep(graph: MoebiusGraph, beta: int,
                assignment_budget: int) -> Tuple[int, int]:
    """(mu, number of assignments with every vertex product real).

    A transfer over the vertices.  After some vertices are processed, a
    state packs the units on the open edges (one end processed, the other
    not), edge x at bit 3 + bits*x, over a low real unit +-1 (0 or 4) that
    carries the sign so far; it maps to the number of partial assignments
    behind it.  Processing a vertex chooses units for its fresh edges,
    keeps the choices whose cyclic product is real (``_vertex_outcomes``),
    multiplies in the vertex and edge signs and drops the edges it closes.
    Each edge's unit is chosen once, so this is the full beta**e sum
    regrouped by the distributive law, and it never reads the surface.
    The next vertex is the one that leaves the fewest open edges, which
    keeps the states few.  The budget still bounds beta**e.
    """
    if beta not in (1, 2, 4):
        raise UsageError("beta must be 1, 2 or 4")
    if not graph.is_connected():
        raise StructuralError("mu is defined for connected graphs")
    e = graph.n_edges
    if beta ** e > assignment_budget:
        raise BudgetError("beta^e = %s exceeds assignment budget %d"
                          % (figure(e * log10(beta), lambda: beta ** e), assignment_budget))

    bits, mask = _UNIT_BITS[beta], beta - 1
    incident = [[graph._edge_of[h] for h in rot] for rot in graph.rotations]
    ends = [0] * e  # processed ends per edge
    states: Dict[int, int] = {0: 1}
    todo = set(range(graph.n_vertices))
    while todo:
        v = min(todo, key=lambda w: (_open_after(incident[w], ends), w))
        todo.remove(v)
        seq = incident[v]
        known = {x for x in seq if ends[x] == 1}
        for x in seq:
            ends[x] += 1
        outcomes = _vertex_outcomes(seq, known, graph.twists, beta)
        known_bits = sum(mask << (3 + bits * x) for x in known)
        new: Dict[int, int] = {}
        for key, count in states.items():
            rest = key & ~known_bits
            for added, ways in outcomes.get(key & known_bits, ()):
                k = rest ^ added
                new[k] = new.get(k, 0) + ways * count
        states = new
    plus, minus = states.get(0, 0), states.get(4, 0)
    return plus - minus, plus + minus


def _open_after(seq: List[int], ends: List[int]) -> int:
    """Open-edge count change if the vertex with incident edges ``seq`` goes next."""
    change = 0
    for x in set(seq):
        if ends[x] == 1:
            change -= 1
        elif seq.count(x) == 1:
            change += 1
    return change


def _vertex_outcomes(seq: List[int], known: Set[int], twists: Sequence[bool],
                     beta: int) -> Dict[int, List[Tuple[int, int]]]:
    """The unit choices at one vertex whose cyclic product is real.

    Walks the rotation ``seq`` (edge indices) position by position.  A
    partial key holds the running product in its low 3 bits, whose sign
    bit also collects the edge signs, and the unit on each edge chosen so
    far at bit 3 + bits*x; it maps to the number of choices behind it.
    A known (open) edge takes each unit; a fresh edge takes each unit at
    its first end (sign -1 if untwisted and imaginary); a loop's unit is
    read back and dropped at its second end.  Returns, keyed by the known
    edges' packed units, the (fresh open edges' units over the sign,
    count) pairs with a real product.
    """
    bits, mask, mul = _UNIT_BITS[beta], beta - 1, _QMUL
    partial: Dict[int, int] = {0: 1}
    chosen = set()
    for x in seq:
        shift = 3 + bits * x
        new: Dict[int, int] = {}
        if x in chosen:
            drop = ~((mask << shift) | 7)
            for key, count in partial.items():
                k = (key & drop) | mul[key & 7][(key >> shift) & mask]
                new[k] = new.get(k, 0) + count
        else:
            chosen.add(x)
            flip = 0 if twists[x] or x in known else 4
            for key, count in partial.items():
                rest, acc = key & ~7, key & 7
                for u in range(beta):
                    k = rest | (u << shift) | (mul[acc][u] ^ flip if u else acc)
                    new[k] = new.get(k, 0) + count
        partial = new
    known_bits = sum(mask << (3 + bits * x) for x in known)
    outcomes: Dict[int, List[Tuple[int, int]]] = {}
    for key, count in partial.items():
        if not key & 3:
            outcomes.setdefault(key & known_bits, []).append((key & ~known_bits, count))
    return outcomes


def mu_closed_form(profile: TopologyProfile, beta: int) -> int:
    if beta not in (1, 2, 4):
        raise UsageError("beta must be 1, 2 or 4")
    return _mu_closed(beta, profile.f, profile.chi, profile.sigma)


def _mu_closed(b, f: int, chi: int, sigma: int):
    """The module docstring's closed form at any b with + and *: an int or an NPoly."""
    twice_exp = 2 - sigma - chi
    if twice_exp % 2 or twice_exp < 0 or f < 1:
        raise StructuralError("inconsistent profile: the closed form needs an even"
                              " 2 - sigma - chi >= 0 and f >= 1, got f = %d, chi = %d,"
                              " sigma = %d" % (f, chi, sigma))
    return (-4 + 6 * b - b * b) ** (twice_exp // 2) * (2 - b) ** sigma * b ** (f - 1)


def mu_report(graph: MoebiusGraph, beta: int,
              assignment_budget: int = MU_ASSIGNMENT_BUDGET) -> MuReport:
    brute, counted = _unit_sweep(graph, beta, assignment_budget)
    closed = mu_closed_form(topology(graph), beta)
    return MuReport(graph_id=canonical_code(graph).decode(),
                    beta=beta, mu_bruteforce=brute, mu_closed=closed,
                    configurations_counted=counted)


# -- standard graphs and calibration -------------------------------------------

def petal_graph(twisted: bool = False) -> MoebiusGraph:
    """One 2-valent vertex with a loop; untwisted = sphere, twisted = cross-cap."""
    return MoebiusGraph([(0, 1)], [(0, 1)], [twisted])


def flower_graph(twisted: bool = False) -> MoebiusGraph:
    """One 4-valent vertex with two loops.

    Untwisted variant interleaves the loops (a handle); twisted variant
    carries two adjacent twisted loops (two cross-caps, a Klein bottle).
    """
    if twisted:
        return MoebiusGraph([(0, 1, 2, 3)], [(0, 1), (2, 3)], [True, True])
    return MoebiusGraph([(0, 1, 2, 3)], [(0, 2), (1, 3)], [False, False])


def standard_graph(natural: int, genus: int, n_faces: int) -> MoebiusGraph:
    """One-vertex representative of each topology: petals then flowers.

    Orientable genus g: (n-1) petals and g handle flowers.  Non-orientable
    genus 2k+1: k handles plus one twisted petal; genus 2k: k-1 handles plus
    a twisted flower (two cross-caps).  Genus counts follow chi = 2-2g and
    chi = 1-g respectively.
    """
    if n_faces < 1:
        raise UsageError("need at least one face")
    blocks: List[str] = []
    for _ in range(n_faces - 1):
        blocks.append("petal")
    if natural == 1:
        handles, cross = genus, 0
    else:
        # non-orientable genus g means chi = 1-g; thanks to 2*handles+crosscaps
        # = g+1 an even g takes one cross-cap, an odd g a cross-cap pair
        if genus < 0:
            raise UsageError("non-orientable genus must be >= 0")
        if genus % 2:
            handles, cross = (genus - 1) // 2, 2
        else:
            handles, cross = genus // 2, 1
    blocks.extend(["handle"] * handles)
    if cross == 1:
        blocks.append("crosscap")
    elif cross == 2:
        blocks.append("crosspair")

    rotation: List[int] = []
    edges: List[Tuple[int, int]] = []
    twists: List[bool] = []
    base = 0
    for kind in blocks:
        size = 4 if kind in ("handle", "crosspair") else 2
        rotation.extend(range(base, base + size))
        if kind == "handle":
            edges.extend([(base, base + 2), (base + 1, base + 3)])
            twists.extend([False, False])
        elif kind == "crosspair":
            edges.extend([(base, base + 1), (base + 2, base + 3)])
            twists.extend([True, True])
        else:
            edges.append((base, base + 1))
            twists.append(kind == "crosscap")
        base += size
    if not rotation:
        raise UsageError("sphere with one face has no one-vertex representative here")
    return MoebiusGraph([tuple(rotation)], edges, twists)


def calibrate_irreducibles(beta: int) -> Tuple[int, int, int, int]:
    """Brute-force values of the four one-particle-irreducible pieces.

    Extracted from whole-graph sums on the standard one-vertex graphs: the
    orientable tadpole and flower, then their cross-cap counterparts.
    Expected: (beta, -4+6*beta-beta**2, 2-beta, (2-beta)**2).
    """
    tadpole = mu_bruteforce(petal_graph(False), beta)
    flower = mu_bruteforce(flower_graph(False), beta)
    cross_tadpole = mu_bruteforce(petal_graph(True), beta)
    cross_flower = mu_bruteforce(flower_graph(True), beta)
    return tadpole, flower, cross_tadpole, cross_flower
