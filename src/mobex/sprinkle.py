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
``mu_bruteforce`` takes the signed sum itself, as one transfer over the
half-edges on one table of signed unit products, for ``mu_report`` and the
tests to check the closed form against.
"""

from __future__ import annotations

from math import log10
from typing import Dict, List, NamedTuple, Tuple

from .errors import MU_ASSIGNMENT_BUDGET, BudgetError, StructuralError, UsageError, figure
from .graphs import MoebiusGraph, TopologyProfile, topology
from .catalog import canonical_code


def _unit_product(a: int, b: int) -> int:
    """Units idx + 4*negbit, idx 1..3 for i, j, k: e_p e_p = -1, e_p e_q = +-e_r (+ if cyclic)."""
    p, q, sign = a & 3, b & 3, (a ^ b) & 4
    if not p or not q:
        return p | q | sign
    if p == q:
        return sign ^ 4
    return (6 - p - q) | (sign if (q - p) % 3 == 1 else sign ^ 4)


_QMUL = [[_unit_product(a, b) for b in range(8)] for a in range(8)]


class MuReport(NamedTuple):
    graph_id: str
    beta: int
    mu_bruteforce: int
    mu_closed: int
    configurations_counted: int


def mu_bruteforce(graph: MoebiusGraph, beta: int,
                  assignment_budget: int = MU_ASSIGNMENT_BUDGET) -> int:
    """mu as the signed sum over all beta**e unit assignments.

    The sum is taken half-edge by half-edge (see ``_unit_sweep``), which is
    the same state sum regrouped by the distributive law.  A deliberate
    independent route to ``mu_closed_form``: it reads only the rotations,
    the pairing and the twists, never the surface, so criterion 1 (the mu
    invariant suite), the calibration values and ``mu_report`` check the
    closed form against it.  ``assignment_budget`` bounds max(beta, 2)**e:
    beta**e is the number of assignments the sum stands for, and at beta = 1
    the sweep and the graph id still grow with e.
    """
    return _unit_sweep(graph, beta, assignment_budget)[0]


def _unit_sweep(graph: MoebiusGraph, beta: int,
                assignment_budget: int) -> Tuple[int, int]:
    """(mu, number of assignments with every vertex product real).

    One transfer over the half-edges, vertex after vertex.  A state packs
    the units of the open edges (one half-edge walked, the other not),
    edge x at bit 3 + bits*x, over a running signed unit in the low 3 bits;
    it maps to the number of partial assignments behind it.  At an edge's
    first half-edge the edge chooses its unit (sign -1 if it is untwisted
    and the unit imaginary); at its second the unit is read back and
    dropped.  Every half-edge multiplies its unit into the running unit,
    and a vertex's last half-edge keeps only the states where it is real,
    so between vertices it is the sign so far.  Each edge's unit is chosen
    once, so this is the full beta**e sum regrouped by the distributive
    law, and it never reads the surface.

    Each next vertex is the one that leaves the fewest open edges, and its
    rotation starts at a run of open edges, whose read-backs shrink the
    states before fresh edges grow them: a real cyclic product keeps its
    value under rotation, since ba = a^-1 (ab) a.  On a 2-vCPU Xeon VM all
    e <= 5 classes take 0.11/0.20/1.1 s at beta = 1/2/4, and the six
    sweeps of a benchmark selfcheck round 0.5-1.5 ms.
    """
    if beta not in (1, 2, 4):
        raise UsageError("beta must be 1, 2 or 4")
    if not graph.is_connected():
        raise StructuralError("mu is defined for connected graphs")
    e, base = graph.n_edges, max(beta, 2)  # beta = 1 still sweeps and codes all e edges
    if base ** e > assignment_budget:
        raise BudgetError("%s^e = %s exceeds assignment budget %d"
                          % ("beta" if beta > 1 else "2",
                             figure(e * log10(base), lambda: base ** e), assignment_budget))

    # a unit index in 0..beta-1 fits in log2(beta) = beta // 2 bits
    bits, mask, mul, twists = beta // 2, beta - 1, _QMUL, graph.twists
    incident = [[graph._edge_of[h] for h in rot] for rot in graph.rotations]
    walk: List[Tuple[int, bool]] = []  # (edge, last of its vertex) per half-edge
    ends = [0] * e
    todo = set(range(graph.n_vertices))
    while todo:
        v = min(todo, key=lambda w: (_open_after(incident[w], ends), w))
        todo.remove(v)
        seq = incident[v]
        start = next((i for i, x in enumerate(seq)
                      if ends[x] == 1 and ends[seq[i - 1]] != 1), 0)
        seq = seq[start:] + seq[:start]
        walk += [(x, i == len(seq) - 1) for i, x in enumerate(seq)]
        for x in seq:
            ends[x] += 1

    states: Dict[int, int] = {0: 1}
    chosen = set()
    for x, real in walk:
        shift = 3 + bits * x
        new: Dict[int, int] = {}
        if x in chosen:
            drop = ~((mask << shift) | 7)
            for key, count in states.items():
                acc = mul[key & 7][(key >> shift) & mask]
                if not (real and acc & 3):
                    k = (key & drop) | acc
                    new[k] = new.get(k, 0) + count
        else:
            chosen.add(x)
            flip = 0 if twists[x] else 4
            for key, count in states.items():
                rest, acc = key & ~7, key & 7
                for u in range(beta):
                    a = mul[acc][u] ^ flip if u else acc
                    if not (real and a & 3):
                        k = rest | (u << shift) | a
                        new[k] = new.get(k, 0) + count
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
