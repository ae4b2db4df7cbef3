"""Poincare duality of embedded graphs and characteristic-polynomial dualities.

The dual graph is built on blades (half-edge sides): with a = across-edge,
v = corner, w = side-swap involutions, the dual map just exchanges a and w.
Dual vertices are the primal faces, dual edges thread the primal edges, and
the inherited twists keep the underlying surface (checked by chi and
orientability preservation over the small catalogs).

The lambda-series live in the symbols tau_j = tr Lambda**(-j) with weighted
degree j; they reuse the coupling-series container.  Both sides of the
determinant-correlator dualities are graph sums:

  GUE  lhs  (-1)**v N**(f-e) tau^(v-profile) / |Aut_R|   over ribbon graphs
  GUE  rhs  (-1)**f N**(v-e) tau^(f-profile) / |Aut_R|
  GOE  lhs  (-1)**v 2**(v-e) N**(f-e) tau^(v-profile) / |Aut|  over Moebius
  GSE  rhs  (-1)**f 2**(f-e) N**(v-e) tau^(f-profile) / |Aut|

one class sum with (v, f) swapped, and the lhs/rhs agreement is term-by-term
Poincare duality.  The finite-N polynomial identities behind them are
verified exactly for every N and k <= 2.  The matrix side expands
the determinants into power sums and exact eigenvalue moments.  The dual
side builds the k x k self-adjoint Y = sum_u U_u (x) B_u from the unit
matrices of the Monte Carlo sampler, over entry-level Gaussian variables,
and takes Hdet(Lambda - i Y) as one Pfaffian: det M = +-Pf [[0, M], [-M^T, 0]]
for BHC and Hdet M = +-Pf(M J), J = (i sigma_2) (x) I_k, for BHQ, which is
a polynomial at odd N too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .catalog import HALF_EDGE_BUDGET, enumerate_graphs, ribbon_classes
from .errors import UsageError, VerificationError
from .graphs import MoebiusGraph, _face_walks
from .npoly import NPoly, add_term, mul_terms
from .oracle import _UNITS, MomentQuery, eigenvalue_moment
from .series import CouplingSeries, iter_monomials

LambdaSeries = CouplingSeries  # monomials are multisets of tau_j indices


# -- Poincare dual ---------------------------------------------------------------

def poincare_dual(graph: MoebiusGraph) -> MoebiusGraph:
    """Dual graph on the same surface: vertices and faces exchanged."""
    if graph.n_half_edges == 0:
        raise UsageError("the edgeless graph has no dual here")

    def a_map(b: int) -> int:
        h, s = b >> 1, b & 1
        return (graph.partner(h) << 1) | (s ^ 1 ^ graph.twists[graph.edge_of(h)])

    # blade 2*h + s is the face-walk state (h, s), so the dual rotations
    # are the face walks; isolated vertices (empty walks) have no dual
    side0: List[int] = []          # dual half-edge id -> its side-0 blade
    half_of_blade: Dict[int, int] = {}
    rotations: List[Tuple[int, ...]] = []
    for walk in _face_walks(graph):
        if not walk:
            continue
        rotation = []
        for x in walk:
            dual_id = len(side0)
            side0.append(x)
            half_of_blade[x] = dual_id
            half_of_blade[a_map(x)] = dual_id
            rotation.append(dual_id)
        rotations.append(tuple(rotation))

    edges: List[Tuple[int, int]] = []
    twists: List[bool] = []
    done = set()
    for dual_id, blade in enumerate(side0):
        other = half_of_blade[blade ^ 1]  # w(side0) lies on the partner half
        key = (min(dual_id, other), max(dual_id, other))
        if key in done:
            continue
        done.add(key)
        # untwisted iff side0 glues onto the partner's side-1 blade
        untwisted = side0[other] == a_map(blade ^ 1)
        edges.append(key)
        twists.append(not untwisted)
    return MoebiusGraph(rotations, edges, twists)


# -- lambda-series ----------------------------------------------------------------

def _profile_monomial(pairs: Tuple[Tuple[int, int], ...]) -> Tuple[int, ...]:
    out: List[int] = []
    for j, count in pairs:
        out.extend([j] * count)
    return tuple(sorted(out))


def _charpoly_side(ensemble: str, degree: int, dual: bool,
                   budget: int) -> LambdaSeries:
    """(-1)**a c**(a-e) N**(b-e) tau^(a-profile) / |Aut| over the classes.

    (a, b) = (v, f) on the lhs and (f, v) on the dual (rhs) side; c = 1 over
    ribbon classes (gue) and c = 2 over Moebius classes (goe, gse).
    """
    c = 1 if ensemble == "gue" else 2
    series = CouplingSeries(degree, {})
    for profile in iter_monomials(degree):
        if c == 1:
            classes = [(aut, topo) for _, aut, topo in ribbon_classes(profile, budget)]
        else:
            classes = [(entry.aut_moebius, entry.topology) for entry
                       in enumerate_graphs(list(profile), half_edge_budget=budget)]
        for aut, topo in classes:
            a, b, pairs = ((topo.f, topo.v, topo.f_profile) if dual
                           else (topo.v, topo.f, topo.v_profile))
            add_term(series.terms, _profile_monomial(pairs), NPoly.monomial(
                b - topo.e, 0, Fraction((-1) ** a, aut) * Fraction(c) ** (a - topo.e)))
    return series


def charpoly_lhs(ensemble: str, degree: int,
                 half_edge_budget: int = HALF_EDGE_BUDGET) -> LambdaSeries:
    """N x N side of the correlator duality, as a tau-series."""
    if ensemble not in ("gue", "goe"):
        raise UsageError("lhs ensembles: gue, goe")
    return _charpoly_side(ensemble, degree, False, half_edge_budget)


def charpoly_rhs(ensemble: str, degree: int,
                 half_edge_budget: int = HALF_EDGE_BUDGET) -> LambdaSeries:
    """k x k side: same graphs, but faces carry the tau symbols."""
    if ensemble not in ("gue", "gse"):
        raise UsageError("rhs ensembles: gue, gse")
    return _charpoly_side(ensemble, degree, True, half_edge_budget)


def charpoly_sides_by_edges(pair: str, edges: int,
                            half_edge_budget: int = HALF_EDGE_BUDGET
                            ) -> Tuple[LambdaSeries, LambdaSeries]:
    """Both sides restricted to graphs with exactly the given edge count."""
    degree = 2 * edges
    if pair == "gue":
        lhs, rhs = charpoly_lhs("gue", degree, half_edge_budget), charpoly_rhs("gue", degree, half_edge_budget)
    elif pair == "goe-gse":
        lhs, rhs = charpoly_lhs("goe", degree, half_edge_budget), charpoly_rhs("gse", degree, half_edge_budget)
    else:
        raise UsageError("pair must be 'gue' or 'goe-gse'")
    pick = lambda s: CouplingSeries(degree, {k: v for k, v in s.terms.items()
                                             if sum(k) == 2 * edges})
    return pick(lhs), pick(rhs)


# -- finite-N polynomial identities -------------------------------------------------

# polynomials in power sums: {sorted index tuple: Fraction}
PPoly = Dict[Tuple[int, ...], Fraction]


def _merge(k1: Tuple[int, ...], k2: Tuple[int, ...]) -> Tuple[int, ...]:
    """The product of two power-sum monomials: their sorted multiset union."""
    return tuple(sorted(k1 + k2))


@lru_cache(maxsize=None)
def _elementary_in_powersums(m: int) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    """Newton's identity: e_m = (1/m) sum_i (-1)**(i-1) e_(m-i) p_i."""
    if m == 0:
        return ((tuple(), Fraction(1)),)
    total: PPoly = {}
    for i in range(1, m + 1):
        for key, coeff in _elementary_in_powersums(m - i):
            add_term(total, _merge(key, (i,)), coeff * Fraction((-1) ** (i - 1), m))
    return tuple(total.items())


def _expect_ppoly(poly: PPoly, beta: int, n: int, scale: Fraction) -> Fraction:
    total = Fraction(0)
    for key, coeff in poly.items():
        if key:
            total += coeff * eigenvalue_moment(MomentQuery(beta, n, key, scale))
        else:
            total += coeff
    return total


def _charpoly_matrix_side(beta: int, n_size: int, k: int, scale: Fraction
                          ) -> Dict[Tuple[int, ...], Fraction]:
    """E[prod_l det(lambda_l - X)] as {lambda exponent vector: coefficient}."""
    out: Dict[Tuple[int, ...], Fraction] = {}

    def rec(pos: int, exps: List[int], ppoly: PPoly, sign: int):
        if pos == k:
            add_term(out, tuple(exps), _expect_ppoly(ppoly, beta, n_size, scale) * sign)
            return
        for m in range(n_size + 1):
            rec(pos + 1, exps + [n_size - m],
                mul_terms(ppoly, dict(_elementary_in_powersums(m)), _merge),
                sign * (-1) ** m)

    rec(0, [], {(): Fraction(1)}, 1)
    return out


# complex polynomials in real Gaussian variables plus lambda symbols:
# {exponent tuple: Fraction}.  Slot 0 is the power of i, left unreduced so
# that products need only add exponents; the next k slots are the lambdas
# and the rest the Gaussian variables.  i is reduced (i**2 = -1) only when
# the Gaussian variables are integrated out.
CPoly = Dict[Tuple[int, ...], Fraction]


def _add_exps(e1: Tuple[int, ...], e2: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(x + y for x, y in zip(e1, e2))


def _cpoly_vars(nslots: int) -> List[CPoly]:
    """i and the variables: the monomials with a single exponent 1."""
    return [{tuple(int(t == idx) for t in range(nslots)): Fraction(1)}
            for idx in range(nslots)]


def _cpoly_sum(*polys: CPoly) -> CPoly:
    out: CPoly = {}
    for poly in polys:
        for key, coeff in poly.items():
            add_term(out, key, coeff)
    return out


def _cpoly_prod(*polys: CPoly) -> CPoly:
    out = polys[0]
    for poly in polys[1:]:
        out = mul_terms(out, poly, _add_exps)
    return out


def _gauss_expect_cpoly(poly: CPoly, k: int, variances: Sequence[Fraction]
                        ) -> Dict[Tuple[int, ...], Fraction]:
    """Integrate out the Gaussian variables; imaginary parts must cancel."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    acc_im: Dict[Tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.items():
        i_power, lam = exps[0], exps[1:k + 1]
        weight = Fraction(1 if i_power % 4 < 2 else -1)  # i**i_power = weight or weight*i
        for d, var in zip(exps[k + 1:], variances):
            if d % 2:
                break
            m = d // 2
            weight *= Fraction(factorial(d), factorial(m) * 2 ** m) * var ** m
        else:
            add_term(acc_im if i_power % 2 else out, lam, coeff * weight)
    if acc_im:
        raise VerificationError("dual-side expectation is not real", payload=acc_im)
    return out


def _pfaffian(a: List[List[CPoly]]) -> CPoly:
    """Pf of an antisymmetric 2m x 2m matrix, expanded along its first row."""
    def pf(rows: Tuple[int, ...]) -> CPoly:
        if len(rows) == 2:
            return a[rows[0]][rows[1]]
        out: CPoly = {}
        for pos, j in enumerate(rows[1:]):
            if a[rows[0]][j]:
                minor = pf(rows[1:pos + 1] + rows[pos + 2:])
                for key, coeff in _cpoly_prod(a[rows[0]][j], minor).items():
                    add_term(out, key, (-1) ** pos * coeff)
        return out
    return pf(tuple(range(len(a))))


def _dual_side(beta: int, n_size: int, k: int) -> Dict[Tuple[int, ...], Fraction]:
    """E[Hdet**N (Lambda - i Y)] over the k x k ensemble, beta = 2 or 4.

    Y = sum_u U_u (x) B_u over the units of the Monte Carlo sampler: B_0 real
    symmetric (diagonal variance 1/(2c), off-diagonal 1/(4c)), the other B_u
    real antisymmetric (1/(4c)), c = N beta / 4; that is the weight
    exp(-N/2 tr Y**2) at beta = 2 and exp(-N tr X**2) at beta = 4.  With
    M = I_d (x) Lambda - i Y, Hdet M is (-1)**(k(k-1)/2) times
    Pf [[0, M], [-M^T, 0]] = det M at beta = 2 and Pf(M J), J = (i sigma_2)
    (x) I_k, at beta = 4, where M^T = J M J^-1 makes M J antisymmetric.
    """
    units = _UNITS[beta]
    d = len(units[0])
    n_gauss = k + len(units) * k * (k - 1) // 2
    nslots = 1 + k + n_gauss
    i_unit, *symbols = _cpoly_vars(nslots)
    lam, gauss = symbols[:k], iter(symbols[k:])
    c = Fraction(n_size * beta, 4)
    variances = [1 / (2 * c)] * k + [1 / (4 * c)] * (n_gauss - k)

    def scaled(z: complex, poly: CPoly) -> CPoly:  # z a Gaussian integer
        unit = _cpoly_sum({(0,) * nslots: Fraction(int(z.real))},
                          {key: Fraction(int(z.imag)) for key in i_unit})
        return _cpoly_prod(unit, poly)

    diagonal = [next(gauss) for _ in range(k)]
    blocks = []
    for u in range(len(units)):
        b = [[diagonal[x] if u == 0 and x == y else {} for y in range(k)] for x in range(k)]
        for x in range(k):
            for y in range(x + 1, k):
                b[x][y] = next(gauss)
                b[y][x] = b[x][y] if u == 0 else scaled(-1, b[x][y])
        blocks.append(b)

    def entry(p: int, x: int, q: int, y: int) -> CPoly:
        parts = [lam[x]] if (p, x) == (q, y) else []
        return _cpoly_sum(*parts, *[scaled(-1j * unit[p][q], b[x][y])
                                    for unit, b in zip(units, blocks) if unit[p][q] and b[x][y]])

    m = [[entry(p, x, q, y) for q in range(d) for y in range(k)]
         for p in range(d) for x in range(k)]
    if d == 1:  # [[0, M], [-M^T, 0]]
        a = ([[{}] * k + row for row in m]
             + [[scaled(-1, m[y][x]) for y in range(k)] + [{}] * k for x in range(k)])
    else:  # M J: column (0, y) is -M[., (1, y)], column (1, y) is M[., (0, y)]
        a = [[scaled(-1, row[k + y]) for y in range(k)] + row[:k] for row in m]
    hdet = scaled((-1) ** (k * (k - 1) // 2), _pfaffian(a))
    return _gauss_expect_cpoly(_cpoly_prod(*[hdet] * n_size), k, variances)


@dataclass(frozen=True)
class CharpolyReport:
    which: str
    n: int
    k: int
    lhs: Tuple[Tuple[Tuple[int, ...], Fraction], ...]
    rhs: Tuple[Tuple[Tuple[int, ...], Fraction], ...]
    equal: bool


def verify_polynomial_identity(n_size: int, k: int, which: str) -> CharpolyReport:
    """Exact lambda-coefficient comparison of the two correlator integrals."""
    if n_size < 1 or k < 1:
        raise UsageError("need N >= 1 and k >= 1")
    which = which.upper()
    if which not in ("BHC", "BHQ"):
        raise UsageError("which must be BHC or BHQ")
    if k > 2:
        raise UsageError("the dual side is implemented for k <= 2 (its cost grows "
                         "steeply with k)")
    matrix_beta, dual_beta = (2, 2) if which == "BHC" else (1, 4)
    lhs = _charpoly_matrix_side(matrix_beta, n_size, k, Fraction(n_size, 2))
    rhs = _dual_side(dual_beta, n_size, k)
    equal = lhs == rhs
    report = CharpolyReport(which=which, n=n_size, k=k,
                            lhs=tuple(sorted(lhs.items())),
                            rhs=tuple(sorted(rhs.items())), equal=equal)
    if not equal:
        raise VerificationError("characteristic polynomial identity %s fails at N=%d k=%d"
                                % (which, n_size, k), payload=report)
    return report
