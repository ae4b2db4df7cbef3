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
side reads the k x k self-adjoint Y = sum_u U_u (x) B_u, over entry-level
Gaussian variables, from oracle's builder of the unit matrices, and takes
Hdet(Lambda - i Y) as one Pfaffian: det M = +-Pf [[0, M], [-M^T, 0]]
for BHC and Hdet M = +-Pf(M J), J = (i sigma_2) (x) I_k, for BHQ, which is
a polynomial at odd N too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple

from .catalog import HALF_EDGE_BUDGET, census
from .errors import UsageError, VerificationError
from .graphs import MoebiusGraph, _face_walks, _graph_arrays
from .npoly import NPoly, add_term, mul_terms
from .series import CouplingSeries, iter_monomials

if TYPE_CHECKING:  # oracle is imported where the finite-N identities run
    from .oracle import CPoly

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
    for walk in _face_walks(*_graph_arrays(graph)):
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
        for topo, inverse_aut in census(profile, "ribbon" if c == 1 else "moebius", budget):
            a, b, pairs = ((topo.f, topo.v, topo.f_profile) if dual
                           else (topo.v, topo.f, topo.v_profile))
            add_term(series.terms, _profile_monomial(pairs), NPoly.monomial(
                b - topo.e, 0, (-1) ** a * inverse_aut * Fraction(c) ** (a - topo.e)))
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


def _charpoly_matrix_side(beta: int, n_size: int, k: int, scale: Fraction
                          ) -> Dict[Tuple[int, ...], Fraction]:
    """E[prod_l det(lambda_l - X)] as {lambda exponent vector: coefficient}."""
    from .oracle import MomentQuery, eigenvalue_moment
    out: Dict[Tuple[int, ...], Fraction] = {}

    def rec(pos: int, exps: List[int], ppoly: PPoly, sign: int):
        if pos == k:
            moment = sum((coeff * eigenvalue_moment(MomentQuery(beta, n_size, key, scale))
                          for key, coeff in ppoly.items()), Fraction(0))
            add_term(out, tuple(exps), moment * sign)
            return
        for m in range(n_size + 1):
            rec(pos + 1, exps + [n_size - m],
                mul_terms(ppoly, dict(_elementary_in_powersums(m)), _merge),
                sign * (-1) ** m)

    rec(0, [], {(): Fraction(1)}, 1)
    return out


def _pfaffian(a: List[List[CPoly]]) -> CPoly:
    """Pf of an antisymmetric 2m x 2m matrix, expanded along its first row."""
    from .oracle import _cpoly_prod

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

    Y = sum_u U_u (x) B_u is oracle's exact unit matrix at c = N beta / 4,
    the weight exp(-N/2 tr Y**2) at beta = 2 and exp(-N tr X**2) at beta = 4.
    With M = I_d (x) Lambda - i Y, Hdet M is (-1)**(k(k-1)/2) times
    Pf [[0, M], [-M^T, 0]] = det M at beta = 2 and Pf(M J), J = (i sigma_2)
    (x) I_k, at beta = 4, where M^T = J M J^-1 makes M J antisymmetric.
    """
    from .oracle import (_cpoly_prod, _cpoly_sum, _cpoly_vars, _gauss_expect_cpoly, _scaled,
                         _unit_matrix)

    y_matrix, d, nslots, variances = _unit_matrix(beta, k, Fraction(n_size * beta, 4), k)
    lam = _cpoly_vars(nslots)[1:k + 1]
    m = [[_cpoly_sum(lam[r % k] if r == s else {}, _scaled(-1j, entry))
          for s, entry in enumerate(row)] for r, row in enumerate(y_matrix)]
    if d == 1:  # [[0, M], [-M^T, 0]]
        a = ([[{}] * k + row for row in m]
             + [[_scaled(-1, m[y][x]) for y in range(k)] + [{}] * k for x in range(k)])
    else:  # M J: column (0, y) is -M[., (1, y)], column (1, y) is M[., (0, y)]
        a = [[_scaled(-1, row[k + y]) for y in range(k)] + row[:k] for row in m]
    hdet = _scaled((-1) ** (k * (k - 1) // 2), _pfaffian(a))
    return _gauss_expect_cpoly(_cpoly_prod(*[hdet] * n_size), k, variances)


class CharpolyReport(NamedTuple):
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
