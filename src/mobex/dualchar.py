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

and the lhs/rhs agreement is term-by-term Poincare duality.  The finite-N
polynomial identities behind them are verified exactly for small N and k
by expanding determinants into power sums (matrix side) and entry-level
Gaussian moments (dual side).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Sequence, Tuple

from .catalog import HALF_EDGE_BUDGET, enumerate_graphs, ribbon_classes
from .errors import UsageError, VerificationError
from .graphs import MoebiusGraph
from .npoly import NPoly, add_term, mul_terms
from .oracle import MomentQuery, eigenvalue_moment
from .series import CouplingSeries, iter_monomials

LambdaSeries = CouplingSeries  # monomials are multisets of tau_j indices


# -- Poincare dual ---------------------------------------------------------------

def poincare_dual(graph: MoebiusGraph) -> MoebiusGraph:
    """Dual graph on the same surface: vertices and faces exchanged."""
    if graph.n_half_edges == 0:
        raise UsageError("the edgeless graph has no dual here")
    n = graph.n_half_edges

    def a_map(b: int) -> int:
        h, s = b >> 1, b & 1
        return (graph.partner(h) << 1) | (s ^ 1 ^ graph.twists[graph.edge_of(h)])

    def v_map(b: int) -> int:
        h, s = b >> 1, b & 1
        if s:
            return graph._succ[h] << 1
        return (graph._pred[h] << 1) | 1

    side0: List[int] = []          # dual half-edge id -> its side-0 blade
    half_of_blade: Dict[int, int] = {}
    rotations: List[Tuple[int, ...]] = []
    seen = [False] * (2 * n)
    for b0 in range(2 * n):
        if seen[b0]:
            continue
        rotation = []
        x = b0
        while True:
            dual_id = len(side0)
            side0.append(x)
            half_of_blade[x] = dual_id
            half_of_blade[a_map(x)] = dual_id
            seen[x] = True
            seen[a_map(x)] = True
            rotation.append(dual_id)
            x = v_map(a_map(x))
            if x == b0:
                break
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


def charpoly_lhs(ensemble: str, degree: int,
                 half_edge_budget: int = HALF_EDGE_BUDGET) -> LambdaSeries:
    """N x N side of the correlator duality, as a tau-series."""
    series = CouplingSeries(degree, {})
    if ensemble == "gue":
        for profile in iter_monomials(degree):
            for code, aut, topo in ribbon_classes(profile, half_edge_budget):
                add_term(series.terms, profile, NPoly.monomial(
                    topo.f - topo.e, 0, Fraction((-1) ** topo.v, aut)))
    elif ensemble == "goe":
        for profile in iter_monomials(degree):
            for entry in enumerate_graphs(list(profile), half_edge_budget=half_edge_budget):
                topo = entry.topology
                coeff = (Fraction((-1) ** topo.v) * Fraction(2) ** (topo.v - topo.e)
                         / entry.aut_moebius)
                add_term(series.terms, profile, NPoly.monomial(topo.f - topo.e, 0, coeff))
    else:
        raise UsageError("lhs ensembles: gue, goe")
    return series


def charpoly_rhs(ensemble: str, degree: int,
                 half_edge_budget: int = HALF_EDGE_BUDGET) -> LambdaSeries:
    """k x k side: same graphs, but faces carry the tau symbols."""
    series = CouplingSeries(degree, {})
    if ensemble == "gue":
        for profile in iter_monomials(degree):
            for code, aut, topo in ribbon_classes(profile, half_edge_budget):
                add_term(series.terms, _profile_monomial(topo.f_profile), NPoly.monomial(
                    topo.v - topo.e, 0, Fraction((-1) ** topo.f, aut)))
    elif ensemble == "gse":
        for profile in iter_monomials(degree):
            for entry in enumerate_graphs(list(profile), half_edge_budget=half_edge_budget):
                topo = entry.topology
                coeff = (Fraction((-1) ** topo.f) * Fraction(2) ** (topo.f - topo.e)
                         / entry.aut_moebius)
                add_term(series.terms, _profile_monomial(topo.f_profile),
                         NPoly.monomial(topo.v - topo.e, 0, coeff))
    else:
        raise UsageError("rhs ensembles: gue, gse")
    return series


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


def _bhc_dual_side(n_size: int, k: int) -> Dict[Tuple[int, ...], Fraction]:
    """E[det**N (Lambda - i Y)] over k x k GUE with weight exp(-N/2 tr Y^2)."""
    if k == 1:
        _, l1, y = _cpoly_vars(3)  # slots: i, lambda, y
        det = _cpoly_sum(l1, _cpoly_prod({(1, 0, 0): Fraction(-1)}, y))  # lambda - i y
        poly = _cpoly_prod(*[det] * n_size)
        return _gauss_expect_cpoly(poly, 1, [Fraction(1, n_size)])
    if k == 2:
        _, l1, l2, y11, y22, a, b = _cpoly_vars(7)  # a, b = re y12, im y12
        minus_i = {(1,) + (0,) * 6: Fraction(-1)}
        diag1 = _cpoly_sum(l1, _cpoly_prod(minus_i, y11))
        diag2 = _cpoly_sum(l2, _cpoly_prod(minus_i, y22))
        offsq = _cpoly_sum(_cpoly_prod(a, a), _cpoly_prod(b, b))  # Y12 Y21 = a^2 + b^2
        det = _cpoly_sum(_cpoly_prod(diag1, diag2), offsq)
        poly = _cpoly_prod(*[det] * n_size)
        var_d = Fraction(1, n_size)
        var_o = Fraction(1, 2 * n_size)
        return _gauss_expect_cpoly(poly, 2, [var_d, var_d, var_o, var_o])
    raise UsageError("BHC dual side implemented for k <= 2")


def _bhq_dual_side(n_size: int, k: int) -> Dict[Tuple[int, ...], Fraction]:
    """E[Hdet**N (Lambda - i X)] over k x k GSE with weight exp(-N tr X^2)."""
    if k == 1:
        _, l1, x = _cpoly_vars(3)  # the 1x1 self-adjoint quaternion x is real
        base = _cpoly_sum(l1, _cpoly_prod({(1, 0, 0): Fraction(-1)}, x))  # lambda - i x
        poly = _cpoly_prod(*[base] * n_size)
        return _gauss_expect_cpoly(poly, 1, [Fraction(1, 2 * n_size)])
    if k == 2:
        if n_size % 2:
            raise UsageError("BHQ k=2 needs even N (the half-determinant is a "
                             "polynomial only after squaring)")
        i, l1, l2, s11, s22, s12, a1, a2, a3 = _cpoly_vars(9)
        one = {(0,) * 9: Fraction(1)}
        minus = {(0,) * 9: Fraction(-1)}
        minus_i = _cpoly_prod(minus, i)
        S = [[s11, s12], [s12, s22]]
        A = [a1, a2, a3]
        # entries of i*sigma_1, i*sigma_2, i*sigma_3 indexed [p][q]
        ipauli = [
            {(0, 1): i, (1, 0): i},
            {(0, 1): one, (1, 0): minus},
            {(0, 0): i, (1, 1): minus_i},
        ]
        anti = {(0, 1): one, (1, 0): minus}

        # C(X) = I ox S + sum_i (i sigma_i) ox A_i with A = [[0,a],[-a,0]]
        C = [[{} for _ in range(4)] for _ in range(4)]
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    for t in range(2):
                        parts = [S[r][t]] if p == q else []
                        eps = anti.get((r, t))
                        if eps is not None:
                            parts += [_cpoly_prod(pa[(p, q)], eps, var)
                                      for pa, var in zip(ipauli, A) if (p, q) in pa]
                        C[2 * p + r][2 * q + t] = _cpoly_sum(*parts)

        lam = [l1, l2, l1, l2]  # rows are (pauli, matrix) pairs: Lambda acts on the matrix slot
        M = [[_cpoly_sum(_cpoly_prod(minus_i, C[r][t]), lam[r] if r == t else {})
              for t in range(4)] for r in range(4)]

        from itertools import permutations
        det: CPoly = {}
        for perm in permutations(range(4)):
            sign = 1
            for x in range(4):
                for y in range(x + 1, 4):
                    if perm[x] > perm[y]:
                        sign = -sign
            term = _cpoly_prod({(0,) * 9: Fraction(sign)}, *[M[r][perm[r]] for r in range(4)])
            det = _cpoly_sum(det, term)
        poly = _cpoly_prod(*[det] * (n_size // 2))
        var_s = Fraction(1, 2 * n_size)
        var_o = Fraction(1, 4 * n_size)
        return _gauss_expect_cpoly(poly, 2, [var_s, var_s, var_o, var_o, var_o, var_o])
    raise UsageError("BHQ dual side implemented for k <= 2")


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
    if which == "BHC":
        lhs = _charpoly_matrix_side(2, n_size, k, Fraction(n_size, 2))
        rhs = _bhc_dual_side(n_size, k)
    elif which == "BHQ":
        lhs = _charpoly_matrix_side(1, n_size, k, Fraction(n_size, 2))
        rhs = _bhq_dual_side(n_size, k)
    else:
        raise UsageError("which must be BHC or BHQ")
    equal = lhs == rhs
    report = CharpolyReport(which=which, n=n_size, k=k,
                            lhs=tuple(sorted(lhs.items())),
                            rhs=tuple(sorted(rhs.items())), equal=equal)
    if not equal:
        raise VerificationError("characteristic polynomial identity %s fails at N=%d k=%d"
                                % (which, n_size, k), payload=report)
    return report
