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
from .npoly import NPoly
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
                weight = NPoly.monomial(topo.f - topo.e, 0,
                                        Fraction((-1) ** topo.v, aut))
                key = profile
                series.terms[key] = series.terms.get(key, NPoly.zero()) + weight
    elif ensemble == "goe":
        for profile in iter_monomials(degree):
            for entry in enumerate_graphs(list(profile), half_edge_budget=half_edge_budget):
                topo = entry.topology
                coeff = (Fraction((-1) ** topo.v) * Fraction(2) ** (topo.v - topo.e)
                         / entry.aut_moebius)
                weight = NPoly.monomial(topo.f - topo.e, 0, coeff)
                series.terms[profile] = series.terms.get(profile, NPoly.zero()) + weight
    else:
        raise UsageError("lhs ensembles: gue, goe")
    series.terms = {k: v for k, v in series.terms.items() if v}
    return series


def charpoly_rhs(ensemble: str, degree: int,
                 half_edge_budget: int = HALF_EDGE_BUDGET) -> LambdaSeries:
    """k x k side: same graphs, but faces carry the tau symbols."""
    series = CouplingSeries(degree, {})
    if ensemble == "gue":
        for profile in iter_monomials(degree):
            for code, aut, topo in ribbon_classes(profile, half_edge_budget):
                key = _profile_monomial(topo.f_profile)
                weight = NPoly.monomial(topo.v - topo.e, 0,
                                        Fraction((-1) ** topo.f, aut))
                series.terms[key] = series.terms.get(key, NPoly.zero()) + weight
    elif ensemble == "gse":
        for profile in iter_monomials(degree):
            for entry in enumerate_graphs(list(profile), half_edge_budget=half_edge_budget):
                topo = entry.topology
                key = _profile_monomial(topo.f_profile)
                coeff = (Fraction((-1) ** topo.f) * Fraction(2) ** (topo.f - topo.e)
                         / entry.aut_moebius)
                weight = NPoly.monomial(topo.v - topo.e, 0, coeff)
                series.terms[key] = series.terms.get(key, NPoly.zero()) + weight
    else:
        raise UsageError("rhs ensembles: gue, gse")
    series.terms = {k: v for k, v in series.terms.items() if v}
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


def _ppoly_mul(p: PPoly, q: PPoly) -> PPoly:
    out: PPoly = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(sorted(k1 + k2))
            acc = out.get(key, Fraction(0)) + c1 * c2
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


@lru_cache(maxsize=None)
def _elementary_in_powersums(m: int) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    """Newton's identity: e_m = (1/m) sum_i (-1)**(i-1) e_(m-i) p_i."""
    if m == 0:
        return ((tuple(), Fraction(1)),)
    total: PPoly = {}
    for i in range(1, m + 1):
        prev = dict(_elementary_in_powersums(m - i))
        term = _ppoly_mul(prev, {(i,): Fraction((-1) ** (i - 1), m)})
        for key, val in term.items():
            acc = total.get(key, Fraction(0)) + val
            if acc:
                total[key] = acc
            else:
                total.pop(key, None)
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
            value = _expect_ppoly(ppoly, beta, n_size, scale) * sign
            if value:
                key = tuple(exps)
                acc = out.get(key, Fraction(0)) + value
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
            return
        for m in range(n_size + 1):
            rec(pos + 1, exps + [n_size - m],
                _ppoly_mul(ppoly, dict(_elementary_in_powersums(m))),
                sign * (-1) ** m)

    rec(0, [], {(): Fraction(1)}, 1)
    return out


# complex polynomials in real Gaussian variables plus lambda symbols:
# {exponent tuple: (re, im)}; the first k slots are lambdas.
CPoly = Dict[Tuple[int, ...], Tuple[Fraction, Fraction]]


def _cpoly_var(idx: int, nvars: int) -> CPoly:
    key = tuple(1 if t == idx else 0 for t in range(nvars))
    return {key: (Fraction(1), Fraction(0))}


def _cpoly_add(p: CPoly, q: CPoly) -> CPoly:
    out = dict(p)
    for key, (re, im) in q.items():
        r0, i0 = out.get(key, (Fraction(0), Fraction(0)))
        r0, i0 = r0 + re, i0 + im
        if r0 or i0:
            out[key] = (r0, i0)
        else:
            out.pop(key, None)
    return out


def _cpoly_scale(p: CPoly, z: Tuple[Fraction, Fraction]) -> CPoly:
    return {key: (re * z[0] - im * z[1], re * z[1] + im * z[0])
            for key, (re, im) in p.items()}


def _cpoly_mul(p: CPoly, q: CPoly) -> CPoly:
    out: CPoly = {}
    for e1, (a1, b1) in p.items():
        for e2, (a2, b2) in q.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            re, im = out.get(key, (Fraction(0), Fraction(0)))
            re += a1 * a2 - b1 * b2
            im += a1 * b2 + b1 * a2
            if re or im:
                out[key] = (re, im)
            else:
                out.pop(key, None)
    return out


def _cpoly_pow(p: CPoly, exponent: int, nvars: int) -> CPoly:
    result: CPoly = {tuple([0] * nvars): (Fraction(1), Fraction(0))}
    for _ in range(exponent):
        result = _cpoly_mul(result, p)
    return result


def _gauss_expect_cpoly(poly: CPoly, k: int, variances: Sequence[Fraction]
                        ) -> Dict[Tuple[int, ...], Fraction]:
    """Integrate out the Gaussian variables; imaginary parts must cancel."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    acc_im: Dict[Tuple[int, ...], Fraction] = {}
    for exps, (re, im) in poly.items():
        lam = exps[:k]
        weight = Fraction(1)
        for d, var in zip(exps[k:], variances):
            if d % 2:
                weight = Fraction(0)
                break
            m = d // 2
            weight *= Fraction(factorial(d), factorial(m) * 2 ** m) * var ** m
        if not weight:
            continue
        out[lam] = out.get(lam, Fraction(0)) + re * weight
        acc_im[lam] = acc_im.get(lam, Fraction(0)) + im * weight
    if any(acc_im.values()):
        raise VerificationError("dual-side expectation is not real", payload=acc_im)
    return {key: val for key, val in out.items() if val}


def _bhc_dual_side(n_size: int, k: int) -> Dict[Tuple[int, ...], Fraction]:
    """E[det**N (Lambda - i Y)] over k x k GUE with weight exp(-N/2 tr Y^2)."""
    if k == 1:
        nvars = 2  # lambda1, y
        det: CPoly = {(1, 0): (Fraction(1), Fraction(0)),
                      (0, 1): (Fraction(0), Fraction(-1))}
        poly = _cpoly_pow(det, n_size, nvars)
        return _gauss_expect_cpoly(poly, 1, [Fraction(1, n_size)])
    if k == 2:
        # vars: lambda1, lambda2, y11, y22, re y12, im y12
        nvars = 6
        l1, l2, y11, y22, a, b = (_cpoly_var(i, nvars) for i in range(6))
        mi = (Fraction(0), Fraction(-1))
        diag1 = _cpoly_add(l1, _cpoly_scale(y11, mi))
        diag2 = _cpoly_add(l2, _cpoly_scale(y22, mi))
        offsq = _cpoly_add(_cpoly_mul(a, a), _cpoly_mul(b, b))  # Y12 Y21 = a^2 + b^2
        det = _cpoly_add(_cpoly_mul(diag1, diag2), offsq)
        poly = _cpoly_pow(det, n_size, nvars)
        var_d = Fraction(1, n_size)
        var_o = Fraction(1, 2 * n_size)
        return _gauss_expect_cpoly(poly, 2, [var_d, var_d, var_o, var_o])
    raise UsageError("BHC dual side implemented for k <= 2")


def _bhq_dual_side(n_size: int, k: int) -> Dict[Tuple[int, ...], Fraction]:
    """E[Hdet**N (Lambda - i X)] over k x k GSE with weight exp(-N tr X^2)."""
    if k == 1:
        nvars = 2  # lambda1, x (the 1x1 self-adjoint quaternion is real)
        base: CPoly = {(1, 0): (Fraction(1), Fraction(0)),
                       (0, 1): (Fraction(0), Fraction(-1))}
        poly = _cpoly_pow(base, n_size, nvars)
        return _gauss_expect_cpoly(poly, 1, [Fraction(1, 2 * n_size)])
    if k == 2:
        if n_size % 2:
            raise UsageError("BHQ k=2 needs even N (the half-determinant is a "
                             "polynomial only after squaring)")
        # vars: l1, l2, s11, s22, s12, a1, a2, a3
        nvars = 8
        l1, l2, s11, s22, s12, a1, a2, a3 = (_cpoly_var(i, nvars) for i in range(8))
        S = [[s11, s12], [s12, s22]]
        A = [a1, a2, a3]
        one = (Fraction(1), Fraction(0))
        i_u = (Fraction(0), Fraction(1))
        # entries of i*sigma_1, i*sigma_2, i*sigma_3 indexed [p][q]
        ipauli = [
            {(0, 1): i_u, (1, 0): i_u},
            {(0, 1): one, (1, 0): (Fraction(-1), Fraction(0))},
            {(0, 0): i_u, (1, 1): (Fraction(0), Fraction(-1))},
        ]
        anti = {(0, 1): Fraction(1), (1, 0): Fraction(-1)}

        # C(X) = I ox S + sum_i (i sigma_i) ox A_i with A = [[0,a],[-a,0]]
        C = [[{} for _ in range(4)] for _ in range(4)]
        for p in range(2):
            for q in range(2):
                for r in range(2):
                    for t in range(2):
                        entry: CPoly = {}
                        if p == q:
                            entry = _cpoly_add(entry, S[r][t])
                        eps = anti.get((r, t))
                        if eps is not None:
                            for pa, var in zip(ipauli, A):
                                z = pa.get((p, q))
                                if z is not None:
                                    entry = _cpoly_add(
                                        entry, _cpoly_scale(var, (z[0] * eps, z[1] * eps)))
                        C[2 * p + r][2 * q + t] = entry

        lam = [l1, l2, l1, l2]  # rows are (pauli, matrix) pairs: Lambda acts on the matrix slot
        minus_i = (Fraction(0), Fraction(-1))
        M = [[_cpoly_add(_cpoly_scale(C[r][t], minus_i),
                         lam[r] if r == t else {}) for t in range(4)] for r in range(4)]

        from itertools import permutations
        det: CPoly = {}
        for perm in permutations(range(4)):
            sign = 1
            for x in range(4):
                for y in range(x + 1, 4):
                    if perm[x] > perm[y]:
                        sign = -sign
            term: CPoly = {tuple([0] * nvars): (Fraction(sign), Fraction(0))}
            for r in range(4):
                term = _cpoly_mul(term, M[r][perm[r]])
            det = _cpoly_add(det, term)
        poly = _cpoly_pow(det, n_size // 2, nvars)
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
