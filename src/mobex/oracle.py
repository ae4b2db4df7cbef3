"""Independent verification of the graph sums via eigenvalue measures.

The eigenvalue density of an N x N ensemble is |Delta(k)|**beta times a
Gaussian.  For beta = 2, 4 the Vandermonde power is a polynomial, so every
moment reduces to one-dimensional Gaussian moments of monomials.  For
beta = 1 the absolute value matters; moments are computed exactly with de
Bruijn's ordered-chamber Pfaffian:

    integral over x_1 > ... > x_n of det[x_i**mu_j] * gaussian
        = Pf[ s(mu_j, mu_k) ]                 (n even)
        = Pf[ s(mu_j, mu_k) | g(mu_j) ]       (n odd, bordered)

where s(a, b) = iint sgn(x-y) x**a y**b e^(-c(x^2+y^2)) dx dy and
g(a) is the one-dimensional Gaussian moment.  Rotating to u = (x-y)/sqrt2,
v = (x+y)/sqrt2 makes s elementary: the sgn factor pairs an odd |u|-moment
(rational in c) with an even v-moment, so after pulling out one sqrt(pi/c)
and a power of sqrt2 every entry is rational, and all irrational prefactors
are uniform across a fixed homogeneous degree, hence cancel in ratios.

Monte Carlo estimation is a sanity layer only; acceptance never depends
on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial
from typing import Dict, List, Sequence, Tuple

from .errors import BudgetError, UsageError, VerificationError
from .npoly import NPoly
from .series import CouplingSeries, _validate_tag, expand_logZ, tag_monomials

ORACLE_DEGREE_BUDGET = 8

Poly = Dict[Tuple[int, ...], Fraction]  # exponent vector -> coefficient


@dataclass(frozen=True)
class MomentQuery:
    beta: int
    n: int
    powers: Tuple[int, ...]
    scale: Fraction  # Gaussian weight exp(-scale * sum k_i**2)

    def __post_init__(self):
        if self.beta not in (1, 2, 4):
            raise UsageError("beta must be 1, 2 or 4")
        if self.n < 1:
            raise UsageError("matrix size must be >= 1")
        if any(j < 1 for j in self.powers):
            raise UsageError("powers must be >= 1")
        if self.scale <= 0:
            raise UsageError("Gaussian scale must be positive")


@dataclass(frozen=True)
class OracleReport:
    beta: int
    n: int
    tag: str
    monomial: Tuple[int, ...]
    exact: Fraction
    predicted: Fraction
    equal: bool


# -- sparse multivariate polynomials ----------------------------------------------

def _poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            acc = out.get(key, Fraction(0)) + c1 * c2
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def _power_sum(n: int, j: int) -> Poly:
    out: Poly = {}
    for i in range(n):
        key = tuple(j if t == i else 0 for t in range(n))
        out[key] = out.get(key, Fraction(0)) + 1
    return out


@lru_cache(maxsize=None)
def _vandermonde_power(n: int, beta: int) -> Tuple[Tuple[Tuple[int, ...], Fraction], ...]:
    out: Poly = {tuple([0] * n): Fraction(1)}
    diff: Poly
    for i in range(n):
        for j in range(i + 1, n):
            diff = {}
            ei = tuple(1 if t == i else 0 for t in range(n))
            ej = tuple(1 if t == j else 0 for t in range(n))
            diff[ei] = Fraction(1)
            diff[ej] = Fraction(-1)
            for _ in range(beta):
                out = _poly_mul(out, diff)
    return tuple(out.items())


def _gauss_reduced(d: int, c: Fraction) -> Fraction:
    """integral x**d e^(-c x^2) dx divided by sqrt(pi/c)."""
    if d % 2:
        return Fraction(0)
    m = d // 2
    return Fraction(factorial(2 * m), factorial(m) * 2 ** m) / (2 * c) ** m


# -- beta in {2, 4}: plain monomial integration ------------------------------------

def _moment_even_beta(query: MomentQuery, budget: int) -> Fraction:
    n, beta, c = query.n, query.beta, query.scale
    vand = dict(_vandermonde_power(n, beta))
    target: Poly = dict(vand)
    for j in query.powers:
        target = _poly_mul(target, _power_sum(n, j))
        if len(target) > budget * 100000:
            raise BudgetError("monomial expansion too large")

    def integrate(poly: Poly) -> Fraction:
        total = Fraction(0)
        for exps, coeff in poly.items():
            term = coeff
            for d in exps:
                term *= _gauss_reduced(d, c)
                if not term:
                    break
            total += term
        return total

    denom = integrate(vand)
    return integrate(target) / denom


# -- beta = 1: ordered-chamber Pfaffian ---------------------------------------------

@lru_cache(maxsize=None)
def _s_reduced(a: int, b: int, c: Fraction) -> Fraction:
    """s(a,b) / (sqrt(pi/c) * 2**(-(a+b)/2)); zero unless a+b is odd."""
    if (a + b) % 2 == 0:
        return Fraction(0)
    total = Fraction(0)
    for i in range(a + 1):
        for j in range(b + 1):
            q = i + j
            p = a + b - q
            if q % 2 or p % 2 == 0:
                continue
            term = Fraction(comb(a, i) * comb(b, j)) * (-1) ** (b - j)
            term *= Fraction(factorial((p - 1) // 2)) / c ** ((p + 1) // 2)
            term *= Fraction(factorial(q), factorial(q // 2) * 2 ** (q // 2)) / (2 * c) ** (q // 2)
            total += term
    return total


def _g_reduced(m: int, c: Fraction) -> Fraction:
    """g(m) * 2**(m/2) / sqrt(pi/c); zero for odd m."""
    if m % 2:
        return Fraction(0)
    h = m // 2
    return Fraction(factorial(m), factorial(h) * 2 ** h) / (2 * c) ** h * Fraction(2) ** h


def _pfaffian(mat: List[List[Fraction]]) -> Fraction:
    size = len(mat)
    if size == 0:
        return Fraction(1)
    if size % 2:
        return Fraction(0)
    if size == 2:
        return mat[0][1]
    total = Fraction(0)
    rest = list(range(1, size))
    for pos, k in enumerate(rest):
        if not mat[0][k]:
            continue
        keep = [r for r in rest if r != k]
        sub = [[mat[r][t] for t in keep] for r in keep]
        total += (-1) ** pos * mat[0][k] * _pfaffian(sub)
    return total


def _pf_reduced(mu: Tuple[int, ...], c: Fraction) -> Fraction:
    """Reduced Pfaffian for the ordered integral of det[x_i**mu_j]."""
    n = len(mu)
    size = n if n % 2 == 0 else n + 1
    mat = [[Fraction(0)] * size for _ in range(size)]
    for i in range(n):
        for j in range(i + 1, n):
            val = _s_reduced(mu[i], mu[j], c)
            mat[i][j] = val
            mat[j][i] = -val
    if n % 2:
        for i in range(n):
            val = _g_reduced(mu[i], c)
            mat[i][n] = val
            mat[n][i] = -val
    return _pfaffian(mat)


def _antisym_decompose(poly: Poly) -> Dict[Tuple[int, ...], Fraction]:
    """Coefficients of det[x_i**mu_j] over strictly decreasing mu."""
    out: Dict[Tuple[int, ...], Fraction] = {}
    for exps, coeff in poly.items():
        if len(set(exps)) != len(exps):
            continue
        if all(exps[i] > exps[i + 1] for i in range(len(exps) - 1)):
            out[exps] = coeff
    return out


def _moment_goe(query: MomentQuery) -> Fraction:
    n, c = query.n, query.scale
    deg = sum(query.powers)
    if deg % 2:
        return Fraction(0)
    target: Poly = dict(_vandermonde_power(n, 1))
    for j in query.powers:
        target = _poly_mul(target, _power_sum(n, j))

    numer = Fraction(0)
    for mu, coeff in _antisym_decompose(target).items():
        numer += coeff * _pf_reduced(mu, c)
    mu0 = tuple(range(n - 1, -1, -1))
    denom = _pf_reduced(mu0, c)
    return numer / denom / Fraction(2) ** (deg // 2)


def eigenvalue_moment(query: MomentQuery, budget: int = ORACLE_DEGREE_BUDGET) -> Fraction:
    """E[prod_l p_{j_l}] under |Delta|**beta e^(-c sum k^2), exactly."""
    if sum(query.powers) % 2:
        return Fraction(0)
    if query.beta == 1:
        return _moment_goe(query)
    return _moment_even_beta(query, budget)


# -- entry-level Isserlis oracle (beta = 1) -----------------------------------------

def isserlis_trace_moment(n: int, powers: Sequence[int], c: Fraction) -> Fraction:
    """E[prod_l tr S**{j_l}] from Wick pairings of matrix entries.

    A deliberate independent route, kept beside the chamber-Pfaffian
    eigenvalue route for the GOE moments tests: it uses the symmetric
    propagator <S_ab S_cd> = (delta_ac delta_bd + delta_ad delta_bc) / (4c)
    and never diagonalizes.
    """
    m2 = sum(powers)
    if m2 % 2:
        return Fraction(0)
    cov_unit = Fraction(1, 4 * c)

    pairings: List[List[Tuple[int, int]]] = []

    def build(slots: List[int], acc: List[Tuple[int, int]]):
        if not slots:
            pairings.append(list(acc))
            return
        a = slots[0]
        for i in range(1, len(slots)):
            acc.append((a, slots[i]))
            build(slots[1:i] + slots[i + 1:], acc)
            acc.pop()

    build(list(range(m2)), [])

    total = Fraction(0)
    ranges = [list(product(range(n), repeat=j)) for j in powers]
    for tuples in product(*ranges):
        entries: List[Tuple[int, int]] = []
        for j, tup in zip(powers, tuples):
            for pos in range(j):
                entries.append((tup[pos], tup[(pos + 1) % j]))
        for pairing in pairings:
            prod_val = 1
            for x, y in pairing:
                (a, b), (cc, d) = entries[x], entries[y]
                v = (a == cc and b == d) + (a == d and b == cc)
                if not v:
                    prod_val = 0
                    break
                prod_val *= v
            if prod_val:
                total += prod_val
    return total * cov_unit ** (m2 // 2)


# -- graph sum vs oracle --------------------------------------------------------------

_TAG_DICTIONARY = {
    # tag -> (vandermonde beta from ensemble beta, scale(n), vertex factor g_j)
    "master": lambda beta, n: (beta, Fraction(1, 4), lambda j: Fraction(1, 2 * j)),
    "rescaled": lambda beta, n: (beta, Fraction(beta, 4), lambda j: Fraction(beta, 2 * j)),
    "hermitian": lambda beta, n: (2, Fraction(1, 2), lambda j: Fraction(1, j)),
    "gse-penner": lambda beta, n: (4, Fraction(1, 2), lambda j: Fraction(1, j)),
    "invariant": lambda beta, n: (beta, Fraction(n * beta, 4), lambda j: Fraction(n * beta, 2 * j)),
}


def oracle_logZ(beta: int, tag: str, degree: int, n: int,
                include_t1: bool = True, include_t2: bool = True,
                budget: int = ORACLE_DEGREE_BUDGET) -> CouplingSeries:
    """log Z as a t-series with rational coefficients, from eigenvalue moments."""
    if degree > budget:
        raise BudgetError("degree %d exceeds oracle budget %d" % (degree, budget))
    _validate_tag(tag, beta)
    vand_beta, scale, gfun = _TAG_DICTIONARY[tag](beta, n)

    z = CouplingSeries(degree, {(): NPoly.const(1)})
    for monomial in tag_monomials(tag, degree, include_t1, include_t2):
        counts: Dict[int, int] = {}
        for j in monomial:
            counts[j] = counts.get(j, 0) + 1
        coeff = Fraction(1)
        for j, m in counts.items():
            coeff *= gfun(j) ** m / factorial(m)
        moment = eigenvalue_moment(
            MomentQuery(beta=vand_beta, n=n, powers=monomial, scale=scale), budget)
        value = coeff * moment
        if value:
            z.terms[monomial] = NPoly.const(value)
    return z.log()


def oracle_compare(beta: int, tag: str, degree: int, sizes: Sequence[int],
                   include_t1: bool = True, include_t2: bool = True,
                   budget: int = ORACLE_DEGREE_BUDGET) -> List[OracleReport]:
    """Exact comparison of the Moebius-graph sum against eigenvalue moments."""
    graph_side = expand_logZ(tag, degree, beta=None if tag == "invariant" else beta,
                             include_t1=include_t1, include_t2=include_t2)
    if tag == "invariant":
        graph_side = graph_side.reduce_root(Fraction(beta, 2))

    reports: List[OracleReport] = []
    for n in sizes:
        oracle_side = oracle_logZ(beta, tag, degree, n, include_t1, include_t2, budget)
        keys = set(graph_side.terms) | set(oracle_side.terms)
        for key in sorted(keys):
            predicted = graph_side.coefficient(key).eval_N(n)
            exact = oracle_side.coefficient(key).as_fraction()
            equal = predicted == exact
            reports.append(OracleReport(beta=beta, n=n, tag=tag, monomial=key,
                                        exact=exact, predicted=predicted, equal=equal))
            if not equal:
                raise VerificationError(
                    "oracle mismatch at beta=%d n=%d monomial=%r: graph %s vs oracle %s"
                    % (beta, n, key, predicted, exact),
                    payload=reports[-1])
    return reports


# -- Monte Carlo sanity layer ----------------------------------------------------------

def mc_estimate(beta: int, n: int, powers: Sequence[int], samples: int, seed: int,
                scale: Fraction = Fraction(1, 4)) -> Tuple[float, float]:
    """Sample mean and standard error of prod_l tr X**{j_l}."""
    import numpy as np

    if beta not in (1, 2, 4):
        raise UsageError("beta must be 1, 2 or 4")
    rng = np.random.default_rng(seed)
    c = float(scale)
    sd_diag = (1.0 / (2 * c)) ** 0.5
    sd_off = (1.0 / (4 * c)) ** 0.5

    values = np.empty(samples)
    pauli = [np.array([[0, 1], [1, 0]], dtype=complex),
             np.array([[0, -1j], [1j, 0]], dtype=complex),
             np.array([[1, 0], [0, -1]], dtype=complex)]
    eye2 = np.eye(2, dtype=complex)

    def sample_symmetric():
        upper = np.triu(rng.normal(0.0, sd_off, (n, n)), 1)
        s = upper + upper.T
        np.fill_diagonal(s, rng.normal(0.0, sd_diag, n))
        return s

    def sample_antisymmetric():
        upper = np.triu(rng.normal(0.0, sd_off, (n, n)), 1)
        return upper - upper.T

    for it in range(samples):
        if beta == 1:
            mat = sample_symmetric()
            tr = lambda j: np.trace(np.linalg.matrix_power(mat, j)).real
        elif beta == 2:
            re = np.triu(rng.normal(0.0, sd_off, (n, n)), 1)
            im = np.triu(rng.normal(0.0, sd_off, (n, n)), 1)
            x = (re + 1j * im).astype(complex)
            x = x + x.conj().T
            np.fill_diagonal(x, rng.normal(0.0, sd_diag, n))
            mat = x
            tr = lambda j: np.trace(np.linalg.matrix_power(mat, j)).real
        else:
            cx = np.kron(eye2, sample_symmetric()).astype(complex)
            for pa in pauli:
                cx = cx + np.kron(1j * pa, sample_antisymmetric())
            mat = cx
            tr = lambda j: 0.5 * np.trace(np.linalg.matrix_power(mat, j)).real
        prod_val = 1.0
        for j in powers:
            prod_val *= tr(j)
        values[it] = prod_val

    mean = float(values.mean())
    err = float(values.std(ddof=1) / samples ** 0.5) if samples > 1 else float("inf")
    return mean, err
