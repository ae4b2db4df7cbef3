"""Independent verification of the graph sums via eigenvalue measures.

The eigenvalue density of an N x N ensemble is |Delta(x)|**beta times
exp(-c sum x_i**2).  Integrating sum_i d/dx_i (x_i**k F density) = 0 by
parts, with power sums p_j = sum_i x_i**j, p_0 = N and F = prod_l p_{j_l},
gives the loop (Schwinger-Dyson) equations of the beta ensembles
(Dumitriu-Edelman 2002):

    2c E[p_{k+1} F] = (1 - beta/2) k E[p_{k-1} F]
                      + (beta/2) sum_{a+b=k-1} E[p_a p_b F]
                      + sum_l j_l E[p_{k+j_l-1} F / p_{j_l}]

Each step lowers the degree by two, so one memoized recursion gives every
moment exactly, as a polynomial in N, for beta = 1, 2 and 4 alike; it
never touches a graph.  The entry-level Wick-pairing route
(isserlis_trace_moment) is kept beside it for beta = 1.

oracle_logZ builds log Z from these moments as a series over Q[N] for
every tag, and oracle_compare compares it with the graph sum once,
coefficient polynomial by coefficient polynomial.  invariant's scale
N beta/4 and vertex factors N beta/(2j) carry N: its t-monomial with v
vertices and e edges is rescaled's (scale beta/4, factors beta/(2j)) times
N**(v-e).

Monte Carlo estimation is a sanity layer only; acceptance never depends
on it.  It follows the paper's one construction for the three ensembles: a
self-adjoint matrix over the units {1}, {1, i} or {1, i, j, k} is
X = sum_u U_u (x) B_u, with the units as d x d complex matrices (d = 1, 1,
2), B_0 real symmetric and the other B_u real antisymmetric.  Batches of
max(1, 2**12 // (dn)**2) such dn x dn matrices go through one eigvalsh each.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, isfinite
from typing import List, Sequence, Tuple

from .errors import (HALF_EDGE_BUDGET, ORACLE_DEGREE_BUDGET, BudgetError, UsageError,
                     VerificationError)
from .npoly import NPoly
from .series import (CouplingSeries, _dropped_couplings, _monomial_count, _validate_tag,
                     expand_logZ, series_one, tag_monomials)


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


# -- loop equations -------------------------------------------------------------------

@lru_cache(maxsize=None)
def _loop_moment(beta: int, scale: Fraction, powers: Tuple[int, ...]) -> NPoly:
    """E[prod_l p_{j_l}] as a polynomial in N; powers sorted, each >= 1."""
    if not powers:
        return NPoly.const(1)
    if sum(powers) % 2:
        return NPoly.zero()
    k, rest = powers[-1] - 1, powers[:-1]

    def moment(others: Tuple[int, ...], *extra: int) -> NPoly:
        # E[prod_e p_e * prod others], with p_0 = N
        key = tuple(sorted(others + tuple(e for e in extra if e)))
        return _loop_moment(beta, scale, key) * NPoly.N(extra.count(0))

    half = Fraction(beta, 2)
    total = NPoly.zero()
    if k and half != 1:
        total += (1 - half) * k * moment(rest, k - 1)
    for a in range(k):
        total += half * moment(rest, a, k - 1 - a)
    for i, j in enumerate(rest):
        total += j * moment(rest[:i] + rest[i + 1:], k + j - 1)
    return total * Fraction(1, 2 * scale)


def eigenvalue_moment(query: MomentQuery) -> Fraction:
    """E[prod_l p_{j_l}] under |Delta|**beta e^(-c sum k^2), exactly."""
    powers = tuple(sorted(query.powers))
    return _loop_moment(query.beta, query.scale, powers).eval_N(query.n)


# -- entry-level Isserlis oracle (beta = 1) -----------------------------------------

def isserlis_trace_moment(n: int, powers: Sequence[int], c: Fraction) -> Fraction:
    """E[prod_l tr S**{j_l}] from Wick pairings of matrix entries.

    A deliberate independent route, kept beside the loop-equation
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
    # tag -> (measure beta, scale, vertex factor g_j) from the ensemble beta; invariant's
    # N-dependence is the N**(v-e) in oracle_logZ
    "master": lambda beta: (beta, Fraction(1, 4), lambda j: Fraction(1, 2 * j)),
    "rescaled": lambda beta: (beta, Fraction(beta, 4), lambda j: Fraction(beta, 2 * j)),
    "hermitian": lambda beta: (2, Fraction(1, 2), lambda j: Fraction(1, j)),
    "gse-penner": lambda beta: (4, Fraction(1, 2), lambda j: Fraction(1, j)),
    "invariant": lambda beta: (beta, Fraction(beta, 4), lambda j: Fraction(beta, 2 * j)),
}


def oracle_logZ(beta: int, tag: str, degree: int,
                budget: int = ORACLE_DEGREE_BUDGET) -> CouplingSeries:
    """log Z as a t-series over Q[N], from the loop-equation moments."""
    _validate_tag(tag, beta)
    if degree > budget:
        count = _monomial_count(degree, _dropped_couplings(tag, True, True))
        raise BudgetError(
            "degree %d exceeds oracle budget %d: it would compute %s eigenvalue moments,"
            " one per coupling monomial of tag %r"
            % (degree, budget, "over 10^30" if count is None else count, tag))
    if beta not in (1, 2, 4):
        raise UsageError("beta must be 1, 2 or 4")
    measure_beta, scale, gfun = _TAG_DICTIONARY[tag](beta)

    z = series_one(degree)
    for monomial in tag_monomials(tag, degree):
        coeff = Fraction(1)
        for j in set(monomial):
            m = monomial.count(j)
            coeff *= gfun(j) ** m / factorial(m)
        n_power = len(monomial) - sum(monomial) // 2 if tag == "invariant" else 0
        z.set_coefficient(monomial, _loop_moment(measure_beta, scale, monomial)
                          * NPoly.N(n_power, coeff))
    return z.log()


def oracle_compare(beta: int, tag: str, degree: int, sizes: Sequence[int],
                   budget: int = ORACLE_DEGREE_BUDGET,
                   half_edge_budget: int = HALF_EDGE_BUDGET) -> List[OracleReport]:
    """Exact comparison of the Moebius-graph sum against eigenvalue moments.

    Both sides are log Z as a series over Q[N], for every tag, and their
    coefficient polynomials are compared once; each size only evaluates
    them into its reports.  invariant's scale N beta/4 is rescaled's beta/4
    with the eigenvalues divided by sqrt(N), which multiplies a moment of
    e = sum/2 edges by N**-e, and its v vertex factors N beta/(2j) add N**v;
    its graph side is compared at r**2 = beta/2.  The oracle side comes
    first: it checks the degree budget, which must fail before the graph
    side pays for its catalog.
    """
    oracle_side = oracle_logZ(beta, tag, degree, budget)
    if not sizes or min(sizes) < 1:
        raise UsageError("matrix sizes must be >= 1, got %s" % list(sizes))
    graph_side = expand_logZ(tag, degree, beta=None if tag == "invariant" else beta,
                             half_edge_budget=half_edge_budget)
    if tag == "invariant":
        graph_side = graph_side.reduce_root(Fraction(beta, 2))

    def report(n: int, key: Tuple[int, ...], equal: bool) -> OracleReport:
        return OracleReport(beta=beta, n=n, tag=tag, monomial=key,
                            exact=oracle_side.coefficient(key).eval_N(n),
                            predicted=graph_side.coefficient(key).eval_N(n), equal=equal)

    keys = sorted(set(graph_side.terms) | set(oracle_side.terms))
    for key in keys:
        graph, exact = graph_side.coefficient(key), oracle_side.coefficient(key)
        if graph != exact:
            raise VerificationError(
                "oracle mismatch at beta=%d monomial=%r: graph %s vs oracle %s"
                % (beta, key, graph, exact), payload=report(sizes[0], key, False))
    return [report(n, key, True) for n in sizes for key in keys]


# -- Monte Carlo sanity layer ----------------------------------------------------------

# The d x d matrices of the units: {1} (real), {1, i} (complex) and
# {1, i, j, k} as I_2, i sigma_1, i sigma_2, i sigma_3 (quaternionic).
_UNITS = {1: [[[1]]],
          2: [[[1]], [[1j]]],
          4: [[[1, 0], [0, 1]], [[0, 1j], [1j, 0]], [[0, 1], [-1, 0]], [[1j, 0], [0, -1j]]]}


def mc_estimate(beta: int, n: int, powers: Sequence[int], samples: int, seed: int,
                scale: Fraction = Fraction(1, 4)) -> Tuple[float, float]:
    """Sample mean and standard error of prod_l tr X**{j_l}.

    X = sum_u U_u (x) B_u is the dn x dn complex form of a self-adjoint
    matrix over the units U_u: B_0 is real symmetric (off-diagonal
    N(0, 1/(4c)), diagonal N(0, 1/(2c))), each other B_u real antisymmetric
    (N(0, 1/(4c))).  tr X**j / d, the trace over the units, is
    sum lambda**j / d over the eigenvalues of X.  Samples are drawn in
    batches of max(1, 2**12 // (dn)**2) matrices, so memory does not grow
    with ``samples``; larger batches raise the peak RSS and gain little.
    A scale 0 or infinite as a float, or a non-finite result, is refused.
    """
    import numpy as np

    MomentQuery(beta, n, tuple(powers), scale)  # the exact route's bounds on the inputs
    if samples < 2:
        raise UsageError("need at least 2 samples for a standard error, got %d" % samples)
    if seed < 0:
        raise UsageError("seed must be >= 0, got %d" % seed)
    try:
        sd_diag, sd_off = (1.0 / (2 * float(scale))) ** 0.5, (1.0 / (4 * float(scale))) ** 0.5
    except (OverflowError, ZeroDivisionError):  # the scale is infinite or 0 as a float
        sd_diag = sd_off = 0.0
    if not 0 < sd_diag < float("inf"):
        raise UsageError("the Gaussian scale and its variances must be positive finite floats")
    rng = np.random.default_rng(seed)
    units = np.array(_UNITS[beta])
    d = len(units[0])
    dn = d * n
    batch = max(1, 2 ** 12 // dn ** 2)

    def part(m: int, sign: int):
        upper = np.triu(rng.normal(0.0, sd_off, (m, n, n)), 1)
        return upper + sign * upper.swapaxes(1, 2)

    values = np.empty(samples)
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        for start in range(0, samples, batch):
            m = min(batch, samples - start)
            blocks = [part(m, 1)]
            blocks[0][:, range(n), range(n)] = rng.normal(0.0, sd_diag, (m, n))
            blocks += [part(m, -1) for _ in units[1:]]
            x = sum(np.einsum("ij,mab->miajb", u, b) for u, b in zip(units, blocks))
            eig = np.linalg.eigvalsh(x.reshape(m, dn, dn))
            values[start:start + m] = np.prod([(eig ** j).sum(axis=1) / d for j in powers], 0)
        mean = float(values.mean())
        err = float(values.std(ddof=1) / samples ** 0.5)
    if not (isfinite(mean) and isfinite(err)):
        raise UsageError("the sample mean %r or its standard error %r is not finite" % (mean, err))
    return mean, err
