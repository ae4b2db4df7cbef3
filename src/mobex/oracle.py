"""Independent verification of the graph sums: eigenvalue moments and Wick sums.

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
never touches a graph.

log Z is a sum over connected surfaces, and its coefficients are the
joint cumulants kappa(p_{j_1}, ..., p_{j_n}).  Taking the connected part of
each side splits E[p_a p_b F] into the cumulant holding both p's and the
products over the ways to share F between them.  With S the multiset of
the j_l and m_j the multiplicity of j in it, that gives the connected loop
equations:

    2c kappa(p_{k+1}, S) = (1 - beta/2) k kappa(p_{k-1}, S)
        + (beta/2) sum_{a+b=k-1} [kappa(p_a, p_b, S)
            + sum_{S_1 + S_2 = S} kappa(p_a, S_1) kappa(p_b, S_2)]
        + sum_j j m_j kappa(p_{k+j-1}, S - {j})

The splits run over sub-multisets, weighted by binomial counts;
kappa(p_0) = N, and a cumulant that holds p_0 beside another power is 0.
_kappa solves them at one scale c0 per beta: 1/4 for beta = 1 and 4, 1/2
for beta = 2.  There, divided by 2 c0, the twist k (2 - beta)/(4 c0), the
bracket beta/(4 c0) and the merge j m_j/(2 c0) are integers, so every
cumulant is an integer polynomial in N, kept as a tuple of Python ints.
Each edge is one Gaussian pairing, of variance proportional to 1/c, so at
any other scale c a cumulant of e edges is (c0/c)**e times the kernel's;
_cumulant turns it into an NPoly at that scale, the one place it becomes
rational.  oracle_logZ builds log Z straight from these cumulants as a
series over Q[N] for every tag, with the scale s/4 and vertex factors
s/(2j) of its strength s (series._TAGS), and oracle_compare compares it
with the graph sum once, coefficient polynomial by coefficient polynomial.
invariant's s = N beta carries N: its t-monomial with v vertices and e
edges is the one at s = beta times N**(v-e).

The paper's one construction of the three ensembles: a self-adjoint
matrix over the units {1}, {1, i} or {1, i, j, k} is X = sum_u U_u (x) B_u,
with the units as d x d complex matrices (d = 1, 1, 2), B_0 real symmetric
and the other B_u real antisymmetric.  _unit_matrix writes X once, exactly,
over the entries of the B_u as Gaussian variables, in the complex
polynomials (CPoly) whose algebra lives here; their coefficients stay in
Z[i] until Isserlis's theorem integrates the variables out, with rational
variances.  wick_trace_moment integrates its traces that way, an
entry-level route beside the loop equations at every beta, and dualchar's
dual side takes its Y from the same builder.  Monte Carlo estimation draws
X as floats; it is a sanity layer only, and acceptance never depends on it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, isfinite, prod
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Sequence, Tuple

from .errors import (HALF_EDGE_BUDGET, ORACLE_DEGREE_BUDGET, BudgetError, UsageError,
                     VerificationError)
from .npoly import NPoly, add_term, mul_terms

if TYPE_CHECKING:
    from .series import CouplingSeries


class MomentQuery:
    __slots__ = ("beta", "n", "powers", "scale")

    def __init__(self, beta: int, n: int, powers: Tuple[int, ...], scale: Fraction):
        """``scale``: Gaussian weight exp(-scale * sum k_i**2)."""
        if beta not in (1, 2, 4):
            raise UsageError("beta must be 1, 2 or 4")
        if n < 1:
            raise UsageError("matrix size must be >= 1")
        if any(j < 1 for j in powers):
            raise UsageError("powers must be >= 1")
        if scale <= 0:
            raise UsageError("Gaussian scale must be positive")
        self.beta, self.n, self.powers, self.scale = beta, n, powers, scale

    def _key(self) -> tuple:
        return self.beta, self.n, self.powers, self.scale

    def __eq__(self, other) -> bool:
        if type(other) is not MomentQuery:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        return "MomentQuery(beta=%r, n=%r, powers=%r, scale=%r)" % self._key()


class OracleReport(NamedTuple):
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
    """E[prod_l p_{j_l}] as a polynomial in N; powers sorted, each >= 1.

    eigenvalue_moment reads it at _C0[beta] only; the tests solve it at
    other scales too, checking that rescaling.  It is also the deliberate
    independent cross-check of _cumulant: the log of its moment series is
    the cumulant series, and the tests compare the two.
    """
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


# each beta's kernel scale c0, at which the connected loop equations have integer constants
_C0 = {1: Fraction(1, 4), 2: Fraction(1, 2), 4: Fraction(1, 4)}


@lru_cache(maxsize=None)
def _kappa(beta: int, powers: Tuple[int, ...]) -> Tuple[int, ...]:
    """kappa(p_{j_1}, ..., p_{j_n}) at scale _C0[beta]; powers sorted, each >= 1.

    The integer coefficients of N**0, N**1, ..., with no trailing zero, so
    () is 0.  A cumulant of e = sum/2 edges and n parts has degree at most
    e - n + 2 in N (chi <= 2), and so has every term of its equation.
    """
    if sum(powers) % 2:
        return ()
    merge = int(1 / (2 * _C0[beta]))
    bracket, twist = beta * merge // 2, (2 - beta) * merge // 2
    k, rest = powers[-1] - 1, powers[:-1]
    total = [0] * (sum(powers) // 2 + 2)

    def kappa(others: Tuple[int, ...], *extra: int) -> Tuple[int, ...]:
        # the joint cumulant of the p_e and others; p_0 = N is a constant
        if 0 in extra:
            return (0, 1) if extra == (0,) and not others else ()
        return _kappa(beta, tuple(sorted(others + extra)))

    def add(poly: Tuple[int, ...], c: int) -> None:
        for i, x in enumerate(poly):
            total[i] += c * x

    values = sorted(set(rest))
    counts = [rest.count(j) for j in values]
    for a in range(k):  # the bracket summed over a + b = k - 1
        add(kappa(rest, a, k - 1 - a), bracket)
    for taken in product(*(range(m + 1) for m in counts)):  # the splits S_1 + S_2 = S
        left = tuple(j for j, t in zip(values, taken) for _ in range(t))
        right = tuple(j for j, t, m in zip(values, taken, counts) for _ in range(m - t))
        weight = bracket * prod(comb(m, t) for m, t in zip(counts, taken))
        for a in range(k):
            first = kappa(left, a)
            if first:
                second = kappa(right, k - 1 - a)
                for i, x in enumerate(first):
                    if x:
                        x *= weight
                        for j, y in enumerate(second, i):
                            total[j] += x * y
    if k and twist:
        add(kappa(rest, k - 1), twist * k)
    for j, m in zip(values, counts):
        i = rest.index(j)
        add(kappa(rest[:i] + rest[i + 1:], k + j - 1), merge * j * m)
    while total and not total[-1]:
        total.pop()
    return tuple(total)


def _cumulant(beta: int, scale: Fraction, powers: Tuple[int, ...]) -> NPoly:
    """kappa(p_{j_1}, ..., p_{j_n}) in N at Gaussian scale ``scale``; powers sorted, >= 1.

    _kappa's at c0 = _C0[beta] times (c0/scale)**e, e = sum/2 edges.
    """
    factor = (_C0[beta] / scale) ** (sum(powers) // 2)
    return NPoly._of({(n, 0): factor * c for n, c in enumerate(_kappa(beta, powers)) if c})


def eigenvalue_moment(query: MomentQuery) -> Fraction:
    """E[prod_l p_{j_l}] under |Delta|**beta e^(-c sum k^2), exactly: one moment
    recursion per beta, at c0 = _C0[beta], times (c0/c)**e as in _cumulant."""
    powers = tuple(sorted(query.powers))
    c0 = _C0[query.beta]
    return (_loop_moment(query.beta, c0, powers).eval_N(query.n)
            * (c0 / query.scale) ** (sum(powers) // 2))


# -- the paper's matrix X = sum_u U_u (x) B_u, exactly ----------------------------------

# The d x d matrices of the units: {1} (real), {1, i} (complex) and
# {1, i, j, k} as I_2, i sigma_1, i sigma_2, i sigma_3 (quaternionic).
_UNITS = {1: [[[1]]],
          2: [[[1]], [[1j]]],
          4: [[[1, 0], [0, 1]], [[0, 1j], [1j, 0]], [[0, 1], [-1, 0]], [[1j, 0], [0, -1j]]]}

# complex polynomials in real Gaussian variables plus lambda symbols:
# {exponent tuple: int}, over Z[i].  Slot 0 is the power of i, left
# unreduced so that products need only add exponents; the next k slots are
# the lambdas and the rest the Gaussian variables.  i is reduced
# (i**2 = -1), and the rational Isserlis weights come in, only when the
# Gaussian variables are integrated out.
CPoly = Dict[Tuple[int, ...], int]


def _add_exps(e1: Tuple[int, ...], e2: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(x + y for x, y in zip(e1, e2))


def _cpoly_vars(nslots: int) -> List[CPoly]:
    """i and the variables: the monomials with a single exponent 1."""
    return [{tuple(int(t == idx) for t in range(nslots)): 1} for idx in range(nslots)]


def _cpoly_sum(*polys: CPoly) -> CPoly:
    out: CPoly = {}
    for poly in polys:
        for key, coeff in poly.items():
            add_term(out, key, coeff)
    return out


def _scaled(z: complex, poly: CPoly) -> CPoly:
    """z * poly for a Gaussian integer z; its imaginary part raises the power of i."""
    unit = {(0,): int(z.real), (1,): int(z.imag)}  # 0 terms drop out
    return mul_terms(unit, poly, lambda step, key: (step[0] + key[0],) + key[1:])


def _cpoly_prod(*polys: CPoly) -> CPoly:
    out = polys[0]
    for poly in polys[1:]:
        out = mul_terms(out, poly, _add_exps)
    return out


def _gauss_expect_cpoly(poly: CPoly, k: int, variances: Sequence[Fraction]
                        ) -> Dict[Tuple[int, ...], Fraction]:
    """Integrate out the Gaussian variables; imaginary parts must cancel.

    Isserlis: E[x**d] = (d - 1)!! var**(d/2) for even d, else 0.  The
    integer parts are summed per (real or imaginary, lambda monomial,
    powers of each distinct variance), and each sum takes its variances
    once, so the coefficients stay in Z[i] until the end.
    """
    distinct = sorted(set(variances))
    slots = [distinct.index(var) for var in variances]
    sums: Dict[tuple, int] = {}
    for exps, coeff in poly.items():
        i_power, lam = exps[0], exps[1:k + 1]
        weight = coeff if i_power % 4 < 2 else -coeff  # i**i_power = weight or weight*i
        halves = [0] * len(distinct)
        for d, slot in zip(exps[k + 1:], slots):
            if d % 2:
                break
            if d:
                weight *= factorial(d) // (factorial(d // 2) << d // 2)
                halves[slot] += d // 2
        else:
            add_term(sums, (i_power % 2, lam, tuple(halves)), weight)
    out: Dict[Tuple[int, ...], Fraction] = {}
    acc_im: Dict[Tuple[int, ...], Fraction] = {}
    for (imaginary, lam, halves), total in sums.items():
        add_term(acc_im if imaginary else out, lam,
                 prod((var ** m for var, m in zip(distinct, halves)), start=Fraction(total)))
    if acc_im:
        raise VerificationError("Gaussian expectation is not real", payload=acc_im)
    return out


def _unit_matrix(beta: int, n: int, c: Fraction, n_lambdas: int = 0
                 ) -> Tuple[List[List[CPoly]], int, int, List[Fraction]]:
    """X = sum_u U_u (x) B_u as a dn x dn CPoly matrix over Gaussian variables.

    B_0 is real symmetric, with variance 1/(2c) on the diagonal and 1/(4c)
    off it; each other B_u is real antisymmetric, with variance 1/(4c): the
    weight exp(-c tr X**2 / d).  Returns X, d, the slot count (i, then
    ``n_lambdas`` lambda symbols, then the variables) and the variances.
    """
    units = _UNITS[beta]
    d = len(units[0])
    # one variable per free entry: B_0's diagonal, then each B_u's upper triangle
    free = [(0, x, x) for x in range(n)] + [(u, x, y) for u in range(len(units))
                                            for x in range(n) for y in range(x + 1, n)]
    nslots = 1 + n_lambdas + len(free)
    matrix: List[List[CPoly]] = [[{} for _ in range(d * n)] for _ in range(d * n)]
    for (u, x, y), var in zip(free, _cpoly_vars(nslots)[1 + n_lambdas:]):
        for r, s, sign in [(x, y, 1)] + ([] if x == y else [(y, x, -1 if u else 1)]):
            for p, q in product(range(d), repeat=2):
                entry = matrix[p * n + r][q * n + s]
                for key, coeff in _scaled(sign * units[u][p][q], var).items():
                    add_term(entry, key, coeff)
    variances = [1 / (2 * c) if x == y else 1 / (4 * c) for _, x, y in free]
    return matrix, d, nslots, variances


def wick_trace_moment(beta: int, n: int, powers: Sequence[int], scale: Fraction) -> Fraction:
    """E[prod_l tr X**{j_l} / d] from the Gaussian entries of X, exactly.

    A deliberate independent route, kept beside the loop-equation
    eigenvalue route for the moment tests at beta = 1, 2 and 4: it never
    diagonalizes.  X is _unit_matrix's, the matrix the Monte Carlo sampler
    draws; tr X**j is taken by repeated matrix products of polynomials in
    its entries, and Isserlis's theorem integrates the product of traces.
    tr / d is the trace over the units, sum lambda**j over the eigenvalues.
    """
    query = MomentQuery(beta, n, tuple(powers), scale)
    x, d, nslots, variances = _unit_matrix(beta, n, Fraction(query.scale))
    dn = range(len(x))
    integrand = one = {(0,) * nslots: 1}
    for j in query.powers:
        power = [[one if r == t else {} for t in dn] for r in dn]  # X**0
        for _ in range(j - 1):
            power = [[_cpoly_sum(*[_cpoly_prod(power[r][s], x[s][t]) for s in dn]) for t in dn]
                     for r in dn]
        trace = _cpoly_sum(*[_cpoly_prod(power[r][s], x[s][r]) for r in dn for s in dn])
        integrand = _cpoly_prod(integrand, trace)
    moment = _gauss_expect_cpoly(integrand, 0, variances).get((), Fraction(0))
    return moment / d ** len(query.powers)


# -- graph sum vs oracle --------------------------------------------------------------

def oracle_logZ(beta: int, tag: str, degree: int,
                budget: int = ORACLE_DEGREE_BUDGET) -> CouplingSeries:
    """log Z as a t-series over Q[N], from the connected loop equations.

    log Z = log E[exp(sum_j s t_j p_j / (2j))] at Gaussian scale c = s/4
    is the cumulant series: the coefficient of a monomial J with
    multiplicities m_j is kappa(p_J) * prod_j (s/(2j))**m_j / m_j!, times
    N**(v - e) for the symbolic tag.  _kappa solves, for a multiset S of
    powers with multiplicities m_j,

        2c kappa(p_{k+1}, S) = (1 - beta/2) k kappa(p_{k-1}, S)
            + (beta/2) sum_{a+b=k-1} [kappa(p_a, p_b, S)
                + sum_{S_1 + S_2 = S} kappa(p_a, S_1) kappa(p_b, S_2)]
            + sum_j j m_j kappa(p_{k+j-1}, S - {j}),

    the splits S_1 + S_2 = S counted with binomial weights, kappa(p_0) = N,
    and 0 for a cumulant holding p_0 beside another power, at the scale c0
    where its constants are integers; _cumulant rescales it to c = s/4.
    No series log is taken.
    """
    from .series import _TAGS, CouplingSeries, _ensemble_beta, _monomial_count, tag_monomials
    measure_beta, row = _ensemble_beta(tag, beta), _TAGS[tag]
    if degree > budget:
        count = _monomial_count(degree, row.dropped)
        raise BudgetError(
            "degree %d exceeds oracle budget %d: it would compute %s cumulants,"
            " one per coupling monomial of tag %r"
            % (degree, budget, "over 10^30" if count is None else count, tag))
    strength = row.strength_at(measure_beta)

    log_z = CouplingSeries(degree)
    for monomial in tag_monomials(tag, degree):
        coeff = Fraction(1)
        for j in set(monomial):
            m = monomial.count(j)
            coeff *= Fraction(strength, 2 * j) ** m / factorial(m)
        n_power = len(monomial) - sum(monomial) // 2 if row.symbolic else 0
        log_z.set_coefficient(monomial, _cumulant(measure_beta, Fraction(strength, 4), monomial)
                              * NPoly.N(n_power, coeff))
    return log_z


def oracle_compare(beta: int, tag: str, degree: int, sizes: Sequence[int],
                   budget: int = ORACLE_DEGREE_BUDGET,
                   half_edge_budget: int = HALF_EDGE_BUDGET) -> List[OracleReport]:
    """Exact comparison of the Moebius-graph sum against eigenvalue cumulants.

    Both sides are log Z as a series over Q[N], for every tag, and their
    coefficient polynomials are compared once; each size only evaluates
    them into its reports.  invariant's scale N beta/4 is rescaled's beta/4
    with the eigenvalues divided by sqrt(N), which multiplies a cumulant of
    e = sum/2 edges by N**-e, and its v vertex factors N beta/(2j) add N**v.
    The graph side is compared at r**2 = beta/2, which leaves a series
    without r as it is.  The oracle side comes first: it checks the tag's
    beta and the degree budget, which must fail before the graph side pays
    for its catalog.
    """
    from .series import _TAGS, expand_logZ
    oracle_side = oracle_logZ(beta, tag, degree, budget)
    if not sizes or min(sizes) < 1:
        raise UsageError("matrix sizes must be >= 1, got %s" % list(sizes))
    graph_side = expand_logZ(tag, degree, beta=None if _TAGS[tag].symbolic else beta,
                             half_edge_budget=half_edge_budget).reduce_root(Fraction(beta, 2))

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

def mc_estimate(beta: int, n: int, powers: Sequence[int], samples: int, seed: int,
                scale: Fraction = Fraction(1, 4)) -> Tuple[float, float]:
    """Sample mean and standard error of prod_l tr X**{j_l}.

    X = sum_u U_u (x) B_u is _unit_matrix's, with its entries drawn at that
    function's variances.  tr X**j / d, the trace over the units, is
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
