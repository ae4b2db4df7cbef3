"""Truncated formal power series in the couplings t_1, t_2, ... over Q[N].

A monomial is the sorted tuple of vertex valences it came from, so
t_3**2 * t_4 is (3, 3, 4); its weighted degree is the sum of entries
(deg t_n = n).  All series carry an explicit truncation degree and binary
operations refuse mixed truncations rather than silently re-truncating.

The graph-sum expansions of the free energy log Z come in five
normalizations, one row each of _TAGS.  A tag expands the integral with
Gaussian -s tr(X^2)/4 and vertex terms s t_j/(2j) tr X^j at its strength
s, at the beta it fixes or else the caller's, over the couplings it keeps;
each class gets a weight built from its surface data:

  tag         class weight                        beta    couplings  s
  master      mu(beta) * N**f                     1,2,4   all        1
  rescaled    mu(beta) * beta**(chi-f) * N**f     1,2,4   all        beta
  hermitian   2 * N**f if orientable, else 0      2       all        beta
  gse-penner  (-1)**chi * (2N)**f                 4       j >= 3     2
  invariant   2 (sqrt(a) N)**chi                  none    all        N beta
                * (3-a-1/a)**(1-sigma/2-chi/2)
                * (1/sqrt(a)-sqrt(a))**sigma

with mu the sprinkling invariant.  The invariant weight is symbolic in the
root r = sqrt(alpha) and reads no beta; its integral is the one at
alpha = beta/2, and it is the fixed point of the duality
alpha -> 1/alpha, N -> -alpha N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Tuple

from .catalog import HALF_EDGE_BUDGET, enumerate_graphs
from .errors import BudgetError, UsageError
from .graphs import TopologyProfile
from .npoly import NPoly, add_term, mul_terms
from .parallel import pmap
from .sprinkle import mu_closed_form

Monomial = Tuple[int, ...]


@dataclass
class CouplingSeries:
    degree: int
    terms: Dict[Monomial, NPoly] = field(default_factory=dict)

    def copy(self) -> "CouplingSeries":
        return CouplingSeries(self.degree, dict(self.terms))

    def coefficient(self, monomial) -> NPoly:
        return self.terms.get(tuple(sorted(monomial)), NPoly.zero())

    def set_coefficient(self, monomial, value: NPoly) -> None:
        key = tuple(sorted(monomial))
        if sum(key) > self.degree:
            raise UsageError("monomial beyond truncation degree")
        if value:
            self.terms[key] = value
        else:
            self.terms.pop(key, None)

    def _require_same_degree(self, other: "CouplingSeries") -> None:
        if self.degree != other.degree:
            raise UsageError("mixed truncation degrees: %d vs %d"
                             % (self.degree, other.degree))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CouplingSeries):
            return NotImplemented
        return self.degree == other.degree and self.terms == other.terms

    def __add__(self, other: "CouplingSeries") -> "CouplingSeries":
        self._require_same_degree(other)
        out = dict(self.terms)
        for key, val in other.terms.items():
            add_term(out, key, val)
        return CouplingSeries(self.degree, out)

    def __neg__(self) -> "CouplingSeries":
        return CouplingSeries(self.degree, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "CouplingSeries") -> "CouplingSeries":
        return self + (-other)

    def __mul__(self, other) -> "CouplingSeries":
        if isinstance(other, (int, Fraction, NPoly)):
            factor = other if isinstance(other, NPoly) else NPoly.const(other)
            out = {}
            for key, val in self.terms.items():
                prod = val * factor
                if prod:
                    out[key] = prod
            return CouplingSeries(self.degree, out)
        self._require_same_degree(other)

        def truncated_merge(k1: Monomial, k2: Monomial) -> Optional[Monomial]:
            return tuple(sorted(k1 + k2)) if sum(k1) + sum(k2) <= self.degree else None

        return CouplingSeries(self.degree, mul_terms(self.terms, other.terms, truncated_merge))

    __rmul__ = __mul__

    def constant_term(self) -> NPoly:
        return self.terms.get((), NPoly.zero())

    def without_constant(self) -> "CouplingSeries":
        out = dict(self.terms)
        out.pop((), None)
        return CouplingSeries(self.degree, out)

    def exp(self) -> "CouplingSeries":
        """exp of a series with zero constant term."""
        if self.constant_term():
            raise UsageError("exp needs a zero constant term")
        one = series_one(self.degree)
        result = one.copy()
        # Horner: 1 + x(1 + x/2 (1 + x/3 (...)))
        for k in range(self.degree, 0, -1):
            result = one + (self * result) * Fraction(1, k)
        return result

    def log(self) -> "CouplingSeries":
        """log of a series with constant term 1."""
        if self.constant_term() != NPoly.const(1):
            raise UsageError("log needs constant term 1")
        x = self.without_constant()
        result = CouplingSeries(self.degree, {})
        power = series_one(self.degree)
        for k in range(1, self.degree + 1):
            power = power * x
            if not power.terms:
                break
            result = result + power * Fraction((-1) ** (k + 1), k)
        return result

    def map_coefficients(self, fn: Callable[[NPoly], NPoly]) -> "CouplingSeries":
        out = {}
        for key, val in self.terms.items():
            new = fn(val)
            if new:
                out[key] = new
        return CouplingSeries(self.degree, out)

    def reduce_root(self, alpha) -> "CouplingSeries":
        return self.map_coefficients(lambda p: p.reduce_root(alpha))

    def to_json(self) -> list:
        out = []
        for key in sorted(self.terms):
            out.append({"monomial": list(key), "coeff": self.terms[key].to_json()})
        return out


def series_one(degree: int) -> CouplingSeries:
    return CouplingSeries(degree, {(): NPoly.const(1)})


# -- profile iteration ----------------------------------------------------------

def iter_monomials(degree: int, allowed: Optional[Callable[[int], bool]] = None
                   ) -> Iterator[Monomial]:
    """Nonempty valence multisets of weighted degree <= degree (even totals)."""
    if degree < 0:
        raise UsageError("truncation degree must be >= 0, got %d" % degree)

    def rec(budget: int, j: int) -> Iterator[Tuple[int, ...]]:
        yield ()
        for jj in range(min(budget, j), 0, -1):
            if allowed is None or allowed(jj):
                for rest in rec(budget - jj, jj):
                    yield (jj,) + rest

    for combo in rec(degree, degree):
        if combo and sum(combo) % 2 == 0:
            yield tuple(sorted(combo))


# -- normalization tags ---------------------------------------------------------

def _weight_master(topo: TopologyProfile, beta: int) -> NPoly:
    return NPoly.N(topo.f, mu_closed_form(topo, beta))


def _weight_rescaled(topo: TopologyProfile, beta: int) -> NPoly:
    coeff = Fraction(mu_closed_form(topo, beta)) * Fraction(beta) ** (topo.chi - topo.f)
    return NPoly.N(topo.f, coeff)


def _weight_hermitian(topo: TopologyProfile, beta: int) -> NPoly:
    if topo.natural != 1:
        return NPoly.zero()
    return NPoly.N(topo.f, 2)


def _weight_gse_penner(topo: TopologyProfile, beta: int) -> NPoly:
    return NPoly.N(topo.f, (-1 if topo.chi % 2 else 1) * 2 ** topo.f)


def _weight_invariant(topo: TopologyProfile, beta=None) -> NPoly:
    chi, sigma = topo.chi, topo.sigma
    expo = 1 - (sigma + chi) // 2
    base = NPoly.const(3) - NPoly.root(2) - NPoly.root(-2)
    out = NPoly.monomial(chi, chi, 2)  # 2 (sqrt(a) N)**chi
    out = out * base ** expo
    if sigma:
        out = out * (NPoly.root(-1) - NPoly.root(1)) ** sigma
    return out


@dataclass(frozen=True)
class _Tag:
    """One normalization: a row of the module docstring's table."""
    weight: Callable[[TopologyProfile, Optional[int]], NPoly]  # of a class, by its topology
    beta: Optional[int]  # the beta the tag fixes; None: the caller's, 1, 2 or 4
    dropped: FrozenSet[int]  # the couplings t_j its expansion leaves out
    strength: Optional[int]  # s: Gaussian scale s/4, vertex factors s/(2j); None: s = beta
    symbolic: bool  # weight symbolic in r, read at no beta; s carries a factor N


_TAGS = {
    "master": _Tag(_weight_master, None, frozenset(), 1, False),
    "rescaled": _Tag(_weight_rescaled, None, frozenset(), None, False),
    "hermitian": _Tag(_weight_hermitian, 2, frozenset(), None, False),
    "gse-penner": _Tag(_weight_gse_penner, 4, frozenset({1, 2}), 2, False),
    "invariant": _Tag(_weight_invariant, None, frozenset(), None, True),
}


def _row(tag: str) -> _Tag:
    if tag not in _TAGS:
        raise UsageError("unknown normalization tag %r" % tag)
    return _TAGS[tag]


def _ensemble_beta(tag: str, beta: Optional[int]) -> int:
    """The beta a tag's integral is taken at: the one it fixes, else the given 1, 2 or 4."""
    fixed = _row(tag).beta
    if fixed is not None:
        if beta not in (None, fixed):
            raise UsageError("%s normalization fixes beta = %d" % (tag, fixed))
        return fixed
    if beta not in (1, 2, 4):
        raise UsageError("tag %r needs beta in {1,2,4}" % tag)
    return beta


def _dropped_couplings(tag: str, include_t1: bool, include_t2: bool) -> FrozenSet[int]:
    """The couplings t_j an expansion leaves out: the tag's, and t_1, t_2 on request."""
    return _row(tag).dropped | {j for j, keep in ((1, include_t1), (2, include_t2)) if not keep}


def _monomial_count(degree: int, dropped: FrozenSet[int]) -> Optional[int]:
    """len(tag_monomials(...)) without listing them; None from 10**30 on.

    The monomials are the partitions of the even weights 2..degree with no
    part in ``dropped``.  Their generating function is prod over dropped j
    of (1 - x**j) times that of all partitions, whose counts p(n) come from
    Euler's pentagonal-number recurrence, so the count takes about
    degree**1.5 additions and stops once it passes 10**30.
    """
    shifts = {0: 1}  # prod over dropped j of (1 - x**j)
    for j in dropped:
        for s, c in list(shifts.items()):
            shifts[s + j] = shifts.get(s + j, 0) - c
    p = [1]
    total = 0
    for n in range(1, degree + 1):
        value, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pentagonal in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pentagonal <= n:
                    value += sign * p[n - pentagonal]
            k += 1
        p.append(value)
        if n % 2 == 0:
            total += sum(c * p[n - s] for s, c in shifts.items() if s <= n)
            if total >= 10 ** 30:
                return None
    return total


def tag_monomials(tag: str, degree: int, include_t1: bool = True,
                  include_t2: bool = True) -> List[Monomial]:
    """The coupling monomials a tag expands to the truncation degree."""
    dropped = _dropped_couplings(tag, include_t1, include_t2)
    return list(iter_monomials(degree, allowed=lambda j: j not in dropped))


def _connected_sum(args) -> NPoly:
    """Weighted connected-class sum of one monomial (a pmap worker)."""
    monomial, tag, beta, half_edge_budget = args
    # every weight depends on the class only through its topology
    census: Dict[TopologyProfile, Fraction] = {}
    for entry in enumerate_graphs(list(monomial), connected_only=True,
                                  half_edge_budget=half_edge_budget):
        census[entry.topology] = census.get(entry.topology, 0) + Fraction(1, entry.aut_moebius)
    weight = _TAGS[tag].weight
    total = NPoly.zero()
    for topo, inverse_aut in census.items():
        total = total + weight(topo, beta) * inverse_aut
    return total


def expand_logZ(tag: str, degree: int, beta: Optional[int] = None,
                include_t1: bool = True, include_t2: bool = True,
                half_edge_budget: int = HALF_EDGE_BUDGET,
                threads: int = 1) -> CouplingSeries:
    """Connected Moebius-graph sum for log Z in the chosen normalization.

    Monomials are summed by ``threads`` workers; the result never depends
    on their number.
    """
    if threads < 1:
        raise UsageError("threads must be >= 1, got %d" % threads)
    if not _row(tag).symbolic:
        beta = _ensemble_beta(tag, beta)
    elif beta is not None:
        raise UsageError("tag %r is symbolic in r = sqrt(alpha) and reads no beta" % tag)
    needed = degree - degree % 2
    if needed > half_edge_budget:
        count = _monomial_count(degree, _dropped_couplings(tag, include_t1, include_t2))
        raise BudgetError("truncation degree %d needs %d half-edges, budget is %d: it would sum"
                          " %s coupling monomials of tag %r"
                          % (degree, needed, half_edge_budget,
                             "over 10^30" if count is None else count, tag))
    monomials = tag_monomials(tag, degree, include_t1, include_t2)
    totals = pmap(_connected_sum,
                  [(m, tag, beta, half_edge_budget) for m in monomials], threads)
    return CouplingSeries(degree, {m: t for m, t in zip(monomials, totals) if t})


def expand_Z(tag: str, degree: int, beta: Optional[int] = None,
             include_t1: bool = True, include_t2: bool = True,
             half_edge_budget: int = HALF_EDGE_BUDGET) -> CouplingSeries:
    """exp of the connected sum: the full (disconnected) graph expansion."""
    return expand_logZ(tag, degree, beta, include_t1, include_t2,
                       half_edge_budget).exp()


def apply_duality(series: CouplingSeries) -> CouplingSeries:
    """alpha -> 1/alpha together with N -> -alpha N, coefficientwise."""
    return series.map_coefficients(lambda p: p.dual_transform())


def rescale_couplings(series: CouplingSeries,
                      factor_of_monomial: Callable[[Monomial], NPoly]
                      ) -> CouplingSeries:
    """Substitute t_j -> c_j t_j, given the per-monomial product of the c_j.

    Taking the factor per monomial keeps everything rational even when the
    individual c_j carry half powers (e.g. beta**(1-j/2): the product over a
    monomial is beta**(v-e)).
    """
    out = CouplingSeries(series.degree, {})
    for key, val in series.terms.items():
        val = val * factor_of_monomial(key)
        if val:
            out.terms[key] = val
    return out
