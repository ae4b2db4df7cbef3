"""Truncated formal power series in the couplings t_1, t_2, ... over Q[N].

A monomial is the sorted tuple of vertex valences it came from, so
t_3**2 * t_4 is (3, 3, 4); its weighted degree is the sum of entries
(deg t_n = n).  All series carry an explicit truncation degree and binary
operations refuse mixed truncations rather than silently re-truncating.

The graph-sum expansions of the free energy log Z come in several
normalizations; each is a per-class weight built from the surface data:

  master      mu(beta) * N**f                    (Gaussian -tr(X^2)/4,
                                                  vertices t_j/(2j) tr X^j)
  rescaled    mu(beta) * beta**(chi-f) * N**f    (Gaussian -beta tr(X^2)/4)
  hermitian   2 * N**f, beta = 2                 (Gaussian -tr(X^2)/2,
                                                  vertices t_j/j tr X^j)
  gse-penner  (-1)**chi * (2N)**f, beta = 4      (same exponent shape,
                                                  couplings j >= 3)
  invariant   2 (sqrt(a) N)**chi (3-a-1/a)**(1-sigma/2-chi/2)
                * (1/sqrt(a)-sqrt(a))**sigma     (Gaussian -N a tr(X^2)/2,
                                                  vertices N a t_j/j)

with mu the sprinkling invariant.  The invariant form is symbolic in the
root r = sqrt(alpha) and is the fixed point of the duality
alpha -> 1/alpha, N -> -alpha N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from .catalog import HALF_EDGE_BUDGET, enumerate_graphs
from .errors import TAGS, BudgetError, UsageError
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


# -- normalization weights --------------------------------------------------------

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


_WEIGHTS = {
    "master": _weight_master,
    "rescaled": _weight_rescaled,
    "hermitian": _weight_hermitian,
    "gse-penner": _weight_gse_penner,
    "invariant": _weight_invariant,
}


def _validate_tag(tag: str, beta: Optional[int]) -> Optional[int]:
    if tag not in TAGS:
        raise UsageError("unknown normalization tag %r" % tag)
    if tag == "hermitian":
        if beta not in (None, 2):
            raise UsageError("hermitian normalization fixes beta = 2")
        return 2
    if tag == "gse-penner":
        if beta not in (None, 4):
            raise UsageError("gse-penner normalization fixes beta = 4")
        return 4
    if tag == "invariant":
        return None
    if beta not in (1, 2, 4):
        raise UsageError("tag %r needs beta in {1,2,4}" % tag)
    return beta


def _dropped_couplings(tag: str, include_t1: bool, include_t2: bool) -> Set[int]:
    """The couplings t_j a tag's expansion leaves out.

    t_1 and t_2 drop out on request, and always for gse-penner, whose
    couplings start at j = 3.
    """
    if tag == "gse-penner":
        return {1, 2}
    return {j for j, keep in ((1, include_t1), (2, include_t2)) if not keep}


def _monomial_count(degree: int, dropped: Set[int]) -> Optional[int]:
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
    weight = _WEIGHTS[tag]
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
    beta = _validate_tag(tag, beta)
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
