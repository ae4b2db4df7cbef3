"""Penner-type closed forms and the substitution t_j -> -z**(j/2-1).

K(z, N, a) is the asymptotic expansion of the Vandermonde**(2a) one-matrix
integral with Penner couplings, at every rational a > 0; J(z, N, g) covers
the reciprocal powers 2/g and is the same Bernoulli four-sum at a = 1/g.
Both are implemented from that one explicit four-sum; the graph sum plus
the dualities, and the loop equations at beta = 2a, serve as the oracle
for them.  Constant (z-independent) terms are dropped throughout, and the
closed forms contain no negative z powers.

The generalized family I(z, N, r) = K(z/(rN), N, r) = J(z/(rN), N, 1/r)
satisfies the extended duality I(z, N, r) = I(z, -rN, 1/r).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import TYPE_CHECKING, Dict, Optional

from .errors import HALF_EDGE_BUDGET, StructuralError, UsageError
from .npoly import NPoly, add_term

if TYPE_CHECKING:
    from .series import CouplingSeries


# -- Bernoulli numbers -----------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli(n: int) -> Fraction:
    """b_n for t/(exp(t)-1) = sum b_n t**n / n!  (so b_1 = -1/2); b_2k from
    the tangent number T_k, built in O(k**2) integer steps (Brent-Harvey)."""
    if n < 0:
        raise UsageError("Bernoulli index must be >= 0")
    if n < 2:
        return Fraction(1) if n == 0 else Fraction(-1, 2)
    if n % 2:
        return Fraction(0)
    k = n // 2
    tangent = [0, 1] + [0] * (k - 1)  # T_0 .. T_k
    for i in range(2, k + 1):
        tangent[i] = (i - 1) * tangent[i - 1]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            tangent[j] = (j - i) * tangent[j - 1] + (j - i + 2) * tangent[j]
    return Fraction((-1) ** (k - 1) * n * tangent[k], 4 ** k * (4 ** k - 1))


# -- z-series over Q[N] ----------------------------------------------------------

class ZSeries:
    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Optional[Dict[int, NPoly]] = None):
        self.order = order
        self.coeffs = {} if coeffs is None else coeffs

    def __repr__(self) -> str:
        return "ZSeries(order=%r, coeffs=%r)" % (self.order, self.coeffs)

    def add_term(self, z_exp: int, value: NPoly) -> None:
        if z_exp < 1 or z_exp > self.order:
            return
        add_term(self.coeffs, z_exp, value)

    def coefficient(self, z_exp: int) -> NPoly:
        return self.coeffs.get(z_exp, NPoly.zero())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __add__(self, other: "ZSeries") -> "ZSeries":
        if self.order != other.order:
            raise UsageError("mixed z-series truncation orders")
        out = ZSeries(self.order, dict(self.coeffs))
        for m, val in other.coeffs.items():
            out.add_term(m, val)
        return out

    def __sub__(self, other: "ZSeries") -> "ZSeries":
        return self + other.scale(-1)

    def scale(self, factor) -> "ZSeries":
        out = ZSeries(self.order)
        for m, val in self.coeffs.items():
            out.add_term(m, val * Fraction(factor))
        return out

    def scale_z(self, factor) -> "ZSeries":
        """z -> factor*z."""
        factor = Fraction(factor)
        out = ZSeries(self.order)
        for m, val in self.coeffs.items():
            out.add_term(m, val * factor ** m)
        return out

    def scale_N(self, factor) -> "ZSeries":
        """N -> factor*N."""
        out = ZSeries(self.order)
        for m, val in self.coeffs.items():
            out.add_term(m, val.scale_N(factor))
        return out

    def shift_N_per_z(self, factor) -> "ZSeries":
        """z -> factor * z / N (each z**m picks up factor**m N**-m)."""
        factor = Fraction(factor)
        out = ZSeries(self.order)
        for m, val in self.coeffs.items():
            out.add_term(m, val * NPoly.monomial(-m, 0, factor ** m))
        return out

    def to_json(self) -> Dict[str, Dict[str, str]]:
        return {str(m): self.coeffs[m].to_json() for m in sorted(self.coeffs)}


# -- closed forms ----------------------------------------------------------------

def _four_sum(order: int, a: Fraction) -> ZSeries:
    """Bernoulli four-sum for the Vandermonde power 2a, a > 0 rational:
    K(z, N, a), which is J(z, N, 1/a).

    Its z**m N**(m+2-2q-2s) terms depend on q only through t = q + s, so
    they are summed by t: row[t], the sum over q <= t of B_2q B_2(t-q)
    a**(-2q) / ((2q)! (2t-2q)!), is built once for every m (less its q = t
    term at t = (m+1)/2, where q <= m//2 excludes it), so each m costs O(m).
    Each z**m coefficient is summed in one term dict and wrapped once."""
    if order < 1:
        raise UsageError("order must be >= 1")
    if a <= 0:
        raise UsageError("the Vandermonde power 2a needs a > 0")
    top = (order + 1) // 2
    power = [a ** i for i in range(order + 2)]  # a**0 .. a**(order+1)
    right = [bernoulli(2 * s) / factorial(2 * s) for s in range(top + 1)]  # B_2s / (2s)!
    left = [right[q] / power[2 * q] for q in range(top + 1)]  # B_2q a**(-2q) / (2q)!
    row = [sum(left[q] * right[t - q] for q in range(t + 1)) for t in range(top + 1)]
    out = ZSeries(order)
    for m in range(1, order + 1):
        signed = Fraction((-1) ** m * factorial(m - 1))
        terms = {}
        if m % 2:
            g = (m + 1) // 2
            add_term(terms, (1, 0), bernoulli(2 * g) / Fraction(2 * g * (2 * g - 1)))
        add_term(terms, (m, 0), Fraction((-1) ** m, 4 * m) * power[m])
        for q in range(m // 2 + 1):
            add_term(terms, (m + 1 - 2 * q, 0), signed * right[q] / factorial(m + 1 - 2 * q)
                     * (power[m + 1 - 2 * q] - power[m]) / 2)
        for t in range((m + 1) // 2 + 1):
            inner = row[t] - left[t] if 2 * t == m + 1 else row[t]
            add_term(terms, (m + 2 - 2 * t, 0),
                     -signed * inner * power[m + 1] / factorial(m + 2 - 2 * t))
        if terms:
            out.coeffs[m] = NPoly._of(terms)
    return out


def K_series(order: int, alpha) -> ZSeries:
    """Four-sum Bernoulli form of the Vandermonde**(2*alpha) Penner expansion."""
    return _four_sum(order, Fraction(alpha))


def J_series(order: int, gamma) -> ZSeries:
    """Closed form for Vandermonde power 2/gamma, gamma > 0 rational."""
    gamma = Fraction(gamma)
    if gamma <= 0:  # 1/gamma would not exist at 0
        raise UsageError("J series needs gamma > 0")
    return _four_sum(order, 1 / gamma)


def K1_series(order: int) -> ZSeries:
    """Genus form of the alpha=1 (hermitian) Penner expansion, term by term
    in (g, n): a deliberate independent route, checked against the four-sum."""
    out = ZSeries(order)
    for m in range(1, order + 1):
        for g in range((m + 1) // 2 + 1):
            n = m + 2 - 2 * g
            if n <= 0 or 2 - 2 * g - n >= 0:
                continue
            coeff = (Fraction(factorial(2 * g + n - 3) * (2 * g - 1))
                     / (factorial(2 * g) * factorial(n))) * bernoulli(2 * g)
            out.add_term(m, NPoly.N(n, coeff * (-1) ** m))
    return out


def nonorientable_remainder(order: int) -> ZSeries:
    """sum over q >= 0, n > 0, 1-2q-n < 0 of the odd-chi Bernoulli terms.

    This is the series R with K(z,N,2) = K(z,2N,1)/2 - R/2 and
    J(2z,2N,2) = J(z,2N,1)/2 + R/2.  Its z**m N**n coefficient is
    2**(n+1) (-1)**m real_moduli_euler(q, n) with n = m + 1 - 2q, and every
    such (q, n) is hyperbolic: 1 - 2q - n = -m.  A deliberate independent
    genus-form route; both identities are checked against the four-sum.
    """
    out = ZSeries(order)
    for m in range(1, order + 1):
        for q in range(m // 2 + 1):
            n = m + 1 - 2 * q
            out.add_term(m, NPoly.N(n, 2 ** (n + 1) * (-1) ** m * real_moduli_euler(q, n)))
    return out


def K2_series(order: int) -> ZSeries:
    """alpha=2 series via the genus decomposition (hermitian half minus R/2):
    a deliberate independent genus-form route, checked against the four-sum."""
    half_k1 = K1_series(order).scale_N(2).scale(Fraction(1, 2))
    return half_k1 - nonorientable_remainder(order).scale(Fraction(1, 2))


def I_series(order: int, r) -> ZSeries:
    """K(z/(rN), N, r), r > 0 rational."""
    r = Fraction(r)
    return _four_sum(order, r).shift_N_per_z(1 / r)


def extended_duality_gap(order: int, r) -> ZSeries:
    """I(z, N, r) - I(z, -rN, 1/r); identically zero when the duality holds."""
    r = Fraction(r)
    lhs = I_series(order, r)
    rhs = I_series(order, 1 / r).scale_N(-r)
    return lhs - rhs


# -- Penner substitution on the graph sum ----------------------------------------

def penner_substitute(series: CouplingSeries) -> ZSeries:
    """t_j -> -z**(j/2-1) on a coupling series with t_1 = t_2 = 0.

    A monomial with v vertices and e edges lands on (-1)**v z**(e-v); the
    output is truncated at order D//6 since an order-m coefficient needs
    every trivalent graph with e = 3m, i.e. weighted degree 6m.
    """
    order = series.degree // 6
    out = ZSeries(order)
    for key, val in series.terms.items():
        if not key:
            continue
        if any(j < 3 for j in key):
            raise UsageError("Penner substitution requires t_1 = t_2 = 0")
        doubled = sum(key) - 2 * len(key)
        if doubled % 2:
            raise StructuralError("non-integer z exponent; monomial %r" % (key,))
        z_exp = doubled // 2
        out.add_term(z_exp, val * (-1) ** len(key))
    return out


def gse_penner_zseries(degree: int,
                       half_edge_budget: int = HALF_EDGE_BUDGET) -> ZSeries:
    """The beta=4 graph sum under the Penner substitution."""
    from .series import expand_logZ
    return penner_substitute(expand_logZ("gse-penner", degree,
                                         half_edge_budget=half_edge_budget))


def goe_penner_zseries(degree: int,
                       half_edge_budget: int = HALF_EDGE_BUDGET) -> ZSeries:
    """The beta=1 graph sum normalized onto J(z, N, 2).

    Rescaling X -> sqrt(2) X turns the quarter-strength Gaussian into the
    Penner integral's exp(-tr(X**2)/2), at the price of t_j ->
    -2**(1-j/2) z**(j/2-1); per monomial that is an extra 2**(v-e), so the
    graph side reads sum (-1)**v 2**(v-e) N**f z**(e-v) / |Aut|.  The same
    map with gamma = 2 is what cures the 2z asymmetry in the genus
    decomposition identity.
    """
    from .series import expand_logZ, rescale_couplings
    base = expand_logZ("master", degree, beta=1, dropped={1, 2},
                       half_edge_budget=half_edge_budget)
    scaled = rescale_couplings(
        base, lambda key: NPoly.const(Fraction(2) ** (len(key) - sum(key) // 2)))
    return penner_substitute(scaled)


# -- real moduli Euler characteristics --------------------------------------------

def real_moduli_euler(q: int, n: int) -> Fraction:
    """Orbifold Euler characteristic of the real (q, n) moduli, chi = 1-2q."""
    if q < 0 or n <= 0:
        raise UsageError("need q >= 0 and n > 0")
    if 1 - 2 * q - n >= 0:
        raise UsageError("hyperbolicity requires 1 - 2q - n < 0")
    # (2q+n-2)!/n!: the falling product of its 2q - 2 factors, or 1/(n(n-1)) at q = 0
    ratio = prod(range(n + 1, 2 * q + n - 1)) if q else Fraction(1, n * (n - 1))
    return (Fraction(1, 2) * ratio * (Fraction(2) ** (2 * q - 1) - 1)
            * bernoulli(2 * q) / factorial(2 * q))


def real_moduli_graph_sum(q: int, n: int,
                          half_edge_budget: int = HALF_EDGE_BUDGET) -> Fraction:
    """sum of (-1)**e / |Aut| over connected non-orientable Moebius graphs
    with f = n faces and chi = 1 - 2q, all valences >= 3."""
    if q < 0 or n <= 0 or 1 - 2 * q - n >= 0:
        raise UsageError("invalid (q, n)")
    from .catalog import _budgeted_key, census
    from .series import iter_monomials
    excess = 2 * q + n - 1  # e - v = f - chi
    chi = 1 - 2 * q
    # valence multisets with all j >= 3 and e - v = excess, so 2e <= 6 * excess,
    # the all-trivalent one largest: refused first, before any catalog is built
    _budgeted_key([3] * (2 * excess), half_edge_budget, "moebius")
    total = Fraction(0)
    for profile in iter_monomials(6 * excess, allowed=lambda j: j >= 3):
        if sum(profile) // 2 - len(profile) != excess:
            continue
        for topo, inverse_aut in census(profile, "moebius", half_edge_budget):
            if topo.natural == -1 and topo.f == n and topo.chi == chi:
                total += (-1) ** topo.e * inverse_aut
    return total
