"""Large-N limiting covariance of linear statistics for all three ensembles.

After subtracting the one-vertex (first cumulant) contributions, the
invariant-form free energy carries no positive powers of N; the surviving
N**0 part comes exactly from orientable planar two-vertex graphs, each
contributing 2*alpha/|Aut| t_{j1} t_{j2}.  Via the Moebius/ribbon factor
two this is alpha/|Aut_R| per planar two-vertex ribbon graph, the same
quadratic form for GOE, GUE and GSE up to the overall alpha.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, NamedTuple, Tuple

from .catalog import HALF_EDGE_BUDGET, _budgeted_key, census
from .errors import UsageError, VerificationError
from .npoly import NPoly
from .series import CouplingSeries, expand_logZ

ALPHAS = (Fraction(1, 2), Fraction(1), Fraction(2))


class CLTResult(NamedTuple):
    alpha: Fraction
    quadratic_form: Tuple[Tuple[Tuple[int, int], Fraction], ...]

    def coefficient(self, j1: int, j2: int) -> Fraction:
        key = (min(j1, j2), max(j1, j2))
        for pair, value in self.quadratic_form:
            if pair == key:
                return value
        return Fraction(0)


def clt_limit(alpha, j_max: int,
              half_edge_budget: int = HALF_EDGE_BUDGET) -> CLTResult:
    """Quadratic form from connected planar two-vertex ribbon graphs."""
    alpha = Fraction(alpha)
    if alpha not in ALPHAS:
        raise UsageError("alpha must be 1/2, 1 or 2")
    if j_max < 1:
        raise UsageError("j_max must be >= 1")
    # the largest profile first, before any smaller catalog is built
    _budgeted_key([j_max, j_max], half_edge_budget, "ribbon")
    form: Dict[Tuple[int, int], Fraction] = {}
    for j1 in range(1, j_max + 1):
        for j2 in range(j1, j_max + 1):
            if (j1 + j2) % 2:
                continue
            total = Fraction(0)
            for topo, inverse_aut in census([j1, j2], "ribbon", half_edge_budget):
                if topo.chi == 2:
                    total += inverse_aut
            if total:
                form[(j1, j2)] = alpha * total
    return CLTResult(alpha=alpha, quadratic_form=tuple(sorted(form.items())))


class CLTReport(NamedTuple):
    alpha: Fraction
    j_max: int
    degree: int
    matched: int
    equal: bool


def verify_clt(alpha, j_max: int, degree: int,
               half_edge_budget: int = HALF_EDGE_BUDGET) -> CLTReport:
    """Check the limit against the invariant-form expansion.

    Builds log V = log Z (invariant form) minus all one-vertex terms,
    asserts no positive N powers survive, and matches the N**0 part with
    clt_limit on two-vertex monomials.
    """
    alpha = Fraction(alpha)
    if alpha not in ALPHAS:
        raise UsageError("alpha must be 1/2, 1 or 2")
    if degree < 2:
        raise UsageError("degree too small to hold any pair term")

    # pairs with j1 + j2 beyond the truncation are skipped, not an error
    series = expand_logZ("invariant", degree, half_edge_budget=half_edge_budget)
    # the contribution of a graph in log V scales by N**(-v) against log Z
    log_v = CouplingSeries(degree, {})
    for key, val in series.terms.items():
        if len(key) < 2:
            continue  # one-vertex graphs cancel against the denominator
        log_v.terms[key] = val * NPoly.N(-len(key))
    log_v = log_v.reduce_root(alpha)

    limit = clt_limit(alpha, j_max, half_edge_budget)
    matched = 0
    for key, val in log_v.terms.items():
        for (n_exp, r_exp), coeff in val.terms.items():
            if n_exp > 0:
                raise VerificationError(
                    "positive N power survives in log V at %r" % (key,),
                    payload=(key, n_exp, coeff))
    for j1 in range(1, j_max + 1):
        for j2 in range(j1, j_max + 1):
            if (j1 + j2) % 2 or j1 + j2 > degree:
                continue
            key = (j1, j2)
            poly = log_v.coefficient(key)
            constant = Fraction(0)
            for (n_exp, r_exp), coeff in poly.terms.items():
                if n_exp == 0:
                    if r_exp:
                        raise VerificationError("unreduced root symbol in log V")
                    constant += coeff
            expected = limit.coefficient(j1, j2)
            if constant != expected:
                raise VerificationError(
                    "CLT mismatch at t_%d t_%d: %s vs %s" % (j1, j2, constant, expected),
                    payload=(key, constant, expected))
            matched += 1
    return CLTReport(alpha=alpha, j_max=j_max, degree=degree,
                     matched=matched, equal=True)
