from fractions import Fraction
from math import comb, factorial

import pytest

from mobex.errors import BudgetError, StructuralError, UsageError
from mobex.npoly import NPoly
from mobex.oracle import _loop_moment
from mobex.penner import (I_series, J_series, K1_series, K2_series, K_series,
                          ZSeries, bernoulli, extended_duality_gap, goe_penner_zseries,
                          gse_penner_zseries, nonorientable_remainder,
                          penner_substitute, real_moduli_euler,
                          real_moduli_graph_sum)
from mobex.series import CouplingSeries, iter_monomials


def test_bernoulli_values():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    with pytest.raises(UsageError):
        bernoulli(-1)
    # the tangent-number route against the recurrence sum_k C(n+1, k) b_k = 0
    reference = [Fraction(1)]
    for n in range(1, 61):
        reference.append(-sum(comb(n + 1, k) * b for k, b in enumerate(reference)) / (n + 1))
    assert [bernoulli(n) for n in range(61)] == reference


def test_K_alpha2_order_z():
    zs = K_series(4, 2)
    assert zs.coefficient(1) == NPoly({(1, 0): Fraction(-1, 12),
                                       (2, 0): Fraction(-1, 2),
                                       (3, 0): Fraction(2, 3)})


def test_K1_order_z_terms():
    zs = K1_series(4)
    coeff = zs.coefficient(1)
    assert coeff.terms[(3, 0)] == Fraction(1, 6)   # (g=0, n=3)
    assert coeff.terms[(1, 0)] == Fraction(-1, 12)  # (g=1, n=1)


def test_closed_form_identities_to_z10():
    assert K_series(10, 1) == K1_series(10)
    assert K_series(10, 2) == K2_series(10)
    assert J_series(10, 1) == K_series(10, 1)


def test_J_equals_its_own_four_sum_to_z30():
    # J's Bernoulli four-sum written out in powers of gamma: a second form
    # of the K four-sum at alpha = 1/gamma, whose odd-m N**1 terms differ
    # term by term and agree only in sum
    def j_four_sum(order, gamma):
        g = Fraction(gamma)
        out = ZSeries(order)
        for m in range(1, order + 1):
            zfac = g ** (-m)
            if m % 2:
                q = (m + 1) // 2
                out.add_term(m, NPoly.N(1, bernoulli(2 * q) / Fraction(2 * q * (2 * q - 1))
                                        / g * zfac))
            out.add_term(m, NPoly.N(m, Fraction((-1) ** m, 4 * m) * zfac))
            for q in range(m // 2 + 1):
                coeff = (Fraction((-1) ** m * factorial(m - 1)) * bernoulli(2 * q)
                         / (factorial(2 * q) * factorial(m + 1 - 2 * q)))
                out.add_term(m, NPoly.N(m + 1 - 2 * q,
                                        -Fraction(1, 2) * coeff * (1 - g ** (2 * q - 1)) * zfac))
                for s in range((m + 1) // 2 - q + 1):
                    coeff4 = (Fraction((-1) ** m * factorial(m - 1)) * bernoulli(2 * q)
                              * bernoulli(2 * s) / (factorial(2 * q) * factorial(2 * s)
                                                    * factorial(m + 2 - 2 * q - 2 * s)))
                    out.add_term(m, NPoly.N(m + 2 - 2 * q - 2 * s,
                                            -coeff4 * g ** (2 * s - 1) * zfac))
        return out

    for gamma in range(1, 6):
        assert J_series(30, gamma) == j_four_sum(30, gamma), gamma


@pytest.mark.parametrize("a", [Fraction(1, 3), Fraction(2, 3), Fraction(7, 5), Fraction(5, 2)])
def test_K_equals_the_literal_triple_sum_to_z30(a):
    # the four-sum term by term, its N**(m+2-2q-2s) terms summed over q and s
    # apart, as it reads before the regrouping by t = q + s
    def k_four_sum(order, a):
        out = ZSeries(order)
        for m in range(1, order + 1):
            if m % 2:
                g = (m + 1) // 2
                out.add_term(m, NPoly.N(1, bernoulli(2 * g) / Fraction(2 * g * (2 * g - 1))))
            out.add_term(m, NPoly.N(m, Fraction((-1) ** m, 4 * m) * a ** m))
            for q in range(m // 2 + 1):
                coeff = (Fraction((-1) ** m * factorial(m - 1)) * bernoulli(2 * q)
                         / (factorial(2 * q) * factorial(m + 1 - 2 * q)))
                out.add_term(m, NPoly.N(m + 1 - 2 * q,
                                        Fraction(1, 2) * coeff * a ** m * (a ** (1 - 2 * q) - 1)))
                for s in range((m + 1) // 2 - q + 1):
                    coeff4 = (Fraction((-1) ** m * factorial(m - 1)) * bernoulli(2 * q)
                              * bernoulli(2 * s) / (factorial(2 * q) * factorial(2 * s)
                                                    * factorial(m + 2 - 2 * q - 2 * s)))
                    out.add_term(m, NPoly.N(m + 2 - 2 * q - 2 * s,
                                            -coeff4 * a ** (m + 1 - 2 * q)))
        return out

    assert K_series(30, a) == k_four_sum(30, a)


def test_remainder_sign_relation():
    # K(z,N,2) - K(z,2N,1)/2 and J(2z,2N,2) - J(z,2N,1)/2 are opposite
    order = 10
    r = nonorientable_remainder(order)
    k2_rem = K2_series(order) - K1_series(order).scale_N(2).scale(Fraction(1, 2))
    j2 = J_series(order, 2).scale_z(2).scale_N(2)
    j2_rem = j2 - J_series(order, 1).scale_N(2).scale(Fraction(1, 2))
    assert k2_rem == r.scale(Fraction(-1, 2))
    assert j2_rem == r.scale(Fraction(1, 2))


def test_no_constant_or_negative_z_terms():
    for zs in (K_series(6, 1), K_series(6, 3), J_series(6, 2), I_series(6, 2)):
        assert all(m >= 1 for m in zs.coeffs)


def test_I_branches_agree_at_r_one():
    assert I_series(8, 1) == I_series(8, Fraction(1, 1))
    # K branch at alpha=1 equals J branch at gamma=1 after the substitutions
    k_side = K_series(8, 1).shift_N_per_z(1)
    j_side = J_series(8, 1).shift_N_per_z(1)
    assert k_side == j_side


def test_extended_duality():
    for r in (1, 2, 3, 4):
        assert not extended_duality_gap(8, r).coeffs
        assert not extended_duality_gap(8, Fraction(1, r)).coeffs
    for r in (Fraction(3, 2), Fraction(2, 5), Fraction(7, 3), Fraction(2, 3)):
        assert not extended_duality_gap(6, r).coeffs, r
    for r in (0, -1):
        with pytest.raises(UsageError):
            I_series(4, r)


@pytest.mark.parametrize("a", [Fraction(3, 2), Fraction(5, 7)])
def test_four_sum_equals_the_loop_route_at_rational_a(a):
    # log of the Vandermonde**(2a) Penner integral from the loop equations
    # at beta = 2a, c = 1/2, vertex weights 1/j, then t_j -> -z**(j/2-1)
    order = 3
    z = CouplingSeries(6 * order, {(): NPoly.const(1)})
    for monomial in iter_monomials(6 * order, allowed=lambda j: j >= 3):
        weight = Fraction(1)
        for j in set(monomial):
            m = monomial.count(j)
            weight *= Fraction(1, j) ** m / factorial(m)
        z.terms[monomial] = _loop_moment(2 * a, Fraction(1, 2), tuple(sorted(monomial))) * weight
    assert penner_substitute(z.log()) == K_series(order, a)
    assert K_series(order, a) == J_series(order, 1 / a)


def test_penner_substitution_bookkeeping():
    series = CouplingSeries(12, {(3, 3): NPoly.const(1), (4,): NPoly.const(2)})
    zs = penner_substitute(series)
    # (3,3): v=2, e=3 -> +z; (4,): v=1, e=2 -> -2z
    assert zs.coefficient(1) == NPoly.const(-1)
    bad = CouplingSeries(12, {(2, 4): NPoly.const(1)})
    with pytest.raises(UsageError):
        penner_substitute(bad)


def test_gse_graph_sum_matches_K2_at_order_z():
    zs = gse_penner_zseries(6)
    assert zs.order == 1
    assert zs.coefficient(1) == K_series(1, 2).coefficient(1)


def test_goe_graph_sum_matches_J2_at_order_z():
    zs = goe_penner_zseries(6)
    assert zs.coefficient(1) == J_series(1, 2).coefficient(1)


def test_real_moduli_closed_form_values():
    assert real_moduli_euler(0, 2) == Fraction(-1, 8)
    assert real_moduli_euler(0, 3) == Fraction(-1, 24)
    assert real_moduli_euler(1, 1) == Fraction(1, 24)
    with pytest.raises(UsageError):
        real_moduli_euler(0, 1)  # 1 - 2q - n = 0 violates hyperbolicity
    # (2q+n-2)!/n! as a falling product equals the factorial formula
    for q in range(11):
        for n in range(max(1, 2 - 2 * q), 31):
            assert real_moduli_euler(q, n) == (
                Fraction(1, 2) * factorial(2 * q + n - 2) * (Fraction(2) ** (2 * q - 1) - 1)
                * bernoulli(2 * q) / (factorial(2 * q) * factorial(n))), (q, n)


def test_real_moduli_graph_sum_small():
    assert real_moduli_graph_sum(0, 2) == real_moduli_euler(0, 2)


def test_real_moduli_graph_sum_refuses_before_any_catalog(monkeypatch):
    # (2, 1) needs the all-trivalent {3: 8}, 24 half-edges: refused at once
    from mobex import catalog

    def walk(*args):
        raise AssertionError("a catalog walk ran")

    monkeypatch.setattr(catalog, "_orderly", walk)
    with pytest.raises(BudgetError, match=r"profile \{3: 8\} needs 24 half-edges"):
        real_moduli_graph_sum(2, 1)
