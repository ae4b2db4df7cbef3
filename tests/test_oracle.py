import json
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from mobex import series
from mobex.errors import BudgetError, UsageError
from mobex.npoly import NPoly
from mobex.oracle import (MomentQuery, _cumulant, _loop_moment, eigenvalue_moment, mc_estimate,
                          oracle_compare, oracle_logZ, wick_trace_moment)
from mobex.series import expand_logZ, iter_monomials, series_one, tag_monomials

GOLDEN_MOMENTS = Path(__file__).with_name("golden_eigenvalue_moments.json")

QUARTER = Fraction(1, 4)
HALF = Fraction(1, 2)


def test_goe_second_moment_all_sizes():
    for n in (1, 2, 3):
        assert eigenvalue_moment(MomentQuery(1, n, (2,), QUARTER)) == n * n + n


def test_gue_second_moment():
    # with weight exp(-tr X^2 / 2) the GUE propagator gives E[p2] = N**2
    for n in (1, 2, 3):
        assert eigenvalue_moment(MomentQuery(2, n, (2,), HALF)) == n * n
    # with exp(-N/2 tr X^2) the propagator is 1/N per pairing: E[p2] = N
    assert eigenvalue_moment(MomentQuery(2, 2, (2,), Fraction(1))) == 2


def test_gse_second_moment():
    for n in (1, 2, 3):
        assert eigenvalue_moment(MomentQuery(4, n, (2,), QUARTER)) == 4 * n * n - 2 * n


def test_odd_moments_vanish():
    assert eigenvalue_moment(MomentQuery(4, 2, (3,), HALF)) == 0
    assert eigenvalue_moment(MomentQuery(1, 3, (1, 2), QUARTER)) == 0
    assert eigenvalue_moment(MomentQuery(2, 2, (1,), HALF)) == 0


def test_eigenvalue_moment_matches_golden_table():
    # values of the earlier Vandermonde-power / chamber-Pfaffian routes:
    # beta 1, 2, 4; N <= 4; scales 1/4, 1/2; every monomial of degree <= 8
    entries = json.loads(GOLDEN_MOMENTS.read_text())["entries"]
    assert len(entries) == 3 * 4 * 2 * 67
    for e in entries:
        query = MomentQuery(e["beta"], e["n"], tuple(e["powers"]), Fraction(e["scale"]))
        assert eigenvalue_moment(query) == Fraction(e["moment"]), e


# every (tag, beta) pair a tag takes; ids name the tag unless it is the default, master
_TAG_BETAS = [pytest.param("master", beta, id=str(beta)) for beta in (1, 2, 4)] + [
    pytest.param(tag, beta, id="%s-%d" % (tag, beta))
    for tag, beta in [("rescaled", 1), ("rescaled", 2), ("rescaled", 4), ("invariant", 1),
                      ("invariant", 2), ("invariant", 4), ("hermitian", 2), ("gse-penner", 4)]]


@pytest.mark.parametrize("tag, beta", _TAG_BETAS)
def test_loop_equation_logZ_is_the_graph_sum_in_N(tag, beta):
    # log Z symbolic in N; invariant's graph side at r**2 = beta/2
    graph_side = expand_logZ(tag, 8, beta=None if tag == "invariant" else beta)
    if tag == "invariant":
        graph_side = graph_side.reduce_root(Fraction(beta, 2))
    assert oracle_logZ(beta, tag, 8) == graph_side


@pytest.mark.parametrize("tag, beta", _TAG_BETAS)
def test_cumulant_logZ_is_the_log_of_the_moment_series(tag, beta):
    """The cumulant route against the moment route, to degree 10.

    The deliberate second route: Z from _loop_moment's full moments with
    the same vertex factors, then CouplingSeries.log, which no code in
    mobex calls; this test keeps it in use as that route.
    """
    row = series._TAGS[tag]
    strength = row.strength_at(beta)
    z = series_one(10)
    for monomial in tag_monomials(tag, 10):
        weight = (prod(Fraction(strength, 2 * j) for j in monomial)
                  / prod(factorial(monomial.count(j)) for j in set(monomial)))
        n_power = len(monomial) - sum(monomial) // 2 if row.symbolic else 0
        z.set_coefficient(monomial, _loop_moment(beta, Fraction(strength, 4), monomial)
                          * NPoly.N(n_power, weight))
    assert oracle_logZ(beta, tag, 10, budget=10) == z.log()


@pytest.mark.parametrize("beta, scale", [(4, Fraction(1)), (1, Fraction(3, 7))],
                         ids=["4-at-1", "1-at-3_7"])
def test_cumulants_off_the_kernel_scale_are_the_log_of_the_moments(beta, scale):
    # the integer kernel runs at c = 1/4 for beta = 1 and 4, and _cumulant rescales it
    # by (1/4 / scale)**e; the moments are solved at the scale itself, and
    # log sum_J E[p_J] t^J / m_J! = sum_J kappa(p_J) t^J / m_J!
    weights = {monomial: Fraction(1, prod(factorial(monomial.count(j)) for j in set(monomial)))
               for monomial in iter_monomials(10)}
    z = series_one(10)
    for monomial, weight in weights.items():
        z.set_coefficient(monomial, _loop_moment(beta, scale, monomial) * weight)
    log_z = z.log()
    for monomial, weight in weights.items():
        assert log_z.coefficient(monomial) == _cumulant(beta, scale, monomial) * weight, monomial


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_eigenvalue_moment_rescales_the_kernel_scale_moments(beta):
    # eigenvalue_moment solves the moments once, at _C0[beta], and rescales
    # them by (c0 / scale)**e; here they are solved at the scale itself
    for scale in (Fraction(1), Fraction(3, 7), Fraction(5, 2)):
        for monomial in iter_monomials(8):
            for n in (1, 3):
                query = MomentQuery(beta, n, monomial[::-1], scale)
                assert eigenvalue_moment(query) == _loop_moment(beta, scale, monomial).eval_N(n)


def test_goe_gse_duality_one_connected_correlator_at_a_time():
    # at c = 1/4, kappa^{beta=4}(J)(N) = (-2)**(e-n) kappa^{beta=1}(J)(-2N) for a
    # monomial J of n parts and e edges: column by column in N**(e-n+chi), that is
    # kappa_chi^{beta=4} = (-1)**chi 2**(2e-2n+chi) kappa_chi^{beta=1}, the paper's
    # opposite sign on surfaces of odd Euler characteristic
    monomials = list(iter_monomials(12))
    assert len(monomials) == 159
    nonzero = 0
    for monomial in monomials:
        e, n = sum(monomial) // 2, len(monomial)
        goe = _cumulant(1, QUARTER, monomial)
        assert _cumulant(4, QUARTER, monomial) == goe.scale_N(-2) * Fraction(-2) ** (e - n), \
            monomial
        nonzero += bool(goe)
    assert nonzero == 133  # the other 26, each with four or more p_1, vanish


def test_two_independent_oracles_agree():
    # loop-equation eigenvalue route vs entry-level Wick pairing, at every beta:
    # beta in {1, 2, 4} x n <= 3 (and n = 4 at beta = 1) x every listed monomial
    powers_list = ((2,), (1, 1), (4,), (2, 2), (1, 3), (2, 1, 1), (1, 1, 1, 1),
                   (6,), (3, 3), (2, 4), (2, 2, 2))
    for beta, sizes in ((1, (1, 2, 3, 4)), (2, (1, 2, 3)), (4, (1, 2, 3))):
        for n in sizes:
            for powers in powers_list:
                a = eigenvalue_moment(MomentQuery(beta, n, powers, QUARTER))
                b = wick_trace_moment(beta, n, powers, QUARTER)
                assert a == b, (beta, n, powers)


def test_goe_fourth_moments_match_wick():
    # frozen from the entry-level pairing oracle at n = 3, c = 1/4
    # (matches 2N**3 + 5N**2 + 5N at N = 3)
    assert wick_trace_moment(1, 3, (4,), QUARTER) == 114
    assert eigenvalue_moment(MomentQuery(1, 3, (4,), QUARTER)) == 114
    assert eigenvalue_moment(MomentQuery(1, 3, (2, 2), QUARTER)) == 192
    assert wick_trace_moment(1, 3, (2, 2), QUARTER) == 192


def test_wick_trace_moment_refuses_what_the_query_refuses():
    for beta, n, powers, scale in ((3, 2, (2,), QUARTER), (1, 0, (2,), QUARTER),
                                   (1, 2, (0,), QUARTER), (1, 2, (2,), Fraction(0))):
        with pytest.raises(UsageError):
            wick_trace_moment(beta, n, powers, scale)


def test_query_validation():
    with pytest.raises(UsageError):
        MomentQuery(3, 2, (2,), QUARTER)
    with pytest.raises(UsageError):
        MomentQuery(1, 0, (2,), QUARTER)
    with pytest.raises(UsageError):
        MomentQuery(1, 2, (0,), QUARTER)
    with pytest.raises(UsageError):
        MomentQuery(1, 2, (2,), Fraction(0))


def test_oracle_compare_small_grid():
    assert all(r.equal for r in oracle_compare(1, "master", 4, [1, 2]))
    assert all(r.equal for r in oracle_compare(4, "master", 2, [1]))
    assert all(r.equal for r in oracle_compare(2, "master", 4, [3]))


def test_oracle_compare_other_tags():
    assert all(r.equal for r in oracle_compare(2, "hermitian", 4, [2]))
    assert all(r.equal for r in oracle_compare(4, "gse-penner", 6, [1, 2]))
    assert all(r.equal for r in oracle_compare(1, "rescaled", 4, [2]))
    assert all(r.equal for r in oracle_compare(4, "invariant", 4, [2]))


def test_oracle_compare_refuses_sizes_below_one(monkeypatch):
    def no_graph_side(*args, **kwargs):
        raise AssertionError("the graph side was built before the size check")

    # at every degree (no degree-1 monomial reaches a moment); the degree budget comes first
    monkeypatch.setattr(series, "expand_logZ", no_graph_side)
    for sizes in ([], [0], [2, -1]):
        with pytest.raises(UsageError, match="matrix sizes must be >= 1"):
            oracle_compare(1, "master", 1, sizes)
    with pytest.raises(BudgetError):
        oracle_compare(1, "master", 10, [0])


def test_oracle_logZ_matches_direct_moment():
    z = oracle_logZ(1, "master", 2)
    assert z.coefficient((2,)) == (NPoly.N(2) + NPoly.N(1)) * Fraction(1, 4)  # E[p2]/4


def test_budget_guard(monkeypatch):
    def no_graph_side(*args, **kwargs):
        raise AssertionError("the graph side was built before the budget check")

    monkeypatch.setattr(series, "expand_logZ", no_graph_side)
    with pytest.raises(BudgetError, match="degree 10 exceeds oracle budget 8"):
        oracle_compare(1, "master", 10, [2], budget=8)


def test_graph_side_honours_the_half_edge_budget():
    # degree 6 needs 6 half-edges: within the oracle's degree budget, over this one
    with pytest.raises(BudgetError, match="needs 6 half-edges, budget is 4"):
        oracle_compare(1, "master", 6, [2], half_edge_budget=4)


@pytest.mark.parametrize("tag, beta", [("master", 1), ("hermitian", 2), ("gse-penner", 4)])
def test_budget_error_counts_the_monomials_it_would_compute(tag, beta):
    for degree in range(1, 15):
        expected = len(tag_monomials(tag, degree))
        with pytest.raises(BudgetError) as info:
            oracle_logZ(beta, tag, degree, budget=0)
        assert str(info.value) == (
            "degree %d exceeds oracle budget 0: it would compute %d cumulants,"
            " one per coupling monomial of tag %r" % (degree, expected, tag))


def test_budget_error_counts_without_listing_at_any_degree():
    # sum of p(n) over even n <= 500, from the pentagonal recurrence
    with pytest.raises(BudgetError, match=r"^degree 500 exceeds oracle budget 8: it would"
                                          r" compute 21577430523547596097978 cumulants,"):
        oracle_logZ(1, "master", 500)
    with pytest.raises(BudgetError, match=r"compute over 10\^30 cumulants,"):
        oracle_logZ(1, "master", 10 ** 9)


def test_mc_three_listed_cases():
    mean, err = mc_estimate(1, 2, (2,), 20000, 7)
    assert abs(mean - 6) < 3 * err
    mean, err = mc_estimate(2, 2, (2,), 20000, 7, scale=Fraction(1))
    assert abs(mean - 2) < 3 * err
    mean, err = mc_estimate(1, 2, (1,), 20000, 7)
    assert abs(mean) < 3 * err


def test_mc_quaternionic_sampler():
    mean, err = mc_estimate(4, 2, (2,), 20000, 5)
    assert abs(mean - 12) < 3 * err


@pytest.mark.parametrize("powers", [(4,), (1, 3), (2, 2)], ids=["4", "1,3", "2,2"])
@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("beta", [1, 2, 4])
def test_mc_grid_matches_loop_equations(beta, n, powers):
    exact = eigenvalue_moment(MomentQuery(beta, n, powers, QUARTER))
    mean, err = mc_estimate(beta, n, powers, 20000, 2024)
    assert abs(mean - exact) < 4 * err


def test_mc_seed_determinism():
    a = mc_estimate(1, 2, (2,), 500, 42)
    b = mc_estimate(1, 2, (2,), 500, 42)
    assert a == b


def test_mc_error_shrinks_like_root_samples():
    _, err_small = mc_estimate(1, 2, (2,), 4000, 11)
    _, err_big = mc_estimate(1, 2, (2,), 64000, 11)
    ratio = err_small / err_big
    assert 2.5 < ratio < 6.5  # 16x samples -> about 4x smaller error
