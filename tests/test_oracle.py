import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from mobex import oracle
from mobex.errors import BudgetError, UsageError
from mobex.npoly import NPoly
from mobex.oracle import (MomentQuery, _loop_moment, eigenvalue_moment, isserlis_trace_moment,
                          mc_estimate, oracle_compare, oracle_logZ)
from mobex.series import CouplingSeries, expand_logZ, tag_monomials

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


@pytest.mark.parametrize("beta", [1, 2, 4])
def test_loop_equation_logZ_is_the_graph_sum_in_N(beta):
    # log Z of the master normalization (g_j = 1/(2j), c = 1/4), symbolic in N
    degree = 8
    z = CouplingSeries(degree, {(): NPoly.const(1)})
    for monomial in tag_monomials("master", degree):
        coeff = Fraction(1)
        for j in set(monomial):
            m = monomial.count(j)
            coeff *= Fraction(1, 2 * j) ** m / factorial(m)
        z.set_coefficient(monomial, _loop_moment(beta, Fraction(1, 4), monomial) * coeff)
    assert z.log() == expand_logZ("master", degree, beta=beta)


def test_two_independent_goe_oracles_agree():
    # loop-equation eigenvalue route vs entry-level Wick pairing
    for n in (1, 2, 3, 4):
        for powers in ((2,), (1, 1), (4,), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1),
                       (6,), (3, 3), (2, 2, 2)):
            a = eigenvalue_moment(MomentQuery(1, n, powers, QUARTER))
            b = isserlis_trace_moment(n, powers, QUARTER)
            assert a == b, (n, powers)


def test_goe_fourth_moments_match_wick():
    # frozen from the entry-level pairing oracle at n = 3, c = 1/4
    # (matches 2N**3 + 5N**2 + 5N at N = 3)
    assert isserlis_trace_moment(3, (4,), QUARTER) == 114
    assert eigenvalue_moment(MomentQuery(1, 3, (4,), QUARTER)) == 114
    assert eigenvalue_moment(MomentQuery(1, 3, (2, 2), QUARTER)) == 192
    assert isserlis_trace_moment(3, (2, 2), QUARTER) == 192


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


def test_oracle_logZ_matches_direct_moment():
    z = oracle_logZ(1, "master", 2, 2)
    assert z.coefficient((2,)).as_fraction() == Fraction(6, 4)  # E[p2]/4 at n=2


def test_budget_guard(monkeypatch):
    def no_graph_side(*args, **kwargs):
        raise AssertionError("the graph side was built before the budget check")

    monkeypatch.setattr(oracle, "expand_logZ", no_graph_side)
    with pytest.raises(BudgetError, match="degree 10 exceeds oracle budget 8"):
        oracle_compare(1, "master", 10, [2], budget=8)


def test_graph_side_honours_the_half_edge_budget():
    # degree 6 needs 6 half-edges: within the oracle's degree budget, over this one
    with pytest.raises(BudgetError, match="needs 6 half-edges, budget is 4"):
        oracle_compare(1, "master", 6, [2], half_edge_budget=4)


@pytest.mark.parametrize("tag, beta", [("master", 1), ("hermitian", 2), ("gse-penner", 4)])
@pytest.mark.parametrize("t1, t2", [(True, True), (False, True), (True, False), (False, False)])
def test_budget_error_counts_the_monomials_it_would_compute(tag, beta, t1, t2):
    for degree in range(1, 15):
        expected = len(tag_monomials(tag, degree, t1, t2))
        with pytest.raises(BudgetError) as info:
            oracle_logZ(beta, tag, degree, 2, t1, t2, budget=0)
        assert str(info.value) == (
            "degree %d exceeds oracle budget 0: it would compute %d eigenvalue moments,"
            " one per coupling monomial of tag %r" % (degree, expected, tag))


def test_budget_error_counts_without_listing_at_any_degree():
    # sum of p(n) over even n <= 500, from the pentagonal recurrence
    with pytest.raises(BudgetError, match=r"^degree 500 exceeds oracle budget 8: it would"
                                          r" compute 21577430523547596097978 eigenvalue"):
        oracle_logZ(1, "master", 500, 2)
    with pytest.raises(BudgetError, match=r"compute over 10\^30 eigenvalue moments"):
        oracle_logZ(1, "master", 10 ** 9, 2)


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
