from fractions import Fraction

import pytest

from mobex import dualchar
from mobex.catalog import canonical_code, enumerate_graphs
from mobex.dualchar import (_merge, charpoly_lhs, charpoly_rhs, charpoly_sides_by_edges,
                            poincare_dual, verify_polynomial_identity)
from mobex.errors import UsageError, VerificationError
from mobex.graphs import MoebiusGraph, topology
from mobex.npoly import mul_terms
from mobex.oracle import _gauss_expect_cpoly


def all_profiles(e_max):
    def parts(n, mx):
        if n == 0:
            yield ()
            return
        for k in range(min(n, mx), 0, -1):
            for rest in parts(n - k, k):
                yield (k,) + rest
    for e in range(1, e_max + 1):
        yield from parts(2 * e, 2 * e)


def test_dual_of_sphere_loop():
    loop = MoebiusGraph([(0, 1)], [(0, 1)], [False])
    dual = poincare_dual(loop)
    t, td = topology(loop), topology(dual)
    assert (td.v, td.e, td.f) == (t.f, t.e, t.v) == (2, 1, 1)
    assert td.chi == 2 and td.natural == 1


def test_dual_of_theta():
    theta = MoebiusGraph([(0, 1, 2), (3, 5, 4)], [(0, 3), (1, 4), (2, 5)], [False] * 3)
    dual = poincare_dual(theta)
    t, td = topology(theta), topology(dual)
    assert td.v_profile == t.f_profile
    assert td.f_profile == t.v_profile
    assert (td.chi, td.natural) == (t.chi, t.natural)


def test_dual_involution_and_surface_preservation():
    for profile in all_profiles(4):
        for entry in enumerate_graphs(list(profile)):
            g = entry.graph
            d = poincare_dual(g)
            t, td = topology(g), topology(d)
            assert td.v_profile == t.f_profile and td.f_profile == t.v_profile
            assert (td.chi, td.natural) == (t.chi, t.natural)
            assert canonical_code(poincare_dual(d)) == canonical_code(g)


def test_sign_bookkeeping_per_graph():
    # (-1)**(sigma + e + v) == (-1)**f for every graph
    for profile in all_profiles(3):
        for entry in enumerate_graphs(list(profile)):
            t = entry.topology
            assert (t.sigma + t.e + t.v) % 2 == t.f % 2


def test_gue_lambda_duality():
    assert charpoly_lhs("gue", 6) == charpoly_rhs("gue", 6)


def test_goe_gse_lambda_duality():
    assert charpoly_lhs("goe", 6) == charpoly_rhs("gse", 6)


def test_duality_holds_per_edge_count():
    for e in (1, 2, 3):
        lhs, rhs = charpoly_sides_by_edges("gue", e)
        assert lhs == rhs
        lhs, rhs = charpoly_sides_by_edges("goe-gse", e)
        assert lhs == rhs


def test_goe_has_extra_twisted_terms():
    from mobex.npoly import NPoly
    goe = charpoly_lhs("goe", 2)
    gue = charpoly_lhs("gue", 2)
    # one-edge ribbon graphs: segment gives tau_1^2/2, loop gives -N tau_2/2
    assert gue.coefficient((1, 1)) == NPoly.const(Fraction(1, 2))
    assert gue.coefficient((2,)) == NPoly.N(1, Fraction(-1, 2))
    # the twisted loop contributes an extra piece to tau_2 on the GOE side
    assert goe.coefficient((2,)) == NPoly({(1, 0): Fraction(-1, 4),
                                           (0, 0): Fraction(-1, 4)})
    assert goe.coefficient((1, 1)) == gue.coefficient((1, 1))


def test_degree_zero_is_empty():
    assert not charpoly_lhs("gue", 0).terms


def test_bhc_identity():
    for n in (1, 2, 3):
        report = verify_polynomial_identity(n, 1, "BHC")
        assert report.equal
    for n in range(1, 6):
        assert verify_polynomial_identity(n, 2, "BHC").equal


def test_bhq_identity():
    for n in (1, 2, 3):
        report = verify_polynomial_identity(n, 1, "BHQ")
        assert report.equal
    for n in range(1, 6):  # the Pfaffian is a polynomial at odd N too
        assert verify_polynomial_identity(n, 2, "BHQ").equal


def test_bhc_explicit_small_polynomials():
    # N=1: both sides are lambda; N=2: lambda**2 - 1/2
    report = verify_polynomial_identity(1, 1, "BHC")
    assert dict(report.lhs) == {(1,): 1}
    report = verify_polynomial_identity(2, 1, "BHC")
    assert dict(report.lhs) == {(2,): 1, (0,): Fraction(-1, 2)}
    # BHQ at N=2: lambda**2 - 1/4 on both sides
    report = verify_polynomial_identity(2, 1, "BHQ")
    assert dict(report.lhs) == {(2,): 1, (0,): Fraction(-1, 4)}


def test_verify_argument_guards(monkeypatch):
    with pytest.raises(UsageError):
        verify_polynomial_identity(1, 1, "XYZ")
    with pytest.raises(UsageError):
        verify_polynomial_identity(0, 1, "BHC")

    def matrix_side(*args):
        raise AssertionError("the matrix side ran before the k check")

    # k > 2 is refused before either side is computed
    monkeypatch.setattr(dualchar, "_charpoly_matrix_side", matrix_side)
    with pytest.raises(UsageError):
        verify_polynomial_identity(4, 3, "BHQ")


def test_ppoly_mul_drops_cancelled_terms():
    # (p1 + p2)(p2 - p1) = p2**2 - p1**2: the p1 p2 terms cancel exactly
    product = mul_terms({(1,): Fraction(1), (2,): Fraction(1)},
                        {(2,): Fraction(1), (1,): Fraction(-1)}, _merge)
    assert product == {(2, 2): Fraction(1), (1, 1): Fraction(-1)}


def test_gauss_expectation_rejects_a_surviving_odd_power_of_i():
    # keys are (power of i, lambda, y); E[y**2] = 1 at variance 1
    assert _gauss_expect_cpoly({(2, 1, 0): Fraction(3), (0, 0, 2): Fraction(1)}, 1,
                               [Fraction(1)]) == {(1,): Fraction(-3), (0,): Fraction(1)}
    # i + i**3 = 0: odd powers that cancel are fine
    assert _gauss_expect_cpoly({(1, 0, 2): Fraction(1), (3, 0, 2): Fraction(1)}, 1,
                               [Fraction(1)]) == {}
    with pytest.raises(VerificationError) as info:
        _gauss_expect_cpoly({(1, 0, 2): Fraction(1), (0, 0, 0): Fraction(1)}, 1,
                            [Fraction(1, 2)])
    assert info.value.payload == {(0,): Fraction(1, 2)}
