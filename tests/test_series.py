from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from mobex.errors import TAGS, BudgetError, UsageError
from mobex.npoly import NPoly, _add_keys, add_term, mul_terms
from mobex.series import (_TAGS, CouplingSeries, apply_duality, expand_logZ, expand_Z,
                          iter_monomials, rescale_couplings, series_one,
                          tag_monomials)


def test_npoly_basics():
    p = NPoly.N(2) + NPoly.N(1, coeff=Fraction(1, 2))
    assert p.eval_N(2) == 5
    assert (p * p).eval_N(2) == 25
    assert p - p == NPoly.zero()
    assert p.to_json() == {"1": "1/2", "2": "1"}
    assert NPoly.N(-2).eval_N(2) == Fraction(1, 4)


_npoly_terms = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.fractions(min_value=-2, max_value=2, max_denominator=3), max_size=6)


@given(_npoly_terms, st.one_of(st.integers(-3, 3),
                               st.fractions(min_value=-2, max_value=2, max_denominator=3)))
@settings(max_examples=80, deadline=None)
def test_npoly_scalar_arithmetic_matches_the_constant_polynomial(terms, scalar):
    # int and Fraction operands take a fast path that scales or shifts the
    # term dict; it must agree with the constant polynomial's route, keep
    # every coefficient a non-zero Fraction, and leave no cancelled key
    p = NPoly(terms)
    c = NPoly.const(scalar)
    cases = [(p * scalar, mul_terms(p.terms, c.terms, _add_keys)),
             (scalar * p, mul_terms(p.terms, c.terms, _add_keys))]
    for total in (p + scalar, scalar + p, p - (-scalar)):
        expected = dict(p.terms)
        for key, coeff in c.terms.items():
            add_term(expected, key, coeff)
        cases.append((total, expected))
    for result, expected in cases:
        assert result.terms == expected
        assert all(type(coeff) is Fraction and coeff for coeff in result.terms.values())
    assert (p * 0).terms == {} and (0 * p).terms == {}
    assert (NPoly.N(1) + 3 - Fraction(3)).terms == {(1, 0): 1}
    assert all(type(coeff) is Fraction for coeff in NPoly({(1, 0): 2, (0, 0): 1}).terms.values())


@given(_npoly_terms, _npoly_terms, _npoly_terms)
@settings(max_examples=80, deadline=None)
def test_mul_terms_distributes_and_stores_no_zero(p, q, r):
    def plus(*dicts):
        out = {}
        for terms in dicts:
            for key, coeff in terms.items():
                add_term(out, key, coeff)
        return out

    # the inputs may hold zero coefficients; no result ever does
    left = mul_terms(p, plus(q, r), _add_keys)
    right = plus(mul_terms(p, q, _add_keys), mul_terms(p, r, _add_keys))
    assert left == right
    for terms in (left, right, plus(q, r), mul_terms(p, q, _add_keys)):
        assert all(terms.values())


def test_dual_transform_single_terms():
    # N**chi at chi = 1 picks up exactly one sign under N -> -alpha N
    term = NPoly.monomial(1, 1, 1)  # sqrt(a) N
    assert term.dual_transform() == NPoly.monomial(1, 1, -1)
    # even chi is fixed at alpha = 1
    even = NPoly.monomial(2, 2, 1)
    assert even.dual_transform().reduce_root(1) == even.reduce_root(1)


def test_ring_ops_degree_bookkeeping():
    s = CouplingSeries(8, {(3,): NPoly.const(1)})
    sq = s * s
    assert sq.coefficient((3, 3)) == NPoly.const(1)
    cube = sq * s  # weight 9 > 8 truncates away
    assert not cube.terms
    with pytest.raises(UsageError):
        s + CouplingSeries(6, {})


def test_exp_log_trivial():
    one = series_one(6)
    zero = CouplingSeries(6, {})
    assert zero.exp() == one
    assert one.log() == zero
    with pytest.raises(UsageError):
        one.exp()  # nonzero constant term


@st.composite
def sparse_series(draw):
    degree = 8
    terms = {}
    n_terms = draw(st.integers(1, 4))
    for _ in range(n_terms):
        mono = tuple(sorted(draw(
            st.lists(st.integers(1, 4), min_size=1, max_size=3))))
        if sum(mono) > degree:
            continue
        num = draw(st.integers(-6, 6))
        den = draw(st.integers(1, 4))
        n_exp = draw(st.integers(0, 2))
        if num:
            terms[mono] = NPoly.N(n_exp, Fraction(num, den))
    return CouplingSeries(degree, terms)


@settings(max_examples=40, deadline=None)
@given(sparse_series())
def test_log_exp_roundtrip(series):
    assert series.exp().log() == series


@settings(max_examples=40, deadline=None)
@given(sparse_series(), st.booleans())
def test_exp_stops_where_the_powers_truncate_to_zero(series, with_t1):
    # exp starts Horner at degree // (least monomial degree); the reference runs
    # all `degree` steps.  Without t_1 the least degree is >= 2.
    terms = {key: value for key, value in series.terms.items() if with_t1 or 1 not in key}
    if with_t1:
        terms[(1,)] = NPoly.N(1, Fraction(-1, 3))
    series = CouplingSeries(series.degree, terms)
    one = series_one(series.degree)
    full = one.copy()
    for k in range(series.degree, 0, -1):
        full = one + (series * full) * Fraction(1, k)
    assert series.exp() == full


def test_master_beta1_first_moments():
    s = expand_logZ("master", 2, beta=1)
    assert s.coefficient((2,)) == NPoly({(2, 0): Fraction(1, 4), (1, 0): Fraction(1, 4)})
    assert s.coefficient((1, 1)) == NPoly({(1, 0): Fraction(1, 4)})


def test_master_beta4_first_moment():
    s = expand_logZ("master", 2, beta=4)
    assert s.coefficient((2,)) == NPoly({(2, 0): Fraction(1), (1, 0): Fraction(-1, 2)})


def test_master_beta2_kills_nonorientable():
    from mobex.catalog import enumerate_graphs
    from mobex.sprinkle import mu_closed_form
    for profile in ((2,), (3, 3), (4,), (1, 3)):
        for entry in enumerate_graphs(list(profile)):
            if entry.topology.natural == -1:
                assert mu_closed_form(entry.topology, 2) == 0
    # consequently any monomial realized only by non-orientable graphs is absent
    series = expand_logZ("master", 6, beta=2)
    for key in series.terms:
        assert any(e.topology.natural == 1
                   for e in enumerate_graphs(list(key))), key


def _paper_mu(topo, beta):
    """The paper's closed form of mu on a class of this topology."""
    return ((-4 + 6 * beta - beta * beta) ** (1 - (topo.sigma + topo.chi) // 2)
            * (2 - beta) ** topo.sigma * Fraction(beta) ** (topo.f - 1))


# each tag's class weight as the paper writes it, by topology and beta
_PAPER_WEIGHTS = {
    "master": lambda t, beta: NPoly.N(t.f, _paper_mu(t, beta)),
    "rescaled": lambda t, beta: NPoly.N(
        t.f, _paper_mu(t, beta) * Fraction(beta) ** (t.chi - t.f)),
    "hermitian": lambda t, beta: NPoly.N(t.f, 2 if t.natural == 1 else 0),
    "gse-penner": lambda t, beta: NPoly.N(t.f, (-1) ** (t.chi % 2) * 2 ** t.f),
    "invariant": lambda t, beta: (
        NPoly.monomial(t.chi, t.chi, 2)
        * (3 - NPoly.root(2) - NPoly.root(-2)) ** (1 - (t.sigma + t.chi) // 2)
        * (NPoly.root(-1) - NPoly.root(1)) ** t.sigma),
}
_ACCEPTED_BETAS = {"master": (1, 2, 4), "rescaled": (1, 2, 4), "hermitian": (2,),
                   "gse-penner": (4,), "invariant": (None,)}


@pytest.mark.parametrize("tag, beta", [(tag, beta) for tag, betas in _ACCEPTED_BETAS.items()
                                       for beta in betas])
def test_expansion_is_the_paper_weight_sum(tag, beta):
    from mobex.catalog import enumerate_graphs
    weight = _PAPER_WEIGHTS[tag]
    want = {}
    for monomial in tag_monomials(tag, 8):
        total = NPoly.zero()
        for entry in enumerate_graphs(list(monomial), connected_only=True):
            total = total + weight(entry.topology, beta) * Fraction(1, entry.aut_moebius)
        if total:
            want[monomial] = total
    assert expand_logZ(tag, 8, beta) == CouplingSeries(8, want)


def test_hermitian_and_master_are_rescaled_at_their_beta():
    assert expand_logZ("hermitian", 8) == expand_logZ("rescaled", 8, beta=2)
    assert expand_logZ("master", 8, beta=1) == expand_logZ("rescaled", 8, beta=1)


def test_hermitian_matches_ribbon_sum():
    from mobex.catalog import ribbon_classes
    s = expand_logZ("hermitian", 4)
    assert s.coefficient((2,)) == NPoly.N(2, Fraction(1, 2))
    # the ribbon route: sum N**f / |Aut_R| per profile
    for key in s.terms:
        rib = NPoly.zero()
        for _, aut, topo in ribbon_classes(list(key)):
            rib = rib + NPoly.N(topo.f) * Fraction(1, aut)
        assert s.coefficient(key) == rib, key


def test_expand_Z_contains_disconnected_products():
    conn = expand_logZ("master", 4, beta=1)
    z = expand_Z("master", 4, beta=1)
    assert z.constant_term() == NPoly.const(1)
    assert z.log() == conn
    t2 = conn.coefficient((2,))
    want = t2 * t2 * Fraction(1, 2) + conn.coefficient((2, 2))
    assert z.coefficient((2, 2)) == want


def test_duality_involution_and_self_duality():
    inv = expand_logZ("invariant", 6)
    assert apply_duality(apply_duality(inv)) == inv
    # the invariant form is its own dual, graph by graph
    assert apply_duality(inv) == inv
    # at alpha = 1 non-orientable weights vanish and N -> -N is pointwise
    reduced = inv.reduce_root(1)
    assert apply_duality(inv).reduce_root(1) == reduced


def test_duality_at_rational_alpha():
    inv = expand_logZ("invariant", 6)
    for alpha in (Fraction(1, 2), Fraction(2)):
        assert apply_duality(inv).reduce_root(alpha) == inv.reduce_root(alpha)


def test_rational_function_identities():
    # -4 + 6 beta - beta**2 = 4 alpha (3 - alpha - 1/alpha) at beta = 2 alpha
    a = NPoly.root(2)  # alpha as r**2
    beta = 2 * a
    lhs = NPoly.const(-4) + 6 * beta - beta * beta
    rhs = 4 * a * (NPoly.const(3) - a - NPoly.root(-2))
    assert lhs == rhs
    # (2 - beta)**sigma = 2**sigma alpha**(sigma/2) (1/sqrt(a)-sqrt(a))**sigma
    for sigma in (1, 2):
        lhs = (NPoly.const(2) - beta) ** sigma
        rhs = (NPoly.const(2) ** sigma) * NPoly.root(sigma) * (
            NPoly.root(-1) - NPoly.root(1)) ** sigma
        assert lhs == rhs, sigma


def test_tag_transformations_consistent():
    for beta in (1, 2, 4):
        master = expand_logZ("master", 6, beta=beta)
        rescaled = expand_logZ("rescaled", 6, beta=beta)
        got = rescale_couplings(
            master, lambda key: NPoly.const(Fraction(beta) ** (len(key) - sum(key) // 2)))
        assert got == rescaled, beta
        alpha = Fraction(beta, 2)
        invariant = expand_logZ("invariant", 6).reduce_root(alpha)
        got2 = rescale_couplings(
            rescaled, lambda key: NPoly.N(len(key) - sum(key) // 2)).reduce_root(alpha)
        assert got2 == invariant, beta


def test_tag_validation():
    with pytest.raises(UsageError):
        expand_logZ("master", 4, beta=3)
    with pytest.raises(UsageError):
        expand_logZ("hermitian", 4, beta=4)
    with pytest.raises(UsageError):
        expand_logZ("nonsense", 4, beta=1)
    for beta in (1, 7):  # the graph side is symbolic in r and reads no beta
        with pytest.raises(UsageError, match="reads no beta"):
            expand_logZ("invariant", 2, beta=beta)
    with pytest.raises(UsageError, match="unknown normalization tag"):
        tag_monomials("nonsense", 4)


def test_one_row_per_tag():
    assert tuple(_TAGS) == TAGS


def test_iter_monomials_weighting():
    monos = list(iter_monomials(4))
    assert (2,) in monos and (1, 1) in monos and (4,) in monos
    assert (1, 1, 2) in monos and (1, 3) in monos
    assert all(sum(m) <= 4 and sum(m) % 2 == 0 for m in monos)
    restricted = list(iter_monomials(6, allowed=lambda j: j >= 3))
    assert all(min(m) >= 3 for m in restricted)


def test_expansion_bounds():
    with pytest.raises(UsageError):
        expand_logZ("master", -3, beta=1)
    with pytest.raises(BudgetError, match="needs 6 half-edges, budget is 4"):
        expand_logZ("master", 6, beta=1, half_edge_budget=4)
    with pytest.raises(BudgetError, match="needs 6 half-edges"):
        expand_logZ("invariant", 7, half_edge_budget=5)
    assert expand_logZ("master", 0, beta=1).terms == {}


def test_degree_refusal_counts_the_monomials_it_would_sum():
    for tag, beta in (("master", 1), ("invariant", None), ("gse-penner", None)):
        for dropped in (set(), {1}, {2}, {1, 2}):
            for degree in range(2, 15):
                with pytest.raises(BudgetError) as info:
                    expand_logZ(tag, degree, beta, dropped, half_edge_budget=1)
                assert str(info.value) == (
                    "truncation degree %d needs %d half-edges, budget is 1: it would sum %d"
                    " coupling monomials of tag %r" % (degree, degree - degree % 2,
                                                      len(tag_monomials(tag, degree, dropped)), tag))
    with pytest.raises(BudgetError, match=r"sum over 10\^30 coupling monomials"):
        expand_logZ("master", 10 ** 9, beta=1)


def test_tag_monomials_coupling_filter():
    from mobex.oracle import oracle_logZ

    full = tag_monomials("master", 8)
    assert full == list(iter_monomials(8))
    no_t2 = tag_monomials("master", 8, dropped={2})
    assert no_t2 == [m for m in full if 2 not in m]
    gse = tag_monomials("gse-penner", 8)
    assert gse == tag_monomials("master", 8, dropped={1, 2})
    assert gse == [m for m in full if min(m) >= 3]
    # both routes expand the same monomials
    assert set(expand_logZ("gse-penner", 8).terms) <= set(gse)
    assert set(oracle_logZ(4, "gse-penner", 8).terms) <= set(gse)
