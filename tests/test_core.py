import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymat as pm
from polymat.core import canonical_key
from conftest import I, M, exponent_tuples, monomial_lists, monomial_triples_with_order


class TestColonMonomial:
    def test_partial_overlap(self):
        assert pm.colon_monomial(M("x1^2*x3"), M("x1*x2*x3")) == M("x1", 3)

    def test_self_colon_is_unit(self):
        u = M("x1*x2^2*x3")
        assert pm.colon_monomial(u, u) == pm.unit_monomial(3)

    def test_clipped_at_zero(self):
        assert pm.colon_monomial(M("x1*x3^2"), M("x2^2*x3")) == M("x1*x3")

    def test_ambient_mismatch(self):
        with pytest.raises(pm.AmbientMismatchError):
            pm.colon_monomial(M("x1", 2), M("x1", 3))

    @given(exponent_tuples(n=3), exponent_tuples(n=3))
    def test_colon_times_divisor_is_lcm(self, a, b):
        u, v = pm.Monomial(a), pm.Monomial(b)
        c = pm.colon_monomial(u, v)
        assert c.divides(u)
        assert c * v == pm.monomial_lcm(u, v)


class TestOrders:
    def test_lex_identity_first_position_wins(self):
        order = pm.VariableOrder.identity(3)
        assert pm.lex_compare(M("x1*x2", 3), M("x2^2", 3), order) == 1

    def test_lex_equal(self):
        u = M("x1*x2^3", 3)
        assert pm.lex_compare(u, u, pm.VariableOrder((2, 3, 1))) == 0

    def test_lex_permuted_scan(self):
        # under x3 > x2 > x1 the first difference is at x2: 1 < 2
        order = pm.VariableOrder((3, 2, 1))
        assert pm.lex_compare(M("x1*x2", 3), M("x2^2", 3), order) == -1

    def test_revlex_fewest_least_variable_wins(self):
        # scanning from the least variable x1 up: x2^2 has no x1 at all
        order = pm.VariableOrder((3, 2, 1))
        assert pm.revlex_compare(M("x2^2", 3), M("x1*x3", 3), order) == 1

    def test_revlex_equal(self):
        u = M("x2*x3", 3)
        assert pm.revlex_compare(u, u, pm.VariableOrder.identity(3)) == 0

    def test_revlex_identity(self):
        order = pm.VariableOrder.identity(3)
        assert pm.revlex_compare(M("x1*x2", 3), M("x1*x3", 3), order) == 1

    def test_degree_dominates(self):
        order = pm.VariableOrder.identity(2)
        assert pm.lex_compare(M("x2^3", 2), M("x1", 2), order) == 1
        assert pm.revlex_compare(M("x2^3", 2), M("x1", 2), order) == 1

    @given(monomial_triples_with_order())
    def test_total_order_properties(self, data):
        (u, v, w), order = data
        for cmp in (pm.lex_compare, pm.revlex_compare):
            assert cmp(u, v, order) == -cmp(v, u, order)
            assert (cmp(u, v, order) == 0) == (u == v)
            if cmp(u, v, order) > 0 and cmp(v, w, order) > 0:
                assert cmp(u, w, order) > 0

    def test_two_variable_degeneracy(self):
        # in two variables lex and revlex agree on same-degree monomials
        for d in range(7):
            mons = pm.monomials_of_degree(2, d).elems
            for order in pm.all_variable_orders(2):
                for u, v in itertools.combinations(mons, 2):
                    assert pm.lex_compare(u, v, order) == pm.revlex_compare(u, v, order)


class TestMakeIdeal:
    def test_divisible_generator_dropped(self):
        ideal = pm.make_ideal(2, [M("x1^2", 2), M("x1*x2", 2), M("x2", 2)])
        assert ideal == I("x1^2 + x2")

    def test_singleton(self):
        assert pm.make_ideal(2, [M("x1*x2", 2)]).gens == (M("x1*x2", 2),)

    def test_empty_raises(self):
        with pytest.raises(pm.EmptyIdealError):
            pm.make_ideal(2, [])

    def test_equal_degree_antichain_kept(self):
        mons = pm.monomials_of_degree(3, 2).elems
        assert pm.make_ideal(3, mons).gens == mons

    @given(monomial_lists())
    @settings(max_examples=60)
    def test_idempotent_and_order_insensitive(self, data):
        n, mons = data
        ideal = pm.make_ideal(n, mons)
        rng = random.Random(42)
        shuffled = list(mons)
        rng.shuffle(shuffled)
        assert pm.make_ideal(n, shuffled) == ideal
        assert pm.make_ideal(n, ideal.gens) == ideal

    def test_direct_construction_validates(self):
        with pytest.raises(ValueError):
            pm.MonomialIdeal(2, (M("x1*x2", 2), M("x1", 2)))  # non-minimal
        with pytest.raises(ValueError):
            pm.MonomialIdeal(2, (M("x2", 2), M("x1", 2)))  # wrong order
        with pytest.raises(pm.AmbientMismatchError):
            pm.MonomialIdeal(3, (M("x1*x2", 3), M("x1", 2)))


def pairwise_minimality_error(gens):
    """Oracle: the minimality test of every ordered pair, in index order,
    that MonomialIdeal ran before it tested only pairs across degrees."""
    for g, h in itertools.permutations(gens, 2):
        if g.divides(h):
            return f"non-minimal generating set: {g} divides {h}"
    return None


@st.composite
def canonical_generator_tuples(st_draw):
    """Distinct monomials of mixed degree in canonical decreasing order.  In
    about half the draws a multiple of one of them joins the tuple, so that
    tuple is not minimal."""
    n, mons = st_draw(monomial_lists(max_len=8, max_exp=3))
    mons = set(mons)
    if st_draw(st.booleans()):
        g = st_draw(st.sampled_from(sorted(mons, key=canonical_key)))
        t = st_draw(st.integers(1, n))
        mons.add(g * pm.variable_monomial(t, n))
    return n, tuple(sorted(mons, key=canonical_key, reverse=True))


class TestMinimalityCheck:
    @given(canonical_generator_tuples())
    @settings(max_examples=300)
    def test_agrees_with_pairwise_oracle(self, data):
        n, gens = data
        expected = pairwise_minimality_error(gens)
        if expected is None:
            assert pm.MonomialIdeal(n, gens).gens == gens
        else:
            with pytest.raises(ValueError) as exc:
                pm.MonomialIdeal(n, gens)
            assert str(exc.value) == expected

    def test_first_offending_pair_named(self):
        # x1 divides both x1^2*x2 and x1*x3; the pairwise scan names the first
        gens = (M("x1^2*x2", 3), M("x1*x3", 3), M("x2^2", 3), M("x1", 3))
        expected = "non-minimal generating set: x1 divides x1^2*x2"
        assert pairwise_minimality_error(gens) == expected
        with pytest.raises(ValueError) as exc:
            pm.MonomialIdeal(3, gens)
        assert str(exc.value) == expected

    def test_equigenerated_corpora_test_no_pair(self, monkeypatch):
        calls = 0
        divides = pm.Monomial.divides

        def counting(self, other):
            nonlocal calls
            calls += 1
            return divides(self, other)

        monkeypatch.setattr(pm.Monomial, "divides", counting)
        items = {
            (n, d): list(pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d))) for n, d in ((3, 3), (4, 2))
        }
        assert calls == 0
        pm.MonomialIdeal(2, (M("x1^2", 2), M("x2", 2)))  # mixed degrees: one pair tested
        assert calls == 1
        monkeypatch.undo()
        for (n, _), corpus in items.items():
            assert len(corpus) == 1023
            for item in corpus:
                assert pm.make_ideal(n, item.ideal.gens) == item.ideal


class TestIdealOperations:
    def test_contains_remark_swap_candidate(self):
        ideal = I("x1*x3^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3")
        assert M("x2*x3^2", 3) not in ideal

    def test_contains_generators(self):
        ideal = I("x1*x3^2 + x2^2*x3")
        for g in ideal.gens:
            assert g in ideal

    def test_contains_multiple(self):
        assert M("x1^5*x2", 2) in I("x1", 2)

    def test_colon_ideal_minimalizes(self):
        assert I("x1^2 + x1*x2").colon(M("x2", 2)) == I("x1", 2)

    def test_colon_by_unit(self):
        ideal = I("x1*x2 + x2^2*x3")
        assert ideal.colon(pm.unit_monomial(3)) == ideal

    def test_colon_collapses_to_principal(self):
        # generator-wise colons are x1*x3, x1^2, x1; minimalizing leaves x1
        ideal = I("x1*x3^2 + x1^2*x3 + x1*x2*x3")
        assert ideal.colon(M("x2^2*x3", 3)) == I("x1", 3)

    @given(monomial_lists(max_len=5))
    @settings(max_examples=60)
    def test_colon_ideal_contains_generator_colons(self, data):
        n, mons = data
        ideal = pm.make_ideal(n, mons)
        v = mons[0]
        quotient = ideal.colon(v)
        for g in ideal.gens:
            assert pm.colon_monomial(g, v) in quotient

    def test_localize_absorbs(self):
        assert I("x1^2 + x1*x2 + x2*x3").localize({3}) == I("x1^2 + x2", 3)

    def test_localize_nothing(self):
        ideal = I("x1^2 + x2*x3")
        assert ideal.localize(set()) == ideal

    def test_localize_everything_gives_unit(self):
        result = I("x1*x2 + x2^2", 2).localize({1, 2})
        assert result.is_unit

    def test_localize_composes(self):
        ideal = I("x1^2*x2 + x2*x3^2 + x1*x3*x4", 4)
        assert ideal.localize({1}).localize({3}) == ideal.localize({1, 3})

    def test_sum_product_power(self):
        left = I("x1 + x2", 3)
        right = I("x2 + x3", 3)
        assert left * right == I("x1*x2 + x1*x3 + x2^2 + x2*x3")
        assert I("x1 + x2 + x3") ** 2 == pm.make_ideal(3, pm.monomials_of_degree(3, 2).elems)
        total = I("x1*x2 + x1*x3") + I("x1^2", 3)
        assert total == I("x1*x2 + x1*x3 + x1^2")

    def test_power_zero_is_unit(self):
        assert (I("x1 + x2") ** 0).is_unit

    def test_is_equigenerated(self):
        assert I("x1^2 + x1*x2").is_equigenerated() == 2
        assert I("x1 + x2^2").is_equigenerated() is None
        assert pm.make_ideal(3, pm.monomials_of_degree(3, 2).elems).is_equigenerated() == 2

    def test_unit_ideal_flagged(self):
        assert pm.unit_ideal(3).is_unit
        assert not I("x1", 3).is_unit
