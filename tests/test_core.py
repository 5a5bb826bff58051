import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymat as pm
from polymat.core import _integer_text, canonical_key
from conftest import I, M, contains, exponent_tuples, monomial_lists


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


def colon_ideal(ideal, v):
    """The quotient ideal I : v, generated by {g : v for g in G(I)}."""
    return pm.MonomialIdeal(ideal.n, [pm.colon_monomial(g, v) for g in ideal.gens])


class TestOrders:
    """Known answers of the induced orders, read off sort_generators."""

    @staticmethod
    def ordered(kind, order, *texts, n=3):
        return pm.sort_generators(pm.MonomialIdeal(n, [M(t, n) for t in texts]), kind, order)

    def test_lex_identity_first_position_wins(self):
        order = pm.VariableOrder.identity(3)
        assert self.ordered("lex", order, "x2^2", "x1*x2") == (M("x1*x2", 3), M("x2^2", 3))

    def test_lex_permuted_scan(self):
        # under x3 > x2 > x1 the first difference is at x2: 1 < 2
        order = pm.VariableOrder((3, 2, 1))
        assert self.ordered("lex", order, "x1*x2", "x2^2") == (M("x2^2", 3), M("x1*x2", 3))

    def test_revlex_fewest_least_variable_wins(self):
        # scanning from the least variable x1 up: x2^2 has no x1 at all
        order = pm.VariableOrder((3, 2, 1))
        assert self.ordered("revlex", order, "x1*x3", "x2^2") == (M("x2^2", 3), M("x1*x3", 3))

    def test_revlex_identity(self):
        order = pm.VariableOrder.identity(3)
        assert self.ordered("revlex", order, "x1*x3", "x1*x2") == (M("x1*x2", 3), M("x1*x3", 3))

    @pytest.mark.parametrize("perm", [(2, 1), (2, 1, 4, 3)])
    def test_order_from_another_ring_refused(self, perm):
        for kind in ("lex", "revlex"):
            with pytest.raises(pm.AmbientMismatchError):
                self.ordered(kind, pm.VariableOrder(perm), "x1*x2^2*x3^3")

    def test_two_variable_degeneracy(self):
        # in two variables lex and revlex agree on same-degree monomials
        for d in range(7):
            layer = pm.MonomialIdeal(2, pm.monomials_of_degree(2, d).elems)
            for order in pm.all_variable_orders(2):
                assert pm.sort_generators(layer, "lex", order) == pm.sort_generators(
                    layer, "revlex", order
                )


def brute_force_minimal_gens(mons):
    """Oracle: keep m iff no other distinct member divides it, in canonical order."""
    distinct = set(mons)
    kept = [m for m in distinct if not any(k != m and k.divides(m) for k in distinct)]
    return tuple(sorted(kept, key=canonical_key, reverse=True))


@st.composite
def generating_lists(st_draw):
    """Monomials of mixed degree in which some members repeat."""
    n, mons = st_draw(monomial_lists(max_len=7))
    repeats = st_draw(st.lists(st.sampled_from(mons), max_size=3))
    return n, st_draw(st.permutations(mons + repeats))


class TestMakeIdeal:
    """MonomialIdeal(n, gens) is the ideal any generating set generates."""

    @given(generating_lists())
    @settings(max_examples=200)
    def test_matches_brute_force_oracle(self, data):
        n, mons = data
        ideal = pm.MonomialIdeal(n, mons)
        assert ideal.gens == brute_force_minimal_gens(mons)
        assert pm.MonomialIdeal(ideal.n, ideal.gens) == ideal

    def test_divisible_generator_dropped(self):
        ideal = pm.MonomialIdeal(2, [M("x1^2", 2), M("x1*x2", 2), M("x2", 2)])
        assert ideal == I("x1^2 + x2")

    def test_singleton(self):
        assert pm.MonomialIdeal(2, [M("x1*x2", 2)]).gens == (M("x1*x2", 2),)

    def test_empty_raises(self):
        with pytest.raises(pm.EmptyIdealError):
            pm.MonomialIdeal(2, [])

    def test_equal_degree_antichain_kept(self):
        mons = pm.monomials_of_degree(3, 2).elems
        assert pm.MonomialIdeal(3, mons).gens == mons

    @given(monomial_lists())
    @settings(max_examples=60)
    def test_idempotent_and_order_insensitive(self, data):
        n, mons = data
        ideal = pm.MonomialIdeal(n, mons)
        rng = random.Random(42)
        shuffled = list(mons)
        rng.shuffle(shuffled)
        assert pm.MonomialIdeal(n, shuffled) == ideal
        assert pm.MonomialIdeal(n, ideal.gens) == ideal

    def test_direct_construction_validates(self):
        non_minimal = pm.MonomialIdeal(2, (M("x1*x2", 2), M("x1", 2)))
        assert non_minimal.gens == (M("x1", 2),)
        wrong_order = pm.MonomialIdeal(2, (M("x2", 2), M("x1", 2)))
        assert wrong_order.gens == (M("x1", 2), M("x2", 2))
        with pytest.raises(pm.AmbientMismatchError):
            pm.MonomialIdeal(3, (M("x1*x2", 3), M("x1", 2)))

    def test_keeps_the_callers_monomials(self):
        # G(I) is a subset of the given objects, and localize passes every
        # generator its substitution leaves alone through unchanged
        mons = [M("x2^2", 4), M("x1^2*x3", 4), M("x3*x4", 4), M("x1^2", 4), M("x2^2", 4)]
        ideal = pm.MonomialIdeal(4, mons)
        assert ideal.gens == (M("x1^2", 4), M("x2^2", 4), M("x3*x4", 4))
        assert all(any(g is m for m in mons) for g in ideal.gens)
        local = ideal.localize({4})
        assert local.gens == (M("x1^2", 4), M("x2^2", 4), M("x3", 4))
        assert local.gens[0] is ideal.gens[0] and local.gens[1] is ideal.gens[1]


class TestConstructorEntries:
    class Two:
        def __index__(self):
            return 2

    @pytest.mark.parametrize("entries", [(1.9, 0), ("2", 1), (), (1, -1), (True, 0), (2, False)])
    def test_monomial_refuses(self, entries):
        with pytest.raises(pm.InvalidArgumentError):
            pm.Monomial(entries)

    def test_monomial_accepts_index_objects(self):
        m = pm.Monomial((self.Two(), 1))
        assert m.exponents == (2, 1)
        assert type(m.exponents[0]) is int and type(m.exponents[1]) is int

    @pytest.mark.parametrize("perm", [(2.7, 1), ("2", "1"), (), (1, 1)])
    def test_variable_order_refuses(self, perm):
        with pytest.raises(pm.InvalidArgumentError):
            pm.VariableOrder(perm)

    def test_variable_order_accepts_index_objects(self):
        assert pm.VariableOrder((self.Two(), 1)).perm == (2, 1)

    @pytest.mark.parametrize("var", [1.5, "1", None])
    def test_variable_monomial_refuses_a_non_integer_index(self, var):
        with pytest.raises(pm.InvalidArgumentError, match="non-integer"):
            pm.variable_monomial(var, 2)

    def test_variable_monomial_accepts_index_objects(self):
        assert pm.variable_monomial(self.Two(), 2) == M("x2", 2)

    @pytest.mark.parametrize("entry", [(1, 0), [1, 0], "x1"])
    def test_ideal_refuses_a_non_monomial_entry(self, entry):
        with pytest.raises(pm.InvalidArgumentError, match="is not a Monomial"):
            pm.MonomialIdeal(2, iter([M("x2", 2), entry]))


class TestIntegerText:
    def test_surrounding_whitespace_is_what_int_takes(self):
        for w in filter(str.isspace, map(chr, range(0x110000))):
            try:
                expected = int(f"{w}-12{w}")
            except ValueError:
                expected = None
            assert _integer_text(f"{w}-12{w}") == expected, hex(ord(w))

    @pytest.mark.parametrize("text", ["\u0663", "1_0", "+1", "--1", "1 2", "0x1", "", "9" * 5000])
    def test_refuses_text_int_would_read_or_no_integer(self, text):
        assert _integer_text(text) is None


class TestIdealOperations:
    def test_contains_remark_swap_candidate(self):
        ideal = I("x1*x3^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3")
        assert not contains(ideal, M("x2*x3^2", 3))

    def test_contains_generators(self):
        ideal = I("x1*x3^2 + x2^2*x3")
        for g in ideal.gens:
            assert contains(ideal, g)

    def test_contains_multiple(self):
        assert contains(I("x1", 2), M("x1^5*x2", 2))

    def test_colon_ideal_minimalizes(self):
        assert colon_ideal(I("x1^2 + x1*x2"), M("x2", 2)) == I("x1", 2)

    def test_colon_by_unit(self):
        ideal = I("x1*x2 + x2^2*x3")
        assert colon_ideal(ideal, pm.unit_monomial(3)) == ideal

    def test_colon_collapses_to_principal(self):
        # generator-wise colons are x1*x3, x1^2, x1; minimalizing leaves x1
        ideal = I("x1*x3^2 + x1^2*x3 + x1*x2*x3")
        assert colon_ideal(ideal, M("x2^2*x3", 3)) == I("x1", 3)

    @given(monomial_lists(max_len=5))
    @settings(max_examples=60)
    def test_colon_ideal_contains_generator_colons(self, data):
        n, mons = data
        ideal = pm.MonomialIdeal(n, mons)
        v = mons[0]
        quotient = colon_ideal(ideal, v)
        for g in ideal.gens:
            assert contains(quotient, pm.colon_monomial(g, v))

    def test_localize_absorbs(self):
        assert I("x1^2 + x1*x2 + x2*x3").localize({3}) == I("x1^2 + x2", 3)

    def test_localize_nothing(self):
        ideal = I("x1^2 + x2*x3")
        assert ideal.localize(set()) == ideal

    def test_localize_everything_gives_unit(self):
        result = I("x1*x2 + x2^2", 2).localize({1, 2})
        assert result.is_unit

    def test_localize_rejects_out_of_range(self):
        for off in ({0}, {4}, {1, 4}):
            with pytest.raises(pm.InvalidArgumentError):
                I("x1^2 + x2*x3").localize(off)

    @pytest.mark.parametrize("off", [[1.5], ["1"], [1, 2.0]])
    def test_localize_refuses_a_non_integer_index(self, off):
        with pytest.raises(pm.InvalidArgumentError, match="non-integer"):
            I("x1*x2 + x2*x3").localize(off)

    @given(generating_lists(), st.data())
    @settings(max_examples=150)
    def test_localize_matches_substitution_oracle(self, data, draws):
        # every set of variables, the empty one and all of them included, given
        # as a list in any order that may repeat indices: substitute into every
        # Monomial, then minimalize by brute force
        n, mons = data
        ideal = pm.MonomialIdeal(n, mons)
        for bits in range(1 << n):
            off = {t + 1 for t in range(n) if bits >> t & 1}
            repeats = draws.draw(st.lists(st.sampled_from(sorted(off)), max_size=3)) if off else []
            local = ideal.localize(draws.draw(st.permutations(sorted(off) + repeats)))
            substituted = [
                pm.Monomial(tuple(0 if t + 1 in off else e for t, e in enumerate(g.exponents)))
                for g in ideal.gens
            ]
            assert local.gens == brute_force_minimal_gens(substituted)
            # a generator the substitution leaves alone is passed on as itself
            untouched = {g: g for g in ideal.gens if off.isdisjoint(g.support)}
            assert all(g is untouched[g] for g in local.gens if g in untouched)

    def test_localize_composes(self):
        ideal = I("x1^2*x2 + x2*x3^2 + x1*x3*x4", 4)
        assert ideal.localize({1}).localize({3}) == ideal.localize({1, 3})

    def test_sum_product_power(self):
        left = I("x1 + x2", 3)
        right = I("x2 + x3", 3)
        assert left * right == I("x1*x2 + x1*x3 + x2^2 + x2*x3")
        assert I("x1 + x2 + x3") ** 2 == pm.MonomialIdeal(3, pm.monomials_of_degree(3, 2).elems)
        total = I("x1*x2 + x1*x3") + I("x1^2", 3)
        assert total == I("x1*x2 + x1*x3 + x1^2")

    def test_power_zero_is_unit(self):
        assert (I("x1 + x2") ** 0).is_unit

    def test_is_equigenerated(self):
        assert I("x1^2 + x1*x2").is_equigenerated() == 2
        assert I("x1 + x2^2").is_equigenerated() is None
        assert pm.MonomialIdeal(3, pm.monomials_of_degree(3, 2).elems).is_equigenerated() == 2

    @given(monomial_lists())
    def test_is_equigenerated_agrees_with_every_degree(self, data):
        # it reads only the first and last generator, so check it against all of them
        n, mons = data
        ideal = pm.MonomialIdeal(n, mons)
        degrees = {g.degree for g in ideal.gens}
        assert ideal.is_equigenerated() == (min(degrees) if len(degrees) == 1 else None)

    def test_unit_ideal_flagged(self):
        assert pm.unit_ideal(3).is_unit
        assert not I("x1", 3).is_unit
