import itertools
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymat as pm
from conftest import I, M


class TestMonomialsOfDegree:
    def test_n3_d2_order(self):
        got = [str(m) for m in pm.monomials_of_degree(3, 2)]
        assert got == ["x1^2", "x1*x2", "x1*x3", "x2^2", "x2*x3", "x3^2"]

    def test_degree_zero(self):
        assert pm.monomials_of_degree(4, 0).elems == (pm.unit_monomial(4),)

    def test_counts(self):
        for n in range(1, 6):
            for d in range(6):
                assert len(pm.monomials_of_degree(n, d)) == comb(n + d - 1, d)

    def test_sorted_descending(self):
        elems = pm.monomials_of_degree(4, 3).elems
        vecs = [m.exponents for m in elems]
        assert vecs == sorted(vecs, reverse=True)

    def test_matches_brute_force_filter(self):
        for n in range(1, 6):
            for d in range(6):
                vecs = [v for v in itertools.product(range(d + 1), repeat=n) if sum(v) == d]
                got = [m.exponents for m in pm.monomials_of_degree(n, d)]
                assert got == sorted(vecs, reverse=True)


@st.composite
def layer_picks_with_repeats(st_draw):
    """Fresh monomials of one degree in any order, at least one, some of them repeated."""
    n = st_draw(st.integers(1, 4))
    d = st_draw(st.integers(0, 4))
    vecs = [v for v in itertools.product(range(d + 1), repeat=n) if sum(v) == d]
    picks = st_draw(st.lists(st.sampled_from(vecs), min_size=1, max_size=8))
    return n, d, [pm.Monomial(v) for v in picks]


class TestMonomialSetConstruction:
    """MonomialSet(n, d, mons) stores the distinct monomials lex-descending."""

    @given(layer_picks_with_repeats())
    @settings(max_examples=200)
    def test_canonical_form(self, data):
        n, d, mons = data
        T = pm.MonomialSet(n, d, iter(mons))
        assert T.elems == tuple(sorted(set(mons), key=lambda m: m.exponents, reverse=True))
        assert all(any(e is m for m in mons) for e in T.elems)
        assert pm.MonomialSet(n, d, reversed(T.elems)) == T
        with pytest.raises(pm.InvalidArgumentError, match=f"does not have degree {d + 1}"):
            pm.MonomialSet(n, d + 1, mons)
        with pytest.raises(pm.AmbientMismatchError, match=f"differ: {n + 1} vs {n}$"):
            pm.MonomialSet(n + 1, d, mons)

    @pytest.mark.parametrize("mons", [(), iter(()), []])
    def test_refuses_an_empty_set(self, mons):
        # an empty set has no top or bottom to bound a segment or a shadow
        with pytest.raises(pm.EmptyIdealError, match="at least one monomial"):
            pm.MonomialSet(2, 1, mons)

    @pytest.mark.parametrize("entry", [(1, 0), [1, 0], "x1"])
    def test_refuses_a_non_monomial_entry(self, entry):
        with pytest.raises(pm.InvalidArgumentError, match="is not a Monomial"):
            pm.MonomialSet(2, 1, (M("x2", 2), entry))


class TestLexsegment:
    def test_consecutive(self):
        seg = pm.lexsegment(M("x1^2", 3), M("x1*x2", 3))
        assert [str(m) for m in seg] == ["x1^2", "x1*x2"]

    def test_singleton(self):
        u = M("x2*x3", 3)
        assert pm.lexsegment(u, u).elems == (u,)

    def test_interior_element_included(self):
        seg = pm.lexsegment(M("x1^2", 3), M("x1*x3", 3))
        assert [str(m) for m in seg] == ["x1^2", "x1*x2", "x1*x3"]

    def test_whole_layer(self):
        layer = pm.monomials_of_degree(3, 3)
        assert pm.lexsegment(layer.top, layer.bottom).elems == layer.elems

    @pytest.mark.parametrize("n, d", [(2, 4), (3, 3), (4, 2), (3, 4)])
    def test_every_pair_matches_brute_force_filter(self, n, d):
        vecs = sorted((v for v in itertools.product(range(d + 1), repeat=n) if sum(v) == d),
                      reverse=True)
        for i, top in enumerate(vecs):
            for bottom in vecs[i:]:
                got = pm.lexsegment(pm.Monomial(top), pm.Monomial(bottom))
                assert [m.exponents for m in got] == [v for v in vecs if bottom <= v <= top]

    def test_rejects_backwards(self):
        with pytest.raises(ValueError):
            pm.lexsegment(M("x1*x3", 3), M("x1^2", 3))
        with pytest.raises(ValueError):
            pm.lexsegment(M("x1", 3), M("x1^2", 3))


class TestShadow:
    def test_single_monomial(self):
        shad = pm.shadow(pm.MonomialSet(3, 2, [M("x1*x2", 3)]))
        assert [str(m) for m in shad] == ["x1^2*x2", "x1*x2^2", "x1*x2*x3"]

    def test_depth_zero_identity(self):
        seg = pm.lexsegment(M("x1^2", 3), M("x1*x3", 3))
        assert pm.iterated_shadow(seg, 0) is seg

    def test_shadow_of_segment(self):
        shad = pm.shadow(pm.lexsegment(M("x1^2", 3), M("x1*x3", 3)))
        assert shad.elems == pm.lexsegment(M("x1^3", 3), M("x1*x3^2", 3)).elems

    @given(st.integers(0, 20), st.integers(1, 5))
    @settings(max_examples=40)
    def test_shadow_bounds(self, seed, size):
        layer = pm.monomials_of_degree(3, 3).elems
        import random

        picks = random.Random(seed).sample(layer, min(size, len(layer)))
        T = pm.MonomialSet(3, 3, picks)
        shad = pm.shadow(T)
        assert len(shad) <= 3 * len(T)
        layer_up = pm.monomials_of_degree(3, 4)
        assert all(m in layer_up for m in shad)


class TestLexsegmentPredicates:
    def test_gap_is_not_lexsegment(self):
        T = pm.MonomialSet(3, 2, [M("x1^2", 3), M("x1*x3", 3)])
        assert not pm.is_lexsegment(T)

    def test_full_layer_is_lexsegment(self):
        assert pm.is_lexsegment(pm.monomials_of_degree(3, 3))

    def test_completely_lexsegment(self):
        assert pm.is_completely_lexsegment(M("x1^2", 3), M("x1*x3", 3), 4)

    def test_not_completely_lexsegment(self):
        # the shadow of {x1*x2^2, x1*x2*x3} skips x1^2*x3^2's neighborhood
        assert not pm.is_completely_lexsegment(M("x1*x2^2", 3), M("x1*x2*x3", 3))

    def test_pure_power_segment_is_completely_lexsegment(self):
        assert pm.is_completely_lexsegment(M("x1^3", 3), M("x1^3", 3))


class TestFinalSegmentIdeal:
    def test_case_shape(self):
        ideal = pm.final_segment_ideal(M("x1*x3", 3))
        assert ideal == I("x1^2 + x1*x2 + x1*x3")
        assert pm.is_polymatroidal(ideal)

    def test_top_element(self):
        assert pm.final_segment_ideal(M("x1^3", 3)) == I("x1^3", 3)

    def test_bottom_element_gives_whole_layer(self):
        ideal = pm.final_segment_ideal(M("x3^2", 3))
        assert ideal == pm.MonomialIdeal(3, pm.monomials_of_degree(3, 2).elems)

    def test_sum_decomposition_shape(self):
        # x1*(x2,x3) + x1^2 realizes the final segment ending at x1*x3
        x1 = I("x1", 3)
        nn = I("x2 + x3", 3)
        total = x1 * nn + I("x1^2", 3)
        assert total == pm.final_segment_ideal(M("x1*x3", 3))


class TestCriterion:
    def test_top_shape(self):
        assert pm.arnehe_criterion(M("x1*x2", 3), M("x1*x3", 3))

    def test_dropped_first_exponent(self):
        assert pm.arnehe_criterion(M("x1^2", 3), M("x1*x3", 3))

    def test_neither_condition(self):
        assert not pm.arnehe_criterion(M("x1*x2^2", 3), M("x1*x2*x3", 3))

    def test_agrees_with_betti_on_small_range(self):
        for n in (2, 3):
            for d in (1, 2, 3):
                layer = pm.monomials_of_degree(n, d).elems
                for i, u in enumerate(layer):
                    for v in layer[i:]:
                        if not pm.is_completely_lexsegment(u, v):
                            continue
                        ideal = pm.MonomialIdeal(n, pm.lexsegment(u, v).elems)
                        assert pm.arnehe_criterion(u, v) == pm.has_linear_resolution(ideal)
