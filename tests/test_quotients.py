import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymat as pm
from conftest import I, M, random_ideal, small_ideals, squarefree_veronese, veronese
from polymat import quotients
from polymat.polymatroid import _Layer

O = pm.VariableOrder


def first_failing_order_brute(ideal, kind):
    """Reference sweep: test every order's sequence, in permutation order."""
    for order in pm.all_variable_orders(ideal.n):
        failure = pm.linear_quotients_failure(pm.sort_generators(ideal, kind, order))
        if failure is not None:
            return order, failure
    return None


def transposed(exponents, u, t):
    """The exponent vector with the entries at u and t swapped."""
    e = list(exponents)
    e[u], e[t] = e[t], e[u]
    return tuple(e)


@st.composite
def symmetric_ideals(draw, max_n=5, max_d=3, max_gens=6):
    """A random generating set closed under one or two random transpositions
    of the variables, so that the search meets twins."""
    n = draw(st.integers(3, max_n))
    d = draw(st.integers(1, max_d))
    basis = [m.exponents for m in pm.monomials_of_degree(n, d)]
    gens = set(draw(st.lists(st.sampled_from(basis), min_size=1, max_size=max_gens)))
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    swaps = draw(st.lists(pair, min_size=1, max_size=2))
    while True:
        images = {transposed(e, u, t) for e in gens for u, t in swaps} - gens
        if not images:
            return pm.MonomialIdeal(n, map(pm.Monomial, gens))
        gens |= images


# Textbook graded orders induced by a variable order, whose perm lists the
# variables greatest first: degree decides, then lex scans from the greatest
# variable down and the larger exponent wins, while revlex scans from the
# least variable up and the smaller exponent wins.
GRADED_KEYS = {
    "lex": lambda m, order: (m.degree, [m.exponents[v - 1] for v in order.perm]),
    "revlex": lambda m, order: (m.degree, [-m.exponents[v - 1] for v in order.perm[::-1]]),
}


def graded_sort(ideal, kind, order):
    """Oracle: the generators, greatest first under the graded key of the kind."""
    key = GRADED_KEYS[kind]
    return tuple(sorted(ideal.gens, key=lambda m: key(m, order), reverse=True))


class TestSortGenerators:
    def test_veronese22_lex(self):
        seq = pm.sort_generators(veronese(2, 2), "lex", O.identity(2))
        assert seq == (M("x1^2", 2), M("x1*x2", 2), M("x2^2", 2))

    def test_veronese22_revlex_agrees(self):
        seq = pm.sort_generators(veronese(2, 2), "revlex", O.identity(2))
        assert seq == (M("x1^2", 2), M("x1*x2", 2), M("x2^2", 2))

    def test_remark_ideal_lex_321(self, remark_ideal):
        # rank by exponent of x3 first, then x2, then x1
        seq = pm.sort_generators(remark_ideal, "lex", O((3, 2, 1)))
        assert seq == (M("x1*x3^2"), M("x2^2*x3"), M("x1*x2*x3"), M("x1^2*x3"))

    def test_requires_equigenerated(self):
        with pytest.raises(pm.NotEquigeneratedError):
            pm.sort_generators(I("x1 + x2^2"), "lex", O.identity(2))

    def test_order_must_match_ambient(self):
        with pytest.raises(pm.AmbientMismatchError, match="variable order 2,1 has 2 variables"):
            pm.sort_generators(I("x1*x3 + x2*x3 + x1*x2"), "lex", O((2, 1)))

    def test_unknown_kind(self, remark_ideal):
        with pytest.raises(pm.InvalidArgumentError, match="deglex"):
            pm.sort_generators(remark_ideal, "deglex", O.identity(3))

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3), (2, 4)])
    def test_matches_the_graded_oracle(self, n, d):
        orders = list(pm.all_variable_orders(n))
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d)):
            for kind in GRADED_KEYS:
                for order in orders:
                    assert pm.sort_generators(item.ideal, kind, order) == graded_sort(
                        item.ideal, kind, order
                    )

    @given(small_ideals(max_n=5, max_d=3, max_gens=12), st.data())
    @settings(max_examples=200)
    def test_matches_the_graded_oracle_on_random_ideals(self, ideal, data):
        order = O(tuple(data.draw(st.permutations(range(1, ideal.n + 1)))))
        for kind in GRADED_KEYS:
            assert pm.sort_generators(ideal, kind, order) == graded_sort(ideal, kind, order)


class TestFreeFormSequences:
    # the sequence checks take any non-empty sequence of monomials in one ring
    CHECKS = (pm.linear_quotients_failure, pm.has_quotients_with_linear_resolution)

    @pytest.mark.parametrize("check", CHECKS)
    def test_empty_sequence_refused(self, check):
        with pytest.raises(pm.EmptyIdealError):
            check(())

    @pytest.mark.parametrize("check", CHECKS)
    def test_mixed_rings_refused(self, check):
        with pytest.raises(pm.AmbientMismatchError):
            check((M("x1*x2", 2), M("x1*x3", 3)))

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("seq", [[(1, 0), (0, 1)], [M("x1", 2), [0, 1]]])
    def test_non_monomial_entry_refused(self, check, seq):
        with pytest.raises(pm.InvalidArgumentError, match="is not a Monomial"):
            check(seq)

    def test_list_equals_sorted_tuple(self, remark_ideal):
        seq = pm.sort_generators(remark_ideal, "lex", O((3, 2, 1)))
        assert pm.linear_quotients_failure(list(seq)) == pm.linear_quotients_failure(seq)

    def test_unit_prefix_colon_counts_as_linear(self):
        # x1 divides x1*x2, so (x1) : x1*x2 is the unit ideal
        assert pm.has_quotients_with_linear_resolution((M("x1", 2), M("x1*x2", 2)))


class TestHasLinearQuotients:
    def test_veronese22_lex(self):
        seq = pm.sort_generators(veronese(2, 2), "lex", O.identity(2))
        assert pm.has_linear_quotients(seq)

    def test_remark_fails_lex_321(self, remark_ideal):
        failure = pm.linear_quotients_failure(
            pm.sort_generators(remark_ideal, "lex", O((3, 2, 1)))
        )
        assert failure is not None
        assert failure.position == 2
        assert failure.blocker == M("x1*x3^2")

    def test_remark_fails_revlex_321(self, remark_ideal):
        failure = pm.linear_quotients_failure(
            pm.sort_generators(remark_ideal, "revlex", O((3, 2, 1)))
        )
        assert failure is not None
        assert failure.position == 2

    def test_remark_holds_identity_lex(self, remark_ideal):
        seq = pm.sort_generators(remark_ideal, "lex", O.identity(3))
        assert pm.has_linear_quotients(seq)

    def test_cross_check_agrees_on_corpus(self):
        # the pairwise colon test against the materialized, minimalized
        # prefix colon ideals
        identity = O.identity(3)
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2)):
            for kind in ("lex", "revlex"):
                seq = pm.sort_generators(item.ideal, kind, identity)
                first_bad = None
                for j in range(1, len(seq)):
                    colons = [pm.colon_monomial(seq[i], seq[j]) for i in range(j)]
                    prefix_colon = pm.MonomialIdeal(item.ideal.n, colons)
                    if any(g.degree != 1 for g in prefix_colon.gens):
                        first_bad = j + 1
                        break
                failure = pm.linear_quotients_failure(seq)
                assert (failure and failure.position) == first_bad, (item.ideal, kind)


class TestAllOrders:
    def test_veronese_all_lex(self):
        assert pm.has_lq_all_orders(veronese(3, 2), "lex")

    def test_remark_first_failing_revlex_perm(self, remark_ideal):
        order, failure = pm.lq_all_orders_failure(remark_ideal, "revlex")
        assert order == O((3, 2, 1))
        assert failure.position == 2

    def test_remark_first_failing_lex_perm(self, remark_ideal):
        order, failure = pm.lq_all_orders_failure(remark_ideal, "lex")
        assert order == O((3, 2, 1))

    def test_disjoint_pairs_fail_immediately(self):
        order, failure = pm.lq_all_orders_failure(I("x1*x2 + x3*x4"), "lex")
        assert order == O((1, 2, 3, 4))
        assert failure.position == 2

    @settings(max_examples=150, deadline=None)
    @given(small_ideals(max_n=5, max_d=3, max_gens=12))
    def test_agrees_with_brute_force_sweep(self, ideal):
        for kind in ("lex", "revlex"):
            assert pm.lq_all_orders_failure(ideal, kind) == first_failing_order_brute(
                ideal, kind
            )

    @pytest.mark.parametrize("n,d,max_removed", [(3, 2, 3), (4, 2, 3), (3, 3, 3), (4, 3, 2)])
    def test_agrees_with_brute_force_on_punctured_veronese(self, n, d, max_removed):
        gens = veronese(n, d).gens
        identity = O.identity(n)
        past_identity = set()
        for r in range(1, max_removed + 1):
            for removed in itertools.combinations(gens, r):
                ideal = pm.MonomialIdeal(n, [g for g in gens if g not in removed])
                for kind in ("lex", "revlex"):
                    expected = first_failing_order_brute(ideal, kind)
                    assert pm.lq_all_orders_failure(ideal, kind) == expected, (ideal, kind)
                    if expected is not None and expected[0] != identity:
                        past_identity.add(kind)
        # the corpus must exercise the search, not only the identity check
        assert past_identity == {"lex", "revlex"}

    def test_agrees_with_brute_force_on_symmetric_ideals(self):
        past_identity = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(symmetric_ideals())
        def check(ideal):
            for kind in ("lex", "revlex"):
                expected = first_failing_order_brute(ideal, kind)
                assert pm.lq_all_orders_failure(ideal, kind) == expected, kind
                if expected is not None and expected[0] != O.identity(ideal.n):
                    past_identity.add(kind)

        check()
        # the twins must prune searches that go on to fail, not only passing ones
        assert past_identity == {"lex", "revlex"}

    @pytest.mark.parametrize("ideal", [veronese(8, 2), squarefree_veronese(8, 3)],
                             ids=["veronese_8_2", "squarefree_veronese_8_3"])
    def test_twins_prune_the_search_to_one_branch(self, ideal, monkeypatch):
        # every variable is a twin of every other, so each node of the search
        # visits one variable: at most n refinements where the n! orders pass
        monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
        refine = quotients._ColonTables.refine
        calls = []

        def counting(tables, partition, t):
            calls.append(t)
            return refine(tables, partition, t)

        monkeypatch.setattr(quotients._ColonTables, "refine", counting)
        for kind in ("lex", "revlex"):
            calls.clear()
            assert pm.lq_all_orders_failure(ideal, kind) is None
            assert 0 < len(calls) <= ideal.n, (kind, calls)

    def test_veronese_eight_variables_under_default_guard(self, monkeypatch):
        monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
        for kind in ("lex", "revlex"):
            assert pm.lq_all_orders_failure(veronese(8, 2), kind) is None

    def test_permutation_guard(self):
        wide = pm.MonomialIdeal(9, pm.monomials_of_degree(9, 1).elems)
        with pytest.raises(pm.BoundExceededError):
            pm.has_lq_all_orders(wide, "lex")
        # an ideal failing at the very first permutation keeps the lifted
        # sweep cheap
        disjoint = I("x1*x2 + x8*x9", 9)
        with pytest.raises(pm.BoundExceededError):
            pm.has_lq_all_orders(disjoint, "lex")
        # the enumerator refuses at the call, before anything is iterated
        with pytest.raises(pm.BoundExceededError):
            pm.all_variable_orders(9)

    def test_permutation_guard_env_override(self, monkeypatch):
        disjoint = I("x1*x2 + x8*x9", 9)
        # the surrounding whitespace that int() takes is kept
        for value in ["9", " 9\n", "\u20039"]:
            monkeypatch.setenv("POLYMAT_MAX_PERMS", value)
            assert not pm.has_lq_all_orders(disjoint, "lex")

    @pytest.mark.parametrize("value", ["abc", "", "8.5", "\u0663", "1_0", "+8"])
    def test_permutation_guard_env_malformed(self, monkeypatch, value):
        monkeypatch.setenv("POLYMAT_MAX_PERMS", value)
        with pytest.raises(pm.InvalidArgumentError, match="POLYMAT_MAX_PERMS"):
            pm.lq_all_orders_failure(I("x1*x2 + x2*x3"), "lex")


def corpus_tables(n, d):
    """The (n, d) layer's monomials and its colon tables of both kinds."""
    monomials = pm.monomials_of_degree(n, d).elems
    layer = _Layer([m.exponents for m in monomials])
    return monomials, {kind: quotients._ColonTables(layer, kind) for kind in ("lex", "revlex")}


def identity_failure(monomials, tables, mask):
    """The tables' test at the identity order as the LQFailure it stands for."""
    found = tables.failure_at(mask, tables.identity)
    return None if found is None else pm.LQFailure(found[0], monomials[found[1]])


@st.composite
def layer_masks(draw, max_n=8, max_d=5, max_gens=12):
    """A random-mode layer, up to (8,5) with 792 monomials, and a mask over it."""
    n = draw(st.integers(1, max_n))
    d = draw(st.integers(1, max_d))
    size = len(pm.monomials_of_degree(n, d))
    bits = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=max_gens, unique=True))
    return n, d, sum(1 << b for b in bits)


class TestMaskTables:
    """The colon tables of a whole corpus layer, read with a mask S."""

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3), (2, 4)])
    def test_identity_test_agrees_with_linear_quotients_failure(self, n, d):
        monomials, tables = corpus_tables(n, d)
        identity = O.identity(n)
        for mask in range(1, 1 << len(monomials)):
            ideal = pm.ideal_from_mask(n, d, mask)
            for kind, kind_tables in tables.items():
                expected = pm.linear_quotients_failure(pm.sort_generators(ideal, kind, identity))
                assert identity_failure(monomials, kind_tables, mask) == expected, (mask, kind)

    @settings(max_examples=150, deadline=None)
    @given(layer_masks())
    def test_identity_test_agrees_on_large_layers(self, case):
        n, d, mask = case
        monomials, tables = corpus_tables(n, d)
        ideal = pm.ideal_from_mask(n, d, mask)
        for kind, kind_tables in tables.items():
            expected = pm.linear_quotients_failure(pm.sort_generators(ideal, kind, O.identity(n)))
            assert identity_failure(monomials, kind_tables, mask) == expected, kind

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3), (2, 4)])
    def test_twin_classes_match_relabeled_ideals(self, n, d):
        # x_u and x_t are twins in S when the transposition (u t) maps the
        # ideal of S onto itself; each variable's class is named by its least
        monomials, tables = corpus_tables(n, d)
        layer = tables["lex"].layer
        for mask in range(1, 1 << len(monomials)):
            ideal = pm.ideal_from_mask(n, d, mask)

            def twins(u, t):
                gens = [pm.Monomial(transposed(g.exponents, u, t)) for g in ideal.gens]
                return pm.MonomialIdeal(n, gens) == ideal

            expected = [next(u for u in range(t + 1) if twins(u, t)) for t in range(n)]
            assert quotients._twin_classes(layer, mask) == expected, mask

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 2), (3, 3)])
    def test_search_agrees_with_brute_force_on_corpora(self, n, d):
        monomials, tables = corpus_tables(n, d)
        past_identity = set()
        for mask in range(1, 1 << len(monomials)):
            ideal = pm.ideal_from_mask(n, d, mask)
            for kind, kind_tables in tables.items():
                expected = first_failing_order_brute(ideal, kind)
                found = kind_tables.first_failure(mask)
                got = found and quotients._lq_witness(found, monomials)
                assert got == expected, (mask, kind)
                if found is not None and found[0] != kind_tables.identity:
                    past_identity.add(kind)
        assert past_identity == {"lex", "revlex"}

    @settings(max_examples=60, deadline=None)
    @given(layer_masks(max_n=5, max_d=4))
    def test_search_agrees_with_brute_force_on_large_layers(self, case):
        n, d, mask = case
        monomials, tables = corpus_tables(n, d)
        ideal = pm.ideal_from_mask(n, d, mask)
        for kind, kind_tables in tables.items():
            found = kind_tables.first_failure(mask)
            got = found and quotients._lq_witness(found, monomials)
            assert got == first_failing_order_brute(ideal, kind), (mask, kind)

    def test_witnesses_past_the_identity_agree_on_4_3_windows(self):
        # the tables' position and blocker at the order the search found are
        # those of the single-sequence check, which builds the ideal
        monomials, tables = corpus_tables(4, 3)
        windows = itertools.chain(range(1, 2001), range((1 << 20) - 2000, 1 << 20))
        past_identity = dict.fromkeys(tables, 0)
        for mask in windows:
            for kind, kind_tables in tables.items():
                found = kind_tables.first_failure(mask)
                if found is None or found[0] == kind_tables.identity:
                    continue
                order, failure = quotients._lq_witness(found, monomials)
                ideal = pm.ideal_from_mask(4, 3, mask)
                expected = pm.linear_quotients_failure(pm.sort_generators(ideal, kind, order))
                assert failure == expected, (mask, kind, order)
                past_identity[kind] += 1
        assert past_identity == {"lex": 372, "revlex": 372}, past_identity


class TestTheoremEquivalence:
    def test_veronese33_consistent_true(self):
        check = pm.theorem_equivalence(veronese(3, 3))
        assert check.consistent and check.polymatroidal

    def test_remark_consistent_false(self, remark_ideal):
        check = pm.theorem_equivalence(remark_ideal)
        assert check.consistent and not check.polymatroidal

    def test_exhaustive_n3_d2(self):
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2)):
            assert pm.theorem_equivalence(item.ideal).consistent, item.ideal


class TestConjectureProbe:
    def test_veronese(self):
        probe = pm.conjecture_probe(veronese(3, 2))
        assert probe.outcome is pm.ConjectureOutcome.POLYMATROIDAL

    def test_refuted(self):
        probe = pm.conjecture_probe(I("x1*x2 + x3*x4"))
        assert probe.outcome is pm.ConjectureOutcome.REFUTED
        assert probe.refuting_order == O((1, 2, 3, 4))

    def test_counterexample_outcome(self, monkeypatch):
        # no known ideal reaches this return, so stand in an all-orders
        # search that finds no failing order on a non-polymatroidal ideal
        ideal = I("x1*x2 + x3*x4")
        monkeypatch.setattr(quotients, "lq_all_orders_failure", lambda I, kind: None)
        probe = pm.conjecture_probe(ideal)
        assert probe.outcome is pm.ConjectureOutcome.COUNTEREXAMPLE
        assert probe.exchange_witness == pm.exchange_failure(ideal)
        assert probe.refuting_order is None and probe.lq_failure is None

    def test_no_counterexamples_small_corpus(self):
        for d in (1, 2):
            for item in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=d)):
                outcome = pm.conjecture_probe(item.ideal).outcome
                assert outcome is not pm.ConjectureOutcome.COUNTEREXAMPLE


def test_polymatroidal_has_lq_both_kinds_all_orders():
    for n, d in ((3, 2), (3, 3), (4, 2)):
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d)):
            if pm.is_polymatroidal(item.ideal):
                assert pm.has_lq_all_orders(item.ideal, "lex"), item.ideal
                assert pm.has_lq_all_orders(item.ideal, "revlex"), item.ideal


# lex quotients with linear resolution hold for five of its six orders, not 3,2,1
MIXED = "x1^2*x2 + x1^2*x3 + x1*x2^2 + x2^3"


@pytest.fixture
def linear_calls(monkeypatch):
    """Every ideal the quotients layer asks has_linear_resolution about."""
    seen = []
    real = quotients.has_linear_resolution
    monkeypatch.setattr(quotients, "has_linear_resolution", lambda J: seen.append(J) or real(J))
    return seen


class TestQuotientsWithLinearResolution:
    def test_remark_all_twelve(self, remark_ideal):
        for kind in ("lex", "revlex"):
            for order in pm.all_variable_orders(3):
                seq = pm.sort_generators(remark_ideal, kind, order)
                assert pm.has_quotients_with_linear_resolution(seq), (kind, order)

    def test_veronese23_principal_colons(self):
        for kind in ("lex", "revlex"):
            for order in pm.all_variable_orders(2):
                seq = pm.sort_generators(veronese(2, 3), kind, order)
                assert pm.has_quotients_with_linear_resolution(seq)

    def test_lq_implies_qwlr_on_corpus(self):
        identity = O.identity(3)
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2)):
            for kind in ("lex", "revlex"):
                seq = pm.sort_generators(item.ideal, kind, identity)
                if pm.has_linear_quotients(seq):
                    assert pm.has_quotients_with_linear_resolution(seq)

    def test_multidegree_colon_blocks(self, linear_calls):
        # (x1^2, x2^2): the colon of the second by the first is x2^2, not
        # linear, but worse: the full ideal has no linear resolution, so the
        # check stops there
        seq = pm.sort_generators(I("x1^2 + x2^2"), "lex", O.identity(2))
        assert not pm.has_quotients_with_linear_resolution(seq)
        assert len(linear_calls) == 1

    def test_by_order_matches_each_sequence(self, remark_ideal):
        rng = random.Random(32)
        cases = [remark_ideal, veronese(4, 2), I(MIXED)]
        for n, d in ((3, 2), (2, 4)):
            cases += [item.ideal for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d))]
        cases += [random_ideal(rng, 4, 3, 10) for _ in range(25)]
        for ideal in cases:
            orders = list(pm.all_variable_orders(ideal.n))
            for kind in ("lex", "revlex"):
                expected = {
                    order: pm.has_quotients_with_linear_resolution(
                        pm.sort_generators(ideal, kind, order))
                    for order in orders
                }
                assert quotients.qwlr_by_order(ideal, kind, orders) == expected, (ideal, kind)
        held = quotients.qwlr_by_order(I(MIXED), "lex", pm.all_variable_orders(3))
        assert [order for order, holds in held.items() if not holds] == [O((3, 2, 1))]

    def test_by_order_checks_each_ideal_once(self, linear_calls):
        held = quotients.qwlr_by_order(veronese(4, 2), "lex", pm.all_variable_orders(4))
        assert len(held) == 24 and all(held.values())
        # every prefix colon is generated by variables: only the ideal is asked
        assert linear_calls == [veronese(4, 2)]
        linear_calls.clear()
        # MIXED: the ideal, then the one prefix colon neither generated by
        # variables nor principal
        quotients.qwlr_by_order(I(MIXED), "lex", pm.all_variable_orders(3))
        assert linear_calls == [I(MIXED), I("x1*x3 + x2", 3)]

    @pytest.mark.parametrize("kind", ["lex", "revlex"])
    @pytest.mark.parametrize("ideal", [pm.remark_ideal(), I(MIXED)], ids=["remark", "mixed"])
    def test_principal_colons_skip_homology(self, ideal, kind, linear_calls):
        # a principal colon, from one predecessor (remark: x1*x3 under lex,
        # x2^2 under revlex) or from several (MIXED revlex 3,2,1: x2^3, x2^2),
        # has a linear resolution without homology
        orders = list(pm.all_variable_orders(3))
        held = quotients.qwlr_by_order(ideal, kind, orders)
        assert linear_calls and all(len(J.gens) > 1 for J in linear_calls), linear_calls
        assert held == {order: pm.has_quotients_with_linear_resolution(
            pm.sort_generators(ideal, kind, order)) for order in orders}

    @pytest.mark.parametrize("kind", ["lex", "revlex"])
    def test_transversal_ideal_asks_homology_once(self, kind, linear_calls):
        factors = ((1, 2), (2, 3, 4), (4, 5, 6, 7))
        ideal = pm.MonomialIdeal(7, [
            pm.Monomial(tuple(sum(t + 1 == v for v in pick) for t in range(7)))
            for pick in itertools.product(*factors)
        ])
        assert len(ideal.gens) == 24
        held = quotients.qwlr_by_order(ideal, kind, pm.all_variable_orders(7))
        assert len(held) == 5040 and all(held.values())
        assert linear_calls == [ideal]

    @pytest.mark.parametrize("orders, error", [
        ([O.identity(2)], pm.AmbientMismatchError),
        ([(1, 2, 3)], pm.InvalidArgumentError),
        ([None, O.identity(3)], pm.InvalidArgumentError),
    ], ids=["wrong size", "tuple", "None"])
    def test_by_order_refuses_before_homology(self, orders, error, linear_calls):
        with pytest.raises(error):
            quotients.qwlr_by_order(pm.remark_ideal(), "lex", orders)
        assert linear_calls == []

    def test_by_order_with_no_orders_asks_nothing(self, linear_calls):
        assert quotients.qwlr_by_order(pm.remark_ideal(), "revlex", []) == {}
        assert linear_calls == []

    def test_memo_hit_builds_no_ideal(self, monkeypatch):
        built = []
        post_init = pm.MonomialIdeal.__post_init__
        monkeypatch.setattr(pm.MonomialIdeal, "__post_init__",
                            lambda J: built.append(J) or post_init(J))
        ideal, orders = I(MIXED), list(pm.all_variable_orders(3))
        built.clear()
        quotients.qwlr_by_order(ideal, "lex", orders)
        # only the two prefix colons that are not generated by variables
        assert len(built) == 2
        built.clear()
        # the second pass over the same orders asks only what the first answered
        quotients.qwlr_by_order(ideal, "lex", orders + orders)
        assert len(built) == 2
