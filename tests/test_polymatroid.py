import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polymat as pm
from conftest import I, M, contains, veronese
from polymat.polymatroid import _Layer


def _exchange_scan(I, symmetric):
    """Oracle: the exchange scan on exponent tuples, which the mask kernel
    replaced.  The first ordered generator pair (u, v) in canonical order
    and the first i at which exchange fails: with a = u, b = v (direct) or
    a = v, b = u (symmetric), every giver i with a[i] > b[i] needs a taker
    j with a[j] < b[j] such that u with x_i and x_j stepped in opposite
    directions is a generator: x_i down and x_j up in the direct form, the
    reverse in the symmetric one."""
    members = {g.exponents for g in I.gens}
    step = 1 if symmetric else -1
    for u in I.gens:
        ue = u.exponents
        for v in I.gens:
            if u is v:
                continue
            a, b = (v.exponents, ue) if symmetric else (ue, v.exponents)
            takers = [j for j in range(I.n) if a[j] < b[j]]
            for i in range(I.n):
                if a[i] <= b[i]:
                    continue
                swapped = list(ue)
                swapped[i] += step
                for j in takers:
                    swapped[j] -= step
                    if tuple(swapped) in members:
                        break
                    swapped[j] += step
                else:
                    return pm.ExchangeWitness(u, v, i + 1)
    return None


def layer_of(n, d):
    monomials = pm.monomials_of_degree(n, d).elems
    return monomials, _Layer([m.exponents for m in monomials])


def mask_witness(monomials, layer, mask, symmetric):
    """The mask kernel's answer as a witness over the layer's monomials."""
    found = layer.exchange_failure(mask, symmetric)
    if found is None:
        return None
    u, v, i = found
    return pm.ExchangeWitness(monomials[u], monomials[v], i + 1)


CHECKS = {False: pm.exchange_failure, True: pm.symmetric_exchange_failure}


@pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("symmetric", [False, True])
def test_mask_kernel_agrees_with_the_tuple_scanner(n, d, symmetric):
    # on a corpus layer and, through the public checks, on each ideal's own generators
    monomials, layer = layer_of(n, d)
    failing = 0
    for mask in range(1, 1 << len(monomials)):
        ideal = pm.ideal_from_mask(n, d, mask)
        expected = _exchange_scan(ideal, symmetric)
        assert mask_witness(monomials, layer, mask, symmetric) == expected, mask
        assert CHECKS[symmetric](ideal) == expected, mask
        failing += expected is not None
    assert 0 < failing < (1 << len(monomials)) - 1


@st.composite
def layer_masks(draw):
    """A random-mode layer up to (8,5), 792 monomials, and a mask over it."""
    n = draw(st.integers(1, 8))
    d = draw(st.integers(1, 5))
    size = len(pm.monomials_of_degree(n, d))
    bits = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=12, unique=True))
    return n, d, sum(1 << b for b in bits)


@given(layer_masks(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_mask_kernel_agrees_with_the_tuple_scanner_on_large_layers(case, symmetric):
    n, d, mask = case
    monomials, layer = layer_of(n, d)
    expected = _exchange_scan(pm.ideal_from_mask(n, d, mask), symmetric)
    assert mask_witness(monomials, layer, mask, symmetric) == expected


class TestIsPolymatroidal:
    def test_veronese(self):
        for n, d in [(2, 3), (3, 2), (4, 2)]:
            assert pm.is_polymatroidal(veronese(n, d))

    def test_remark_ideal_fails_with_witness(self, remark_ideal):
        witness = pm.exchange_failure(remark_ideal)
        assert witness is not None
        assert witness.u == M("x1*x3^2")
        assert witness.v == M("x2^2*x3")
        assert witness.variable == 1
        # the only deficient variable is x2 and x2*x3^2 is not in the ideal
        assert not contains(remark_ideal, M("x2*x3^2", 3))

    def test_product_of_variable_ideals(self):
        assert pm.is_polymatroidal(I("x1*x2 + x1*x3 + x2^2 + x2*x3"))

    def test_requires_equigenerated(self):
        with pytest.raises(pm.NotEquigeneratedError):
            pm.is_polymatroidal(I("x1 + x2^2"))


class TestIsMatroidal:
    def test_uniform_matroid(self):
        assert pm.is_matroidal(I("x1*x2 + x1*x3 + x2*x3"))

    def test_non_squarefree(self):
        assert not pm.is_matroidal(I("x1^2 + x1*x2"))

    def test_exchange_fails(self):
        assert not pm.is_matroidal(I("x1*x2 + x3*x4"))


class TestSymmetricExchange:
    def test_veronese(self):
        assert pm.satisfies_symmetric_exchange(veronese(3, 2))

    def test_remark_ideal_fails(self, remark_ideal):
        # for u=x2^2*x3, v=x1*x3^2 and i=3 the only swap x3*(u/x2) leaves the ideal
        witness = pm.symmetric_exchange_failure(remark_ideal)
        assert witness is not None
        assert not pm.satisfies_symmetric_exchange(remark_ideal)

    def test_product_ideal(self):
        assert pm.satisfies_symmetric_exchange(I("x1*x2 + x1*x3 + x2^2 + x2*x3"))


def _corpus(n, d):
    return [item.ideal for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d))]


def test_polymatroidal_implies_symmetric_exchange_on_corpus():
    for d in (1, 2, 3):
        for ideal in _corpus(3, d):
            if pm.is_polymatroidal(ideal):
                assert pm.satisfies_symmetric_exchange(ideal), ideal


def test_pure_colon_exchange_on_corpus():
    # ideals with lex linear quotients for every variable ordering: whenever
    # a generator colon u : v is a pure power of x1, some variable more
    # frequent in v completes the swap (u / x1) * x_i inside the ideal
    for d in (2, 3):
        for ideal in _corpus(3, d):
            if not pm.has_lq_all_orders(ideal, "lex"):
                continue
            for u, v in itertools.permutations(ideal.gens, 2):
                colon = pm.colon_monomial(u, v)
                if colon.support != (1,):
                    continue
                swapped = [
                    pm.Monomial(
                        tuple(
                            e - 1 if t == 0 else (e + 1 if t == i else e)
                            for t, e in enumerate(u.exponents)
                        )
                    )
                    for i in range(1, 3)
                    if v.exponents[i] > u.exponents[i]
                ]
                assert any(contains(ideal, w) for w in swapped), (ideal, u, v)


def test_pure_colon_exchange_needs_every_ordering():
    # linear quotients under the identity order alone do not force the
    # pure-colon swap: this ideal passes identity-order lex quotients but
    # u = x1^2*x3, v = x2^2*x3 admit no swap, and the ordering x3 > x1 > x2
    # is the one that breaks
    ideal = I("x1^2*x2 + x1^2*x3 + x1*x2^2 + x2^2*x3")
    identity_seq = pm.sort_generators(ideal, "lex", pm.VariableOrder.identity(3))
    assert pm.has_linear_quotients(identity_seq)
    assert not contains(ideal, M("x1*x2*x3", 3))  # the only candidate swap for (u, v)
    order, _ = pm.lq_all_orders_failure(ideal, "lex")
    assert order == pm.VariableOrder((3, 1, 2))
    assert not pm.is_polymatroidal(ideal)


def test_localization_of_polymatroidal_stays_polymatroidal():
    for d in (2, 3):
        for ideal in _corpus(3, d):
            if not pm.is_polymatroidal(ideal):
                continue
            for r in range(1, 3):
                for off in itertools.combinations(range(1, 4), r):
                    localized = ideal.localize(off)
                    if localized.is_unit:
                        continue
                    assert pm.is_polymatroidal(localized), (ideal, off)


def test_invariant_under_variable_permutation():
    ideals = [
        I("x1*x3^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3"),
        I("x1*x2 + x1*x3 + x2^2 + x2*x3"),
        veronese(3, 2),
        I("x1^2 + x2^2", 2),
    ]
    for ideal in ideals:
        expected = pm.is_polymatroidal(ideal)
        for perm in itertools.permutations(range(ideal.n)):
            relabeled = pm.MonomialIdeal(
                ideal.n,
                [pm.Monomial(tuple(g.exponents[p] for p in perm)) for g in ideal.gens],
            )
            assert pm.is_polymatroidal(relabeled) == expected


def test_membership_equals_generator_set_for_swaps():
    # equigenerated degree-d membership of a degree-d monomial is exactly
    # membership in the generating set; spot-check the candidate swaps
    for ideal in _corpus(3, 2):
        members = {g.exponents for g in ideal.gens}
        for u in ideal.gens:
            for i in range(3):
                if u.exponents[i] == 0:
                    continue
                for j in range(3):
                    if i == j:
                        continue
                    swapped = list(u.exponents)
                    swapped[i] -= 1
                    swapped[j] += 1
                    candidate = pm.Monomial(tuple(swapped))
                    assert (candidate.exponents in members) == contains(ideal, candidate)


def rank_function_oracle(ideal) -> bool:
    """Polymatroidality without the exchange scan (Herzog-Hibi, Discrete
    polymatroids, 2002): with rho(A) = max over generators u of the sum of
    u_t over t in A, G(I) of degree d is polymatroidal iff rho is
    submodular and the degree-d points x with x(A) <= rho(A) for every
    subset A of the variables are exactly G(I)."""
    n, d = ideal.n, ideal.is_equigenerated()
    gens = {g.exponents for g in ideal.gens}
    subsets = range(1 << n)

    def weight(x, A):
        return sum(x[t] for t in range(n) if A >> t & 1)

    rho = [max(weight(u, A) for u in gens) for A in subsets]
    if any(rho[A | B] + rho[A & B] > rho[A] + rho[B] for A in subsets for B in subsets):
        return False
    points = (x for x in itertools.product(range(d + 1), repeat=n) if sum(x) == d)
    return {x for x in points if all(weight(x, A) <= rho[A] for A in subsets)} == gens


@pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (3, 3), (2, 4)])
def test_exchange_scan_agrees_with_rank_function_oracle(n, d):
    verdicts = [
        (pm.exchange_failure(ideal) is None, rank_function_oracle(ideal))
        for ideal in _corpus(n, d)
    ]
    assert all(scan == oracle for scan, oracle in verdicts)
    assert 0 < sum(oracle for _, oracle in verdicts) < len(verdicts)


def test_checks_leave_the_ideal_as_they_found_it(remark_ideal):
    # a corpus ideal stays alive for the whole suite run, so no check may
    # hang state on it
    for ideal in (remark_ideal, veronese(3, 2)):
        before = pickle.dumps(ideal)
        pm.exchange_failure(ideal)
        for kind in ("lex", "revlex"):
            pm.lq_all_orders_failure(ideal, kind)
        pm.has_linear_resolution(ideal)
        assert set(vars(ideal)) == {"n", "gens"}
        assert pickle.dumps(ideal) == before
