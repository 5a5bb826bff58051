import itertools
import random
import signal
import sys

import pytest
from hypothesis import strategies as st

import polymat as pm

# a wall-clock limit per test, far above the slowest test (a few seconds),
# so that a looping regression fails its test instead of stalling the run;
# pool workers forked by a suite do not inherit the interval timer
TEST_TIME_LIMIT = 120.0


class TimeLimitExceeded(BaseException):
    """A BaseException, so that neither an `except Exception` in the code under
    test nor hypothesis, which would replay a failing example, catches it."""


def _expired(signum, frame):
    raise TimeLimitExceeded(f"test exceeded the {TEST_TIME_LIMIT:.0f} s wall-clock limit")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def digit_limit():
    """The interpreter's default limit of 4300 digits on int-to-str conversion,
    whatever the environment sets; a mask of more bits cannot be rendered."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


def M(text, n=None):
    return pm.parse_monomial(text, n)


def I(text, n=None):
    return pm.parse_ideal(text, n)


def contains(ideal, m):
    """Monomial membership: some minimal generator divides m."""
    return any(g.divides(m) for g in ideal.gens)


def veronese(n, d):
    return pm.MonomialIdeal(n, pm.monomials_of_degree(n, d).elems)


def squarefree_veronese(n: int, k: int) -> pm.MonomialIdeal:
    """The ideal of all squarefree monomials of degree k in n variables."""
    return pm.MonomialIdeal(n, [
        pm.Monomial(tuple(int(t in support) for t in range(n)))
        for support in itertools.combinations(range(n), k)
    ])


def random_ideal(rng: random.Random, n: int, d: int, max_gens: int) -> pm.MonomialIdeal:
    basis = pm.monomials_of_degree(n, d).elems
    m = rng.randint(1, min(max_gens, len(basis)))
    return pm.MonomialIdeal(n, rng.sample(basis, m))


@st.composite
def exponent_tuples(st_draw, n=None, max_exp=4):
    if n is None:
        n = st_draw(st.integers(1, 4))
    return tuple(st_draw(st.lists(st.integers(0, max_exp), min_size=n, max_size=n)))


@st.composite
def monomial_lists(st_draw, max_len=8, max_exp=3):
    n = st_draw(st.integers(1, 4))
    vecs = st_draw(
        st.lists(
            st.lists(st.integers(0, max_exp), min_size=n, max_size=n),
            min_size=1,
            max_size=max_len,
        )
    )
    return n, [pm.Monomial(tuple(v)) for v in vecs]


@st.composite
def small_ideals(st_draw, max_n=4, max_d=3, max_gens=6):
    n = st_draw(st.integers(1, max_n))
    d = st_draw(st.integers(1, max_d))
    basis = pm.monomials_of_degree(n, d).elems
    size = st_draw(st.integers(1, min(max_gens, len(basis))))
    picks = st_draw(st.permutations(range(len(basis))))
    return pm.MonomialIdeal(n, [basis[i] for i in picks[:size]])


@pytest.fixture
def remark_ideal():
    return pm.remark_ideal()
