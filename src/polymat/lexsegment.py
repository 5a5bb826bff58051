"""Degree-d monomial sets, lexsegments, shadows, and segment ideals.

Everything in this module fixes the identity variable order
x1 > x2 > ... > xn; for same-degree monomials that order coincides with
plain tuple comparison of exponent vectors.  MonomialSet(n, d, mons)
computes the canonical form of any monomials of degree d: it drops repeats,
keeping one of the caller's objects for each, and sorts them lex-descending.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, dropwhile, takewhile
from math import comb
from typing import Iterator

from .core import Monomial, MonomialIdeal, _integers, variable_monomial
from .errors import InvalidArgumentError


@dataclass(frozen=True)
class MonomialSet:
    """A non-empty set of monomials of one degree, which the constructor sorts
    lex-descending."""

    n: int
    d: int
    elems: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        for name, least in (("n", 1), ("d", 0)):
            object.__setattr__(self, name, _integers((getattr(self, name),), name, least)[0])
        try:
            by_exps = {m.exponents: m for m in self.elems}
        except AttributeError as e:
            raise InvalidArgumentError(f"{e.obj!r} is not a Monomial") from None
        if not by_exps:
            raise InvalidArgumentError("a monomial set needs at least one monomial")
        for m in by_exps.values():
            if m.n != self.n:
                raise InvalidArgumentError(f"{m} does not live in {self.n} variables")
            if m.degree != self.d:
                raise InvalidArgumentError(f"{m} does not have degree {self.d}")
        descending = sorted(by_exps, reverse=True)
        object.__setattr__(self, "elems", tuple(map(by_exps.__getitem__, descending)))

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.elems)

    @property
    def top(self) -> Monomial:
        return self.elems[0]

    @property
    def bottom(self) -> Monomial:
        return self.elems[-1]


def monomials_of_degree(n: int, d: int) -> MonomialSet:
    """All C(n+d-1, d) monomials of degree d, lex-descending."""
    (n,) = _integers((n,), "n", 1)
    (d,) = _integers((d,), "d", 0)
    # ascending variable multisets give descending exponent vectors: the sort is one pass
    layer = combinations_with_replacement(range(n), d)
    return MonomialSet(n, d, (Monomial(tuple(map(c.count, range(n)))) for c in layer))


def _check_endpoints(u: Monomial, v: Monomial) -> None:
    """Reject a pair that does not bound a lexsegment u >= v of one degree."""
    if u.n != v.n:
        raise InvalidArgumentError(f"{u} and {v} live in different rings")
    if u.degree != v.degree:
        raise InvalidArgumentError(f"{u} and {v} have different degrees")
    if u.exponents < v.exponents:
        raise InvalidArgumentError(f"{u} is lex-smaller than {v}")


def _multiset(m: Monomial) -> tuple[int, ...]:
    """The 0-based variable indices of m, ascending, each repeated by its exponent."""
    return tuple(i for i, e in enumerate(m.exponents) for _ in range(e))


def lexsegment(u: Monomial, v: Monomial) -> MonomialSet:
    """All degree-d monomials w with u >= w >= v in the identity lex order.

    The layer's ascending variable multisets run lex-descending, so the walk
    passes over the multisets before u's without building their monomials
    and stops after v's.
    """
    _check_endpoints(u, v)
    n, d = u.n, u.degree
    top, bottom = _multiset(u), _multiset(v)
    layer = combinations_with_replacement(range(n), d)
    walk = takewhile(bottom.__ge__, dropwhile(top.__gt__, layer))
    return MonomialSet(n, d, (Monomial(tuple(map(c.count, range(n)))) for c in walk))


def shadow(T: MonomialSet) -> MonomialSet:
    """All products of elements of T with single variables, deduplicated."""
    out = (m * variable_monomial(i, T.n) for m in T.elems for i in range(1, T.n + 1))
    return MonomialSet(T.n, T.d + 1, out)


def iterated_shadow(T: MonomialSet, depth: int) -> MonomialSet:
    (depth,) = _integers((depth,), "shadow depth", 0)
    for _ in range(depth):
        T = shadow(T)
    return T


def is_lexsegment(T: MonomialSet) -> bool:
    """Whether T is exactly the lex interval between its top and bottom."""
    return T.elems == lexsegment(T.top, T.bottom).elems


def is_completely_lexsegment(u: Monomial, v: Monomial, bound: int | None = None) -> bool:
    """Whether every iterated shadow of L(u, v) up to `bound` is a lexsegment.

    No finite stopping rule is assumed; the depth defaults to n*d.  Once a
    shadow fills a whole degree layer all later shadows stay full, so the
    scan exits early in that case.
    """
    if bound is None:
        bound = max(1, u.n * u.degree)
    (bound,) = _integers((bound,), "shadow depth bound", 1)
    T = lexsegment(u, v)
    for _ in range(bound):
        T = shadow(T)
        if not is_lexsegment(T):
            return False
        if len(T) == comb(T.n + T.d - 1, T.d):
            return True
    return True


def final_segment_ideal(v: Monomial) -> MonomialIdeal:
    """The ideal generated by all degree-d monomials lex-greater-or-equal to v."""
    d = v.degree
    top = Monomial((d,) + (0,) * (v.n - 1))
    return MonomialIdeal(v.n, lexsegment(top, v).elems)


def arnehe_criterion(u: Monomial, v: Monomial) -> bool:
    """Linear-resolution criterion for completely lexsegment ideals L(u, v).

    True iff either u = x1^a * x2^(d-a) and v = x1^a * xn^(d-a) for some
    0 < a <= d, or v has strictly fewer copies of x1 than u does and
    x2 * (u / x1) >= v in the identity lex order.  The second conjunct only
    bites when v has exactly one copy of x1 fewer than u; dropping it
    admits segments such as L(x1*x3, x2^2) whose lone syzygy sits one
    degree too high.

    The criterion presumes x1 divides u; when it does not, the whole
    segment lives in the subring on the later variables, so leading zero
    coordinates are dropped before evaluating.  Agreement with the graded
    Betti verdict is exhaustively verified for ambients of up to three
    variables (degrees up to five); in wider rings the exact boundary has
    further case structure and this formula is only an upper bound.
    """
    _check_endpoints(u, v)
    ue, ve = u.exponents, v.exponents
    while len(ue) > 1 and ue[0] == 0:
        # v <= u forces v's leading exponent to zero as well
        ue, ve = ue[1:], ve[1:]
    n, d = len(ue), u.degree
    if n == 1:
        return True
    a1 = ue[0]
    shape_u = (a1, d - a1) + (0,) * (n - 2)
    shape_v = (a1,) + (0,) * (n - 2) + (d - a1,)
    if a1 > 0 and ue == shape_u and ve == shape_v:
        return True
    if ve[0] >= a1:
        return False
    swap = (ue[0] - 1, ue[1] + 1) + ue[2:]
    return swap >= ve
