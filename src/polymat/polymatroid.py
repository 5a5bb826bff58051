"""Exchange-property checks for equigenerated monomial ideals.

For same-degree monomials, membership in an equigenerated ideal of that
degree coincides with membership in the generating set itself, so the
candidate swaps below are tested against the generator exponent set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Monomial, MonomialIdeal
from .errors import NotEquigeneratedError


@dataclass(frozen=True)
class ExchangeWitness:
    """A generator pair and 1-based variable index at which exchange fails.

    For the direct form, `variable` is an index where u has strictly more
    copies than v and no compensating swap lands in the ideal; for the
    symmetric form it is an index where v has strictly more copies than u.
    """

    u: Monomial
    v: Monomial
    variable: int

    def to_json_dict(self) -> dict:
        u, v = list(self.u.exponents), list(self.v.exponents)
        return {"u": u, "v": v, "variable": self.variable}


def require_equigenerated(I: MonomialIdeal) -> int:
    d = I.is_equigenerated()
    if d is None:
        raise NotEquigeneratedError(f"not generated in a single degree: {I}")
    return d


def _exchange_scan(I: MonomialIdeal, symmetric: bool) -> ExchangeWitness | None:
    """First ordered generator pair (u, v) and index i where exchange fails.

    With a = u, b = v (direct form) or a = v, b = u (symmetric form), every
    giver i with a[i] > b[i] needs a taker j with a[j] < b[j] such that u
    with x_i and x_j stepped in opposite directions is a generator: x_i
    goes down and x_j up in the direct form, the reverse in the symmetric
    one.  Pairs run in canonical generator order and i, j ascend, so the
    witness is deterministic.
    """
    require_equigenerated(I)
    members = {g.exponents for g in I.gens}
    step = 1 if symmetric else -1
    n = I.n
    for u in I.gens:
        ue = u.exponents
        for v in I.gens:
            if u is v:
                continue
            a, b = (v.exponents, ue) if symmetric else (ue, v.exponents)
            takers = [j for j in range(n) if a[j] < b[j]]
            for i in range(n):
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
                    return ExchangeWitness(u, v, i + 1)
    return None


def exchange_failure(I: MonomialIdeal) -> ExchangeWitness | None:
    """First violation of the exchange property, or None if polymatroidal.

    Checks every ordered generator pair (u, v): whenever u has more copies
    of x_i than v, some variable x_j occurring more often in v must make
    x_j * (u / x_i) a member of the ideal.
    """
    return _exchange_scan(I, symmetric=False)


def is_polymatroidal(I: MonomialIdeal) -> bool:
    return exchange_failure(I) is None


def is_matroidal(I: MonomialIdeal) -> bool:
    """Squarefree and polymatroidal."""
    require_equigenerated(I)
    return all(g.is_squarefree for g in I.gens) and is_polymatroidal(I)


def symmetric_exchange_failure(I: MonomialIdeal) -> ExchangeWitness | None:
    """First violation of the dual exchange form, or None.

    For every ordered pair (u, v) and every i where v has more copies of
    x_i than u, some j with fewer copies in v than in u must make
    x_i * (u / x_j) a member of the ideal.
    """
    return _exchange_scan(I, symmetric=True)


def satisfies_symmetric_exchange(I: MonomialIdeal) -> bool:
    return symmetric_exchange_failure(I) is None
