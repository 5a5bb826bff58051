"""Exchange-property checks for equigenerated monomial ideals.

For same-degree monomials, membership in an equigenerated ideal of that
degree coincides with membership in the generating set itself, so every
candidate swap is a question about one set of exponent vectors.

The checks run on a _Layer: equal-degree exponent vectors, lex-descending,
vector g being bit g of a mask, so that a generating set is a mask S.  A
corpus layer holds every monomial of one degree and each corpus ideal is
one of its masks; a single ideal is the layer of its own generators with
every bit set.  For an ordered pair (u, v) and each giver i, one row holds
the bits of the swaps of u that would repair the exchange at i, and the
pair fails at i exactly when S & row == 0.  Rows are built lazily, per
element and per pair, and live as long as the layer: one suite slice or
one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Sequence

from .core import Monomial, MonomialIdeal, _instance
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
    d = _instance(I, MonomialIdeal, "ideal").is_equigenerated()
    if d is None:
        raise NotEquigeneratedError(f"not generated in a single degree: {I}")
    return d


class _Built(dict):
    """A dict that builds each missing entry from its key, once."""

    def __init__(self, build: Callable) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


def _bits(mask: int) -> list[int]:
    """The set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Layer:
    """Distinct equal-degree exponent vectors in strictly lex-descending
    order, vector g standing for bit g, and the exchange rows over them.

    swaps[g][i][j] is the bit of vector g with x_i stepped down and x_j up,
    0 where that is no vector of the layer.  rows[u, v, symmetric] lists
    (i, row) for the givers i of the pair in ascending order: row holds the
    swaps of u that the exchange at i may use.
    """

    def __init__(self, exps: Sequence[tuple[int, ...]]) -> None:
        self.exps = exps
        self.n = len(exps[0])
        self.index = {e: g for g, e in enumerate(exps)}
        self.swaps = _Built(self._swaps)
        self.rows = _Built(self._rows)

    def _swaps(self, g: int) -> list[list[int]]:
        e, n = self.exps[g], self.n
        table = []
        for i in range(n):
            row = [0] * n
            if e[i]:
                step = list(e)
                step[i] -= 1
                for j in range(n):
                    if j != i:
                        step[j] += 1
                        k = self.index.get(tuple(step))
                        if k is not None:
                            row[j] = 1 << k
                        step[j] -= 1
            table.append(row)
        return table

    def _rows(self, key: tuple[int, int, bool]) -> tuple[tuple[int, int], ...]:
        # with a, b = u, v (direct) or v, u (symmetric), a giver i has a[i] > b[i]
        # and a taker j a[j] < b[j]; the swap steps x_i down and x_j up in u
        # (direct) or x_j down and x_i up (symmetric)
        u, v, symmetric = key
        a, b = (self.exps[v], self.exps[u]) if symmetric else (self.exps[u], self.exps[v])
        swaps = self.swaps[u]
        takers = [j for j in range(self.n) if a[j] < b[j]]
        return tuple(
            (i, reduce(or_, [swaps[j][i] if symmetric else swaps[i][j] for j in takers], 0))
            for i in range(self.n) if a[i] > b[i]
        )

    def exchange_failure(self, S: int, symmetric: bool = False) -> tuple[int, int, int] | None:
        """The first (u, v, i) of bits u != v of S and 0-based giver i at
        which exchange fails, pairs in bit order and i ascending; or None."""
        rows = self.rows
        members = _bits(S)
        for u in members:
            for v in members:
                if u != v:
                    for i, row in rows[u, v, symmetric]:
                        if not S & row:
                            return u, v, i
        return None


def _exchange_witness(I: MonomialIdeal, symmetric: bool) -> ExchangeWitness | None:
    require_equigenerated(I)
    gens = I.gens
    found = _Layer([g.exponents for g in gens]).exchange_failure((1 << len(gens)) - 1, symmetric)
    if found is None:
        return None
    u, v, i = found
    return ExchangeWitness(gens[u], gens[v], i + 1)


def exchange_failure(I: MonomialIdeal) -> ExchangeWitness | None:
    """First violation of the exchange property, or None if polymatroidal.

    Checks every ordered generator pair (u, v), in canonical generator
    order: whenever u has more copies of x_i than v, some variable x_j
    occurring more often in v must make x_j * (u / x_i) a member of the
    ideal.  The first failing i of the first failing pair is reported.
    """
    return _exchange_witness(I, symmetric=False)


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
    return _exchange_witness(I, symmetric=True)


def satisfies_symmetric_exchange(I: MonomialIdeal) -> bool:
    return symmetric_exchange_failure(I) is None
