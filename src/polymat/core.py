"""Exact monomial arithmetic, monomial orders, and monomial ideals.

Variables are named x1..xn.  Exponent vectors are plain integer tuples
indexed from 0, so the exponent of x<i> sits at position i-1; every public
surface (permutations, witnesses, text formats) speaks 1-based variable
indices.  Exponents are arbitrary-precision integers.

MonomialIdeal(n, gens) accepts any non-empty generating set in n variables
and stores the ideal's minimal generators G(I) in canonical order; every
ideal the toolkit builds (sums, products, powers, localizations, parsed
and corpus ideals) goes through that one minimalization.

All values are immutable and hashable and every operation is a pure
function, so they can be shared across worker processes without
coordination.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import AmbientMismatchError, BoundExceededError, EmptyIdealError, InvalidArgumentError


def _check_ambient(n: int, m: int) -> None:
    if n != m:
        raise AmbientMismatchError(f"ambient variable counts differ: {n} vs {m}")


def _integers(entries) -> tuple[int, ...]:
    """The entries as ints; anything without __index__ (a float, a string) is refused."""
    try:
        return tuple(map(operator.index, entries))
    except TypeError:
        raise InvalidArgumentError(f"non-integer entry in {entries!r}") from None


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = _integers(self.exponents)
        if not exps:
            raise InvalidArgumentError("ambient ring needs at least one variable")
        if any(e < 0 for e in exps):
            raise InvalidArgumentError(f"negative exponent in {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based indices of the variables that occur."""
        return tuple(i + 1 for i, e in enumerate(self.exponents) if e)

    @property
    def is_unit(self) -> bool:
        return self.degree == 0

    @property
    def is_squarefree(self) -> bool:
        return all(e <= 1 for e in self.exponents)

    def divides(self, other: Monomial) -> bool:
        _check_ambient(self.n, other.n)
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: Monomial) -> Monomial:
        _check_ambient(self.n, other.n)
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def __str__(self) -> str:
        if self.is_unit:
            return "1"
        parts = []
        for i, e in enumerate(self.exponents):
            if e == 1:
                parts.append(f"x{i + 1}")
            elif e > 1:
                parts.append(f"x{i + 1}^{e}")
        return "*".join(parts)


def unit_monomial(n: int) -> Monomial:
    return Monomial((0,) * n)


def variable_monomial(var: int, n: int) -> Monomial:
    """The monomial x<var> in n variables (var is 1-based)."""
    (var,) = _integers((var,))
    if not 1 <= var <= n:
        raise InvalidArgumentError(f"variable index {var} out of range 1..{n}")
    return Monomial(tuple(1 if i == var - 1 else 0 for i in range(n)))


def monomial_lcm(u: Monomial, v: Monomial) -> Monomial:
    _check_ambient(u.n, v.n)
    return Monomial(tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


def colon_monomial(u: Monomial, v: Monomial) -> Monomial:
    """u : v = u / gcd(u, v), i.e. coordinatewise max(a_i - b_i, 0)."""
    _check_ambient(u.n, v.n)
    return Monomial(tuple(a - b if a > b else 0 for a, b in zip(u.exponents, v.exponents)))


@dataclass(frozen=True)
class VariableOrder:
    """A permutation of {1..n}; perm[0] names the greatest variable."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = _integers(self.perm)
        if not perm or sorted(perm) != list(range(1, len(perm) + 1)):
            raise InvalidArgumentError(f"not a permutation of 1..{len(perm)}: {perm}")
        object.__setattr__(self, "perm", perm)

    @classmethod
    def identity(cls, n: int) -> VariableOrder:
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.perm)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """0-based exponent positions in greatest-to-least scan order."""
        return tuple(p - 1 for p in self.perm)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.perm)


def _check_perm_guard(n: int) -> None:
    """Refuse to enumerate the n! variable orders when n exceeds the guard
    (default 8, overridable via the POLYMAT_MAX_PERMS environment variable)."""
    raw = os.environ.get("POLYMAT_MAX_PERMS", "8")
    try:
        bound = int(raw)
    except ValueError:
        raise InvalidArgumentError(f"POLYMAT_MAX_PERMS={raw!r} is not an integer") from None
    if n > bound:
        raise BoundExceededError(
            f"enumerating {n}! variable orders exceeds the guard of {bound} variables"
        )


def all_variable_orders(n: int) -> Iterator[VariableOrder]:
    """All n! variable orders, in lexicographic order of their permutations;
    the permutation guard is checked at the call, before any is enumerated."""
    _check_perm_guard(n)
    return map(VariableOrder, itertools.permutations(range(1, n + 1)))


def canonical_key(m: Monomial):
    """Graded-lex key for the identity variable order; fixes all canonical sorts."""
    return (m.degree, m.exponents)


@dataclass(frozen=True)
class MonomialIdeal:
    """The monomial ideal that `gens` generates in n variables, stored as
    its unique minimal generating set G(I).

    Construction computes G(I) from any non-empty generating set: repeats
    and multiples of other members are dropped, and the caller's Monomial
    objects are kept in canonical order (decreasing graded-lex under the
    identity variable order), so structural equality is ideal equality.

    A proper divisor has strictly smaller degree, so in ascending degree
    order each exponent vector is tested only against the kept vectors of
    smaller degree; an equigenerated ideal needs no divisibility test.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        try:
            by_exps = {g.exponents: g for g in self.gens}
        except AttributeError as e:
            raise InvalidArgumentError(f"{e.obj!r} is not a Monomial") from None
        if not by_exps:
            raise EmptyIdealError("an ideal needs at least one generator")
        n = self.n
        kept: list[tuple[int, ...]] = []
        degree = lower = 0  # kept[:lower] holds the kept vectors of smaller degree
        for d, e in sorted(zip(map(sum, by_exps), by_exps)):
            if len(e) != n:
                _check_ambient(n, len(e))
            if d != degree:
                degree, lower = d, len(kept)
            if lower and any(all(map(operator.le, k, e)) for k in kept[:lower]):
                continue
            kept.append(e)
        object.__setattr__(self, "gens", tuple(map(by_exps.__getitem__, reversed(kept))))

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and self.gens[0].is_unit

    def is_equigenerated(self) -> int | None:
        """The common generator degree, or None if degrees are mixed.

        The canonical order never lets the degree increase along gens, so
        the first generator has the greatest degree and the last the least;
        all degrees agree exactly when those two do.
        """
        d = self.gens[0].degree
        return d if self.gens[-1].degree == d else None

    def localize(self, off: Iterable[int]) -> MonomialIdeal:
        """Substitute x_i -> 1 for every 1-based index i in `off`, then minimalize.

        A generator whose support misses `off` is passed on as the same object.
        """
        off = set(_integers(off))
        for i in off:
            if not 1 <= i <= self.n:
                raise InvalidArgumentError(f"variable index {i} out of range 1..{self.n}")
        keep = tuple(0 if i + 1 in off else 1 for i in range(self.n))
        zeroed: dict[tuple[int, ...], Monomial] = {}
        for g in self.gens:
            e = tuple(map(operator.mul, g.exponents, keep))
            if e not in zeroed:
                zeroed[e] = g if e == g.exponents else Monomial(e)
        return MonomialIdeal(self.n, zeroed.values())

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        return MonomialIdeal(self.n, self.gens + other.gens)

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        return MonomialIdeal(self.n, [g * h for g in self.gens for h in other.gens])

    def __pow__(self, e: int) -> MonomialIdeal:
        if e < 0:
            raise InvalidArgumentError("exponent must be non-negative")
        result = unit_ideal(self.n)
        for _ in range(e):
            result = result * self
        return result

    def __str__(self) -> str:
        return " + ".join(str(g) for g in self.gens)


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (unit_monomial(n),))

