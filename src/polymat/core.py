"""Exact monomial arithmetic, monomial orders, and monomial ideals.

Variables are named x1..xn.  Exponent vectors are plain integer tuples
indexed from 0, so the exponent of x<i> sits at position i-1; every public
surface (permutations, witnesses, text formats) speaks 1-based variable
indices.  Exponents are arbitrary-precision integers.

MonomialIdeal(n, gens) accepts any non-empty generating set in n variables
and stores the ideal's minimal generators G(I) in canonical order; every
ideal the toolkit builds (sums, products, powers, localizations, parsed
and corpus ideals) goes through that one minimalization.
Each public argument, these generators included, passes one of three rules
once per call: _integers, _monomials, and _instance for every other type.
The substitution x_i -> 1 is one rule too, _substituted, for localize and
the corpus localization probe alike.

All values are immutable and hashable and every operation is a pure
function, so they can be shared across worker processes without
coordination.
"""

from __future__ import annotations

import itertools
import operator
import os
import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from .errors import AmbientMismatchError, BoundExceededError, EmptyIdealError, InvalidArgumentError


def _integers(
    entries: Iterable, what: str, least: int | None = None, most: int | None = None
) -> tuple[int, ...]:
    """The entries as exact ints, each within whichever of `least` and `most` is given.

    This is the library's one integer rule, applied once to every public
    integer argument; `what` names the argument in a refusal.  An entry
    passes when it has __index__ and is not a bool: True is an int to
    Python but no count, and a report would write it as true.  An entry
    that already is an exact int costs one type test and one comparison
    per bound given.
    """
    if not hasattr(entries, "__iter__"):
        raise InvalidArgumentError(f"{what} sequence {entries!r} is not iterable")
    values = tuple(entries)
    for v in values:
        if type(v) is not int:
            # convert once, then apply the bounds to the exact ints
            for w in values:
                if isinstance(w, bool) or not hasattr(type(w), "__index__"):
                    raise InvalidArgumentError(f"{what} must be an integer, got non-integer {w!r}")
            return _integers(map(operator.index, values), what, least, most)
        if least is not None and v < least:
            raise InvalidArgumentError(f"{what} must be at least {least}, got {v}")
        if most is not None and v > most:
            raise InvalidArgumentError(f"{what} must be at most {most}, got {v}")
    return values


# ASCII digits with an optional leading minus, amid the whitespace int()
# takes: every whitespace character but the four information separators
_INTEGER_TEXT_RE = re.compile(r"[^\S\x1c-\x1f]*(-?[0-9]+)[^\S\x1c-\x1f]*")


def _integer_text(text: str) -> int | None:
    """The integer that text writes, the one rule for integers read as text
    (the CLI's integer options, POLYMAT_MAX_PERMS and index lists); None for
    other text, such as "1_0", "+3" or other scripts' digits, which int()
    alone would read, and for more digits than int() converts."""
    match = _INTEGER_TEXT_RE.fullmatch(text)
    if match is None:
        return None
    try:
        return int(match[1])
    except ValueError:
        return None


def _instance(value, cls: type, what: str):
    """value, refused unless it is a cls: the library's one type rule, for
    every public ideal, monomial set, corpus spec, variable order, text and
    flag, so a stand-in with the attributes the code reads gets no answer."""
    if not isinstance(value, cls):
        raise InvalidArgumentError(f"{what} {value!r} is not a {cls.__name__}")
    return value


@dataclass(frozen=True)
class Monomial:
    """A monomial given by its exponent vector."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        exps = _integers(self.exponents, "exponent", 0)
        if not exps:
            raise InvalidArgumentError("ambient ring needs at least one variable")
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
        _monomials((self, other), "the operands")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: Monomial) -> Monomial:
        _monomials((self, other), "the operands")
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


def _monomials(entries: Iterable, what: str, n: int | None = None) -> tuple[Monomial, ...]:
    """The entries as a non-empty tuple of Monomials in one ring, of n
    variables when n is given.

    This is the library's one monomial rule, applied once to every public
    monomial argument; `what` names the argument in a refusal.  An entry
    that is no Monomial would skip the integer rule of its exponents.
    """
    if not hasattr(entries, "__iter__"):
        raise InvalidArgumentError(f"{what}: {entries!r} is not a Monomial")
    mons = tuple(entries)
    if not mons:
        raise EmptyIdealError(f"{what} needs at least one monomial")
    for m in mons:
        if not isinstance(m, Monomial):
            raise InvalidArgumentError(f"{what}: {m!r} is not a Monomial")
        if n is None:
            n = len(m.exponents)
        elif len(m.exponents) != n:
            raise AmbientMismatchError(f"ambient variable counts differ: {n} vs {m.n}")
    return mons


def unit_monomial(n: int) -> Monomial:
    (n,) = _integers((n,), "n", 1, sys.maxsize)
    return Monomial((0,) * n)


def variable_monomial(var: int, n: int) -> Monomial:
    """The monomial x<var> in n variables (var is 1-based)."""
    (n,) = _integers((n,), "n", 1, sys.maxsize)
    (var,) = _integers((var,), "variable index", 1, n)
    return Monomial(tuple(1 if i == var - 1 else 0 for i in range(n)))


def monomial_lcm(u: Monomial, v: Monomial) -> Monomial:
    _monomials((u, v), "the operands")
    return Monomial(tuple(max(a, b) for a, b in zip(u.exponents, v.exponents)))


def colon_monomial(u: Monomial, v: Monomial) -> Monomial:
    """u : v = u / gcd(u, v), i.e. coordinatewise max(a_i - b_i, 0)."""
    _monomials((u, v), "the operands")
    return Monomial(tuple(a - b if a > b else 0 for a, b in zip(u.exponents, v.exponents)))


def _substituted(exponents: tuple[int, ...], z: int) -> tuple[int, ...]:
    """The exponents with the entry of x<i+1> zeroed for every set bit i of z:
    the substitution x<i+1> -> 1, the one rule for every localization."""
    return tuple(0 if z >> i & 1 else a for i, a in enumerate(exponents))


@dataclass(frozen=True)
class VariableOrder:
    """A permutation of {1..n}; perm[0] names the greatest variable."""

    perm: tuple[int, ...]

    def __post_init__(self) -> None:
        perm = _integers(self.perm, "permutation entry")
        if not perm or sorted(perm) != list(range(1, len(perm) + 1)):
            raise InvalidArgumentError(f"not a permutation of 1..{len(perm)}: {perm}")
        object.__setattr__(self, "perm", perm)

    @classmethod
    def identity(cls, n: int) -> VariableOrder:
        (n,) = _integers((n,), "n", 1, sys.maxsize)
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
    bound = _integer_text(raw)
    if bound is None:
        raise InvalidArgumentError(f"POLYMAT_MAX_PERMS={raw!r} is not an integer")
    if n > bound:
        raise BoundExceededError(
            f"enumerating {n}! variable orders exceeds the guard of {bound} variables"
        )


def all_variable_orders(n: int) -> Iterator[VariableOrder]:
    """All n! variable orders, in lexicographic order of their permutations;
    the permutation guard is checked at the call, before any is enumerated."""
    (n,) = _integers((n,), "n", 1)
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
    n goes through the integer rule and is stored as an int; gens go
    through the monomial rule.

    A proper divisor has strictly smaller degree, so in ascending degree
    order each exponent vector is tested only against the kept vectors of
    smaller degree; an equigenerated ideal needs no divisibility test.
    """

    n: int
    gens: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        (n,) = _integers((self.n,), "n", 1)
        by_exps = {g.exponents: g for g in _monomials(self.gens, "an ideal", n)}
        kept: list[tuple[int, ...]] = []
        degree = lower = 0  # kept[:lower] holds the kept vectors of smaller degree
        for d, e in sorted(zip(map(sum, by_exps), by_exps)):
            if d != degree:
                degree, lower = d, len(kept)
            if lower and any(all(map(operator.le, k, e)) for k in kept[:lower]):
                continue
            kept.append(e)
        if n is not self.n:  # an exact int, the common case, is kept as given
            object.__setattr__(self, "n", n)
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

        A generator whose support misses `off` is passed on as the same object:
        the constructor drops repeated images, and no other generator's image
        equals it, since G(I) holds no multiple of it.
        """
        z = sum(1 << i - 1 for i in set(_integers(off, "variable index", 1, self.n)))
        images = [(g, _substituted(g.exponents, z)) for g in self.gens]
        return MonomialIdeal(self.n, [g if e == g.exponents else Monomial(e) for g, e in images])

    def __add__(self, other: MonomialIdeal) -> MonomialIdeal:
        return MonomialIdeal(self.n, self.gens + _instance(other, MonomialIdeal, "ideal").gens)

    def __mul__(self, other: MonomialIdeal) -> MonomialIdeal:
        others = _instance(other, MonomialIdeal, "ideal").gens
        return MonomialIdeal(self.n, [g * h for g in self.gens for h in others])

    def __pow__(self, e: int) -> MonomialIdeal:
        (e,) = _integers((e,), "exponent", 0)
        result = unit_ideal(self.n)
        for _ in range(e):
            result = result * self
        return result

    def __str__(self) -> str:
        return " + ".join(str(g) for g in self.gens)


def unit_ideal(n: int) -> MonomialIdeal:
    return MonomialIdeal(n, (unit_monomial(n),))

