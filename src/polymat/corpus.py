"""Corpus enumeration: exhaustive and seeded-random families of ideals.

Every non-empty subset of the degree-d monomials is a minimal generating
set (equal-degree monomials never divide one another), so corpora are
represented as bitmasks over the lex-descending list of degree-d
monomials.  Exhaustive corpora run masks in ascending order; random
corpora draw distinct m-subsets from a seeded generator.  Both are fully
reproducible from the corpus parameters.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Iterator

from .core import Monomial, MonomialIdeal, _integers, all_variable_orders
from .errors import BoundExceededError, InvalidArgumentError
from .lexsegment import monomials_of_degree

EXHAUSTIVE_BASIS_LIMIT = 20


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one corpus; (spec, seed) determines the stream exactly.

    dedupe_isomorphic keeps only the smallest-mask representative of each
    orbit under variable permutations, in exhaustive mode only.  It is off
    by default: the checked statements quantify over plain ideals and the
    documented exhaustive counts are the unreduced ones.
    """

    n: int
    d: int
    mode: str = "exhaustive"
    m: int | None = None
    count: int | None = None
    seed: int = 0
    start_mask: int = 1
    dedupe_isomorphic: bool = False

    def __post_init__(self) -> None:
        for name, least in (("n", 1), ("d", 0), ("m", 1), ("count", 1), ("seed", None),
                            ("start_mask", 1)):
            value = getattr(self, name)
            if value is not None or name not in ("m", "count"):
                object.__setattr__(self, name, _integers((value,), name, least)[0])
        # a truthy string such as "no" would otherwise switch the dedupe on
        if not isinstance(self.dedupe_isomorphic, bool):
            raise InvalidArgumentError(f"dedupe flag {self.dedupe_isomorphic!r} is not a bool")
        if self.mode not in ("exhaustive", "random"):
            raise InvalidArgumentError(f"unknown corpus mode {self.mode!r}")
        basis = comb(self.n + self.d - 1, self.d)
        # a parameter the mode ignores would leave a report for another corpus than asked
        if self.mode == "exhaustive":
            if self.m is not None or self.count is not None or self.seed != 0:
                raise InvalidArgumentError("m, count and seed apply only to random mode")
            if basis > EXHAUSTIVE_BASIS_LIMIT:
                raise BoundExceededError(
                    f"exhaustive mode needs at most {EXHAUSTIVE_BASIS_LIMIT} degree-{self.d} "
                    f"monomials, but n={self.n}, d={self.d} has {basis}"
                )
            # the corpus runs the masks start_mask .. 2^basis - 1
            _integers((self.start_mask,), "start_mask", 1, (1 << basis) - 1)
        else:
            if self.start_mask != 1:
                raise InvalidArgumentError("a start mask applies only to exhaustive mode")
            # deduping a drawn sample would return fewer ideals than count
            if self.dedupe_isomorphic:
                raise InvalidArgumentError("isomorphism dedupe applies only to exhaustive mode")
            if self.m is None or self.count is None:
                raise InvalidArgumentError("random mode needs both m and count")
            _integers((self.m,), "m", 1, basis)
            if self.count > comb(basis, self.m):
                raise BoundExceededError(
                    f"only {comb(basis, self.m)} distinct {self.m}-subsets exist, "
                    f"cannot draw {self.count}"
                )

    def size(self) -> int:
        """The number of ideals in the corpus; only a deduped one is enumerated."""
        if self.dedupe_isomorphic:
            return len(corpus_masks(self))
        if self.mode == "exhaustive":
            return (1 << comb(self.n + self.d - 1, self.d)) - self.start_mask
        return self.count

    def to_json_dict(self) -> dict:
        out = {"n": self.n, "d": self.d, "mode": self.mode}
        if self.mode == "exhaustive":
            out["start_mask"] = self.start_mask
        else:
            out.update({"m": self.m, "count": self.count, "seed": self.seed})
        if self.dedupe_isomorphic:
            out["dedupe_isomorphic"] = True
        return out


@dataclass(frozen=True)
class CorpusItem:
    index: int
    mask: int
    ideal: MonomialIdeal


def _decode(basis: tuple[Monomial, ...], mask: int) -> tuple[Monomial, ...]:
    """The basis monomials whose bits are set in mask, in basis order."""
    return tuple(m for i, m in enumerate(basis) if mask >> i & 1)


def ideal_from_mask(n: int, d: int, mask: int) -> MonomialIdeal:
    """Rebuild the ideal a bitmask denotes (bit i = i-th lex-descending monomial)."""
    basis = monomials_of_degree(n, d).elems
    (mask,) = _integers((mask,), "mask", 1, (1 << len(basis)) - 1)
    return MonomialIdeal(n, _decode(basis, mask))


def corpus_masks(spec: CorpusSpec) -> list[int]:
    basis_size = comb(spec.n + spec.d - 1, spec.d)
    if spec.mode == "exhaustive":
        masks = list(range(spec.start_mask, 1 << basis_size))
    else:
        rng = random.Random(spec.seed)
        seen: set[int] = set()
        masks = []
        while len(masks) < spec.count:
            mask = 0
            for i in rng.sample(range(basis_size), spec.m):
                mask |= 1 << i
            if mask not in seen:
                seen.add(mask)
                masks.append(mask)
    if spec.dedupe_isomorphic:
        perms = [order.positions for order in all_variable_orders(spec.n)]
        basis = monomials_of_degree(spec.n, spec.d).elems
        position = {m.exponents: i for i, m in enumerate(basis)}
        masks = [
            mask
            for mask in masks
            if _is_orbit_representative(perms, position, _decode(basis, mask), mask)
        ]
    return masks


def _is_orbit_representative(
    perms: list, position: dict[tuple[int, ...], int], gens: tuple[Monomial, ...], mask: int
) -> bool:
    """Whether no variable permutation sends this subset to a smaller mask.

    perms lists the 0-based variable permutations, position maps each basis
    exponent vector to its bit, and gens is the subset the mask denotes.
    """
    vectors = [g.exponents for g in gens]
    for perm in perms:
        relabeled = 0
        for vec in vectors:
            relabeled |= 1 << position[tuple(vec[p] for p in perm)]
        if relabeled < mask:
            return False
    return True


def enumerate_corpus(spec: CorpusSpec) -> Iterator[CorpusItem]:
    basis = monomials_of_degree(spec.n, spec.d).elems
    for index, mask in enumerate(corpus_masks(spec)):
        yield CorpusItem(index, mask, MonomialIdeal(spec.n, _decode(basis, mask)))
