"""Corpus enumeration: exhaustive and seeded-random families of ideals.

Every non-empty subset of the degree-d monomials is a minimal generating
set (equal-degree monomials never divide one another), so corpora are
represented as bitmasks over the lex-descending list of degree-d
monomials.  Exhaustive corpora run masks in ascending order; random
corpora draw distinct m-subsets from a seeded random.Random.  The draw is
CPython 3.11's Random.sample algorithm, written once here on getrandbits,
so a random corpus depends on the seed alone and not on how a later
Python implements sample.  Both are fully reproducible from the corpus
parameters.

A _CorpusLayer is the one codec between masks and monomials: it holds
the layer's monomials by bit, with the tables the suites' mask verdicts
read, and ideal_from_mask, enumerate_corpus and the isomorphism dedupe all
go through one.  corpus_masks gives the masks alone, which is all the
suites draw: they decide each verdict on the mask.

A variable permutation permutes the layer's bits, so the dedupe relabels
a mask by table lookups: one row per variable order, holding the bit each
layer monomial goes to, built for one corpus_masks call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from math import ceil, comb, log
from operator import or_
from typing import Callable, Iterator

from .core import MonomialIdeal, _instance, _integers, _substituted, all_variable_orders
from .errors import BoundExceededError, InvalidArgumentError
from .lexsegment import monomials_of_degree
from .polymatroid import _bits, _Built, _Layer
from .quotients import _ColonTables, _Found

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
        _instance(self.dedupe_isomorphic, bool, "dedupe flag")
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
        return self.count if self.mode == "random" else len(corpus_masks(self))

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


class _CorpusLayer(_Layer):
    """The degree-d layer of a corpus and every table its mask verdicts
    read: the monomials and their JSON rows by bit, the exchange rows and
    the colon tables of each order kind.  It lives for one call or one
    suite slice, and each table is built when a verdict first needs it.

    The localization suite reads two more, both on this layer.  images[b]
    is the support of bit b as a variable mask, with its image under a
    substitution z, keyed by z & support: (w, c), w being the degree that
    z removes from bit b and c the bit of the image times x1^w.  The image
    is core._substituted of bit b's exponents, the rule
    MonomialIdeal.localize applies.
    divides[b, z] masks the elements whose exponents outside z are at most
    bit b's: those whose image under z divides bit b's.

    Building a table costs nothing factorial; only search visits the n!
    orders, and the suites that call it check the permutation guard before
    the corpus is drawn."""

    def __init__(self, n: int, d: int) -> None:
        self.monomials = monomials_of_degree(n, d).elems
        super().__init__([m.exponents for m in self.monomials])
        self.d = d
        self.gens_rows = [list(m.exponents) for m in self.monomials]
        self.colon = _Built(lambda kind: _ColonTables(self, kind))
        self.images = _Built(self._images)
        self.divides = _Built(self._divides)

    def _images(self, b: int) -> tuple[int, _Built]:
        e = self.exps[b]

        def image(z: int) -> tuple[int, int]:
            kept = _substituted(e, z)
            w = self.d - sum(kept)
            return w, self.index[(kept[0] + w,) + kept[1:]]

        return sum(1 << i for i, a in enumerate(e) if a), _Built(image)

    def _divides(self, key: tuple[int, int]) -> int:
        (b, z), above = key, self.colon["revlex"].above
        return ~reduce(or_, [above[t][a] for t, a in enumerate(self.exps[b]) if not z >> t & 1], 0)

    def fields(self, index: int, mask: int, members: list[int]) -> dict:
        """The fields every corpus verdict starts with, members being the
        mask's bits; reverify_witness reads mask and gens."""
        return {"index": index, "mask": mask, "gens": [self.gens_rows[b] for b in members]}

    def ideal(self, mask: int) -> MonomialIdeal:
        return MonomialIdeal(self.n, [self.monomials[b] for b in _bits(mask)])

    def search(self, kind: str, mask: int, members: list[int]) -> _Found | None:
        """The first failing order of the n! for the ideal of mask, whose
        bits are members, as _ColonTables.first_failure gives it; or None."""
        return self.colon[kind].first_failure(mask, members)


def ideal_from_mask(n: int, d: int, mask: int) -> MonomialIdeal:
    """Rebuild the ideal a bitmask denotes (bit i = i-th lex-descending monomial)."""
    layer = _CorpusLayer(n, d)
    (mask,) = _integers((mask,), "mask", 1, (1 << len(layer.monomials)) - 1)
    return layer.ideal(mask)


def corpus_masks(spec: CorpusSpec) -> range | list[int]:
    """The corpus masks in order: the range itself for a plain exhaustive
    corpus, so that no list of its masks is built, and a list otherwise.

    A random corpus keeps the first count distinct masks of the m-subsets
    that CPython 3.11's Random(seed).sample(range(L), m) draws, L being
    the layer's size; _random_masks writes that algorithm once, on
    getrandbits.
    """
    basis_size = comb(spec.n + spec.d - 1, spec.d)
    if spec.mode == "exhaustive":
        masks = range(spec.start_mask, 1 << basis_size)
    else:
        masks = _random_masks(random.Random(spec.seed).getrandbits, basis_size, spec.m, spec.count)
    if spec.dedupe_isomorphic:
        layer = _CorpusLayer(spec.n, spec.d)
        relabel = [
            [1 << layer.index[tuple(e[p] for p in order.positions)] for e in layer.exps]
            for order in all_variable_orders(spec.n)
        ]
        masks = [mask for mask in masks if _is_orbit_representative(relabel, mask)]
    return masks


def _random_masks(getrandbits: Callable[[int], int], size: int, m: int, count: int) -> list[int]:
    """The first count distinct masks of the m-subsets of range(size) that
    Random.sample draws from the generator of getrandbits, reading the
    same bits: below the set size that sample computes from m it picks
    from a shrinking pool, above it it redraws an index already taken,
    and an index below b comes from getrandbits(b.bit_length()), redrawn
    until it is below b."""
    setsize = 21  # sample's rule: a small set's size less an empty list's
    if m > 5:
        setsize += 4 ** ceil(log(m * 3, 4))
    drawn: dict[int, None] = {}  # insertion-ordered, so the first draw of a mask keeps its place
    if size <= setsize:
        bits = [1 << i for i in range(size)]
        # the pool shrinks by one a pick: an index below size - i, and its width in bits
        below = [(size - i, (size - i).bit_length()) for i in range(m)]
        while len(drawn) < count:
            pool = bits.copy()
            mask = 0
            for b, width in below:
                j = getrandbits(width)
                while j >= b:
                    j = getrandbits(width)
                mask |= pool[j]
                pool[j] = pool[b - 1]
            drawn[mask] = None
    else:
        width = size.bit_length()
        while len(drawn) < count:
            taken: set[int] = set()
            for _ in range(m):
                j = getrandbits(width)
                while j >= size or j in taken:
                    j = getrandbits(width)
                taken.add(j)
            drawn[sum(1 << j for j in taken)] = None
    return list(drawn)


def _is_orbit_representative(relabel: list[list[int]], mask: int) -> bool:
    """Whether no variable permutation sends this subset to a smaller mask.

    relabel[k][b] is the bit that layer monomial b goes to under the k-th
    variable order, so a relabeled mask is the sum over the mask's bits.
    """
    bits = _bits(mask)
    return all(sum(row[b] for b in bits) >= mask for row in relabel)


def enumerate_corpus(spec: CorpusSpec) -> Iterator[CorpusItem]:
    layer = _CorpusLayer(_instance(spec, CorpusSpec, "corpus spec").n, spec.d)
    return (CorpusItem(i, mask, layer.ideal(mask)) for i, mask in enumerate(corpus_masks(spec)))
