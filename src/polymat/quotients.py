"""Linear quotients under variable-induced generator orderings.

sort_generators lists the minimal generators as a tuple in strictly
decreasing order under the lex or revlex order that a variable permutation
induces, so prefixes are exactly the sets of strictly greater generators.
linear_quotients_failure and has_quotients_with_linear_resolution test
that tuple, or any non-empty sequence of monomials in one ring.
qwlr_by_order runs the latter on the sequence that each of several
orders induces.  Those sequences share most prefix colon ideals, so it
memoizes the linear-resolution verdict of each ideal in a dict that lives
for that one call; the library keeps no cache between calls.

The quantified check lq_all_orders_failure covers all n! permutations and
reports the first failing one in lexicographic permutation order.  It tests
the identity order first, where most failing ideals already fail, and only
then searches the other orders:

- Tables.  The generators are numbered and each is one bit.  For generator
  g and variable t, one bitset holds the generators with a larger exponent
  at t than g, and one the generators u with u : g = x_t.  The linear
  quotients test of g against a bitset P of predecessors ORs the first
  bitsets of the variables whose second bitset meets P; it fails when a
  predecessor is left uncovered.  That is O(n) integer operations.
- Lex search.  Choosing variables from the greatest down refines an
  ordered partition of the generators: each choice splits every block by
  exponent, larger first.  A generator that becomes a singleton block has
  the union of the earlier blocks as predecessors in every order below
  that prefix, so it is tested once for the whole subtree, and the first
  failing prefix followed by the remaining variables in ascending order is
  the answer.
- Revlex mirror.  The generators share one degree, so the induced lex
  order compares their exponents read along the variable order, larger
  first, and revlex compares them read against it, smaller first; this is
  the one rule sort_generators applies.  The revlex sequence under an
  order is thus the lex sequence under the reversed order read backwards,
  so revlex refines from the least variable up, smaller exponents first.
  Subtrees then share a suffix and are not met in permutation order: the
  search keeps the least failing order found so far and prunes every
  subtree whose least order is not below it.

The order found is replayed through linear_quotients_failure, so the
reported position and blocker are those of the single-sequence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable, Sequence

from .betti import has_linear_resolution
from .core import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    _check_perm_guard,
    _monomials,
    canonical_key,
)
from .errors import AmbientMismatchError, InvalidArgumentError
from .polymatroid import ExchangeWitness, exchange_failure, require_equigenerated


@dataclass(frozen=True)
class LQFailure:
    """Where a linear-quotients check breaks: no variable of the prefix
    colon divides blocker : seq[position-1]."""

    position: int  # 1-based index j >= 2 into the sequence
    blocker: Monomial  # an earlier generator whose colon is not covered

    def to_json_dict(self) -> dict:
        return {"position": self.position, "blocker": list(self.blocker.exponents)}


def sort_generators(I: MonomialIdeal, kind: str, order: VariableOrder) -> tuple[Monomial, ...]:
    """Generators in strictly decreasing induced order (greatest first).

    Lex reads the exponents along the order and puts larger first; revlex
    reads them against it and puts smaller first.
    """
    require_equigenerated(I)
    if not isinstance(order, VariableOrder):
        raise InvalidArgumentError(f"{order!r} is not a VariableOrder")
    if order.n != I.n:
        raise AmbientMismatchError(
            f"variable order {order} has {order.n} variables, the ideal {I.n}"
        )
    if kind not in ("lex", "revlex"):
        raise InvalidArgumentError(f"unknown order kind {kind!r}")
    lex = kind == "lex"
    read = itemgetter(*(order.positions if lex else order.positions[::-1]))
    return tuple(sorted(I.gens, key=lambda m: read(m.exponents), reverse=lex))


def linear_quotients_failure(seq: Sequence[Monomial]) -> LQFailure | None:
    """First position where a prefix colon ideal is not variable-generated.

    The prefix colon (u_1..u_{j-1}) : u_j is generated by the monomial
    colons u_i : u_j; it is variable-generated exactly when every such
    colon is divisible by one of the degree-1 colons.
    """
    seq = _monomials(seq, "a generator sequence")
    exps = [m.exponents for m in seq]
    for j in range(1, len(seq)):
        uj = exps[j]
        colons = []
        deg1_vars = set()
        for i in range(j):
            c = tuple(a - b if a > b else 0 for a, b in zip(exps[i], uj))
            colons.append(c)
            if sum(c) == 1:
                deg1_vars.add(c.index(1))
        uncovered = [i for i, c in enumerate(colons) if not any(c[t] for t in deg1_vars)]
        if uncovered:
            blocker = max((seq[i] for i in uncovered), key=canonical_key)
            return LQFailure(j + 1, blocker)
    return None


def has_linear_quotients(seq: Sequence[Monomial]) -> bool:
    return linear_quotients_failure(seq) is None


class _ColonTables:
    """Bitset tables of one equigenerated ideal for the all-orders search.

    Generator i is bit i.  tests[g] lists, for each variable t with a
    generator u such that u : g = x_t, the pair (those u, the generators
    with a larger exponent at t than g).  levels[t] lists the generators
    grouped by their exponent at t, in the order the induced sequences
    put them: descending for lex, ascending for revlex.
    """

    def __init__(self, I: MonomialIdeal, kind: str) -> None:
        exps = [g.exponents for g in I.gens]
        n = I.n
        index = {e: i for i, e in enumerate(exps)}
        self.levels: list[list[int]] = []
        above: list[dict[int, int]] = []  # above[t][a]: exponent at t larger than a
        for t in range(n):
            by_exp: dict[int, int] = {}
            for i, e in enumerate(exps):
                by_exp[e[t]] = by_exp.get(e[t], 0) | 1 << i
            values = sorted(by_exp, reverse=kind == "lex")
            self.levels.append([by_exp[a] for a in values])
            greater, mask = {}, 0
            for a in sorted(by_exp, reverse=True):
                greater[a] = mask
                mask |= by_exp[a]
            above.append(greater)
        self.tests: list[list[tuple[int, int]]] = []
        for e in exps:
            pairs = []
            for t in range(n):
                # for u of the same degree, u : g = x_t means u = g * x_t / x_s
                deg1 = 0
                for s in range(n):
                    if s != t and e[s]:
                        u = list(e)
                        u[t] += 1
                        u[s] -= 1
                        i = index.get(tuple(u))
                        if i is not None:
                            deg1 |= 1 << i
                if deg1:
                    pairs.append((deg1, above[t][e[t]]))
            self.tests.append(pairs)

    def fails(self, g: int, preds: int) -> bool:
        """Whether (preds) : g is not generated by variables."""
        covered = 0
        for deg1, cov in self.tests[g]:
            if deg1 & preds:
                covered |= cov
        return bool(preds & ~covered)

    def refine(self, partition: list[tuple[int, int]], t: int) -> list[tuple[int, int]] | None:
        """Split every block by exponent at variable t; None if a generator
        that becomes a singleton fails its test.

        A partition lists its blocks of two or more generators in sequence
        order, each with the union of all blocks before it; singletons are
        dropped once tested, as no later split changes their predecessors.
        """
        refined = []
        for block, before in partition:
            for level in self.levels[t]:
                part = block & level
                if not part:
                    continue
                if part & (part - 1):
                    refined.append((part, before))
                elif self.fails(part.bit_length() - 1, before):
                    return None
                before |= part
        return refined


def _first_failing_perm(I: MonomialIdeal, kind: str) -> tuple[int, ...] | None:
    """Least 0-based permutation, in lexicographic order, whose induced
    sequence fails linear quotients.

    Lex chooses variables from the greatest position on, so subtrees come
    in permutation order; revlex chooses from the least position back.
    In both, a subtree's least permutation is compared against the best
    failure so far, and siblings are visited in increasing order of it.
    """
    tables = _ColonTables(I, kind)
    lex = kind == "lex"
    best: tuple[int, ...] | None = None

    def visit(partition, chosen: tuple[int, ...], remaining: tuple[int, ...]) -> None:
        nonlocal best
        for t in remaining if lex else reversed(remaining):
            rest = tuple(u for u in remaining if u != t)
            least = chosen + (t,) + rest if lex else rest + (t,) + chosen
            if best is not None and least >= best:
                return
            refined = tables.refine(partition, t)
            if refined is None:
                best = least
                return
            if refined:
                visit(refined, chosen + (t,) if lex else (t,) + chosen, rest)

    visit([((1 << len(I.gens)) - 1, 0)], (), tuple(range(I.n)))
    return best


def lq_all_orders_failure(I: MonomialIdeal, kind: str) -> tuple[VariableOrder, LQFailure] | None:
    """The first of the n! variable orders, in lexicographic permutation
    order, whose induced sequence fails linear quotients; or None.

    The identity order is tested directly.  Past it, the search of the
    module docstring finds the first failing order from the bitset
    tables, and linear_quotients_failure on that order gives the reported
    position and blocker.

    Refuses outright when n exceeds the permutation guard (default 8,
    overridable via the POLYMAT_MAX_PERMS environment variable).
    """
    require_equigenerated(I)
    _check_perm_guard(I.n)
    identity = VariableOrder.identity(I.n)
    failure = linear_quotients_failure(sort_generators(I, kind, identity))
    if failure is not None:
        return identity, failure
    perm = _first_failing_perm(I, kind)
    if perm is None:
        return None
    order = VariableOrder(tuple(p + 1 for p in perm))
    failure = linear_quotients_failure(sort_generators(I, kind, order))
    if failure is None:
        raise RuntimeError(f"all-orders search reported order {order}, which passes")
    return order, failure


def has_lq_all_orders(I: MonomialIdeal, kind: str) -> bool:
    return lq_all_orders_failure(I, kind) is None


@dataclass(frozen=True)
class TheoremCheck:
    """Comparison of the exchange property against lex linear quotients
    for every variable ordering; a mismatch would be headline news."""

    polymatroidal: bool
    lex_all_orders: bool
    exchange_witness: ExchangeWitness | None
    lq_witness: tuple[VariableOrder, LQFailure] | None

    @property
    def consistent(self) -> bool:
        return self.polymatroidal == self.lex_all_orders


def theorem_equivalence(I: MonomialIdeal) -> TheoremCheck:
    witness = exchange_failure(I)
    lq_witness = lq_all_orders_failure(I, "lex")
    return TheoremCheck(witness is None, lq_witness is None, witness, lq_witness)


class ConjectureOutcome(str, Enum):
    POLYMATROIDAL = "polymatroidal"
    REFUTED = "refuted_by_some_order"
    COUNTEREXAMPLE = "COUNTEREXAMPLE"


@dataclass(frozen=True)
class ConjectureProbe:
    """Outcome of probing one ideal: a counterexample is an ideal with
    revlex linear quotients for every variable ordering that is
    nevertheless not polymatroidal."""

    outcome: ConjectureOutcome
    exchange_witness: ExchangeWitness | None
    refuting_order: VariableOrder | None
    lq_failure: LQFailure | None


def conjecture_probe(I: MonomialIdeal) -> ConjectureProbe:
    witness = exchange_failure(I)
    if witness is None:
        return ConjectureProbe(ConjectureOutcome.POLYMATROIDAL, None, None, None)
    lq_witness = lq_all_orders_failure(I, "revlex")
    if lq_witness is not None:
        order, failure = lq_witness
        return ConjectureProbe(ConjectureOutcome.REFUTED, witness, order, failure)
    return ConjectureProbe(ConjectureOutcome.COUNTEREXAMPLE, witness, None, None)


def _qwlr(seq: tuple[Monomial, ...], linear) -> bool:
    """Whether linear holds for the ideal of seq and then for each prefix
    colon ideal in turn, stopping at the first that fails.

    linear gets each ideal as the frozenset of the exponent vectors that
    generate it, the colons u_i : u_j of a prefix, so a memo keyed by them
    answers a repeat without building a monomial.
    """
    exps = [m.exponents for m in seq]
    colons = (frozenset(tuple(a - b if a > b else 0 for a, b in zip(u, v)) for u in exps[:j])
              for j, v in enumerate(exps[1:], 1))
    return linear(frozenset(exps)) and all(map(linear, colons))


def _ideal(n: int, vectors: frozenset[tuple[int, ...]]) -> MonomialIdeal:
    return MonomialIdeal(n, map(Monomial, vectors))


def has_quotients_with_linear_resolution(seq: Sequence[Monomial]) -> bool:
    """The ideal of the sequence and every prefix colon ideal have linear
    resolutions.

    Prefix colon ideals are materialized and minimalized; one generated in
    several degrees counts as not having a linear resolution.  Principal
    colon ideals pass trivially.  A unit prefix colon, which a free-form
    sequence has where a monomial divides a later one, counts as linear.
    """
    seq = _monomials(seq, "a generator sequence")
    n = seq[0].n
    return _qwlr(seq, lambda vectors: has_linear_resolution(_ideal(n, vectors)))


def qwlr_by_order(
    I: MonomialIdeal, kind: str, orders: Iterable[VariableOrder]
) -> dict[VariableOrder, bool]:
    """has_quotients_with_linear_resolution of the sequence that each order
    induces, with each ideal's linear-resolution verdict computed once for
    the whole call: the sequences of one ideal share most prefix colons.

    The memo is asked first by the generating vectors, which a repeated
    prefix colon repeats exactly, and on a miss by the ideal they
    generate, which other generating sets of the same ideal share.
    """
    by_vectors: dict[frozenset[tuple[int, ...]], bool] = {}
    by_ideal: dict[MonomialIdeal, bool] = {}

    def linear(vectors: frozenset[tuple[int, ...]]) -> bool:
        holds = by_vectors.get(vectors)
        if holds is None:
            J = _ideal(I.n, vectors)
            holds = by_ideal.get(J)
            if holds is None:
                holds = by_ideal[J] = has_linear_resolution(J)
            by_vectors[vectors] = holds
        return holds

    return {order: _qwlr(sort_generators(I, kind, order), linear) for order in orders}
