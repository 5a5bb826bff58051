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
reports the first failing one in lexicographic permutation order.  It runs
on the colon tables of a polymatroid._Layer: the generators of one ideal
with every bit set, or, for the corpus suites, every monomial of one
degree, each corpus ideal being a mask S over them.  It tests the identity
order first, where most failing ideals already fail, and only then
searches the other orders:

- Tables.  For layer element g and variable t, one bitset holds the
  elements with a larger exponent at t than g, and one the elements u
  with u : g = x_t.  The linear quotients test of g against a bitset P of
  predecessors ORs the first bitsets of the variables whose second bitset
  meets P; it fails when a predecessor is left uncovered.  That is O(n)
  integer operations, and a generator's tables are built when it is
  first tested.
- One order.  The sequence that an order induces on S sorts its bits by
  the ranks of that order; the layer is lex-descending, so under the
  identity's lex order it is the bit order and needs no sort.  Each
  generator is tested against the bits before it; the first that fails
  gives the position, and its lowest uncovered bit, the greatest by
  canonical_key, the blocker.  The identity runs first, and the order
  that the search finds runs last, for its position and blocker.
- Lex search.  Choosing variables from the greatest down refines an
  ordered partition of S: each choice splits every block by exponent,
  larger first.  A generator that becomes a singleton block has the union
  of the earlier blocks as predecessors in every order below that prefix,
  so it is tested once for the whole subtree, and the first failing
  prefix followed by the remaining variables in ascending order is the
  answer.
- Revlex mirror.  The generators share one degree, so the induced lex
  order compares their exponents read along the variable order, larger
  first, and revlex compares them read against it, smaller first; this is
  the one rule, _induced_read, that sort_generators and the ranks apply.
  The revlex sequence under an order is thus the lex sequence under the
  reversed order read backwards, so revlex refines from the least
  variable up, smaller exponents first.  Subtrees then share a suffix and
  are not met in permutation order: the search keeps the least failing
  order found so far and prunes every subtree whose least order is not
  below it.
- Twins.  Variables u and t are twins in S when swapping x_u and x_t
  maps S onto itself, an equivalence relation: if (a b) and (b c) fix S,
  so does (a c) = (a b)(b c)(a b).  Once the identity has passed, the
  search reads the classes off the layer's exponents and index, and each
  node visits only the first variable of each class among its remaining
  ones, in its loop order, ascending for lex and descending for revlex.
  For a remaining twin t' of a visited t, the transposition (t t') fixes
  the chosen prefix (or suffix) and maps the subtree of t' onto that of
  t.  It keeps each order's verdict, as S is invariant under it and
  linear quotients do not change when the variables are renamed, and it
  sends every permutation of the skipped subtree to a smaller one of the
  kept subtree.  So the least failing permutation is never skipped, and
  the order, position and blocker stay the same.  A Veronese ideal needs
  n refinements per kind; an ideal without twins gets no pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import reduce
from operator import itemgetter, or_
from typing import Callable, Iterable, Sequence

from .betti import has_linear_resolution
from .core import (
    Monomial,
    MonomialIdeal,
    VariableOrder,
    _check_perm_guard,
    _instance,
    _monomials,
    canonical_key,
)
from .errors import AmbientMismatchError, InvalidArgumentError
from .polymatroid import (
    ExchangeWitness, _bits, _Built, _Layer, exchange_failure, require_equigenerated
)


@dataclass(frozen=True)
class LQFailure:
    """Where a linear-quotients check breaks: no variable of the prefix
    colon divides blocker : seq[position-1]."""

    position: int  # 1-based index j >= 2 into the sequence
    blocker: Monomial  # an earlier generator whose colon is not covered

    def to_json_dict(self) -> dict:
        return {"position": self.position, "blocker": list(self.blocker.exponents)}


def _check_kind(kind: str) -> None:
    if kind not in ("lex", "revlex"):
        raise InvalidArgumentError(f"unknown order kind {kind!r}")


def sort_generators(I: MonomialIdeal, kind: str, order: VariableOrder) -> tuple[Monomial, ...]:
    """Generators in strictly decreasing induced order (greatest first).

    Lex reads the exponents along the order and puts larger first; revlex
    reads them against it and puts smaller first.
    """
    require_equigenerated(I)
    if _instance(order, VariableOrder, "variable order").n != I.n:
        raise AmbientMismatchError(
            f"variable order {order} has {order.n} variables, the ideal {I.n}"
        )
    _check_kind(kind)
    read, lex = _induced_read(kind, order.positions)
    return tuple(sorted(I.gens, key=lambda m: read(m.exponents), reverse=lex))


def _induced_read(kind: str, positions: Sequence[int]) -> tuple[Callable, bool]:
    """The sort key on exponent vectors of the order that kind induces from
    the 0-based scan order positions, and whether larger keys come first:
    lex reads the exponents along the order, larger first, and revlex
    reads them against it, smaller first."""
    lex = kind == "lex"
    return itemgetter(*(positions if lex else positions[::-1])), lex


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


# the first failing order as a 0-based permutation, with the 1-based
# position and the blocker bit of its failure
_Found = tuple[tuple[int, ...], int, int]


class _ColonTables:
    """Bitset tables of one _Layer for one order kind.

    Layer element i is bit i, and a generating set is a mask S.  tests[g]
    lists, for each variable t with an element u such that u : g = x_t,
    the pair (those u, the elements with a larger exponent at t than g);
    it is built when g is first tested.  levels[t] lists the elements
    grouped by their exponent at t, in the order the induced sequences put
    them: descending for lex, ascending for revlex.  ranks[perm] gives each
    element's place in the sequence that perm induces, sorted by the key
    of _induced_read as sort_generators sorts, None where that is the bit
    order.
    """

    def __init__(self, layer: _Layer, kind: str) -> None:
        exps = layer.exps
        self.layer = layer
        self.kind = kind
        self.lex = kind == "lex"
        self.levels: list[list[int]] = []
        self.above: list[dict[int, int]] = []  # above[t][a]: exponent at t larger than a
        for t in range(layer.n):
            by_exp: dict[int, int] = {}
            for i, e in enumerate(exps):
                by_exp[e[t]] = by_exp.get(e[t], 0) | 1 << i
            self.levels.append([by_exp[a] for a in sorted(by_exp, reverse=self.lex)])
            greater, mask = {}, 0
            for a in sorted(by_exp, reverse=True):
                greater[a] = mask
                mask |= by_exp[a]
            self.above.append(greater)
        self.tests = _Built(self._tests)
        self.identity = tuple(range(layer.n))
        self.ranks = _Built(self._ranks)

    def _tests(self, g: int) -> list[tuple[int, int]]:
        # for u of the same degree, u : g = x_t means u = g * x_t / x_s
        e, swaps = self.layer.exps[g], self.layer.swaps[g]
        pairs = []
        for t in range(self.layer.n):
            deg1 = reduce(or_, [row[t] for row in swaps], 0)
            if deg1:
                pairs.append((deg1, self.above[t][e[t]]))
        return pairs

    def _ranks(self, perm: tuple[int, ...]) -> list[int] | None:
        if self.lex and perm == self.identity:
            return None
        exps = self.layer.exps
        read, lex = _induced_read(self.kind, perm)
        rank = [0] * len(exps)
        for r, i in enumerate(sorted(range(len(exps)), key=lambda i: read(exps[i]), reverse=lex)):
            rank[i] = r
        return rank

    def uncovered(self, g: int, preds: int) -> int:
        """The predecessors whose colon with g no variable of (preds) : g
        divides; 0 exactly when (preds) : g is generated by variables."""
        covered = 0
        for deg1, cov in self.tests[g]:
            if deg1 & preds:
                covered |= cov
        return preds & ~covered

    def failure_at(self, S: int, perm: tuple[int, ...]) -> tuple[int, int] | None:
        """Where the sequence that the 0-based permutation perm induces on
        S first fails linear quotients: (1-based position, blocker bit), as
        linear_quotients_failure reports them; or None.

        The layer is lex-descending, so the lowest uncovered bit is the
        uncovered generator greatest by canonical_key.
        """
        members = _bits(S)
        rank = self.ranks[perm]
        if rank is not None:
            members.sort(key=rank.__getitem__)
        preds = 1 << members[0]
        for position, g in enumerate(members[1:], 2):
            uncovered = self.uncovered(g, preds)
            if uncovered:
                return position, (uncovered & -uncovered).bit_length() - 1
            preds |= 1 << g
        return None

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
                elif self.uncovered(part.bit_length() - 1, before):
                    return None
                before |= part
        return refined

    def first_failure(self, S: int) -> _Found | None:
        """The first of the n! orders whose sequence of S fails, as a 0-based
        permutation with failure_at's position and blocker bit there; or
        None if every order passes."""
        perm = self.identity
        failure = self.failure_at(S, perm)
        if failure is None:
            perm = _first_failing_perm(self, S)
            if perm is None:
                return None
            failure = self.failure_at(S, perm)
        return (perm, *failure)


def _twin_classes(layer: _Layer, S: int) -> list[int]:
    """For each variable t, the least variable u such that swapping x_u and
    x_t maps the generating set S onto itself.

    Being twins is an equivalence relation, as (a c) = (a b)(b c)(a b), so
    each variable is tested against the least member of each class found so
    far, and a test stops at the first member whose swapped image is not in
    S.
    """
    exps, index = layer.exps, layer.index
    members = [exps[g] for g in _bits(S)]

    def twins(u: int, t: int) -> bool:  # u < t
        for e in members:
            if e[u] != e[t]:
                k = index.get(e[:u] + (e[t],) + e[u + 1:t] + (e[u],) + e[t + 1:])
                if k is None or not S >> k & 1:
                    return False
        return True

    least: list[int] = []
    for t in range(layer.n):
        least.append(next((u for u, v in enumerate(least) if u == v and twins(u, t)), t))
    return least


def _first_failing_perm(tables: _ColonTables, S: int) -> tuple[int, ...] | None:
    """Least 0-based permutation, in lexicographic order, whose induced
    sequence of the generating set S fails linear quotients.

    Lex chooses variables from the greatest position on, so subtrees come
    in permutation order; revlex chooses from the least position back.
    In both, a subtree's least permutation is compared against the best
    failure so far, and siblings are visited in increasing order of it.

    - Twins.  A node visits only the first variable of each class of
      _twin_classes among its remaining variables, in its loop order.  For
      a remaining twin t' of a visited t, the transposition (t t') fixes
      the chosen prefix (or suffix) and maps the subtree of t' onto that
      of t.  It keeps each order's verdict, as S is invariant under it and
      linear quotients do not change when the variables are renamed, and
      it sends each permutation of the subtree of t' to a smaller one of
      the subtree of t: so the least failing permutation is never skipped.
    """
    lex = tables.lex
    twin = _twin_classes(tables.layer, S)
    best: tuple[int, ...] | None = None

    def visit(partition, chosen: tuple[int, ...], remaining: tuple[int, ...]) -> None:
        nonlocal best
        visited = set()
        for t in remaining if lex else reversed(remaining):
            if twin[t] in visited:
                continue
            visited.add(twin[t])
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

    visit([(S, 0)], (), tuple(range(tables.layer.n)))
    return best


def _lq_witness(found: _Found, gens: Sequence[Monomial]) -> tuple[VariableOrder, LQFailure]:
    """The order and failure that first_failure found, gens being the
    layer's monomials by bit."""
    perm, position, blocker = found
    return VariableOrder(tuple(p + 1 for p in perm)), LQFailure(position, gens[blocker])


def lq_all_orders_failure(I: MonomialIdeal, kind: str) -> tuple[VariableOrder, LQFailure] | None:
    """The first of the n! variable orders, in lexicographic permutation
    order, whose induced sequence fails linear quotients; or None.

    The tables of the module docstring are built over the generators of
    I, every bit set: the identity order is tested first, then the search
    runs, and the order it finds is tested for the position and blocker.

    Refuses outright when n exceeds the permutation guard (default 8,
    overridable via the POLYMAT_MAX_PERMS environment variable).
    """
    require_equigenerated(I)
    _check_perm_guard(I.n)
    _check_kind(kind)
    gens = I.gens
    tables = _ColonTables(_Layer([g.exponents for g in gens]), kind)
    found = tables.first_failure((1 << len(gens)) - 1)
    return None if found is None else _lq_witness(found, gens)


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
    require_equigenerated(I)
    _check_kind(kind)
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
