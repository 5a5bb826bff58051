"""Graded Betti numbers of monomial ideals, exactly, over the rationals.

Two independent routes compute the same table.  The default route walks
the lcm lattice of the generators and, at each lattice multidegree a,
takes reduced simplicial homology of the upper-Koszul complex K^a =
{squarefree b on supp(a) : x^(a-b) in the ideal}; the rank of reduced
homology in dimension i-1 there is the Betti number in homological index
i at multidegree a (Miller-Sturmfels, Thm 1.34).  The layer works over
the variables the generators use, as a variable no generator contains
changes no Betti number.  The lattice is walked one variable at a time,
every column by one rule, and each point comes with its divisor mask, the
generators dividing x^a: a is a lattice point exactly when it is the lcm
of its divisors (Gasharov-Peeva-Welker, The lcm-lattice in monomial
resolutions, 1999).  The facets of K^a are the maximal slack masks {t :
a_t > g_t} of those divisors g, and the cone test runs on those masks
first: when one vertex lies in every facet, K^a is a cone and contributes
nothing, so that point is skipped before any face is built.  Any other
K^a is determined by its slack masks, and relabeling the vertices they
use onto 0..k-1 in increasing order gives the same complex with the same
boundary signs: its shape.  Each distinct shape is ranked once per call,
as the pair (deletion, link) at its busiest vertex v, the vertex in the
most slack masks: the star of v is a cone, so reduced H_i(K) = H_i(K, st
v) = H_i(del v, lk v) by excision (Hatcher, Algebraic Topology, 2.1).
The chains of that pair are the faces of K without v whose join with v
is no face: the faces with v are never built, and the faces of the link
are met only to be left out.  The cone test stays in front, as it is
cheaper than relabeling a cone to find it acyclic.  Polymatroidal ideals
have few shapes: squarefree Veronese (10,3) has 8 among its 968 lattice
points.
has_linear_resolution reads the whole table, with no early exit at the
first homology off the strand.
The oracle route reads the same numbers off the multigraded strands of
the Taylor complex on the generators, which costs 2^|G| and is gated
accordingly.  The strand at a is itself a relative complex: the subsets
of the generators dividing x^a less those inside some L_t = {g : g_t <
a_t}, the subsets whose lcm falls short of a in variable t.  It walks
subsets of generators, not faces of K^a, so it checks the default route
without sharing its complexes.

Both routes build their boundary rows in one relative walk, card (number
of bits) by card from the top down, each kept face's signed boundary row
recorded as the face is expanded into the card below; each card is
ranked as soon as it is built and is then released, so only the pivots
of the card above outlive it.

The default route packs an exponent vector into one int: variable t takes
the w bits from bit t*w, with w one more than the bit length of the largest
exponent, so the top bit of each field, its guard bit, is always zero.
With H the mask of all guard bits and g a divisor of x^a, (a | H) - g
keeps every guard bit and borrows across no field, so taking one more
from each field keeps field t's guard bit exactly when a_t > g_t (Warren,
Hacker's Delight, ch. 2).  Face masks sit on the guard bits; bit t ->
t*w + w - 1 is monotone, so faces sort, and boundaries take signs, as
variable masks.

Homology ranks come from integer row reduction of the +-1 boundary maps,
one sparse row per face: the row of a face of card (size) c holds its
boundary over the faces of card c-1, at most c entries, so each map is
ranked as its transpose.  The cards are reduced from the top down with
clearing, so the rows of faces that would add no rank are never reduced.
Unit pivots eliminate with one integer multiple, and any other pivot
with a fraction-free combination of the two rows.  There is no floating
point and no modular arithmetic anywhere in this module, so the ranks
are exact over Q and agreement between the two routes is exact or not
at all.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .core import MonomialIdeal, _instance, _integers
from .errors import OracleUnavailableError, UnitIdealError

TAYLOR_GENERATOR_LIMIT = 12


def integer_rank(rows: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """The pivot rows of a matrix over the rationals, keyed by leading column.

    Each sparse row {column: value} is reduced in place against the pivot
    rows found so far, which are keyed by their leading (here: last
    non-zero) column.  A +-1 pivot clears the leading entry with one
    integer multiple; another pivot b clears an entry a by the
    fraction-free combination (b/g)*row - (a/g)*pivot, g = gcd(a, b).  A
    row that keeps a non-zero entry becomes a pivot, so the rank is the
    number of keys.  Every given row ends either empty or as the pivot
    stored under its leading column.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            lead = max(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            a, b = row[lead], pivot[lead]
            if b == 1 or b == -1:
                k = a * b
            else:
                g = gcd(a, b)
                k, scale = a // g, b // g
                for j in row:
                    row[j] *= scale
            for j, v in pivot.items():
                w = row.get(j, 0) - k * v
                if w:
                    row[j] = w
                else:
                    del row[j]
    return pivots


def _reduced_ranks(cards) -> list[int]:
    """Reduced homology ranks indexed from dimension -1 upward, from the
    boundary rows of a complex by card, top card first, each card ranked
    with clearing as it arrives.

    Each card maps each face of card c to its boundary row over the faces
    of card c-1, and the rows of each card go in increasing face order.
    Every face that leads a pivot of the card above is left out
    (clearing: Chen-Kerber, Persistent homology computation with a twist,
    2011; Bauer-Kerber-Reininghaus, Clear and Compress, 2014).  That pivot
    is a combination of boundaries, so a cycle, and its leading entry
    writes the left-out face's boundary as a combination of earlier faces'
    boundaries, which by induction lie in the span of the rows ranked:
    leaving it out keeps the rank.  Only those pivots outlive their card,
    and the homology of a card is its faces less the rank of its boundary
    and of the boundary above.
    """
    homology: list[int] = []  # top card first
    cleared: dict[int, dict[int, int]] = {}  # the pivots of the card above
    for rows in cards:
        above = len(cleared)
        cleared = integer_rank([row for face, row in sorted(rows.items()) if face not in cleared])
        homology.append(len(rows) - len(cleared) - above)
    return homology[::-1]


@dataclass(frozen=True)
class BettiTable:
    """Non-zero graded Betti numbers as sorted (index, degree, value) triples."""

    entries: tuple[tuple[int, int, int], ...]

    @classmethod
    def from_dict(cls, table: dict[tuple[int, int], int]) -> BettiTable:
        return cls(tuple(sorted((i, j, v) for (i, j), v in table.items() if v)))

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): v for i, j, v in self.entries}

    def get(self, i: int, j: int) -> int:
        return self.as_dict().get(_integers((i, j), "Betti index", 0), 0)

    @property
    def generator_count(self) -> int:
        return sum(v for i, _, v in self.entries if i == 0)

    def is_linear(self, d: int) -> bool:
        """Whether every non-zero entry sits on the strand j = i + d."""
        (d,) = _integers((d,), "strand degree", 0)
        return all(j == i + d for i, j, _ in self.entries)

    def to_json_dict(self) -> dict:
        return {"betti": [[i, j, v] for i, j, v in self.entries]}

    def triangle(self) -> str:
        """Macaulay-style triangle: rows are j - i, columns homological index."""
        if not self.entries:
            return "(empty)"
        table = self.as_dict()
        imax = max(i for i, _, _ in self.entries)
        offsets = sorted({j - i for i, j, _ in self.entries})
        cols = range(imax + 1)
        totals = [sum(table.get((i, i + t), 0) for t in offsets) for i in cols]
        width = max(len(str(v)) for v in totals + [imax]) + 2
        head = " " * 7 + "".join(str(i).rjust(width) for i in cols)
        lines = [head, "total:".rjust(7) + "".join(str(t).rjust(width) for t in totals)]
        for t in offsets:
            row = [table.get((i, i + t), 0) for i in cols]
            cells = "".join((str(v) if v else ".").rjust(width) for v in row)
            lines.append(f"{t}:".rjust(7) + cells)
        return "\n".join(lines)


def _packed(exps: list[tuple[int, ...]]) -> tuple[list[int], int, int]:
    """The exponent vectors packed one int each, the guard mask and the width w."""
    width = max(map(max, exps)).bit_length() + 1
    shifts = range(0, len(exps[0]) * width, width)
    packed = [sum(e << s for e, s in zip(v, shifts)) for v in exps]
    return packed, sum(1 << (s + width - 1) for s in shifts), width


def lcm_lattice(gens: list[int], guards: int, width: int) -> dict[int, int]:
    """Every lcm-lattice point, packed, mapped to its divisor mask.

    The divisor mask D(a) has bit j set when generator j divides x^a, and
    a is a lattice point exactly when a = lcm(D(a)): when every field with
    a_t > 0 has a divisor g with g_t = a_t.  The walk fixes one variable at
    a time.  For a_t it tries each exponent v that the generators have
    there, in increasing order, and keeps the divisors with g_t <= v
    (`below`).  Divisors only shrink as more variables are fixed, so a
    prefix is cut as soon as some field fixed at v > 0 has no divisor with
    g_t = v left (`exact`); the fields fixed before are checked again only
    when this variable removed a divisor.  Once no divisor is removed, no
    larger v has one with g_t = v, so the values stop there.  Every prefix
    kept extends to a lattice point of its own (each later a_t the largest
    exponent among its divisors), so no level holds more prefixes than the
    lattice has points.  A column on which every generator agrees takes
    the same rule: its one value keeps every divisor, so it is pushed once
    and the values stop there, and a common factor costs one stack level.
    """
    field = (1 << width) - 1
    columns = []  # one list of (v << shift, below, exact) per variable
    for shift in range(0, guards.bit_length(), width):
        exps = [g >> shift & field for g in gens]
        columns.append([(v << shift,
                         sum(1 << j for j, e in enumerate(exps) if e <= v),
                         sum(1 << j for j, e in enumerate(exps) if e == v))
                        for v in sorted(set(exps))])
    lattice: dict[int, int] = {}
    stack = [(0, 0, (1 << len(gens)) - 1, ())]  # (columns fixed, a, divisors, exact masks)
    while stack:
        depth, alpha, divisors, met = stack.pop()
        if depth == len(columns):
            lattice[alpha] = divisors
            continue
        for value, below, exact in columns[depth]:
            kept = divisors & below
            # at v = 0, exact is below, so the first test asks only for a divisor
            if kept & exact and (kept == divisors or all(kept & e for e in met)):
                stack.append((depth + 1, alpha | value, kept, met + (exact,) if value else met))
            if kept == divisors:
                break
    return lattice


def _koszul_slack(gens: list[int], alpha: int, divisors: int, guards: int, width: int) -> set[int]:
    """The slack masks of K^alpha, as masks of guard bits, from its divisor mask.

    A squarefree b on supp(alpha) is a face exactly when some generator g
    divides x^(alpha-b): when g is a divisor of x^alpha and b lies in its
    slack mask {t : alpha_t > g_t}.  With one taken from every field in
    advance, (alpha | H) - 1 - g borrows across no field for a divisor g
    and keeps field t's guard bit exactly when alpha_t > g_t, so each
    divisor costs one packed subtraction.
    """
    top = (alpha | guards) - (guards >> (width - 1))
    masks = set()
    while divisors:
        low = divisors & -divisors
        masks.add((top - gens[low.bit_length() - 1]) & guards)
        divisors ^= low
    return masks


def _is_cone(masks) -> bool:
    """Whether one vertex lies in every facet, the maximal given masks.

    Largest card first, a mask is a facet unless it lies in a facet
    already kept.  The AND of the facets kept so far only shrinks, so the
    answer is no as soon as it reaches 0.
    """
    facets: list[int] = []
    apex = -1
    for mask in sorted(masks, key=int.bit_count, reverse=True):
        if all(mask & facet != mask for facet in facets):
            apex &= mask
            if not apex:
                return False
            facets.append(mask)
    return True


def _closure(masks, link):
    """Every submask of the given masks that lies in no mask of the link,
    with its boundary row, one card at a time from the top card down.

    The faces kept are the relative complex of the closure of `masks`
    modulo the subcomplex the link masks span; an empty link keeps the
    whole closure, the empty face included.  Each card yielded maps each
    kept face of card c to its boundary over the kept faces of card c-1:
    the masks one bit smaller, lowest removed bit first, signed +1, -1,
    +1, ...  A face inside a link mask has every submask there too, so it
    is tested once per card, left out of every row and never expanded.
    Each kept face's row is built as the face is expanded into the card
    below, so each face is expanded once, and a card's face set is dropped
    as its rows are yielded.
    """
    faces = [set() for _ in range(max(map(int.bit_count, masks), default=-1) + 1)]
    for mask in masks:
        if all(mask & m != mask for m in link):
            faces[mask.bit_count()].add(mask)
    for card in range(len(faces) - 1, -1, -1):
        rows, below, kept = {}, faces[card - 1] if card else set(), {}
        for face in faces.pop():
            row = rows[face] = {}
            sign, rest = 1, face
            while rest:
                low = rest & -rest
                target = face ^ low
                if target not in kept:
                    kept[target] = all(target & m != target for m in link)
                if kept[target]:
                    row[target] = sign
                sign, rest = -sign, rest ^ low
            below.update(row)
        yield rows


def _shape(masks, n: int, width: int) -> tuple[int, ...]:
    """The given masks of guard bits relabeled onto bits 0..k-1, sorted.

    The k guard bits the masks use go to bits 0, 1, ..., k-1 in increasing
    order.  The relabel keeps the order of the vertices, so the complex
    the masks span keeps its faces, cards and boundary signs, and equal
    shapes have equal homology; it also keeps the order of the masks, so
    they are sorted first, packed one to a slot of n*width bits, and
    relabeled together with one shift and mask per field used.
    """
    ordered = sorted(masks)
    slot = n * width
    packed = used = 0
    for mask in reversed(ordered):
        packed = packed << slot | mask
        used |= mask
    ones = ((1 << slot * len(ordered)) - 1) // ((1 << slot) - 1)  # bit 0 of every slot
    out = k = 0
    for s in range(width - 1, used.bit_length(), width):
        if used >> s & 1:
            out |= packed >> (s - k) & ones << k  # guard bit s goes to bit k
            k += 1
    low = (1 << k) - 1
    return tuple(out >> s & low for s in range(0, slot * len(ordered), slot))


def graded_betti(I: MonomialIdeal) -> BettiTable:
    """Graded Betti numbers via homology of upper-Koszul complexes over the lcm lattice.

    Only the variables some generator uses are packed, and their count
    places the fields that the shapes and the degrees read.  A cone is
    skipped; any other K^alpha is ranked through its shape, and each
    distinct shape is ranked once per call, as the relative complex (del
    v, lk v) at its busiest vertex v, which has the reduced homology of
    the shape.  Only the shape (0,), K = {empty face}, has no vertex;
    there the link is empty and the walk ranks the whole complex.
    """
    if _instance(I, MonomialIdeal, "ideal").is_unit:
        raise UnitIdealError("the unit ideal has nothing to resolve")
    # a variable no generator uses changes no Betti number
    used = [column for column in zip(*(g.exponents for g in I.gens)) if any(column)]
    gens, guards, width = _packed(list(zip(*used)))
    n, field = len(used), (1 << width) - 1
    ranked: dict[tuple[int, ...], list[int]] = {}  # shape -> reduced ranks, this call only
    table: dict[tuple[int, int], int] = {}
    for alpha, divisors in lcm_lattice(gens, guards, width).items():
        # alpha is a multiple of some generator, so there is at least one facet
        slack = _koszul_slack(gens, alpha, divisors, guards, width)
        if _is_cone(slack):
            continue  # a vertex in every facet: K^alpha is acyclic
        shape = _shape(slack, n, width)
        homology = ranked.get(shape)
        if homology is None:
            # the pair (deletion, link) at the vertex in the most masks, lowest on ties
            v = 1 << max(range(shape[-1].bit_length()), default=0,
                         key=lambda b: sum(m >> b & 1 for m in shape))
            homology = ranked[shape] = _reduced_ranks(_closure(
                [m for m in shape if not m & v], [m ^ v for m in shape if m & v]))
        deg = sum(alpha >> s & field for s in range(0, n * width, width))
        for i, h in enumerate(homology):
            if h:
                table[(i, deg)] = table.get((i, deg), 0) + h
    return BettiTable.from_dict(table)


def taylor_strand_betti(I: MonomialIdeal) -> BettiTable:
    """The same table from the multigraded strands of the Taylor complex.

    Subsets of the generating set are graded by their lcm; within one
    multidegree the surviving boundary maps have coefficients +-1 exactly
    where dropping a generator keeps the lcm.  The homology of that strand
    in subset-size p gives the Betti number at homological index p - 1.
    Each strand is walked as a relative complex: the subsets of the
    divisors of x^alpha that lie in no set L_t of divisors g with g_t <
    alpha_t, for the variables t of alpha.
    """
    if _instance(I, MonomialIdeal, "ideal").is_unit:
        raise UnitIdealError("the unit ideal has nothing to resolve")
    gens = [g.exponents for g in I.gens]
    m = len(gens)
    if m > TAYLOR_GENERATOR_LIMIT:
        raise OracleUnavailableError(
            f"Taylor oracle gated to {TAYLOR_GENERATOR_LIMIT} generators, got {m}"
        )
    lcm_of = [()] * (1 << m)
    for mask in range(1, 1 << m):
        low = mask & -mask
        t = low.bit_length() - 1
        rest = mask ^ low
        lcm_of[mask] = gens[t] if rest == 0 else tuple(map(max, lcm_of[rest], gens[t]))
    table: dict[tuple[int, int], int] = {}
    for alpha in set(lcm_of[1:]):
        deg = sum(alpha)
        divisors = [j for j, g in enumerate(gens) if all(x <= y for x, y in zip(g, alpha))]
        short = [sum(1 << j for j in divisors if gens[j][t] < a) for t, a in enumerate(alpha) if a]
        strand = _closure([sum(1 << j for j in divisors)], short)
        # the subsets of size p sit at homological index p - 1
        for i, h in enumerate(_reduced_ranks(strand), start=-1):
            if h:
                table[(i, deg)] = table.get((i, deg), 0) + h
    return BettiTable.from_dict(table)


def has_linear_resolution(I: MonomialIdeal) -> bool:
    """Equigenerated in degree d with every Betti entry on the strand j = i + d.

    The whole table is computed, whatever the answer, so the cost does not
    depend on where the first entry off the strand lies.  The unit ideal
    counts as having a linear resolution.
    """
    if _instance(I, MonomialIdeal, "ideal").is_unit:
        return True
    d = I.is_equigenerated()
    if d is None:
        return False
    return graded_betti(I).is_linear(d)
