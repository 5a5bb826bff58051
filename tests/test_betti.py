import itertools
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import comb
from operator import and_, gt, le, or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import polymat as pm
from conftest import I, M, random_ideal, small_ideals, squarefree_veronese, veronese
from polymat import betti

# The minimal triangulation of the real projective plane: rational
# homology vanishes, but its integral boundary matrix has the elementary
# divisor 2, so integer elimination meets a pivot that is not +-1.
RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def vertex_masks(facets) -> list[int]:
    """Facets given as vertex tuples, as masks over the vertices."""
    return [sum(1 << v for v in facet) for facet in facets]


def homology_ranks(facets) -> list[int]:
    """Reduced homology ranks of the complex with these facets (index k is
    dimension k-1), through the mask route graded_betti takes; no facets
    at all give the void complex."""
    return betti._reduced_ranks(betti._closure(vertex_masks(facets), ()))


def faces_of(masks) -> set[int]:
    """Every submask of some given mask, the empty mask included when any
    mask is given: one submask walk per mask (the former production
    enumerator), so shared faces are visited again."""
    faces = set()
    for f in masks:
        s = f
        while s:
            faces.add(s)
            s = (s - 1) & f
        faces.add(0)
    return faces


def maximal(masks) -> set[int]:
    """The given masks that lie in no other given mask."""
    masks = set(masks)
    return {f for f in masks if not any(f != h and f & h == f for h in masks)}


def all_faces(cards: list[dict[int, dict[int, int]]]) -> set[int]:
    """The faces of a complex given by card as {face: boundary row}, as one set."""
    return set().union(*cards)


def faces_by_card(cards: list[dict[int, dict[int, int]]]) -> dict[int, set[int]]:
    """The faces of each card, without their rows, from the cards top card
    first down to card 0."""
    return {len(cards) - 1 - k: set(rows) for k, rows in enumerate(cards)}


def signed_boundary(face: int) -> dict[int, int]:
    """The masks one bit smaller, signed +1, -1, +1, ... by the place of the
    removed bit from the lowest up, written out bit by bit."""
    bits = [b for b in range(face.bit_length()) if face >> b & 1]
    return {face ^ (1 << b): (-1) ** t for t, b in enumerate(bits)}


def fraction_rank(rows: list[list[int]]) -> int:
    """Rank by straightforward Gaussian elimination over Fraction."""
    frac = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(len(frac[0]) if frac else 0):
        piv = next((i for i in range(r, len(frac)) if frac[i][c]), None)
        if piv is None:
            continue
        frac[r], frac[piv] = frac[piv], frac[r]
        for i in range(r + 1, len(frac)):
            f = frac[i][c] / frac[r][c]
            for j in range(c, len(frac[0])):
                frac[i][j] -= f * frac[r][j]
        r += 1
        if r == len(frac):
            break
    return r


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank by dense Bareiss fraction-free elimination (the former production rank)."""
    mat = [list(r) for r in rows]
    m = len(mat)
    ncols = len(mat[0]) if m else 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        p = next((i for i in range(r, m) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
        piv = mat[r][c]
        for i in range(r + 1, m):
            row = mat[i]
            top = mat[r]
            mic = row[c]
            for j in range(c + 1, ncols):
                row[j] = (piv * row[j] - mic * top[j]) // prev
            row[c] = 0
        prev = piv
        r += 1
    return r


def sparse_rows(mat: list[list[int]]) -> list[dict[int, int]]:
    """The rows of a dense matrix as the {column: value} rows integer_rank takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in mat]


def dense(rows: list[dict[int, int]]) -> list[list[int]]:
    """Sparse rows as a dense matrix, one column per key used, in key order."""
    keys = sorted(set().union(*rows))
    return [[row.get(j, 0) for j in keys] for row in rows]


# the rank routine itself, which the ranked fixture leaves unpatched here
integer_rank = betti.integer_rank


def rank(mat: list[list[int]]) -> int:
    """integer_rank of a dense matrix: its number of pivot rows."""
    return len(integer_rank(sparse_rows(mat)))


def boundary_matrix(by_card: dict[int, set[int]], card: int) -> list[list[int]]:
    """The whole boundary matrix card -> card-1, without clearing: rows the
    faces of card-1, columns those of card, each in increasing order, with
    the signs of signed_boundary wherever the target is a face."""
    index = {f: i for i, f in enumerate(sorted(by_card.get(card - 1, ())))}
    cols = sorted(by_card.get(card, ()))
    mat = [[0] * len(cols) for _ in index]
    for c, face in enumerate(cols):
        for target, sign in signed_boundary(face).items():
            if target in index:
                mat[index[target]][c] = sign
    return mat


def taylor_strands(ideal: pm.MonomialIdeal) -> dict[tuple[int, ...], set[int]]:
    """The non-empty subsets of the generators, as masks, grouped by their lcm."""
    exps = [g.exponents for g in ideal.gens]
    strands: dict[tuple[int, ...], set[int]] = {}
    for mask in range(1, 1 << len(exps)):
        chosen = [e for t, e in enumerate(exps) if mask >> t & 1]
        strands.setdefault(tuple(map(max, zip(*chosen))), set()).add(mask)
    return strands


def taylor_pair(ideal: pm.MonomialIdeal, alpha) -> tuple[list[int], list[int]]:
    """The Taylor strand at alpha as the arguments of the relative walk:
    [D], D the mask of the generators dividing x^alpha, and the masks
    L_t = {g in D : g_t < alpha_t}, one for each t with alpha_t > 0."""
    exps = [g.exponents for g in ideal.gens]
    divisors = {j for j, e in enumerate(exps) if all(map(le, e, alpha))}
    short = [{j for j in divisors if exps[j][t] < a} for t, a in enumerate(alpha) if a > 0]
    return [sum(1 << j for j in divisors)], [sum(1 << j for j in lower) for lower in short]


def busiest_pair(masks) -> tuple[list[int], list[int]]:
    """The pair (deletion, link) at the vertex in the most masks, lowest on
    ties, as the arguments of the relative walk: the masks without the
    vertex, and the masks with it less the vertex, in the given order.
    With no vertex in any mask, the vertex is bit 0 and the link is empty."""
    counts = Counter(b for m in masks for b in range(m.bit_length()) if m >> b & 1)
    top = max(counts.values(), default=0)
    v = 1 << min((b for b, c in counts.items() if c == top), default=0)
    return [m for m in masks if not m & v], [m ^ v for m in masks if m & v]


def koszul_slacks(ideal: pm.MonomialIdeal) -> list[set[int]]:
    """The slack masks of K^alpha at every lcm-lattice point, cones included."""
    gens, guards, width = betti._packed([g.exponents for g in ideal.gens])
    return [betti._koszul_slack(gens, alpha, divisors, guards, width)
            for alpha, divisors in betti.lcm_lattice(gens, guards, width).items()]


def brute_force_faces(gens, alpha) -> set[int]:
    """Faces of K^alpha by testing every squarefree mask on supp(alpha) against
    every generator (the former production enumerator), as variable bitmasks."""
    supp = [i for i, a in enumerate(alpha) if a > 0]
    faces = set()
    for bits in range(1 << len(supp)):
        mask = sum(1 << i for t, i in enumerate(supp) if bits >> t & 1)
        resid = [a - (mask >> i & 1) for i, a in enumerate(alpha)]
        if any(all(ge <= re for ge, re in zip(g, resid)) for g in gens):
            faces.add(mask)
    return faces


def brute_force_is_cone(faces: set[int], alpha) -> bool:
    """Some vertex whose join with every face is a face (the former cone test)."""
    return any(
        all(f | 1 << t in faces for f in faces) for t, a in enumerate(alpha) if a > 0
    )


def join_closure(gens: list[int], guards: int, width: int) -> set[int]:
    """The packed generators closed under the guard-bit join, one generator
    at a time (the former production lattice): the lattice of the first
    generators and g gains g and the join of g with each point so far.  In
    the join, d marks the fields with a_t >= g_t and m = d - (d >> (w-1))
    fills the w-1 bits under each mark."""
    shift = width - 1
    lattice: set[int] = set()
    for g in gens:
        joins = {g}
        for a in lattice:
            d = ((a | guards) - g) & guards
            m = d - (d >> shift)
            joins.add((a & m) | (g & ~m))
        lattice |= joins
    return lattice


def divisor_mask(exps, alpha) -> int:
    """The generators dividing x^alpha, as a mask over their places in exps."""
    return sum(1 << j for j, e in enumerate(exps) if all(map(le, e, alpha)))


def tuple_lcm_lattice(exps) -> set[tuple[int, ...]]:
    """Coordinatewise maxima of every non-empty subset of the exponent vectors."""
    return {
        tuple(max(column) for column in zip(*subset))
        for r in range(1, len(exps) + 1)
        for subset in itertools.combinations(exps, r)
    }


def unpack(packed: int, n: int, width: int) -> tuple[int, ...]:
    """The exponent vector of a packed int with fields of `width` bits."""
    return tuple(packed >> (t * width) & ((1 << width) - 1) for t in range(n))


def variable_bits(mask: int, width: int) -> int:
    """A mask of guard bits read back as a mask over the variables: guard bit
    t*width + width - 1 stands for variable t."""
    bits = [b for b in range(mask.bit_length()) if mask >> b & 1]
    assert all(b % width == width - 1 for b in bits), (bin(mask), width)
    return sum(1 << (b // width) for b in bits)


def relabeled(slack, width: int) -> tuple[int, ...]:
    """Slack masks over the guard bits, read back over the variables, with
    the variables they use renumbered 0, 1, ... in increasing order: the
    shape of the complex, as a sorted tuple, written out variable by variable."""
    masks = [variable_bits(f, width) for f in slack]
    used = [t for t in range(max(masks).bit_length()) if any(m >> t & 1 for m in masks)]
    return tuple(sorted(sum(1 << k for k, t in enumerate(used) if m >> t & 1) for m in masks))


def times(n: int, factor: tuple[int, ...], ideal: pm.MonomialIdeal) -> pm.MonomialIdeal:
    """The ideal x^factor * J in n variables, J's variables coming after the
    factor's; the variables past both stay unused."""
    rest = (0,) * (n - len(factor) - ideal.n)
    return pm.MonomialIdeal(n, [pm.Monomial(factor + g.exponents + rest) for g in ideal.gens])


def non_cone_slacks(ideal: pm.MonomialIdeal) -> list[set[int]]:
    """The slack masks of K^alpha at every lattice point that is not a cone."""
    return [slack for slack in koszul_slacks(ideal) if not betti._is_cone(slack)]


# exponents either side of a field-width step: 0, 2^k - 1 and 2^k
boundary_exponents = st.one_of(
    st.integers(0, 3),
    st.builds(lambda k, below: 2**k - below, st.integers(1, 9), st.sampled_from([0, 1])),
)


six_bit_masks = st.integers(0, 2**6 - 1)


@st.composite
def exponent_pairs(draw):
    n = draw(st.integers(1, 5))
    vector = st.tuples(*[boundary_exponents] * n)
    return draw(vector), draw(vector)


@st.composite
def lattice_inputs(draw):
    """Up to 7 non-zero exponent vectors for a lattice walk, repeats
    allowed: mixed degrees with exponents either side of a field-width
    step, where each column is free, all zero or shared by every vector;
    or squarefree vectors in 33 to 40 variables, so the packed width is
    over 64 bits."""
    if draw(st.booleans()):
        n = draw(st.integers(33, 40))
        supports = st.sets(st.integers(0, n - 1), min_size=1, max_size=4)
        return [tuple(int(t in s) for t in range(n))
                for s in draw(st.lists(supports, min_size=1, max_size=7))]
    n = draw(st.integers(1, 5))
    columns = [draw(st.one_of(st.none(), st.just(0), boundary_exponents)) for _ in range(n)]
    columns[draw(st.integers(0, n - 1))] = None  # a free column, so a vector can be non-zero
    vector = st.tuples(*[boundary_exponents if c is None else st.just(c) for c in columns])
    return draw(st.lists(vector.filter(any), min_size=1, max_size=7))


def random_mixed_ideal(rng: random.Random) -> pm.MonomialIdeal:
    """Generators of mixed degrees with exponents up to 3, so mostly not squarefree."""
    n = rng.randint(1, 5)
    vecs = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 7))}
    vecs.discard((0,) * n)
    return pm.MonomialIdeal(n, [pm.Monomial(v) for v in vecs or {(1,) * n}])


def low_rank_product(rng: random.Random) -> list[list[int]]:
    """A product of random integer factors, so its rank is at most the inner size."""
    rows, inner, cols = rng.randint(1, 7), rng.randint(1, 4), rng.randint(1, 7)
    left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(rows)]
    right = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(inner)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]


def herzog_takayama_betti(seq) -> pm.BettiTable:
    """Betti table of the ideal of an equigenerated sequence u_1 > ... > u_m
    with linear quotients, without homology (Herzog-Takayama, Resolutions by
    mapping cones, 2002): beta_{i,i+d} = sum_j C(r_j, i), where r_j variables
    generate (u_1, ..., u_{j-1}) : u_j, and every other entry is 0."""
    d = seq[0].degree
    assert all(u.degree == d for u in seq) and pm.has_linear_quotients(seq), seq
    table = Counter()
    for j, u in enumerate(seq):
        colons = (pm.colon_monomial(v, u) for v in seq[:j])
        r = len({c.support for c in colons if c.degree == 1})
        for i in range(r + 1):
            table[i, i + d] += comb(r, i)
    return pm.BettiTable.from_dict(table)


@st.composite
def squarefree_veronese_products(draw):
    """A product of one to three squarefree Veronese ideals (polymatroidal),
    with an induced order under which its generators have linear quotients."""
    n = draw(st.integers(1, 4))
    ks = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    ideal = reduce(lambda a, b: a * b, [squarefree_veronese(n, k) for k in ks])
    order = pm.VariableOrder(tuple(draw(st.permutations(range(1, n + 1)))))
    return ideal, draw(st.sampled_from(["lex", "revlex"])), order


@pytest.fixture
def gcd_calls(monkeypatch):
    """Counts integer_rank's fraction-free combinations, the only place it takes a gcd."""
    calls = []
    real_gcd = betti.gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(betti, "gcd", counting_gcd)
    return calls


@pytest.fixture
def ranked(monkeypatch):
    """A copy of every list of rows the library passes to integer_rank while
    the test runs, taken before the rows are reduced in place."""
    seen = []
    monkeypatch.setattr(
        betti, "integer_rank",
        lambda rows: seen.append([dict(r) for r in rows]) or integer_rank(rows),
    )
    return seen


class TestIntegerRank:
    def test_empty(self):
        assert integer_rank([]) == {}
        assert "integer_rank" not in pm.__all__

    def test_identity(self):
        assert integer_rank(sparse_rows([[1, 0], [0, 1]])) == {0: {0: 1}, 1: {1: 1}}

    def test_dependent_rows(self):
        assert rank([[1, 2, 3], [2, 4, 6], [1, 1, 1]]) == 2

    def test_agrees_with_fractions(self):
        rng = random.Random(3)
        for _ in range(40):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            assert rank(mat) == fraction_rank(mat) == bareiss_rank(mat)

    def test_low_rank_products_agree_with_fractions(self, gcd_calls):
        # unit pivots run out on these, so the fraction-free branch must carry them
        rng = random.Random(5)
        for _ in range(300):
            mat = low_rank_product(rng)
            assert rank(mat) == fraction_rank(mat)
        assert gcd_calls

    def test_projective_plane_boundaries(self, gcd_calls, ranked):
        assert homology_ranks(RP2_FACETS) == [0, 0, 0, 0]
        # (rows, columns) of each card, top card first; clearing leaves 5 of
        # the 15 edges, 1 of the 6 vertices and not the empty face
        assert [(len(rows), len(set().union(*rows))) for rows in ranked] == [
            (10, 15), (5, 6), (1, 1), (0, 0)
        ]
        for rows in ranked:
            mat = dense(rows)
            transposed = [list(col) for col in zip(*mat)]
            assert rank(mat) == fraction_rank(mat) == fraction_rank(transposed)
            assert rank(transposed) == fraction_rank(mat)
        # the divisor 2 shows only in the transposed orientation: there the
        # top boundary meets a pivot that is not +-1
        assert gcd_calls

    def test_agrees_with_bareiss_on_koszul_boundaries(self, ranked):
        rng = random.Random(9)
        for _ in range(40):
            betti.graded_betti(random_mixed_ideal(rng))
        betti.graded_betti(veronese(4, 2))
        assert len(ranked) > 100
        for rows in ranked:
            expected = bareiss_rank(dense(rows))  # before integer_rank reduces the rows
            assert len(integer_rank(rows)) == expected


class TestClearing:
    """Ranks from the top card down with clearing against the whole boundary
    matrices, built here without it."""

    def test_ranks_match_whole_boundary_matrices(self, monkeypatch):
        ranks = []  # the rank of each integer_rank call, top card first

        def counted(rows):
            pivots = integer_rank(rows)
            ranks.append(len(pivots))
            return pivots

        monkeypatch.setattr(betti, "integer_rank", counted)
        rng = random.Random(9)
        ideals = [random_mixed_ideal(rng) for _ in range(40)]
        complexes = [list(betti._closure(slack, ())) for ideal in ideals + [veronese(4, 2)]
                     for slack in koszul_slacks(ideal)]
        complexes += [
            list(betti._closure(vertex_masks(facets), ()))
            for facets in (RP2_FACETS, list(itertools.combinations(range(4), 3)))
        ]
        # relative complexes: the pair graded_betti ranks at each non-cone
        # point, and each Taylor strand
        pairs = [list(betti._closure(*busiest_pair(sorted(slack))))
                 for ideal in ideals + [veronese(4, 2)] for slack in non_cone_slacks(ideal)]
        strands = [list(betti._closure(*taylor_pair(ideal, alpha)))
                   for ideal in ideals for alpha in taylor_strands(ideal)]
        for cards in complexes + pairs + strands:
            by_card = faces_by_card(cards)
            whole = [0] + [bareiss_rank(boundary_matrix(by_card, card))
                           for card in range(1, len(cards))] + [0]
            ranks.clear()
            assert betti._reduced_ranks(cards) == [
                len(by_card[card]) - whole[card] - whole[card + 1] for card in range(len(cards))
            ]
            # card 0 is ranked too, and its boundary has rank 0
            assert ranks == whole[-2::-1]

    def test_cleared_faces_are_not_ranked(self, ranked):
        ideal = veronese(4, 2)
        betti.graded_betti(ideal)
        # the non-empty faces of every K^alpha that is not a cone
        faces = sum(len(all_faces(betti._closure(slack, ()))) - 1
                    for slack in koszul_slacks(ideal) if not betti._is_cone(slack))
        assert 0 < sum(map(len, ranked)) < faces

    def test_exactly_the_uncleared_faces_are_ranked(self, monkeypatch):
        # each card, top card first, ranks the rows of its faces, in
        # increasing face order, except the faces that lead a pivot of the
        # card above
        calls = []  # (the ids of the rows given, the pivots found), top card first

        def recorded(rows):
            calls.append((list(map(id, rows)), integer_rank(rows)))
            return calls[-1][1]

        monkeypatch.setattr(betti, "integer_rank", recorded)
        rng = random.Random(9)
        slacks = [slack for _ in range(40) for slack in koszul_slacks(random_mixed_ideal(rng))]
        cleared_some = False
        for cards in [list(betti._closure(slack, ())) for slack in slacks
                      if not betti._is_cone(slack)] + [
            list(betti._closure(*busiest_pair(sorted(slack)))) for slack in slacks
            if not betti._is_cone(slack)
        ] + [list(betti._closure(vertex_masks(RP2_FACETS), ()))]:
            face_of = {id(row): face for rows in cards for face, row in rows.items()}
            calls.clear()
            betti._reduced_ranks(cards)
            assert len(calls) == len(cards)
            pivots: dict = {}
            for rows, (ids, found) in zip(cards, calls):
                assert [face_of[i] for i in ids] == sorted(set(rows) - set(pivots))
                cleared_some |= bool(pivots)
                pivots = found
        assert cleared_some


class TestKoszulFaces:
    def test_facet_faces_match_brute_force(self):
        # every lcm-lattice point of mixed-degree, non-squarefree ideals; the
        # packed points and guard-bit facets are read back as tuples and
        # masks over the variables
        rng = random.Random(11)
        cones = nested = points = 0
        for _ in range(150):
            ideal = random_mixed_ideal(rng)
            exps = [g.exponents for g in ideal.gens]
            gens, guards, width = betti._packed(exps)
            lattice = betti.lcm_lattice(gens, guards, width)
            assert {unpack(a, ideal.n, width) for a in lattice} == tuple_lcm_lattice(exps)
            for packed_alpha, divisors in lattice.items():
                alpha = unpack(packed_alpha, ideal.n, width)
                slack = betti._koszul_slack(gens, packed_alpha, divisors, guards, width)
                faces = brute_force_faces(exps, alpha)
                assert {variable_bits(f, width) for f in all_faces(betti._closure(slack, ()))} \
                    == faces
                assert {variable_bits(f, width) for f in maximal(slack)} == maximal(faces)
                cone = brute_force_is_cone(faces, alpha)
                assert betti._is_cone(slack) == cone
                cones += cone
                nested += len(slack - maximal(slack))
                points += 1
        # both branches the benchmark ideals never take: a slack mask inside
        # another one, and a cone
        assert nested > 0
        assert 0 < cones < points

    def test_graded_betti_skips_exactly_the_cones(self, monkeypatch):
        # Veronese (5,2): a cone at 131 of its 237 lattice points, named here
        # by the AND of the brute-force facets over the variables.  Exactly
        # the other 106 slack sets are shaped, and each of their 17 distinct
        # shapes is closed once
        ideal = veronese(5, 2)
        exps = [g.exponents for g in ideal.gens]
        gens, guards, width = betti._packed(exps)
        cones, others = [], []
        for alpha, divisors in betti.lcm_lattice(gens, guards, width).items():
            facets = maximal(brute_force_faces(exps, unpack(alpha, ideal.n, width)))
            slack = frozenset(betti._koszul_slack(gens, alpha, divisors, guards, width))
            (cones if reduce(and_, facets) else others).append(slack)
        assert (len(cones), len(others)) == (131, 106)
        shaped, closed = [], []
        shape, closure = betti._shape, betti._closure
        monkeypatch.setattr(betti, "_shape", lambda masks, n, width: shaped.append(
            frozenset(masks)) or shape(masks, n, width))
        monkeypatch.setattr(betti, "_closure", lambda masks, link: closed.append(
            (tuple(masks), tuple(link))) or closure(masks, link))
        betti.graded_betti(ideal)
        assert Counter(shaped) == Counter(others)
        # each shape closed as its pair at the busiest vertex
        expected = {relabeled(slack, width) for slack in others}
        assert Counter(closed) == Counter(
            tuple(map(tuple, busiest_pair(shape))) for shape in expected)
        assert len(closed) == 17

    @pytest.mark.parametrize("ideal, counts", [
        (squarefree_veronese(10, 3), (968, 0, 8)),
        (times(10, (1,), squarefree_veronese(9, 3)), (466, 0, 7)),
        (times(6, (1, 1), veronese(4, 2)), (76, 33, 11)),
        (times(40, (), squarefree_veronese(6, 3)), (42, 0, 4)),
        (pm.remark_ideal(), (12, 3, 3)),
    ], ids=["sqfree-veronese-10-3", "x1-sqfree-veronese-9-3", "x1x2-veronese-4-2",
            "sqfree-veronese-6-3-in-40", "remark"])
    def test_graded_betti_visits_pinned_counts(self, monkeypatch, ideal, counts):
        # (lattice points, cones skipped, shapes closed) of one call: a common
        # factor and unused variables add no point, and the walk no work
        points, cones, closed = [], [], []
        lattice, is_cone, closure = betti.lcm_lattice, betti._is_cone, betti._closure
        monkeypatch.setattr(betti, "lcm_lattice", lambda *args: points.append(
            lattice(*args)) or points[-1])
        monkeypatch.setattr(betti, "_is_cone", lambda masks: cones.append(
            is_cone(masks)) or cones[-1])
        monkeypatch.setattr(betti, "_closure", lambda masks, link: closed.append(
            None) or closure(masks, link))
        betti.graded_betti(ideal)
        assert (len(points[0]), sum(cones), len(closed)) == counts
        assert len(points) == 1

    @given(exponent_pairs())
    @settings(max_examples=300, deadline=None)
    def test_packed_join_and_compare_match_tuples(self, pair):
        a, g = pair
        joined = tuple(map(max, a, g))
        (pa, pg, pj), guards, width = betti._packed([a, g, joined])
        assert width == max(joined).bit_length() + 1
        # the closure of {a, g} under the packed join adds exactly max(a, g)
        assert join_closure([pa, pg], guards, width) == {pa, pg, pj}
        lattice = betti.lcm_lattice([pa, pg], guards, width)
        assert set(lattice) == {pa, pg, pj}
        assert lattice[pj] == 0b11
        # the other generator leaves a slack mask beside alpha's own 0
        # exactly when it divides x^alpha
        bits = [1 << t for t in range(len(a))]
        for alpha, gen, p_alpha in ((a, g, pa), (g, a, pg)):
            divisors = lattice[p_alpha]
            assert divisors == divisor_mask([a, g], alpha)
            slack = betti._koszul_slack([pa, pg], p_alpha, divisors, guards, width)
            expected = {sum(compress(bits, map(gt, alpha, gen)))}
            assert {variable_bits(f, width) for f in slack} == {0} | (
                expected if all(map(le, gen, alpha)) else set()
            )

    @given(lattice_inputs())
    @example([(2, 3, 1)])  # one generator
    @example([(0, 1, 2), (0, 2, 1), (0, 3, 3)])  # an all-zero column
    @example([(2, 1, 0, 3), (2, 0, 1, 1), (2, 3, 3, 0)])  # a shared column
    @example([(1, 2, 0), (0, 1, 1)])  # the field fixed first loses its only witness
    @example([tuple(int(t in s) for t in range(34)) for s in ({0, 33}, {1, 33}, {0, 2}, {5})])
    @settings(max_examples=500, deadline=None)
    def test_lattice_walk_matches_join_closure(self, exps):
        gens, guards, width = betti._packed(exps)
        lattice = betti.lcm_lattice(gens, guards, width)
        points = tuple_lcm_lattice(exps)
        assert set(lattice) == join_closure(gens, guards, width)
        assert {unpack(a, len(exps[0]), width) for a in lattice} == points
        assert len(lattice) == len(points)
        # each point carries exactly the generators dividing it
        for packed_alpha, divisors in lattice.items():
            assert divisors == divisor_mask(exps, unpack(packed_alpha, len(exps[0]), width))

    @given(st.lists(six_bit_masks, max_size=8), st.lists(six_bit_masks, max_size=8), st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_closure_matches_submask_oracle(self, masks, cuts, with_empty):
        # nested masks (each mask cut down by another), repeats and the empty mask
        masks = masks + [m & c for m, c in zip(masks, cuts)] + masks[:2] + [0] * with_empty
        cards = list(betti._closure(masks, ()))
        assert all_faces(cards) == faces_of(masks)
        # top card first, down to card 0
        assert all(f.bit_count() == len(cards) - 1 - k for k, rows in enumerate(cards)
                   for f in rows)
        # each row: exactly the one-bit-smaller masks, signed by place
        assert all(row == signed_boundary(f) for rows in cards for f, row in rows.items())
        assert betti._is_cone(masks) == bool(reduce(and_, maximal(masks), -1))

    def test_cone_test_takes_only_maximal_masks_as_facets(self):
        # the masks inside 0b111 would leave no vertex common to all of them
        assert betti._is_cone([0b111, 0b011, 0b100])
        assert betti._is_cone([0b011, 0b110, 0b010, 0b110])
        assert not betti._is_cone([0b1, 0b10, 0])
        assert not betti._is_cone([0])
        assert list(betti._closure([0b1, 0b10, 0], ())) == [{0b1: {0: 1}, 0b10: {0: 1}}, {0: {}}]
        assert list(betti._closure([0b11], ())) == [{0b11: {0b10: 1, 0b1: -1}},
                                                    {0b1: {0: 1}, 0b10: {0: 1}}, {0: {}}]
        assert list(betti._closure([], ())) == []

    def test_closure_yields_one_card_at_a_time_top_first(self):
        # a generator: the top card comes out before any card below is built
        cards = betti._closure([0b111, 0b1000], ())
        assert iter(cards) is cards
        assert next(cards) == {0b111: {0b110: 1, 0b101: -1, 0b011: 1}}
        assert [sorted(rows) for rows in cards] == [
            [0b011, 0b101, 0b110], [0b1, 0b10, 0b100, 0b1000], [0]
        ]

    @given(st.lists(six_bit_masks, max_size=8), st.lists(six_bit_masks, max_size=6))
    @settings(max_examples=1000, deadline=None)
    def test_relative_walk_matches_submask_oracle(self, masks, link):
        cards = list(betti._closure(masks, link))
        kept = {f for f in faces_of(masks) if not any(f & m == f for m in link)}
        assert all_faces(cards) == kept
        # top card first, one card for each size from the largest mask down to 0
        assert len(cards) == max(map(int.bit_count, masks), default=-1) + 1
        assert all(f.bit_count() == len(cards) - 1 - k for k, rows in enumerate(cards)
                   for f in rows)
        # each row: the one-bit-smaller masks that are kept, signed by place
        assert all(row == {t: sign for t, sign in signed_boundary(f).items() if t in kept}
                   for rows in cards for f, row in rows.items())

    def test_relative_walk_signs_by_place(self):
        # 0b111 drops 0b110 (place 0, inside the link mask 0b110), keeps
        # 0b101 at place 1 (-1) and 0b011 at place 2 (+1); every face of
        # card 1 lies in a link mask, and so does the empty face
        assert list(betti._closure([0b111], [0b110, 0b001])) == [
            {0b111: {0b101: -1, 0b011: 1}}, {0b011: {}, 0b101: {}}, {}, {},
        ]

    def test_relative_walk_gives_each_taylor_strand(self):
        # the subsets of the generators dividing x^alpha that lie in no L_t
        # are exactly the subsets whose lcm is alpha
        rng = random.Random(9)
        ideals = [random_mixed_ideal(rng) for _ in range(40)] + [veronese(3, 3), pm.remark_ideal()]
        for ideal in ideals:
            for alpha, strand in taylor_strands(ideal).items():
                assert all_faces(betti._closure(*taylor_pair(ideal, alpha))) == strand, alpha

    @given(st.lists(six_bit_masks, min_size=1, max_size=8), st.booleans())
    @settings(max_examples=1000, deadline=None)
    def test_pair_at_busiest_vertex_ranks_as_whole_closure(self, masks, cone):
        # excision: for a vertex v of K, reduced H_i(K) = H_i(del v, lk v).
        # The pair's top card may lie below K's, where K has no homology
        if cone:
            masks = [m | 1 << 6 for m in masks]  # every mask holds vertex 6
        whole = betti._reduced_ranks(betti._closure(masks, ()))
        pair = betti._reduced_ranks(betti._closure(*busiest_pair(masks)))
        assert len(pair) <= len(whole)
        assert pair + [0] * (len(whole) - len(pair)) == whole


@st.composite
def guard_bit_masks(draw):
    """Masks over n variables, as a set, and the guard-bit masks standing
    for them at a field width w: variable t at bit t*w + w - 1."""
    n = draw(st.integers(1, 7))
    width = draw(st.integers(2, 5))
    masks = draw(st.sets(st.integers(0, 2**n - 1), min_size=1, max_size=10))
    guard = {sum(1 << (t * width + width - 1) for t in range(n) if m >> t & 1) for m in masks}
    return n, width, masks, guard


class TestShapeMemo:
    """graded_betti ranks each complex through its shape, once per call."""

    @pytest.mark.parametrize("ideal", [
        veronese(5, 2), veronese(4, 3), squarefree_veronese(7, 3), pm.remark_ideal(),
    ], ids=["veronese-5-2", "veronese-4-3", "sqfree-veronese-7-3", "remark"])
    def test_shape_ranks_equal_slack_ranks(self, ideal):
        width = betti._packed([g.exponents for g in ideal.gens])[2]
        slacks = non_cone_slacks(ideal)
        assert slacks
        for slack in slacks:
            shape = betti._shape(slack, ideal.n, width)
            assert shape == relabeled(slack, width)
            assert betti._reduced_ranks(betti._closure(shape, ())) == \
                betti._reduced_ranks(betti._closure(slack, ()))

    @given(st.one_of(small_ideals(), st.randoms(use_true_random=False).map(random_mixed_ideal)))
    @settings(max_examples=60, deadline=None)
    def test_shape_ranks_equal_slack_ranks_random(self, ideal):
        width = betti._packed([g.exponents for g in ideal.gens])[2]
        for slack in non_cone_slacks(ideal):
            assert betti._reduced_ranks(betti._closure(betti._shape(slack, ideal.n, width), ())) \
                == betti._reduced_ranks(betti._closure(slack, ()))

    @given(guard_bit_masks())
    @settings(max_examples=500, deadline=None)
    def test_shape_is_an_order_preserving_bijection_onto_range_k(self, case):
        n, width, masks, guard = case
        shape = betti._shape(guard, n, width)
        used = [t for t in range(n) if any(m >> t & 1 for m in masks)]
        label = {t: k for k, t in enumerate(used)}  # increasing, onto range(len(used))
        assert shape == tuple(sorted(sum(1 << label[t] for t in used if m >> t & 1)
                                     for m in masks))
        assert reduce(or_, shape) == (1 << len(used)) - 1
        assert len(set(shape)) == len(masks)

    def test_table_equals_the_ranks_of_every_slack_set(self):
        # no memo: each non-cone K^alpha closed and ranked on its own slack
        # masks.  Random (4,3) ideals of up to 14 generators have many
        # non-cone points, some of whose shapes differ in one mask only
        ideals = [random_ideal(random.Random(seed), 4, 3, 14) for seed in range(60)]
        for ideal in ideals + [veronese(5, 2), veronese(4, 3), squarefree_veronese(7, 3)]:
            gens, guards, width = betti._packed([g.exponents for g in ideal.gens])
            table = Counter()
            for alpha, divisors in betti.lcm_lattice(gens, guards, width).items():
                slack = betti._koszul_slack(gens, alpha, divisors, guards, width)
                if not betti._is_cone(slack):
                    deg = sum(unpack(alpha, ideal.n, width))
                    for i, h in enumerate(betti._reduced_ranks(betti._closure(slack, ()))):
                        table[i, deg] += h
            assert pm.graded_betti(ideal) == pm.BettiTable.from_dict(table), ideal

    def test_memo_lives_for_one_call(self, monkeypatch):
        # squarefree Veronese (7,3): 99 non-cone points of 5 shapes; a second
        # call closes all 5 again
        ideal = squarefree_veronese(7, 3)
        assert len(non_cone_slacks(ideal)) == 99
        closed = []
        closure = betti._closure
        monkeypatch.setattr(betti, "_closure", lambda masks, link: closed.append(
            (tuple(masks), tuple(link))) or closure(masks, link))
        table = betti.graded_betti(ideal)
        first = list(closed)
        assert len(first) == len(set(first)) == 5
        assert betti.graded_betti(ideal) == table
        assert sorted(closed[5:]) == sorted(first)


class TestReducedHomology:
    def test_hollow_triangle_is_a_circle(self):
        assert homology_ranks([(1, 2), (1, 3), (2, 3)]) == [0, 0, 1]

    def test_full_simplex_contractible(self):
        assert homology_ranks([(1, 2, 3)]) == [0, 0, 0, 0]

    def test_two_isolated_vertices(self):
        assert homology_ranks([(1,), (2,)]) == [0, 1]

    def test_empty_face_only(self):
        assert homology_ranks([()]) == [1]

    def test_void_complex(self):
        assert homology_ranks([]) == []

    def test_hollow_tetrahedron_is_a_sphere(self):
        facets = list(itertools.combinations(range(4), 3))
        assert homology_ranks(facets) == [0, 0, 0, 1]

    def test_closure_validation(self):
        # faces are built from facets, so they must come out closed under subsets
        for facets in (RP2_FACETS, list(itertools.combinations(range(4), 3)), [(1, 2), (3,)]):
            faces = all_faces(betti._closure(vertex_masks(facets), ()))
            assert faces == faces_of(vertex_masks(facets))
            assert 0 in faces
            assert all(set(signed_boundary(f)) <= faces for f in faces)


class TestGradedBetti:
    def test_two_variables(self):
        table = pm.graded_betti(I("x1 + x2"))
        assert table.as_dict() == {(0, 1): 2, (1, 2): 1}

    def test_veronese22(self):
        table = pm.graded_betti(I("x1^2 + x1*x2 + x2^2"))
        assert table.as_dict() == {(0, 2): 3, (1, 3): 2}

    def test_remark_ideal_table(self, remark_ideal):
        table = pm.graded_betti(remark_ideal)
        assert table.as_dict() == {(0, 3): 4, (1, 4): 4, (2, 5): 1}
        assert table.is_linear(3)

    def test_unit_ideal_rejected(self):
        with pytest.raises(pm.UnitIdealError):
            pm.graded_betti(pm.unit_ideal(2))

    def test_principal(self):
        assert pm.graded_betti(I("x1^2*x2", 3)).as_dict() == {(0, 3): 1}

    def test_no_result_cache(self, ranked):
        # a second call on the same ideal ranks its complexes again
        ideal = veronese(3, 2)
        table = pm.graded_betti(ideal)
        first = len(ranked)
        assert first > 0
        assert pm.graded_betti(ideal) == table
        assert len(ranked) == 2 * first

    def test_memory_holds_one_card_at_a_time(self):
        # squarefree Veronese (10,3): each card's rows are released once the
        # card is ranked, and each shape is ranked as its pair at the busiest
        # vertex, so a warm call peaks near 0.18 MB, its 968 lattice points
        # with their divisor masks included (0.12 MB with the points alone);
        # ranking the whole closure of each shape peaked at 0.34 MB, and
        # holding every card of a complex until all were ranked at 0.54 MB
        ideal = squarefree_veronese(10, 3)
        table = pm.graded_betti(ideal)
        tracemalloc.start()
        again = pm.graded_betti(ideal)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert again == table
        assert peak < 250_000, peak


class TestTaylorOracle:
    def test_same_examples(self, remark_ideal):
        for ideal in (I("x1 + x2"), I("x1^2 + x1*x2 + x2^2"), remark_ideal):
            assert pm.taylor_strand_betti(ideal) == pm.graded_betti(ideal)

    def test_power_of_two_exponents(self):
        # the largest exponent fills its field up to the guard bit: w = 4, then w = 5
        for text in (
            "x1^4*x2 + x1^2*x2^2*x3 + x2^4 + x2^3*x3^2 + x1*x3^4",
            "x1^8 + x1^5*x2^3 + x2^7*x3 + x1*x2*x3^6 + x3^8",
        ):
            ideal = I(text)
            table = pm.taylor_strand_betti(ideal)
            assert table == pm.graded_betti(ideal)
            assert max(i for i, _, _ in table.entries) == 2

    def test_unit_ideal_rejected(self):
        with pytest.raises(pm.UnitIdealError):
            pm.taylor_strand_betti(pm.unit_ideal(2))

    def test_gate(self):
        wide = pm.MonomialIdeal(13, pm.monomials_of_degree(13, 1).elems)
        with pytest.raises(pm.OracleUnavailableError):
            pm.taylor_strand_betti(wide)

    @given(small_ideals())
    @settings(max_examples=40, deadline=None)
    def test_agreement_random(self, ideal):
        assert pm.taylor_strand_betti(ideal) == pm.graded_betti(ideal)

    @pytest.mark.parametrize("n, d", [(4, 2), (3, 3)])
    def test_agreement_on_cone_heavy_veronese(self, n, d):
        # 10 generators each, under the gate, and most lattice points are cones
        ideal = veronese(n, d)
        assert len(ideal.gens) == 10 <= betti.TAYLOR_GENERATOR_LIMIT
        assert pm.taylor_strand_betti(ideal) == pm.graded_betti(ideal)


class TestHerzogTakayamaOracle:
    """Full tables of ideals with linear quotients against the mapping-cone
    formula, past the Taylor oracle's generator limit."""

    def test_squarefree_veronese_10_3(self):
        ideal = squarefree_veronese(10, 3)
        assert len(ideal.gens) > betti.TAYLOR_GENERATOR_LIMIT
        seq = pm.sort_generators(ideal, "lex", pm.VariableOrder.identity(10))
        assert pm.graded_betti(ideal) == herzog_takayama_betti(seq)

    def test_polymatroidal_corpora_and_localizations(self):
        ideals = set()
        for n, d in ((3, 2), (4, 2), (3, 3), (2, 4)):
            for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d)):
                if not pm.is_polymatroidal(item.ideal):
                    continue
                for r in range(n):
                    for off in itertools.combinations(range(1, n + 1), r):
                        local = item.ideal.localize(off)
                        if not local.is_unit and local.is_equigenerated() is not None:
                            ideals.add(local)
        assert len(ideals) == 295
        for ideal in ideals:
            seq = pm.sort_generators(ideal, "revlex", pm.VariableOrder.identity(ideal.n))
            assert pm.graded_betti(ideal) == herzog_takayama_betti(seq), ideal

    @given(squarefree_veronese_products())
    @settings(max_examples=40, deadline=None)
    def test_products_of_squarefree_veronese(self, case):
        ideal, kind, order = case
        seq = pm.sort_generators(ideal, kind, order)
        assert pm.graded_betti(ideal) == herzog_takayama_betti(seq)


class TestHasLinearResolution:
    def test_veronese(self):
        assert pm.has_linear_resolution(I("x1^2 + x1*x2 + x2^2"))

    def test_pure_powers_fail(self):
        ideal = I("x1^2 + x2^2")
        assert pm.graded_betti(ideal).get(1, 4) == 1
        assert not pm.has_linear_resolution(ideal)

    def test_not_equigenerated(self):
        assert not pm.has_linear_resolution(I("x1 + x2^2"))

    def test_unit_ideal(self):
        assert pm.has_linear_resolution(pm.unit_ideal(2))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_variables_have_the_koszul_resolution(self, n):
        # the premise that lets quotients skip homology on a prefix colon
        # generated by variables: k variables give the Koszul complex,
        # beta_{i,i+1} = C(k, i+1) and nothing else
        for k in range(1, n + 1):
            for support in itertools.combinations(range(n), k):
                ideal = pm.MonomialIdeal(n, [
                    pm.Monomial(tuple(int(t == v) for t in range(n))) for v in support
                ])
                assert pm.has_linear_resolution(ideal), ideal
                assert pm.graded_betti(ideal).as_dict() == {
                    (i, i + 1): comb(k, i + 1) for i in range(k)
                }, ideal

    @pytest.mark.parametrize("n, d", [(3, 2), (2, 4), (4, 2), (3, 3)])
    def test_agrees_with_the_table_on_every_mask(self, n, d):
        # the verdict is the table's, and both verdicts occur
        size = len(pm.monomials_of_degree(n, d).elems)
        verdicts = Counter()
        for mask in range(1, 1 << size):
            ideal = pm.ideal_from_mask(n, d, mask)
            linear = pm.has_linear_resolution(ideal)
            assert linear == pm.graded_betti(ideal).is_linear(d), ideal
            verdicts[linear] += 1
        assert verdicts[True] and verdicts[False]

    def test_two_variable_linear_resolution_matches_exchange(self):
        for d in range(1, 6):
            for item in pm.enumerate_corpus(pm.CorpusSpec(n=2, d=d)):
                assert pm.has_linear_resolution(item.ideal) == pm.is_polymatroidal(
                    item.ideal
                )


class TestTableProperties:
    @given(small_ideals())
    @settings(max_examples=40, deadline=None)
    def test_generator_count_row(self, ideal):
        assert pm.graded_betti(ideal).generator_count == len(ideal.gens)

    @given(small_ideals(max_n=3))
    @settings(max_examples=30, deadline=None)
    def test_alternating_sum_is_one(self, ideal):
        # the resolved module has rank one, and subset parity count agrees
        table = pm.graded_betti(ideal)
        total = sum((-1) ** i * v for i, _, v in table.entries)
        subsets = sum(
            (-1) ** (bits.bit_count() + 1)
            for bits in range(1, 1 << len(ideal.gens))
        )
        assert total == subsets == 1

    @given(small_ideals(max_n=3))
    @settings(max_examples=30, deadline=None)
    def test_invariant_under_variable_permutation(self, ideal):
        table = pm.graded_betti(ideal)
        for perm in itertools.permutations(range(ideal.n)):
            relabeled = pm.MonomialIdeal(
                ideal.n,
                [pm.Monomial(tuple(g.exponents[p] for p in perm)) for g in ideal.gens],
            )
            assert pm.graded_betti(relabeled) == table

    def test_triangle_rendering(self, remark_ideal):
        art = pm.graded_betti(remark_ideal).triangle()
        lines = art.splitlines()
        assert lines[1].lstrip().startswith("total:")
        assert "4" in art and "1" in art

    def test_empty_table_triangle(self):
        # no library call returns an empty table, but a caller can build one
        assert pm.BettiTable(()).triangle() == "(empty)"

    def test_json_shape(self):
        data = pm.graded_betti(I("x1 + x2")).to_json_dict()
        assert data == {"betti": [[0, 1, 2], [1, 2, 1]]}
