import concurrent.futures
import hashlib
import itertools
import json
import os
import pickle
import random
import tracemalloc
from math import comb
from types import SimpleNamespace

import pytest

import polymat as pm
from conftest import I, veronese
from polymat import corpus, quotients, suites
from polymat.corpus import corpus_masks


def burnside_orbits(n, d):
    """(1/n!) * sum over sigma of 2^c(sigma), less the empty set: the orbits
    of non-empty masks under the variable permutations sigma, where
    c(sigma) counts the cycles sigma induces on the degree-d layer."""
    layer = [m.exponents for m in pm.monomials_of_degree(n, d)]
    position = {e: i for i, e in enumerate(layer)}
    perms = list(itertools.permutations(range(n)))
    total = 0
    for perm in perms:
        image = [position[tuple(e[p] for p in perm)] for e in layer]
        seen, cycles = set(), 0
        for first in range(len(layer)):
            if first not in seen:
                cycles += 1
                i = first
                while i not in seen:
                    seen.add(i)
                    i = image[i]
        total += 2**cycles
    assert total % len(perms) == 0
    return total // len(perms) - 1


def relabeling(n, d, perm):
    """The map on (n, d) masks that the variable permutation perm induces."""
    layer = [m.exponents for m in pm.monomials_of_degree(n, d)]
    position = {e: i for i, e in enumerate(layer)}
    image = [position[tuple(e[p] for p in perm)] for e in layer]
    return lambda mask: sum(1 << image[i] for i in range(len(layer)) if mask >> i & 1)


def tuple_is_orbit_representative(perms, position, gens, mask):
    """The tuple dedupe the relabel table replaced, as its oracle: whether
    no variable permutation sends this subset to a smaller mask.  perms
    lists the 0-based variable permutations, position maps each layer
    exponent vector to its bit, and gens is the subset the mask denotes."""
    vectors = [g.exponents for g in gens]
    for perm in perms:
        relabeled = 0
        for vec in vectors:
            relabeled |= 1 << position[tuple(vec[p] for p in perm)]
        if relabeled < mask:
            return False
    return True


def tuple_orbit_representatives(n, d, masks):
    """The masks the tuple oracle keeps, in the given order."""
    perms = [order.positions for order in pm.all_variable_orders(n)]
    layer = pm.monomials_of_degree(n, d).elems
    position = {g.exponents: i for i, g in enumerate(layer)}
    return [mask for mask in masks if tuple_is_orbit_representative(
        perms, position, [g for i, g in enumerate(layer) if mask >> i & 1], mask)]


def drawn_bit_by_bit(spec):
    """A random corpus drawn as it was before one-step draws: each mask built
    bit by bit from an m-sample of the bit positions."""
    rng = random.Random(spec.seed)
    seen, masks = set(), []
    while len(masks) < spec.count:
        mask = 0
        for i in rng.sample(range(comb(spec.n + spec.d - 1, spec.d)), spec.m):
            mask |= 1 << i
        if mask not in seen:
            seen.add(mask)
            masks.append(mask)
    return masks


class TestCorpus:
    def test_exhaustive_counts(self):
        assert sum(1 for _ in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2))) == 63
        assert pm.CorpusSpec(n=3, d=3).size() == 1023

    def test_masks_are_canonical(self):
        items = list(pm.enumerate_corpus(pm.CorpusSpec(n=2, d=1)))
        assert [(i.index, i.mask) for i in items] == [(0, 1), (1, 2), (2, 3)]
        # bit 0 is the lex-greatest monomial x1
        assert items[0].ideal.gens == (pm.Monomial((1, 0)),)

    def test_start_mask_resumes(self):
        items = list(pm.enumerate_corpus(pm.CorpusSpec(n=2, d=1, start_mask=3)))
        assert len(items) == 1 and items[0].mask == 3

    def test_mask_round_trip(self):
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2)):
            assert pm.ideal_from_mask(3, 2, item.mask) == item.ideal

    def test_exhaustive_bound_refused(self):
        with pytest.raises(pm.BoundExceededError) as exc:
            pm.CorpusSpec(n=5, d=3)
        assert "20" in str(exc.value)

    def test_random_reproducible_and_distinct(self):
        spec = pm.CorpusSpec(n=4, d=2, mode="random", m=5, count=100, seed=1)
        first = [item.mask for item in pm.enumerate_corpus(spec)]
        second = [item.mask for item in pm.enumerate_corpus(spec)]
        assert first == second
        assert len(set(first)) == 100
        assert all(mask.bit_count() == 5 for mask in first)

    def test_random_needs_feasible_count(self):
        with pytest.raises(pm.BoundExceededError):
            pm.CorpusSpec(n=2, d=1, mode="random", m=1, count=3, seed=0)

    def test_random_validation(self):
        with pytest.raises(ValueError):
            pm.CorpusSpec(n=2, d=1, mode="random", m=7, count=1, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 2},
            {"count": 5},
            {"m": 2, "count": 5},
            {"seed": 5},
            {"mode": "random", "m": 2, "count": 3, "start_mask": 99999},
            {"mode": "random", "m": 2, "count": 3, "dedupe_isomorphic": True},
        ],
    )
    def test_parameters_the_mode_ignores_refused(self, kwargs):
        with pytest.raises(pm.InvalidArgumentError):
            pm.CorpusSpec(n=3, d=2, **kwargs)

    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("d", {"n": 2, "d": 2.0}),
            ("start_mask", {"n": 3, "d": 2, "start_mask": "1"}),
            ("n", {"n": True, "d": 2}),
            ("d", {"n": 2, "d": None}),
            ("m", {"n": 3, "d": 2, "mode": "random", "m": 2.0, "count": 3}),
            ("count", {"n": 3, "d": 2, "mode": "random", "m": 2, "count": True}),
            ("seed", {"n": 3, "d": 2, "mode": "random", "m": 2, "count": 3, "seed": None}),
        ],
    )
    def test_non_integer_field_refused(self, field, kwargs):
        # bool is a subclass of int, but True would be written into a report as true
        with pytest.raises(pm.InvalidArgumentError, match=f"^{field} must be an integer"):
            pm.CorpusSpec(**kwargs)

    @pytest.mark.parametrize("flag", ["no", "", 1, 0, None])
    def test_dedupe_flag_must_be_a_bool(self, flag):
        # a truthy "no" would enumerate the 19 orbit representatives, not the 63 ideals
        with pytest.raises(pm.InvalidArgumentError, match="not a bool"):
            pm.CorpusSpec(n=3, d=2, dedupe_isomorphic=flag)
        assert pm.CorpusSpec(n=3, d=2, dedupe_isomorphic=False).size() == 63

    @pytest.mark.parametrize(
        "spec",
        [
            pm.CorpusSpec(n=3, d=2),
            pm.CorpusSpec(n=3, d=2, start_mask=40),
            pm.CorpusSpec(n=3, d=2, dedupe_isomorphic=True),
            pm.CorpusSpec(n=4, d=2, start_mask=500, dedupe_isomorphic=True),
            pm.CorpusSpec(n=4, d=3, mode="random", m=5, count=30, seed=3),
        ],
    )
    def test_size_counts_the_corpus(self, spec):
        assert spec.size() == sum(1 for _ in pm.enumerate_corpus(spec))
        assert spec.size() == len(corpus_masks(spec))

    @pytest.mark.parametrize("n, d, orbits", [
        (2, 2, 5), (3, 2, 19), (4, 2, 89), (3, 3, 207), (2, 4, 19), (3, 4, 5727),
    ])
    def test_dedupe_isomorphic_orbit_count(self, n, d, orbits):
        # one representative per orbit: Burnside's count, e.g. for (3,2)
        # (2^6 + 3*2^4 + 2*2^2) / 6 = 20 orbits, 19 without the empty set
        assert burnside_orbits(n, d) == orbits
        spec = pm.CorpusSpec(n=n, d=d, dedupe_isomorphic=True)
        assert spec.size() == orbits
        # each representative is the least mask of its orbit
        relabelings = [relabeling(n, d, perm) for perm in itertools.permutations(range(n))]
        assert all(r(mask) >= mask for mask in corpus_masks(spec) for r in relabelings)

    @pytest.mark.parametrize("n, d, start", [
        (3, 2, 1), (4, 2, 1), (3, 3, 1), (2, 4, 1), (3, 4, 1), (5, 2, 1), (4, 3, (1 << 20) - 5000),
    ])
    def test_relabel_table_agrees_with_the_tuple_oracle(self, n, d, start):
        spec = pm.CorpusSpec(n=n, d=d, start_mask=start, dedupe_isomorphic=True)
        masks = range(start, 1 << comb(n + d - 1, d))
        assert corpus_masks(spec) == tuple_orbit_representatives(n, d, masks)

    def test_relabel_table_agrees_on_the_first_masks_of_4_3(self, monkeypatch):
        # the corpus cannot stop early, so the table of one call is read off it
        tables = []
        real = corpus._is_orbit_representative

        def recording(relabel, mask):
            tables.append(relabel)
            return real(relabel, mask)

        monkeypatch.setattr(corpus, "_is_orbit_representative", recording)
        corpus_masks(pm.CorpusSpec(n=4, d=3, start_mask=(1 << 20) - 1, dedupe_isomorphic=True))
        (relabel,) = tables
        masks = range(1, 5001)
        assert [m for m in masks if real(relabel, m)] == tuple_orbit_representatives(4, 3, masks)

    @pytest.mark.parametrize("n, d, m, count, seed", [
        (4, 3, 5, 500, 1061), (4, 3, 10, 500, 77), (4, 3, 15, 500, 0), (2, 1, 1, 2, 5),
        (4, 2, 10, 1, 3), (8, 5, 40, 50, 0), (8, 5, 792, 1, 9),
    ])
    def test_random_masks_are_drawn_as_bit_by_bit(self, n, d, m, count, seed):
        # (4,2) with m = 10 and (8,5) with m = 792 draw every monomial of the layer
        spec = pm.CorpusSpec(n=n, d=d, mode="random", m=m, count=count, seed=seed)
        assert corpus_masks(spec) == drawn_bit_by_bit(spec)

    def test_a_random_draw_builds_no_list_of_the_layer(self):
        # (4,60) has 39,711 monomials: a list of their bits would take about 107 MB
        spec = pm.CorpusSpec(n=4, d=60, mode="random", m=2, count=1, seed=0)
        tracemalloc.start()
        masks = corpus_masks(spec)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert masks == drawn_bit_by_bit(spec)
        assert peak < 1_000_000, peak


class TestTheoremSuite:
    def test_exhaustive_n3_d2(self):
        report = pm.run_theorem_suite(pm.CorpusSpec(n=3, d=2))
        assert report.passed
        assert report.totals == {"consistent": 63}

    def test_two_variable_verdicts_carry_linear_resolution(self):
        report = pm.run_theorem_suite(pm.CorpusSpec(n=2, d=3))
        assert report.passed
        assert all("linear_resolution" in v for v in report.verdicts)

    @pytest.mark.parametrize("d", range(9))
    def test_two_variable_linear_resolution_agrees_with_homology(self, d):
        # the suite decides it on the mask (one run of consecutive bits); the
        # homology of every ideal of (2,d) must give the same answer
        report = pm.run_theorem_suite(pm.CorpusSpec(n=2, d=d))
        assert len(report.verdicts) == 2 ** (d + 1) - 1
        for v in report.verdicts:
            ideal = pm.ideal_from_mask(2, d, v["mask"])
            assert v["linear_resolution"] is pm.has_linear_resolution(ideal), v["mask"]

    def test_guard_checked_before_the_corpus_is_built(self, monkeypatch):
        # every verdict would hit the n! guard, so above it nothing is enumerated
        monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
        built = []
        monkeypatch.setattr(suites, "corpus_masks", lambda spec: built.append(spec) or [])
        with pytest.raises(pm.BoundExceededError):
            pm.run_theorem_suite(pm.CorpusSpec(n=9, d=1))
        assert built == []

    @pytest.mark.parametrize("runner", [
        pm.run_theorem_suite, pm.run_conjecture_search, pm.run_localization_probe,
    ])
    @pytest.mark.parametrize("spec", [
        None,
        SimpleNamespace(n=2, d=2, mode="exhaustive", m=None, count=None, seed=0, start_mask=1,
                        dedupe_isomorphic=False, to_json_dict=lambda: {"n": 2, "d": 2}),
        I("x1^2 + x2^2"),
    ])
    def test_only_a_corpus_spec_gets_a_report(self, runner, spec):
        with pytest.raises(pm.InvalidArgumentError, match="is not a CorpusSpec"):
            runner(spec)


class TestConjectureSuite:
    def test_exhaustive_n3_d2(self):
        report = pm.run_conjecture_search(pm.CorpusSpec(n=3, d=2))
        assert report.passed
        assert report.totals.get("COUNTEREXAMPLE", 0) == 0
        assert report.totals["polymatroidal"] + report.totals["refuted_by_some_order"] == 63

    def test_witnesses_reverify(self):
        report = pm.run_conjecture_search(pm.CorpusSpec(n=3, d=2))
        for verdict in report.verdicts:
            assert pm.reverify_witness(verdict, 3, 2)

    def test_mask_outside_the_corpus_refused(self):
        # (3,2) has 6 basis monomials, so its masks are 1 .. 2^6 - 1
        for mask in (-1, 0, 1 << 6):
            with pytest.raises(pm.InvalidArgumentError):
                pm.ideal_from_mask(3, 2, mask)
        verdict = pm.run_conjecture_search(pm.CorpusSpec(n=3, d=2)).verdicts[-1]
        verdict["mask"] |= 1 << 40
        with pytest.raises(pm.InvalidArgumentError):
            pm.reverify_witness(verdict, 3, 2)

    @pytest.mark.parametrize("m", [1, 2])
    def test_guard_checked_before_the_corpus_is_drawn(self, monkeypatch, m):
        # only a non-polymatroidal mask searches the n! orders, and with m = 1 there
        # is none; the refusal still comes first, whatever the corpus holds
        monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
        drawn = []
        monkeypatch.setattr(suites, "corpus_masks", lambda spec: drawn.append(spec) or [])
        with pytest.raises(pm.BoundExceededError, match="9! variable orders"):
            pm.run_conjecture_search(pm.CorpusSpec(n=9, d=2, mode="random", m=m, count=5))
        assert drawn == []

    def test_random_mode_records_seed(self):
        spec = pm.CorpusSpec(n=4, d=2, mode="random", m=4, count=20, seed=9)
        report = pm.run_conjecture_search(spec)
        assert report.seed == 9
        assert report.parameters["seed"] == 9


def forced_theorem_mismatch(monkeypatch, with_exchange: bool) -> dict:
    """A theorem MISMATCH verdict carrying genuine witnesses.  No real corpus
    yields one (the theorem holds), so the suite's exchange kernel is forced
    to misreport a non-polymatroidal (3,2) ideal as polymatroidal."""
    mask = next(m for m in range(1, 64) if not pm.is_polymatroidal(pm.ideal_from_mask(3, 2, m)))
    monkeypatch.setattr(suites._CorpusLayer, "exchange_failure", lambda layer, mask: None)
    if not with_exchange:
        monkeypatch.setattr(quotients, "exchange_failure", lambda ideal: None)
    return suites._theorem_verdict(suites._CorpusLayer(3, 2), 0, mask)


class TestReverifyLexWitness:
    @pytest.mark.parametrize("with_exchange", [True, False])
    def test_genuine_witness_reverifies(self, monkeypatch, with_exchange):
        verdict = forced_theorem_mismatch(monkeypatch, with_exchange)
        assert verdict["verdict"] == "MISMATCH"
        assert ("exchange_witness" in verdict) == with_exchange
        assert pm.reverify_witness(verdict, 3, 2)

    @pytest.mark.parametrize("with_exchange", [True, False])
    def test_changed_witness_refused(self, monkeypatch, with_exchange):
        verdict = forced_theorem_mismatch(monkeypatch, with_exchange)
        verdict["lq_witness"].update(position=99, blocker=[9, 9, 9])
        assert not pm.reverify_witness(verdict, 3, 2)

    def test_changed_exchange_witness_refused(self, monkeypatch):
        verdict = forced_theorem_mismatch(monkeypatch, with_exchange=True)
        verdict["exchange_witness"]["variable"] += 1
        assert not pm.reverify_witness(verdict, 3, 2)

    @pytest.mark.parametrize("verdict", [
        None,
        {},
        {"mask": 3},
        {"gens": [[2, 0], [1, 1]]},
        {"mask": 3, "gens": [[2, 0], [1, 1]], "refuting_order": {"order": [2, 1]}},
        {"mask": 3, "gens": [[2, 0], [1, 1]], "refuting_order": {"kind": "revlex"}},
        {"mask": 3, "gens": [[2, 0], [1, 1]], "lq_witness": {"order": [2, 1]}},
        {"mask": 3, "gens": [[2, 0], [1, 1]], "lq_witness": {"kind": "lex"}},
        {"mask": 3, "gens": [[2, 0], [1, 1]], "lq_witness": None},
        {"mask": 3, "gens": [[2, 0], [1, 1]], "lq_witness": {"kind": "lex", "order": 5}},
    ])
    def test_malformed_verdict_refused(self, verdict):
        # a toolkit error, which the CLI turns into exit 2, not a TypeError or KeyError;
        # the shape check refuses a missing field, the integer rule an order of 5
        refusal = "must be a dict with|permutation entry sequence 5 is not iterable"
        with pytest.raises(pm.InvalidArgumentError, match=refusal):
            pm.reverify_witness(verdict, 2, 2)

    def test_mismatched_gens_refused(self, monkeypatch):
        # the witnesses still replay on the ideal of the mask
        verdict = forced_theorem_mismatch(monkeypatch, with_exchange=True)
        verdict["gens"] = verdict["gens"][1:]
        assert not pm.reverify_witness(verdict, 3, 2)


class TestReverifyViolations:
    def test_forced_violation_refused(self, monkeypatch):
        # the (3,2) Veronese has linear localizations only; with the tables and
        # homology made to deny it, the verdict lists every substitution, and
        # with them lifted none of the listed localizations replays
        with monkeypatch.context() as forced:
            forced.setattr(suites, "_linear_on_tables", lambda *args: False)
            forced.setattr(suites, "has_linear_resolution", lambda ideal: False)
            verdict = suites._localization_verdict(suites._CorpusLayer(3, 2), 0, 63)
        assert verdict["verdict"] == "VIOLATION"
        assert len(verdict["violations"]) == 7
        assert not pm.reverify_witness(verdict, 3, 2)
        assert pm.reverify_witness({**verdict, "violations": []}, 3, 2)

    def test_genuine_violations_reverify(self):
        # x1x2 + x3x4 has a Koszul syzygy in degree 4, so its resolution is not
        # linear; x2 + x3x4 is generated in two degrees, and x2 + x4 is linear
        ideal = I("x1*x2 + x3*x4", 4)
        assert not pm.has_linear_resolution(ideal)
        layer = suites._CorpusLayer(4, 2)
        mask = sum(1 << layer.index[g.exponents] for g in ideal.gens)
        verdict = {"mask": mask, "gens": pm.ideal_to_json_dict(ideal)["gens"]}
        assert pm.reverify_witness({**verdict, "violations": [[]]}, 4, 2)
        assert pm.reverify_witness({**verdict, "violations": [[], [1], [3, 3]]}, 4, 2)
        assert not pm.reverify_witness({**verdict, "violations": [[], [1, 3]]}, 4, 2)

    @pytest.mark.parametrize("violations", [
        3, None, "1", {"1": [1]}, ([1],), [1], [[0]], [[5]], [["x1"]], [[True]], [[1.0]],
    ])
    def test_malformed_violations_refused(self, violations):
        # an InvalidArgumentError, not a TypeError: the list rule refuses the
        # value, and localize's index rule refuses an entry
        verdict = {"mask": 3, "gens": [[2, 0, 0, 0], [1, 1, 0, 0]], "violations": violations}
        with pytest.raises(pm.InvalidArgumentError, match="is not a list|variable index"):
            pm.reverify_witness(verdict, 4, 2)


class TestRemarkSuite:
    def test_all_clauses_pass(self):
        report = pm.reproduce_remark()
        assert report.passed
        assert [v["verdict"] for v in report.verdicts] == ["pass"] * 3

    def test_clause_details(self):
        report = pm.reproduce_remark()
        clause3 = report.verdicts[2]
        assert len(clause3["combinations"]) == 12
        assert all(clause3["combinations"].values())


def polymatroidal_ideals(*shapes):
    """The polymatroidal ideals of the exhaustive (n, d) corpora, in corpus order."""
    for n, d in shapes:
        for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d)):
            if pm.is_polymatroidal(item.ideal):
                yield item.ideal


def substituted(n, mask):
    """The 1-based variables that `mask` sends to 1, as the suite reads it."""
    return [i + 1 for i in range(n) if mask >> i & 1]


def images_at(layer, members, z):
    """The images of the bits `members` under the substitution z, as the verdict looks them up."""
    return [image[z & support] for support, image in map(layer.images.__getitem__, members)]


def unlifted(layer, w, lifted):
    """The exponents of the bits of `lifted`, each divided by x1^w."""
    return [(e[0] - w,) + e[1:] for e in map(layer.exps.__getitem__, suites._bits(lifted))]


def restrictions(ideal):
    """The substitutions that act on the support of the ideal, but not by all of
    its variables, ascending: the ones the suite decides."""
    support = sum(1 << i for i in range(ideal.n) if any(g.exponents[i] for g in ideal.gens))
    return [z for z in range(support) if z & support == z]


def certified(ideal):
    """The suite's certificate: equigenerated with identity revlex linear quotients."""
    if ideal.is_equigenerated() is None:
        return False
    seq = pm.sort_generators(ideal, "revlex", pm.VariableOrder.identity(ideal.n))
    return pm.linear_quotients_failure(seq) is None


class TestLocalizationSuite:
    def test_exhaustive_n3_d2(self):
        report = pm.run_localization_probe(pm.CorpusSpec(n=3, d=2))
        assert report.passed
        assert report.totals.get("VIOLATION", 0) == 0

    def test_veronese_all_localizations_linear(self):
        ideal = veronese(3, 2)
        for mask in range(1 << 3):
            off = [i + 1 for i in range(3) if mask >> i & 1]
            if len(off) == 3:
                continue
            assert pm.has_linear_resolution(ideal.localize(off))

    def test_unit_masks_are_the_unit_localizations(self, monkeypatch):
        # the tables call a substitution unit exactly where the built localization
        # is the unit ideal, and the suite localizes no ideal to find out
        localize = pm.MonomialIdeal.localize

        def refused(ideal, off):
            raise AssertionError(f"localized {ideal} at {off}")

        monkeypatch.setattr(pm.MonomialIdeal, "localize", refused)
        for n, d in ((3, 2), (4, 2), (3, 3), (2, 4)):
            layer = suites._CorpusLayer(n, d)
            for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d)):
                if not pm.is_polymatroidal(item.ideal):
                    continue
                members = suites._bits(item.mask)
                for sub in range((1 << n) - 1):
                    images = images_at(layer, members, sub)
                    w, _ = suites._local_generators(layer, sub, members, images)
                    assert (w == d) == localize(item.ideal, substituted(n, sub)).is_unit, item.ideal
                verdict = suites._localization_verdict(layer, item.index, item.mask)
                assert verdict["verdict"] == "all_linear"

    def test_memory_does_not_grow_with_the_substitutions(self, monkeypatch):
        # one linear generator x_n: the verdict counts 2^n - 1 proper
        # substitutions, but the walk decides only the restriction z = 0 to its
        # one-variable support, on the tables alone.  The peak of a cold verdict,
        # its tables built on the way, must not grow with the substitutions
        def refused(ideal):
            raise AssertionError(f"homology asked for {ideal}")

        monkeypatch.setattr(suites, "has_linear_resolution", refused)
        peaks = []
        for n in (10, 16):
            layer = suites._CorpusLayer(n, 1)
            tracemalloc.start()
            verdict = suites._localization_verdict(layer, 0, 1 << n - 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert verdict["verdict"] == "all_linear" and verdict["checked"] == (1 << n) - 1
        assert peaks[1] < peaks[0] + 20_000, peaks

    def test_two_generators_decide_in_memory_independent_of_n(self):
        # two linear generators: their support has 3 proper restrictions
        # whatever n is, and the peak of a warm verdict must not grow with the
        # 2^n - 1 substitutions
        peaks = []
        for n in (10, 16):
            layer = suites._CorpusLayer(n, 1)
            mask = 3 << n - 2
            suites._localization_verdict(layer, 0, mask)
            tracemalloc.start()
            verdict = suites._localization_verdict(layer, 0, mask)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert verdict["verdict"] == "all_linear" and verdict["checked"] == (1 << n) - 1
        assert peaks[1] < peaks[0] + 20_000, peaks

    @pytest.mark.parametrize("n, d", [(3, 3), (4, 2), (5, 2), (2, 4), (3, 4)])
    def test_tables_agree_with_the_built_localizations(self, monkeypatch, n, d):
        # every substitution of every polymatroidal mask: the least-degree images,
        # lifted by one x1^w, are the minimal generators of an equigenerated
        # localization times x1^w, w = d is the unit ideal, and "linear" is the
        # certificate's answer.  With the tables made to certify nothing, the
        # ideal the fallback builds for each substitution is its localization
        fallback = []
        monkeypatch.setattr(suites, "has_linear_resolution", lambda L: fallback.append(L) or True)
        layer = suites._CorpusLayer(n, d)
        checked = 0
        for mask in range(1, 1 << len(layer.exps)):
            if layer.exchange_failure(mask) is not None:
                continue
            ideal, members = layer.ideal(mask), suites._bits(mask)
            for sub in range((1 << n) - 1):
                local = ideal.localize(substituted(n, sub))
                images = images_at(layer, members, sub)
                w, lifted = suites._local_generators(layer, sub, members, images)
                linear = suites._linear_on_tables(layer, sub, members, images)
                assert (w == d) == local.is_unit
                assert unlifted(layer, w, lifted) == [g.exponents for g in local.gens], (ideal, sub)
                if not local.is_unit:
                    assert linear == certified(local), (ideal, sub)
                checked += 1
            fallback.clear()
            with monkeypatch.context() as forced:
                forced.setattr(suites, "_linear_on_tables", lambda *args: False)
                suites._localization_verdict(layer, 0, mask)
            assert fallback == [ideal.localize(substituted(n, z))
                                for z in restrictions(ideal)], ideal
        assert checked > 0

    @pytest.mark.parametrize("n, d", [(3, 3), (4, 2)])
    def test_tables_are_sound_on_every_mask(self, n, d):
        # not only polymatroidal masks: "linear" is always a linear resolution, and
        # a localization generated in several degrees is always left undecided
        layer = suites._CorpusLayer(n, d)
        for mask in range(1, 1 << len(layer.exps)):
            ideal, members = layer.ideal(mask), suites._bits(mask)
            for sub in range((1 << n) - 1):
                local = ideal.localize(substituted(n, sub))
                images = images_at(layer, members, sub)
                linear = suites._linear_on_tables(layer, sub, members, images)
                if local.is_equigenerated() is None:
                    assert suites._local_generators(layer, sub, members, images) is None
                    assert not linear
                elif linear:
                    assert local.is_unit or pm.has_linear_resolution(local), (ideal, sub)

    def test_undecided_tables_fall_back_to_the_same_report(self, monkeypatch):
        # no corpus substitution reaches the fallback, so force every one there; it
        # reads each localization off the images, so nothing is localized
        spec = pm.CorpusSpec(n=3, d=3)
        expected = pm.run_localization_probe(spec).to_json()
        fallbacks = []

        def refused(ideal, off):
            raise AssertionError(f"localized {ideal} at {off}")

        monkeypatch.setattr(pm.MonomialIdeal, "localize", refused)
        monkeypatch.setattr(suites, "_linear_on_tables", lambda *args: False)
        homology = pm.has_linear_resolution
        monkeypatch.setattr(suites, "has_linear_resolution",
                            lambda ideal: fallbacks.append(ideal) or homology(ideal))
        assert pm.run_localization_probe(spec, jobs=1).to_json() == expected
        assert fallbacks

    @pytest.mark.parametrize("m, count, digest", [
        (1, 45, "b716780a8164dde79b7305d5211e861d792a2fdad91b9f4ada90359fc47f535e"),
        (2, 200, "1a7792eb909cda644bbefa03aa5974ef497b62cdcf4622e840443bdea9d46655"),
    ])
    def test_nine_variables_answer_at_the_default_guard(self, monkeypatch, m, count, digest):
        # the localization suite searches no order, so it keeps answering above the
        # permutation guard, with the report bytes the built localizations gave
        monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
        spec = pm.CorpusSpec(n=9, d=2, mode="random", m=m, count=count, seed=0)
        report = pm.run_localization_probe(spec, jobs=1)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest

    @pytest.mark.parametrize("runner", [
        pm.run_theorem_suite, pm.run_conjecture_search, pm.run_localization_probe,
    ])
    def test_every_suite_builds_only_its_slices_layer(self, monkeypatch, runner):
        # the localizations are decided on the slice's own layer too: a layer
        # built anywhere, in corpus.py or in suites.py, counts
        built = []
        layer = corpus._CorpusLayer

        def counting(n, d):
            built.append((n, d))
            return layer(n, d)

        monkeypatch.setattr(corpus, "_CorpusLayer", counting)
        monkeypatch.setattr(suites, "_CorpusLayer", counting)
        for n, d in ((3, 2), (3, 3), (2, 4)):
            built.clear()
            runner(pm.CorpusSpec(n=n, d=d), jobs=1)
            assert built == [(n, d)]

    @pytest.mark.parametrize("n, d, u, v", [
        (3, 200, (100, 50, 50), (99, 51, 50)),
        (4, 60, (15, 15, 15, 15), (14, 16, 15, 15)),
    ])
    def test_large_degree_pair_builds_no_lower_layer(self, monkeypatch, n, d, u, v):
        # a polymatroidal pair of a warm large-degree layer is decided on that
        # layer: no monomial list and no other layer is built, and the verdict
        # of each substitution is the homology of its built localization
        layer = suites._CorpusLayer(n, d)
        calls = []

        def spy(name, real):
            return lambda *args: calls.append(name) or real(*args)

        for module, name in ((corpus, "monomials_of_degree"), (corpus, "_CorpusLayer"),
                             (suites, "_CorpusLayer")):
            monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
        ideal = pm.MonomialIdeal(n, [pm.Monomial(u), pm.Monomial(v)])
        mask = 1 << layer.index[u] | 1 << layer.index[v]
        verdict = suites._localization_verdict(layer, 0, mask)
        assert calls == []
        assert verdict["checked"] == (1 << n) - 1
        assert verdict["violations"] == [
            substituted(n, sub) for sub in range((1 << n) - 1)
            if not pm.has_linear_resolution(ideal.localize(substituted(n, sub)))
        ]

    @pytest.mark.parametrize("verdict", [suites._theorem_verdict, suites._conjecture_verdict])
    def test_theorem_and_conjecture_slices_fill_no_localization_table(self, verdict):
        layer = suites._CorpusLayer(3, 2)
        for mask in range(1, 64):
            verdict(layer, 0, mask)
        assert layer.images == layer.divides == {}

    @pytest.fixture
    def homology_calls(self, monkeypatch):
        """Every ideal the suite hands to has_linear_resolution, which still answers."""
        calls = []

        def recording(L):
            calls.append(L)
            return pm.has_linear_resolution(L)

        monkeypatch.setattr(suites, "has_linear_resolution", recording)
        return calls

    def test_certificate_implies_a_linear_betti_table(self, homology_calls):
        # Herzog-Takayama on every localization of a polymatroidal ideal, and the
        # suite hands homology exactly the ones the certificate leaves out
        shapes = ((3, 2), (4, 2), (3, 3), (5, 2))
        local = {}
        for ideal in polymatroidal_ideals(*shapes):
            for mask in range((1 << ideal.n) - 1):
                localization = ideal.localize(substituted(ideal.n, mask))
                if not localization.is_unit:
                    local[localization] = None
        for ideal in local:
            if certified(ideal):
                assert pm.graded_betti(ideal).is_linear(ideal.is_equigenerated()), ideal
        for n, d in shapes:
            assert pm.run_localization_probe(pm.CorpusSpec(n=n, d=d), jobs=1).passed
        assert set(homology_calls) == {ideal for ideal in local if not certified(ideal)}

    @pytest.mark.parametrize("text, linear", [
        ("x1*x3 + x2^2 + x2*x3", True),
        ("x1^2 + x2^2", False),
    ])
    def test_failed_certificate_returns_the_homology_verdict(self, homology_calls, text, linear):
        # the verdict of a mask taken for polymatroidal: homology gets exactly the
        # localizations the certificate leaves out, the ideal itself first, and
        # its answers make the violations
        ideal = I(text, 3)
        assert ideal.is_equigenerated() is not None and not certified(ideal)
        assert pm.has_linear_resolution(ideal) is linear
        layer = suites._CorpusLayer(3, 2)
        layer.exchange_failure = lambda mask: None
        mask = sum(1 << layer.index[g.exponents] for g in ideal.gens)
        verdict = suites._localization_verdict(layer, 0, mask)
        localizations = [ideal.localize(substituted(3, z)) for z in restrictions(ideal)]
        assert homology_calls == [L for L in localizations if not L.is_unit and not certified(L)]
        assert homology_calls[0] == ideal
        assert verdict["violations"] == [
            substituted(3, sub) for sub in range(7)
            if not pm.has_linear_resolution(ideal.localize(substituted(3, sub)))
        ]


class TestWorkerPool:
    @pytest.fixture
    def started(self, monkeypatch):
        """(max_workers, tasks) of every pool the suites start.

        A real pool forks every worker at its first submit, so this one only
        records its size and tasks and maps in-process over pickled copies.
        """
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                calls.append((self.max_workers, tasks))
                return map(fn, [pickle.loads(pickle.dumps(task)) for task in tasks])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return calls

    @pytest.fixture
    def pools(self, monkeypatch, started):
        """The pools started where one mask per worker is enough, so that
        small corpora still reach the pool path."""
        monkeypatch.setattr(suites, "_MIN_SLICE", 1)
        return started

    def test_workers_capped_at_cpu_count(self, monkeypatch, pools):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spec = pm.CorpusSpec(n=2, d=1)
        report = pm.run_theorem_suite(spec, jobs=10**6)
        assert [size for size, _ in pools] == [2]
        assert report.to_json() == pm.run_theorem_suite(spec, jobs=1).to_json()

    def test_usable_cpus_are_the_affinity_set(self, monkeypatch):
        # a taskset or cpuset can leave fewer CPUs than the machine has
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert suites._usable_cpus() == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert suites._usable_cpus() == 2
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert suites._usable_cpus() == 1

    def test_one_cpu_starts_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
        spec = pm.CorpusSpec(n=2, d=1)
        report = pm.run_theorem_suite(spec, jobs=4)
        assert pools == []
        assert report.to_json() == pm.run_theorem_suite(spec, jobs=1).to_json()

    def test_chunk_size_follows_the_workers(self, monkeypatch, pools):
        # one slice per worker, the masks dealt round robin, the last one shorter
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spec = pm.CorpusSpec(n=3, d=2)
        pm.run_theorem_suite(spec, jobs=10**6)
        ((workers, tasks),) = pools
        masks = corpus_masks(spec)
        assert workers == 2
        assert [task[1:] for task in tasks] == [(3, 2, range(0, 63, 2), masks[0::2]),
                                                (3, 2, range(1, 63, 2), masks[1::2])]

    def test_tasks_hold_ints_and_the_verdict_only(self, monkeypatch, pools):
        # the parent ships masks, never a built ideal, for workers to decode
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        pm.run_theorem_suite(pm.CorpusSpec(n=2, d=2), jobs=2)

        def leaves(obj):
            if type(obj) in (tuple, list, range):
                for entry in obj:
                    yield from leaves(entry)
            else:
                yield obj

        ((_, tasks),) = pools
        shipped = list(leaves(tasks))
        assert all(type(x) is int or x is suites._theorem_verdict for x in shipped)
        assert suites._theorem_verdict in shipped
        # a built ideal, shipped in a range's place, still fails the check
        built = [(*task[:4], [pm.ideal_from_mask(2, 2, 1)]) for task in tasks]
        assert not all(type(x) is int or x is suites._theorem_verdict for x in leaves(built))

    def test_exhaustive_corpus_ships_ranges(self, monkeypatch, pools):
        # no list of a plain exhaustive corpus's masks is built, in the parent or a task
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spec = pm.CorpusSpec(n=3, d=2, start_mask=10)
        assert corpus_masks(spec) == range(10, 64)
        pm.run_theorem_suite(spec, jobs=2)
        ((_, tasks),) = pools
        assert [task[3:] for task in tasks] == [(range(0, 54, 2), range(10, 64, 2)),
                                                (range(1, 54, 2), range(11, 64, 2))]

    def test_one_worker_streams_the_corpus(self, monkeypatch, pools):
        # one slice, decided in this process by the pool's slice function
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spec = pm.CorpusSpec(n=2, d=2)
        pooled = pm.run_theorem_suite(spec, jobs=2).to_json()
        events = []
        chunk, verdict = suites._verdict_chunk, suites._theorem_verdict

        def mapping(task):
            events.append(("chunk", task[3]))
            return chunk(task)

        def judging(layer, index, mask):
            events.append(("verdict", index))
            return verdict(layer, index, mask)

        monkeypatch.setattr(suites, "_verdict_chunk", mapping)
        monkeypatch.setattr(suites, "_theorem_verdict", judging)
        report = pm.run_theorem_suite(spec, jobs=1)
        assert len(pools) == 1  # the jobs=2 run's
        assert events == [("chunk", range(7))] + [("verdict", i) for i in range(7)]
        assert report.to_json() == pooled

    @pytest.mark.parametrize("cpus, slices", [(1, 1), (2, 2)])
    def test_one_layer_per_slice(self, monkeypatch, pools, cpus, slices):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
        built = []
        layer = suites._CorpusLayer

        def counting(n, d):
            built.append((n, d))
            return layer(n, d)

        monkeypatch.setattr(suites, "_CorpusLayer", counting)
        for runner in (pm.run_theorem_suite, pm.run_conjecture_search,
                       pm.run_localization_probe):
            built.clear()
            runner(pm.CorpusSpec(n=3, d=2), jobs=4)
            assert built == [(3, 2)] * slices
        assert len(pools) == (3 if slices > 1 else 0)

    def test_one_mask_corpus_starts_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spec = pm.CorpusSpec(n=2, d=1, start_mask=3)
        report = pm.run_theorem_suite(spec, jobs=2)
        assert pools == []
        assert [v["mask"] for v in report.verdicts] == [3]

    @pytest.mark.parametrize("cpus, jobs, size, workers", [
        (2, 2, 1, 1), (2, 2, 2 * suites._MIN_SLICE - 1, 1), (2, 2, 2 * suites._MIN_SLICE, 2),
        (2, 8, 3 * suites._MIN_SLICE, 2), (3, 8, 3 * suites._MIN_SLICE - 1, 2),
        (3, 8, 3 * suites._MIN_SLICE, 3), (3, 2, 3 * suites._MIN_SLICE, 2),
        (1, 8, 3 * suites._MIN_SLICE, 1),
    ])
    def test_worker_count_at_the_boundaries(self, monkeypatch, started, cpus, jobs, size,
                                            workers):
        # each worker needs _MIN_SLICE masks, and jobs and the CPUs cap them
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(suites, "_verdict_chunk", lambda task: list(task[3]))
        spec = pm.CorpusSpec(n=4, d=3, start_mask=2**20 - size)
        report = pm.run_theorem_suite(spec, jobs=jobs)
        assert [(max_workers, len(tasks)) for max_workers, tasks in started] == \
            ([(workers, workers)] if workers > 1 else [])
        assert report.verdicts == list(range(size))

    def test_small_corpus_starts_no_pool(self, monkeypatch, started):
        # fewer than _MIN_SLICE masks per worker: this process decides them
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        spec = pm.CorpusSpec(n=4, d=3, mode="random", m=10, count=1_500, seed=3)
        for runner in (pm.run_theorem_suite, pm.run_conjecture_search):
            assert runner(spec, jobs=2).to_json() == runner(spec, jobs=1).to_json()
        assert started == []

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("spec", [
        pm.CorpusSpec(n=3, d=2, start_mask=11),
        pm.CorpusSpec(n=3, d=2, start_mask=12),
        pm.CorpusSpec(n=4, d=2, mode="random", m=3, count=61, seed=9),
        pm.CorpusSpec(n=3, d=3, dedupe_isomorphic=True),
    ])
    def test_round_robin_keeps_every_index_once_in_order(self, monkeypatch, pools, cpus, spec):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(suites, "_verdict_chunk",
                            lambda task: list(zip(task[3], task[4], strict=True)))
        masks = corpus_masks(spec)
        report = pm.run_theorem_suite(spec, jobs=cpus)
        ((workers, tasks),) = pools
        assert workers == len(tasks) == cpus
        assert all(type(task[3]) is range for task in tasks)
        assert all(type(task[4]) is type(masks) for task in tasks)
        assert report.verdicts == list(enumerate(masks))

    def test_layer_rows_are_built_only_for_the_masks_met(self):
        # a random (8,5) layer has 792 monomials, about 626,000 ordered pairs
        spec = pm.CorpusSpec(n=8, d=5, mode="random", m=6, count=20, seed=1)
        layer = suites._CorpusLayer(8, 5)
        verdicts = [suites._conjecture_verdict(layer, i, mask)
                    for i, mask in enumerate(corpus_masks(spec))]
        assert len(layer.exps) == 792
        assert 0 < len(layer.rows) <= 20 * 6 * 5
        assert 0 < len(layer.swaps) <= 20 * 6
        assert len(layer.colon["revlex"].tests) <= 20 * 6
        assert verdicts == pm.run_conjecture_search(spec).verdicts


class TestEquivariance:
    """Every verdict class is invariant under relabeling the variables: the
    soundness basis of --dedupe-isomorphic and of deciding on masks."""

    @pytest.mark.parametrize("n, d", [(3, 2), (4, 2), (3, 3)])
    @pytest.mark.parametrize("runner", [
        pm.run_theorem_suite, pm.run_conjecture_search, pm.run_localization_probe,
    ])
    def test_relabeled_masks_get_the_same_verdict(self, n, d, runner):
        rng = random.Random(f"{n},{d}")
        verdicts = {v["mask"]: v for v in runner(pm.CorpusSpec(n=n, d=d)).verdicts}
        for _ in range(3):
            relabel = relabeling(n, d, rng.sample(range(n), n))
            for mask, verdict in verdicts.items():
                assert verdicts[relabel(mask)]["verdict"] == verdict["verdict"], mask
        # the relabelings are bijections, so these are the witnesses of every sigma(I)
        assert all(pm.reverify_witness(v, n, d) for v in verdicts.values())


class TestReportDeterminism:
    def test_byte_identical_across_runs_and_jobs(self, monkeypatch):
        # two CPUs and one mask per worker, so that jobs=2 runs a real pool on any host
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(suites, "_MIN_SLICE", 1)
        cases = [
            (pm.run_theorem_suite, pm.CorpusSpec(n=3, d=2)),
            (pm.run_conjecture_search,
             pm.CorpusSpec(n=4, d=2, mode="random", m=4, count=60, seed=5)),
            (pm.run_theorem_suite, pm.CorpusSpec(n=3, d=3, dedupe_isomorphic=True)),
            (pm.run_localization_probe, pm.CorpusSpec(n=4, d=2)),
            (pm.run_conjecture_search, pm.CorpusSpec(n=3, d=3, start_mask=1000)),
        ]
        for runner, spec in cases:
            blobs = {runner(spec, jobs=jobs).to_json() for jobs in (1, 2, 1)}
            assert len(blobs) == 1, spec

    def test_real_pool_above_the_size_is_byte_identical(self, monkeypatch):
        # two workers at the real _MIN_SLICE, in a forked pool
        monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        spec = pm.CorpusSpec(n=3, d=4, start_mask=2**15 - 2 * suites._MIN_SLICE - 1)
        # to_json's indented rendering is the pure-Python encoder, about 1.5 s
        # a report here; the C encoder renders the same keys and values
        blobs = [json.dumps(pm.run_theorem_suite(spec, jobs=jobs).to_json_dict(), sort_keys=True)
                 for jobs in (1, 2)]
        assert started == [2]
        assert blobs[0] == blobs[1]

    def test_schema_fields(self):
        report = pm.run_theorem_suite(pm.CorpusSpec(n=2, d=2))
        data = json.loads(report.to_json())
        assert data["schema"] == 1
        assert data["tool"] == "polymat"
        assert data["suite"] == "theorem"
        assert sum(data["totals"].values()) == len(data["verdicts"])
        assert "wall_time" not in data

    def test_exit_codes(self):
        assert pm.run_theorem_suite(pm.CorpusSpec(n=2, d=2)).exit_code() == 0

    def test_mask_too_long_to_render_is_refused(self, digit_limit):
        report = pm.CheckReport("theorem", {}, [{"verdict": "consistent", "mask": 1 << 20_000}])
        with pytest.raises(pm.BoundExceededError, match="cannot render the JSON"):
            report.to_json()
