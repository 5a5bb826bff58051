import json
import os

import pytest

import polymat as pm
from conftest import I, veronese
from polymat import suites


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

    def test_dedupe_isomorphic_orbit_count(self):
        # Burnside over S_3 acting on the 6 degree-2 monomials:
        # (2^6 + 3*2^4 + 2*2^2) / 6 = 20 orbits, 19 without the empty set
        spec = pm.CorpusSpec(n=3, d=2, dedupe_isomorphic=True)
        items = list(pm.enumerate_corpus(spec))
        assert len(items) == 19
        plain = {item.mask for item in pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2))}
        assert {item.mask for item in items} <= plain


class TestTheoremSuite:
    def test_exhaustive_n3_d2(self):
        report = pm.run_theorem_suite(pm.CorpusSpec(n=3, d=2))
        assert report.passed
        assert report.totals == {"consistent": 63}

    def test_two_variable_verdicts_carry_linear_resolution(self):
        report = pm.run_theorem_suite(pm.CorpusSpec(n=2, d=3))
        assert report.passed
        assert all("linear_resolution" in v for v in report.verdicts)

    def test_guard_checked_before_the_corpus_is_built(self, monkeypatch):
        # every verdict would hit the n! guard, so above it nothing is enumerated
        monkeypatch.delenv("POLYMAT_MAX_PERMS", raising=False)
        built = []
        monkeypatch.setattr(suites, "enumerate_corpus", lambda spec: built.append(spec) or [])
        with pytest.raises(pm.BoundExceededError):
            pm.run_theorem_suite(pm.CorpusSpec(n=9, d=1))
        assert built == []


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

    def test_random_mode_records_seed(self):
        spec = pm.CorpusSpec(n=4, d=2, mode="random", m=4, count=20, seed=9)
        report = pm.run_conjecture_search(spec)
        assert report.seed == 9
        assert report.parameters["seed"] == 9


def forced_theorem_mismatch(monkeypatch, with_exchange: bool) -> dict:
    """A theorem MISMATCH verdict carrying genuine witnesses.  No real corpus
    yields one (the theorem holds), so the check is forced to misreport a
    non-polymatroidal (3,2) ideal as polymatroidal."""

    def forced(I):
        exchange = pm.exchange_failure(I) if with_exchange else None
        return pm.TheoremCheck(True, False, exchange, pm.lq_all_orders_failure(I, "lex"))

    monkeypatch.setattr(suites, "theorem_equivalence", forced)
    corpus = pm.enumerate_corpus(pm.CorpusSpec(n=3, d=2))
    item = next(it for it in corpus if not pm.is_polymatroidal(it.ideal))
    return suites._theorem_verdict(item)


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

    def test_unit_masks_are_the_unit_localizations(self):
        for ideal in polymatroidal_ideals((3, 2), (4, 2), (3, 3), (2, 4)):
            unit = suites._unit_masks(ideal)
            for mask in range((1 << ideal.n) - 1):
                off = substituted(ideal.n, mask)
                assert (mask in unit) == ideal.localize(off).is_unit, (ideal, off)

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
        local = {}
        for ideal in polymatroidal_ideals((3, 2), (4, 2), (3, 3), (5, 2)):
            unit = suites._unit_masks(ideal)
            for mask in range((1 << ideal.n) - 1):
                if mask not in unit:
                    local[ideal.localize(substituted(ideal.n, mask))] = None
        for ideal in local:
            if certified(ideal):
                assert pm.graded_betti(ideal).is_linear(ideal.is_equigenerated()), ideal
            homology_calls.clear()
            assert suites._is_linear_localization(ideal)
            assert homology_calls == ([] if certified(ideal) else [ideal])

    @pytest.mark.parametrize("text, linear", [
        ("x1*x3 + x2^2 + x2*x3", True),
        ("x1^2 + x2^2", False),
    ])
    def test_failed_certificate_returns_the_homology_verdict(self, homology_calls, text, linear):
        ideal = I(text, 3)
        assert ideal.is_equigenerated() is not None and not certified(ideal)
        assert suites._is_linear_localization(ideal) is linear
        assert homology_calls == [ideal]
        assert pm.has_linear_resolution(ideal) is linear


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        """(max_workers, chunksize) of every pool the suites start.

        A real pool forks every worker at its first submit, so this one only
        records its size and chunking and maps in-process.
        """
        calls = []

        class RecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                calls.append((self.max_workers, chunksize))
                return map(fn, items)

        monkeypatch.setattr(suites, "ProcessPoolExecutor", RecordingPool)
        return calls

    def test_workers_capped_at_cpu_count(self, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = pm.CorpusSpec(n=2, d=1)
        report = pm.run_theorem_suite(spec, jobs=10**6)
        assert [size for size, _ in pools] == [2]
        assert report.to_json() == pm.run_theorem_suite(spec, jobs=1).to_json()

    def test_one_cpu_starts_no_pool(self, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        spec = pm.CorpusSpec(n=2, d=1)
        report = pm.run_theorem_suite(spec, jobs=4)
        assert pools == []
        assert report.to_json() == pm.run_theorem_suite(spec, jobs=1).to_json()

    def test_chunk_size_follows_the_workers(self, monkeypatch, pools):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = pm.CorpusSpec(n=3, d=2)
        pm.run_theorem_suite(spec, jobs=10**6)
        assert pools == [(2, spec.size() // 16)]


class TestReportDeterminism:
    def test_byte_identical_across_runs_and_jobs(self):
        spec = pm.CorpusSpec(n=3, d=2)
        blobs = {
            pm.run_theorem_suite(spec, jobs=jobs).to_json()
            for jobs in (1, 2, 1)
        }
        assert len(blobs) == 1

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
