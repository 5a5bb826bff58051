"""Acceptance gate: one test per criterion, each printing a PASS line.

The heavy corpora (all non-empty subsets of the degree-d monomials for
(n, d) in {(3, 2), (3, 3), (4, 2)}) are shared across criteria via
module-scoped fixtures.
"""

import random

import pytest

import polymat as pm
from polymat.quotients import qwlr_by_order

CORPORA = ((3, 2), (3, 3), (4, 2))


@pytest.fixture(scope="module")
def exhaustive_corpora():
    out = {}
    for n, d in CORPORA:
        out[(n, d)] = [item.ideal for item in pm.enumerate_corpus(pm.CorpusSpec(n=n, d=d))]
    return out


@pytest.fixture(scope="module")
def two_variable_corpora():
    return {
        d: [item.ideal for item in pm.enumerate_corpus(pm.CorpusSpec(n=2, d=d))]
        for d in range(1, 6)
    }


@pytest.fixture(scope="module")
def lq_survey(exhaustive_corpora, two_variable_corpora):
    """Every ideal with its (kind, order, sequence) triples that have
    linear quotients, over all corpora."""
    survey = []
    pools = list(exhaustive_corpora.values()) + list(two_variable_corpora.values())
    for pool in pools:
        for ideal in pool:
            hits = []
            for kind in ("lex", "revlex"):
                for order in pm.all_variable_orders(ideal.n):
                    seq = pm.sort_generators(ideal, kind, order)
                    if pm.has_linear_quotients(seq):
                        hits.append((kind, order, seq))
            survey.append((ideal, hits))
    return survey


def test_criterion_1_remark_reproduction():
    report = pm.reproduce_remark()
    assert report.passed, report.verdicts
    clauses = {v["clause"]: v for v in report.verdicts}
    assert clauses[1]["verdict"] == "pass"
    assert clauses[2]["verdict"] == "pass"
    assert clauses[3]["verdict"] == "pass"
    assert len(clauses[3]["combinations"]) == 12
    print("ACCEPTANCE 1 remark reproduction: PASS (3/3 clauses, 12/12 combinations)")


def test_criterion_2_theorem_equivalence_exhaustive():
    expected = {(3, 2): 63, (3, 3): 1023, (4, 2): 1023}
    for (n, d), total in expected.items():
        report = pm.run_theorem_suite(pm.CorpusSpec(n=n, d=d))
        assert report.totals == {"consistent": total}, report.totals
    print("ACCEPTANCE 2 theorem equivalence: PASS (63 + 1023 + 1023 consistent, 0 mismatches)")


def test_criterion_3_conjecture_proven_ranges():
    for n, d in CORPORA:
        report = pm.run_conjecture_search(pm.CorpusSpec(n=n, d=d))
        assert report.totals.get("COUNTEREXAMPLE", 0) == 0, report.totals
        assert report.passed
    print("ACCEPTANCE 3 conjecture proven ranges: PASS (0 counterexamples on all three corpora)")


def test_criterion_4_two_variable_triple_equivalence(two_variable_corpora):
    checked = 0
    for pool in two_variable_corpora.values():
        for ideal in pool:
            a = pm.is_polymatroidal(ideal)
            b = pm.has_lq_all_orders(ideal, "revlex")
            c = pm.has_linear_resolution(ideal)
            assert a == b == c, (ideal, a, b, c)
            checked += 1
    print(f"ACCEPTANCE 4 two-variable triple equivalence: PASS ({checked} ideals)")


def test_criterion_5_betti_oracle_agreement(exhaustive_corpora, two_variable_corpora):
    rng = random.Random(20240811)
    random_checked = 0
    while random_checked < 100:
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        basis = pm.monomials_of_degree(n, d).elems
        size = rng.randint(1, min(8, len(basis)))
        ideal = pm.MonomialIdeal(n, rng.sample(basis, size))
        assert pm.graded_betti(ideal) == pm.taylor_strand_betti(ideal), ideal
        random_checked += 1
    corpus_checked = 0
    pools = list(exhaustive_corpora.values()) + list(two_variable_corpora.values())
    for pool in pools:
        for ideal in pool:
            if len(ideal.gens) > 8:
                continue
            assert pm.graded_betti(ideal) == pm.taylor_strand_betti(ideal), ideal
            corpus_checked += 1
    print(
        f"ACCEPTANCE 5 betti oracle agreement: PASS "
        f"({random_checked} random + {corpus_checked} corpus ideals, exact)"
    )


def test_criterion_6_lq_implies_linear_resolution_and_qwlr(lq_survey):
    sequences = 0
    ideals_with_lq = 0
    for ideal, hits in lq_survey:
        if not hits:
            continue
        ideals_with_lq += 1
        assert pm.has_linear_resolution(ideal), ideal
        for kind in ("lex", "revlex"):
            orders = [order for k, order, _ in hits if k == kind]
            for order, holds in qwlr_by_order(ideal, kind, orders).items():
                assert holds, (ideal, kind, order)
                sequences += 1
    # qwlr_by_order answers a colon that linear quotients make variable-
    # generated without homology, so homology checks the distinct prefix
    # colon ideals of the distinct sequences here
    colons = set()
    for seq in {seq for _, hits in lq_survey for _, _, seq in hits}:
        for j, v in enumerate(seq[1:], 1):
            colons.add(pm.MonomialIdeal(v.n, [pm.colon_monomial(u, v) for u in seq[:j]]))
    for colon in colons:
        assert pm.has_linear_resolution(colon), colon
    print(
        f"ACCEPTANCE 6 LQ => linear resolution and QWLR: PASS "
        f"({ideals_with_lq} ideals, {sequences} sequences, {len(colons)} colon ideals, "
        f"0 violations)"
    )


def test_criterion_7_symmetric_exchange_implication(exhaustive_corpora, two_variable_corpora):
    checked = 0
    pools = list(exhaustive_corpora.values()) + list(two_variable_corpora.values())
    for pool in pools:
        for ideal in pool:
            if pm.is_polymatroidal(ideal):
                assert pm.satisfies_symmetric_exchange(ideal), ideal
                checked += 1
    print(f"ACCEPTANCE 7 symmetric exchange implication: PASS ({checked} polymatroidal ideals)")


def test_criterion_8_lexsegment_suite():
    criterion_checked = 0
    probes_checked = 0
    for n in (2, 3):
        for d in (1, 2, 3):
            layer = pm.monomials_of_degree(n, d).elems
            for i, u in enumerate(layer):
                for v in layer[i:]:
                    if not pm.is_completely_lexsegment(u, v):
                        continue
                    ideal = pm.MonomialIdeal(n, pm.lexsegment(u, v).elems)
                    assert pm.arnehe_criterion(u, v) == pm.has_linear_resolution(ideal), (u, v)
                    criterion_checked += 1
                    outcome = pm.conjecture_probe(ideal).outcome
                    assert outcome is not pm.ConjectureOutcome.COUNTEREXAMPLE, (u, v)
                    probes_checked += 1
            for v in layer:
                outcome = pm.conjecture_probe(pm.final_segment_ideal(v)).outcome
                assert outcome is not pm.ConjectureOutcome.COUNTEREXAMPLE, v
                probes_checked += 1
    print(
        f"ACCEPTANCE 8 lexsegment suite: PASS "
        f"({criterion_checked} criterion/homology agreements, {probes_checked} probes clean)"
    )


def test_criterion_9_report_determinism():
    spec = pm.CorpusSpec(n=3, d=2)
    suites = {
        "theorem": lambda jobs: pm.run_theorem_suite(spec, jobs=jobs),
        "conjecture": lambda jobs: pm.run_conjecture_search(spec, jobs=jobs),
        "localization": lambda jobs: pm.run_localization_probe(spec, jobs=jobs),
    }
    for name, runner in suites.items():
        blobs = {runner(jobs).to_json() for jobs in (1, 8, 1, 8)}
        assert len(blobs) == 1, f"{name} reports differ across runs or worker counts"
    remark_blobs = {pm.reproduce_remark().to_json() for _ in range(2)}
    assert len(remark_blobs) == 1
    print("ACCEPTANCE 9 determinism: PASS (byte-identical reports at jobs 1 and 8)")
