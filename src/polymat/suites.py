"""Suite runners and structured reports.

Each suite maps a checker over a corpus and assembles a CheckReport whose
JSON rendering is byte-identical across runs and worker counts: verdicts
are keyed by corpus index, keys are sorted, and timing lives only on the
in-memory report, never in the JSON.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

from .betti import has_linear_resolution
from .core import (
    Monomial, MonomialIdeal, VariableOrder, _check_perm_guard, _integers, all_variable_orders
)
from .corpus import CorpusItem, CorpusSpec, enumerate_corpus, ideal_from_mask
from .ioformats import dump_json, ideal_to_json_dict
from .polymatroid import exchange_failure, is_polymatroidal
from .quotients import (
    ConjectureOutcome,
    LQFailure,
    conjecture_probe,
    has_quotients_with_linear_resolution,
    linear_quotients_failure,
    sort_generators,
    theorem_equivalence,
)

REMARK_GENS = ((1, 0, 2), (2, 0, 1), (1, 1, 1), (0, 2, 1))

_BAD_VERDICTS = {"MISMATCH", "COUNTEREXAMPLE", "VIOLATION", "fail"}


def remark_ideal() -> MonomialIdeal:
    """The four-generator ideal reproduced by `suite remark`."""
    return MonomialIdeal(3, map(Monomial, REMARK_GENS))


@dataclass
class CheckReport:
    """Structured verdicts for one suite run.

    Everything else is read off the verdicts and the corpus parameters.
    wall_time is informational only and deliberately excluded from the
    JSON rendering so that reports stay byte-identical across runs.
    """

    suite: str
    parameters: dict
    verdicts: list[dict]
    wall_time: float = 0.0

    @property
    def totals(self) -> dict[str, int]:
        return dict(Counter(v["verdict"] for v in self.verdicts))

    @property
    def seed(self) -> int | None:
        """The sampling seed; only random corpora record one."""
        return self.parameters.get("seed")

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def failures(self) -> list[dict]:
        """The verdicts that make the report fail, in corpus order."""
        return [v for v in self.verdicts if v["verdict"] in _BAD_VERDICTS]

    def exit_code(self) -> int:
        return 0 if self.passed else 1

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "parameters": self.parameters,
            "seed": self.seed,
            "totals": self.totals,
            "passed": self.passed,
            "notes": [],  # schema 1 keeps the key; nothing writes notes
            "verdicts": self.verdicts,
        }

    def to_json(self) -> str:
        return dump_json(self.to_json_dict())

    def summary(self) -> str:
        counts = ", ".join(f"{k}={v}" for k, v in sorted(self.totals.items()))
        status = "PASS" if self.passed else "FAIL"
        return (
            f"suite {self.suite}: {status} ({counts}) "
            f"[{len(self.verdicts)} verdicts, {self.wall_time:.2f}s]"
        )


def _item_fields(item: CorpusItem) -> dict:
    """The fields every corpus verdict starts with; reverify_witness reads mask and gens."""
    return {"index": item.index, "mask": item.mask, "gens": ideal_to_json_dict(item.ideal)["gens"]}


def _order_witness(kind: str, order: VariableOrder, failure: LQFailure) -> dict:
    """A linear-quotients failure under one induced order, as reverify_witness reads it."""
    return {"kind": kind, "order": list(order.perm), **failure.to_json_dict()}


def _run_suite(
    name: str, verdict_fn: Callable[[CorpusItem], dict], spec: CorpusSpec, jobs: int
) -> CheckReport:
    """Map verdict_fn over the corpus on up to `jobs` processes and tally a report.

    Under fork the pool starts all its workers at the first submit, so it
    gets at most one per CPU; where that leaves one, the map runs in this
    process.
    """
    (jobs,) = _integers((jobs,), "jobs", 1)
    start = time.perf_counter()
    items = list(enumerate_corpus(spec))
    workers = min(jobs, os.cpu_count() or 1)
    if workers == 1:
        verdicts = [verdict_fn(item) for item in items]
    else:
        chunk = max(1, len(items) // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            verdicts = list(pool.map(verdict_fn, items, chunksize=chunk))
    return CheckReport(name, spec.to_json_dict(), verdicts, time.perf_counter() - start)


def _theorem_verdict(item: CorpusItem) -> dict:
    check = theorem_equivalence(item.ideal)
    out = {
        **_item_fields(item),
        "polymatroidal": check.polymatroidal,
        "lex_all_orders": check.lex_all_orders,
    }
    consistent = check.consistent
    if item.ideal.n == 2:
        linear = has_linear_resolution(item.ideal)
        out["linear_resolution"] = linear
        consistent = consistent and linear == check.polymatroidal
    out["verdict"] = "consistent" if consistent else "MISMATCH"
    if not consistent:
        if check.exchange_witness is not None:
            out["exchange_witness"] = check.exchange_witness.to_json_dict()
        if check.lq_witness is not None:
            out["lq_witness"] = _order_witness("lex", *check.lq_witness)
    return out


def run_theorem_suite(spec: CorpusSpec, jobs: int = 1) -> CheckReport:
    """Exchange property versus lex linear quotients for every variable order.

    For two-variable corpora the verdict additionally requires agreement
    with the linear-resolution predicate.  Every verdict visits the n! orders,
    so the permutation guard is checked before the corpus is built.
    """
    _check_perm_guard(spec.n)
    return _run_suite("theorem", _theorem_verdict, spec, jobs)


def _conjecture_verdict(item: CorpusItem) -> dict:
    probe = conjecture_probe(item.ideal)
    out = {**_item_fields(item), "verdict": probe.outcome.value}
    if probe.outcome is ConjectureOutcome.REFUTED:
        out["refuting_order"] = _order_witness("revlex", probe.refuting_order, probe.lq_failure)
    if probe.outcome is ConjectureOutcome.COUNTEREXAMPLE:
        # headline event: serialize everything needed to re-verify
        out["exchange_witness"] = probe.exchange_witness.to_json_dict()
        out["revlex_orders_checked"] = [
            list(o.perm) for o in all_variable_orders(item.ideal.n)
        ]
    return out


def run_conjecture_search(spec: CorpusSpec, jobs: int = 1) -> CheckReport:
    """Search for non-polymatroidal ideals with revlex linear quotients
    under every variable ordering; finding one is a headline event."""
    return _run_suite("conjecture", _conjecture_verdict, spec, jobs)


def _unit_masks(I: MonomialIdeal) -> set[int]:
    """The proper masks whose substitution turns I into the unit ideal.

    Bit i - 1 of a mask stands for x_i.  I.localize(off) is the unit ideal
    exactly when some generator's support lies inside off, so the test
    reads one support mask per generator and builds no localization.
    """
    supports = {sum(1 << i - 1 for i in g.support) for g in I.gens}
    return {mask for mask in range((1 << I.n) - 1) if any(s & mask == s for s in supports)}


def _is_linear_localization(L: MonomialIdeal) -> bool:
    """Whether a non-unit localization has a linear resolution.

    An equigenerated ideal with linear quotients has a linear resolution
    (Herzog-Takayama).  Localizations of polymatroidal ideals are
    polymatroidal and so have revlex linear quotients, which the identity
    order tests cheaply.  The test can only decide "linear": every other
    case, every violation included, is decided by homology.
    """
    if L.is_equigenerated() is not None:
        seq = sort_generators(L, "revlex", VariableOrder.identity(L.n))
        if linear_quotients_failure(seq) is None:
            return True
    return has_linear_resolution(L)


def _localization_verdict(item: CorpusItem) -> dict:
    I = item.ideal
    out = _item_fields(item)
    if not is_polymatroidal(I):
        out["verdict"] = "not_polymatroidal"
        return out
    # every mask but the last, which substitutes all variables away and leaves the unit ideal
    proper = (1 << I.n) - 1
    unit = _unit_masks(I)  # the unit ideal counts as linear
    violations = []
    for mask in range(proper):
        if mask in unit:
            continue
        off = [i + 1 for i in range(I.n) if mask >> i & 1]
        if not _is_linear_localization(I.localize(off)):
            violations.append(off)
    out["checked"] = proper
    out["violations"] = violations
    out["verdict"] = "all_linear" if not violations else "VIOLATION"
    return out


def run_localization_probe(spec: CorpusSpec, jobs: int = 1) -> CheckReport:
    """For each polymatroidal corpus ideal, every proper substitution
    x_i -> 1 must leave an ideal with a linear resolution.

    A substitution that sends a generator to 1 leaves the unit ideal, which
    counts as linear and is skipped before it is built; a localization with
    identity revlex linear quotients is linear by Herzog-Takayama.  Only
    the graded Betti numbers decide the rest, so a VIOLATION always comes
    from homology.
    """
    return _run_suite("localization", _localization_verdict, spec, jobs)


def reproduce_remark() -> CheckReport:
    """Three facts about the fixed four-generator example in K[x1,x2,x3]:
    it is not polymatroidal; linear quotients fail under both the lex and
    revlex orderings induced by x3 > x2 > x1; yet quotients with linear
    resolution hold for both kinds under all six variable orders."""
    start = time.perf_counter()
    I = remark_ideal()
    verdicts = []

    witness = exchange_failure(I)
    verdicts.append(
        {
            "clause": 1,
            "description": "not polymatroidal",
            "verdict": "pass" if witness is not None else "fail",
            "exchange_witness": None if witness is None else witness.to_json_dict(),
        }
    )

    order321 = VariableOrder((3, 2, 1))
    failures = {}
    for kind in ("lex", "revlex"):
        failure = linear_quotients_failure(sort_generators(I, kind, order321))
        failures[kind] = failure
    verdicts.append(
        {
            "clause": 2,
            "description": "linear quotients fail under lex and revlex for x3>x2>x1",
            "verdict": "pass" if all(f is not None for f in failures.values()) else "fail",
            "failures": {
                kind: None if f is None else f.to_json_dict() for kind, f in failures.items()
            },
        }
    )

    qwlr = {}
    for kind in ("lex", "revlex"):
        for order in all_variable_orders(3):
            seq = sort_generators(I, kind, order)
            qwlr[f"{kind}:{order}"] = has_quotients_with_linear_resolution(seq)
    verdicts.append(
        {
            "clause": 3,
            "description": "quotients with linear resolution for all 12 kind/order pairs",
            "verdict": "pass" if all(qwlr.values()) else "fail",
            "combinations": {k: v for k, v in sorted(qwlr.items())},
        }
    )

    return CheckReport("remark", ideal_to_json_dict(I), verdicts, time.perf_counter() - start)


def reverify_witness(verdict: dict, n: int, d: int) -> bool:
    """Replay every serialized failure witness a verdict carries.

    Returns True when each recorded failure reproduces exactly.
    """
    I = ideal_from_mask(n, d, verdict["mask"])
    if ideal_to_json_dict(I)["gens"] != verdict["gens"]:
        return False
    for key in ("refuting_order", "lq_witness"):
        if key in verdict:
            w = verdict[key]
            order = VariableOrder(tuple(w["order"]))
            failure = linear_quotients_failure(sort_generators(I, w["kind"], order))
            if failure is None or _order_witness(w["kind"], order, failure) != w:
                return False
    if "exchange_witness" in verdict:
        failure = exchange_failure(I)
        if failure is None or failure.to_json_dict() != verdict["exchange_witness"]:
            return False
    return True


# name -> runner, in the order the CLI lists them; remark takes no corpus
SUITES = {
    "theorem": run_theorem_suite,
    "conjecture": run_conjecture_search,
    "remark": reproduce_remark,
    "localization": run_localization_probe,
}
