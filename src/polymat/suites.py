"""Suite runners and structured reports.

Each suite maps a checker over a corpus and assembles a CheckReport whose
JSON rendering is byte-identical across runs and worker counts: verdicts
are keyed by corpus index, keys are sorted, and timing lives only on the
in-memory report, never in the JSON.

The parent draws only the corpus masks.  A pool starts only when every
worker gets at least _MIN_SLICE masks, and workers are capped at the
CPUs this process may use; below that this process decides the whole
corpus as one slice.  Otherwise the masks are dealt round robin, worker
k getting masks[k::workers] with their corpus indices, so that each
worker meets the cheap and the costly parts of an exhaustive corpus
alike, and the parent puts the verdicts back in corpus order.
A slice builds one corpus._CorpusLayer, the tables of the degree layer,
and decides each verdict from its mask S: the exchange scan, the
identity-order and all-orders linear-quotients tests, the two-variable
linear-resolution test and the localizations of a polymatroidal mask
are integer operations on S and the layer's tables, the last with each
image lifted back into the layer by a power of x1, so that a slice
builds no other layer.  A MonomialIdeal is built only where a verdict
needs homology or a witness: a localization the tables do not certify
linear, and the witnesses of a MISMATCH or COUNTEREXAMPLE.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable

from .betti import has_linear_resolution
from .core import (
    Monomial, MonomialIdeal, VariableOrder, _check_perm_guard, _instance, _integers,
    _substituted, all_variable_orders,
)
from .corpus import CorpusSpec, _CorpusLayer, corpus_masks, ideal_from_mask
from .corpus import enumerate_corpus  # noqa: F401  not called here; perfbench's corpus.build hook
from .errors import InvalidArgumentError
from .ioformats import dump_json, ideal_to_json_dict
from .polymatroid import _bits, exchange_failure
from .quotients import (
    ConjectureOutcome,
    LQFailure,
    _lq_witness,
    linear_quotients_failure,
    qwlr_by_order,
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


def _order_witness(kind: str, order: VariableOrder, failure: LQFailure) -> dict:
    """A linear-quotients failure under one induced order, as reverify_witness reads it."""
    return {"kind": kind, "order": list(order.perm), **failure.to_json_dict()}


# A pool starts only when every worker gets at least this many masks.  Below
# it, starting the workers, filling each one's tables and unpickling their
# verdicts cost more than the second CPU saves: jobs 2 against jobs 1 on a
# shared 2-CPU host (fresh interpreters, alternating runs, masks dealt round
# robin) lost on every corpus of 6,000 and 12,000 masks (random (4,3) m = 10,
# the top masks of exhaustive (3,4) and (5,2)), was mixed at 16,000-24,000
# and won on most at 32,767 (CHANGES.md has the table).
_MIN_SLICE = 16_000


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has
    one, which a taskset or a container's cpuset can make smaller than the
    machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _verdict_chunk(task: tuple) -> list[dict]:
    """Map verdict_fn over one slice of corpus masks on one layer's tables.

    A task is (verdict_fn, n, d, the corpus indices of its masks, masks):
    ranges, plain ints and a module-level function, so no built ideal is
    pickled.
    """
    verdict_fn, n, d, indices, masks = task
    layer = _CorpusLayer(n, d)
    return [verdict_fn(layer, index, mask) for index, mask in zip(indices, masks)]


def _run_suite(
    name: str, verdict_fn: Callable[[_CorpusLayer, int, int], dict], spec: CorpusSpec, jobs: int
) -> CheckReport:
    """Map verdict_fn over the corpus on up to `jobs` processes and tally a report.

    The parent draws only the corpus masks.  There are at most as many
    workers as usable CPUs, and as many as give each at least _MIN_SLICE
    masks; with one, this process decides the corpus and no pool starts.
    Otherwise worker k gets masks[k::workers], a range where the corpus is
    one, with the indices range(k, len(masks), workers), so each process
    builds one layer, and the parent puts the verdicts back in corpus order.
    """
    spec = _instance(spec, CorpusSpec, "corpus spec")
    (jobs,) = _integers((jobs,), "jobs", 1)
    start = time.perf_counter()
    masks = corpus_masks(spec)
    workers = max(1, min(jobs, _usable_cpus(), len(masks) // _MIN_SLICE))
    tasks = [(verdict_fn, spec.n, spec.d, range(k, len(masks), workers), masks[k::workers])
             for k in range(workers)]
    if workers == 1:
        verdicts = _verdict_chunk(tasks[0])
    else:
        # imported where a pool starts: its modules (multiprocessing, logging,
        # socket, pickle) would otherwise load on every `import polymat`
        from concurrent.futures import ProcessPoolExecutor
        verdicts = [None] * len(masks)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for k, part in enumerate(pool.map(_verdict_chunk, tasks)):
                verdicts[k::workers] = part
    return CheckReport(name, spec.to_json_dict(), verdicts, time.perf_counter() - start)


def _theorem_verdict(layer: _CorpusLayer, index: int, mask: int) -> dict:
    polymatroidal = layer.exchange_failure(mask) is None
    lex_all_orders = layer.search("lex", mask) is None
    out = {
        **layer.fields(index, mask),
        "polymatroidal": polymatroidal,
        "lex_all_orders": lex_all_orders,
    }
    consistent = polymatroidal == lex_all_orders
    if layer.n == 2:
        # bit b is x1^(d-b) x2^b, and a two-variable ideal has a linear
        # (staircase) resolution exactly when its generators are consecutive
        linear = (mask + (mask & -mask)) & mask == 0
        out["linear_resolution"] = linear
        consistent = consistent and linear == polymatroidal
    out["verdict"] = "consistent" if consistent else "MISMATCH"
    if not consistent:
        # headline event: record every witness the ideal has, as the public
        # quotients.theorem_equivalence finds them
        check = theorem_equivalence(layer.ideal(mask))
        if check.exchange_witness is not None:
            out["exchange_witness"] = check.exchange_witness.to_json_dict()
        if check.lq_witness is not None:
            out["lq_witness"] = _order_witness("lex", *check.lq_witness)
    return out


def run_theorem_suite(spec: CorpusSpec, jobs: int = 1) -> CheckReport:
    """Exchange property versus lex linear quotients for every variable order.

    For two-variable corpora the verdict additionally requires agreement
    with a linear resolution, which there holds exactly when the mask is
    one run of consecutive bits (the staircase resolution, whose syzygies
    sit at the lcms of neighbouring generators).  Every verdict visits the
    n! orders, so the permutation guard is checked before the corpus is drawn.
    """
    _check_perm_guard(_instance(spec, CorpusSpec, "corpus spec").n)
    return _run_suite("theorem", _theorem_verdict, spec, jobs)


def _conjecture_verdict(layer: _CorpusLayer, index: int, mask: int) -> dict:
    out = layer.fields(index, mask)
    if layer.exchange_failure(mask) is None:
        out["verdict"] = ConjectureOutcome.POLYMATROIDAL.value
        return out
    found = layer.search("revlex", mask)
    if found is not None:
        witness = _lq_witness(found, layer.monomials)
        out["verdict"] = ConjectureOutcome.REFUTED.value
        out["refuting_order"] = _order_witness("revlex", *witness)
        return out
    # headline event: serialize everything needed to re-verify
    out["verdict"] = ConjectureOutcome.COUNTEREXAMPLE.value
    witness = exchange_failure(layer.ideal(mask))
    if witness is not None:
        out["exchange_witness"] = witness.to_json_dict()
    out["revlex_orders_checked"] = [list(o.perm) for o in all_variable_orders(layer.n)]
    return out


def run_conjecture_search(spec: CorpusSpec, jobs: int = 1) -> CheckReport:
    """Search for non-polymatroidal ideals with revlex linear quotients
    under every variable ordering; finding one is a headline event.

    A non-polymatroidal verdict visits the n! orders, so the permutation
    guard is checked before the corpus is drawn, whatever the corpus holds.
    """
    _check_perm_guard(_instance(spec, CorpusSpec, "corpus spec").n)
    return _run_suite("conjecture", _conjecture_verdict, spec, jobs)


def _local_generators(layer: _CorpusLayer, z: int, members: list[int],
                      images: list[tuple[int, int]]) -> tuple[int, int] | None:
    """The localization at z of the generators `members`, with the images
    (w, c) that layer.images gives, where it is generated in one degree:
    (W, its minimal generators times x1^W as a mask), W being the greatest
    w and W = layer.d the unit ideal; None where it is not.  The images of
    least degree are minimal and generate it exactly when every other is a
    multiple of one; one common x1^W keeps their colons and revlex order.
    """
    top = max(images)[0]
    if top == layer.d:
        return top, 1  # a generator goes to 1, and x1^d is bit 0
    least = lifted = 0
    for b, (w, c) in zip(members, images):
        if w == top:
            least |= 1 << b
            lifted |= 1 << c
    for b, (w, _) in zip(members, images):
        if w != top and not layer.divides[b, z] & least:
            return None
    return top, lifted


def _linear_on_tables(layer: _CorpusLayer, z: int, members: list[int],
                      images: list[tuple[int, int]]) -> bool:
    """True where the tables show the localization at z of these generators
    linear: it is the unit ideal, or it is generated in one degree and its
    lifted generators have identity revlex linear quotients
    (Herzog-Takayama).  False leaves it to homology."""
    found = _local_generators(layer, z, members, images)
    if found is None:
        return False
    w, lifted = found
    if w == layer.d:
        return True
    tables = layer.colon["revlex"]
    return tables.failure_at(lifted, tables.identity) is None


def _localization_verdict(layer: _CorpusLayer, index: int, mask: int) -> dict:
    """The localization verdict of the ideal of mask.  Each restriction z
    of a substitution to the ideal's support is decided on the layer's
    tables where they certify it linear; otherwise the homology of the
    ideal of the generators' core._substituted images at z decides it,
    which is the ideal MonomialIdeal.localize builds for z."""
    out = layer.fields(index, mask)
    if layer.exchange_failure(mask) is not None:
        out["verdict"] = "not_polymatroidal"
        return out
    out["checked"] = proper = (1 << layer.n) - 1  # every substitution but the one of all variables
    out["violations"] = []
    out["verdict"] = "all_linear"
    members = _bits(mask)
    images_of = [layer.images[b] for b in members]
    # a substitution acts through the variables of the ideal's support only, so
    # each restriction z of one to the support is decided once; z = support
    # sends every generator to 1
    support = reduce(or_, [s for s, _ in images_of])
    violating = set()
    z = 0
    while z != support:
        images = [image[z & s] for s, image in images_of]
        if not _linear_on_tables(layer, z, members, images):
            zeroed = [Monomial(_substituted(layer.exps[b], z)) for b in members]
            if not has_linear_resolution(MonomialIdeal(layer.n, zeroed)):
                violating.add(z)
        z = (z - support) & support  # the next submask of support, ascending
    if violating:
        # bit i - 1 of a substitution stands for x_i
        out["violations"] = [[i + 1 for i in _bits(sub)]
                             for sub in range(proper) if sub & support in violating]
        out["verdict"] = "VIOLATION"
    return out


def run_localization_probe(spec: CorpusSpec, jobs: int = 1) -> CheckReport:
    """For each polymatroidal corpus ideal, every proper substitution
    x_i -> 1 must leave an ideal with a linear resolution.

    A polymatroidal mask builds no localization where the slice's tables
    certify it linear.  A substitution that sends a generator to 1 leaves
    the unit ideal, which counts as linear, and one whose images of least
    degree generate the localization and have identity revlex linear
    quotients leaves a linear ideal (Herzog-Takayama); one generator always
    does.  Any other substitution builds its localization from the
    generators' exponents and asks has_linear_resolution, so a VIOLATION
    always comes from homology.
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

    qwlr = {
        f"{kind}:{order}": holds
        for kind in ("lex", "revlex")
        for order, holds in qwlr_by_order(I, kind, all_variable_orders(3)).items()
    }
    verdicts.append(
        {
            "clause": 3,
            "description": "quotients with linear resolution for all 12 kind/order pairs",
            "verdict": "pass" if all(qwlr.values()) else "fail",
            "combinations": {k: v for k, v in sorted(qwlr.items())},
        }
    )

    return CheckReport("remark", ideal_to_json_dict(I), verdicts, time.perf_counter() - start)


def _record(value: object, what: str, keys: tuple[str, ...]) -> dict:
    """value, refused unless it is a dict that holds every one of keys."""
    if not isinstance(value, dict) or not value.keys() >= set(keys):
        raise InvalidArgumentError(f"{what} must be a dict with {' and '.join(keys)}")
    return value


def reverify_witness(verdict: dict, n: int, d: int) -> bool:
    """Replay every serialized failure witness a verdict carries.

    Returns True when each recorded failure reproduces exactly: every order
    and exchange witness, and every listed localization violation, as a
    substitution whose MonomialIdeal.localize has no linear resolution.
    """
    I = ideal_from_mask(n, d, _record(verdict, "a verdict", ("mask", "gens"))["mask"])
    if ideal_to_json_dict(I)["gens"] != verdict["gens"]:
        return False
    for key in ("refuting_order", "lq_witness"):
        if key in verdict:
            w = _record(verdict[key], key, ("kind", "order"))
            order = VariableOrder(w["order"])
            failure = linear_quotients_failure(sort_generators(I, w["kind"], order))
            if failure is None or _order_witness(w["kind"], order, failure) != w:
                return False
    if "exchange_witness" in verdict:
        failure = exchange_failure(I)
        if failure is None or failure.to_json_dict() != verdict["exchange_witness"]:
            return False
    for off in _instance(verdict.get("violations", []), list, "violations"):
        if has_linear_resolution(I.localize(off)):
            return False
    return True


# name -> runner, in the order the CLI lists them; remark takes no corpus
SUITES = {
    "theorem": run_theorem_suite,
    "conjecture": run_conjecture_search,
    "remark": reproduce_remark,
    "localization": run_localization_probe,
}
