"""Workload inputs and the operations one timed pass runs.

Shared by the pass process (`child.py`) and the reference recorder
(`record_references.py`), so both build exactly the same inputs from a
seed.  Every operation calls a public entry point of the library through
its module attribute at call time, so a traced pass sees the timing
wrappers installed by `tracer.py`.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from polymat import betti, corpus, quotients, suites
from polymat.core import MonomialIdeal
from polymat.lexsegment import monomials_of_degree

# References are recorded for this many input seeds; any --seed maps onto one.
INPUT_SEEDS = 100


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


@dataclass
class Op:
    """One operation of a pass: a call, how many ideals it decides, and how
    to render its output as the text whose sha256 is checked."""

    key: str
    ideals: int
    call: Callable[[], Any]
    render: Callable[[Any], str]
    specs: list = field(default_factory=list)  # corpora of a suite call
    expected: str | None = None  # known digest, needing no recorded reference
    seeded: bool = False  # whether the inputs depend on the seed


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _render_betti(I: MonomialIdeal, linear: bool) -> str:
    # graded_betti is cached, so this reads the table the timed call computed
    table = betti.graded_betti(I)
    return json.dumps({"betti": [list(e) for e in table.entries], "linear": linear})


def _render_orders(witness) -> str:
    if witness is None:
        return "null"
    order, failure = witness
    return json.dumps(
        {"order": list(order.perm), "position": failure.position,
         "blocker": list(failure.blocker.exponents)}
    )


# Both Veronese ideals are polymatroidal, so every all-orders sweep returns None.
NO_FAILURE = digest("null")


def veronese(n: int, d: int) -> MonomialIdeal:
    return MonomialIdeal(n, monomials_of_degree(n, d).elems)


def squarefree(n: int, d: int) -> list:
    return [m for m in monomials_of_degree(n, d).elems if m.is_squarefree]


def _suite_op(key: str, runner_name: str, spec, jobs: int, seeded: bool) -> Op:
    def call():
        return getattr(suites, runner_name)(spec, jobs=jobs)

    return Op(key, spec.size(), call, lambda report: report.to_json(), [spec], seeded=seeded)


def _sweep(seed: int, tiny: bool, jobs: int) -> list[Op]:
    count = 20 if tiny else 1500
    ops = []
    for m in (5, 10, 15):
        spec = corpus.CorpusSpec(4, 3, mode="random", m=m, count=count, seed=seed)
        ops.append(_suite_op(f"sweep/theorem/m{m}", "run_theorem_suite", spec, jobs, True))
        ops.append(
            _suite_op(f"sweep/conjecture/m{m}", "run_conjecture_search", spec, jobs, True)
        )
    return ops


def _orders(seed: int, tiny: bool, jobs: int) -> list[Op]:
    cases = [(4, 2, "lex"), (3, 3, "revlex")] if tiny else [(7, 2, "lex"), (6, 3, "revlex")]
    ops = []
    for n, d, kind in cases:
        I = veronese(n, d)
        ops.append(Op(f"orders/veronese-{n}-{d}/{kind}", 1,
                      lambda I=I, kind=kind: quotients.lq_all_orders_failure(I, kind),
                      _render_orders, expected=NO_FAILURE))
    return ops


def _betti(seed: int, tiny: bool, jobs: int) -> list[Op]:
    (vn, vd), (rn, rm) = ((6, 3), (6, 12)) if tiny else ((10, 3), (9, 60))
    V = MonomialIdeal(vn, tuple(squarefree(vn, vd)))
    cubics = squarefree(rn, 3)
    picked = set(random.Random(seed).sample(range(len(cubics)), rm))
    R = MonomialIdeal(rn, tuple(c for i, c in enumerate(cubics) if i in picked))
    return [
        Op(f"betti/sqfree-veronese-{vn}-{vd}", 1, lambda: betti.graded_betti(V),
           lambda table: _render_betti(V, table.is_linear(vd))),
        Op(f"betti/random-cubics-{rn}-{rm}", 1, lambda: betti.has_linear_resolution(R),
           lambda linear: _render_betti(R, linear), seeded=True),
    ]


def _localize(seed: int, tiny: bool, jobs: int) -> list[Op]:
    n, d = (3, 2) if tiny else (5, 2)
    spec = corpus.CorpusSpec(n, d)
    return [_suite_op(f"localize/exhaustive-{n}-{d}", "run_localization_probe", spec, 1, False)]


_MAKERS = {"sweep": _sweep, "orders": _orders, "betti": _betti, "localize": _localize}
WORKLOADS = tuple(_MAKERS)


def build(workload: str, seed: int, *, tiny: bool, jobs: int) -> list[Op]:
    """The operations of one pass.  `seed` is already an input seed; the keys
    of operations whose inputs depend on it carry it."""
    ops = _MAKERS[workload](seed, tiny, jobs)
    for op in ops:
        if op.seeded:
            op.key += f"/seed{seed}"
    return ops
