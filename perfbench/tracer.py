"""Per-layer spans taken from outside the library.

`install()` rebinds the module attributes that callers look up at call time
(for example `polymat.betti.integer_rank`, which `graded_betti` reaches
through its module globals) to timing wrappers.  No source file changes.
Spans live in a list in memory; `dump()` writes them out once the pass is
over, and `layers.py` derives the per-layer metrics from them.

A span is `[name, start, end, parent, attr]`: `parent` is the index of the
enclosing span (-1 at top level) and `attr` is a small figure about the
call (matrix shape, lattice size, orders visited) or None.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time

import polymat.betti
import polymat.core
import polymat.polymatroid
import polymat.quotients
import polymat.suites


def _perm_rank(perm: tuple[int, ...]) -> int:
    """0-based position of a permutation of 1..n in lexicographic order."""
    rest = sorted(perm)
    rank = 0
    for p in perm:
        i = rest.index(p)
        rank += i * math.factorial(len(rest) - 1)
        rest.pop(i)
    return rank


def _sweep_attr(args, result):
    n = args[0].n
    visited = math.factorial(n) if result is None else _perm_rank(result[0].perm) + 1
    return [visited, math.factorial(n)]


def _rank_attr(args, result):
    rows = args[0]
    return [len(rows), len(rows[0]) if rows else 0]


def _eager(fn):
    @functools.wraps(fn)
    def eager(*args, **kwargs):
        return list(fn(*args, **kwargs))

    return eager


# (module, attribute, span name, attr function); attr functions see (args, result)
HOOKS = [
    (polymat.suites, "run_theorem_suite", "suites.run", None),
    (polymat.suites, "run_conjecture_search", "suites.run", None),
    (polymat.suites, "run_localization_probe", "suites.run", None),
    (polymat.suites, "_theorem_verdict", "suites.verdict", None),
    (polymat.suites, "_conjecture_verdict", "suites.verdict", None),
    (polymat.suites, "_localization_verdict", "suites.verdict", None),
    (polymat.suites, "enumerate_corpus", "corpus.build", lambda args, result: len(result)),
    (polymat.polymatroid, "exchange_failure", "polymatroid.exchange",
     lambda args, result: result is None),
    (polymat.quotients, "exchange_failure", "polymatroid.exchange",
     lambda args, result: result is None),
    (polymat.quotients, "lq_all_orders_failure", "quotients.sweep", _sweep_attr),
    (polymat.quotients, "sort_generators", "quotients.sort", None),
    (polymat.quotients, "linear_quotients_failure", "quotients.lq_test", None),
    (polymat.betti, "graded_betti", "betti.graded_betti", None),
    (polymat.betti, "has_linear_resolution", "betti.hlr", None),
    (polymat.suites, "has_linear_resolution", "betti.hlr", None),
    (polymat.betti, "lcm_lattice", "betti.lattice", lambda args, result: len(result)),
    (polymat.betti, "integer_rank", "betti.rank", _rank_attr),
    (polymat.core.MonomialIdeal, "localize", "core.localize", None),
]

# Generators whose span must cover consuming them, not just creating them.
EAGER = ("corpus.build",)

# The cached entry points whose cache_info() the dump records.
CACHED = ("graded_betti", "has_linear_resolution")


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.originals: dict[str, tuple[object, str, object]] = {}
        self.missing: list[str] = []
        self.caches: dict[str, list[int]] = {}

    def wrap(self, name: str, fn, attr=None):
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return timed

    def install(self) -> None:
        for owner, attr_name, span_name, attr in HOOKS:
            label = f"{owner.__name__}.{attr_name}"
            fn = getattr(owner, attr_name, None)
            if fn is None:
                # the library moved this entry point; its spans read zero
                self.missing.append(label)
                print(f"tracer: no hook {label}", file=sys.stderr)
                continue
            self.originals[label] = (owner, attr_name, fn)
            if span_name in EAGER:
                fn = _eager(fn)
            setattr(owner, attr_name, self.wrap(span_name, fn, attr))

    def stop(self) -> None:
        """Restore the library and note its cache counters; later calls go untimed."""
        for owner, attr_name, fn in self.originals.values():
            setattr(owner, attr_name, fn)
        for name in CACHED:
            fn = getattr(polymat.betti, name)
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                self.caches[name] = [info.hits, info.misses]

    def dump(self, path: str, **extra) -> None:
        payload = {"spans": self.spans, "missing": self.missing,
                   "cache_info": self.caches, **extra}
        with open(path, "w") as fh:
            json.dump(payload, fh)
