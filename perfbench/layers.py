"""Per-layer metrics derived from the spans one traced pass wrote out.

Self time of a span is its duration minus the time its direct children
cover.  Times are seconds unless the name says ms, scaled like the
end-to-end timings: divided by the slowdown the pass measured (see
hostspeed.py).  Counts are whole calls.
"""

from __future__ import annotations

import statistics
from collections import defaultdict


def per_layer(dump: dict) -> dict[str, float]:
    spans = dump["spans"]
    slowdown = dump["slowdown"]
    children = [0.0] * len(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for index, (name, start, end, parent, _) in enumerate(spans):
        by_name[name].append(index)
        if parent >= 0:
            children[parent] += (end - start) / slowdown

    def dur(i: int) -> float:
        return (spans[i][2] - spans[i][1]) / slowdown

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> float:
        return sum(dur(i) for i in by_name[name])

    def attrs(name: str) -> list:
        return [spans[i][4] for i in by_name[name]]

    def frac(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    exchange = attrs("polymatroid.exchange")
    visited = attrs("quotients.sweep")
    shapes = attrs("betti.rank")
    hits = sum(h for h, _ in dump["cache_info"].values())
    lookups = sum(h + m for h, m in dump["cache_info"].values())
    verdict_ms = sorted(dur(i) * 1000 for i in by_name["suites.verdict"])
    build_s = total("corpus.build")
    orders_visited = sum(v for v, _ in visited)

    return {
        "corpus.build_s": build_s,
        "corpus.ideals": sum(attrs("corpus.build")),
        "corpus.pickle_bytes": dump["pickle_bytes"],
        "polymatroid.exchange_calls": calls("polymatroid.exchange"),
        "polymatroid.exchange_s": total("polymatroid.exchange"),
        "polymatroid.polymatroidal_frac": frac(sum(exchange), len(exchange)),
        "quotients.sweep_calls": calls("quotients.sweep"),
        "quotients.sweep_s": total("quotients.sweep"),
        "quotients.orders_visited": orders_visited,
        "quotients.visited_frac": frac(orders_visited, sum(n for _, n in visited)),
        "quotients.sort_calls": calls("quotients.sort"),
        "quotients.sort_s": total("quotients.sort"),
        "quotients.lq_test_calls": calls("quotients.lq_test"),
        "quotients.lq_test_s": total("quotients.lq_test"),
        "betti.graded_betti_calls": calls("betti.graded_betti"),
        "betti.graded_betti_s": total("betti.graded_betti"),
        "betti.hlr_calls": calls("betti.hlr"),
        "betti.hlr_s": total("betti.hlr"),
        "betti.cache_hit_frac": frac(hits, lookups),
        "betti.lattice_points": sum(attrs("betti.lattice")),
        "betti.lattice_s": total("betti.lattice"),
        "betti.rank_calls": calls("betti.rank"),
        "betti.rank_s": total("betti.rank"),
        "betti.rank_cells": sum(r * c for r, c in shapes),
        "betti.rank_max_dim": max((max(r, c) for r, c in shapes), default=0),
        # graded_betti's own time: face enumeration plus the cone test
        "betti.faces_self_s": sum(dur(i) - children[i] for i in by_name["betti.graded_betti"]),
        "core.localize_calls": calls("core.localize"),
        "core.localize_s": total("core.localize"),
        "suites.verdict_p50_ms": _quantile(verdict_ms, 50),
        "suites.verdict_p99_ms": _quantile(verdict_ms, 99),
        "suites.overhead_s": total("suites.run") - build_s - sum(verdict_ms) / 1000,
        "suites.report_bytes": dump["report_bytes"],
    }


def _quantile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]
