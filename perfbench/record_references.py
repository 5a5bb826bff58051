"""Record the reference output digests that every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/record_references.py

Run it from the repository root at the commit whose outputs are the
reference; it rewrites perfbench/references.json.  Suites run at jobs=1
here, so a timed `sweep` pass at jobs=N also shows that the parallel
report equals the serial one byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
from multiprocessing import get_context
from pathlib import Path

import workloads

OUT = Path(__file__).resolve().parent / "references.json"


def _digests(job: tuple[str, int, bool]) -> dict[str, str]:
    workload, seed, seeded = job
    out = {}
    for op in workloads.build(workload, seed, tiny=False, jobs=1):
        if op.expected is None and op.seeded == seeded:
            out[op.key] = workloads.digest(op.render(op.call()))
    return out


def main() -> int:
    jobs = [("localize", 0, False), ("betti", 0, False)]
    jobs += [(w, s, True) for s in range(workloads.INPUT_SEEDS) for w in ("sweep", "betti")]
    references: dict[str, str] = {}
    with get_context("spawn").Pool(min(2, os.cpu_count() or 1)) as pool:
        for i, found in enumerate(pool.imap_unordered(_digests, jobs), 1):
            references.update(found)
            print(f"{i}/{len(jobs)}", file=sys.stderr, flush=True)
    OUT.write_text(json.dumps(dict(sorted(references.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
