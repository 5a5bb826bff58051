"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED SPAWNED_AT JOBS [--tiny]
        [--setup-only] [--trace SPANS.json] [--references REFS.json]

SPAWNED_AT is the parent's time.monotonic() just before it started this
process, so `ready - SPAWNED_AT` is the set-up time: interpreter start,
`import polymat` and building the inputs.  The timed section then runs
every operation of the workload; outputs are checked against the recorded
references afterwards.  The host-speed sampler runs through set-up and
the timed section; its probes' time is subtracted from both.
Prints one JSON object on stdout.
"""

from __future__ import annotations

import hostspeed  # first, so that sampling covers the imports below

sampler = hostspeed.Sampler()
sampler.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402  imports polymat: part of set-up

RAISED = object()


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def _pickle_bytes(specs, jobs: int) -> int:
    """Bytes a jobs-worker suite run pickles to ship its corpus items, chunked
    as the suite's process pool chunks them."""
    from polymat.corpus import enumerate_corpus

    total = 0
    for spec in specs:
        items = list(enumerate_corpus(spec))
        chunk = max(1, len(items) // (jobs * 8))
        for i in range(0, len(items), chunk):
            total += len(pickle.dumps(tuple((it,) for it in items[i : i + chunk])))
    return total


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("spawned_at", type=float)
    p.add_argument("jobs", type=int)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace")
    p.add_argument("--references")
    args = p.parse_args()

    seed = workloads.input_seed(args.seed)
    ops = workloads.build(args.workload, seed, tiny=args.tiny, jobs=args.jobs)
    ready = time.monotonic()
    setup_slowdown, probing = sampler.take()
    setup = {"setup_s": ready - args.spawned_at - probing, "setup_slowdown": setup_slowdown}
    if args.setup_only:
        sampler.stop()
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        # span times leave out the probes' time, as the pass's wall time does
        tracer = Tracer(clock=lambda: time.perf_counter() - sampler.busy)
        tracer.install()

    outputs, op_walls = [], []
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    for op in ops:
        begun, probed = time.perf_counter(), sampler.busy
        try:
            outputs.append(op.call())
        except Exception:
            traceback.print_exc()
            outputs.append(RAISED)
        op_walls.append(time.perf_counter() - begun - (sampler.busy - probed))
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sampler.stop()
    slowdown, probing = sampler.take()
    if tracer is not None:
        tracer.stop()

    references = {}
    if args.references:
        with open(args.references) as fh:
            references = json.load(fh)
    digests = {}
    failed = 0
    report_bytes = 0
    for op, out in zip(ops, outputs):
        digest = None
        if out is not RAISED:
            text = op.render(out)
            digest = workloads.digest(text)
            if op.specs:
                report_bytes += len(text)
        digests[op.key] = digest
        expected = op.expected or references.get(op.key)
        # tiny inputs have no recorded references; the self-check compares
        # their digests between traced and untraced passes instead
        checked = expected is not None or not args.tiny
        if out is RAISED or (checked and digest != expected):
            print(f"child: {op.key} differs from its reference", file=sys.stderr)
            failed += op.ideals

    result = {
        **setup,
        "input_seed": seed,
        "wall_s": wall - probing,
        "slowdown": slowdown,
        "op_walls": op_walls,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0) - probing,
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "attempted": sum(op.ideals for op in ops),
        "failed": failed,
        "report_bytes": report_bytes,
        "digests": digests,
    }
    if tracer is not None:
        specs = [s for op in ops for s in op.specs]
        tracer.dump(args.trace, slowdown=slowdown, report_bytes=report_bytes,
                    pickle_bytes=_pickle_bytes(specs, os.cpu_count() or 1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        sampler.stop()  # a timer left running would kill the exiting interpreter
    sys.exit(code)
