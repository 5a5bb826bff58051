"""The repository's benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload sweep|orders|betti|localize \\
        --seed N --seconds S --trace 0|1

Run it from the repository root.  Every pass runs in a fresh interpreter
(`child.py`), so the process-wide caches of `graded_betti` and
`has_linear_resolution` start cold each time.  Passes repeat until the
next one would overrun `--seconds`: at least two, and a third if it ends
within 1.5 x `--seconds`.

The host is shared: other tenants slow a pass by up to 2x, so raw pass
times swing by 30% from run to run.  Each untraced pass therefore samples
the host's speed while it runs (`hostspeed.py`), and every timing metric
(`wall_s`, `cpu_s`, `ideals_per_s`, `setup_s`) is scaled to the reference
machine at full speed: the raw time, less the probes' own time, divided by
the slowdown measured during it.  A metric is the median over the passes
of the run (over every set-up sample for `setup_s`).  The raw samples and
slowdowns go to the record in perfbench/out/, and the summary lines print
the raw medians too.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json from
untraced passes.  --trace 1 alternates untraced and traced passes, both at
jobs=1; the traced ones time each layer from outside the library
(`tracer.py`) and report the per-layer metrics, scaled the same way.  Every pass checks its
outputs against `references.json`; a mismatch makes the run incorrect and
the exit code 1.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"
SPEC = ROOT / "BENCHMARK.json"
MIN_PASSES = 2  # untraced passes, however long they take
FULL_PASSES = 3  # the last of these may end as late as STRETCH x --seconds
STRETCH = 1.5
SETUP_PROBES = 3  # extra set-up-only interpreters started after each pass
DEADLINE_S = 170.0  # the run must end within 180 s; no pass starts past this


class PassFailed(Exception):
    pass


def spawn(workload: str, seed: int, jobs: int, *flags: str, timeout: float) -> dict:
    """Run one child interpreter and return its JSON result.

    The child leads its own process group, so that on a timeout or an
    interrupt its pool workers are killed with it."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed),
           repr(spawned_at), str(jobs), *flags]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, preexec_fn=os.setpgrp)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass exceeded {timeout:.0f} s") from exc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    sys.stderr.write(err)
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"child exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    result["elapsed_s"] = time.monotonic() - spawned_at
    return result


def environment(args, input_seed, jobs: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polymat").rglob("*.py")):
        source.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "jobs": jobs,
        "trace": args.trace,
        "seconds": args.seconds,
        "size": "tiny" if args.tiny else "full",
    }


class Run:
    """Passes of one run, stopped when the next would overrun the budget."""

    def __init__(self, args) -> None:
        self.args = args
        self.start = time.monotonic()
        self.flags = ["--tiny"] if args.tiny else ["--references", str(REFERENCES)]

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, jobs: int, *flags: str) -> dict:
        return spawn(self.args.workload, self.args.seed, jobs, *self.flags, *flags,
                     timeout=DEADLINE_S - self.elapsed())

    def more(self, rounds: list[float], minimum: int, full: int) -> bool:
        """Whether another round fits, judged by the past rounds' durations."""
        if len(rounds) < minimum:
            return self.elapsed() + (max(rounds) if rounds else 0) < DEADLINE_S
        ends = self.elapsed() + statistics.median(rounds)
        return ends <= self.args.seconds * (STRETCH if len(rounds) < full else 1)


def run_untraced(run: Run, jobs: int) -> tuple[list[dict], dict]:
    passes, setups, rounds = [], [], []
    while run.more(rounds, MIN_PASSES, FULL_PASSES):
        begun = run.elapsed()
        result = run.spawn(jobs)
        passes.append(result)
        setups.append(result)
        for _ in range(SETUP_PROBES):
            setups.append(run.spawn(jobs, "--setup-only"))
        rounds.append(run.elapsed() - begun)
    median = statistics.median
    metrics = {
        "wall_s": median(p["wall_s"] / p["slowdown"] for p in passes),
        "ideals_per_s": median(p["attempted"] * p["slowdown"] / p["wall_s"] for p in passes),
        "cpu_s": median(p["cpu_s"] / p["slowdown"] for p in passes),
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "setup_s": median(s["setup_s"] / s["setup_slowdown"] for s in setups),
    }
    raw = {"wall_s": [p["wall_s"] for p in passes],
           "ideals_per_s": [p["attempted"] / p["wall_s"] for p in passes],
           "cpu_s": [p["cpu_s"] for p in passes],
           "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
           "setup_s": [s["setup_s"] for s in setups],
           "slowdown": [p["slowdown"] for p in passes],
           "setup_slowdown": [s["setup_slowdown"] for s in setups],
           "op_walls_s": {key: [p["op_walls"][i] for p in passes]
                          for i, key in enumerate(passes[0]["digests"])}}
    return passes, {"metrics": metrics, "raw": raw}


def run_traced(run: Run) -> tuple[list[dict], dict]:
    from layers import per_layer

    spans = OUT / f"spans-{run.args.workload}.json"
    plain, traced, layer_runs, rounds = [], [], [], []
    while run.more(rounds, 1, 1):
        begun = run.elapsed()
        plain.append(run.spawn(1))
        traced.append(run.spawn(1, "--trace", str(spans)))
        with open(spans) as fh:
            dump = json.load(fh)
        layer_runs.append(per_layer(dump))
        if dump["missing"]:
            print(f"run: tracer hooks missing: {dump['missing']}", file=sys.stderr)
        rounds.append(run.elapsed() - begun)
    metrics = {name: statistics.median(r[name] for r in layer_runs) for name in layer_runs[0]}
    untraced_wall = statistics.median(p["wall_s"] / p["slowdown"] for p in plain)
    traced_wall = statistics.median(p["wall_s"] / p["slowdown"] for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    # tracing must not change a single output
    for p in traced:
        if p["digests"] != plain[0]["digests"]:
            print("run: traced outputs differ from untraced ones", file=sys.stderr)
            p["failed"] = p["attempted"]
    return plain + traced, {"metrics": metrics,
                            "raw": {"untraced_wall_s": [p["wall_s"] for p in plain],
                                    "traced_wall_s": [p["wall_s"] for p in traced]}}


def main(argv=None) -> int:
    if not (ROOT / "src" / "polymat" / "__init__.py").is_file() or not SPEC.is_file():
        print("run: needs src/polymat and BENCHMARK.json; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs with no recorded references (self-check only)")
    args = p.parse_args(argv)
    # turn SIGTERM into an exception, so a pass in flight is killed, not orphaned
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    traced = bool(args.trace)
    jobs = 1 if traced or args.workload != "sweep" else (os.cpu_count() or 1)
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    try:
        run.spawn(jobs, "--setup-only")  # warm-up: compiles bytecode, not measured
        run.start = time.monotonic()
        passes, measured = run_traced(run) if traced else run_untraced(run, jobs)
    except PassFailed as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = measured["metrics"]
    record = {
        "environment": environment(args, passes[0]["input_seed"], jobs),
        "passes": len(passes),
        "fail_frac": failed / attempted,
        "digests": passes[0]["digests"],
        "metrics": metrics,
        "raw": measured["raw"],
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(record["environment"], sort_keys=True))
    for m in wanted:
        line = f"{args.workload:>8} {m['name']:<32} {metrics[m['name']]:>16.6g} {m['unit']}"
        values = measured["raw"].get(m["name"])
        if values:
            line += (f"  (raw: n={len(values)} min={min(values):.6g} "
                     f"median={statistics.median(values):.6g} max={max(values):.6g})")
        print(line)
    print(f"{args.workload:>8} {'fail_frac':<32} {record['fail_frac']:>16.6g} ratio"
          f"  ({failed} of {attempted} operations, {len(passes)} passes)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
