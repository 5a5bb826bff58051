"""Self-check of the benchmark on tiny inputs.

    python3 perfbench/selfcheck.py

Run it from the repository root.  For every workload it runs run.py with
--tiny once untraced and once traced and checks that:
  - BENCHMARK.json keeps to its documented shape;
  - each run is correct and its result line names every metric of
    BENCHMARK.json for its mode, with the unit given there, and no other;
  - the traced run's outputs equal the untraced run's (run.py itself also
    compares every traced pass with the untraced pass beside it).
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec: dict) -> list[str]:
    errors = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errors.append(f"BENCHMARK.json keys {sorted(spec)} != {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.fullmatch(name):
            errors.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        errors.append("a name is used twice")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.fullmatch(m["unit"]) or m["better"] not in ("lower", "higher"):
            errors.append(f"bad unit or direction in {m}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errors.append(f"bad end-to-end metric {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end-to-end metric in s, lower is better")
    if any(len(w["why"]) > 200 or set(w) != {"name", "why"} for w in spec["workloads"]):
        errors.append("a workload needs exactly a name and a why of at most 200 characters")
    return errors


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH / "out" / f"result-{workload}-trace{trace}.json").read_text())
    return result, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_spec(spec)
    for w in spec["workloads"]:
        digests = []
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result, record = run(w["name"], trace)
            label = f"{w['name']} --trace {trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                errors.append(f"{label}: incorrect run")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expected = {m["name"]: m["unit"] for m in wanted}
            if units != expected:
                errors.append(f"{label}: metrics {units} != {expected}")
            digests.append(record["digests"])
        if digests[0] != digests[1]:
            errors.append(f"{w['name']}: traced outputs differ from untraced ones")
        print(f"selfcheck: {w['name']} done", file=sys.stderr)
    for e in errors:
        print(f"selfcheck: FAIL {e}")
    print("selfcheck: OK" if not errors else f"selfcheck: {len(errors)} failures")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
