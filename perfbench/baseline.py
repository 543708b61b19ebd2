"""Run every workload on several seeds and record medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload of ``BENCHMARK.json``: one untraced run on each of seeds
1-10, then one traced run on seed 1.  For each end-to-end metric it records
the ten values, their median and their spread (distance between the first
and third quartile of ``statistics.quantiles(values, n=4)``, as a share of
the median), the numbers the benchmark's bounds are checked against.  Runs
one at a time.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    record = {"machine": {"python": platform.python_version(), "machine": platform.machine(),
                          "system": platform.system()},
              "run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, mid, q3 = quantiles(values, n=4)
            entry["end_to_end"][name] = {
                "median": median(values), "spread": (q3 - q1) / mid, "bound": bound,
                "values": values}
            print(f"{workload} {name}: median {median(values):.4f} "
                  f"spread {(q3 - q1) / mid:.4f} (bound {bound})", flush=True)
        traced = run(workload, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer_seed"] = SEEDS[0]
        entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
