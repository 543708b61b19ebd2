"""plumblat benchmark: a closed-loop client of the ``plumblat`` CLI.

    python3 perfbench/run.py --workload box-chains --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 0          # all four workloads, one after another

One client calls ``plumblat.cli.main(argv)`` in-process, one job after the
next, in a fresh child process per workload run (see ``child.py``), so the
child's peak RSS belongs to that workload alone.  With ``--trace 0`` it prints
the end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mib``; with
``--trace 1`` the per-layer metrics of ``spans.py``.  Human-readable lines
come first, ``failed_frac`` among them; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when the checkout has no ``src/plumblat``, or when
a child fails to report.  Children run with a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(workloads.WORKLOADS)
# set-up is short and noisy, so it is sampled in extra set-up-only children
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def start_child(workload: str, seed: int, seconds: float, trace: int,
                setup_only: bool) -> tuple[subprocess.Popen, float]:
    """Start a child; return it and its set-up time (start until ``ready``)."""
    workdir = HERE / ".work" / f"{workload}-seed{seed}"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                            cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child did not get ready (exit {proc.returncode})")
    return proc, setup


def finish_child(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited with {proc.returncode}")
    return out


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} value {values[0]:.4f}"
    q1, q2, q3 = quantiles(values, n=4)
    return (f"n={len(values)} min {min(values):.4f} q1 {q1:.4f} median {q2:.4f}"
            f" q3 {q3:.4f} max {max(values):.4f}")


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run: returns the contract's result object and prints lines."""
    setups = []
    if not trace:
        before = speed.startup_rate()
        for _ in range(SETUP_SAMPLES):
            proc, setup = start_child(workload, seed, seconds, 0, True)
            finish_child(proc)
            after = speed.startup_rate()
            setups.append(setup * (before + after) / 2)
            before = after
    proc, _ = start_child(workload, seed, seconds, trace, False)
    report = json.loads(finish_child(proc).splitlines()[-1])

    attempted, failed = report["attempted"], report["failed"]
    correct = failed == 0
    print(f"# {workload} seed {seed} trace {trace}: {len(report['pass_times'])} untraced"
          f" and {len(report.get('traced_times', []))} traced passes")
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    print(f"failed_frac {failed / attempted:.6f} ratio  ({failed} of {attempted} jobs)")
    print(f"spread wall_s {spread(report['pass_times'])}")
    print(f"spread wall_s before normalization {spread(report['raw_times'])}")
    if trace:
        units = dict(spans.PER_LAYER)
        for name, value in report["layer_metrics"].items():
            print(f"{name} {value:.6g} {units[name]}")
        if not report["counts_repeat"]:
            print("FAILED count metrics differ between traced passes")
            correct = False
        out = {name: {"value": value, "unit": units[name]}
               for name, value in report["layer_metrics"].items()}
    else:
        print(f"spread setup_s {spread(setups)}")
        out = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "peak_rss_mib": {"value": report["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
        for name, entry in out.items():
            print(f"{name} {entry['value']:.4f} {entry['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": out}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload; all four when omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plumblat" / "__init__.py").is_file():
        print(f"benchmark: no src/plumblat under {ROOT}", file=sys.stderr)
        return 2
    try:
        if args.workload:
            result = measure(args.workload, args.seed, args.seconds, args.trace)
        else:
            results = {w: measure(w, args.seed, args.seconds, args.trace)
                       for w in WORKLOADS}
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{w}/{name}": entry for w, r in results.items()
                            for name, entry in r["metrics"].items()},
            }
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
