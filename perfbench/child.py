"""One measured workload run, in a process of its own.

Started by ``run.py``.  It imports ``plumblat`` from the checkout's ``src``,
writes the seeded inputs, prints ``ready`` (the parent times set-up up to
that line), then calls ``plumblat.cli.main(argv)`` in-process for one job
after another, capturing stdout, in passes over the workload's jobs until
``--seconds`` have gone by.  Outputs are checked after each pass, outside
the timed region.  Job times are normalized by host-speed probes taken
during the job (see ``speed.py``).  The last stdout line is a JSON report
for the parent.

With ``--trace 1`` untraced and traced passes alternate, which gives the
tracing overhead, and a final memory pass runs the largest homology input
once under tracemalloc; tracemalloc never runs during a timed pass.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
import tracemalloc
from pathlib import Path
from statistics import median

import checks
import spans
import speed
import workloads

SRC = workloads.ROOT / "src"


def import_program():
    """``plumblat.cli`` from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "plumblat" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no plumblat package under {SRC}")
    sys.path.insert(0, str(SRC))
    import plumblat.cli

    if Path(plumblat.__file__).resolve().parent != (SRC / "plumblat").resolve():
        raise SystemExit(f"benchmark: imported plumblat from {plumblat.__file__}")
    return plumblat.cli


def run_pass(cli, jobs) -> tuple[list[float], list[float], list[tuple[int | str, str]]]:
    """Run every job once, back to back.

    Returns per job its wall time and the same normalized by the host-speed
    samples taken during the job (see :mod:`speed`), and the outputs.
    """
    raw, normalized, outputs = [], [], []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        with speed.Sampler() as sampler, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(job.argv))
            except Exception:
                code = "raised " + traceback.format_exc(limit=3)
        raw.append(sampler.elapsed)
        normalized.append(sampler.normalized)
        outputs.append((code, out.getvalue()))
    return raw, normalized, outputs


def typical_pass(job_times: list[list[float]]) -> float:
    """Sum over jobs of each job's median time across passes.

    A slow spell of the host that the probes do not fully cancel hits a few
    jobs of one pass.  With three or four passes in a run, two such spells
    in different passes move the median of pass totals; per-job medians
    drop both unless they hit the same job.
    """
    return sum(median(times) for times in zip(*job_times))


def check_pass(jobs, outputs, failures: list[str]) -> int:
    failed = 0
    for job, (code, stdout) in zip(jobs, outputs):
        problem = (code if isinstance(code, str)
                   else checks.check_output(job.checks, code, stdout))
        if problem:
            failed += 1
            failures.append(f"{job.name}: {problem}")
    return failed


def memory_pass(forest) -> float:
    """tracemalloc peak bytes per box vector of one homology build."""
    from plumblat.homology import compute_homology

    tracemalloc.start()
    try:
        compute_homology(forest)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / spans.box_vectors(forest)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cli = import_program()
    jobs = workloads.generate(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    raw_times, job_times, traced_job_times, traced, failures = [], [], [], [], []
    attempted = failed = 0
    peak_rss_kib = None
    began = time.perf_counter()
    while True:
        if args.trace and len(job_times) > len(traced_job_times):
            rec = spans.Recorder()
            undo = spans.install(rec)
            try:
                raw, normalized, outputs = run_pass(cli, jobs)
            finally:
                spans.restore(undo)
            traced_job_times.append(normalized)
            traced.append((rec, sum(normalized) / sum(raw)))
        else:
            raw, normalized, outputs = run_pass(cli, jobs)
            raw_times.append(sum(raw))
            job_times.append(normalized)
            if peak_rss_kib is None:
                # the heap grows for a few passes before it settles, so a peak
                # over all passes would depend on how many the host allows
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        attempted += len(jobs)
        failed += check_pass(jobs, outputs, failures)
        if time.perf_counter() - began >= args.seconds and (
            not args.trace or traced_job_times
        ):
            break

    report = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "raw_times": raw_times,
        "pass_times": [sum(times) for times in job_times],
        "wall_s": typical_pass(job_times),
        "peak_rss_kib": peak_rss_kib,
    }
    if args.trace:
        per_pass = [spans.pass_metrics(rec, scale) for rec, scale in traced]
        counts_repeat = all(rec.counts == traced[0][0].counts for rec, _ in traced)
        metrics = spans.summarize(per_pass)
        metrics["trace_overhead_frac"] = (typical_pass(traced_job_times)
                                          / typical_pass(job_times) - 1)
        _, forest = max((rec.largest_homology for rec, _ in traced),
                           key=lambda entry: entry[0])
        metrics["homology.bytes_per_vector"] = memory_pass(forest) if forest else 0.0
        report["traced_times"] = [sum(times) for times in traced_job_times]
        report["counts_repeat"] = counts_repeat
        report["layer_metrics"] = {name: metrics[name] for name, _ in spans.PER_LAYER}
        with open(args.workdir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for number, (rec, _) in enumerate(traced):
                json.dump({"pass": number, "counts": dict(rec.counts),
                           "spans": rec.spans}, fh)
                fh.write("\n")
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
