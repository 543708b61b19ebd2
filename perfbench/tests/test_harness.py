"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _generated(workload, seed, outdir):
    jobs = workloads.generate(workload, seed, outdir)
    files = {p.name: p.read_text() for p in sorted(outdir.iterdir())}
    argv = [tuple(a.replace(str(outdir), "<dir>") for a in job.argv) for job in jobs]
    return files, argv, [job.checks for job in jobs]


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in workloads.WORKLOADS:
        for seed in (0, 1, 7):
            first = _generated(workload, seed, tmp_path / f"{workload}-{seed}-a")
            second = _generated(workload, seed, tmp_path / f"{workload}-{seed}-b")
            assert first == second, (workload, seed)
        assert (_generated(workload, 1, tmp_path / f"{workload}-1-c")[0]
                != _generated(workload, 2, tmp_path / f"{workload}-2")[0])


def test_seed_zero_reproduces_fixtures(tmp_path):
    workloads.generate("classify-search", 0, tmp_path)
    for name in ("e8", "elliptic_a", "elliptic_b"):
        fixture = [line.split("#", 1)[0].strip()
                   for line in (ROOT / "fixtures" / f"{name}.plumb").read_text().splitlines()]
        assert [line for line in fixture if line] == (tmp_path / f"{name}.plumb").read_text().splitlines()
    assert (tmp_path / "m038_n1.sfs").read_text() == (ROOT / "fixtures" / "m038_n1.sfs").read_text()


def test_other_seeds_keep_the_multiset_of_framings(tmp_path):
    workloads.generate("surgery-exact", 5, tmp_path)
    text = (tmp_path / "elliptic_b.plumb").read_text()
    framings = sorted(int(line.split()[2]) for line in text.splitlines() if line.startswith("vertex"))
    assert framings == [-3, -3, -2, -2, -2, -2]
    assert " a " not in text and "vertex a " not in text


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["cli.main", 0, 100, None],
        ["homology.compute_homology", 10, 40, 0],
        ["intlinalg.adjugate", 15, 20, 1],
        ["intlinalg.adjugate", 25, 27, 1],
        ["moves.blow_down", 50, 80, 0],
        ["cli.main", 120, 130, None],
    ]
    assert spans.self_times(tree) == [100 - 30 - 30, 30 - 5 - 2, 5, 2, 30, 10]


def test_spans_leave_out_the_speed_probes():
    """Self times of a traced pass add up to no more than the pass itself.

    The pass lasts many probe intervals, so the probes the SIGALRM handler
    runs inside spans would push the sum over the pass if spans counted them.
    """
    import plumblat.cli

    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        with speed.Sampler() as sampler:
            for _ in range(3):
                with contextlib.redirect_stdout(io.StringIO()):
                    assert plumblat.cli.main(["sfs", "--sfs", "-2; 2/1 3/1 7/6", "homology"]) == 0
    finally:
        spans.restore(undo)
    assert len(sampler.rates) >= 6
    assert sum(spans.self_times(rec.spans)) <= sampler.elapsed * 1e9


def test_inclusive_time_counts_nested_same_name_once():
    tree = [
        ["classify.is_rational", 0, 50, None],
        ["classify.is_rational", 10, 20, 0],
        ["classify.is_rational", 60, 70, None],
    ]
    assert spans.inclusive_times(tree)["classify.is_rational"] == 60


def test_install_rebinds_every_import_site_and_restore_undoes_it():
    import plumblat.cli  # noqa: F401
    from plumblat import charlattice, classify, cli, homology, hplus, moves

    original, rational = homology.compute_homology, classify.is_rational
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        for module in (homology, hplus, classify, moves, cli):
            assert module.compute_homology is not original
        assert classify.is_rational is cli.is_rational is not rational
        homology.compute_homology(plumblat.dsl.parse_plumbing("vertex v -3\n"))
    finally:
        spans.restore(undo)
    for module in (homology, hplus, classify, moves, cli):
        assert module.compute_homology is original
    assert "key" in charlattice.OrbitIndexer.__dict__
    assert rec.counts["homology.compute_homology"] == 1
    assert rec.counts["homology.box_vectors"] == 4
    assert rec.counts["charlattice.OrbitIndexer.key"] > 0


def test_generator_wrapper_times_each_resumption():
    from plumblat import intlinalg

    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        points = list(intlinalg.quadratic_sublevel_points([[1, 0], [0, 1]], [0, 0], -2, 1000))
    finally:
        spans.restore(undo)
    assert len(points) == 9
    assert rec.counts["intlinalg.quadratic_sublevel_points.items"] == 9
    resumes = [i for i, span in enumerate(rec.spans)
               if span[0] == "intlinalg.quadratic_sublevel_points"]
    assert len(resumes) == 10  # nine yields and the final StopIteration
    # the set-up solve inside the first resumption nests under it
    assert all(span[3] == resumes[0] for span in rec.spans if span[0] == "intlinalg.adjugate")


def test_checks_reject_wrong_output():
    good = json.dumps({"total_dim": 3, "det": -3,
                       "per_orbit": [{"dim": 1}, {"dim": 1}, {"dim": 1}]})
    lspace = (workloads.Check("lspace_homology", (3,)),)
    assert checks.check_output(lspace, 0, good) is None
    assert checks.check_output(lspace, 2, good) == "exit code 2"
    bad = good.replace('"total_dim": 3', '"total_dim": 4')
    assert checks.check_output(lspace, 0, bad)
    golden = (workloads.Check("golden", ("e8_classify.json",)),)
    text = (ROOT / "tests" / "golden" / "e8_classify.json").read_text()
    assert checks.check_output(golden, 0, text) is None
    assert checks.check_output(golden, 0, text.replace("  ", " ", 1))


def test_benchmark_json_names_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mib"}


def _traced_counts():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "surgery-exact",
         "--seed", "2", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] == "count" or name == "homology.zero_frac"}


def test_count_metrics_repeat_across_traced_runs():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["homology.compute_calls"] > 0 and first["intlinalg.rank_calls"] > 0


def test_fails_without_result_where_there_is_no_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "box-chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
