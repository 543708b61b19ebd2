"""Frontier ladder: the Seifert stars, chains, triads and blow-down past the
benchmark's workloads.  Run it as ``PYTHONPATH=src python tests/frontier.py``.

Each table row runs ``python`` with its arguments under ``timeout 120`` three
times, reads each process's wall time and peak RSS with ``os.wait4`` and gates
on the JSON output of every run; input text goes to a temporary directory.  A
row prints the median wall time and the largest peak RSS: one process time
spreads by up to 40% on a small host, so a row read once says little about a
change.  The two start-up rows time
a copy of ``src/plumblat`` in that directory: cold with
``PYTHONDONTWRITEBYTECODE=1``, so nothing is cached, then warm, after one run
without that variable has written the copy's bytecode.  Every row runs and
prints one line; the exit status is 1 if any row failed.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "plumblat.cli"]
RUNS = 3  # processes per table row


def chain(framings: list[int]) -> str:
    names = [f"v{i}" for i in range(len(framings))]
    return ("".join(f"vertex {v} {m}\n" for v, m in zip(names, framings))
            + "".join(f"edge {a} {b}\n" for a, b in zip(names, names[1:])))


def sigma237_stars(count: int) -> str:
    """``count`` disjoint (-1; -2, -3, -7) stars, each bounding Sigma(2,3,7)."""
    return "".join(f"vertex c{j} -1\n" + "".join(f"vertex l{j}{-m} {m}\nedge c{j} l{j}{-m}\n"
                                                for m in (-2, -3, -7)) for j in range(count))


def hplus_facts(report: dict) -> dict:
    rows = report["per_orbit"]
    return {"cross_check_ok": report["cross_check_ok"], "orbits": len(rows),
            "homology_dim": sum(row["homology_dim"] for row in rows),
            "flooded": sum(row["ker_u_rank"] > 1 for row in rows)}


def blowdown_facts(report: dict) -> dict:
    return {"dim_before": report["dim_before"], "dim_after": report["dim_after"],
            "classes": len(report["class_map"])}


def star(p: int) -> str:
    return f"-2; 2/1 3/1 {p}/{p - 1}"


def sfs(text: str, command: str, facts, gate: dict) -> tuple:
    argv = [*CLI, "sfs", "--sfs", text, command, "--json"]
    return f'sfs "{text}" {command}', argv, None, facts, gate


SMITH = f"""import json, math, time
from plumblat import intersection_form, intlinalg, parse_sfs, seifert_to_plumbing
conversion = seifert_to_plumbing(parse_sfs("{star(201)}"))
form = intersection_form(conversion.forest)
start = time.perf_counter()
moduli, _ = intlinalg.smith_form(form.matrix)
print(json.dumps({{"vertices": len(form), "smith_s": round(time.perf_counter() - start, 3),
                  "invariant_factors_above_1": [d for d in moduli if d > 1],
                  "prod_d_is_det_is_h1": math.prod(moduli) == abs(form.determinant)
                  == conversion.h1_order}}))
"""

# (label, python argv with "{input}" for the text, text, facts, gate): each fact
# the gate names must have the gate's value; facts None reports the gate's keys.
ROWS = [
    sfs(star(11), "hplus", hplus_facts, {"cross_check_ok": True}),
    sfs("-2; 2/1 5/2 7/3 4/1", "hplus", hplus_facts,
        {"cross_check_ok": True, "orbits": 118, "homology_dim": 124}),
    sfs(star(13), "hplus", hplus_facts, {"cross_check_ok": True, "homology_dim": 19}),
    sfs(star(13), "homology", None, {"total_dim": 19}),
    *[sfs(star(p), "classify", None, {"dim_h": p + 6, "is_instanton_lspace": True})
      for p in (61, 201, 998)],
    *[(f"homology on (-3, -2^{k}, -3)", [*CLI, "homology", "--json", "{input}"],
       chain([-3] + [-2] * k + [-3]), None, {"total_dim": 4 * k + 8}) for k in (10, 11, 12)],
    ("homology on (-3, -2^13, -3), the largest chain under --box-cap 30000000",
     [*CLI, "homology", "--json", "--box-cap", "30000000", "{input}"],
     chain([-3] + [-2] * 13 + [-3]), None, {"total_dim": 60}),
    ("triad on the (-4)^6 chain at v1", [*CLI, "triad", "--json", "{input}", "--vertex", "v1"],
     chain([-4] * 6), None, {"exact": True, "dims": [836, 2911, 2075]}),
    ("triad on the (-5)^6 chain at v2", [*CLI, "triad", "--json", "{input}", "--vertex", "v2"],
     chain([-5] * 6), None, {"exact": True, "dims": [2760, 12649, 9889]}),
    ("blowdown on the (-1, -5, -4^5, -3) chain at v0",
     [*CLI, "blowdown", "--json", "{input}", "--vertex", "v0"], chain([-1, -5] + [-4] * 5 + [-3]),
     blowdown_facts, {"dim_before": 7953, "dim_after": 7953}),
    (f'smith_form on "{star(201)}"', ["-c", SMITH], None, dict, {"prod_d_is_det_is_h1": True}),
    ("classify --point-cap 100 on three disjoint Sigma(2,3,7) stars",
     [*CLI, "classify", "--json", "--point-cap", "100", "{input}"], sigma237_stars(3), None,
     {"rational_witness": [0] * 8 + [2, 1, 1, 1]}),
]


def table_row(tmp: str, argv: list[str], text: str | None, facts, gate: dict):
    path = os.path.join(tmp, "input.plumb")
    if text is not None:
        Path(path).write_text(text)
    argv = ["timeout", "120", sys.executable, *(path if arg == "{input}" else arg for arg in argv)]
    ok, walls, peaks, codes = True, [], [], []
    for _ in range(RUNS):
        start = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)  # this run alone
            proc.returncode = code = os.waitstatus_to_exitcode(status)
        walls.append(time.perf_counter() - start)
        peaks.append(usage.ru_maxrss / 1024)
        codes.append(code)
        found = {}
        if code == 0:
            report = json.loads(out)
            found = facts(report) if facts else {name: report[name] for name in gate}
        ok &= code == 0 and all(found[name] == value for name, value in gate.items())
    shown = "".join(f", {name} {value}" for name, value in found.items())
    exits = ", ".join(map(str, sorted(set(codes))))
    return ok, (f"{statistics.median(walls):.2f} s median, peak RSS {max(peaks):.1f} MiB"
                f" largest of {RUNS}, exit {exits}{shown}")


def startup_row(tmp: str, warm: bool):
    """Import and e8 homology times of the copy of ``src/plumblat`` in ``tmp``."""
    src = os.path.join(tmp, "src")
    if not os.path.isdir(src):
        shutil.copytree(ROOT / "src" / "plumblat", os.path.join(src, "plumblat"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = src
    if not warm:
        env["PYTHONDONTWRITEBYTECODE"] = "1"

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                              text=True, check=True, timeout=120)

    homology = (*CLI, "homology", "fixtures/e8.plumb")
    if warm:
        run(*homology)  # this pass writes the copy's bytecode
    imports, runs = [], []
    for _ in range(5):
        done = run("-X", "importtime", "-c", "import plumblat.cli; print(plumblat.cli.__file__)")
        rows = [line.split("|") for line in done.stderr.splitlines()
                if line.startswith("import time:")]
        cumulative = {name.strip(): int(us) for _, us, name in rows if us.strip().isdigit()}
        imports.append(cumulative["plumblat.cli"] / 1000)
        start = time.perf_counter()
        run(*homology)
        runs.append(time.perf_counter() - start)
    loaded = sorted(name for name in cumulative if name.split(".")[0] == "plumblat")
    ok = loaded == ["plumblat", "plumblat.cli", "plumblat.errors"] and done.stdout.startswith(src)
    return ok, (f"import plumblat.cli {statistics.median(imports):.1f} ms, loads {loaded}; "
                f"plumblat homology fixtures/e8.plumb {statistics.median(runs) * 1000:.0f} ms"
                " (medians of 5)")


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        checks = [(label, lambda row=row: table_row(tmp, *row)) for label, *row in ROWS]
        checks.append(("start-up, cold: no cached bytecode", lambda: startup_row(tmp, False)))
        checks.append(("start-up, warm bytecode cache", lambda: startup_row(tmp, True)))
        for label, check in checks:
            try:
                ok, facts = check()
            except Exception as exc:  # a broken row still lets the others run
                ok, facts = False, f"{type(exc).__name__}: {exc}"
            failed |= not ok
            print(f"- {'PASS' if ok else 'FAIL'} {label}: {facts}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
