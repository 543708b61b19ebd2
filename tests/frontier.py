"""Frontier ladder: the Seifert stars, chains and triad past the benchmark's
workloads.  Run it as ``PYTHONPATH=src python tests/frontier.py``.

Each table row runs ``python`` with its arguments under ``timeout 120``, reads
that process's wall time and peak RSS with ``os.wait4`` and gates on its JSON
output; input text goes to a temporary directory.  The start-up row runs last,
so its times are with a warm bytecode cache.  Every row runs and prints one
line; the exit status is 1 if any row failed.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ["-m", "plumblat.cli"]


def chain(framings: list[int]) -> str:
    names = [f"v{i}" for i in range(len(framings))]
    return ("".join(f"vertex {v} {m}\n" for v, m in zip(names, framings))
            + "".join(f"edge {a} {b}\n" for a, b in zip(names, names[1:])))


def hplus_facts(report: dict) -> dict:
    rows = report["per_orbit"]
    return {"cross_check_ok": report["cross_check_ok"], "orbits": len(rows),
            "homology_dim": sum(row["homology_dim"] for row in rows),
            "flooded": sum(row["ker_u_rank"] > 1 for row in rows)}


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
    *[(f"homology on (-3, -2^{k}, -3)", [*CLI, "homology", "--json", "{input}"],
       chain([-3] + [-2] * k + [-3]), None, {"total_dim": 4 * k + 8}) for k in (10, 11, 12)],
    ("triad on the (-4)^6 chain at v1", [*CLI, "triad", "--json", "{input}", "--vertex", "v1"],
     chain([-4] * 6), None, {"exact": True, "dims": [836, 2911, 2075]}),
    (f'smith_form on "{star(201)}"', ["-c", SMITH], None, dict, {"prod_d_is_det_is_h1": True}),
]


def table_row(tmp: str, argv: list[str], text: str | None, facts, gate: dict):
    path = os.path.join(tmp, "input.plumb")
    if text is not None:
        Path(path).write_text(text)
    argv = ["timeout", "120", sys.executable, *(path if arg == "{input}" else arg for arg in argv)]
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)  # this run alone
        proc.returncode = code = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    found = {}
    if code == 0:
        report = json.loads(out)
        found = facts(report) if facts else {name: report[name] for name in gate}
    ok = code == 0 and all(found[name] == value for name, value in gate.items())
    shown = "".join(f", {name} {value}" for name, value in found.items())
    return ok, f"{wall:.2f} s, peak RSS {usage.ru_maxrss / 1024:.1f} MiB, exit {code}{shown}"


def startup_row():
    argv = [sys.executable, "-X", "importtime", "-c", "import plumblat.cli"]
    err = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=120).stderr
    rows = [line.split("|") for line in err.splitlines() if line.startswith("import time:")]
    cumulative = {name.strip(): int(us) for _, us, name in rows if us.strip().isdigit()}
    loaded = sorted(name for name in cumulative if name.split(".")[0] == "plumblat")
    lines = [f"import plumblat.cli {cumulative['plumblat.cli'] / 1000:.1f} ms, loads {loaded}"]
    for command in ("--version", "info fixtures/e8.plumb", "homology fixtures/e8.plumb"):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            subprocess.run([sys.executable, *CLI, *command.split()], cwd=ROOT,
                           stdout=subprocess.DEVNULL, check=True, timeout=120)
            times.append(time.perf_counter() - start)
        lines.append(f"plumblat {command} {statistics.median(times) * 1000:.0f} ms (median of 5)")
    return loaded == ["plumblat", "plumblat.cli", "plumblat.errors"], "; ".join(lines)


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        checks = [(label, lambda row=row: table_row(tmp, *row)) for label, *row in ROWS]
        checks.append(("start-up, warm bytecode cache", startup_row))
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
