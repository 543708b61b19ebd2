"""Digest of the command line's whole observable behaviour on a fixed corpus.

Each run is keyed by its argv, with every input file named by its bare file
name, and digested as the sha256 of its exit code, stdout and stderr.  The
corpus:

* every ``.plumb`` fixture and a ``convention plus_one`` copy of it, with
  ``info``, ``homology``, ``hplus`` and ``classify``, human and ``--json``,
  and ``triad --json`` and ``blowdown --json`` at every vertex;
* 40 seeded random forests of 1-6 vertices, alternating conventions, with
  the same commands;
* ``sfs`` on ten Seifert strings with all four actions, in both formats.

Regenerate ``golden/cli_digest.json`` with

    PYTHONPATH=src python tests/test_cli_digest.py

and name the regeneration in CHANGES.md.  CI also runs this module under
two values of PYTHONHASHSEED, so an output that follows the set order of
string ids fails every time rather than now and then.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from plumblat.cli import main

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
GOLDEN = HERE / "golden" / "cli_digest.json"

ACTIONS = ("info", "homology", "hplus", "classify")
SFS = (
    "-1; 2/1 5/1 5/-4",
    "-1; 3/1 4/1 4/-3",
    "-2; 2/1 3/1 7/6",
    "-1; 2/1 3/1 7/1",
    "-1; 4/1 5/3 7/1",
    "-2; 5/3 7/5 7/5",
    "-2; 3/1 3/1 3/1 3/1",
    "-2; 2/1 5/2 7/3 4/1",
    "1; 2/1 3/1 5/1",
    "-1; 2/1 3/1 11/2",
)
NAMES = ("a", "b", "c", "x", "y", "z", "v1", "v2", "v10", "leaf", "hub", "w")


def random_plumbing(rng: random.Random, plus_one: bool) -> str:
    """DSL text of a forest of 1-6 vertices with framings -4..-1, drawn with
    ``randrange`` only; not always negative definite."""
    pool = list(NAMES)
    ids = [pool.pop(rng.randrange(len(pool))) for _ in range(1 + rng.randrange(6))]
    lines = ["convention plus_one"] if plus_one else []
    lines += [f"vertex {v} {-1 - rng.randrange(4)}" for v in ids]
    for i in range(1, len(ids)):
        if rng.randrange(10) < 7:
            lines.append(f"edge {ids[rng.randrange(i)]} {ids[i]}")
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path) -> list[str]:
    """Write every input file into ``directory``; return their names."""
    names = []
    for path in sorted(FIXTURES.glob("*.plumb")):
        text = path.read_text(encoding="utf-8")
        for name, body in (
            (path.name, text),
            (f"{path.stem}_plus.plumb", text + "convention plus_one\n"),
        ):
            (directory / name).write_text(body, encoding="utf-8")
            names.append(name)
    rng = random.Random(0xD16E57)
    for i in range(40):
        name = f"random_{i:02d}.plumb"
        text = random_plumbing(rng, i % 2 == 1)
        (directory / name).write_text(text, encoding="utf-8")
        names.append(name)
    return names


def vertex_ids(path: Path) -> list[str]:
    return [
        line.split()[1]
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.split()[:1] == ["vertex"]
    ]


def corpus(directory: Path) -> list[list[str]]:
    runs = []
    for name in write_inputs(directory):
        for action in ACTIONS:
            runs += [[action, name], [action, name, "--json"]]
        for vertex in vertex_ids(directory / name):
            for move in ("triad", "blowdown"):
                runs.append([move, name, "--vertex", vertex, "--json"])
    for text in SFS:
        for action in ACTIONS:
            argv = ["sfs", "--sfs", text, action]
            runs += [argv, argv + ["--json"]]
    return runs


def run_digest(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    payload = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest(directory: Path) -> dict[str, str]:
    """Digest of every run, with ``directory`` as the working directory."""
    previous = Path.cwd()
    os.chdir(directory)
    try:
        return {" ".join(argv): run_digest(argv) for argv in corpus(directory)}
    finally:
        os.chdir(previous)


def test_cli_digest_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = digest(tmp_path)
    assert len(got) > 900
    changed = sorted(
        k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k)
    )
    assert not changed, f"{len(changed)} runs changed, first: {changed[:5]}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = digest(Path(scratch))
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    GOLDEN.write_text(text, encoding="utf-8")
    sys.stdout.write(f"wrote {len(table)} digests to {GOLDEN}\n")
