"""Seeded inputs and jobs for the four benchmark workloads.

Every job is one ``plumblat`` command line plus the checks its output must
pass.  The inputs are written as files; the program under test sees only
those files (and, for ``sfs`` jobs, the Seifert string read back from one).

The seed relabels vertex ids and permutes edge lines and edge endpoints
everywhere; in ``box-chains`` and ``graded-orbits`` it also permutes vertex
lines and Seifert legs.  Box sizes, |det| and the dimension multisets do not
depend on it, so the expected values below hold for every seed.  Seed 0 is
the identity: the shipped fixtures are reproduced exactly, which is what
lets their jobs be compared byte for byte against the golden files.

``surgery-exact`` and ``classify-search`` keep the vertex order because
their cost depends on it.  Over 16 orders of the two Sigma(2,3,7) stars, 16
framing decrements took 0.47-1.87 s.  Exact elimination in ``triad`` is
milder: with the order permuted, the same three of ten seeds ran 5-8%
slower in two sets of runs.  Permuting would make the seed, not the
program, set these workloads' times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"


@dataclass(frozen=True)
class Forest:
    vertices: tuple[tuple[str, int], ...]
    edges: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class Seifert:
    e0: int
    legs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Check:
    """One output check: ``kind`` names a rule in :mod:`checks`."""

    kind: str
    params: tuple = ()


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    checks: tuple[Check, ...]


def chain(framings) -> Forest:
    ids = [f"v{i}" for i in range(len(framings))]
    return Forest(
        tuple(zip(ids, framings)), tuple(zip(ids, ids[1:]))
    )


def read_fixture(name: str) -> Forest:
    vertices, edges = [], []
    for raw in (FIXTURES / name).read_text(encoding="utf-8").splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens and tokens[0] == "vertex":
            vertices.append((tokens[1], int(tokens[2])))
        elif tokens and tokens[0] == "edge":
            edges.append((tokens[1], tokens[2]))
    return Forest(tuple(vertices), tuple(edges))


def read_sfs(text: str) -> Seifert:
    head, _, tail = text.strip().partition(";")
    legs = tuple(tuple(int(x) for x in pair.split("/")) for pair in tail.split())
    return Seifert(int(head), legs)


def disjoint(*forests: Forest) -> Forest:
    vertices, edges = [], []
    for j, forest in enumerate(forests):
        rename = {vid: f"s{j}{vid}" for vid, _ in forest.vertices}
        vertices += [(rename[v], m) for v, m in forest.vertices]
        edges += [(rename[a], rename[b]) for a, b in forest.edges]
    return Forest(tuple(vertices), tuple(edges))


def sigma237() -> Forest:
    """Star with center -1 and legs -2, -3, -7: the Brieskorn sphere."""
    return Forest(
        (("c", -1), ("p", -2), ("q", -3), ("r", -7)),
        (("c", "p"), ("c", "q"), ("c", "r")),
    )


def relabel(forest: Forest, rng: random.Random | None,
            keep_order: bool = False) -> tuple[str, dict[str, str]]:
    """DSL text of a seeded copy of ``forest`` and the old-to-new id map."""
    vertices, edges = list(forest.vertices), list(forest.edges)
    if rng is None:
        names = {vid: vid for vid, _ in vertices}
    else:
        fresh = rng.sample(range(10 * len(vertices)), len(vertices))
        names = {vid: f"n{k}" for (vid, _), k in zip(vertices, fresh)}
        if not keep_order:
            rng.shuffle(vertices)
        rng.shuffle(edges)
        edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    lines = [f"vertex {names[v]} {m}" for v, m in vertices]
    lines += [f"edge {names[a]} {names[b]}" for a, b in edges]
    return "\n".join(lines) + "\n", names


def permute_legs(data: Seifert, rng: random.Random | None,
                 keep_order: bool = False) -> str:
    legs = list(data.legs)
    if rng is not None and not keep_order:
        rng.shuffle(legs)
    return f"{data.e0}; " + " ".join(f"{a}/{b}" for a, b in legs) + "\n"


# Expected values are facts about the manifolds, fixed here once; the seed
# cannot move them.  The chains are lens spaces and the Poincare sphere and
# the star below are L-spaces too: dimension |det|, one per orbit.
LSPACE = "lspace_homology"


def _box_chains():
    for n in range(6, 11):
        det = 4 * (n - 2) + 8
        yield (f"chain{n}", chain([-3] + [-2] * (n - 2) + [-3]),
               ["homology", "--json", "@"], [Check(LSPACE, (det,))])
    yield ("e8", read_fixture("e8.plumb"), ["homology", "--json", "@"],
           [Check(LSPACE, (1,)), Check("golden", ("e8_homology.json",))])
    yield ("star2_3_7_6", read_sfs("-2; 2/1 3/1 7/6"),
           ["sfs", "--sfs", "@", "homology", "--json"],
           [Check(LSPACE, (13,))])


def _graded_orbits():
    yield ("chain3x5", chain([-3] * 5), ["hplus", "--json", "@"],
           [Check("hplus", (144, 144))])
    yield ("e8", read_fixture("e8.plumb"), ["hplus", "--json", "@"],
           [Check("hplus", (1, 1))])
    yield ("elliptic_a", read_fixture("elliptic_a.plumb"), ["hplus", "--json", "@"],
           [Check("hplus", (4, 5))])
    yield ("elliptic_b", read_fixture("elliptic_b.plumb"), ["hplus", "--json", "@"],
           [Check("hplus", (13, 14))])
    yield ("chain_m1", chain([-1, -4, -2, -2, -2, -2, -3]), ["hplus", "--json", "@"],
           [Check("hplus", (24, 24))])


def _surgery_exact():
    yield ("chain6x3", chain([-6] * 3), ["triad", "--json", "@", "--vertex", "=v0"],
           [Check("triad", (35, 204, 169))])
    yield ("chain4x4", chain([-4] * 4), ["triad", "--json", "@", "--vertex", "=v0"],
           [Check("triad", (56, 209, 153))])
    yield ("chain5x3", chain([-5] * 3), ["triad", "--json", "@", "--vertex", "=v1"],
           [Check("triad", (25, 115, 90))])
    yield ("elliptic_b", read_fixture("elliptic_b.plumb"),
           ["triad", "--json", "@", "--vertex", "=f"], [Check("triad", (9, 14, 5))])
    yield ("chain_m1", chain([-1, -4, -2, -2, -2, -2, -3]),
           ["blowdown", "--json", "@", "--vertex", "=v0"], [Check("blowdown", (24,))])


def _classify_search():
    yield ("sigma237x2", disjoint(sigma237(), sigma237()),
           ["classify", "--json", "--nmax", "16", "@"],
           [Check("classify", (False, 4, 2, "unknown", 16, 1))])
    yield ("e8", read_fixture("e8.plumb"), ["classify", "--json", "@"],
           [Check("classify", (True, 1, 1, "yes", 0, 1)),
            Check("golden", ("e8_classify.json",))])
    yield ("elliptic_a", read_fixture("elliptic_a.plumb"), ["classify", "--json", "@"],
           [Check("classify", (False, 5, 2, "yes", 1, 4)),
            Check("golden", ("elliptic_a_classify.json",))])
    yield ("elliptic_b", read_fixture("elliptic_b.plumb"), ["classify", "--json", "@"],
           [Check("classify", (False, 14, 2, "yes", 1, 13))])
    for name, dim_h, dim_isharp in (("m038_n1", 6, 7), ("m038_n2", 9, 10)):
        data = read_sfs((FIXTURES / f"{name}.sfs").read_text(encoding="utf-8"))
        yield (name, data, ["sfs", "--sfs", "@", "classify", "--json"],
               [Check("sfs_classify", (False, dim_h, 1, dim_isharp, False))])


WORKLOADS = {
    "box-chains": _box_chains,
    "graded-orbits": _graded_orbits,
    "surgery-exact": _surgery_exact,
    "classify-search": _classify_search,
}


# Workloads whose cost depends on the vertex order; see the module docstring.
KEEP_ORDER = {"surgery-exact", "classify-search"}


def generate(workload: str, seed: int, outdir: Path) -> list[Job]:
    """Write the seeded inputs of ``workload`` under ``outdir``; return its jobs.

    ``@`` in an argv template stands for the input (its file path, or the
    Seifert string read back from its file); ``=id`` for a vertex id of the
    input after relabelling.  Golden checks apply at seed 0 only.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    keep_order = workload in KEEP_ORDER
    jobs = []
    for index, (name, data, template, checks) in enumerate(WORKLOADS[workload]()):
        rng = None if seed == 0 else random.Random(seed * 1_000_003 + index)
        names: dict[str, str] = {}
        if isinstance(data, Forest):
            text, names = relabel(data, rng, keep_order)
            path = outdir / f"{name}.plumb"
        else:
            text = permute_legs(data, rng, keep_order)
            path = outdir / f"{name}.sfs"
        path.write_text(text, encoding="utf-8")
        argv = []
        for arg in template:
            if arg == "@":
                argv.append(str(path) if isinstance(data, Forest)
                            else path.read_text(encoding="utf-8").strip())
            elif arg.startswith("="):
                argv.append(names[arg[1:]])
            else:
                argv.append(arg)
        kept = tuple(c for c in checks if c.kind != "golden" or seed == 0)
        jobs.append(Job(name, tuple(argv), kept))
    return jobs
